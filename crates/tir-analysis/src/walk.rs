//! The one traversal of the static verifier.
//!
//! [`run`] descends a function once, keeping one [`Scope`] — the loops, the
//! composed block bindings, the enclosing blocks and two interval
//! environments — and hands what it meets to the checks its caller asked
//! for: loop-nest and threading validation at every loop and block
//! ([`mod@crate::validate`]), region cover ([`crate::region`]), bounds
//! ([`crate::bounds`]) and the race and scope analyses
//! ([`crate::racecheck`]) at every buffer access. Which checks run is the
//! entry point's choice ([`Check`]); the walk is the same for all of them.

use std::borrow::Cow;
use std::cell::OnceCell;

use tir::simplify::{is_simplified, simplified};
use tir::visit::{expr_any_var, ExprMutator};
use tir::{
    Block, BlockRealize, Buffer, Expr, For, ForKind, PrimFunc, Stmt, ThreadTag, Var, VarMap,
    RELAXING_ANNOTATIONS,
};
use tir_arith::bound::{bound_of, IntBound};

use crate::racecheck::Site;
use crate::region::AccessSet;
use crate::validate::{Nests, ValidationError};
use crate::{bounds, racecheck};

/// A check the walk can feed. The first two keep an interval environment
/// each ([`Scope::ranges`]).
#[derive(Clone, Copy)]
pub(crate) enum Check {
    /// Writes cover reads, on concrete boxes.
    Cover,
    /// Every index within its buffer's shape.
    Bounds,
    /// Loop-nest and threading validation.
    Nests,
    /// Iterations of parallel loops touch disjoint elements.
    Races,
    /// Scoped buffers stay within their level of the thread hierarchy.
    Scopes,
}

/// The name diagnostics give the block an access stands in.
pub(crate) fn name_of(block: Option<&Block>) -> &str {
    block.map_or("", |b| &b.name)
}

/// A loop as the checks read it: variable, constant extent if it has one,
/// kind.
pub(crate) type Loop<'a> = (&'a Var, Option<i64>, ForKind);

/// Where an expression sits. The checks do not all read the same ones: the
/// cover check skips predicates and the race and scope analyses skip
/// binding values, as they always have.
#[derive(Clone, Copy, PartialEq)]
enum Place {
    Binding,
    Predicate,
    Body,
}

/// Everything the walk knows about where it stands.
#[derive(Default)]
pub(crate) struct Scope<'a> {
    /// Which checks the walk feeds, indexed by [`Check`].
    on: [bool; 5],
    /// Every loop entered so far, with the index of the loop around it. It
    /// only grows, so an access site names its whole nest by the index of
    /// its innermost loop ([`Scope::nests`]) and copies nothing.
    loops: Vec<(&'a For, Option<usize>)>,
    /// The loops around the walk, outermost first, as indices into `loops`.
    path: Vec<usize>,
    /// Iterator variables of the enclosing blocks with their binding
    /// expressions composed down to loop variables, innermost last. Nested
    /// bindings are read through them, which is how a block's isolation
    /// boundary is crossed soundly. A binding that composing leaves as
    /// written is borrowed from the program.
    binds: Vec<(Var, Cow<'a, Expr>)>,
    /// Every block entered so far, when the race proof runs: the same
    /// composed bindings, kept after the block is left. Like `loops` it
    /// only grows, so an access site names every binding around it by the
    /// index of its innermost block's frame ([`Scope::composed_in`]), and
    /// its indices are composed only if the proof reads them.
    frames: Vec<Frame<'a>>,
    /// The frame of the innermost enclosing block, as an index into
    /// `frames`.
    frame: Option<usize>,
    /// The enclosing blocks, innermost last.
    blocks: Vec<&'a Block>,
    /// How many of them carry a relaxing annotation.
    relax_depth: usize,
    /// The interval environments of [`Check::Cover`] and [`Check::Bounds`].
    ranges: [VarMap<IntBound>; 2],
    /// What every range was before it was set, to put it back.
    trail: Vec<(Check, Cow<'a, Var>, Option<IntBound>)>,
}

/// A block the walk entered, when the race proof runs: its realize, the
/// frame of the block around it, and, once the block is left, its bindings
/// composed down to loop variables (`None` where that is the binding as
/// written), moved off the walk's stack.
struct Frame<'a> {
    parent: Option<usize>,
    realize: &'a BlockRealize,
    composed: Vec<Option<Expr>>,
}

/// Replaces block iterators by what `bound` gives for them:
/// `tir::visit::substituted` over a lookup of the walk's bindings, which
/// it cannot read (it wants a map, and one would have to be built per
/// block).
struct Compose<F>(F);

impl<'s, F: FnMut(&Var) -> Option<&'s Expr>> ExprMutator for Compose<F> {
    fn mutate_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Var(v) => {
                if let Some(value) = (self.0)(v) {
                    *e = Expr::clone(value);
                }
            }
            _ => self.walk_expr(e),
        }
    }
}

/// `e` composed through `bound` and simplified; `None` when that is `e` as
/// written — it names no variable `bound` knows and no simplification rule
/// fires on it — so nothing is copied.
fn compose<'s>(e: &Expr, mut bound: impl FnMut(&Var) -> Option<&'s Expr>) -> Option<Expr> {
    if !expr_any_var(e, &mut |v| bound(v).is_some()) && is_simplified(e) {
        return None;
    }
    let mut e = e.clone();
    Compose(bound).mutate_expr(&mut e);
    Some(simplified(e))
}

impl<'a> Scope<'a> {
    fn on(&self, check: Check) -> bool {
        self.on[check as usize]
    }

    /// The loops around the walk, outermost first.
    pub(crate) fn nest(&self) -> impl DoubleEndedIterator<Item = Loop<'a>> + Clone + '_ {
        self.path.iter().map(|&at| {
            let f = self.loops[at].0;
            (&f.var, f.extent.as_int(), f.kind)
        })
    }

    /// For every loop entered, the loops around it and itself, outermost
    /// first: the nest of each access site whose innermost loop it is. One
    /// nest per loop, built after the walk, not one per site during it.
    pub(crate) fn nests(&self) -> Vec<Vec<Loop<'a>>> {
        let mut nests: Vec<Vec<Loop>> = Vec::with_capacity(self.loops.len());
        for (f, around) in &self.loops {
            let mut nest = around.map_or_else(Vec::new, |at| nests[at].clone());
            nest.push((&f.var, f.extent.as_int(), f.kind));
            nests.push(nest);
        }
        nests
    }

    /// The thread bindings around the walk, outermost first. A loop of
    /// non-constant extent counts as one thread; loop-nest validation, the
    /// one reader that multiplies them, never looks below such a loop.
    pub(crate) fn threads(&self) -> impl Iterator<Item = (ThreadTag, i64)> + '_ {
        self.nest().filter_map(|(_, extent, kind)| match kind {
            ForKind::ThreadBinding(tag) => Some((tag, extent.unwrap_or(1))),
            _ => None,
        })
    }

    /// The innermost enclosing block.
    pub(crate) fn block(&self) -> Option<&'a Block> {
        self.blocks.last().copied()
    }

    /// `e` over loop variables only: composed through the bindings of the
    /// enclosing blocks, innermost first, then simplified. `None` when that
    /// is `e` as written — it names no iterator of an enclosing block and
    /// no simplification rule fires on it — so nothing is copied.
    pub(crate) fn composed(&self, e: &Expr) -> Option<Expr> {
        let binds = self.binds.iter().rev();
        compose(e, |v| {
            binds
                .clone()
                .find(|(b, _)| b == v)
                .map(|(_, value)| &**value)
        })
    }

    /// [`Scope::composed`] after the walk, for an expression that stood in
    /// `frame`: the same bindings in the same order, read off the frames
    /// instead of the stack they have left.
    pub(crate) fn composed_in(&self, frame: Option<usize>, e: &Expr) -> Option<Expr> {
        compose(e, |v| {
            let mut at = frame;
            while let Some(f) = at.map(|at| &self.frames[at]) {
                let (realize, composed) = (f.realize, &f.composed);
                let binds =
                    (realize.block.iter_vars.iter()).zip(composed.iter().zip(&realize.iter_values));
                if let Some((_, (value, written))) = binds.rev().find(|(iv, _)| iv.var == *v) {
                    return Some(value.as_ref().unwrap_or(written));
                }
                at = f.parent;
            }
            None
        })
    }

    /// The interval environment of `check`, [`Check::Cover`] or
    /// [`Check::Bounds`].
    pub(crate) fn ranges(&self, check: Check) -> &VarMap<IntBound> {
        &self.ranges[check as usize]
    }

    /// Sets a range that [`Scope::undo`] puts back.
    pub(crate) fn set_range(&mut self, check: Check, var: Cow<'a, Var>, range: IntBound) {
        let before = self.ranges[check as usize].insert(Var::clone(&var), range);
        self.trail.push((check, var, before));
    }

    /// Enters the guard `cond`: refines the bounds ranges by it, if the
    /// bounds check runs. [`Scope::undo`] the returned mark where it ends.
    fn guard(&mut self, cond: &Expr) -> usize {
        let mark = self.trail.len();
        if self.on(Check::Bounds) {
            bounds::refine(self, cond);
        }
        mark
    }

    /// Puts back every range set since the trail was `mark` entries long.
    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (check, var, before) = self.trail.pop().expect("longer than mark");
            match before {
                Some(range) => self.ranges[check as usize].insert(var.into_owned(), range),
                None => self.ranges[check as usize].remove(&*var),
            };
        }
    }

    /// Opens the frame of `br`, inside the innermost open one.
    fn enter_frame(&mut self, br: &'a BlockRealize) -> usize {
        self.frames.push(Frame {
            parent: self.frame,
            realize: br,
            composed: Vec::new(),
        });
        self.frame = Some(self.frames.len() - 1);
        self.frames.len() - 1
    }

    /// Closes the frame `at`, the innermost open one, keeping in it the
    /// bindings that leave the stack.
    fn leave_frame(&mut self, at: usize, composed: Vec<Option<Expr>>) {
        let frame = &mut self.frames[at];
        self.frame = frame.parent;
        frame.composed = composed;
    }

    /// Enters a loop: `[0, extent)` in both environments, the extent itself
    /// bounded from above when it is not a constant.
    fn enter_loop(&mut self, f: &'a For) {
        for check in [Check::Cover, Check::Bounds] {
            if self.on(check) {
                let last = (bound_of(&f.extent, self.ranges(check)).max - 1).max(0);
                self.set_range(check, Cow::Borrowed(&f.var), IntBound::new(0, last));
            }
        }
        self.loops.push((f, self.path.last().copied()));
        self.path.push(self.loops.len() - 1);
    }

    /// Gives a block's iterators their ranges, in both environments at
    /// once because this is where they part ways. Three rules separate
    /// them, and a change to either set (ROADMAP item 2(a) wants one) is a
    /// change to this function:
    ///
    /// | | cover | bounds |
    /// |---|---|---|
    /// | binding value | as written | simplified first |
    /// | declared domain | ignored | intersected with (an empty intersection falls back to the domain) |
    /// | guards | ignored | the block predicate, and later every `if` and `select`, refine the ranges ([`bounds::refine`]) |
    ///
    /// Intersecting is sound for the bounds check because a binding that
    /// leaves its domain unguarded is loop-nest validation's to report.
    fn bind_iterators(&mut self, br: &'a BlockRealize) {
        for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
            if self.on(Check::Cover) {
                let range = bound_of(value, self.ranges(Check::Cover));
                self.set_range(Check::Cover, Cow::Borrowed(&iv.var), range);
            }
            if self.on(Check::Bounds) {
                let value = if is_simplified(value) {
                    Cow::Borrowed(value)
                } else {
                    Cow::Owned(simplified(value.clone()))
                };
                let b = bound_of(&value, self.ranges(Check::Bounds));
                let (lo, hi) = (b.min.max(0), b.max.min(iv.extent - 1));
                let domain = IntBound::new(0, (iv.extent - 1).max(0));
                let range = if lo <= hi {
                    IntBound::new(lo, hi)
                } else {
                    domain
                };
                self.set_range(Check::Bounds, Cow::Borrowed(&iv.var), range);
            }
        }
        self.guard(&br.predicate);
    }
}

#[derive(Default)]
struct Walk<'a> {
    scope: Scope<'a>,
    nests: Nests,
    cover: AccessSet<'a>,
    bounds: Vec<ValidationError>,
    sites: Vec<Site<'a>>,
}

impl<'a> Walk<'a> {
    /// Whether loop-nest validation looks at what the walk enters next: it
    /// reports the outermost loop of non-constant extent and is silent
    /// below it. The other checks descend.
    fn nests_on(&self) -> bool {
        let mut extents = self.scope.nest().map(|(_, extent, _)| extent);
        self.scope.on(Check::Nests) && extents.all(|e| e.is_some())
    }

    /// The only function that descends the statement tree.
    fn stmt(&mut self, s: &'a Stmt) {
        match s {
            Stmt::For(f) => {
                if self.nests_on() {
                    self.nests.enter_loop(&self.scope, f);
                }
                let mark = self.scope.trail.len();
                self.scope.enter_loop(f);
                self.stmt(&f.body);
                self.scope.path.pop();
                self.scope.undo(mark);
            }
            Stmt::Seq(v) => {
                for st in v {
                    self.stmt(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond, Place::Body);
                let mark = self.scope.guard(cond);
                self.stmt(then_branch);
                self.scope.undo(mark);
                // Walked unrefined: sound, possibly imprecise.
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            Stmt::BlockRealize(br) => {
                let block = &br.block;
                for v in &br.iter_values {
                    self.expr(v, Place::Binding);
                }
                self.expr(&br.predicate, Place::Predicate);
                // The composed bindings: checked by loop-nest validation, or
                // merely composed when only the race proof reads them.
                let mut composed = if self.nests_on() {
                    self.nests.check_block_realize(&self.scope, br)
                } else if self.scope.on(Check::Races) {
                    (br.iter_values.iter().map(|v| self.scope.composed(v))).collect()
                } else {
                    Vec::new()
                };
                // They go on the stack for everything nested and come back
                // off it into the race proof's frame: moved, never copied.
                // One that composing left as written is borrowed.
                let base = self.scope.binds.len();
                let vars = block.iter_vars.iter().map(|iv| iv.var.clone());
                let values = (composed.drain(..).zip(&br.iter_values))
                    .map(|(value, written)| value.map_or(Cow::Borrowed(written), Cow::Owned));
                self.scope.binds.extend(vars.zip(values));
                let frame = self
                    .scope
                    .on(Check::Races)
                    .then(|| self.scope.enter_frame(br));
                let mark = self.scope.trail.len();
                self.scope.bind_iterators(br);
                let relaxing =
                    (RELAXING_ANNOTATIONS.iter()).any(|a| block.annotations.contains_key(*a));
                self.scope.relax_depth += usize::from(relaxing);
                self.scope.blocks.push(block);
                if let Some(init) = &block.init {
                    self.stmt(init);
                }
                self.stmt(&block.body);
                self.scope.blocks.pop();
                self.scope.relax_depth -= usize::from(relaxing);
                self.scope.undo(mark);
                if let Some(at) = frame {
                    composed.extend((self.scope.binds.drain(base..)).map(
                        |(_, value)| match value {
                            Cow::Borrowed(_) => None,
                            Cow::Owned(value) => Some(value),
                        },
                    ));
                    self.scope.leave_frame(at, composed);
                } else {
                    self.scope.binds.truncate(base);
                }
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.access(buffer, indices, true, Place::Body);
                for i in indices {
                    self.expr(i, Place::Body);
                }
                self.expr(value, Place::Body);
            }
            Stmt::Eval(e) => self.expr(e, Place::Body),
        }
    }

    /// Finds the loads of an expression. Both executors evaluate `select`
    /// lazily, so its condition refines the bounds ranges of its `then`
    /// arm, as an `if` does.
    fn expr(&mut self, e: &'a Expr, place: Place) {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Cast(_, v) | Expr::Not(v) => self.expr(v, place),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.expr(a, place);
                self.expr(b, place);
            }
            Expr::Select { cond, then, other } => {
                self.expr(cond, place);
                let mark = self.scope.guard(cond);
                self.expr(then, place);
                self.scope.undo(mark);
                self.expr(other, place);
            }
            Expr::Load { buffer, indices } => {
                self.access(buffer, indices, false, place);
                for i in indices {
                    self.expr(i, place);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a, place);
                }
            }
        }
    }

    /// One buffer access, offered to every check that reads accesses.
    fn access(&mut self, buffer: &'a Buffer, indices: &'a [Expr], write: bool, place: Place) {
        let scope = &self.scope;
        if scope.on(Check::Cover) && place != Place::Predicate {
            let cover = scope.ranges(Check::Cover);
            let bx = indices.iter().map(|i| bound_of(i, cover)).collect();
            self.cover.add(buffer, bx, write);
        }
        if scope.on(Check::Bounds) {
            bounds::check_access(scope, buffer, indices, &mut self.bounds);
        }
        if (scope.on(Check::Races) || scope.on(Check::Scopes)) && place != Place::Binding {
            self.sites.push(Site {
                buffer,
                indices,
                frame: scope.frame,
                sums: OnceCell::new(),
                innermost: scope.path.last().copied(),
                write,
                relaxed: scope.relax_depth > 0,
                block: scope.block(),
            });
        }
    }
}

/// Walks `func` once, feeding `checks`, and returns their diagnostics in
/// the order loop nests, region cover, bounds, races, scopes. Loop-nest
/// validation starts with [`ValidationError::Malformed`] if the program is
/// not well-formed.
pub(crate) fn run(func: &PrimFunc, checks: &[Check]) -> Vec<ValidationError> {
    let mut walk = Walk::default();
    for check in checks {
        walk.scope.on[*check as usize] = true;
    }
    if walk.scope.on(Check::Nests) {
        (walk.nests.errors).extend(tir::well_formed(func).err().map(ValidationError::Malformed));
    }
    walk.stmt(&func.body);
    let scope = &walk.scope;
    debug_assert!(
        scope.path.is_empty()
            && scope.binds.is_empty()
            && scope.frame.is_none()
            && scope.blocks.is_empty()
            && scope.relax_depth == 0
            && scope.trail.is_empty()
            && scope.ranges.iter().all(|r| r.is_empty()),
        "the walk of {} did not undo everything it entered",
        func.name
    );
    let mut errors = walk.nests.errors;
    errors.extend(walk.cover.uncovered(&func.params));
    errors.extend(walk.bounds);
    if !walk.sites.is_empty() {
        let nests = scope.nests();
        if scope.on(Check::Races) {
            errors.extend(racecheck::races(scope, &nests, &walk.sites));
        }
        if scope.on(Check::Scopes) {
            errors.extend(racecheck::scopes(&nests, &walk.sites));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn matmul_full_boxes() {
        let f = matmul_func("mm", 8, 8, 8, DataType::float32());
        let mut walk = Walk::default();
        walk.scope.on[Check::Cover as usize] = true;
        walk.stmt(&f.body);
        let full = vec![IntBound::new(0, 7), IntBound::new(0, 7)];
        let box_of = |list: &[(&Buffer, Vec<IntBound>)], name: &str| {
            let buffer = f.param(name).expect("a parameter");
            let (_, bx) = list.iter().find(|(b, _)| *b == buffer).expect("accessed");
            bx.clone()
        };
        assert_eq!(box_of(&walk.cover.reads, "A"), full);
        assert_eq!(box_of(&walk.cover.writes, "C"), full);
        assert!(walk.sites.is_empty() && walk.bounds.is_empty());
    }
}
