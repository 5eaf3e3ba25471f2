//! The schedule state: a program plus primitives that rewrite it.
//!
//! Unlike schedule-tree compilers, every primitive here is an independent
//! TensorIR → TensorIR transformation (§3.2 "Separation of Scheduling and
//! TensorIR"): the [`Schedule`] merely holds the current `PrimFunc`, a
//! trace of applied primitives, and lookup helpers. Blocks are addressed by
//! name and loops by the identity of their loop variable, both of which are
//! stable across rewrites that do not touch them.
//!
//! Every lookup here (`get_block`, `loop_node`, `find_loop_by_name`,
//! `loop_infos`) and the slot rewrite behind `rewrite_loop`/`rewrite_block`
//! is a pre-order walk over [`tir::Stmt::children`] that stops at its first
//! match: outer before inner, a block's `init` before its body. None of
//! them names the children of a node kind itself.

use std::fmt;
use std::sync::Arc;

use tir::{ForKind, PrimFunc, Stmt, Var};

use crate::trace::{Trace, TraceStep};

/// A reference to a block, by (unique) name.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BlockRef(pub(crate) String);

impl BlockRef {
    /// The referenced block's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

/// A reference to a loop, by loop-variable identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LoopRef(pub(crate) Var);

impl LoopRef {
    /// The loop variable identifying this loop.
    pub fn var(&self) -> &Var {
        &self.0
    }
}

/// Information about one loop in a block's surrounding nest.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The loop variable.
    pub var: Var,
    /// Constant extent.
    pub extent: i64,
    /// Loop kind.
    pub kind: ForKind,
}

/// A scheduling failure.
#[derive(Clone, Debug)]
pub enum ScheduleError {
    /// No block with the given name exists.
    BlockNotFound(String),
    /// No loop with the given variable exists.
    LoopNotFound(String),
    /// The primitive's preconditions were not met.
    Precondition(String),
    /// The program failed the analyzer: returned by [`Schedule::verify`]
    /// and by a sketch's final validation, never by a primitive.
    Invalid(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::BlockNotFound(b) => write!(f, "block not found: {b}"),
            ScheduleError::LoopNotFound(l) => write!(f, "loop not found: {l}"),
            ScheduleError::Precondition(m) => write!(f, "precondition violated: {m}"),
            ScheduleError::Invalid(m) => write!(f, "transformed program is invalid: {m}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Schedule result type.
pub type Result<T> = std::result::Result<T, ScheduleError>;

/// `Err(ScheduleError::Precondition(msg))`, for early returns.
pub(crate) fn precondition<T>(msg: impl Into<String>) -> Result<T> {
    Err(ScheduleError::Precondition(msg.into()))
}

/// A schedulable program with its transformation trace.
///
/// # Examples
///
/// ```
/// use tir::builder::matmul_func;
/// use tir::DataType;
/// use tir_schedule::Schedule;
///
/// let mut sch = Schedule::new(matmul_func("mm", 64, 64, 64, DataType::float32()));
/// let block = sch.get_block("C")?;
/// let loops = sch.get_loops(&block)?;
/// let new_loops = sch.split(&loops[0], &[16, 4])?;
/// assert_eq!(new_loops.len(), 2);
/// # Ok::<(), tir_schedule::ScheduleError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Schedule {
    pub(crate) func: PrimFunc,
    pub(crate) trace: Trace,
}

impl Schedule {
    /// Starts scheduling a function.
    pub fn new(func: PrimFunc) -> Self {
        Schedule {
            func,
            trace: Trace::default(),
        }
    }

    /// Runs the static analyzer (structural validation, bounds, race and
    /// memory-scope checks) on the current program. Primitives check only
    /// their own preconditions; this is the one way to ask whether the
    /// whole schedule is legal.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Invalid`] carrying every diagnostic the
    /// analyzer produced, joined with `"; "`.
    pub fn verify(&self) -> Result<()> {
        match tir_analysis::verify_scheduled(&self.func) {
            Ok(()) => Ok(()),
            Err(errors) => {
                let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                Err(ScheduleError::Invalid(msgs.join("; ")))
            }
        }
    }

    /// Kept only because `benchmark/` calls it with `false`, which does
    /// nothing: primitives never run the analyzer. Use
    /// [`Schedule::verify`] for its verdict.
    ///
    /// # Panics
    ///
    /// Panics when `on` is `true`.
    pub fn set_auto_verify(&mut self, on: bool) {
        assert!(!on, "primitives do not verify; call Schedule::verify");
    }

    /// Runs one in-place rewrite of the body; `rewrite` reports whether it
    /// changed anything (it must leave the body untouched when it reports
    /// `false`). Primitives check every precondition on a borrow first and
    /// only then commit through here, so there is nothing to restore on
    /// their error paths.
    ///
    /// Function bodies are shared between clones ([`PrimFunc::body`]); this
    /// is where a schedule un-shares its own: the first rewrite after a
    /// `clone` copies the tree, later ones find it unique and write in
    /// place.
    pub(crate) fn mutate_body(&mut self, rewrite: impl FnOnce(&mut Stmt) -> bool) -> bool {
        rewrite(Arc::make_mut(&mut self.func.body))
    }

    /// The current program.
    pub fn func(&self) -> &PrimFunc {
        &self.func
    }

    /// Consumes the schedule, returning the final program.
    pub fn into_func(self) -> PrimFunc {
        self.func
    }

    /// The trace of primitives applied so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Commits a successful primitive: pushes its trace step.
    pub(crate) fn record(&mut self, step: TraceStep) {
        self.trace.push(step);
    }

    /// Looks up a block by name.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockNotFound`] if absent.
    pub fn get_block(&self, name: &str) -> Result<BlockRef> {
        if tir::visit::find_block(&self.func.body, name).is_some() {
            Ok(BlockRef(name.to_string()))
        } else {
            Err(ScheduleError::BlockNotFound(name.to_string()))
        }
    }

    /// Names of all blocks in the program, outer-first.
    pub fn block_names(&self) -> Vec<String> {
        tir::visit::block_names(&self.func.body)
    }

    /// The loops enclosing `block`, outermost first, up to (not including)
    /// the nearest enclosing block.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockNotFound`] if the block is absent.
    pub fn get_loops(&self, block: &BlockRef) -> Result<Vec<LoopRef>> {
        Ok(self
            .loop_infos(block)?
            .into_iter()
            .map(|li| LoopRef(li.var))
            .collect())
    }

    /// Like [`Schedule::get_loops`] but with extents and kinds.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockNotFound`] if the block is absent.
    pub fn loop_infos(&self, block: &BlockRef) -> Result<Vec<LoopInfo>> {
        /// The loops above the first block called `name`, `stack` being the
        /// loops above `s`.
        fn walk(s: &Stmt, name: &str, stack: &mut Vec<LoopInfo>) -> Option<Vec<LoopInfo>> {
            match s {
                Stmt::BlockRealize(br) if br.block.name == name => return Some(stack.clone()),
                // Loops do not reach across a block boundary (§3.1): what is
                // inside another block starts from an empty nest.
                Stmt::BlockRealize(_) => {
                    return (s.children()).find_map(|child| walk(child, name, &mut Vec::new()))
                }
                Stmt::For(f) => stack.push(LoopInfo {
                    var: f.var.clone(),
                    extent: f.extent.as_int().unwrap_or(-1),
                    kind: f.kind,
                }),
                _ => {}
            }
            let found = (s.children()).find_map(|child| walk(child, name, stack));
            if let Stmt::For(_) = s {
                stack.pop();
            }
            found
        }
        walk(&self.func.body, block.name(), &mut Vec::new())
            .ok_or_else(|| ScheduleError::BlockNotFound(block.name().to_string()))
    }

    /// Extent of a loop.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::LoopNotFound`] if absent or non-constant.
    pub fn loop_extent(&self, loop_ref: &LoopRef) -> Result<i64> {
        self.loop_node(loop_ref)?
            .extent
            .as_int()
            .ok_or_else(|| ScheduleError::LoopNotFound(loop_ref.var().name().to_string()))
    }

    /// The `For` node of a loop, for precondition checks on a borrow.
    pub(crate) fn loop_node(&self, loop_ref: &LoopRef) -> Result<&tir::For> {
        find_loop(&self.func.body, loop_ref.var())
            .ok_or_else(|| ScheduleError::LoopNotFound(loop_ref.var().name().to_string()))
    }

    /// The realize of a block, for precondition checks on a borrow.
    pub(crate) fn block_node(&self, block: &BlockRef) -> Result<&tir::BlockRealize> {
        tir::visit::find_block(&self.func.body, block.name())
            .ok_or_else(|| ScheduleError::BlockNotFound(block.name().to_string()))
    }

    /// Replaces the first statement `is_target` accepts with `f(statement)`,
    /// in place; reports whether there was one.
    fn rewrite_node(
        &mut self,
        is_target: impl Fn(&Stmt) -> bool,
        f: impl FnOnce(Stmt) -> Stmt,
    ) -> bool {
        let mut f = Some(f);
        self.mutate_body(|body| {
            rewrite_first(body, &mut |slot| {
                if !is_target(slot) {
                    return false;
                }
                let f = f.take().expect("rewrite_first stops at the first match");
                *slot = f(std::mem::replace(slot, Stmt::Seq(Vec::new())));
                true
            })
        })
    }

    /// Replaces the loop identified by `loop_ref` with `f(loop)`, in place.
    /// `f` cannot fail: callers check their preconditions first (on
    /// [`Schedule::loop_node`]), so a missing loop is the only error and
    /// leaves the program untouched.
    pub(crate) fn rewrite_loop(
        &mut self,
        loop_ref: &LoopRef,
        f: impl FnOnce(tir::For) -> Stmt,
    ) -> Result<()> {
        let var = loop_ref.var();
        let found = self.rewrite_node(
            |s| matches!(s, Stmt::For(fr) if &fr.var == var),
            |s| match s {
                Stmt::For(fr) => f(*fr),
                other => other,
            },
        );
        if found {
            Ok(())
        } else {
            Err(ScheduleError::LoopNotFound(var.name().to_string()))
        }
    }

    /// Replaces the block realize identified by `block` with `f(realize)`,
    /// in place; the contract of [`Schedule::rewrite_loop`] applies.
    pub(crate) fn rewrite_block(
        &mut self,
        block: &BlockRef,
        f: impl FnOnce(tir::BlockRealize) -> Stmt,
    ) -> Result<()> {
        let name = block.name();
        let found = self.rewrite_node(
            |s| matches!(s, Stmt::BlockRealize(br) if br.block.name == name),
            |s| match s {
                Stmt::BlockRealize(br) => f(*br),
                other => other,
            },
        );
        if found {
            Ok(())
        } else {
            Err(ScheduleError::BlockNotFound(name.to_string()))
        }
    }

    /// Replaces the subtree rooted at `loop_ref` with an arbitrary
    /// statement. Used by whole-nest rewrites such as tensorization
    /// candidate generation.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn replace_loop_subtree(&mut self, loop_ref: &LoopRef, stmt: Stmt) -> Result<()> {
        self.rewrite_loop(loop_ref, |_| stmt)
    }

    /// Block names contained in the subtree rooted at `loop_ref`.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn blocks_under_loop(&self, loop_ref: &LoopRef) -> Result<Vec<String>> {
        Ok(tir::visit::block_names(&self.loop_node(loop_ref)?.body))
    }

    /// Finds a buffer by name among parameters, allocations and accessed
    /// buffers.
    pub fn find_buffer(&self, name: &str) -> Option<tir::Buffer> {
        if let Some(b) = self.func.params.iter().find(|b| b.name() == name) {
            return Some(b.clone());
        }
        let mut found = None;
        tir::visit::for_each_block_realize(&self.func.body, &mut |br| {
            if found.is_some() {
                return;
            }
            found = br
                .block
                .alloc_buffers
                .iter()
                .find(|b| b.name() == name)
                .cloned();
        });
        found.or_else(|| {
            tir::visit::collect_accessed_buffers(&self.func.body)
                .into_iter()
                .find(|b| b.name() == name)
        })
    }

    /// Registers a buffer in the root block's allocation list.
    ///
    /// # Errors
    ///
    /// Fails when the function body does not follow the root-block
    /// convention.
    pub fn alloc_buffer_at_root(&mut self, buffer: tir::Buffer) -> Result<()> {
        self.alloc_at_root(buffer)
    }

    /// Attaches an annotation to a block.
    ///
    /// # Errors
    ///
    /// Fails when the block is missing.
    pub fn annotate_block(
        &mut self,
        block: &BlockRef,
        key: &str,
        value: tir::AnnValue,
    ) -> Result<()> {
        let key_owned = key.to_string();
        let value_copy = value.clone();
        self.rewrite_block(block, |mut br: tir::BlockRealize| {
            br.block.annotations.insert(key_owned, value);
            Stmt::BlockRealize(Box::new(br))
        })?;
        self.record(TraceStep::new(
            "annotate_block",
            vec![
                block.name().into(),
                key.into(),
                crate::loop_transform::ann_to_arg(&value_copy),
            ],
        ));
        Ok(())
    }

    /// Finds a loop reference by its variable's *name* (first match in a
    /// pre-order walk). Loop-variable names are deterministic (split and
    /// fuse derive them from their inputs), which makes recorded traces
    /// replayable on freshly built programs.
    pub fn find_loop_by_name(&self, name: &str) -> Option<LoopRef> {
        let named = &mut |s: &Stmt| matches!(s, Stmt::For(f) if f.var.name() == name);
        let found = self.func.body.find(named)?.as_for()?;
        Some(LoopRef(found.var.clone()))
    }
}

/// The `For` node with the given variable (first in a pre-order walk).
fn find_loop<'a>(s: &'a Stmt, var: &Var) -> Option<&'a tir::For> {
    s.find(&mut |st| matches!(st, Stmt::For(f) if &f.var == var))
        .and_then(Stmt::as_for)
}

/// A short name for a statement's node kind, for error messages.
pub(crate) fn stmt_kind(s: &Stmt) -> &'static str {
    match s {
        Stmt::Store { .. } => "a store",
        Stmt::Eval(_) => "an evaluate",
        Stmt::Seq(_) => "a statement sequence",
        Stmt::For(_) => "a loop",
        Stmt::BlockRealize(_) => "a block",
        // The kind left over; only `add_predicate` names it in this crate.
        _ => "an if",
    }
}

/// Offers every statement slot to `try_rewrite` in pre-order over
/// [`Stmt::children_mut`] and stops at the first one it rewrites. The cost
/// is the descent to the slot plus whatever `try_rewrite` does there;
/// nothing beside the path is touched.
///
/// On the way back up, every `Seq` on the path is put back into the form
/// [`Stmt::seq`] builds (nested sequences flattened, a singleton
/// unwrapped): a rewrite may hand back a `Seq` or an empty one, and
/// programs that differ only in `Seq` nesting hash differently.
fn rewrite_first(s: &mut Stmt, try_rewrite: &mut impl FnMut(&mut Stmt) -> bool) -> bool {
    if try_rewrite(s) {
        return true;
    }
    let found = (s.children_mut()).any(|child| rewrite_first(child, try_rewrite));
    if found {
        s.normalize_seq();
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn block_and_loop_lookup() {
        let sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
        let block = sch.get_block("C").expect("block C");
        assert!(sch.get_block("missing").is_err());
        let loops = sch.get_loops(&block).expect("loops");
        assert_eq!(loops.len(), 3);
        assert_eq!(sch.loop_extent(&loops[0]).expect("extent"), 8);
        let infos = sch.loop_infos(&block).expect("infos");
        assert!(infos.iter().all(|li| li.kind == ForKind::Serial));
    }

    #[test]
    fn loops_do_not_cross_block_boundaries() {
        // The root block isolates: loops of C must not include anything
        // outside the root block's body (there is nothing outside here).
        let sch = Schedule::new(matmul_func("mm", 4, 4, 4, DataType::float32()));
        let root = sch.get_block("root").expect("root");
        assert!(sch.get_loops(&root).expect("root loops").is_empty());
    }

    #[test]
    fn rewrite_loop_replaces_subtree() {
        let mut sch = Schedule::new(matmul_func("mm", 4, 4, 4, DataType::float32()));
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        // Replace the innermost loop with an empty sequence (nonsense, but
        // exercises the rewriter).
        sch.rewrite_loop(&loops[2], |_| Stmt::Seq(vec![]))
            .expect("rewrite");
        assert!(sch.get_loops(&block).is_err(), "block C should be gone");
    }
}

#[cfg(test)]
mod in_place_tests {
    use super::*;
    use tir::builder::compute;
    use tir::{Buffer, DataType, Expr};

    /// `n` independent one-loop nests in the root body, plus the loops.
    fn nests(n: usize) -> (Vec<Stmt>, Vec<LoopRef>) {
        let nests: Vec<Stmt> = (0..n)
            .map(|k| {
                let buf = Buffer::new(format!("T{k}"), DataType::float32(), vec![4]);
                compute(&format!("b{k}"), &buf, |_| Expr::f32(k as f32))
            })
            .collect();
        let loops = nests
            .iter()
            .map(|s| LoopRef(s.as_for().expect("loop nest").var.clone()))
            .collect();
        (nests, loops)
    }

    fn root_body(sch: &Schedule) -> &Stmt {
        &sch.func().root_block().expect("root").body
    }

    /// A rewrite that hands back a `Seq` (or nothing) inside a `Seq` parent
    /// leaves the tree `Stmt::seq` would have built: flat, and a lone
    /// survivor unwrapped.
    #[test]
    fn rewrite_renormalizes_the_parent_seq() {
        let (n, loops) = nests(3);
        let (extra, _) = nests(2);
        let mut sch = Schedule::new(PrimFunc::new("f", vec![], Stmt::seq(n.clone())));
        let pair = extra.clone();
        sch.rewrite_loop(&loops[1], |_| Stmt::seq(pair))
            .expect("rewrite");
        let want = Stmt::seq(vec![n[0].clone(), Stmt::seq(extra), n[2].clone()]);
        assert!(matches!(&want, Stmt::Seq(v) if v.len() == 4));
        assert!(tir::structural::stmt_structural_eq(root_body(&sch), &want));
        assert_eq!(format!("{:?}", root_body(&sch)), format!("{want:?}"));

        // Dropping statements: three become two, two become the survivor.
        let mut sch = Schedule::new(PrimFunc::new("f", vec![], Stmt::seq(n.clone())));
        sch.rewrite_loop(&loops[0], |_| Stmt::Seq(vec![]))
            .expect("rewrite");
        let want = Stmt::seq(vec![Stmt::Seq(vec![]), n[1].clone(), n[2].clone()]);
        assert_eq!(format!("{:?}", root_body(&sch)), format!("{want:?}"));
        sch.rewrite_loop(&loops[2], |_| Stmt::Seq(vec![]))
            .expect("rewrite");
        assert_eq!(format!("{:?}", root_body(&sch)), format!("{:?}", n[1]));
    }
}

#[cfg(test)]
mod lookup_tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn blocks_under_loop_and_find_buffer() {
        let sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
        let block = sch.get_block("C").unwrap();
        let loops = sch.get_loops(&block).unwrap();
        assert_eq!(
            sch.blocks_under_loop(&loops[0]).unwrap(),
            vec!["C".to_string()]
        );
        assert!(sch.find_buffer("A").is_some());
        assert!(sch.find_buffer("C").is_some());
        assert!(sch.find_buffer("nope").is_none());
        assert!(sch.find_loop_by_name(loops[1].var().name()).is_some());
        assert!(sch.find_loop_by_name("ghost_loop").is_none());
    }

    #[test]
    fn find_buffer_sees_allocations() {
        let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
        let block = sch.get_block("C").unwrap();
        sch.cache_write(&block, tir::MemScope::Local, None).unwrap();
        assert!(sch.find_buffer("C_local").is_some());
    }
}
