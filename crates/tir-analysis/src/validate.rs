//! Program validation (§3.3 of the paper).
//!
//! Three families of checks:
//!
//! * **loop-nest validation** — every block's iterator bindings must form a
//!   quasi-affine, independent, domain-covering map from the enclosing
//!   loops (via [`tir_arith::iter_map::detect_iter_map`]), reduction
//!   iterators must not bind to parallel loops, and partial-tile bindings
//!   must be guarded by a matching predicate;
//! * **threading validation** — thread-binding consistency, launch limits,
//!   and execution-scope requirements for tensorized blocks;
//! * **producer-consumer validation** — writes to every intermediate buffer
//!   must cover downstream reads (checked on concrete region boxes).
//!
//! None of them walks the program: `Nests` is told of every loop and
//! block the one traversal of the crate enters (`walk.rs`) and reads the
//! loops, thread bindings and composed bindings off its scope; the cover
//! check is handed access boxes. [`validate`] is that one walk feeding both.

use std::hash::{Hash, Hasher};

use tir::simplify::simplified;
use tir::visit::{expr_any_var, expr_uses_var, ExprVisitor};
use tir::{
    BinOp, Block, BlockRealize, Buffer, Expr, For, ForKind, IterKind, MemScope, PrimFunc,
    ThreadTag, Var, WellFormedError,
};
use tir_arith::iter_map::{detect_iter_map_with, CoverMode, IterMapError};

use crate::walk::{self, Check, Scope};

/// A validation failure.
#[derive(Clone, PartialEq, Debug)]
pub enum ValidationError {
    /// The program is not well-formed ([`tir::well_formed()`]); reported
    /// first, before what the checks find in it.
    Malformed(WellFormedError),
    /// A loop extent is not a compile-time constant.
    NonConstantExtent {
        /// The loop variable.
        loop_var: String,
    },
    /// Iterator bindings of a block failed affine-map detection.
    LoopNest {
        /// Block name.
        block: String,
        /// Underlying iterator-map error.
        cause: IterMapError,
    },
    /// A binding's range does not match the iterator's declared domain.
    DomainMismatch {
        /// Block name.
        block: String,
        /// Iterator variable name.
        iter_var: String,
        /// Declared domain extent.
        declared: i64,
        /// Extent implied by the binding.
        bound: i64,
    },
    /// A reduction iterator is bound to a parallel or thread loop.
    ReductionOnParallelLoop {
        /// Block name.
        block: String,
        /// Iterator variable name.
        iter_var: String,
    },
    /// The same thread tag is bound twice along one nesting path.
    NestedThreadBinding {
        /// The repeated tag.
        tag: ThreadTag,
    },
    /// The thread-block launch configuration exceeds backend limits.
    LaunchLimit {
        /// Total threads per block requested.
        threads: i64,
        /// Backend maximum.
        limit: i64,
    },
    /// A warp-scope block is not nested in a warp-aligned thread loop.
    ExecScope {
        /// Block name.
        block: String,
        /// Required scope.
        required: String,
    },
    /// Writes to a buffer do not cover downstream reads.
    RegionCover {
        /// Buffer name.
        buffer: String,
    },
    /// A shared-memory buffer is produced without cooperative coverage.
    CooperativeFetch {
        /// Producing block.
        block: String,
        /// Shared buffer.
        buffer: String,
    },
    /// Two iterations of a parallel loop may touch the same buffer element.
    WriteRace {
        /// The parallel loop variable.
        loop_var: String,
        /// Buffer with conflicting accesses.
        buffer: String,
        /// A block containing a conflicting access.
        block: String,
        /// Why the disjointness proof failed.
        detail: String,
    },
    /// A buffer access may fall outside the buffer's shape.
    OutOfBounds {
        /// Accessed buffer.
        buffer: String,
        /// Enclosing block.
        block: String,
        /// Zero-based dimension of the offending index.
        dim: usize,
        /// Proven lower bound of the index.
        index_min: i64,
        /// Proven upper bound of the index.
        index_max: i64,
        /// Extent of the dimension (valid indices are `[0, extent)`).
        extent: i64,
    },
    /// A scoped buffer is used illegally across the thread hierarchy.
    ScopeViolation {
        /// The buffer.
        buffer: String,
        /// Its memory scope.
        scope: String,
        /// What was violated.
        detail: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Malformed(e) => write!(f, "{e}"),
            ValidationError::NonConstantExtent { loop_var } => {
                write!(f, "loop {loop_var} has a non-constant extent")
            }
            ValidationError::LoopNest { block, cause } => {
                write!(f, "block {block}: {cause}")
            }
            ValidationError::DomainMismatch {
                block,
                iter_var,
                declared,
                bound,
            } => write!(
                f,
                "block {block}: iterator {iter_var} has domain {declared} but binding covers {bound} without a guarding predicate"
            ),
            ValidationError::ReductionOnParallelLoop { block, iter_var } => write!(
                f,
                "block {block}: reduction iterator {iter_var} bound to a parallel loop"
            ),
            ValidationError::NestedThreadBinding { tag } => {
                write!(f, "thread {tag} bound twice along one nesting path")
            }
            ValidationError::LaunchLimit { threads, limit } => {
                write!(f, "{threads} threads per block exceeds the limit of {limit}")
            }
            ValidationError::ExecScope { block, required } => {
                write!(f, "block {block} must execute at {required} scope")
            }
            ValidationError::RegionCover { buffer } => {
                write!(f, "writes to buffer {buffer} do not cover downstream reads")
            }
            ValidationError::CooperativeFetch { block, buffer } => write!(
                f,
                "block {block} produces shared buffer {buffer} under thread bindings \
                 without cooperative coverage"
            ),
            ValidationError::WriteRace {
                loop_var,
                buffer,
                block,
                detail,
            } => write!(
                f,
                "parallel loop {loop_var}: iterations may race on buffer {buffer} \
                 (block {block}): {detail}"
            ),
            ValidationError::OutOfBounds {
                buffer,
                block,
                dim,
                index_min,
                index_max,
                extent,
            } => write!(
                f,
                "block {block}: index {dim} of buffer {buffer} spans \
                 [{index_min}, {index_max}] but the dimension extent is {extent}"
            ),
            ValidationError::ScopeViolation {
                buffer,
                scope,
                detail,
            } => write!(f, "{scope}-scope buffer {buffer}: {detail}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Maximum threads per block enforced by threading validation.
pub const MAX_THREADS_PER_BLOCK: i64 = 1024;

/// An exact key: the bytes `Hash` implementations write, kept rather than
/// mixed, so two keys are equal only if every hashed value is.
#[derive(Default)]
struct Key(Vec<u8>);

impl Hasher for Key {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        0
    }
}

impl ExprVisitor for Key {
    fn visit_expr(&mut self, e: &Expr) {
        std::mem::discriminant(e).hash(self);
        match e {
            Expr::Int(v, dtype) => (v, dtype).hash(self),
            Expr::Float(v, dtype) => (v.to_bits(), dtype).hash(self),
            Expr::Str(text) => text.hash(self),
            Expr::Var(v) => v.hash(self),
            Expr::Cast(dtype, _) => dtype.hash(self),
            Expr::Bin(op, ..) => op.hash(self),
            Expr::Cmp(op, ..) => op.hash(self),
            Expr::Not(_) | Expr::Select { .. } => {}
            Expr::Load { buffer, indices } => (buffer, indices.len()).hash(self),
            Expr::Call { name, args, dtype } => (name, args.len(), dtype).hash(self),
        }
        self.walk_expr(e);
    }
}

impl Key {
    /// Rewrites the key to everything [`Nests::check_block_realize`] reads
    /// of `br` under the loops of `scope`: identities (variable and buffer
    /// ids), integers and the block's name, which its error texts carry.
    /// The composed bindings of enclosing blocks enter as `parent`, the
    /// remembered verdict they were taken from.
    fn of_block(&mut self, parent: Option<usize>, scope: &Scope, br: &BlockRealize) {
        let block = &br.block;
        self.0.clear();
        (parent, &block.name, block.init.is_some()).hash(self);
        scope.nest().count().hash(self);
        for l in scope.nest() {
            l.hash(self);
        }
        (block.writes.len(), br.iter_values.len()).hash(self);
        for key in ["tir.copy", "tir.atomic", "tir.cooperative"] {
            block.annotations.contains_key(key).hash(self);
        }
        match block.annotations.get("tir.exec_scope") {
            Some(tir::AnnValue::Str(scope)) => Some(scope),
            _ => None,
        }
        .hash(self);
        for w in &block.writes {
            is_cooperative_scope(w.buffer.scope())
                .then_some(&w.buffer)
                .hash(self);
        }
        block.iter_vars.len().hash(self);
        for iv in &block.iter_vars {
            (&iv.var, iv.extent, iv.kind).hash(self);
        }
        for e in br.iter_values.iter().chain([&br.predicate]) {
            self.visit_expr(e);
        }
    }
}

/// A block's bindings composed down to loop variables, one per binding:
/// `None` where that is the binding as written ([`Scope::composed`]).
pub(crate) type Composed = Vec<Option<Expr>>;

/// One remembered verdict of [`Nests::check_block_realize`].
struct Remembered {
    key: Box<[u8]>,
    errors: Vec<ValidationError>,
    /// The composed bindings, while no walk holds them (see
    /// [`Nests::enter_block`]). A `None` stands for the binding as written,
    /// which the key pins.
    composed: Composed,
}

/// Validation that remembers, for a caller that validates one program
/// again and again while it evolves (a sketch speculating step by step).
///
/// [`ValidationSession::validate`] is [`validate`] — the same walk, the
/// same per-loop checks and the same region-cover check on every call —
/// except that a block whose loop-nest check would read exactly what it
/// read in an earlier call of the session gets that call's errors
/// replayed instead. What the check reads is written out as a key that
/// is compared exactly: the loops above the block (variable, extent, kind — the
/// thread stack derives from them), its name, bindings, predicate,
/// iterators, whether it has an `init`, the four annotations the check
/// looks at, the shared-scope buffers it writes, and which remembered
/// verdict its enclosing block matched; a re-checked enclosing block is a
/// new verdict, so everything nested in it is checked again. No primitive
/// reports what it touched: a block is skipped because its inputs compare
/// equal, and a program rolled back to an earlier state matches that
/// state's verdicts again. Debug builds run the check on every match
/// anyway and assert it says what was remembered. A session is meant to
/// live as long as one candidate: nothing is shared between programs.
#[derive(Default)]
pub struct ValidationSession {
    remembered: Vec<Remembered>,
    key: Key,
}

impl ValidationSession {
    /// [`validate`], skipping loop-nest checks whose inputs are unchanged
    /// since an earlier call on this session.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`validate`] returns for `func`.
    pub fn validate(&mut self, func: &PrimFunc) -> Result<(), Vec<ValidationError>> {
        gate(walk::run(func, &VALIDATE, Some(self)))
    }

    /// The verdict remembered for what `check_block_realize` would read of
    /// `br`, and whether it is new: pushed just now, still to be filled in.
    fn verdict_of(
        &mut self,
        parent: Option<usize>,
        scope: &Scope,
        br: &BlockRealize,
    ) -> (usize, bool) {
        self.key.of_block(parent, scope, br);
        if let Some(at) = (self.remembered.iter()).position(|r| *r.key == *self.key.0) {
            return (at, false);
        }
        self.remembered.push(Remembered {
            key: self.key.0.as_slice().into(),
            errors: Vec::new(),
            composed: Vec::new(),
        });
        (self.remembered.len() - 1, true)
    }
}

/// Loop-nest and threading validation, fed by the walk at every loop and
/// block it enters (while no loop of non-constant extent is around it).
#[derive(Default)]
pub(crate) struct Nests<'m> {
    pub(crate) errors: Vec<ValidationError>,
    pub(crate) memo: Option<&'m mut ValidationSession>,
    /// The remembered verdict, if there is one, of every block entered and
    /// not yet left, innermost last.
    open: Vec<Option<usize>>,
}

impl Nests<'_> {
    /// The per-loop checks, before `f` joins the loops of `scope`: a
    /// constant extent, no thread tag bound twice, the launch limit.
    pub(crate) fn enter_loop(&mut self, scope: &Scope, f: &For) {
        let Some(extent) = f.extent.as_int() else {
            self.errors.push(ValidationError::NonConstantExtent {
                loop_var: f.var.name().to_string(),
            });
            return;
        };
        let ForKind::ThreadBinding(tag) = f.kind else {
            return;
        };
        if tag != ThreadTag::Vthread && scope.threads().any(|(t, _)| t == tag) {
            self.errors
                .push(ValidationError::NestedThreadBinding { tag });
        }
        let total: i64 = (scope.threads().chain([(tag, extent)]))
            .filter(|(t, _)| t.is_thread_idx())
            .map(|(_, e)| e)
            .product();
        if total > MAX_THREADS_PER_BLOCK {
            self.errors.push(ValidationError::LaunchLimit {
                threads: total,
                limit: MAX_THREADS_PER_BLOCK,
            });
        }
    }

    /// Validates `br` — or replays what the session remembers of it — and
    /// returns its composed bindings for the walk to put on its stack.
    pub(crate) fn enter_block(&mut self, scope: &Scope, br: &BlockRealize) -> Composed {
        let first_error = self.errors.len();
        // A block is keyed by the verdict of the block around it.
        let parent = self.open.last().copied().flatten();
        let verdict = (self.memo.as_deref_mut()).map(|memo| memo.verdict_of(parent, scope, br));
        let composed = match (verdict, self.memo.as_deref_mut()) {
            (Some((at, false)), Some(memo)) => {
                let replayed = &memo.remembered[at].errors;
                self.errors.extend(replayed.iter().cloned());
                std::mem::take(&mut memo.remembered[at].composed)
            }
            _ => self.check_block_realize(scope, br),
        };
        if cfg!(debug_assertions) && matches!(verdict, Some((_, false))) {
            let replayed = self.errors.split_off(first_error);
            let fresh = self.check_block_realize(scope, br);
            assert!(
                fresh == composed && self.errors[first_error..] == replayed[..],
                "the remembered verdict of block {} is stale",
                br.block.name
            );
        }
        if let (Some((at, true)), Some(memo)) = (verdict, self.memo.as_deref_mut()) {
            memo.remembered[at].errors = self.errors[first_error..].to_vec();
        }
        self.open.push(verdict.map(|(at, _)| at));
        composed
    }

    /// Leaves the innermost block: its composed bindings, back off the
    /// walk's stack, go into the remembered verdict — moved, never copied.
    pub(crate) fn exit_block(&mut self, composed: Composed) {
        if let (Some(Some(at)), Some(memo)) = (self.open.pop(), self.memo.as_deref_mut()) {
            memo.remembered[at].composed = composed;
        }
    }

    /// Validates one realize and returns the composed binding expressions
    /// (over loop variables only).
    fn check_block_realize(&mut self, scope: &Scope, br: &BlockRealize) -> Composed {
        let block = &br.block;
        // Compose bindings through enclosing block boundaries.
        let composed: Composed = (br.iter_values.iter().map(|v| scope.composed(v))).collect();
        let values = || {
            (composed.iter().zip(&br.iter_values))
                .map(|(value, written)| value.as_ref().unwrap_or(written))
        };
        // Every extent is a constant here: validation is silent below a
        // loop whose extent is not.
        let dom = scope.nest().filter_map(|(v, e, _)| Some((v, e?)));
        // Re-executing a block instance is sound (idempotent) unless it is
        // a reduction without an init to reset the accumulator — only then
        // do we demand the bindings fully consume every enclosing loop.
        let mode = if block.is_reduction() && block.init.is_none() {
            CoverMode::Full
        } else {
            CoverMode::OverlapOnly
        };
        // Re-executing a whole reduction sweep (init included) is
        // idempotent, but repeating *part* of a sweep is not: any loop not
        // consumed by the bindings must sit outside every loop a reduction
        // binding uses.
        if block.is_reduction() && block.init.is_some() {
            let used = |v: &Var| values().any(|e| expr_uses_var(e, v));
            let reduce_used = |v: &Var| {
                (block.iter_vars.iter().zip(values()))
                    .any(|(iv, e)| iv.kind == IterKind::Reduce && expr_uses_var(e, v))
            };
            let first_reduce_pos = dom.clone().position(|(v, _)| reduce_used(v));
            if let Some(rpos) = first_reduce_pos {
                for (pos, (v, extent)) in dom.clone().enumerate() {
                    if extent > 1 && pos > rpos && !used(v) {
                        self.errors.push(ValidationError::LoopNest {
                            block: block.name.clone(),
                            cause: IterMapError::NotIndependent(format!(
                                "loop {} repeats a partial reduction sweep",
                                v.name()
                            )),
                        });
                    }
                }
            }
        }
        // Generated copy blocks (annotated `tir.copy`) are idempotent by
        // construction and may carry overlapping halo bindings; only the
        // region-cover and threading checks apply to them.
        let relaxed_copy = block.annotations.contains_key("tir.copy");
        match detect_iter_map_with(values(), dom, mode) {
            Ok(extents) => {
                for ((iv, bound), value) in block.iter_vars.iter().zip(&extents).zip(values()) {
                    let beyond =
                        *bound > iv.extent && !predicate_guards(&br.predicate, value, iv.extent);
                    if beyond || (*bound < iv.extent && mode == CoverMode::Full) {
                        self.errors.push(ValidationError::DomainMismatch {
                            block: block.name.clone(),
                            iter_var: iv.var.name().to_string(),
                            declared: iv.extent,
                            bound: *bound,
                        });
                    }
                }
            }
            Err(cause) => {
                if !relaxed_copy {
                    self.errors.push(ValidationError::LoopNest {
                        block: block.name.clone(),
                        cause,
                    });
                }
            }
        }
        // Reduction iterators must not bind to parallel loops — the update
        // would race — "unless the reduction is atomic" (§3.1), which a
        // block declares with the `tir.atomic` annotation.
        let atomic = block.annotations.contains_key("tir.atomic");
        let mut parallel = |v: &Var| (scope.nest()).any(|(l, _, k)| k.is_parallel() && l == v);
        for (iv, value) in block.iter_vars.iter().zip(values()) {
            if iv.kind == IterKind::Reduce && !atomic && expr_any_var(value, &mut parallel) {
                self.errors.push(ValidationError::ReductionOnParallelLoop {
                    block: block.name.clone(),
                    iter_var: iv.var.name().to_string(),
                });
            }
        }
        self.check_exec_scope(scope, block);
        self.check_cooperative_fetch(scope, block, values());
        composed
    }

    /// Cooperative-memory-access validation (§3.3): a block that writes a
    /// shared-scope buffer while nested under `threadIdx` bindings must
    /// either consume those thread loops in its bindings (each thread
    /// writes its own slice) or carry a `tir.cooperative` annotation (the
    /// copy is replicated idempotently and modeled as distributed across
    /// the group). Otherwise threads race to produce the buffer without a
    /// coverage guarantee for downstream consumers.
    fn check_cooperative_fetch<'e>(
        &mut self,
        scope: &Scope,
        block: &Block,
        composed: impl Iterator<Item = &'e Expr> + Clone,
    ) {
        let writes_shared: Vec<&Buffer> = block
            .writes
            .iter()
            .map(|w| &w.buffer)
            .filter(|b| is_cooperative_scope(b.scope()))
            .collect();
        if writes_shared.is_empty() || scope.threads().next().is_none() {
            return;
        }
        if block.annotations.contains_key("tir.cooperative")
            || block.annotations.contains_key("tir.copy")
        {
            return;
        }
        // Thread loops consumed by the bindings are fine.
        let used = |v: &Var| composed.clone().any(|e| expr_uses_var(e, v));
        let mut thread_vars = (scope.nest())
            .filter(|(_, _, k)| matches!(k, ForKind::ThreadBinding(t) if t.is_thread_idx()));
        if thread_vars.all(|(v, _, _)| used(v)) {
            return;
        }
        for b in writes_shared {
            self.errors.push(ValidationError::CooperativeFetch {
                block: block.name.clone(),
                buffer: b.name().to_string(),
            });
        }
    }

    fn check_exec_scope(&mut self, scope: &Scope, block: &Block) {
        let Some(tir::AnnValue::Str(required)) = block.annotations.get("tir.exec_scope") else {
            return;
        };
        let ok = match required.as_str() {
            // Warp-level intrinsics (e.g. Tensor Core mma_sync) must run
            // with a warp-aligned threadIdx.x binding in scope — or with
            // no threadIdx.x at all, in which case the 32 lanes are
            // implicit (warp-cooperative execution, as in pre-lowering
            // TVM Tensor Core programs).
            "warp" => (scope.threads())
                .find(|(t, _)| *t == ThreadTag::ThreadIdxX)
                .is_none_or(|(_, e)| e % 32 == 0),
            "block" => scope.threads().any(|(t, _)| t.is_thread_idx()),
            _ => true,
        };
        if !ok {
            self.errors.push(ValidationError::ExecScope {
                block: block.name.clone(),
                required: required.clone(),
            });
        }
    }
}

/// Whether the realize predicate contains a conjunct `value < limit`, for
/// a `value` that is already simplified.
fn predicate_guards(predicate: &Expr, value: &Expr, limit: i64) -> bool {
    let mut conjuncts = Vec::new();
    split_and(predicate, &mut conjuncts);
    conjuncts.iter().any(|c| {
        if let Expr::Cmp(tir::CmpOp::Lt, lhs, rhs) = c {
            rhs.as_int() == Some(limit) && simplified((**lhs).clone()) == *value
        } else {
            false
        }
    })
}

pub(crate) fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Bin(BinOp::And, a, b) = e {
        split_and(a, out);
        split_and(b, out);
    } else {
        out.push(e);
    }
}

/// Checks that writes to every intermediate buffer cover all reads.
///
/// Function parameters are exempt (their contents come from the caller).
pub fn check_region_cover(func: &PrimFunc) -> Vec<ValidationError> {
    walk::run(func, &[Check::Cover], None)
}

/// Runs loop-nest validation and threading validation on a function.
pub fn check_loop_nests(func: &PrimFunc) -> Vec<ValidationError> {
    walk::run(func, &[Check::Nests], None)
}

/// What [`validate`] checks, in one walk.
const VALIDATE: [Check; 2] = [Check::Nests, Check::Cover];

/// Diagnostics as a gate: `Ok(())` when there are none.
pub(crate) fn gate(errors: Vec<ValidationError>) -> Result<(), Vec<ValidationError>> {
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Runs the full validation suite on a function.
///
/// # Errors
///
/// Returns every violation found; an empty `Ok(())` means the program
/// passed loop-nest, threading, and region-cover validation.
pub fn validate(func: &PrimFunc) -> Result<(), Vec<ValidationError>> {
    gate(walk::run(func, &VALIDATE, None))
}

/// Convenience: validates and panics with a readable message on failure.
/// Intended for tests and examples.
///
/// # Panics
///
/// Panics if validation fails.
pub fn assert_valid(func: &PrimFunc) {
    if let Err(errors) = validate(func) {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        panic!(
            "validation of {} failed:\n  {}\nprogram:\n{}",
            func.name,
            msgs.join("\n  "),
            func
        );
    }
}

/// Returns true when the buffer lives in a scope that is shared across the
/// threads of one GPU thread block — writes to it must be cooperative.
pub fn is_cooperative_scope(scope: &MemScope) -> bool {
    matches!(scope, MemScope::Shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{DataType, IterVar, Stmt};

    #[test]
    fn matmul_validates() {
        let f = matmul_func("mm", 16, 16, 16, DataType::float32());
        assert_valid(&f);
    }

    fn block_with_bindings(
        bindings: impl FnOnce(&Var) -> Vec<Expr>,
        kinds: Vec<(i64, IterKind)>,
    ) -> PrimFunc {
        // Builds: for i in 0..16: block with the bindings made of `i`.
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let vars: Vec<Var> = (0..kinds.len())
            .map(|k| Var::int(format!("v{k}")))
            .collect();
        let iter_vars = vars
            .iter()
            .zip(&kinds)
            .map(|(v, (e, k))| match k {
                IterKind::Spatial => IterVar::spatial(v.clone(), *e),
                IterKind::Reduce => IterVar::reduce(v.clone(), *e),
            })
            .collect();
        let body = Stmt::store(out.clone(), vec![Expr::from(&vars[0])], Expr::f32(0.0));
        let block = Block::new("b", iter_vars, vec![], vec![out.full_region()], body);
        let i = Var::int("i");
        let realize = tir::BlockRealize::new(bindings(&i), block);
        let stmt = Stmt::BlockRealize(Box::new(realize)).in_loop(i, 16);
        PrimFunc::new("f", vec![out], stmt)
    }

    #[test]
    fn rejects_dependent_bindings() {
        // v1 = i, v2 = i * 2: the paper's invalid example.
        let i = Var::int("i");
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let (v1, v2) = (Var::int("v1"), Var::int("v2"));
        let body = Stmt::store(out.clone(), vec![Expr::from(&v1)], Expr::f32(0.0));
        let block = Block::new(
            "b",
            vec![IterVar::spatial(v1, 16), IterVar::spatial(v2, 32)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let realize = tir::BlockRealize::new(vec![Expr::from(&i), Expr::from(&i) * 2], block);
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::BlockRealize(Box::new(realize)).in_loop(i, 16),
        );
        let errors = check_loop_nests(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::LoopNest { .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn accepts_split_bindings() {
        // v1 = i // 4, v2 = i % 4: the paper's legal example.
        let i = Var::int("i");
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let (v1, v2) = (Var::int("v1"), Var::int("v2"));
        let body = Stmt::store(
            out.clone(),
            vec![Expr::from(&v1) * 4 + Expr::from(&v2)],
            Expr::f32(0.0),
        );
        let block = Block::new(
            "b",
            vec![IterVar::spatial(v1, 4), IterVar::spatial(v2, 4)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let realize = tir::BlockRealize::new(
            vec![Expr::from(&i).floor_div(4), Expr::from(&i).floor_mod(4)],
            block,
        );
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::BlockRealize(Box::new(realize)).in_loop(i, 16),
        );
        assert!(check_loop_nests(&f).is_empty());
    }

    #[test]
    fn domain_mismatch_without_predicate() {
        // v0 in [0, 8) bound to i in [0, 16), and no predicate.
        let f = block_with_bindings(|i| vec![Expr::from(i)], vec![(8, IterKind::Spatial)]);
        let errors = check_loop_nests(&f);
        assert!(
            matches!(
                &errors[..],
                [ValidationError::DomainMismatch {
                    declared: 8,
                    bound: 16,
                    ..
                }]
            ),
            "{errors:?}"
        );
    }

    #[test]
    fn reduction_on_parallel_loop_rejected() {
        let out = Buffer::new("O", DataType::float32(), vec![1]);
        let k = Var::int("k");
        let vk = Var::int("vk");
        let body = Stmt::store(
            out.clone(),
            vec![Expr::int(0)],
            out.load(vec![Expr::int(0)]) + Expr::f32(1.0),
        );
        let block = Block::new(
            "b",
            vec![IterVar::reduce(vk, 8)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let realize = tir::BlockRealize::new(vec![Expr::from(&k)], block);
        let loop_ = Stmt::For(Box::new(tir::For::with_kind(
            k,
            8,
            ForKind::Parallel,
            Stmt::BlockRealize(Box::new(realize)),
        )));
        let f = PrimFunc::new("f", vec![out], loop_);
        let errors = check_loop_nests(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::ReductionOnParallelLoop { .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn nested_same_thread_tag_rejected() {
        let out = Buffer::new("O", DataType::float32(), vec![4]);
        let (t0, t1) = (Var::int("t0"), Var::int("t1"));
        let v = Var::int("v");
        let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let block = Block::new(
            "b",
            vec![IterVar::spatial(v, 4)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let realize = tir::BlockRealize::new(vec![Expr::from(&t0) * 2 + Expr::from(&t1)], block);
        let inner = Stmt::For(Box::new(tir::For::with_kind(
            t1,
            2,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            Stmt::BlockRealize(Box::new(realize)),
        )));
        let outer = Stmt::For(Box::new(tir::For::with_kind(
            t0,
            2,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            inner,
        )));
        let f = PrimFunc::new("f", vec![out], outer);
        let errors = check_loop_nests(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::NestedThreadBinding { .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn launch_limit_enforced() {
        let out = Buffer::new("O", DataType::float32(), vec![2048]);
        let t = Var::int("t");
        let v = Var::int("v");
        let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let block = Block::new(
            "b",
            vec![IterVar::spatial(v, 2048)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let realize = tir::BlockRealize::new(vec![Expr::from(&t)], block);
        let loop_ = Stmt::For(Box::new(tir::For::with_kind(
            t,
            2048,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            Stmt::BlockRealize(Box::new(realize)),
        )));
        let f = PrimFunc::new("f", vec![out], loop_);
        let errors = check_loop_nests(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::LaunchLimit { .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn predicate_guard_accepts_partial_tiles() {
        // i0 in 0..4, i1 in 0..8, binding v = i0*8 + i1 over domain 30 with
        // predicate i0*8 + i1 < 30.
        let out = Buffer::new("O", DataType::float32(), vec![30]);
        let (i0, i1) = (Var::int("i0"), Var::int("i1"));
        let v = Var::int("v");
        let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let block = Block::new(
            "b",
            vec![IterVar::spatial(v, 30)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let binding = Expr::from(&i0) * 8 + Expr::from(&i1);
        let realize =
            tir::BlockRealize::with_predicate(vec![binding.clone()], binding.lt(30), block);
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::BlockRealize(Box::new(realize)).in_loops(vec![(i0, 4), (i1, 8)]),
        );
        assert!(check_loop_nests(&f).is_empty());
    }

    /// A predicate guards a binding only when it bounds that binding: with
    /// `v = i` over `i < 20` and a declared extent of 16, `j < 16` guards
    /// nothing, so `v` escapes its domain.
    #[test]
    fn predicate_on_another_variable_does_not_guard() {
        let out = Buffer::new("O", DataType::float32(), vec![20]);
        let (i, j, v) = (Var::int("i"), Var::int("j"), Var::int("v"));
        let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let block = Block::new(
            "b",
            vec![IterVar::spatial(v, 16)],
            vec![],
            vec![out.full_region()],
            body,
        );
        let realize =
            tir::BlockRealize::with_predicate(vec![Expr::from(&i)], Expr::from(&j).lt(16), block);
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::BlockRealize(Box::new(realize)).in_loops(vec![(i, 20), (j, 16)]),
        );
        let errors = check_loop_nests(&f);
        assert!(
            errors.iter().any(|e| matches!(
                e,
                ValidationError::DomainMismatch {
                    declared: 16,
                    bound: 20,
                    ..
                }
            )),
            "{errors:?}"
        );
    }

    #[test]
    fn region_cover_detects_partial_producer() {
        // B written only on [0, 4) but read on [0, 8).
        let a = Buffer::new("A", DataType::float32(), vec![8]);
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let c = Buffer::new("C", DataType::float32(), vec![8]);
        let i = Var::int("i");
        let vi = Var::int("vi");
        let w = Stmt::store(
            b.clone(),
            vec![Expr::from(&vi)],
            a.load(vec![Expr::from(&vi)]),
        );
        let wb = Block::new(
            "B",
            vec![IterVar::spatial(vi.clone(), 4)],
            vec![tir::BufferRegion::point(a.clone(), vec![Expr::from(&vi)])],
            vec![tir::BufferRegion::point(b.clone(), vec![Expr::from(&vi)])],
            w,
        );
        let producer =
            Stmt::BlockRealize(Box::new(tir::BlockRealize::new(vec![Expr::from(&i)], wb)))
                .in_loop(i, 4);
        let consumer = tir::builder::compute("C", &c, |iv| b.load(vec![Expr::from(&iv[0])]));
        let f = PrimFunc::new("f", vec![a, c], Stmt::seq(vec![producer, consumer]));
        let errors = check_region_cover(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::RegionCover { .. })),
            "{errors:?}"
        );
    }
}

#[cfg(test)]
mod cooperative_tests {
    use super::*;
    use tir::{DataType, IterVar, Stmt};

    /// A shared-buffer producer racing under threadIdx without cooperative
    /// annotation is flagged; with the annotation it passes.
    #[test]
    fn cooperative_fetch_check() {
        let shared = Buffer::with_scope("S", DataType::float32(), vec![8], MemScope::Shared);
        let a = Buffer::new("A", DataType::float32(), vec![8]);
        let (t, ax) = (Var::int("t"), Var::int("ax"));
        let v = Var::int("v");
        let body = Stmt::store(
            shared.clone(),
            vec![Expr::from(&v)],
            a.load(vec![Expr::from(&v)]),
        );
        let mk = |annotated: bool| {
            let mut block = Block::new(
                "S_copy",
                vec![IterVar::spatial(v.clone(), 8)],
                vec![tir::BufferRegion::point(a.clone(), vec![Expr::from(&v)])],
                vec![tir::BufferRegion::point(
                    shared.clone(),
                    vec![Expr::from(&v)],
                )],
                body.clone(),
            );
            if annotated {
                block
                    .annotations
                    .insert("tir.cooperative".into(), tir::AnnValue::Int(32));
            }
            // The copy loops over ax inside a threadIdx loop it does not
            // consume.
            let realize = BlockRealize::new(vec![Expr::from(&ax)], block);
            let inner = Stmt::BlockRealize(Box::new(realize)).in_loop(ax.clone(), 8);
            let thread_loop = Stmt::For(Box::new(tir::For::with_kind(
                t.clone(),
                32,
                ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
                inner,
            )));
            PrimFunc::new("f", vec![a.clone()], thread_loop)
        };
        let errors = check_loop_nests(&mk(false));
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::CooperativeFetch { .. })),
            "{errors:?}"
        );
        let errors = check_loop_nests(&mk(true));
        assert!(
            !errors
                .iter()
                .any(|e| matches!(e, ValidationError::CooperativeFetch { .. })),
            "{errors:?}"
        );
    }
}

#[cfg(test)]
mod atomic_tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{DataType, Stmt};

    #[test]
    fn atomic_annotation_permits_parallel_reduction() {
        let mut func = matmul_func("mm", 8, 8, 8, DataType::float32());
        // Parallelize the reduction loop (k is innermost).
        fn parallelize_innermost(s: &mut Stmt) {
            match s {
                Stmt::For(f) if matches!(&f.body, Stmt::BlockRealize(_)) => {
                    f.kind = ForKind::Parallel;
                }
                _ => s.children_mut().for_each(parallelize_innermost),
            }
        }
        parallelize_innermost(&mut func.root_block_mut().expect("root block").body);
        let errors = check_loop_nests(&func);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::ReductionOnParallelLoop { .. })),
            "{errors:?}"
        );
        // Mark the block atomic: the same program now validates.
        fn annotate(s: &mut Stmt) {
            if let Stmt::BlockRealize(br) = s {
                if br.block.name == "C" {
                    br.block
                        .annotations
                        .insert("tir.atomic".into(), tir::AnnValue::Int(1));
                }
            }
            s.children_mut().for_each(annotate);
        }
        annotate(&mut func.root_block_mut().expect("root block").body);
        let errors = check_loop_nests(&func);
        assert!(
            !errors
                .iter()
                .any(|e| matches!(e, ValidationError::ReductionOnParallelLoop { .. })),
            "{errors:?}"
        );
    }
}

/// Remembered ≡ fresh on hand-built programs: each is valid at first and
/// is then broken by one edit inside the same session, whose verdict must
/// equal a fresh [`validate`] of the same program error for error. (Debug
/// builds also re-run the check on every remembered block; these
/// comparisons hold in release builds too, where nothing else does.)
#[cfg(test)]
mod session_tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{AnnValue, DataType, IterVar, Stmt};

    /// Calls `f` on every statement below the root block, outermost first.
    fn edit(func: &mut PrimFunc, f: &mut dyn FnMut(&mut Stmt)) {
        fn walk(s: &mut Stmt, f: &mut dyn FnMut(&mut Stmt)) {
            f(s);
            s.children_mut().for_each(|child| walk(child, f));
        }
        walk(&mut func.root_block_mut().expect("root block").body, f);
    }

    /// The session's verdict, after checking it against a fresh one.
    fn agreed(session: &mut ValidationSession, func: &PrimFunc) -> Vec<ValidationError> {
        let remembered = session.validate(func);
        assert_eq!(remembered, validate(func), "remembered != fresh on\n{func}");
        remembered.err().unwrap_or_default()
    }

    /// A block `name` storing `out[v] = 0` for one spatial iterator `v`.
    fn store_block(name: &str, out: &Buffer, extent: i64) -> Block {
        let v = Var::int("v");
        let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let iter_vars = vec![IterVar::spatial(v, extent)];
        Block::new(name, iter_vars, vec![], vec![out.full_region()], body)
    }

    #[test]
    fn reduction_bound_to_a_parallel_loop() {
        let mut func = matmul_func("mm", 8, 8, 8, DataType::float32());
        let mut session = ValidationSession::default();
        assert!(agreed(&mut session, &func).is_empty());
        let verdicts = session.remembered.len();
        assert!(agreed(&mut session, &func).is_empty());
        assert_eq!(
            session.remembered.len(),
            verdicts,
            "a second look re-checks nothing"
        );
        let set_reduce_loop = |func: &mut PrimFunc, kind: ForKind| {
            edit(func, &mut |s| match s {
                Stmt::For(l) if matches!(l.body, Stmt::BlockRealize(_)) => l.kind = kind,
                _ => {}
            })
        };
        set_reduce_loop(&mut func, ForKind::Parallel);
        let errors = agreed(&mut session, &func);
        assert!(
            matches!(
                errors[..],
                [ValidationError::ReductionOnParallelLoop { .. }]
            ),
            "{errors:?}"
        );
        // Back to the first state: its verdicts are still there.
        set_reduce_loop(&mut func, ForKind::Serial);
        let verdicts = session.remembered.len();
        assert!(agreed(&mut session, &func).is_empty());
        assert_eq!(session.remembered.len(), verdicts);
    }

    #[test]
    fn binding_beyond_its_domain_once_the_guard_is_gone() {
        // v = i0 * 8 + i1 sweeps 32 points of a 30-wide domain.
        let out = Buffer::new("O", DataType::float32(), vec![30]);
        let (i0, i1) = (Var::int("i0"), Var::int("i1"));
        let block = store_block("b", &out, 30);
        let binding = Expr::from(&i0) * 8 + Expr::from(&i1);
        let realize = BlockRealize::with_predicate(vec![binding.clone()], binding.lt(30), block);
        let nest = Stmt::BlockRealize(Box::new(realize)).in_loops(vec![(i0, 4), (i1, 8)]);
        let mut func = PrimFunc::new("f", vec![out], nest);
        let mut session = ValidationSession::default();
        assert!(agreed(&mut session, &func).is_empty());
        edit(&mut func, &mut |s| {
            if let Stmt::BlockRealize(br) = s {
                br.predicate = Expr::true_();
            }
        });
        let errors = agreed(&mut session, &func);
        assert!(
            matches!(errors[..], [ValidationError::DomainMismatch { .. }]),
            "{errors:?}"
        );
    }

    #[test]
    fn cooperative_fetch_once_the_annotation_is_gone() {
        let shared = Buffer::with_scope("S", DataType::float32(), vec![8], MemScope::Shared);
        let (t, ax) = (Var::int("t"), Var::int("ax"));
        let mut block = store_block("S_copy", &shared, 8);
        (block.annotations).insert("tir.cooperative".into(), AnnValue::Int(32));
        // The copy loops over `ax` inside a threadIdx loop it does not consume.
        let realize = BlockRealize::new(vec![Expr::from(&ax)], block);
        let inner = Stmt::BlockRealize(Box::new(realize)).in_loop(ax, 8);
        let kind = ForKind::ThreadBinding(ThreadTag::ThreadIdxX);
        let nest = Stmt::For(Box::new(tir::For::with_kind(t, 32, kind, inner)));
        let mut func = PrimFunc::new("f", vec![], nest);
        let mut session = ValidationSession::default();
        assert!(agreed(&mut session, &func).is_empty());
        edit(&mut func, &mut |s| {
            if let Stmt::BlockRealize(br) = s {
                br.block.annotations.remove("tir.cooperative");
            }
        });
        let errors = agreed(&mut session, &func);
        assert!(
            matches!(errors[..], [ValidationError::CooperativeFetch { .. }]),
            "{errors:?}"
        );
    }

    /// An inner block bound through its parent's iterator: the parent's
    /// loop is re-split legally, then only the parent's binding is broken.
    /// Nothing the inner block holds itself changes in the second edit, and
    /// it must be checked again all the same.
    #[test]
    fn nested_block_under_a_re_split_parent() {
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let (i, j) = (Var::int("i"), Var::int("j"));
        let inner = store_block("inner", &out, 16);
        let vo = Var::int("vo");
        let inner = BlockRealize::new(vec![Expr::from(&vo) * 4 + Expr::from(&j)], inner);
        let outer = Block::new(
            "outer",
            vec![IterVar::spatial(vo, 4)],
            vec![],
            vec![out.full_region()],
            Stmt::BlockRealize(Box::new(inner)).in_loop(j, 4),
        );
        let outer = BlockRealize::new(vec![Expr::from(&i)], outer);
        let nest = Stmt::BlockRealize(Box::new(outer)).in_loop(i.clone(), 4);
        let mut func = PrimFunc::new("f", vec![out], nest);
        let mut session = ValidationSession::default();
        assert!(agreed(&mut session, &func).is_empty());

        let (i0, i1) = (Var::int("i0"), Var::int("i1"));
        let resplit = Expr::from(&i0) * 2 + Expr::from(&i1);
        edit(&mut func, &mut |s| match s {
            Stmt::For(l) if l.var == i => {
                let mut body = std::mem::replace(&mut l.body, Stmt::Seq(vec![]));
                if let Stmt::BlockRealize(br) = &mut body {
                    br.iter_values = vec![resplit.clone()];
                }
                *s = body.in_loops(vec![(i0.clone(), 2), (i1.clone(), 2)]);
            }
            _ => {}
        });
        assert!(agreed(&mut session, &func).is_empty());

        edit(&mut func, &mut |s| match s {
            Stmt::BlockRealize(br) if br.block.name == "outer" => {
                br.iter_values = vec![Expr::from(&i0) * 2 + Expr::from(&i1) * 2];
            }
            _ => {}
        });
        let errors = agreed(&mut session, &func);
        let blames = |name: &str| {
            errors.iter().any(|e| match e {
                ValidationError::LoopNest { block, .. }
                | ValidationError::DomainMismatch { block, .. } => block == name,
                _ => false,
            })
        };
        assert!(blames("outer") && blames("inner"), "{errors:?}");
    }
}
