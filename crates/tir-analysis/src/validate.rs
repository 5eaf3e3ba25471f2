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

use tir::simplify::simplified;
use tir::visit::{expr_any_var, expr_uses_var};
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

/// A block's bindings composed down to loop variables, one per binding:
/// `None` where that is the binding as written ([`Scope::composed`]).
pub(crate) type Composed = Vec<Option<Expr>>;

/// Loop-nest and threading validation, fed by the walk at every loop and
/// block it enters (while no loop of non-constant extent is around it).
#[derive(Default)]
pub(crate) struct Nests {
    pub(crate) errors: Vec<ValidationError>,
}

impl Nests {
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

    /// Validates one realize and returns the composed binding expressions
    /// (over loop variables only), for the walk to put on its stack.
    pub(crate) fn check_block_realize(&mut self, scope: &Scope, br: &BlockRealize) -> Composed {
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

/// Runs loop-nest validation and threading validation on a function.
pub fn check_loop_nests(func: &PrimFunc) -> Vec<ValidationError> {
    walk::run(func, &[Check::Nests])
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
    gate(walk::run(func, &VALIDATE))
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
pub(crate) fn is_cooperative_scope(scope: &MemScope) -> bool {
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
        let errors = walk::run(&f, &[Check::Cover]);
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
