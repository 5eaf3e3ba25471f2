//! Static bounds checking: proves every load/store index lies within its
//! buffer's shape by interval propagation.
//!
//! The walk of the crate (`walk.rs`) carries the interval environment this check
//! reads: loop variables range over `[0, extent)`, block iterators over the
//! interval of their (enclosing-scope) binding value intersected with the
//! declared domain — the intersection is sound because domain violations
//! without a guarding predicate are reported separately by loop-nest
//! validation, and the full analyzer ([`crate::analyze`]) always runs both
//! checks.
//!
//! Conditions refine the environment (`refine`): under a block predicate
//! and in the `then` branch of an [`Expr::Select`] or [`Stmt::IfThenElse`],
//! every conjunct of the form `a*v + b  cmp  0` (affine in a single
//! variable) tightens `v`'s interval. This is what accepts guarded gather
//! patterns like the T2D zero-padding block, whose raw load index is
//! negative outside the guard. Both executors evaluate `Select` lazily, so
//! the refinement matches the dynamic semantics. `else` branches are walked
//! unrefined (sound, possibly imprecise).
//!
//! [`Stmt::IfThenElse`]: tir::Stmt::IfThenElse

use std::borrow::Cow;

use tir::simplify::{floor_div_i64, simplified};
use tir::{Buffer, CmpOp, Expr, PrimFunc, VarMap};
use tir_arith::bound::{bound_of, IntBound};
use tir_arith::iter_map::normalize;

use crate::validate::{split_and, ValidationError};
use crate::walk::{self, Check, Scope};

/// Checks every buffer access of `func` for provable in-boundedness.
///
/// Returns one [`ValidationError::OutOfBounds`] per access dimension whose
/// proven interval escapes `[0, shape[dim])`. An empty result means every
/// access is statically in bounds.
pub fn check_bounds(func: &PrimFunc) -> Vec<ValidationError> {
    walk::run(func, &[Check::Bounds])
}

/// Reports every index of one access that may leave the buffer's shape.
pub(crate) fn check_access(
    scope: &Scope,
    buffer: &Buffer,
    indices: &[Expr],
    errors: &mut Vec<ValidationError>,
) {
    for (dim, idx) in indices.iter().enumerate() {
        let extent = buffer.shape()[dim];
        let b = bound_of(&simplified(idx.clone()), scope.ranges(Check::Bounds));
        if b.min < 0 || b.max >= extent {
            errors.push(ValidationError::OutOfBounds {
                buffer: buffer.name().to_string(),
                block: walk::name_of(scope.block()).to_string(),
                dim,
                index_min: b.min,
                index_max: b.max,
                extent,
            });
        }
    }
}

/// Tightens single-variable affine conjuncts of `cond` into the bounds
/// ranges of `scope`; the caller undoes them when the guard ends.
pub(crate) fn refine(scope: &mut Scope, cond: &Expr) {
    let mut conjuncts = Vec::new();
    split_and(cond, &mut conjuncts);
    for c in conjuncts {
        let Expr::Cmp(op, lhs, rhs) = c else { continue };
        let diff = simplified(Expr::Bin(tir::BinOp::Sub, lhs.clone(), rhs.clone()));
        let vars = tir::visit::collect_vars_expr(&diff);
        let [v] = vars.as_slice() else { continue };
        // Extract `diff = a*v + b` via iterator-map normalization over a
        // dummy full-range domain; partial splits (mod/div pieces) are
        // skipped.
        let dom: VarMap<i64> = [(v.clone(), i64::MAX / 8)].into_iter().collect();
        let Ok(sum) = normalize(&diff, &dom) else {
            continue;
        };
        let [t] = sum.terms.as_slice() else { continue };
        if t.lower_factor != 1 || t.extent != i64::MAX / 8 {
            continue;
        }
        let (a, b) = (t.scale, sum.base);
        if a == 0 {
            continue;
        }
        // Normalize to a positive coefficient, flipping the comparison.
        let (a, b, op) = if a > 0 {
            (a, b, *op)
        } else {
            let flipped = match *op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                other => other,
            };
            (-a, -b, flipped)
        };
        // a*v + b  op  0  with a > 0.
        let (lo, hi) = match op {
            CmpOp::Lt => (None, Some(floor_div_i64(-b - 1, a))),
            CmpOp::Le => (None, Some(floor_div_i64(-b, a))),
            CmpOp::Gt => (Some(-floor_div_i64(b - 1, a)), None),
            CmpOp::Ge => (Some(-floor_div_i64(b, a)), None),
            CmpOp::Eq if b % a == 0 => {
                let x = -b / a;
                (Some(x), Some(x))
            }
            _ => (None, None),
        };
        if lo.is_none() && hi.is_none() {
            continue;
        }
        let ranges = scope.ranges(Check::Bounds);
        let cur = ranges.get(v).copied().unwrap_or_else(IntBound::everything);
        let new_lo = lo.map_or(cur.min, |l| l.max(cur.min));
        let new_hi = hi.map_or(cur.max, |h| h.min(cur.max));
        if new_lo > new_hi {
            // Condition unsatisfiable under current bounds: the branch
            // is dead; keep the old environment (sound, imprecise).
            continue;
        }
        let refined = IntBound::new(new_lo, new_hi);
        scope.set_range(Check::Bounds, Cow::Owned(v.clone()), refined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{DataType, IterVar, Stmt, Var};

    #[test]
    fn matmul_in_bounds() {
        let f = matmul_func("mm", 16, 16, 16, DataType::float32());
        assert!(check_bounds(&f).is_empty());
    }

    #[test]
    fn shifted_store_flagged() {
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let i = Var::int("i");
        let body = Stmt::store(out.clone(), vec![Expr::from(&i) + 1], Expr::f32(0.0));
        let f = PrimFunc::new("f", vec![out], body.in_loop(i, 16));
        let errors = check_bounds(&f);
        assert!(
            errors.iter().any(|e| matches!(
                e,
                ValidationError::OutOfBounds {
                    index_max: 16,
                    extent: 16,
                    ..
                }
            )),
            "{errors:?}"
        );
    }

    #[test]
    fn negative_load_flagged() {
        let a = Buffer::new("A", DataType::float32(), vec![16]);
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let i = Var::int("i");
        let body = Stmt::store(
            out.clone(),
            vec![Expr::from(&i)],
            a.load(vec![Expr::from(&i) - 1]),
        );
        let f = PrimFunc::new("f", vec![a, out], body.in_loop(i, 16));
        let errors = check_bounds(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::OutOfBounds { index_min: -1, .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn select_guard_refines() {
        // O[i] = select(i >= 1, A[i - 1], 0): the guarded load is fine.
        let a = Buffer::new("A", DataType::float32(), vec![16]);
        let out = Buffer::new("O", DataType::float32(), vec![16]);
        let i = Var::int("i");
        let guarded = Expr::select(
            Expr::from(&i).cmp(CmpOp::Ge, 1),
            a.load(vec![Expr::from(&i) - 1]),
            Expr::f32(0.0),
        );
        let body = Stmt::store(out.clone(), vec![Expr::from(&i)], guarded);
        let f = PrimFunc::new("f", vec![a, out], body.in_loop(i, 16));
        assert!(check_bounds(&f).is_empty(), "{:?}", check_bounds(&f));
    }

    #[test]
    fn block_domain_intersection_accepts_partial_tiles() {
        // v = i0*8 + i1 over 4x8 loops, domain 30, guarded: index v stays
        // within [0, 30).
        let out = Buffer::new("O", DataType::float32(), vec![30]);
        let (i0, i1) = (Var::int("i0"), Var::int("i1"));
        let v = Var::int("v");
        let body = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
        let block = tir::Block::new(
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
        assert!(check_bounds(&f).is_empty(), "{:?}", check_bounds(&f));
    }

    #[test]
    fn t2d_pad_guard_accepted() {
        // The transposed-conv padding block loads with raw indices that go
        // negative outside its select guard; refinement must accept it.
        let f = tir_workloads_t2d();
        assert!(check_bounds(&f).is_empty(), "{:?}", check_bounds(&f));
    }

    /// A miniature of the T2D pad pattern (no tir-workloads dependency).
    fn tir_workloads_t2d() -> PrimFunc {
        let a = Buffer::new("A", DataType::float32(), vec![8]);
        let p = Buffer::new("P", DataType::float32(), vec![12]);
        let i = Var::int("i");
        let y = Expr::from(&i) - 3;
        let cond = y
            .clone()
            .cmp(CmpOp::Ge, 0)
            .and(y.clone().lt(8))
            .and(y.clone().floor_mod(2).eq_(0));
        let val = Expr::select(cond, a.load(vec![y.floor_div(1)]), Expr::f32(0.0));
        let body = Stmt::store(p.clone(), vec![Expr::from(&i)], val);
        let mut f = PrimFunc::new("f", vec![a], body.in_loop(i, 12));
        f.root_block_mut().expect("root").alloc_buffers.push(p);
        f
    }
}
