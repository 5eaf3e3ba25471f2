//! Static bounds checking: proves every load/store index lies within its
//! buffer's shape by interval propagation.
//!
//! The checker walks the function carrying an interval environment: loop
//! variables range over `[0, extent)`, block iterators over the interval of
//! their (enclosing-scope) binding value intersected with the declared
//! domain — the intersection is sound because domain violations without a
//! guarding predicate are reported separately by loop-nest validation, and
//! the full analyzer ([`crate::analyze`]) always runs both checks.
//!
//! Conditions refine the environment: descending into the `then` branch of
//! an [`Expr::Select`] or [`Stmt::IfThenElse`], every conjunct of the form
//! `a*v + b  cmp  0` (affine in a single variable) tightens `v`'s interval.
//! This is what accepts guarded gather patterns like the T2D zero-padding
//! block, whose raw load index is negative outside the guard. Both
//! executors evaluate `Select` lazily, so the refinement matches the
//! dynamic semantics. `else` branches are walked unrefined (sound, possibly
//! imprecise).

use tir::simplify::{floor_div_i64, simplified};
use tir::{Buffer, CmpOp, Expr, PrimFunc, Stmt, Var, VarMap};
use tir_arith::bound::{bound_of, IntBound};
use tir_arith::iter_map::normalize;

use crate::validate::{split_and, ValidationError};

/// Checks every buffer access of `func` for provable in-boundedness.
///
/// Returns one [`ValidationError::OutOfBounds`] per access dimension whose
/// proven interval escapes `[0, shape[dim])`. An empty result means every
/// access is statically in bounds.
pub fn check_bounds(func: &PrimFunc) -> Vec<ValidationError> {
    let mut c = BoundsChecker {
        env: VarMap::default(),
        blocks: Vec::new(),
        errors: Vec::new(),
    };
    c.visit(&func.body);
    c.errors
}

struct BoundsChecker {
    env: VarMap<IntBound>,
    blocks: Vec<String>,
    errors: Vec<ValidationError>,
}

/// Saved environment entries for scoped restoration.
type Saved = Vec<(Var, Option<IntBound>)>;

impl BoundsChecker {
    fn visit(&mut self, s: &Stmt) {
        match s {
            Stmt::For(f) => {
                let hi = match f.extent.as_int() {
                    Some(e) => (e - 1).max(0),
                    // Non-constant extents are reported by loop-nest
                    // validation; bound soundly from the extent expression.
                    None => (bound_of(&f.extent, &self.env).max - 1).max(0),
                };
                let prev = self.env.insert(f.var.clone(), IntBound::new(0, hi));
                self.visit(&f.body);
                self.restore(vec![(f.var.clone(), prev)]);
            }
            Stmt::Seq(v) => {
                for st in v {
                    self.visit(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(cond);
                let saved = self.refine(cond);
                self.visit(then_branch);
                self.restore(saved);
                if let Some(e) = else_branch {
                    self.visit(e);
                }
            }
            Stmt::BlockRealize(br) => {
                for v in &br.iter_values {
                    self.check_expr(v);
                }
                self.check_expr(&br.predicate);
                let mut saved: Saved = Vec::new();
                for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
                    let b = bound_of(&simplified(value.clone()), &self.env);
                    let lo = b.min.max(0);
                    let hi = b.max.min(iv.extent - 1);
                    // An empty intersection means the predicate excludes
                    // every in-domain instance; fall back to the domain.
                    let bound = if lo <= hi {
                        IntBound::new(lo, hi)
                    } else {
                        IntBound::new(0, (iv.extent - 1).max(0))
                    };
                    saved.push((iv.var.clone(), self.env.insert(iv.var.clone(), bound)));
                }
                let pred_saved = self.refine(&br.predicate);
                self.blocks.push(br.block.name.clone());
                if let Some(init) = &br.block.init {
                    self.visit(init);
                }
                self.visit(&br.block.body);
                self.blocks.pop();
                self.restore(pred_saved);
                self.restore(saved);
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.check_access(buffer, indices);
                for i in indices {
                    self.check_expr(i);
                }
                self.check_expr(value);
            }
            Stmt::Eval(e) => self.check_expr(e),
        }
    }

    /// Walks an expression looking for loads, refining through `Select`.
    fn check_expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Cast(_, v) | Expr::Not(v) => self.check_expr(v),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.check_expr(a);
                self.check_expr(b);
            }
            Expr::Select { cond, then, other } => {
                self.check_expr(cond);
                let saved = self.refine(cond);
                self.check_expr(then);
                self.restore(saved);
                self.check_expr(other);
            }
            Expr::Load { buffer, indices } => {
                self.check_access(buffer, indices);
                for i in indices {
                    self.check_expr(i);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.check_expr(a);
                }
            }
        }
    }

    fn check_access(&mut self, buffer: &Buffer, indices: &[Expr]) {
        for (dim, idx) in indices.iter().enumerate() {
            let extent = buffer.shape()[dim];
            let b = bound_of(&simplified(idx.clone()), &self.env);
            if b.min < 0 || b.max >= extent {
                self.errors.push(ValidationError::OutOfBounds {
                    buffer: buffer.name().to_string(),
                    block: self.blocks.last().cloned().unwrap_or_default(),
                    dim,
                    index_min: b.min,
                    index_max: b.max,
                    extent,
                });
            }
        }
    }

    /// Tightens single-variable affine conjuncts of `cond` into the
    /// environment; returns the entries to restore afterwards.
    fn refine(&mut self, cond: &Expr) -> Saved {
        let mut conjuncts = Vec::new();
        split_and(cond, &mut conjuncts);
        let mut saved: Saved = Vec::new();
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
            let cur = self
                .env
                .get(v)
                .copied()
                .unwrap_or_else(IntBound::everything);
            let new_lo = lo.map_or(cur.min, |l| l.max(cur.min));
            let new_hi = hi.map_or(cur.max, |h| h.min(cur.max));
            if new_lo > new_hi {
                // Condition unsatisfiable under current bounds: the branch
                // is dead; keep the old environment (sound, imprecise).
                continue;
            }
            let prev = self.env.insert(v.clone(), IntBound::new(new_lo, new_hi));
            // Keep only the first save per variable so restoration returns
            // to the pre-refinement state.
            if !saved.iter().any(|(sv, _)| sv == v) {
                saved.push((v.clone(), prev));
            }
        }
        saved
    }

    fn restore(&mut self, saved: Saved) {
        for (var, prev) in saved.into_iter().rev() {
            match prev {
                Some(b) => {
                    self.env.insert(var, b);
                }
                None => {
                    self.env.remove(&var);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{DataType, IterVar};

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
