//! Local expression simplification: constant folding and algebraic
//! identities.
//!
//! This is the context-free simplifier used throughout the scheduling
//! primitives; bound-aware simplification lives in `tir-arith`.

use crate::expr::{BinOp, CmpOp, Expr};
use crate::visit::{ExprMutator, ExprVisitor, StmtMutator};
use crate::Stmt;

/// Floor division matching Python `//` semantics.
pub fn floor_div_i64(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0, "division by zero");
    let q = a / b;
    let r = a % b;
    if r != 0 && ((r < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Floor modulo matching Python `%` semantics.
pub fn floor_mod_i64(a: i64, b: i64) -> i64 {
    a - floor_div_i64(a, b) * b
}

fn fold_int(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.checked_add(b)?,
        BinOp::Sub => a.checked_sub(b)?,
        BinOp::Mul => a.checked_mul(b)?,
        BinOp::Div => {
            if b == 0 || a % b != 0 {
                return None;
            }
            a / b
        }
        BinOp::FloorDiv => {
            if b == 0 {
                return None;
            }
            floor_div_i64(a, b)
        }
        BinOp::FloorMod => {
            if b == 0 {
                return None;
            }
            floor_mod_i64(a, b)
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
    })
}

fn fold_float(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        _ => return None,
    })
}

/// The operands of a binary node whose shape the caller has matched.
fn operands(e: Expr) -> (Box<Expr>, Box<Expr>) {
    match e {
        Expr::Bin(_, x, y) => (x, y),
        other => unreachable!("caller matched a binary node, found {other:?}"),
    }
}

/// What the first rule that matches `a op b` makes of it: the rewrite
/// [`simplify_bin`] applies, named here so that [`is_simplified`] can ask
/// whether a rule fires without taking the node apart. Every rewrite yields
/// a tree different from `a op b`: a constant, or one of its proper parts
/// (simplified further).
enum BinRule {
    /// A constant.
    Leaf(Expr),
    /// `a`.
    Left,
    /// `b`.
    Right,
    /// `x` of `a = x ⊕ y`.
    LeftOfLeft,
    /// `y` of `a = x ⊕ y`.
    RightOfLeft,
    /// `x` of `a = (x ⊕ c) ⊕ y`.
    LeftOfLeftOfLeft,
    /// `x op2 c`, simplified, for `a = x ⊕ _`.
    Regroup(BinOp, i64),
    /// `y % b`, simplified, for `a = _ + y`.
    ModOfRightOfLeft,
}

/// The first rule that matches `a op b`, both already simplified, if any.
fn bin_rule(op: BinOp, a: &Expr, b: &Expr) -> Option<BinRule> {
    use BinRule::*;
    // Constant folding.
    if let (Expr::Int(x, dt), Expr::Int(y, _)) = (a, b) {
        if let Some(v) = fold_int(op, *x, *y) {
            let dt = if matches!(op, BinOp::And | BinOp::Or) {
                crate::DataType::bool()
            } else {
                *dt
            };
            return Some(Leaf(Expr::Int(v, dt)));
        }
    }
    if let (Expr::Float(x, dt), Expr::Float(y, _)) = (a, b) {
        if let Some(v) = fold_float(op, *x, *y) {
            return Some(Leaf(Expr::Float(v, *dt)));
        }
    }
    let a_int = a.as_int();
    let b_int = b.as_int();
    let a_zero = a_int == Some(0) || matches!(*a, Expr::Float(v, _) if v == 0.0);
    let b_zero = b_int == Some(0) || matches!(*b, Expr::Float(v, _) if v == 0.0);
    let a_one = a_int == Some(1) || matches!(*a, Expr::Float(v, _) if v == 1.0);
    let b_one = b_int == Some(1) || matches!(*b, Expr::Float(v, _) if v == 1.0);
    match op {
        BinOp::Add => {
            if a_zero {
                return Some(Right);
            }
            if b_zero {
                return Some(Left);
            }
            // (x + c1) + c2 => x + (c1+c2)
            if let (Expr::Bin(BinOp::Add, _, c1), Some(c2)) = (a, b_int) {
                if let Some(c1v) = c1.as_int() {
                    return Some(Regroup(BinOp::Add, c1v + c2));
                }
            }
        }
        BinOp::Sub => {
            if b_zero {
                return Some(Left);
            }
            if a == b && a_int.is_none() {
                // symbolic x - x
                return Some(Leaf(Expr::Int(0, a.dtype())));
            }
            // (x + y) - x => y and (x + y) - y => x (slice extents).
            if let Expr::Bin(BinOp::Add, x, y) = a {
                if **x == *b {
                    return Some(RightOfLeft);
                }
                if **y == *b {
                    return Some(LeftOfLeft);
                }
            }
        }
        BinOp::Mul => {
            if a_zero || b_zero {
                return Some(Leaf(if a.dtype().is_float() || b.dtype().is_float() {
                    Expr::Float(0.0, a.dtype())
                } else {
                    Expr::Int(0, a.dtype())
                }));
            }
            if a_one {
                return Some(Right);
            }
            if b_one {
                return Some(Left);
            }
            // (x * c1) * c2 => x * (c1*c2)
            if let (Expr::Bin(BinOp::Mul, _, c1), Some(c2)) = (a, b_int) {
                if let Some(c1v) = c1.as_int() {
                    return Some(Regroup(BinOp::Mul, c1v * c2));
                }
            }
        }
        BinOp::Div => {
            if b_one {
                return Some(Left);
            }
        }
        BinOp::FloorDiv => {
            if b_one {
                return Some(Left);
            }
            if let Some(c) = b_int {
                if c > 0 {
                    // (x * c) // c => x ; (x * c1) // c2 with c1 % c2 == 0 => x * (c1/c2)
                    if let Expr::Bin(BinOp::Mul, _, c1) = a {
                        if let Some(c1v) = c1.as_int() {
                            if c1v % c == 0 {
                                return Some(Regroup(BinOp::Mul, c1v / c));
                            }
                        }
                    }
                    // (x * c + y) // c => x + y // c  (valid when 0 <= y — we
                    // only apply it when y is a non-negative constant < c).
                    if let Expr::Bin(BinOp::Add, l, r) = a {
                        if let (Expr::Bin(BinOp::Mul, _, c1), Some(rv)) = (&**l, r.as_int()) {
                            if c1.as_int() == Some(c) && (0..c).contains(&rv) {
                                return Some(LeftOfLeftOfLeft);
                            }
                        }
                    }
                }
            }
        }
        BinOp::FloorMod => {
            if b_one {
                return Some(Leaf(Expr::Int(0, a.dtype())));
            }
            if let Some(c) = b_int {
                if c > 0 {
                    // (x * c1) % c2 == 0 when c1 % c2 == 0
                    if let Expr::Bin(BinOp::Mul, _, c1) = a {
                        if let Some(c1v) = c1.as_int() {
                            if c1v % c == 0 {
                                return Some(Leaf(Expr::Int(0, a.dtype())));
                            }
                        }
                    }
                    // (x * c + y) % c => y % c
                    if let Expr::Bin(BinOp::Add, l, _) = a {
                        if let Expr::Bin(BinOp::Mul, _, c1) = &**l {
                            if c1.as_int() == Some(c) {
                                return Some(ModOfRightOfLeft);
                            }
                        }
                    }
                }
            }
        }
        BinOp::Min | BinOp::Max => {
            if a == b {
                return Some(Left);
            }
        }
        BinOp::And => {
            if a_int == Some(1) {
                return Some(Right);
            }
            if b_int == Some(1) {
                return Some(Left);
            }
            if a_int == Some(0) || b_int == Some(0) {
                return Some(Leaf(Expr::bool(false)));
            }
        }
        BinOp::Or => {
            if a_int == Some(0) {
                return Some(Right);
            }
            if b_int == Some(0) {
                return Some(Left);
            }
            if a_int == Some(1) || b_int == Some(1) {
                return Some(Leaf(Expr::bool(true)));
            }
        }
    }
    None
}

/// Applies the first matching rule to `a op b`, both already simplified.
/// The operands come in their boxes and leave in them when no rule fires,
/// so the common case allocates nothing; a rule that rebuilds a node
/// reuses the boxes it took apart.
fn simplify_bin(op: BinOp, a: Box<Expr>, mut b: Box<Expr>) -> Expr {
    let Some(rule) = bin_rule(op, &a, &b) else {
        return Expr::Bin(op, a, b);
    };
    match rule {
        BinRule::Leaf(e) => e,
        BinRule::Left => *a,
        BinRule::Right => *b,
        BinRule::LeftOfLeft => *operands(*a).0,
        BinRule::RightOfLeft => *operands(*a).1,
        BinRule::LeftOfLeftOfLeft => *operands(*operands(*a).0).0,
        BinRule::Regroup(op, c) => {
            let (x, _) = operands(*a);
            *b = Expr::int(c);
            simplify_bin(op, x, b)
        }
        BinRule::ModOfRightOfLeft => {
            let (_, y) = operands(*a);
            simplify_bin(BinOp::FloorMod, y, b)
        }
    }
}

/// Whether a rule rewrites the node `e`, whose operands are simplified
/// already: the guards of every rule, read without taking `e` apart.
fn fires(e: &Expr) -> bool {
    match e {
        Expr::Bin(op, a, b) => bin_rule(*op, a, b).is_some(),
        Expr::Cmp(_, a, b) => (a.as_int().is_some() && b.as_int().is_some()) || a == b,
        Expr::Not(v) => matches!(**v, Expr::Int(_, dt) if dt.is_bool()),
        Expr::Select { cond, .. } => cond.as_int().is_some(),
        Expr::Cast(dt, v) => v.dtype() == *dt,
        _ => false,
    }
}

struct Simplifier;
impl ExprMutator for Simplifier {
    fn mutate_expr(&mut self, e: &mut Expr) {
        self.walk_expr(e);
        // A binary node's rule is found once, by `simplify_bin`.
        if !matches!(e, Expr::Bin(..)) && !fires(e) {
            return;
        }
        // Take the node out to hand its boxes to the rules; the placeholder
        // owns no heap memory.
        *e = match std::mem::replace(e, Expr::Int(0, crate::DataType::bool())) {
            Expr::Bin(op, a, b) => simplify_bin(op, a, b),
            Expr::Cmp(op, a, b) => Expr::bool(match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => op.apply(x, y),
                // `a == b`, symbolic.
                _ => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
            }),
            Expr::Not(v) => Expr::bool(v.as_int() == Some(0)),
            Expr::Select { cond, then, other } => {
                if cond.as_int() == Some(0) {
                    *other
                } else {
                    *then
                }
            }
            Expr::Cast(_, v) => *v,
            other => unreachable!("no rule rewrites {other:?}"),
        };
    }
}
impl StmtMutator for Simplifier {}

/// Simplifies an expression bottom-up, in place. A tree no rule fires on is
/// left as it is, without allocating.
///
/// # Examples
///
/// ```
/// use tir::{Expr, Var, simplify::simplify_expr};
/// let i = Var::int("i");
/// let mut e = (Expr::from(&i) * 4 + 2).floor_div(4);
/// // (i*4 + 2) // 4 => i
/// simplify_expr(&mut e);
/// assert_eq!(e, Expr::from(&i));
/// ```
pub fn simplify_expr(e: &mut Expr) {
    Simplifier.mutate_expr(e);
}

/// [`simplify_expr`] on an expression the caller owns (or cloned to keep
/// its input): `simplified(a + b)`.
pub fn simplified(mut e: Expr) -> Expr {
    simplify_expr(&mut e);
    e
}

/// Whether [`simplify_expr`] would leave `e` as it is: no rule fires on any
/// of its nodes. It reads the tree and allocates nothing, so a caller that
/// only reads the simplified form can borrow `e` when this holds instead of
/// simplifying a copy.
///
/// # Examples
///
/// ```
/// use tir::{Expr, Var, simplify::is_simplified};
/// let i = Var::int("i");
/// assert!(is_simplified(&(Expr::from(&i) * 4 + 2)));
/// assert!(!is_simplified(&(Expr::from(&i) * 4 + 2).floor_div(4)));
/// ```
pub fn is_simplified(e: &Expr) -> bool {
    /// Cleared at the first node a rule fires on; children first, as the
    /// simplifier goes.
    struct Settled(bool);
    impl ExprVisitor for Settled {
        fn visit_expr(&mut self, e: &Expr) {
            if self.0 {
                self.walk_expr(e);
                self.0 = self.0 && !fires(e);
            }
        }
    }
    let mut settled = Settled(true);
    settled.visit_expr(e);
    settled.0
}

/// Simplifies every expression inside a statement, in place.
pub fn simplify_stmt(s: &mut Stmt) {
    Simplifier.mutate_stmt(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Var;

    fn s(e: Expr) -> Expr {
        simplified(e)
    }

    #[test]
    fn folds_constants() {
        assert_eq!(s(Expr::int(2) + 3), Expr::int(5));
        assert_eq!(s(Expr::int(7).floor_div(2)), Expr::int(3));
        assert_eq!(s(Expr::int(-7).floor_div(2)), Expr::int(-4));
        assert_eq!(s(Expr::int(-7).floor_mod(2)), Expr::int(1));
        assert_eq!(s(Expr::int(3).min(5)), Expr::int(3));
        assert_eq!(s(Expr::f32(2.0) * 4.0f32), Expr::f32(8.0));
    }

    #[test]
    #[allow(clippy::erasing_op)]
    fn identities() {
        let x = Var::int("x");
        let xe = || Expr::from(&x);
        assert_eq!(s(xe() + 0), xe());
        assert_eq!(s(xe() * 1), xe());
        assert_eq!(s(xe() * 0), Expr::int(0));
        assert_eq!(s(xe() - 0), xe());
        assert_eq!(s(xe().floor_div(1)), xe());
        assert_eq!(s(xe().floor_mod(1)), Expr::int(0));
        assert_eq!(s(xe().min(xe())), xe());
    }

    #[test]
    fn split_fuse_cancellation() {
        let x = Var::int("x");
        let y = Var::int("y");
        // (x*8 + y) // 8 with y in [0,8) constant
        let e = (Expr::from(&x) * 8 + 3).floor_div(8);
        assert_eq!(s(e), Expr::from(&x));
        // (x*8 + y) % 8 => y % 8
        let e = (Expr::from(&x) * 8 + Expr::from(&y)).floor_mod(8);
        assert_eq!(s(e), Expr::from(&y).floor_mod(8));
        // (x*8) // 4 => x * 2
        let e = (Expr::from(&x) * 8).floor_div(4);
        assert_eq!(s(e), Expr::from(&x) * 2);
        // (x*8) % 4 => 0
        let e = (Expr::from(&x) * 8).floor_mod(4);
        assert_eq!(s(e), Expr::int(0));
    }

    #[test]
    fn slice_extent_cancellation() {
        let x = Var::int("x");
        // (x*4 + 4) - x*4 => 4  (parsing `lo:hi` slices back to extents)
        let lo = Expr::from(&x) * 4;
        let hi = lo.clone() + 4;
        assert_eq!(s(hi - lo), Expr::int(4));
    }

    #[test]
    fn nested_constant_chains() {
        let x = Var::int("x");
        let e = (Expr::from(&x) + 1) + 2;
        assert_eq!(s(e), Expr::from(&x) + 3);
        let e = (Expr::from(&x) * 2) * 3;
        assert_eq!(s(e), Expr::from(&x) * 6);
    }

    #[test]
    fn booleans_and_select() {
        assert_eq!(
            s(Expr::bool(true).and(Expr::bool(false))),
            Expr::bool(false)
        );
        let x = Var::int("x");
        let c = Expr::from(&x).lt(5);
        assert_eq!(s(Expr::true_().and(c.clone())), s(c));
        assert_eq!(
            s(Expr::select(Expr::bool(true), Expr::int(1), Expr::int(2))),
            Expr::int(1)
        );
        assert_eq!(s(Expr::int(3).lt(4)), Expr::bool(true));
        assert_eq!(s(Expr::Not(Box::new(Expr::bool(false)))), Expr::bool(true));
    }

    #[test]
    fn symbolic_compare() {
        let x = Var::int("x");
        assert_eq!(
            s(Expr::from(&x).cmp(CmpOp::Le, Expr::from(&x))),
            Expr::bool(true)
        );
        assert_eq!(
            s(Expr::from(&x).cmp(CmpOp::Lt, Expr::from(&x))),
            Expr::bool(false)
        );
    }

    #[test]
    fn floor_div_mod_helpers() {
        assert_eq!(floor_div_i64(7, 2), 3);
        assert_eq!(floor_div_i64(-7, 2), -4);
        assert_eq!(floor_mod_i64(7, 2), 1);
        assert_eq!(floor_mod_i64(-7, 2), 1);
        assert_eq!(floor_div_i64(7, -2), -4);
        assert_eq!(floor_mod_i64(7, -2), -1);
    }
}
