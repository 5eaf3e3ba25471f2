//! Constant interval analysis over integer expressions.

use tir::simplify::{floor_div_i64, floor_mod_i64};
use tir::{BinOp, CmpOp, Expr, Var, VarMap};

/// An inclusive integer interval `[min, max]`.
///
/// # Examples
///
/// ```
/// use tir_arith::bound::IntBound;
/// let a = IntBound::new(0, 3);
/// let b = IntBound::new(2, 5);
/// assert_eq!(a + b, IntBound::new(2, 8));
/// assert_eq!(a * IntBound::single(4), IntBound::new(0, 12));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntBound {
    /// Smallest possible value.
    pub min: i64,
    /// Largest possible value.
    pub max: i64,
}

impl IntBound {
    /// Creates an interval; `min` must not exceed `max`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: i64, max: i64) -> Self {
        assert!(min <= max, "invalid bound [{min}, {max}]");
        IntBound { min, max }
    }

    /// A single-point interval.
    pub fn single(v: i64) -> Self {
        Self::new(v, v)
    }

    /// The unbounded interval.
    pub fn everything() -> Self {
        Self::new(i64::MIN / 4, i64::MAX / 4)
    }

    /// Whether this interval is a single point.
    pub fn is_single(self) -> bool {
        self.min == self.max
    }

    /// Number of integer points covered.
    pub fn count(self) -> i64 {
        self.max - self.min + 1
    }

    /// Union (convex hull) of two intervals.
    pub fn union(self, other: Self) -> Self {
        Self::new(self.min.min(other.min), self.max.max(other.max))
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(self, other: Self) -> bool {
        self.min <= other.min && other.max <= self.max
    }
}

impl std::ops::Add for IntBound {
    type Output = IntBound;
    fn add(self, rhs: Self) -> Self {
        IntBound::new(
            self.min.saturating_add(rhs.min),
            self.max.saturating_add(rhs.max),
        )
    }
}
impl std::ops::Sub for IntBound {
    type Output = IntBound;
    fn sub(self, rhs: Self) -> Self {
        IntBound::new(
            self.min.saturating_sub(rhs.max),
            self.max.saturating_sub(rhs.min),
        )
    }
}
impl std::ops::Mul for IntBound {
    type Output = IntBound;
    fn mul(self, rhs: Self) -> Self {
        let candidates = [
            self.min.saturating_mul(rhs.min),
            self.min.saturating_mul(rhs.max),
            self.max.saturating_mul(rhs.min),
            self.max.saturating_mul(rhs.max),
        ];
        IntBound::new(
            *candidates.iter().min().expect("nonempty"),
            *candidates.iter().max().expect("nonempty"),
        )
    }
}

fn bound_floordiv(a: IntBound, b: IntBound) -> IntBound {
    if b.min <= 0 && b.max >= 0 {
        return IntBound::everything();
    }
    let candidates = [
        floor_div_i64(a.min, b.min),
        floor_div_i64(a.min, b.max),
        floor_div_i64(a.max, b.min),
        floor_div_i64(a.max, b.max),
    ];
    IntBound::new(
        *candidates.iter().min().expect("nonempty"),
        *candidates.iter().max().expect("nonempty"),
    )
}

fn bound_floormod(a: IntBound, b: IntBound) -> IntBound {
    if b.is_single() && b.min > 0 {
        let c = b.min;
        // If the whole range falls inside one period, keep it tight.
        let qmin = floor_div_i64(a.min, c);
        let qmax = floor_div_i64(a.max, c);
        if qmin == qmax {
            return IntBound::new(floor_mod_i64(a.min, c), floor_mod_i64(a.max, c));
        }
        return IntBound::new(0, c - 1);
    }
    if b.min > 0 {
        return IntBound::new(0, b.max - 1);
    }
    IntBound::everything()
}

/// Computes a (possibly loose, always sound) interval for an integer
/// expression given intervals for its free variables.
///
/// Variables missing from `vars` are treated as unbounded. Boolean
/// subexpressions evaluate to `[0, 1]`.
pub fn bound_of(expr: &Expr, vars: &VarMap<IntBound>) -> IntBound {
    bound_with(expr, &|v| vars.get(v).copied())
}

/// [`bound_of`] with the interval of each free variable given by a
/// function, `None` for an unbounded one: for a caller whose intervals
/// follow a rule, so that no map of them is built.
pub fn bound_with(expr: &Expr, vars: &impl Fn(&Var) -> Option<IntBound>) -> IntBound {
    match expr {
        Expr::Int(v, _) => IntBound::single(*v),
        Expr::Float(..) | Expr::Str(_) => IntBound::everything(),
        Expr::Var(v) => vars(v).unwrap_or_else(IntBound::everything),
        Expr::Cast(_, v) => bound_with(v, vars),
        Expr::Bin(op, a, b) => {
            let (ba, bb) = (bound_with(a, vars), bound_with(b, vars));
            match op {
                BinOp::Add => ba + bb,
                BinOp::Sub => ba - bb,
                BinOp::Mul => ba * bb,
                BinOp::Div => IntBound::everything(),
                BinOp::FloorDiv => bound_floordiv(ba, bb),
                BinOp::FloorMod => bound_floormod(ba, bb),
                BinOp::Min => IntBound::new(ba.min.min(bb.min), ba.max.min(bb.max)),
                BinOp::Max => IntBound::new(ba.min.max(bb.min), ba.max.max(bb.max)),
                BinOp::And | BinOp::Or => IntBound::new(0, 1),
            }
        }
        Expr::Cmp(op, a, b) => {
            let (ba, bb) = (bound_with(a, vars), bound_with(b, vars));
            // Definitely-true / definitely-false cases tighten to a point.
            let (t, f) = match op {
                CmpOp::Lt => (ba.max < bb.min, ba.min >= bb.max),
                CmpOp::Le => (ba.max <= bb.min, ba.min > bb.max),
                CmpOp::Gt => (ba.min > bb.max, ba.max <= bb.min),
                CmpOp::Ge => (ba.min >= bb.max, ba.max < bb.min),
                CmpOp::Eq => (
                    ba.is_single() && bb.is_single() && ba.min == bb.min,
                    ba.max < bb.min || bb.max < ba.min,
                ),
                CmpOp::Ne => (
                    ba.max < bb.min || bb.max < ba.min,
                    ba.is_single() && bb.is_single() && ba.min == bb.min,
                ),
            };
            if t {
                IntBound::single(1)
            } else if f {
                IntBound::single(0)
            } else {
                IntBound::new(0, 1)
            }
        }
        Expr::Not(v) => {
            let b = bound_with(v, vars);
            if b == IntBound::single(0) {
                IntBound::single(1)
            } else if b.min >= 1 {
                IntBound::single(0)
            } else {
                IntBound::new(0, 1)
            }
        }
        Expr::Select { then, other, .. } => bound_with(then, vars).union(bound_with(other, vars)),
        Expr::Load { .. } | Expr::Call { .. } => IntBound::everything(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&Var, (i64, i64))]) -> VarMap<IntBound> {
        pairs
            .iter()
            .map(|(v, (lo, hi))| ((*v).clone(), IntBound::new(*lo, *hi)))
            .collect()
    }

    #[test]
    fn affine_bounds() {
        let i = Var::int("i");
        let vars = env(&[(&i, (0, 15))]);
        let e = Expr::from(&i) * 4 + 2;
        assert_eq!(bound_of(&e, &vars), IntBound::new(2, 62));
    }

    #[test]
    fn div_mod_bounds() {
        let i = Var::int("i");
        let vars = env(&[(&i, (0, 63))]);
        assert_eq!(
            bound_of(&Expr::from(&i).floor_div(16), &vars),
            IntBound::new(0, 3)
        );
        assert_eq!(
            bound_of(&Expr::from(&i).floor_mod(16), &vars),
            IntBound::new(0, 15)
        );
        // Range within one period stays tight.
        let j = Var::int("j");
        let vars = env(&[(&j, (17, 20))]);
        assert_eq!(
            bound_of(&Expr::from(&j).floor_mod(16), &vars),
            IntBound::new(1, 4)
        );
    }

    #[test]
    fn min_max_bounds() {
        let i = Var::int("i");
        let vars = env(&[(&i, (0, 10))]);
        let e = Expr::from(&i).min(Expr::int(4));
        assert_eq!(bound_of(&e, &vars), IntBound::new(0, 4));
        let e = Expr::from(&i).max(Expr::int(4));
        assert_eq!(bound_of(&e, &vars), IntBound::new(4, 10));
    }

    #[test]
    fn proves_in_range_predicates() {
        let i = Var::int("i");
        let vars = env(&[(&i, (0, 15))]);
        let proved = IntBound::single(1);
        assert_eq!(bound_of(&Expr::from(&i).lt(16), &vars), proved);
        assert_ne!(bound_of(&Expr::from(&i).lt(15), &vars), proved);
        assert_eq!(bound_of(&(Expr::from(&i) * 4 + 3).lt(64), &vars), proved);
    }

    #[test]
    fn negation_and_select() {
        let i = Var::int("i");
        let vars = env(&[(&i, (0, 3))]);
        let sel = Expr::select(Expr::from(&i).lt(2), Expr::int(10), Expr::int(20));
        assert_eq!(bound_of(&sel, &vars), IntBound::new(10, 20));
        assert_eq!(
            bound_of(&Expr::Not(Box::new(Expr::from(&i).lt(0))), &vars),
            IntBound::single(1)
        );
    }

    #[test]
    fn interval_ops() {
        let a = IntBound::new(-2, 3);
        let b = IntBound::new(1, 4);
        assert_eq!(a - b, IntBound::new(-6, 2));
        assert_eq!(a * b, IntBound::new(-8, 12));
        assert!(IntBound::new(0, 10).contains(IntBound::new(2, 5)));
        assert!(!IntBound::new(0, 10).contains(IntBound::new(2, 15)));
        assert_eq!(
            IntBound::new(0, 1).union(IntBound::new(5, 6)),
            IntBound::new(0, 6)
        );
        assert_eq!(IntBound::new(3, 7).count(), 5);
    }

    #[test]
    fn division_by_mixed_sign_is_everything() {
        let i = Var::int("i");
        let j = Var::int("j");
        let vars = env(&[(&i, (0, 10)), (&j, (-1, 1))]);
        assert_eq!(
            bound_of(&Expr::from(&i).floor_div(Expr::from(&j)), &vars),
            IntBound::everything()
        );
    }
}
