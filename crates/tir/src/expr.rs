//! Scalar expressions of TensorIR.
//!
//! Expressions are owned trees ([`Expr`]). Variables ([`Var`]) are cheap
//! reference-counted handles with identity-based equality, so the same
//! variable can appear in many places of a program and still be recognized
//! after the tree is cloned or rebuilt.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::buffer::Buffer;
use crate::dtype::DataType;

static NEXT_VAR_ID: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug)]
struct VarNode {
    id: usize,
    name: String,
    dtype: DataType,
}

/// A scalar variable with identity semantics.
///
/// Two `Var`s compare equal iff they are the *same* variable (created by the
/// same call to [`Var::new`]), regardless of name. Cloning is cheap.
///
/// # Examples
///
/// ```
/// use tir::{Var, DataType};
/// let i = Var::new("i", DataType::int32());
/// let j = Var::new("i", DataType::int32());
/// assert_ne!(i, j); // same name, different identity
/// assert_eq!(i, i.clone());
/// ```
#[derive(Clone)]
pub struct Var(Arc<VarNode>);

impl Var {
    /// Creates a fresh variable with the given name and data type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Var(Arc::new(VarNode {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            dtype,
        }))
    }

    /// Creates a fresh `int32` variable, the common case for loop iterators.
    pub fn int(name: impl Into<String>) -> Self {
        Self::new(name, DataType::int32())
    }

    /// The globally unique id of this variable.
    pub fn id(&self) -> usize {
        self.0.id
    }

    /// The user-facing name (not necessarily unique).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The data type of values this variable ranges over.
    pub fn dtype(&self) -> DataType {
        self.0.dtype
    }

    /// Creates a fresh variable with the same name and dtype as this one.
    pub fn fresh_copy(&self) -> Var {
        Var::new(self.name(), self.dtype())
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for Var {}
impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}
impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Var {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.id.cmp(&other.0.id)
    }
}
impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.0.name, self.0.id)
    }
}
impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.name)
    }
}

/// Hasher for maps keyed by variable/buffer ids. The ids come from this
/// process's own counters (unique, dense, never outside input), so one
/// multiplication spreads them well enough and SipHash's collision
/// resistance buys nothing.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, id: usize) {
        self.0 = (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by variable identity: a [`Var`] hashes its id, which
/// [`IdHasher`] spreads with one multiplication.
pub type VarMap<T> = HashMap<Var, T, BuildHasherDefault<IdHasher>>;

/// Binary arithmetic and logical operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// True division (floating point).
    Div,
    /// Floor division on integers: `floor(a / b)`.
    FloorDiv,
    /// Floor modulo on integers: `a - floor(a / b) * b`.
    FloorMod,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// The surface syntax of this operator, used by the printer.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::FloorMod => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// Whether the printer renders this as a function call (`min(a, b)`)
    /// rather than an infix operator.
    pub fn is_call_style(self) -> bool {
        matches!(self, BinOp::Min | BinOp::Max)
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

impl CmpOp {
    /// The surface syntax of this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the comparison on two ordered values.
    pub fn apply<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A scalar expression tree.
///
/// # Examples
///
/// ```
/// use tir::{Expr, Var, DataType};
/// let i = Var::int("i");
/// let e = Expr::from(i.clone()) * 4 + 1;
/// assert_eq!(e.to_string(), "i * 4 + 1");
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer immediate.
    Int(i64, DataType),
    /// Floating-point immediate.
    Float(f64, DataType),
    /// String immediate (used for intrinsic arguments such as scope names).
    Str(String),
    /// Variable reference.
    Var(Var),
    /// Type conversion.
    Cast(DataType, Box<Expr>),
    /// Binary arithmetic/logical operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison, always of boolean type.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Ternary select: `cond ? then : other`. Both arms are evaluated
    /// semantically without side effects.
    Select {
        /// Boolean condition.
        cond: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise.
        other: Box<Expr>,
    },
    /// Read of one element of a multi-dimensional buffer.
    Load {
        /// The buffer being read.
        buffer: Buffer,
        /// One index expression per buffer dimension.
        indices: Vec<Expr>,
    },
    /// Call of a named intrinsic (e.g. `exp`, `accel.dot`, `wmma.mma_sync`).
    Call {
        /// Intrinsic name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Result type.
        dtype: DataType,
    },
}

impl Expr {
    /// An `int32` immediate.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v, DataType::int32())
    }

    /// A `float32` immediate.
    pub fn f32(v: f32) -> Expr {
        Expr::Float(v as f64, DataType::float32())
    }

    /// A boolean immediate.
    pub fn bool(v: bool) -> Expr {
        Expr::Int(v as i64, DataType::bool())
    }

    /// The canonical `true` predicate used by block realizes.
    pub fn true_() -> Expr {
        Expr::bool(true)
    }

    /// The static data type of this expression.
    pub fn dtype(&self) -> DataType {
        match self {
            Expr::Int(_, dt) | Expr::Float(_, dt) | Expr::Cast(dt, _) => *dt,
            Expr::Str(_) => DataType::handle(),
            Expr::Var(v) => v.dtype(),
            Expr::Bin(op, a, _) => match op {
                BinOp::And | BinOp::Or => DataType::bool(),
                _ => a.dtype(),
            },
            Expr::Cmp(..) | Expr::Not(_) => DataType::bool(),
            Expr::Select { then, .. } => then.dtype(),
            Expr::Load { buffer, .. } => buffer.dtype(),
            Expr::Call { dtype, .. } => *dtype,
        }
    }

    /// Returns the constant integer value if this is an integer immediate.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Returns the variable if this expression is a bare variable reference.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Expr::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is the constant integer `v` (of any integer type).
    pub fn is_const_int(&self, v: i64) -> bool {
        self.as_int() == Some(v)
    }

    /// Builds `min(self, other)`.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(other.into()))
    }

    /// Builds `max(self, other)`.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(other.into()))
    }

    /// Builds floor division `self // other`.
    pub fn floor_div(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::FloorDiv, Box::new(self), Box::new(other.into()))
    }

    /// Builds floor modulo `self % other`.
    pub fn floor_mod(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::FloorMod, Box::new(self), Box::new(other.into()))
    }

    /// Builds the comparison `self op other`.
    pub fn cmp(self, op: CmpOp, other: impl Into<Expr>) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other.into()))
    }

    /// Builds `self < other`.
    pub fn lt(self, other: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Lt, other)
    }

    /// Builds `self == other`.
    pub fn eq_(self, other: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// Builds logical `self and other`.
    pub fn and(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::And, Box::new(self), Box::new(other.into()))
    }

    /// Builds logical `self or other`.
    pub fn or(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(self), Box::new(other.into()))
    }

    /// Builds a cast of this expression to `dtype` (no-op if already equal).
    pub fn cast(self, dtype: DataType) -> Expr {
        if self.dtype() == dtype {
            self
        } else {
            Expr::Cast(dtype, Box::new(self))
        }
    }

    /// Builds `select(cond, then, other)`.
    pub fn select(cond: Expr, then: Expr, other: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(cond),
            then: Box::new(then),
            other: Box::new(other),
        }
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}
impl From<&Var> for Expr {
    fn from(v: &Var) -> Self {
        Expr::Var(v.clone())
    }
}
impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::int(v)
    }
}
impl From<i32> for Expr {
    fn from(v: i32) -> Self {
        Expr::int(v as i64)
    }
}
impl From<usize> for Expr {
    fn from(v: usize) -> Self {
        Expr::int(v as i64)
    }
}
impl From<bool> for Expr {
    fn from(v: bool) -> Self {
        Expr::bool(v)
    }
}
impl From<f32> for Expr {
    fn from(v: f32) -> Self {
        Expr::f32(v)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<Expr>> std::ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs.into()))
            }
        }
        impl std::ops::$trait<Expr> for i64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Bin($op, Box::new(Expr::int(self)), Box::new(rhs))
            }
        }
    };
}
impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_expr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_identity() {
        let a = Var::int("x");
        let b = Var::int("x");
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert!(a.id() < b.id());
    }

    #[test]
    fn dtype_inference() {
        let i = Var::int("i");
        let e = Expr::from(i.clone()) + 1;
        assert_eq!(e.dtype(), DataType::int32());
        let c = Expr::from(i.clone()).lt(4);
        assert_eq!(c.dtype(), DataType::bool());
        let s = Expr::select(c, Expr::f32(1.0), Expr::f32(0.0));
        assert_eq!(s.dtype(), DataType::float32());
        let logical = Expr::bool(true).and(Expr::bool(false));
        assert_eq!(logical.dtype(), DataType::bool());
    }

    #[test]
    fn cast_is_noop_on_same_type() {
        let x = Expr::f32(1.0);
        assert_eq!(x.clone().cast(DataType::float32()), x);
        assert!(matches!(
            Expr::f32(1.0).cast(DataType::float16()),
            Expr::Cast(..)
        ));
    }

    #[test]
    fn operator_building() {
        let i = Var::int("i");
        let e = 2 * Expr::from(&i) + 3;
        match &e {
            Expr::Bin(BinOp::Add, a, b) => {
                assert!(matches!(**a, Expr::Bin(BinOp::Mul, ..)));
                assert!(b.is_const_int(3));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn cmp_apply() {
        assert!(CmpOp::Le.apply(3, 3));
        assert!(CmpOp::Lt.apply(2, 3));
        assert!(!CmpOp::Gt.apply(2, 3));
        assert!(CmpOp::Ne.apply(2, 3));
    }

    #[test]
    fn as_helpers() {
        let v = Var::int("v");
        assert_eq!(Expr::int(7).as_int(), Some(7));
        assert!(Expr::from(&v).as_var().is_some());
        assert!(Expr::int(7).as_var().is_none());
        assert!(Expr::int(0).is_const_int(0));
    }
}
