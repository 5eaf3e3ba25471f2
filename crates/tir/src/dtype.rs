//! Scalar data types for TensorIR values.
//!
//! A [`DataType`] mirrors the `(code, bits, lanes)` triple used by TVM-style
//! IRs: a type code (int/uint/float/bfloat/bool/handle), a bit width, and a
//! vector lane count (`lanes > 1` denotes a short vector).

use std::fmt;

/// The kind of a scalar type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TypeCode {
    /// Signed two's-complement integer.
    Int,
    /// Unsigned integer.
    UInt,
    /// IEEE-754 binary floating point.
    Float,
    /// Brain floating point (8-bit exponent).
    BFloat,
    /// Boolean truth value.
    Bool,
    /// Opaque pointer/handle.
    Handle,
}

/// A scalar (or short-vector) data type: type code, bit width and lane count.
///
/// # Examples
///
/// ```
/// use tir::DataType;
/// let f16 = DataType::float16();
/// assert_eq!(f16.to_string(), "float16");
/// assert!(f16.is_float());
/// assert_eq!(f16.with_lanes(4).to_string(), "float16x4");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DataType {
    code: TypeCode,
    bits: u8,
    lanes: u16,
}

impl DataType {
    /// Creates a data type from its parts.
    pub const fn new(code: TypeCode, bits: u8, lanes: u16) -> Self {
        DataType { code, bits, lanes }
    }

    /// 32-bit signed integer.
    pub const fn int32() -> Self {
        Self::new(TypeCode::Int, 32, 1)
    }

    /// 64-bit signed integer.
    pub const fn int64() -> Self {
        Self::new(TypeCode::Int, 64, 1)
    }

    /// 8-bit signed integer.
    pub const fn int8() -> Self {
        Self::new(TypeCode::Int, 8, 1)
    }

    /// 16-bit signed integer.
    pub const fn int16() -> Self {
        Self::new(TypeCode::Int, 16, 1)
    }

    /// 8-bit unsigned integer.
    pub const fn uint8() -> Self {
        Self::new(TypeCode::UInt, 8, 1)
    }

    /// 32-bit unsigned integer.
    pub const fn uint32() -> Self {
        Self::new(TypeCode::UInt, 32, 1)
    }

    /// IEEE binary16 floating point.
    pub const fn float16() -> Self {
        Self::new(TypeCode::Float, 16, 1)
    }

    /// IEEE binary32 floating point.
    pub const fn float32() -> Self {
        Self::new(TypeCode::Float, 32, 1)
    }

    /// IEEE binary64 floating point.
    pub const fn float64() -> Self {
        Self::new(TypeCode::Float, 64, 1)
    }

    /// Brain floating point 16.
    pub const fn bfloat16() -> Self {
        Self::new(TypeCode::BFloat, 16, 1)
    }

    /// Boolean.
    pub const fn bool() -> Self {
        Self::new(TypeCode::Bool, 1, 1)
    }

    /// Opaque handle (pointer-sized).
    pub const fn handle() -> Self {
        Self::new(TypeCode::Handle, 64, 1)
    }

    /// The type code.
    pub const fn code(self) -> TypeCode {
        self.code
    }

    /// The bit width of one lane.
    pub const fn bits(self) -> u8 {
        self.bits
    }

    /// The number of vector lanes (1 for scalars).
    pub const fn lanes(self) -> u16 {
        self.lanes
    }

    /// Returns a copy of this type with a different lane count.
    pub const fn with_lanes(self, lanes: u16) -> Self {
        DataType { lanes, ..self }
    }

    /// Whether this is a (b)float type.
    pub const fn is_float(self) -> bool {
        matches!(self.code, TypeCode::Float | TypeCode::BFloat)
    }

    /// Whether this is a signed or unsigned integer type.
    pub const fn is_int(self) -> bool {
        matches!(self.code, TypeCode::Int | TypeCode::UInt)
    }

    /// Whether this is the boolean type.
    pub const fn is_bool(self) -> bool {
        matches!(self.code, TypeCode::Bool)
    }

    /// Size in bytes of one element of this type (lanes included).
    pub const fn bytes(self) -> usize {
        (self.bits as usize * self.lanes as usize).div_ceil(8)
    }
}

impl Default for DataType {
    fn default() -> Self {
        Self::float32()
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match self.code {
            TypeCode::Int => "int",
            TypeCode::UInt => "uint",
            TypeCode::Float => "float",
            TypeCode::BFloat => "bfloat",
            TypeCode::Bool => "bool",
            TypeCode::Handle => "handle",
        };
        if matches!(self.code, TypeCode::Bool | TypeCode::Handle) {
            write!(f, "{base}")?;
        } else {
            write!(f, "{base}{}", self.bits)?;
        }
        if self.lanes > 1 {
            write!(f, "x{}", self.lanes)?;
        }
        Ok(())
    }
}

/// Parses a data type from its textual form, e.g. `"float32"` or `"int8x4"`.
///
/// Returns `None` when the string is not a recognized type name.
///
/// # Examples
///
/// ```
/// use tir::dtype::parse_dtype;
/// use tir::DataType;
/// assert_eq!(parse_dtype("float16"), Some(DataType::float16()));
/// assert_eq!(parse_dtype("int8x4"), Some(DataType::int8().with_lanes(4)));
/// assert_eq!(parse_dtype("quux"), None);
/// ```
pub fn parse_dtype(s: &str) -> Option<DataType> {
    let (base, lanes) = match s.split_once('x') {
        Some((b, l)) => (b, l.parse::<u16>().ok()?),
        None => (s, 1),
    };
    let dt = match base {
        "bool" => DataType::bool(),
        "handle" => DataType::handle(),
        _ => {
            let (code, digits) = if let Some(d) = base.strip_prefix("uint") {
                (TypeCode::UInt, d)
            } else if let Some(d) = base.strip_prefix("int") {
                (TypeCode::Int, d)
            } else if let Some(d) = base.strip_prefix("bfloat") {
                (TypeCode::BFloat, d)
            } else if let Some(d) = base.strip_prefix("float") {
                (TypeCode::Float, d)
            } else {
                return None;
            };
            let bits = digits.parse::<u8>().ok()?;
            DataType::new(code, bits, 1)
        }
    };
    Some(dt.with_lanes(lanes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        for dt in [
            DataType::int8(),
            DataType::int32(),
            DataType::uint8(),
            DataType::float16(),
            DataType::float32(),
            DataType::float64(),
            DataType::bfloat16(),
            DataType::bool(),
            DataType::handle(),
            DataType::int8().with_lanes(4),
            DataType::float16().with_lanes(8),
        ] {
            assert_eq!(parse_dtype(&dt.to_string()), Some(dt), "{dt}");
        }
    }

    #[test]
    fn predicates() {
        assert!(DataType::float16().is_float());
        assert!(DataType::bfloat16().is_float());
        assert!(DataType::int8().is_int());
        assert!(DataType::uint8().is_int());
        assert!(DataType::bool().is_bool());
        assert!(!DataType::float32().is_int());
    }

    #[test]
    fn sizes() {
        assert_eq!(DataType::float32().bytes(), 4);
        assert_eq!(DataType::float16().bytes(), 2);
        assert_eq!(DataType::int8().with_lanes(4).bytes(), 4);
        assert_eq!(DataType::bool().bytes(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_dtype(""), None);
        assert_eq!(parse_dtype("floaty32"), None);
        assert_eq!(parse_dtype("int8x"), None);
        assert_eq!(parse_dtype("x4"), None);
    }
}
