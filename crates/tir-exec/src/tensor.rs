//! Runtime tensors for the interpreter.
//!
//! Values are stored as `f64` regardless of the IR data type; stores
//! *quantize* through the destination type (f32/f16 rounding, integer
//! wrapping), so reduced-precision behaviour — e.g. the paper's float16
//! Tensor Core pipelines — is observable without a separate storage type
//! per dtype.
//!
//! The two roundings a store pays for nearly always have nothing to do,
//! and skip the work then: `round_i64` takes an integral value as it is
//! (libm `round` only sees the rest), and a normal f16 rounds in place
//! on the f32 bits (the general routine only sees subnormals, overflow,
//! infinities and NaN). Both equal the general routine on every input;
//! the unit tests prove it.

use tir::{DataType, TypeCode};

/// Converts an `f64` to the nearest representable value of `dtype`.
pub fn quantize(value: f64, dtype: DataType) -> f64 {
    match dtype.code() {
        TypeCode::Float => match dtype.bits() {
            16 => f16_round(value),
            32 => value as f32 as f64,
            _ => value,
        },
        TypeCode::BFloat => bf16_round(value),
        // Two's-complement wrap: sign-extend from bit `bits - 1`.
        TypeCode::Int => {
            let v = round_i64(value);
            match dtype.bits() as u32 {
                bits @ 1..=63 => ((v << (64 - bits)) >> (64 - bits)) as f64,
                _ => v as f64,
            }
        }
        // Modulo 2^bits: keep the low `bits`.
        TypeCode::UInt => {
            let v = round_i64(value);
            match dtype.bits() as u32 {
                bits @ 1..=63 => (v & (u64::MAX >> (64 - bits)) as i64) as f64,
                _ => v as f64,
            }
        }
        TypeCode::Bool => {
            if value != 0.0 {
                1.0
            } else {
                0.0
            }
        }
        TypeCode::Handle => value,
    }
}

/// `v.round() as i64` for every `f64`, without the libm call when `v` is
/// already integral: a value the `as i64` round trip keeps is its own
/// rounding, and every value it does not keep (a fraction, NaN, ±∞, a
/// magnitude past 2^63) takes `round` and saturates as before.
#[inline]
pub(crate) fn round_i64(v: f64) -> i64 {
    let i = v as i64;
    if i as f64 == v {
        i
    } else {
        v.round() as i64
    }
}

/// Rounds through IEEE binary16.
///
/// A value whose f32 exponent field is 113..=142 is a normal f16 before
/// rounding, so round-to-nearest-even at mantissa bit 13 happens in place
/// on the f32 bits: a carry into the exponent is exact, and a result still
/// at or below 142 is a normal f16. Everything else takes [`f16_round_bits`].
fn f16_round(v: f64) -> f64 {
    let bits = (v as f32).to_bits();
    if (113..=142).contains(&((bits >> 23) & 0xff)) {
        let r = (bits + 0xfff + ((bits >> 13) & 1)) & !0x1fff;
        if (r >> 23) & 0xff <= 142 {
            return f32::from_bits(r) as f64;
        }
    }
    f16_round_bits(bits)
}

/// Rounds the f32 with these bits through IEEE binary16, field by field.
fn f16_round_bits(bits: u32) -> f64 {
    let sign = (bits >> 16) & 0x8000;
    let mut exp = ((bits >> 23) & 0xff) as i32;
    let mut frac = bits & 0x7f_ffff;
    if exp == 0xff {
        // Inf/NaN
        let h = sign | 0x7c00 | if frac != 0 { 0x200 } else { 0 };
        return half_to_f64(h as u16);
    }
    exp -= 127 - 15;
    if exp >= 0x1f {
        return half_to_f64((sign | 0x7c00) as u16); // overflow -> inf
    }
    if exp <= 0 {
        if exp < -10 {
            return half_to_f64(sign as u16); // underflow -> signed zero
        }
        frac |= 0x80_0000;
        let shift = (14 - exp) as u32;
        let sub = frac >> shift;
        // round to nearest even
        let rem = frac & ((1 << shift) - 1);
        let halfway = 1 << (shift - 1);
        let sub = if rem > halfway || (rem == halfway && sub & 1 == 1) {
            sub + 1
        } else {
            sub
        };
        return half_to_f64((sign | sub) as u16);
    }
    let mut h = sign | ((exp as u32) << 10) | (frac >> 13);
    let rem = frac & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
        h += 1;
    }
    half_to_f64(h as u16)
}

fn half_to_f64(h: u16) -> f64 {
    let sign = ((h >> 15) & 1) as u32;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x3ff) as u32;
    let f = if exp == 0 {
        if frac == 0 {
            if sign == 1 {
                -0.0f32
            } else {
                0.0f32
            }
        } else {
            let v = (frac as f32) * (2.0f32).powi(-24);
            if sign == 1 {
                -v
            } else {
                v
            }
        }
    } else if exp == 0x1f {
        if frac == 0 {
            if sign == 1 {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            }
        } else {
            f32::NAN
        }
    } else {
        f32::from_bits((sign << 31) | ((exp + 127 - 15) << 23) | (frac << 13))
    };
    f as f64
}

/// Rounds through bfloat16 (round-to-nearest-even on the f32 mantissa).
fn bf16_round(v: f64) -> f64 {
    let bits = (v as f32).to_bits();
    let lsb = (bits >> 16) & 1;
    let rounded = bits.wrapping_add(0x7fff + lsb) & 0xffff_0000;
    f32::from_bits(rounded) as f64
}

/// A dense multi-dimensional runtime tensor in row-major layout.
///
/// # Examples
///
/// ```
/// use tir::DataType;
/// use tir_exec::tensor::Tensor;
/// let mut t = Tensor::zeros(DataType::float32(), &[2, 3]);
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.get(&[0, 0]), 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    dtype: DataType,
    shape: Vec<i64>,
    data: Vec<f64>,
}

impl Tensor {
    /// A zero-filled tensor.
    pub fn zeros(dtype: DataType, shape: &[i64]) -> Self {
        let len: i64 = shape.iter().product();
        Tensor {
            dtype,
            shape: shape.to_vec(),
            data: vec![0.0; len.max(0) as usize],
        }
    }

    /// A tensor filled from a function of the flat index.
    pub fn from_fn(dtype: DataType, shape: &[i64], mut f: impl FnMut(usize) -> f64) -> Self {
        let len: i64 = shape.iter().product();
        let data = (0..len.max(0) as usize)
            .map(|i| quantize(f(i), dtype))
            .collect();
        Tensor {
            dtype,
            shape: shape.to_vec(),
            data,
        }
    }

    /// A deterministic pseudo-random tensor in `[-1, 1)` (or `[-8, 8)` for
    /// integer types), seeded by `seed`.
    pub fn random(dtype: DataType, shape: &[i64], seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        Self::from_fn(dtype, shape, |_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            if dtype.is_int() {
                (unit * 16.0).floor() - 8.0
            } else {
                unit * 2.0 - 1.0
            }
        })
    }

    /// Element data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Shape.
    pub fn shape(&self) -> &[i64] {
        &self.shape
    }

    /// Raw data in row-major order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Collapses a multi-dimensional index to a row-major flat offset.
    ///
    /// Per-dimension bounds are checked in debug builds only; release
    /// builds rely on the flat `data` slice bound. Hot paths that already
    /// know the flat offset (the bytecode VM, stride-precomputed loops)
    /// should use [`Tensor::get_flat`] / [`Tensor::set_flat`] instead and
    /// skip the per-call multi-dimensional collapse entirely.
    fn offset(&self, indices: &[i64]) -> usize {
        debug_assert_eq!(indices.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0i64;
        for (i, (&idx, &dim)) in indices.iter().zip(&self.shape).enumerate() {
            debug_assert!(
                (0..dim).contains(&idx),
                "index {idx} out of bounds for dim {i} (extent {dim})"
            );
            let _ = i;
            off = off * dim + idx;
        }
        off as usize
    }

    /// Reads one element.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds (per-dimension in debug builds,
    /// via the flat data bound in release builds).
    pub fn get(&self, indices: &[i64]) -> f64 {
        self.data[self.offset(indices)]
    }

    /// Writes one element, quantizing through the tensor's dtype.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds (per-dimension in debug builds,
    /// via the flat data bound in release builds).
    pub fn set(&mut self, indices: &[i64], value: f64) {
        let off = self.offset(indices);
        self.data[off] = quantize(value, self.dtype);
    }

    /// Reads the element at a row-major flat offset, skipping the
    /// multi-dimensional offset computation of [`Tensor::get`].
    ///
    /// # Panics
    ///
    /// Panics if `off` is outside the flat data.
    #[inline]
    pub fn get_flat(&self, off: usize) -> f64 {
        self.data[off]
    }

    /// Writes the element at a row-major flat offset, quantizing through
    /// the tensor's dtype — the flat counterpart of [`Tensor::set`].
    ///
    /// # Panics
    ///
    /// Panics if `off` is outside the flat data.
    #[inline]
    pub fn set_flat(&mut self, off: usize, value: f64) {
        self.data[off] = quantize(value, self.dtype);
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Whether two tensors agree elementwise within `tol` (absolute or
    /// relative, whichever is looser).
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(a, b)| {
                let diff = (a - b).abs();
                diff <= tol || diff <= tol * a.abs().max(b.abs())
            })
    }

    /// Maximum absolute elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_row_major() {
        let mut t = Tensor::zeros(DataType::float32(), &[2, 3]);
        t.set(&[0, 1], 1.0);
        t.set(&[1, 0], 2.0);
        assert_eq!(t.data()[1], 1.0);
        assert_eq!(t.data()[3], 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(DataType::float32(), &[2, 3]);
        let _ = t.get(&[2, 0]);
    }

    #[test]
    fn f16_quantization() {
        // 1.0 and 0.5 are exact in f16; 1/3 is not.
        assert_eq!(quantize(1.0, DataType::float16()), 1.0);
        assert_eq!(quantize(0.5, DataType::float16()), 0.5);
        let third = quantize(1.0 / 3.0, DataType::float16());
        assert!(third != 1.0 / 3.0);
        assert!((third - 1.0 / 3.0).abs() < 1e-3);
        // 2048 + 1 is not representable in f16 (11-bit significand).
        assert_eq!(quantize(2049.0, DataType::float16()), 2048.0);
        // Overflow saturates to infinity.
        assert_eq!(quantize(1e6, DataType::float16()), f64::INFINITY);
    }

    /// Every f32 whose exponent field is 112..=143 — the in-place band and
    /// one exponent either side — rounds through `f16_round` exactly as
    /// through the field-by-field routine; outside that band `f16_round`
    /// is that routine. A release build checks all 2^29 patterns, a debug
    /// build a strided sample plus every rounding corner of each exponent.
    #[test]
    fn f16_in_place_rounding_equals_the_field_routine() {
        let same = |bits: u32| {
            let fast = f16_round(f32::from_bits(bits) as f64);
            assert!(
                fast.to_bits() == f16_round_bits(bits).to_bits(),
                "{bits:#010x}: {fast}"
            );
        };
        let step = if cfg!(debug_assertions) { 4099 } else { 1 };
        for sign in [0, 1u32 << 31] {
            for bits in (sign | 112 << 23..sign | 144 << 23).step_by(step) {
                same(bits);
            }
            for exp in 112..=143u32 {
                for frac in [0, 1, 0xfff, 0x1000, 0x1001, 0x2fff, 0x3000, 0x3001] {
                    for top in [0, 0x7f_e000] {
                        same(sign | exp << 23 | top | frac);
                    }
                }
                same(sign | exp << 23 | 0x7f_ffff);
            }
        }
    }

    /// `round_i64` and `cast_val`'s truncation skip libm only on values
    /// that are their own rounding: on the edges of the `as i64` round
    /// trip, halves, and a million random bit patterns they equal
    /// `round() as i64` and `trunc()` (to the bit).
    #[test]
    fn integral_fast_paths_equal_round_and_trunc() {
        let p = |e: i32| 2f64.powi(e);
        let mut probes = vec![
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            p(63),
            p(63) - 1024.0,
        ];
        for e in [52, 53] {
            probes.extend([p(e) - 1.0, p(e), p(e) + 1.0]);
        }
        probes.extend((-20..20).map(|k| f64::from(k) + 0.5));
        probes.extend([p(51) + 0.5, p(52) - 0.5]);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        probes.extend((0..1_000_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        }));
        for v in probes.iter().flat_map(|&v| [v, -v]) {
            assert_eq!(round_i64(v), v.round() as i64, "{v:e}");
            let cast = crate::vm::cast_val(v, DataType::float64(), true);
            assert_eq!(cast.to_bits(), v.trunc().to_bits(), "{v:e}");
        }
    }

    /// The modulo formulas `quantize` used before the shift and the mask,
    /// in `i128` so that width 63 (where `1i64 << 63` is negative) has an
    /// oracle too.
    fn wrap_by_modulo(v: i64, dtype: DataType) -> i64 {
        let (v, m) = (v as i128, 1i128 << dtype.bits());
        let wrapped = match dtype.code() {
            TypeCode::Int => ((v % m + m) % m + m / 2) % m - m / 2,
            _ => (v % m + m) % m,
        };
        wrapped as i64
    }

    /// Every width a `DataType` can carry, signed and unsigned, on every
    /// power of two and its neighbours plus seeded random values: the
    /// shift/mask wrap equals the modulo formulas below 64 bits and is the
    /// identity from 64 up.
    #[test]
    fn int_wrap_equals_modulo_formulas_at_every_width() {
        let mut probes: Vec<i64> = vec![0, i64::MIN, i64::MAX];
        for p in 0..63 {
            for d in [-1, 0, 1] {
                probes.extend([(1i64 << p) + d, -(1i64 << p) + d]);
            }
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        probes.extend((0..2000).map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mix magnitudes: full-width, and narrow values near the wraps.
            (state as i64) >> (i % 64)
        }));
        for code in [TypeCode::Int, TypeCode::UInt] {
            for bits in 1..=u8::MAX {
                let dtype = DataType::new(code, bits, 1);
                for &v in &probes {
                    // Only integers an `f64` carries exactly reach `quantize`.
                    let v = v as f64 as i64;
                    let expected = if bits < 64 {
                        wrap_by_modulo(v, dtype)
                    } else {
                        v
                    };
                    assert_eq!(quantize(v as f64, dtype), expected as f64, "{dtype} of {v}");
                }
            }
        }
    }

    #[test]
    fn int_wrapping() {
        assert_eq!(quantize(127.0, DataType::int8()), 127.0);
        assert_eq!(quantize(128.0, DataType::int8()), -128.0);
        assert_eq!(quantize(-129.0, DataType::int8()), 127.0);
        assert_eq!(quantize(255.0, DataType::uint8()), 255.0);
        assert_eq!(quantize(256.0, DataType::uint8()), 0.0);
        assert_eq!(quantize(3.7, DataType::int32()), 4.0);
    }

    #[test]
    fn bf16_rounding() {
        // 1 + 1/256 is exactly halfway between bf16 values 1.0 and
        // 1.0078125; round-to-nearest-even picks 1.0.
        assert_eq!(quantize(1.0 + 1.0 / 256.0, DataType::bfloat16()), 1.0);
        // 1 + 5/512 is closer to 1.0078125.
        assert_eq!(quantize(1.0 + 5.0 / 512.0, DataType::bfloat16()), 1.0078125);
        // Exact bf16 values survive.
        assert_eq!(quantize(1.5, DataType::bfloat16()), 1.5);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(DataType::float32(), &[8], 42);
        let b = Tensor::random(DataType::float32(), &[8], 42);
        let c = Tensor::random(DataType::float32(), &[8], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_fn(DataType::float32(), &[4], |i| i as f64);
        let mut b = a.clone();
        b.set(&[2], 2.0 + 1e-9);
        assert!(a.allclose(&b, 1e-6));
        assert!(a.max_abs_diff(&b) < 1e-6);
        b.set(&[2], 3.0);
        assert!(!a.allclose(&b, 1e-6));
    }

    #[test]
    fn int_random_range() {
        let t = Tensor::random(DataType::int8(), &[64], 7);
        assert!(t.data().iter().all(|v| (-8.0..8.0).contains(v)));
        assert!(t.data().iter().all(|v| v.fract() == 0.0));
    }
}
