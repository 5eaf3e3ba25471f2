//! # tir-rand — deterministic pseudo-randomness for the auto-scheduler
//!
//! A minimal, dependency-free PRNG with the small API surface the search
//! actually uses: seeding from a `u64` and uniform sampling from integer
//! ranges. Everything in this repository that consumes randomness
//! (evolutionary search, sketch sampling, property tests) goes through this
//! crate, so tuning runs are bit-for-bit reproducible from a seed: the
//! search's per-slot generators are derived from `TuneOptions::seed`.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64; both are public-domain algorithms with well-studied
//! statistical quality, far exceeding what an evolutionary tuner needs.

#![warn(missing_docs)]

/// Re-exported generators, mirroring the layout callers import from.
pub mod rngs {
    /// The standard deterministic generator: xoshiro256** seeded via
    /// SplitMix64.
    ///
    /// Identical seeds produce identical streams on every platform and in
    /// every thread — the property the deterministic parallel search in
    /// `tir-autoschedule` is built on.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Next raw 64-bit output (xoshiro256**).
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        pub(crate) fn from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the 256-bit state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng::from_u64(seed)
    }
}

/// Integer types that can be sampled uniformly from a half-open range.
pub trait RangeSample: Copy {
    /// Uniform sample in `[lo, hi)`; `hi > lo` required.
    fn sample(rng: &mut rngs::StdRng, lo: Self, hi: Self) -> Self;
}

/// Uniform `u64` in `[0, n)` by rejection sampling (no modulo bias).
fn uniform_u64(rng: &mut rngs::StdRng, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    let zone = u64::MAX - (u64::MAX % n) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

impl RangeSample for usize {
    fn sample(rng: &mut rngs::StdRng, lo: usize, hi: usize) -> usize {
        lo + uniform_u64(rng, (hi - lo) as u64) as usize
    }
}

impl RangeSample for u64 {
    fn sample(rng: &mut rngs::StdRng, lo: u64, hi: u64) -> u64 {
        lo + uniform_u64(rng, hi - lo)
    }
}

impl RangeSample for i64 {
    fn sample(rng: &mut rngs::StdRng, lo: i64, hi: i64) -> i64 {
        lo.wrapping_add(uniform_u64(rng, hi.wrapping_sub(lo) as u64) as i64)
    }
}

impl RangeSample for u8 {
    fn sample(rng: &mut rngs::StdRng, lo: u8, hi: u8) -> u8 {
        lo + uniform_u64(rng, (hi - lo) as u64) as u8
    }
}

/// Sampling conveniences on a generator.
pub trait RngExt {
    /// Uniform sample from a non-empty half-open range.
    fn random_range<T: RangeSample>(&mut self, range: std::ops::Range<T>) -> T;
    /// Uniform `f64` in `[0, 1)`.
    fn random_f64(&mut self) -> f64;
}

impl RngExt for rngs::StdRng {
    fn random_range<T: RangeSample>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    fn random_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derives an independent child seed from a parent seed and a stream index.
///
/// Used by the search to give every population slot its own generator: the
/// result only depends on `(seed, indices)`, never on what was drawn for
/// another slot, so a checkpoint replay reproduces the identical search.
pub fn derive_seed(seed: u64, indices: &[u64]) -> u64 {
    // SplitMix64-style mixing of the seed with each index.
    let mut x = seed ^ 0xA076_1D64_78BD_642F;
    for &i in indices {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngs::StdRng;

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.random_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.random_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(42, &[1, 2]);
        assert_eq!(a, derive_seed(42, &[1, 2]));
        assert_ne!(a, derive_seed(42, &[2, 1]));
        assert_ne!(a, derive_seed(43, &[1, 2]));
    }
}
