//! Sketch infrastructure (§4.3): decision spaces, sampling, mutation, and
//! the `SketchRule` interface the evolutionary search drives.
//!
//! A sketch fixes the program structure and leaves *decisions* (tile
//! sizes, staging choices, vector widths) free; the search samples and
//! mutates decision vectors and asks the sketch to materialize a concrete
//! program for each.

use std::sync::atomic::{AtomicUsize, Ordering};

use tir_rand::rngs::StdRng;
use tir_rand::RngExt;

use tir::PrimFunc;
use tir_schedule::ScheduleError;

/// One sampled decision value: a small integer vector (tile factors) or a
/// single choice index wrapped in a vector.
pub type Decision = Vec<i64>;

/// The kind of one decision point.
#[derive(Clone, Debug)]
pub enum DecisionKind {
    /// A factorization of `extent` into `parts` positive factors whose
    /// product equals the extent ("sample_perfect_tile").
    PerfectTile {
        /// Extent to factor.
        extent: i64,
        /// Number of factors.
        parts: usize,
    },
    /// A choice among explicit integer options.
    Choice {
        /// Candidate values.
        options: Vec<i64>,
    },
}

impl DecisionKind {
    /// Samples a random decision of this kind.
    pub fn sample(&self, rng: &mut StdRng) -> Decision {
        match self {
            DecisionKind::PerfectTile { extent, parts } => {
                sample_perfect_tile(*extent, *parts, rng)
            }
            DecisionKind::Choice { options } => {
                vec![options[rng.random_range(0..options.len())]]
            }
        }
    }

    /// Mutates a decision in place-compatible fashion (returns the new
    /// decision).
    pub fn mutate(&self, current: &Decision, rng: &mut StdRng) -> Decision {
        match self {
            DecisionKind::PerfectTile { .. } => {
                // Move a prime factor between two positions.
                let mut d = current.clone();
                if d.len() < 2 {
                    return d;
                }
                for _ in 0..8 {
                    let from = rng.random_range(0..d.len());
                    let to = rng.random_range(0..d.len());
                    if from == to || d[from] == 1 {
                        continue;
                    }
                    let p = smallest_prime_factor(d[from]);
                    d[from] /= p;
                    d[to] *= p;
                    return d;
                }
                d
            }
            DecisionKind::Choice { options } => {
                vec![options[rng.random_range(0..options.len())]]
            }
        }
    }
}

fn smallest_prime_factor(v: i64) -> i64 {
    let mut p = 2;
    while p * p <= v {
        if v % p == 0 {
            return p;
        }
        p += 1;
    }
    v
}

/// Samples `parts` positive factors of `extent` with product `extent`.
pub fn sample_perfect_tile(extent: i64, parts: usize, rng: &mut StdRng) -> Decision {
    let mut factors = vec![1i64; parts];
    let mut rest = extent.max(1);
    // Distribute prime factors uniformly at random.
    let mut p = 2i64;
    while p * p <= rest {
        while rest % p == 0 {
            factors[rng.random_range(0..parts)] *= p;
            rest /= p;
        }
        p += 1;
    }
    if rest > 1 {
        factors[rng.random_range(0..parts)] *= rest;
    }
    factors
}

/// A parameterized schedule generator.
///
/// `Send + Sync` so one sketch can serve tunes on several threads (a
/// search itself runs on its caller's thread, see [`crate::search`]);
/// implementations hold immutable structure, so this is free in practice.
pub trait SketchRule: Send + Sync {
    /// Human-readable sketch name.
    fn name(&self) -> &str;

    /// The decision points of this sketch, in apply order.
    fn space(&self) -> Vec<DecisionKind>;

    /// Materializes a concrete program from a decision vector.
    ///
    /// # Errors
    ///
    /// Returns an error when the decisions produce an invalid program — the
    /// search treats this as a filtered candidate.
    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError>;

    /// Samples a full random decision vector.
    fn sample(&self, rng: &mut StdRng) -> Vec<Decision> {
        self.space().iter().map(|k| k.sample(rng)).collect()
    }

    /// Mutates one random decision point.
    fn mutate(&self, decisions: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        let space = self.space();
        if space.is_empty() {
            return decisions.to_vec();
        }
        let at = rng.random_range(0..space.len());
        let mut out = decisions.to_vec();
        out[at] = space[at].mutate(&decisions[at], rng);
        out
    }

    /// One-point crossover of two decision vectors.
    fn crossover(&self, a: &[Decision], b: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        if a.is_empty() {
            return b.to_vec();
        }
        let cut = rng.random_range(0..a.len());
        a[..cut].iter().chain(b[cut..].iter()).cloned().collect()
    }
}

/// A sketch that counts how many candidates it was asked to build — the
/// instrument behind the search's "how many `apply` calls per measured
/// trial" figure (`compiler_microbench` rows `search/*`) and the tests of
/// demand-driven materialization. Everything is forwarded to the wrapped
/// sketch unchanged, so a search over the wrapper is the search over the
/// sketch.
pub struct CountingSketch<'a> {
    inner: &'a dyn SketchRule,
    applies: AtomicUsize,
}

impl<'a> CountingSketch<'a> {
    /// Wraps `inner` with the counter at zero.
    pub fn new(inner: &'a dyn SketchRule) -> Self {
        CountingSketch {
            inner,
            applies: AtomicUsize::new(0),
        }
    }

    /// `apply` calls so far.
    pub fn applies(&self) -> usize {
        // `Relaxed`: a statistic, read after the search.
        self.applies.load(Ordering::Relaxed)
    }
}

impl SketchRule for CountingSketch<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> Vec<DecisionKind> {
        self.inner.space()
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(decisions)
    }

    fn sample(&self, rng: &mut StdRng) -> Vec<Decision> {
        self.inner.sample(rng)
    }

    fn mutate(&self, decisions: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        self.inner.mutate(decisions, rng)
    }

    fn crossover(&self, a: &[Decision], b: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        self.inner.crossover(a, b, rng)
    }
}

/// Validates decisions against the space (used by search sanity checks).
pub fn decisions_well_formed(space: &[DecisionKind], decisions: &[Decision]) -> bool {
    if space.len() != decisions.len() {
        return false;
    }
    space.iter().zip(decisions).all(|(k, d)| match k {
        DecisionKind::PerfectTile { extent, parts } => {
            d.len() == *parts && d.iter().product::<i64>() == *extent && d.iter().all(|&f| f > 0)
        }
        DecisionKind::Choice { options } => d.len() == 1 && options.contains(&d[0]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_rand::SeedableRng;

    #[test]
    fn perfect_tile_products() {
        let mut rng = StdRng::seed_from_u64(7);
        for extent in [1i64, 4, 12, 60, 128, 97] {
            for parts in [2usize, 3, 4] {
                let t = sample_perfect_tile(extent, parts, &mut rng);
                assert_eq!(t.len(), parts);
                assert_eq!(t.iter().product::<i64>(), extent.max(1), "{t:?}");
                assert!(t.iter().all(|&f| f > 0));
            }
        }
    }

    #[test]
    fn mutation_preserves_product() {
        let mut rng = StdRng::seed_from_u64(9);
        let kind = DecisionKind::PerfectTile {
            extent: 64,
            parts: 3,
        };
        let mut d = kind.sample(&mut rng);
        for _ in 0..20 {
            d = kind.mutate(&d, &mut rng);
            assert_eq!(d.iter().product::<i64>(), 64);
        }
    }

    #[test]
    fn choice_sampling_in_options() {
        let mut rng = StdRng::seed_from_u64(3);
        let kind = DecisionKind::Choice {
            options: vec![1, 2, 4, 8],
        };
        for _ in 0..20 {
            let d = kind.sample(&mut rng);
            assert!(matches!(d[0], 1 | 2 | 4 | 8));
        }
    }

    #[test]
    fn well_formedness() {
        let space = vec![
            DecisionKind::PerfectTile {
                extent: 16,
                parts: 2,
            },
            DecisionKind::Choice {
                options: vec![1, 2],
            },
        ];
        assert!(decisions_well_formed(&space, &[vec![4, 4], vec![2]]));
        assert!(!decisions_well_formed(&space, &[vec![4, 3], vec![2]]));
        assert!(!decisions_well_formed(&space, &[vec![4, 4], vec![3]]));
        assert!(!decisions_well_formed(&space, &[vec![4, 4]]));
    }
}
