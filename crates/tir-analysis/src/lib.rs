//! # tir-analysis — block-signature analyses and validation
//!
//! The static verifier of scheduled programs, and the reduction-pattern
//! detection the tensorizer needs.
//!
//! **One walk, five checks.** A program is descended by exactly one
//! function (the private `walk` module), which keeps one scope — the
//! enclosing loops, the composed bindings of the enclosing blocks, the
//! blocks themselves, and two interval environments — and feeds, at every
//! loop, block and buffer access it meets, the checks its caller asked for:
//!
//! * [`mod@validate`] — the §3.3 validators: loop-nest validation via
//!   quasi-affine iterator maps and threading validation, fed at loops and
//!   blocks; producer-covers-consumer, fed concrete access boxes (kept by
//!   the private `region` module);
//! * [`mod@bounds`] — interval propagation proving every buffer access in
//!   bounds, refining through loop binders, block predicates, `if` and
//!   `select` guards;
//! * [`racecheck`] — write-disjointness proofs for parallel loops and
//!   memory-scope legality across the GPU thread hierarchy, both over the
//!   access sites the walk recorded.
//!
//! Which checks run is decided by the function called and by nothing else:
//! [`validate()`] is loop nests + cover, each `check_*` its own check alone,
//! [`analyze`] all five — every one of them a single walk. [`analyze`]
//! returns what `validate`, `check_bounds`, `check_races` and
//! `check_scopes` return, concatenated in that order; [`verify_scheduled`]
//! is the same as a `Result` for gating. The cover check and the bounds
//! check price an index differently (three rules, written down where the
//! walk binds block iterators); `tests/analysis_golden.rs` at the workspace
//! root pins every diagnostic of all six entry points on ~1 500 programs.
//!
//! Two things a reader might look for are deliberately elsewhere. Producer/
//! consumer facts (§3.1: dependencies run through buffers) are read off the
//! block signatures by each primitive that needs them, in `tir-schedule`;
//! there is no dependency-graph type. Symbolic region relaxation is
//! `tir-schedule`'s `required_region` (see `compute_location.rs`), the one
//! implementation the cache and compute-location primitives run.
//!
//! [`reduction`] is not part of the verifier: reduction-pattern detection
//! on block bodies, read by `tir-tensorize`.
//!
//! # Examples
//!
//! ```
//! use tir::builder::matmul_func;
//! use tir::DataType;
//! use tir_analysis::validate::validate;
//!
//! let f = matmul_func("mm", 32, 32, 32, DataType::float32());
//! assert!(validate(&f).is_ok());
//! ```

#![warn(missing_docs)]

pub mod bounds;
pub mod racecheck;
pub mod reduction;
mod region;
pub mod validate;
mod walk;

pub use bounds::check_bounds;
pub use racecheck::{check_races, check_scopes};
pub use reduction::{detect_block_reduction, ReduceOp, ReductionInfo};
pub use validate::{assert_valid, validate, ValidationError};

use tir::PrimFunc;

/// Runs the full static-analysis stack — loop-nest and region-cover
/// validation, bounds proofs, race proofs, and scope checks — in one walk
/// of `func`, returning every diagnostic found, in that order.
pub fn analyze(func: &PrimFunc) -> Vec<ValidationError> {
    use walk::Check::{Bounds, Cover, Nests, Races, Scopes};
    walk::run(func, &[Nests, Cover, Bounds, Races, Scopes])
}

/// [`analyze`] as a gate: `Ok(())` when the function passes every check.
pub fn verify_scheduled(func: &PrimFunc) -> Result<(), Vec<ValidationError>> {
    validate::gate(analyze(func))
}
