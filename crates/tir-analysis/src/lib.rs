//! # tir-analysis — block-signature analyses and validation
//!
//! Implements the analyses the schedule primitives and the validator run:
//!
//! * [`reduction`] — reduction-pattern detection on block bodies;
//! * [`mod@validate`] — the §3.3 validators: loop-nest validation via
//!   quasi-affine iterator maps, threading validation, and
//!   producer-covers-consumer region checks; [`ValidationSession`] is the
//!   same validation for a caller that asks again while one program
//!   evolves, remembering the loop-nest verdict of every block whose
//!   inputs did not change;
//! * [`mod@bounds`] — interval propagation proving every buffer access in
//!   bounds, refining through loop binders, block predicates, `if` and
//!   `select` guards;
//! * [`racecheck`] — write-disjointness proofs for parallel loops and
//!   memory-scope legality across the GPU thread hierarchy.
//!
//! Two things a reader might look for are deliberately elsewhere. Producer/
//! consumer facts (§3.1: dependencies run through buffers) are read off the
//! block signatures by each primitive that needs them, in `tir-schedule`;
//! there is no dependency-graph type. Symbolic region relaxation is
//! `tir-schedule`'s `required_region` (see `compute_location.rs`), the one
//! implementation the cache and compute-location primitives run; the
//! private `region` module here only bounds raw loads and stores to
//! concrete boxes for the validator's cover check.
//!
//! [`analyze`] runs the full stack over a scheduled [`PrimFunc`];
//! [`verify_scheduled`] is the same as a `Result` for gating.
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

pub use bounds::check_bounds;
pub use racecheck::{check_races, check_scopes};
pub use reduction::{detect_block_reduction, ReduceOp, ReductionInfo};
pub use validate::{assert_valid, validate, ValidationError, ValidationSession};

use tir::PrimFunc;

/// Runs the full static-analysis stack — loop-nest and region-cover
/// validation, bounds proofs, race proofs, and scope checks — returning
/// every diagnostic found.
pub fn analyze(func: &PrimFunc) -> Vec<ValidationError> {
    let mut errors = validate(func).err().unwrap_or_default();
    errors.extend(check_bounds(func));
    errors.extend(check_races(func));
    errors.extend(check_scopes(func));
    errors
}

/// [`analyze`] as a gate: `Ok(())` when the function passes every check.
pub fn verify_scheduled(func: &PrimFunc) -> Result<(), Vec<ValidationError>> {
    let errors = analyze(func);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}
