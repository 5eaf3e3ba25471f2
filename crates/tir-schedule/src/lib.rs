//! # tir-schedule — scheduling transformations for TensorIR
//!
//! Each primitive of §3.2 is an independent TensorIR → TensorIR rewrite
//! with its own validity checks. Implemented primitives:
//!
//! * loop transformations — [`Schedule::split`], [`Schedule::fuse`],
//!   [`Schedule::reorder`], plus loop annotations ([`Schedule::parallel`],
//!   [`Schedule::vectorize`], [`Schedule::unroll`], [`Schedule::bind`],
//!   [`Schedule::annotate`]).
//! * compute-location mutation — `compute_at`, `reverse_compute_at`,
//!   `compute_inline`, `reverse_compute_inline`.
//! * block-hierarchy changes — `blockize`, `cache_read`, `cache_write`,
//!   `decompose_reduction`.
//!
//! Every primitive records itself in the schedule [`trace::Trace`], which
//! [`replay()`] can re-apply to a fresh build of the workload. (The
//! auto-scheduler does neither: it re-applies sketches to decision vectors.)

#![warn(missing_docs)]

mod blockize;
mod cache;
mod compute_location;
mod loop_transform;
mod reduction;
pub mod replay;
pub mod schedule;
pub mod trace;

pub use replay::replay;
pub use schedule::{BlockRef, LoopInfo, LoopRef, Result, Schedule, ScheduleError};
pub use trace::{Trace, TraceArg, TraceStep};

/// `tests/failure_guarantee.rs` once more as unit tests, so that its
/// `cache_read`/`cache_write` calls run with the narrowed-vs-full refresh
/// comparison of `cache::redirect_block` compiled in.
#[cfg(test)]
#[path = "../tests/failure_guarantee.rs"]
mod failure_guarantee;
#[cfg(test)]
extern crate self as tir_schedule;
