//! # tir-autoschedule — the tensorization-aware auto-scheduler
//!
//! Implements §4.3–4.4 of the paper:
//!
//! * [`sketch`] / [`sketch_gpu`] / [`sketch_cpu`] — sketch generation rules
//!   that fix program structure (auto-tensorization, multi-level tiling,
//!   thread binding, AutoCopy data-movement blocks) while leaving decisions
//!   (tile sizes, widths) to the search;
//! * [`search`] — one tune over a workload's sketches, an evolutionary
//!   search of six stages (propose, materialize, score, select, measure,
//!   learn) per sketch on the caller's thread, with validation filtering,
//!   a simulated parallel measurement farm, and a structural-hash
//!   measurement cache;
//! * [`measure`] — the fallible measurement abstraction: the [`Measurer`]
//!   backend trait, deterministic fault injection, and the
//!   retry/backoff/outlier-rejection harness;
//! * [`checkpoint`] — generation-granularity checkpoint/resume of tuning
//!   runs as a replayed measurement log, bit-identical to uninterrupted
//!   runs, kept in the journal's framing;
//! * [`journal`] / [`fault_io`] — the crash-consistent write-ahead journal
//!   behind the tuning database and its framing, and the fault-injectable
//!   I/O layer that lets a deterministic chaos harness prove the recovery
//!   guarantees of both files;
//! * [`cost_model`] — a from-scratch gradient-boosted-tree cost model
//!   trained online from simulator measurements;
//! * [`feature`] — program feature extraction;
//! * [`baseline`] — the comparison strategies: Ansor-like scalar search
//!   ("TVM"), AMOS-like tensorization without first-class data movement,
//!   and roofline oracles for vendor libraries.

#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod cost_model;
pub mod database;
pub mod fault_io;
pub mod feature;
pub mod journal;
pub mod measure;
pub mod search;
pub mod sketch;
pub mod sketch_cpu;
pub mod sketch_gpu;

pub use baseline::{build_sketches, oracle_time, tune_workload, Strategy};
pub use cost_model::CostModel;
pub use database::{workload_key, DbError, TuningDatabase, TuningRecord};
pub use fault_io::{DiskIo, FaultIo, FaultSpec, IoProfile, JournalIo};
pub use journal::{journal_path_for, JournalEntry, JournaledDb, PublishOutcome, RecoveryReport};
pub use measure::{
    measure_with_retries, FaultInjector, FaultPlan, MeasureCtx, MeasureError, MeasureOutcome,
    MeasureTrace, Measurer, RetryPolicy, SimMeasurer, VerifyingMeasurer,
};
/// The old name of [`tune_with`], kept only for its one caller outside
/// this workspace, `benchmark/src/wrappers.rs`.
pub use search::tune_with as tune_multi_with;
pub use search::{tune_with, TuneOptions, TuneResult, WarmStart};
pub use sketch::{CountingSketch, Decision, DecisionKind, SketchRule};
