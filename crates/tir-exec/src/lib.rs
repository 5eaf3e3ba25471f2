//! # tir-exec — execution substrates for TensorIR
//!
//! Two back ends stand in for the paper's real hardware:
//!
//! * [`interp`] / [`mod@compile`] / [`vm`] — a complete executor used as
//!   the *correctness oracle*: schedules must leave its output unchanged.
//!   The fast path compiles a `PrimFunc` once into register bytecode
//!   ([`compile()`]) and runs it on a VM with zero per-step allocation
//!   ([`vm`]); the tree-walking [`interp`] is the reference backend the VM
//!   is differentially tested against. Every executor runs only
//!   well-formed programs ([`tir::well_formed()`]) and refuses the rest with
//!   [`ExecError::Malformed`], so all three have one semantics and one
//!   path each;
//! * [`machine`] / [`cost`] — an analytic roofline simulator of the paper's
//!   evaluation platforms (an RTX-3080-class GPU with Tensor Cores, a
//!   Graviton2-class ARM CPU with `sdot`), used as the *performance oracle*
//!   for the auto-scheduler and the benchmark harness.
//!
//! See `DESIGN.md` §1 for why these substitutions preserve the shape of the
//! paper's results.

#![warn(missing_docs)]

pub mod compile;
pub mod cost;
pub mod disasm;
pub mod interp;
pub mod machine;
pub mod opt;
pub mod tensor;
pub mod vm;

pub use compile::{compile, Program};
pub use cost::{
    estimate_breakdown, simulate, summarize, try_simulate, CostError, CostSummary, RooflineBound,
    TimeBreakdown,
};
pub use interp::{
    assert_same_semantics, run_on_random_inputs, run_sanitized, run_with, ExecBackend, ExecError,
    Interpreter, RunOutcome,
};
pub use machine::{Machine, MachineKind};
pub use opt::{compile_optimized, optimize};
pub use tensor::Tensor;
pub use vm::{InstrMixProfile, NoProfile, VmProfiler};
