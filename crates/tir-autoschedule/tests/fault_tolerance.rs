//! End-to-end fault-tolerance tests for the tuning loop.
//!
//! The key invariant (module docs of `tir_autoschedule::measure`): under
//! any *transient* fault rate, the search converges to the bit-identical
//! best program and history as the fault-free run, at every thread count
//! — only `tuning_cost_s` and `retries` grow. Deterministic failures
//! (compile rejects) quarantine their candidate; an injected worker panic
//! fails one candidate, not the run; retry exhaustion consumes budget and
//! terminates.

use tir::{DataType, PrimFunc};
use tir_autoschedule::sketch_gpu::GpuTensorSketch;
use tir_autoschedule::{
    build_sketches, tune_with, tune_workload, FaultInjector, FaultPlan, MeasureCtx, MeasureError,
    Measurer, RetryPolicy, SimMeasurer, SketchRule, Strategy, TuneOptions, TuneResult,
};
use tir_exec::machine::Machine;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, OpKind};

fn mm_sketch() -> GpuTensorSketch {
    let func = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
    let reg = builtin_registry();
    let wmma = reg.get("wmma_16x16x16_f16").unwrap();
    GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch")
}

fn suite_func(kind: OpKind) -> PrimFunc {
    bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == kind)
        .expect("suite case")
        .func
}

fn best_str(r: &TuneResult) -> String {
    r.best.as_ref().map(|b| b.to_string()).unwrap_or_default()
}

/// Everything that must be bit-identical between a fault-free and a
/// transiently-faulty (or resumed) run.
fn assert_same_trajectory(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(best_str(a), best_str(b), "{what}: best program");
    assert_eq!(
        a.best_time.to_bits(),
        b.best_time.to_bits(),
        "{what}: best_time"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: history[{i}]");
    }
    assert_eq!(a.trials_measured, b.trials_measured, "{what}: trials");
    assert_eq!(a.invalid_filtered, b.invalid_filtered, "{what}: invalid");
    assert_eq!(a.cache_hits, b.cache_hits, "{what}: cache hits");
    assert_eq!(
        a.wasted_measurements, b.wasted_measurements,
        "{what}: wasted"
    );
}

/// Fault matrix {0%, 10%, 30%} x (gmm, c2d): identical best program and
/// history, monotonically non-decreasing tuning cost with the fault rate
/// (rigorous at one measurement worker, where the makespan is the plain
/// sum and every per-candidate cost only grows with faults).
#[test]
fn fault_matrix_preserves_the_search_result() {
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let opts = TuneOptions {
        trials: 24,
        num_threads: 1,
        ..Default::default()
    };
    for kind in [OpKind::GMM, OpKind::C2D] {
        let func = suite_func(kind);
        let fault_free = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts);
        let sketches = build_sketches(&func, &machine, &reg, Strategy::TensorIr);
        let sketches: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
        assert!(fault_free.best.is_some(), "{kind:?}: no baseline best");
        assert_eq!(fault_free.retries, 0);
        assert_eq!(fault_free.failed_measurements, 0);
        let mut prev_cost = fault_free.tuning_cost_s;
        for rate in [0.1, 0.3] {
            let inj = FaultInjector::sim(FaultPlan::transient(rate));
            let faulty = tune_with(&sketches, &machine, &opts, &inj);
            assert_same_trajectory(&fault_free, &faulty, &format!("{kind:?} at {rate}"));
            assert!(
                faulty.retries > 0,
                "{kind:?} at {rate}: transient faults must force retries"
            );
            assert_eq!(
                faulty.failed_measurements, 0,
                "{kind:?} at {rate}: default retry budget must absorb transients"
            );
            assert!(
                faulty.tuning_cost_s >= prev_cost,
                "{kind:?} at {rate}: cost must not decrease ({} < {prev_cost})",
                faulty.tuning_cost_s
            );
            prev_cost = faulty.tuning_cost_s;
        }
    }
}

/// The invariant holds at every thread count: the faulty run finds the
/// identical result whether candidates are measured serially or across a
/// worker pool, and the retry count itself is deterministic (fault draws
/// key on the candidate, never on scheduling).
#[test]
fn fault_injection_is_thread_invariant() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan::transient(0.3));
    let base = TuneOptions {
        trials: 24,
        ..Default::default()
    };
    let serial = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            num_threads: 1,
            ..base.clone()
        },
        &inj,
    );
    let fault_free = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            num_threads: 1,
            ..base.clone()
        },
        &SimMeasurer,
    );
    assert_same_trajectory(&fault_free, &serial, "serial faulty vs fault-free");
    for threads in [2usize, 4] {
        let parallel = tune_with(
            &[&s],
            &machine,
            &TuneOptions {
                num_threads: threads,
                ..base.clone()
            },
            &inj,
        );
        assert_same_trajectory(&serial, &parallel, &format!("{threads} threads"));
        assert_eq!(serial.retries, parallel.retries, "{threads} threads");
    }
}

/// Deterministic compile rejects quarantine their candidate: the first
/// failure consumes budget, structurally identical re-proposals are
/// skipped for free, and the search still finds a valid program.
#[test]
fn deterministic_faults_quarantine_candidates() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan {
        compile_reject_rate: 0.3,
        ..Default::default()
    });
    let r = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            trials: 24,
            num_threads: 1,
            // With the cache off, every failure is a real measurement
            // attempt, so the accounting below is exact.
            use_candidate_cache: false,
            ..Default::default()
        },
        &inj,
    );
    assert!(r.quarantined > 0, "30% reject rate must quarantine some");
    // Compile rejects are the only injected failure mode, and a
    // quarantined hash is never re-measured: each quarantined candidate
    // failed exactly once.
    assert_eq!(r.failed_measurements, r.quarantined);
    assert_eq!(r.retries, 0, "deterministic failures are never retried");
    assert!(r.best.is_some(), "search must still find a program");
    assert!(
        r.trials_measured + r.wasted_measurements + r.failed_measurements <= 24,
        "budget must be respected"
    );
}

/// A measurement backend that panics deterministically for a subset of
/// candidates — the hard-crash case `catch_unwind` isolation must
/// contain.
struct SelectivePanicMeasurer;

impl Measurer for SelectivePanicMeasurer {
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        ctx: &MeasureCtx,
    ) -> Result<f64, MeasureError> {
        if ctx.candidate.is_multiple_of(3) {
            panic!("hard runner crash for candidate {:#x}", ctx.candidate);
        }
        SimMeasurer.measure(func, machine, ctx)
    }
}

/// An injected worker panic fails one candidate, not the run: candidates
/// whose measurer always panics become per-candidate failures while every
/// other candidate measures normally and the search completes.
#[test]
fn injected_panic_fault_fails_one_candidate_not_the_run() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let r = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            trials: 24,
            num_threads: 4,
            // Keep exhaustion fast: these panics repeat on every attempt.
            retry: RetryPolicy {
                max_retries: 2,
                ..Default::default()
            },
            ..Default::default()
        },
        &SelectivePanicMeasurer,
    );
    assert!(
        r.failed_measurements > 0,
        "about a third of candidates must fail"
    );
    assert!(
        r.best.is_some(),
        "the run must survive panicking candidates and find a program"
    );
    assert!(r.best_time.is_finite());
    assert!(r.tuning_cost_s.is_finite());
}

/// Retry exhaustion under a 100% transient fault rate: every candidate
/// fails, the budget drains, and the run terminates cleanly with finite
/// accounting instead of spinning.
#[test]
fn total_fault_exhaustion_terminates_with_finite_accounting() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan {
        timeout_rate: 1.0,
        ..Default::default()
    });
    let r = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            trials: 8,
            measure_per_generation: 4,
            num_threads: 1,
            retry: RetryPolicy {
                max_retries: 2,
                ..Default::default()
            },
            ..Default::default()
        },
        &inj,
    );
    assert!(r.best.is_none(), "nothing can be measured");
    assert_eq!(r.failed_measurements, 8, "failures must consume budget");
    assert_eq!(r.trials_measured, 0);
    // Timeouts are transient: nothing is quarantined, everything retried.
    assert_eq!(r.quarantined, 0);
    assert_eq!(r.retries, 8 * 2);
    assert!(r.tuning_cost_s.is_finite() && r.tuning_cost_s > 0.0);
}
