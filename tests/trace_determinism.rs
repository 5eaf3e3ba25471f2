//! Observability must be a pure observer: enabling tracing, and running
//! the tuner at any simulated farm width (`num_threads`), must leave the
//! search result bit-identical, and the merged trace report itself must be
//! byte-identical at every farm width (all recorded quantities are
//! simulated seconds that do not depend on the width; the merge order is a
//! pure function of deterministic keys).

use std::sync::Arc;

use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions, TuneResult};
use tir_exec::Machine;
use tir_tensorize::builtin_registry;
use tir_trace::{Collector, TraceReport};
use tir_workloads::ops;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn tune(trace: Option<Arc<Collector>>, num_threads: usize) -> (TuneResult, Option<TraceReport>) {
    let func = ops::gmm(64, 64, 64, DataType::float16(), DataType::float32());
    let machine = Machine::sim_gpu();
    let registry = builtin_registry();
    let opts = TuneOptions {
        trials: 24,
        num_threads,
        trace: trace.clone(),
        ..TuneOptions::default()
    };
    let result = tune_workload(&func, &machine, &registry, Strategy::TensorIr, &opts);
    (result, trace.map(|c| c.report()))
}

/// Everything about the search outcome that must not move: the best
/// program (printed form), its time (bit pattern), and the full
/// best-so-far history (bit patterns).
fn outcome_fingerprint(r: &TuneResult) -> (Option<String>, u64, Vec<u64>, usize, usize) {
    (
        r.best.as_ref().map(|f| f.to_string()),
        r.best_time.to_bits(),
        r.history.iter().map(|t| t.to_bits()).collect(),
        r.trials_measured,
        r.cache_hits,
    )
}

#[test]
fn tracing_does_not_perturb_the_search_at_any_thread_count() {
    for threads in THREAD_COUNTS {
        let (plain, _) = tune(None, threads);
        let (disabled, _) = tune(Some(Arc::new(Collector::disabled())), threads);
        let (traced, report) = tune(Some(Arc::new(Collector::new())), threads);

        assert_eq!(
            outcome_fingerprint(&plain),
            outcome_fingerprint(&traced),
            "tracing perturbed the search at {threads} threads"
        );
        assert_eq!(
            outcome_fingerprint(&plain),
            outcome_fingerprint(&disabled),
            "a disabled collector perturbed the search at {threads} threads"
        );
        // tuning_cost_s is thread-dependent by design, but tracing must
        // not move it either.
        assert_eq!(
            plain.tuning_cost_s.to_bits(),
            traced.tuning_cost_s.to_bits(),
            "tracing perturbed tuning_cost_s at {threads} threads"
        );
        let report = report.expect("enabled collector must produce a report");
        assert!(
            !report.spans.is_empty(),
            "enabled tracing produced no spans"
        );
    }
}

#[test]
fn trace_report_is_byte_identical_across_thread_counts() {
    let mut jsons = Vec::new();
    for threads in THREAD_COUNTS {
        let (_, report) = tune(Some(Arc::new(Collector::new())), threads);
        jsons.push((threads, report.unwrap().to_json()));
    }
    let (_, reference) = &jsons[0];
    for (threads, json) in &jsons[1..] {
        assert_eq!(
            json, reference,
            "trace report at {threads} threads differs from the 1-thread report"
        );
    }
}

#[test]
fn measure_events_decompose_the_measure_phase() {
    let (result, report) = tune(Some(Arc::new(Collector::new())), 1);
    let report = report.unwrap();

    // The serial measurement phase reconciles with the 1-thread makespan
    // accounting, and the per-attempt measure.* events decompose it
    // (wasted measurements, which carry no attempt events, may leave the
    // event sum strictly below the phase total).
    let phase = report.phase_sim_s("search.measure");
    assert!(
        (phase - result.tuning_cost_s).abs() <= result.tuning_cost_s * 1e-9,
        "search.measure {phase} != tuning_cost_s {} at one thread",
        result.tuning_cost_s
    );
    let events = report.phase_sim_s("measure.");
    assert!(
        events <= phase * (1.0 + 1e-9),
        "measure.* events {events} exceed the search.measure phase {phase}"
    );
    if result.wasted_measurements == 0 {
        assert!(
            (events - phase).abs() <= phase * 1e-9,
            "measure.* events {events} do not decompose search.measure {phase}"
        );
    }

    // Counters mirror the tuner's own accounting.
    assert_eq!(
        report.counter("search.cache_hits"),
        result.cache_hits as u64
    );
    assert_eq!(report.counter("search.retries"), result.retries);
    assert_eq!(
        report.counter("search.failed_measurements"),
        result.failed_measurements as u64
    );
}
