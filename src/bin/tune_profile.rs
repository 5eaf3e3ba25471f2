//! `tune-profile` — runs one auto-scheduler tuning job with the
//! observability layer enabled and writes the merged trace to a JSON
//! report (`BENCH_trace.json` by default).
//!
//! The run is pinned to one worker thread so the serial per-generation
//! measurement sums recorded in the `search.measure` spans coincide with
//! the `tuning_cost_s` makespan accounting — the report's per-phase
//! breakdown then reconciles with the tuner's own cost figure.
//!
//! After tuning, the best program is compiled to the bytecode VM through
//! the optimizer pipeline and executed under [`InstrMixProfile`], folding
//! the instruction mix into the same report as `vm.op.*` counters.
//!
//! With `--check` the emitted report is validated in-process (the CI
//! gate, which ends in [`tir_trace::json::gate`]): it must be well-formed
//! JSON, carry every phase the search declares
//! (`tir_autoschedule::search::SEARCH_PHASES`) and the expected counters,
//! its `search.*` phase times must sum to `tuning_cost_s` within 5%, the
//! candidates built and never built must add up to the candidates
//! proposed, and a stream must have traced the tensorized sketch with the
//! machine's intrinsic ([`expected_stream`]). Any violation exits with
//! code 1.

use std::process::ExitCode;
use std::sync::Arc;

use tir::{DataType, PrimFunc};
use tir_autoschedule::search::SEARCH_PHASES;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions, TuneResult};
use tir_exec::{compile_optimized, InstrMixProfile, Machine, Tensor};
use tir_tensorize::builtin_registry;
use tir_trace::json::{self, Layout};
use tir_trace::{Collector, TraceReport};
use tir_workloads::ops;

/// Fuel cap for the post-tuning VM profile run. Large workloads (c2d)
/// run out of fuel before completing; the partial instruction mix is
/// still representative and the report records whether the run finished.
const PROFILE_FUEL: u64 = 20_000_000;

struct Config {
    workload: String,
    machine: String,
    trials: usize,
    out: String,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tune-profile [--workload gmm|c2d] [--machine gpu|arm] \
         [--trials N] [--out PATH] [--check]"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        workload: "gmm".to_string(),
        machine: "gpu".to_string(),
        trials: 32,
        out: "BENCH_trace.json".to_string(),
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => cfg.workload = args.next().unwrap_or_else(|| usage()),
            "--machine" => cfg.machine = args.next().unwrap_or_else(|| usage()),
            "--trials" => {
                cfg.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => cfg.out = args.next().unwrap_or_else(|| usage()),
            "--check" => cfg.check = true,
            _ => usage(),
        }
    }
    cfg
}

/// The tuned workload: dtypes follow the bench suite (`bench_suite`: f16
/// in and f16 accumulation on the GPU, which the wmma intrinsic matches;
/// int8 in and int32 accumulation on ARM, which `sdot` matches).
fn build_workload(name: &str, machine: &str) -> PrimFunc {
    let (dt, acc) = match machine {
        "gpu" => (DataType::float16(), DataType::float16()),
        "arm" => (DataType::int8(), DataType::int32()),
        _ => usage(),
    };
    match name {
        "gmm" => ops::gmm(128, 128, 128, dt, acc),
        "c2d" => ops::c2d(8, 58, 58, 128, 128, 3, 3, 1, dt),
        _ => usage(),
    }
}

fn build_machine(name: &str) -> Machine {
    match name {
        "gpu" => Machine::sim_gpu(),
        "arm" => Machine::sim_arm(),
        _ => usage(),
    }
}

/// Runs the best program through the bytecode VM under an
/// instruction-mix profiler, folding the mix into the collector as
/// `vm.op.*` counters of the optimized bytecode (what production
/// dispatches). Returns whether the profile run completed within its fuel
/// budget (`None` when the program does not compile to bytecode).
fn profile_best(best: &PrimFunc, collector: &Collector) -> Option<bool> {
    let prog = compile_optimized(best).ok()?;
    let args: Vec<Tensor> = best
        .params
        .iter()
        .map(|b| Tensor::zeros(b.dtype(), b.shape()))
        .collect();
    let mut prof = InstrMixProfile::new();
    let outcome = prog.run_profiled(args, PROFILE_FUEL, &mut prof);
    for (mnemonic, count) in prof.mix() {
        if count > 0 {
            collector.count(&format!("vm.op.{mnemonic}"), count);
        }
    }
    collector.count("vm.dispatches", prof.total());
    Some(outcome.is_ok())
}

/// The `search.{proposed, materialized, materialize_skipped}` counters:
/// candidates proposed after dedup, built (`SketchRule::apply` calls), and
/// proposed but never built because selection could not have read them.
fn materialize_counters(report: &TraceReport) -> (u64, u64, u64) {
    (
        report.counter("search.proposed"),
        report.counter("search.materialized"),
        report.counter("search.materialize_skipped"),
    )
}

/// The stream a run on `machine` must trace: the tensorized sketch over
/// the intrinsic the bench dtypes match ([`build_workload`]). A run whose
/// dtypes match another intrinsic, or none, traces a different sketch and
/// does not profile what the report is for.
fn expected_stream(machine: &str) -> &'static str {
    match machine {
        "gpu" => "gpu-tensor[wmma_16x16x16_f16]",
        "arm" => "cpu-tensor[sdot_4x4x4_i8]",
        _ => usage(),
    }
}

/// Whether a stream of `report` traced [`expected_stream`] of `machine`.
fn check_streams(machine: &str, report: &TraceReport) -> Option<String> {
    let want = expected_stream(machine);
    let labels: Vec<&str> = report.streams.iter().map(|(_, l)| l.as_str()).collect();
    (!labels.contains(&want)).then(|| format!("no stream traced {want}: streams {labels:?}"))
}

/// The CI gate: structural and accounting invariants of the report.
fn check_report(
    text: &str,
    machine: &str,
    result: &TuneResult,
    report: &TraceReport,
) -> Vec<String> {
    let mut errors = Vec::new();
    for key in [
        "\"workload\"",
        "\"machine\"",
        "\"trials\"",
        "\"best_time_s\"",
        "\"tuning_cost_s\"",
        "\"phase_sum_s\"",
        "\"trace\"",
        "\"phases\"",
        "\"counters\"",
        "\"spans\"",
        "\"streams\"",
    ] {
        if !text.contains(key) {
            errors.push(format!("missing required key {key}"));
        }
    }
    for phase in SEARCH_PHASES {
        if report.phase(phase).is_none() {
            errors.push(format!("missing phase {phase}"));
        }
    }
    // `search.materialize_skipped` is absent from a report whose every
    // generation built its whole population (a zero counter is not
    // emitted), so only the two that are always positive are required;
    // the three must add up either way.
    for counter in ["search.proposed", "search.materialized"] {
        if report.counter(counter) == 0 {
            errors.push(format!("missing counter {counter}"));
        }
    }
    let (proposed, materialized, skipped) = materialize_counters(report);
    if materialized + skipped != proposed {
        errors.push(format!(
            "materialized {materialized} + skipped {skipped} != proposed {proposed}"
        ));
    }
    errors.extend(check_streams(machine, report));
    if result.best.is_none() {
        errors.push("tuning found no valid candidate".to_string());
    }
    // At one worker thread the serial measurement sums must reconcile
    // with the makespan accounting: the acceptance bound is 5%, and the
    // phase sum may never exceed the accounted cost by more than float
    // accumulation noise.
    let phase_sum = report.phase_sim_s("search.");
    let cost = result.tuning_cost_s;
    if cost > 0.0 {
        let rel = (phase_sum - cost).abs() / cost;
        if rel > 0.05 {
            errors.push(format!(
                "search.* phase sum {phase_sum} deviates from tuning_cost_s {cost} by {:.2}%",
                rel * 100.0
            ));
        }
        if phase_sum > cost * (1.0 + 1e-9) {
            errors.push(format!(
                "search.* phase sum {phase_sum} exceeds tuning_cost_s {cost}"
            ));
        }
    } else {
        errors.push("tuning_cost_s is not positive".to_string());
    }
    errors
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let func = build_workload(&cfg.workload, &cfg.machine);
    let machine = build_machine(&cfg.machine);
    let registry = builtin_registry();

    let collector = Arc::new(Collector::new());
    let opts = TuneOptions {
        trials: cfg.trials,
        // One worker: serial measurement sums == makespans, so the
        // trace's per-phase breakdown reconciles with tuning_cost_s.
        num_threads: 1,
        trace: Some(collector.clone()),
        ..TuneOptions::default()
    };

    let t0 = std::time::Instant::now();
    let result = tune_workload(&func, &machine, &registry, Strategy::TensorIr, &opts);
    let wall_s = t0.elapsed().as_secs_f64();

    let vm_complete = result
        .best
        .as_ref()
        .and_then(|best| profile_best(best, &collector));

    let report = collector.report();
    // The report: run metadata, then the merged trace.
    let text = json::document(|w| {
        w.object(Layout::Lines, |w| {
            w.field("workload", &cfg.workload)
                .field("machine", &cfg.machine)
                .field("trials", cfg.trials)
                .field("trials_measured", result.trials_measured)
                .field("best_time_s", result.best_time)
                .field("tuning_cost_s", result.tuning_cost_s)
                .field("phase_sum_s", report.phase_sim_s("search."))
                .field("vm_profile_complete", vm_complete)
                .key("trace");
            report.write_json(w);
        });
    });
    println!(
        "tune-profile: {} on {} ({} trials, {} measured) in {wall_s:.1}s wall",
        cfg.workload, cfg.machine, cfg.trials, result.trials_measured
    );
    println!(
        "  best_time_s {}  tuning_cost_s {}  search.* phase sum {}",
        result.best_time,
        result.tuning_cost_s,
        report.phase_sim_s("search.")
    );
    for p in &report.phases {
        if p.name.starts_with("search.") || p.name.starts_with("measure.") {
            println!("  {:<28} {:>12.6}s  items {}", p.name, p.sim_s, p.items);
        }
    }
    let (proposed, materialized, skipped) = materialize_counters(&report);
    println!(
        "  candidates: {proposed} proposed, {materialized} built, {skipped} never built; \
         {:.2} applies per measured trial",
        materialized as f64 / result.trials_measured.max(1) as f64
    );
    let failures = cfg
        .check
        .then(|| check_report(&text, &cfg.machine, &result, &report));
    json::gate("tune-profile", &cfg.out, &text, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(labels: &[&str]) -> TraceReport {
        let collector = Collector::new();
        for label in labels {
            collector.stream(label);
        }
        collector.report()
    }

    /// The f32-accumulator GMM tunes with `dot_4x4x4_f32`, not wmma: its
    /// report must not pass as the wmma trace, nor as the ARM one.
    #[test]
    fn a_trace_of_the_wrong_intrinsic_fails_the_check() {
        let f32_dot = traced(&["gpu-tensor[dot_4x4x4_f32]", "gpu-scalar"]);
        let failure = check_streams("gpu", &f32_dot).expect("must fail");
        assert!(
            failure.contains("gpu-tensor[wmma_16x16x16_f16]"),
            "{failure}"
        );
        assert!(check_streams("arm", &f32_dot).is_some());
        assert!(check_streams("gpu", &TraceReport::default()).is_some());
    }

    #[test]
    fn a_trace_of_the_expected_intrinsic_passes() {
        let wmma = traced(&["gpu-tensor[wmma_16x16x16_f16]", "gpu-scalar"]);
        assert_eq!(check_streams("gpu", &wmma), None);
        let sdot = traced(&["cpu-tensor[sdot_4x4x4_i8]"]);
        assert_eq!(check_streams("arm", &sdot), None);
    }
}
