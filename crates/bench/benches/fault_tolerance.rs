//! Fault-tolerance of the measurement harness: tuning under injected
//! measurement failures.
//!
//! Real autotuning fleets lose measurements constantly — compile rejects,
//! device timeouts, runner crashes, corrupt profiling counters. The
//! harness invariant (see `tir_autoschedule::measure`) is that *transient*
//! faults change only the tuning bill, never the search trajectory: at any
//! injected fault rate the search must converge to the byte-identical best
//! program with only `tuning_cost_s` and `retries` growing. This bench
//! sweeps transient fault rates over the GMM and C2D workloads and prints
//! the overhead curve, then shows deterministic compile rejects being
//! quarantined (first failure pays, structurally identical re-proposals
//! are skipped for free).

use tensorir_bench::print_table;
use tir_autoschedule::{
    build_sketches, tune_with, tune_workload, FaultInjector, FaultPlan, SketchRule, Strategy,
    TuneOptions,
};
use tir_exec::machine::Machine;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, OpKind};

fn main() {
    let machine = Machine::sim_gpu();
    let intrins = builtin_registry();
    let suite = bench_suite(tir::DataType::float16());
    let opts = TuneOptions {
        trials: 96,
        num_threads: 1,
        ..Default::default()
    };

    println!(
        "Fault-tolerant measurement harness ({}, {} trials)",
        machine.name, opts.trials
    );

    for kind in [OpKind::GMM, OpKind::C2D] {
        let case = suite.iter().find(|c| c.kind == kind).expect("suite case");
        let clean = tune_workload(&case.func, &machine, &intrins, Strategy::TensorIr, &opts);
        let sketches = build_sketches(&case.func, &machine, &intrins, Strategy::TensorIr);
        let sketches: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
        let clean_best = clean
            .best
            .as_ref()
            .expect("fault-free run found no program")
            .to_string();
        let mut rows = Vec::new();
        let mut all_identical = true;
        for rate in [0.0, 0.05, 0.1, 0.2, 0.3] {
            let r = if rate == 0.0 {
                clean.clone()
            } else {
                let inj = FaultInjector::sim(FaultPlan::transient(rate));
                tune_with(&sketches, &machine, &opts, &inj)
            };
            all_identical &= r.best.as_ref().map(|b| b.to_string()) == Some(clean_best.clone());
            rows.push(vec![
                format!("{:.0}%", rate * 100.0),
                format!("{}", r.trials_measured),
                format!("{}", r.retries),
                format!("{}", r.failed_measurements),
                format!("{}", r.quarantined),
                format!("{:.1}", r.tuning_cost_s / 60.0),
                format!(
                    "+{:.1}%",
                    100.0 * (r.tuning_cost_s / clean.tuning_cost_s - 1.0)
                ),
            ]);
        }
        print_table(
            &format!("Transient fault sweep: {}", case.func.name),
            &[
                "fault rate",
                "measured",
                "retries",
                "failed",
                "quarantined",
                "tuning (min)",
                "cost overhead",
            ],
            &rows,
        );
        println!(
            "best program identical across all fault rates: {}",
            if all_identical { "yes" } else { "NO (BUG)" }
        );
    }

    // Deterministic failures: a candidate whose compile is rejected fails
    // the same way every time, so retrying is wasted money. The harness
    // quarantines its structural hash after the first failure.
    let case = suite
        .iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("suite case");
    let sketches = build_sketches(&case.func, &machine, &intrins, Strategy::TensorIr);
    let sketches: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
    let mut rows = Vec::new();
    for reject_rate in [0.1, 0.2, 0.3] {
        let inj = FaultInjector::sim(FaultPlan {
            compile_reject_rate: reject_rate,
            ..Default::default()
        });
        let r = tune_with(&sketches, &machine, &opts, &inj);
        rows.push(vec![
            format!("{:.0}%", reject_rate * 100.0),
            format!("{}", r.trials_measured),
            format!("{}", r.failed_measurements),
            format!("{}", r.quarantined),
            format!("{}", r.retries),
            if r.best.is_some() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(
        &format!("Deterministic compile rejects: {}", case.func.name),
        &[
            "reject rate",
            "measured",
            "failed",
            "quarantined",
            "retries",
            "best found",
        ],
        &rows,
    );
    println!("\n(transient faults — timeouts, runner crashes, corrupt readings — are");
    println!(" retried with capped exponential backoff and charged to tuning_cost_s;");
    println!(" the fault draws are a pure function of (seed, candidate, attempt), so");
    println!(" the search trajectory is bit-identical to the fault-free run at every");
    println!(" farm width. deterministic failures are quarantined by structural");
    println!(" hash: zero retries, and re-proposals of a rejected program cost nothing.)");
}
