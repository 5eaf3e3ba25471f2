//! Overhead gate for the observability layer: a tuning run with tracing
//! disabled (either `trace: None` or a [`Collector::disabled`] sink)
//! must cost within 1% of the untraced baseline — the disabled path is a
//! single branch per would-be event, so any measurable regression means
//! instrumentation leaked into the hot path.
//!
//! Wall-clock gating is noisy, so each configuration is timed as the
//! minimum over several interleaved runs, and a failing round is retried
//! with a doubled run count before the gate trips (exit code 1).

use std::sync::Arc;
use std::time::Instant;

use tensorir_bench::print_table;
use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::Machine;
use tir_tensorize::builtin_registry;
use tir_trace::Collector;
use tir_workloads::ops;

const MAX_OVERHEAD: f64 = 0.01;
const ROUNDS: usize = 3;

fn run_once(trace: Option<Arc<Collector>>) -> f64 {
    let func = ops::gmm(128, 128, 128, DataType::float16(), DataType::float32());
    let machine = Machine::sim_gpu();
    let intrins = builtin_registry();
    let opts = TuneOptions {
        trials: 32,
        num_threads: 1,
        trace,
        ..TuneOptions::default()
    };
    let t0 = Instant::now();
    let result = tune_workload(&func, &machine, &intrins, Strategy::TensorIr, &opts);
    let dt = t0.elapsed().as_secs_f64();
    assert!(result.best.is_some(), "tuning found no candidate");
    dt
}

/// Minimum wall time per configuration over `runs` interleaved
/// repetitions (interleaving spreads ambient machine noise evenly).
fn measure(runs: usize) -> (f64, f64, f64) {
    let (mut base, mut disabled, mut enabled) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..runs {
        base = base.min(run_once(None));
        disabled = disabled.min(run_once(Some(Arc::new(Collector::disabled()))));
        enabled = enabled.min(run_once(Some(Arc::new(Collector::new()))));
    }
    (base, disabled, enabled)
}

fn main() {
    let mut runs = 5;
    let mut last = (0.0, 0.0, 0.0);
    let mut passed = false;
    for round in 0..ROUNDS {
        let (base, disabled, enabled) = measure(runs);
        last = (base, disabled, enabled);
        let overhead = disabled / base - 1.0;
        if overhead <= MAX_OVERHEAD {
            passed = true;
            break;
        }
        eprintln!(
            "round {round}: disabled-trace overhead {:.2}% > {:.0}% — retrying with {}x runs",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0,
            2 * runs
        );
        runs *= 2;
    }

    let (base, disabled, enabled) = last;
    let row = |label: &str, t: f64| {
        vec![
            label.to_string(),
            format!("{:.2}", t * 1e3),
            format!("{:+.2}%", (t / base - 1.0) * 100.0),
        ]
    };
    print_table(
        "Observability overhead (gmm 128^3, 32 trials, min of runs)",
        &["configuration", "wall (ms)", "vs baseline"],
        &[
            row("trace: None", base),
            row("Collector::disabled()", disabled),
            row("Collector::new()", enabled),
        ],
    );

    if !passed {
        eprintln!(
            "FAIL: disabled-trace overhead {:.2}% exceeds the {:.0}% gate",
            (disabled / base - 1.0) * 100.0,
            MAX_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "gate passed: disabled-trace overhead {:.2}% <= {:.0}%",
        (disabled / base - 1.0) * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
