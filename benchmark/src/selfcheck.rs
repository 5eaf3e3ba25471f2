//! `--selfcheck`: runs every workload twice with `--quick`, end to end and
//! traced, and holds the benchmark to its own rules — every exact count
//! must be bit-equal between the two runs, every simulated-clock metric
//! equal to its last bit (see `stats::same_sim` for why not bit-equal),
//! every wall-clock end-to-end metric within its bound. Prints the observed
//! difference per metric.
//!
//! `peak_rss_mb` is left out: all the runs share this process, so its
//! high-water mark is not a per-run number here.

use std::process::ExitCode;

use crate::harness::{Args, Report};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::same_sim;
use crate::{run_workload, QUICK_SECONDS};

pub fn run(seed: u64) -> ExitCode {
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        println!(
            "selfcheck: {} (seed {seed}, 2 x end-to-end, 2 x traced, --quick)",
            w.name
        );
        let go = |trace: bool| {
            let report = run_workload(
                w.name,
                &Args {
                    seed,
                    seconds: QUICK_SECONDS,
                    trace,
                    quick: true,
                },
            );
            let _ = std::fs::remove_dir_all(crate::harness::scratch_dir());
            report
        };
        let (a, b) = (go(false), go(false));
        let (ta, tb) = (go(true), go(true));
        for r in [&a, &b, &ta, &tb] {
            if r.checks.failed > 0 {
                problems.push(format!(
                    "{}: {} of {} operations failed: {:?}",
                    w.name, r.checks.failed, r.checks.attempted, r.checks.notes
                ));
            }
        }
        for m in END_TO_END.iter().filter(|m| m.name != "peak_rss_mb") {
            let (x, y) = (a.e2e_value(m.name).0, b.e2e_value(m.name).0);
            let diff = (x - y).abs() / x.abs().min(y.abs());
            let verdict = if m.deterministic {
                if x.to_bits() == y.to_bits() {
                    "bit-equal"
                } else if same_sim(x, y) {
                    "equal to the last bit"
                } else {
                    problems.push(format!(
                        "{}: {} does not repeat ({x} vs {y})",
                        w.name, m.name
                    ));
                    "NOT BIT-EQUAL"
                }
            } else if diff <= m.bound {
                "within bound"
            } else {
                problems.push(format!(
                    "{}: {} differs by {:.1}% (bound {:.0}%): {x} vs {y}",
                    w.name,
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                ));
                "OUTSIDE BOUND"
            };
            println!(
                "  {:<22} {:>14.6} {:>14.6} {:<7} diff {:>6.2}%  bound {:>3.0}%  {verdict}",
                m.name,
                x,
                y,
                m.unit,
                diff * 100.0,
                m.bound * 100.0
            );
        }
        for m in PER_LAYER.iter() {
            let get = |r: &Report| r.layers.get(m.name).map(|(v, _)| *v);
            let (Some(x), Some(y)) = (get(&ta), get(&tb)) else {
                continue;
            };
            let verdict = if !m.deterministic {
                "wall-clock"
            } else if x.to_bits() == y.to_bits() {
                "bit-equal"
            } else {
                problems.push(format!(
                    "{}: {} does not repeat ({x} vs {y})",
                    w.name, m.name
                ));
                "NOT BIT-EQUAL"
            };
            println!(
                "  {:<46} {:>14.6} {:>14.6} {:<6} {verdict}",
                m.name, x, y, m.unit
            );
        }
    }
    if problems.is_empty() {
        println!("selfcheck: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("selfcheck: FAILED: {p}");
        }
        ExitCode::from(1)
    }
}
