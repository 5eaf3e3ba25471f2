//! Fused vs unfused end-to-end execution over the model dataflow graphs.
//!
//! Runs ResNet-50 and BERT-large (float16, SimGPU) through
//! [`tir_graph::evaluate_model`] (greedy fusion on) and
//! [`tir_graph::evaluate_model_unfused`] (every node its own kernel) with
//! the same TensorIR strategy and trial budget, prints the comparison
//! table, and emits `BENCH_fusion.json`.
//!
//! With `--check` the bench becomes a CI gate: fusion must never be
//! slower than the unfused baseline on any model, and must win by at
//! least 1.2x on at least one — the graph-level payoff that motivates
//! composing epilogues into anchor kernels at all. The numbers are
//! simulated, so `BENCH_fusion.json` comes out the same bytes on every
//! machine, and CI diffs it against the committed file.

use std::process::ExitCode;

use tensorir_bench::{fmt_ms, print_table, E2E_TRIALS};
use tir::DataType;
use tir_autoschedule::{Strategy, TuneOptions};
use tir_exec::Machine;
use tir_graph::{bert_large, evaluate_model, evaluate_model_unfused, resnet50};
use tir_tensorize::builtin_registry;
use tir_trace::json::{self, Layout};

struct Row {
    name: String,
    fused_s: f64,
    unfused_s: f64,
    groups: usize,
    nodes: usize,
    fused_ops: usize,
    saved_launch_s: f64,
    saved_traffic_s: f64,
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let machine = Machine::sim_gpu();
    let intrins = builtin_registry();
    let opts = TuneOptions {
        trials: E2E_TRIALS,
        ..Default::default()
    };
    println!(
        "Graph-level operator fusion: fused vs unfused end-to-end ({})",
        machine.name
    );

    let mut rows = Vec::new();
    for model in [
        resnet50(DataType::float16()),
        bert_large(DataType::float16()),
    ] {
        let fused = evaluate_model(&model, &machine, &intrins, Strategy::TensorIr, &opts)
            .expect("valid model");
        let unfused = evaluate_model_unfused(&model, &machine, &intrins, Strategy::TensorIr, &opts)
            .expect("valid model");
        rows.push(Row {
            name: model.name.clone(),
            fused_s: fused.latency_s,
            unfused_s: unfused.latency_s,
            groups: fused.per_group.len(),
            nodes: model.nodes.len(),
            fused_ops: fused.per_group.iter().map(|g| g.fused_ops).sum(),
            saved_launch_s: fused.saved_launch_s(),
            saved_traffic_s: fused.saved_traffic_s(),
        });
    }

    print_table(
        "Fused vs unfused end-to-end latency (ms), float16, batch 1",
        &[
            "model",
            "unfused",
            "fused",
            "speedup",
            "kernels",
            "fused ops",
            "saved launch",
            "saved traffic",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    fmt_ms(r.unfused_s),
                    fmt_ms(r.fused_s),
                    format!("{:.2}x", r.unfused_s / r.fused_s),
                    format!("{}/{}", r.groups, r.nodes),
                    r.fused_ops.to_string(),
                    fmt_ms(r.saved_launch_s),
                    fmt_ms(r.saved_traffic_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("(kernels = fusion groups / graph nodes; saved columns are the launch and");
    println!(" DRAM-traffic time the fused kernels eliminated, per inference.)");

    let text = json::document(|w| {
        w.object(Layout::Lines, |w| {
            w.field("benchmark", "model_fusion").field("unit", "ms");
            w.key("models").array(Layout::Lines, |w| {
                for r in &rows {
                    w.object(Layout::Inline, |w| {
                        w.field("name", &r.name)
                            .field("unfused_ms", r.unfused_s * 1e3)
                            .field("fused_ms", r.fused_s * 1e3)
                            .field("speedup", r.unfused_s / r.fused_s)
                            .field("groups", r.groups)
                            .field("nodes", r.nodes)
                            .field("fused_ops", r.fused_ops)
                            .field("saved_launch_ms", r.saved_launch_s * 1e3)
                            .field("saved_traffic_ms", r.saved_traffic_s * 1e3);
                    });
                }
            });
        });
    });
    let best = rows
        .iter()
        .map(|r| r.unfused_s / r.fused_s)
        .fold(0.0, f64::max);
    println!("best fusion speedup {best:.2}x (gate: >= 1.2x)");
    let failures = check.then(|| {
        let mut failures = Vec::new();
        for r in &rows {
            if r.fused_s > r.unfused_s {
                failures.push(format!(
                    "{}: fused {} slower than unfused {}",
                    r.name,
                    fmt_ms(r.fused_s),
                    fmt_ms(r.unfused_s)
                ));
            }
            if r.fused_ops == 0 {
                failures.push(format!("{}: fusion pass fused nothing", r.name));
            }
            if r.saved_launch_s <= 0.0 {
                failures.push(format!("{}: no launch savings attributed", r.name));
            }
            if r.saved_traffic_s <= 0.0 {
                failures.push(format!("{}: no traffic savings attributed", r.name));
            }
        }
        if best < 1.2 {
            failures.push(format!(
                "best fusion speedup {best:.2}x below the 1.2x acceptance bar"
            ));
        }
        failures
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fusion.json");
    json::gate("model_fusion", path, &text, failures)
}
