//! Golden `tune_workload` results: the identity gate for changes to *how
//! much* of a generation the search materializes.
//!
//! For every Fig. 10 operator (float16, `sim_gpu`) and Fig. 13 operator
//! (int8 GMM and C2D, `sim_arm`), `tests/golden/tune_results.txt` records
//! three seeds at 64 trials plus one 16-trial row (the budget
//! `compile_model_with` gives each kernel: one generation per sketch, so no
//! generation ever has a trained model). A row holds everything of a
//! `TuneResult` that must not depend on which candidates were built but
//! never selected: the best program's structural hash, the bits of
//! `best_time` and `tuning_cost_s`, the measurement counters and a hash of
//! `history`. `invalid_filtered` is deliberately absent — it counts
//! invalid candidates among those *materialized*, which is exactly what
//! demand-driven materialization changes.
//!
//! The file was generated on the commit *before* `tune_with` stopped
//! building candidates selection cannot reach. Its `history=` fields were
//! rewritten once since, when a tune over several sketches began to return
//! the best-so-far of the whole tune instead of the sketches' histories
//! one after another; every other field is as generated. Regenerate (only
//! when an intended change alters the search trajectory) with
//! `cargo test -p tir-autoschedule --test tune_golden -- --ignored`.

#[path = "../../../tests/corpus/golden.rs"]
mod golden;

use golden::fnv1a;
use tir::structural::structural_hash;
use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, OpKind};

const GOLDEN: &str = include_str!("golden/tune_results.txt");
/// (trials, seed) of each row an operator gets.
const ROWS: [(usize, u64); 4] = [(64, 1), (64, 2), (64, 3), (16, 1)];

fn outcomes() -> String {
    let reg = builtin_registry();
    let targets = [
        ("sim_gpu", Machine::sim_gpu(), DataType::float16()),
        ("sim_arm", Machine::sim_arm(), DataType::int8()),
    ];
    let mut out = String::new();
    for (machine_name, machine, dtype) in &targets {
        let cases = bench_suite(*dtype).into_iter().filter(|c| {
            *dtype == DataType::float16() || matches!(c.kind, OpKind::GMM | OpKind::C2D)
        });
        for case in cases {
            for (trials, seed) in ROWS {
                let opts = TuneOptions {
                    trials,
                    seed,
                    num_threads: 1,
                    ..Default::default()
                };
                let r = tune_workload(&case.func, machine, &reg, Strategy::TensorIr, &opts);
                out.push_str(&format!(
                    "{machine_name} {} trials={trials} seed={seed} best={:016x} time={:016x} \
                     cost={:016x} measured={} hits={} wasted={} quarantined={} history={:016x}\n",
                    case.kind.label(),
                    r.best.as_ref().map_or(0, structural_hash),
                    r.best_time.to_bits(),
                    r.tuning_cost_s.to_bits(),
                    r.trials_measured,
                    r.cache_hits,
                    r.wasted_measurements,
                    r.quarantined,
                    fnv1a(r.history.iter().flat_map(|t| t.to_bits().to_le_bytes())),
                ));
            }
        }
    }
    out
}

#[test]
fn tune_results_match_golden() {
    golden::assert_matches_golden(GOLDEN, &outcomes(), "tune results");
    assert_eq!(GOLDEN.lines().count(), 10 * ROWS.len());
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tune_results.txt");
    golden::rewrite(path, &outcomes());
}
