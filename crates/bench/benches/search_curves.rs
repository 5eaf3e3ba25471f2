//! Search-efficiency curves: best program found vs. trials spent, the
//! measure by which "Learning to Optimize Tensor Programs" and "Toward
//! Compiler World Models" judge a tuner.
//!
//! For the Table-1 operator set — the eight `bench_suite(float16)`
//! operators on `sim_gpu` and GMM and C2D int8 on `sim_arm` — seeds 1–3,
//! and both arms of `use_cost_model`, one `tune_workload`
//! (`Strategy::TensorIr`, 128 trials, one worker) records its best-so-far
//! curve, `TuneResult::history`: the best of the whole tune over all its
//! sketches after each trial. Each row of `BENCH_search.json` gives,
//! in simulated microseconds:
//!
//! * `ceiling_us` — the best time `tests/golden/sim_census.txt` records
//!   for the operator over every sketch (40 random vectors each); a tune
//!   may beat it;
//! * `best_us` — best-so-far after 8/16/32/64/128 trials (after all of
//!   them when the tune spent fewer; `spent` says how many it did), `null`
//!   before the first valid measurement;
//! * `trials_to_5pct` — the first trial whose best-so-far is within 5% of
//!   the ceiling, `null` if none is;
//! * `auc` — the mean over all 128 trials of `ceiling / best-so-far`
//!   (0 before the first valid measurement; a trial past `spent` counts
//!   the final best), 1 for a tune at the ceiling from its first trial.
//!
//! No threshold applies: today's curves are flat by construction on most
//! GPU operators, and that flatness is the baseline later simulator and
//! search changes move. `--check` makes it a CI gate on the artifact
//! itself: the JSON is well-formed, every row is present, and the bytes
//! are identical across two runs and at `num_threads` 1 and 2.
//!
//! Run with `cargo bench -p tensorir-bench --bench search_curves [-- --check]`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tensorir_bench::{print_table, registry};
use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_exec::TimeBreakdown;
use tir_tensorize::IntrinRegistry;
use tir_trace::{is_well_formed_json, json_f64};
use tir_workloads::{bench_suite, BenchCase, OpKind};

const TRIALS: usize = 128;
const CHECKPOINTS: [usize; 5] = [8, 16, 32, 64, 128];
const SEEDS: [u64; 3] = [1, 2, 3];
const WITHIN: f64 = 1.05;
const CENSUS: &str = include_str!("../../tir-autoschedule/tests/golden/sim_census.txt");

/// The census's best total time per `(machine, operator)`, over every
/// sketch: a candidate line is `seed compute memory launch ...` in f64 bits,
/// priced by [`TimeBreakdown::total`].
fn census_ceilings() -> BTreeMap<(String, String), f64> {
    let mut best = BTreeMap::new();
    let mut key = None;
    for line in CENSUS.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            let mut words = header.split(' ');
            let (machine, op) = (words.next(), words.next());
            key = Some((
                machine.unwrap_or("").to_string(),
                op.unwrap_or("").to_string(),
            ));
            continue;
        }
        let bits: Vec<f64> = (line.split(' ').skip(1).take(3))
            .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("census bits")))
            .collect();
        let total = TimeBreakdown {
            compute_s: bits[0],
            memory_s: bits[1],
            launch_s: bits[2],
        }
        .total();
        let slot = best
            .entry(key.clone().expect("a census header"))
            .or_insert(f64::INFINITY);
        *slot = f64::min(*slot, total);
    }
    best
}

/// The operators of the curves: `(machine label, machine, case)`.
fn operators() -> Vec<(&'static str, Machine, BenchCase)> {
    let gpu = bench_suite(DataType::float16())
        .into_iter()
        .map(|c| ("sim_gpu", Machine::sim_gpu(), c));
    let arm = bench_suite(DataType::int8())
        .into_iter()
        .filter(|c| matches!(c.kind, OpKind::GMM | OpKind::C2D))
        .map(|c| ("sim_arm", Machine::sim_arm(), c));
    gpu.chain(arm).collect()
}

/// One tune's curve, reduced to what the artifact records.
struct Curve {
    machine: &'static str,
    op: &'static str,
    seed: u64,
    cost_model: bool,
    /// Trial budget the tune spent (the length of its history).
    spent: usize,
    ceiling: f64,
    /// Best-so-far at each of [`CHECKPOINTS`] (infinite before the first
    /// valid measurement).
    best: Vec<f64>,
    trials_to_5pct: Option<usize>,
    auc: f64,
}

impl Curve {
    fn new(
        (machine, op, seed, cost_model): (&'static str, &'static str, u64, bool),
        ceiling: f64,
        history: &[f64],
    ) -> Curve {
        // Best-so-far after `trial` trials, or after all of them.
        let at = |trial: usize| {
            (history[..trial.min(history.len())].last()).map_or(f64::INFINITY, |b| *b)
        };
        let quality = |b: f64| if b.is_finite() { ceiling / b } else { 0.0 };
        Curve {
            machine,
            op,
            seed,
            cost_model,
            spent: history.len(),
            ceiling,
            best: CHECKPOINTS.iter().map(|&t| at(t)).collect(),
            trials_to_5pct: history
                .iter()
                .position(|&b| b <= ceiling * WITHIN)
                .map(|i| i + 1),
            auc: (1..=TRIALS).map(|t| quality(at(t))).sum::<f64>() / TRIALS as f64,
        }
    }

    /// The curve as one line of JSON, times in simulated microseconds.
    fn json(&self) -> String {
        let best_us: Vec<String> = self.best.iter().map(|b| json_f64(b * 1e6)).collect();
        format!(
            "{{\"machine\": \"{}\", \"op\": \"{}\", \"seed\": {}, \"cost_model\": {}, \
             \"spent\": {}, \"ceiling_us\": {}, \"best_us\": [{}], \"trials_to_5pct\": {}, \
             \"auc\": {}}}",
            self.machine,
            self.op,
            self.seed,
            self.cost_model,
            self.spent,
            json_f64(self.ceiling * 1e6),
            best_us.join(", "),
            self.trials_to_5pct
                .map_or("null".to_string(), |t| t.to_string()),
            json_f64(self.auc)
        )
    }

    /// The curve as a table row: best-so-far over the ceiling.
    fn cells(&self) -> Vec<String> {
        let mut cells = vec![
            format!("{} {}", self.machine, self.op),
            self.seed.to_string(),
            if self.cost_model { "on" } else { "off" }.to_string(),
            self.spent.to_string(),
        ];
        cells.extend(self.best.iter().map(|b| format!("{:.3}", b / self.ceiling)));
        cells.push(
            self.trials_to_5pct
                .map_or("-".to_string(), |t| t.to_string()),
        );
        cells.push(format!("{:.3}", self.auc));
        cells
    }
}

/// Every curve, tuned with `num_threads` workers.
fn curves(intrins: &IntrinRegistry, num_threads: usize) -> Vec<Curve> {
    let ceilings = census_ceilings();
    let mut out = Vec::new();
    for (machine_label, machine, case) in operators() {
        let op = case.kind.label();
        let ceiling = ceilings[&(machine_label.to_string(), op.to_string())];
        for cost_model in [true, false] {
            for seed in SEEDS {
                let opts = TuneOptions {
                    trials: TRIALS,
                    seed,
                    use_cost_model: cost_model,
                    num_threads,
                    ..Default::default()
                };
                let r = tune_workload(&case.func, &machine, intrins, Strategy::TensorIr, &opts);
                let id = (machine_label, op, seed, cost_model);
                out.push(Curve::new(id, ceiling, &r.history));
            }
        }
    }
    out
}

/// The `BENCH_search.json` document.
fn document(curves: &[Curve]) -> String {
    let rows: Vec<String> = curves.iter().map(Curve::json).collect();
    format!(
        "{{\n  \"version\": 1,\n  \"trials\": {TRIALS},\n  \"checkpoints\": {CHECKPOINTS:?},\n  \
         \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    )
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let intrins = registry();
    let measured = curves(&intrins, 1);
    let rows: Vec<Vec<String>> = measured.iter().map(Curve::cells).collect();
    print_table(
        &format!("Best-so-far / census best, {TRIALS}-trial tunes (sim_census.txt ceiling)"),
        &[
            "operator", "seed", "model", "spent", "@8", "@16", "@32", "@64", "@128", "to 5%", "auc",
        ],
        &rows,
    );
    let json = document(&measured);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, &json).expect("write BENCH_search.json");
    println!("\nwrote BENCH_search.json");
    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failures = Vec::new();
    if !is_well_formed_json(&json) {
        failures.push("BENCH_search.json is not well-formed JSON".to_string());
    }
    let expected = operators().len() * 2 * SEEDS.len();
    let rows = json.matches("\"machine\": ").count();
    if rows != expected {
        failures.push(format!("{rows} rows, expected {expected}"));
    }
    if document(&curves(&intrins, 1)) != json {
        failures.push("a second run at one thread wrote different bytes".to_string());
    }
    if document(&curves(&intrins, 2)) != json {
        failures.push("two threads wrote different bytes than one".to_string());
    }
    if failures.is_empty() {
        println!("check passed: {rows} rows, well-formed, identical across runs and thread counts");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("search_curves: CHECK FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
