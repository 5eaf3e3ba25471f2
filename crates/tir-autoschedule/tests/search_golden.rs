//! Golden search runs: the byte-identity gate for any change to
//! `tune_with`, the one search entry point.
//!
//! `tune_golden.rs` pins what a tune finds; this file pins everything a
//! tune leaves behind. A line of `tests/golden/search_runs.txt` is one
//! traced, checkpointed run of at most 32 trials: every `TuneResult` field
//! (floats as bits, the printed best program and `history` as FNV-1a), the
//! FNV-1a of `TraceReport::to_json()` and of the checkpoint file the run
//! ends with. So `invalid_filtered`, `failed_measurements`, `retries`,
//! `resumed_from_generation` and every span, counter and measurement event
//! are pinned here.
//!
//! The runs: five sketch kinds (`gpu-tensor` GMM, `gpu-tensor-nostage`
//! C2D, `gpu-scalar` C2D, `cpu-tensor` GMM, `cpu-scalar` T2D), each with
//! default options and under transient faults plus compile rejects; then
//! the cost model, the validation filter and the candidate cache each
//! switched off, a warm start, a run stopped after two generations and its
//! resume, and one tune over both TensorIR sketches of C2D. All of it at
//! one and at four threads, which must agree on everything but the farm's
//! makespan.
//!
//! The file was written by the single-function `tune_with` that the staged
//! search replaced. The two `multi C2D` lines moved once since, in
//! `history=` and `ckpt=` only, when a tune over several sketches became
//! one tune with one best-so-far history and one checkpoint file. Regenerate (only when the search is *meant* to change)
//! with `cargo test -p tir-autoschedule --test search_golden -- --ignored`.

#[path = "../../../tests/corpus/golden.rs"]
mod golden;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use golden::fnv1a;
use tir::{DataType, PrimFunc};
use tir_autoschedule::{
    build_sketches, tune_with, FaultInjector, FaultPlan, Measurer, SimMeasurer, SketchRule,
    Strategy, TuneOptions, TuneResult, WarmStart,
};
use tir_exec::machine::Machine;
use tir_tensorize::builtin_registry;
use tir_trace::Collector;
use tir_workloads::ops;

const GOLDEN: &str = include_str!("golden/search_runs.txt");

/// The sketch named `name` among those `build_sketches` makes.
fn sketch(
    func: &PrimFunc,
    machine: &Machine,
    strategy: Strategy,
    name: &str,
) -> Box<dyn SketchRule> {
    build_sketches(func, machine, &builtin_registry(), strategy)
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("no {name} sketch"))
}

/// Reads and removes the checkpoint file of a run.
fn take_checkpoint(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    bytes
}

struct Runner {
    threads: usize,
    out: String,
}

impl Runner {
    /// `base` at 32 trials and this runner's thread count, traced into a
    /// fresh collector and checkpointed to the file named after `label`.
    fn opts(&self, label: &str, base: TuneOptions) -> (TuneOptions, Arc<Collector>, PathBuf) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("search_golden");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join(format!("{}-t{}", label.replace(' ', "_"), self.threads));
        let trace = Arc::new(Collector::new());
        let opts = TuneOptions {
            trials: 32,
            num_threads: self.threads,
            trace: Some(trace.clone()),
            checkpoint_path: Some(path.clone()),
            ..base
        };
        (opts, trace, path)
    }

    /// Appends the golden line of a finished run.
    fn record(&mut self, label: &str, r: &TuneResult, trace: &Collector, checkpoint: &[u8]) {
        self.out.push_str(&format!(
            "{label}: best={:016x} time={:016x} measured={} invalid={} wasted={} cost={:016x} \
             history={:016x}/{} hits={} failed={} retries={} quarantined={} resumed={:?} \
             trace={:016x} ckpt={:016x}/{}\n",
            r.best.as_ref().map_or(0, |f| fnv1a(f.to_string().bytes())),
            r.best_time.to_bits(),
            r.trials_measured,
            r.invalid_filtered,
            r.wasted_measurements,
            r.tuning_cost_s.to_bits(),
            fnv1a(r.history.iter().flat_map(|t| t.to_bits().to_le_bytes())),
            r.history.len(),
            r.cache_hits,
            r.failed_measurements,
            r.retries,
            r.quarantined,
            r.resumed_from_generation,
            fnv1a(trace.report().to_json().bytes()),
            fnv1a(checkpoint.iter().copied()),
            checkpoint.len(),
        ));
    }

    /// One `tune_with` run from no checkpoint, recorded.
    fn run(
        &mut self,
        label: &str,
        sketch: &dyn SketchRule,
        machine: &Machine,
        measurer: &dyn Measurer,
        base: TuneOptions,
    ) -> TuneResult {
        let (opts, trace, path) = self.opts(label, base);
        take_checkpoint(&path);
        let r = tune_with(&[sketch], machine, &opts, measurer);
        let checkpoint = take_checkpoint(&path);
        self.record(label, &r, &trace, &checkpoint);
        r
    }
}

fn outcomes(threads: usize) -> String {
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let (f16, i8, i32) = (DataType::float16(), DataType::int8(), DataType::int32());
    let (tir, amos) = (Strategy::TensorIr, Strategy::Amos);
    let wmma = "wmma_16x16x16_f16";
    // At 512³ warp-budget violations are common, so the wmma sketch builds
    // invalid candidates.
    let gmm_gpu = ops::gmm(512, 512, 512, f16, f16);
    let c2d_gpu = ops::c2d(1, 16, 16, 64, 64, 3, 3, 1, f16);
    let gmm_arm = ops::gmm(128, 128, 128, i8, i32);
    let t2d_arm = ops::t2d(1, 14, 14, 16, 16, 3, 3, 2, i8);
    let runs = [
        ("GMM", &gmm_gpu, &gpu, tir, format!("gpu-tensor[{wmma}]")),
        (
            "C2D",
            &c2d_gpu,
            &gpu,
            amos,
            format!("gpu-tensor-nostage[{wmma}]"),
        ),
        ("C2D", &c2d_gpu, &gpu, tir, "gpu-scalar".into()),
        (
            "GMM",
            &gmm_arm,
            &arm,
            tir,
            "cpu-tensor[sdot_4x4x4_i8]".into(),
        ),
        ("T2D", &t2d_arm, &arm, tir, "cpu-scalar".into()),
    ];
    let runs: Vec<(String, Box<dyn SketchRule>, &Machine)> = (runs.into_iter())
        .map(|(op, func, machine, strategy, name)| {
            let label = format!("{name} {op}");
            (label, sketch(func, machine, strategy, &name), machine)
        })
        .collect();
    let faults = FaultInjector::sim(FaultPlan {
        compile_reject_rate: 0.1,
        ..FaultPlan::transient(0.2)
    });
    let mut runner = Runner {
        threads,
        out: String::new(),
    };
    let mut results = Vec::new();
    for (name, sketch, machine) in &runs {
        for (what, measurer) in [
            ("defaults", &SimMeasurer as &dyn Measurer),
            ("faults", &faults),
        ] {
            let label = format!("{name} {what}");
            let r = runner.run(&label, &**sketch, machine, measurer, TuneOptions::default());
            results.push(r);
        }
    }

    // Each switch off: the cost model and the cache on the scalar C2D
    // sketch, whose model gets a split and ranks; the validation filter on
    // the wmma GMM sketch, whose invalid candidates then waste trials.
    let no_model = TuneOptions {
        use_cost_model: false,
        ..Default::default()
    };
    let no_cache = TuneOptions {
        use_candidate_cache: false,
        ..Default::default()
    };
    let no_validation = TuneOptions {
        validate_before_measure: false,
        ..Default::default()
    };
    // A warm start from the unscheduled program, timed at the midpoint of
    // the scalar C2D defaults run's history: it holds `best` until the
    // search beats it.
    let cold = &results[2 * 2];
    let warm = TuneOptions {
        warm_start: Some(WarmStart {
            best: c2d_gpu.clone(),
            best_time: cold.history[cold.history.len() / 2],
        }),
        ..Default::default()
    };
    for (run, what, opts) in [
        (2, "no-cost-model", no_model),
        (2, "no-cache", no_cache),
        (0, "no-validation", no_validation),
        (2, "warm-start", warm),
    ] {
        let (name, sketch, machine) = &runs[run];
        runner.run(
            &format!("{name} {what}"),
            &**sketch,
            machine,
            &SimMeasurer,
            opts,
        );
    }

    // Stopped after two generations under faults, then resumed from its log.
    let (name, wmma, _) = &runs[0];
    let wmma = &**wmma;
    let stopped = format!("{name} two-generations");
    let two = TuneOptions {
        max_generations: Some(2),
        ..Default::default()
    };
    let (opts, trace, path) = runner.opts(&stopped, two);
    take_checkpoint(&path);
    let r = tune_with(&[wmma], &gpu, &opts, &faults);
    let checkpoint = std::fs::read(&path).expect("a checkpoint after two generations");
    runner.record(&stopped, &r, &trace, &checkpoint);
    let (opts, trace, _) = runner.opts(&stopped, TuneOptions::default());
    let r = tune_with(&[wmma], &gpu, &opts, &faults);
    let checkpoint = take_checkpoint(&path);
    runner.record(&format!("{stopped} resumed"), &r, &trace, &checkpoint);

    // Every TensorIR sketch of one operator, jointly.
    let sketches = build_sketches(&c2d_gpu, &gpu, &builtin_registry(), tir);
    let sketches: Vec<&dyn SketchRule> = sketches.iter().map(|s| &**s).collect();
    let names: Vec<&str> = sketches.iter().map(|s| s.name()).collect();
    let multi = format!("multi C2D {}", names.join(" + "));
    let (opts, trace, path) = runner.opts("multi C2D", TuneOptions::default());
    take_checkpoint(&path);
    let r = tune_with(&sketches, &gpu, &opts, &SimMeasurer);
    let checkpoint = take_checkpoint(&path);
    runner.record(&multi, &r, &trace, &checkpoint);
    runner.out
}

/// The runs at one and at four threads, which agree on everything but
/// `cost`: the makespan of the simulated build+measure farm, which
/// `num_threads` widens.
fn golden_text() -> String {
    let (serial, parallel) = (outcomes(1), outcomes(4));
    let without_cost = |text: &str| -> Vec<String> {
        (text.lines())
            .map(|l| {
                let (head, tail) = l.split_once(" cost=").expect("a cost field");
                format!("{head}{}", &tail[tail.find(' ').unwrap_or(tail.len())..])
            })
            .collect()
    };
    assert_eq!(
        without_cost(&serial),
        without_cost(&parallel),
        "four threads wrote other lines"
    );
    let tagged = |threads: usize, text: &str| -> String {
        (text.lines())
            .map(|l| format!("threads={threads} {l}\n"))
            .collect()
    };
    tagged(1, &serial) + &tagged(4, &parallel)
}

#[test]
fn search_runs_match_golden() {
    golden::assert_matches_golden(GOLDEN, &golden_text(), "search runs");
    assert_eq!(GOLDEN.lines().count(), 2 * 17);
    for zero in [
        " invalid=0 ",
        " wasted=0 ",
        " failed=0 ",
        " retries=0 ",
        " quarantined=0 ",
    ] {
        assert!(
            GOLDEN.lines().any(|l| !l.contains(zero)),
            "no run has a nonzero{zero}: the file would not notice it move"
        );
    }
    assert!(GOLDEN.contains(" resumed=Some(2) "), "no run resumed");
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    golden::rewrite(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/search_runs.txt"),
        &golden_text(),
    );
}
