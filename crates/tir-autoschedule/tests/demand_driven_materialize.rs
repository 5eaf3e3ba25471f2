//! The stopping rule of demand-driven materialization (`search.rs`,
//! "Selection pulls, materialization follows"): a generation whose scorer
//! cannot rank builds candidates in slot order only until its measurement
//! batch is full; every other generation builds its whole population. What
//! the rule must *not* change — the search trajectory — is
//! `tune_golden.rs`'s job; these tests pin down how many candidates get
//! built, and that thread count, kill-and-resume and quarantine leave
//! that number and everything else alone.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tir::structural::structural_hash;
use tir::{DataType, PrimFunc};
use tir_autoschedule::sketch_gpu::{GpuScalarSketch, GpuTensorSketch};
use tir_autoschedule::{
    tune_with, CountingSketch, Decision, DecisionKind, FaultInjector, FaultPlan, MeasureCtx,
    MeasureError, Measurer, SimMeasurer, SketchRule, TuneOptions, TuneResult,
};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_schedule::ScheduleError;
use tir_tensorize::builtin_registry;
use tir_trace::{Collector, TraceReport};
use tir_workloads::{bench_suite, OpKind};

/// wmma sketch of an `n`³ float16 matmul. At 512 warp-budget violations
/// are common, so prefixes contain invalid candidates.
fn wmma_sketch(n: i64) -> GpuTensorSketch {
    let func = tir::builder::matmul_func("mm", n, n, n, DataType::float16());
    let reg = builtin_registry();
    let wmma = reg.get("wmma_16x16x16_f16").unwrap();
    GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch")
}

/// Scalar sketch of a 128³ matmul: measured times differ from the first
/// generation on, so the ensemble gets a split and later generations rank.
fn scalar_sketch() -> GpuScalarSketch {
    GpuScalarSketch::new(&tir::builder::matmul_func(
        "mm",
        128,
        128,
        128,
        DataType::float16(),
    ))
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// One traced tune through a counting wrapper: the result, the wrapper's
/// `apply` count and the trace report.
fn counted(sketch: &dyn SketchRule, opts: &TuneOptions) -> (TuneResult, usize, TraceReport) {
    let counting = CountingSketch::new(sketch);
    let trace = Arc::new(Collector::new());
    let opts = TuneOptions {
        trace: Some(trace.clone()),
        ..opts.clone()
    };
    let r = tune_with(&[&counting], &Machine::sim_gpu(), &opts, &SimMeasurer);
    (r, counting.applies(), trace.report())
}

/// Trial budget a result consumed: each unit is one selected candidate.
fn selected(r: &TuneResult) -> usize {
    r.trials_measured + r.wasted_measurements + r.failed_measurements
}

fn assert_counters_add_up(report: &TraceReport) {
    assert_eq!(
        report.counter("search.materialized") + report.counter("search.materialize_skipped"),
        report.counter("search.proposed")
    );
}

#[test]
fn a_feature_blind_generation_builds_its_batch_and_no_more() {
    let sketch = wmma_sketch(512);
    // The first generation never has a model.
    let first = TuneOptions {
        max_generations: Some(1),
        num_threads: 1,
        ..Default::default()
    };
    let (r, applies, report) = counted(&sketch, &first);
    assert_eq!(r.trials_measured, first.measure_per_generation);
    assert!(
        r.invalid_filtered > 0,
        "the prefix should hold invalid slots"
    );
    assert_eq!(applies, selected(&r) + r.invalid_filtered);
    assert_eq!(report.counter("search.materialized"), applies as u64);
    assert!(report.counter("search.materialize_skipped") > 0);
    assert_counters_add_up(&report);

    // Without a cost model no generation ever ranks.
    let unranked = TuneOptions {
        use_cost_model: false,
        num_threads: 1,
        ..Default::default()
    };
    let (r, applies, report) = counted(&sketch, &unranked);
    assert_eq!(selected(&r), unranked.trials);
    assert_eq!(applies, selected(&r) + r.invalid_filtered);
    assert_eq!(report.counter("search.materialized"), applies as u64);
    assert_counters_add_up(&report);
}

#[test]
fn without_the_validation_filter_every_slot_is_built() {
    // Invalid candidates rank first, so which slots are invalid decides
    // the batch: nothing can be skipped.
    let opts = TuneOptions {
        validate_before_measure: false,
        trials: 24,
        num_threads: 1,
        ..Default::default()
    };
    let (r, applies, report) = counted(&wmma_sketch(512), &opts);
    assert!(r.wasted_measurements > 0);
    assert_eq!(report.counter("search.proposed"), applies as u64);
    assert_eq!(report.counter("search.materialize_skipped"), 0);
}

#[test]
fn a_model_with_a_split_gets_the_whole_population() {
    // Generation by generation: a run stopped after `g` generations gives
    // the cumulative counts, and its trace says whether generation `g`
    // ranked — a generation that ranks materializes every slot it
    // proposed — so the test checks each generation against its own rule.
    let sketch = scalar_sketch();
    let (mut lazy, mut eager) = (0, 0);
    let mut before = [0usize; 4];
    for g in 0..5u64 {
        let opts = TuneOptions {
            trials: 40,
            num_threads: 1,
            max_generations: Some(g + 1),
            ..Default::default()
        };
        let (r, applies, report) = counted(&sketch, &opts);
        let now = [
            applies,
            selected(&r) + r.invalid_filtered,
            report.counter("search.proposed") as usize,
            report.counter("search.materialized") as usize,
        ];
        let [applies, read, proposed, materialized] = std::array::from_fn(|i| now[i] - before[i]);
        before = now;
        // Generation 0 has no samples, so it cannot rank whatever it built.
        if g > 0 && materialized == proposed {
            assert_eq!(applies, proposed, "generation {g} ranks: build every slot");
            eager += usize::from(applies > read);
        } else {
            assert_eq!(applies, read, "generation {g} cannot rank: build the batch");
            lazy += usize::from(applies < proposed);
        }
    }
    assert!(
        lazy > 0 && eager > 0,
        "the tune should mix both kinds of generation ({lazy} lazy, {eager} eager)"
    );
}

#[test]
fn thread_count_changes_neither_result_nor_trace() {
    // The scalar tune mixes lazy and eager generations (test above).
    let sketch = scalar_sketch();
    let run = |num_threads: usize| {
        let opts = TuneOptions {
            trials: 40,
            num_threads,
            ..Default::default()
        };
        counted(&sketch, &opts)
    };
    let (serial, serial_applies, serial_report) = run(1);
    let materialized = serial_report.counter("search.materialized");
    assert_eq!(serial_applies as u64, materialized);
    assert!(serial_report.counter("search.materialize_skipped") > 0);
    assert!(materialized > (selected(&serial) + serial.invalid_filtered) as u64);
    for threads in [2usize, 4] {
        let (r, applies, report) = run(threads);
        assert_eq!(
            r.best.as_ref().map(ToString::to_string),
            serial.best.as_ref().map(ToString::to_string)
        );
        assert_eq!(r.best_time.to_bits(), serial.best_time.to_bits());
        assert_eq!(r.history, serial.history);
        assert_eq!(r.trials_measured, serial.trials_measured);
        assert_eq!(r.invalid_filtered, serial.invalid_filtered);
        assert_eq!(r.cache_hits, serial.cache_hits);
        assert_eq!(r.quarantined, serial.quarantined);
        assert_eq!(
            report.to_json(),
            serial_report.to_json(),
            "{threads} threads"
        );
        // A parallel wave may build slots past the sequential stopping
        // slot; they are dropped, never counted.
        assert!(applies as u64 >= materialized);
    }
}

#[test]
fn a_run_killed_after_a_lazy_generation_resumes_identically() {
    let sketch = wmma_sketch(512);
    let machine = Machine::sim_gpu();
    let base = TuneOptions {
        trials: 32,
        num_threads: 2,
        ..Default::default()
    };
    let uninterrupted = tune_with(&[&sketch], &machine, &base, &SimMeasurer);
    assert!(uninterrupted.invalid_filtered > 0);
    let path = tmp_path("lazy-resume.ckpt");
    // Generation 0 is always lazy.
    let killed = TuneOptions {
        checkpoint_path: Some(path.clone()),
        max_generations: Some(1),
        ..base.clone()
    };
    assert!(
        tune_with(&[&sketch], &machine, &killed, &SimMeasurer).trials_measured
            < uninterrupted.trials_measured
    );
    let resumed = tune_with(
        &[&sketch],
        &machine,
        &TuneOptions {
            checkpoint_path: Some(path.clone()),
            ..base
        },
        &SimMeasurer,
    );
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.resumed_from_generation, Some(1));
    assert_eq!(
        resumed.best.as_ref().map(ToString::to_string),
        uninterrupted.best.as_ref().map(ToString::to_string)
    );
    assert_eq!(
        resumed.best_time.to_bits(),
        uninterrupted.best_time.to_bits()
    );
    assert_eq!(
        resumed.tuning_cost_s.to_bits(),
        uninterrupted.tuning_cost_s.to_bits()
    );
    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(resumed.trials_measured, uninterrupted.trials_measured);
    assert_eq!(resumed.invalid_filtered, uninterrupted.invalid_filtered);
    assert_eq!(resumed.cache_hits, uninterrupted.cache_hits);
}

/// What went through the two doors of a search, in order.
enum Event {
    /// `apply` returned this program (`None`: invalid).
    Built(Option<u64>),
    /// The toolchain deterministically refused this program.
    Rejected(u64),
}

/// Logs every `apply` call: the search makes one per slot it builds, and
/// the scalar sketch answering a repeated form from its memo is still a
/// call.
struct LoggingSketch<'a> {
    inner: &'a dyn SketchRule,
    log: &'a Mutex<Vec<Event>>,
}

impl SketchRule for LoggingSketch<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> Vec<DecisionKind> {
        self.inner.space()
    }
    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let out = self.inner.apply(decisions);
        let built = Event::Built(out.as_ref().ok().map(structural_hash));
        self.log.lock().unwrap().push(built);
        out
    }
    fn sample(&self, rng: &mut StdRng) -> Vec<Decision> {
        self.inner.sample(rng)
    }
}

struct LoggingMeasurer<'a, M> {
    inner: M,
    log: &'a Mutex<Vec<Event>>,
}

impl<M: Measurer> Measurer for LoggingMeasurer<'_, M> {
    fn measure(&self, f: &PrimFunc, m: &Machine, ctx: &MeasureCtx) -> Result<f64, MeasureError> {
        let out = self.inner.measure(f, m, ctx);
        if matches!(out, Err(MeasureError::CompileReject(_))) {
            self.log
                .lock()
                .unwrap()
                .push(Event::Rejected(ctx.candidate));
        }
        out
    }
}

#[test]
fn a_quarantined_prefix_candidate_pulls_one_slot_further() {
    // A third of all programs fail to compile, deterministically. Distinct
    // decision vectors of the scalar sketch often build the same program,
    // so later generations re-propose quarantined ones. With no cost model
    // every generation is a prefix scan; one thread keeps the log in
    // search order.
    let c1d = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::C1D)
        .expect("suite case");
    let sketch = GpuScalarSketch::new(&c1d.func);
    let log = Mutex::new(Vec::new());
    let logging = LoggingSketch {
        inner: &sketch,
        log: &log,
    };
    let measurer = LoggingMeasurer {
        inner: FaultInjector::sim(FaultPlan {
            compile_reject_rate: 0.3,
            ..Default::default()
        }),
        log: &log,
    };
    let opts = TuneOptions {
        trials: 24,
        use_cost_model: false,
        num_threads: 1,
        ..Default::default()
    };
    let r = tune_with(&[&logging], &Machine::sim_gpu(), &opts, &measurer);

    // Replay the log: a built program that was already quarantined cannot
    // fill a batch slot, so the scan had to build one more.
    let mut quarantine = std::collections::HashSet::new();
    let (mut built, mut invalid, mut skipped) = (0, 0, 0);
    for event in log.into_inner().unwrap() {
        match event {
            Event::Built(None) => (built, invalid) = (built + 1, invalid + 1),
            Event::Built(Some(hash)) => {
                built += 1;
                skipped += usize::from(quarantine.contains(&hash));
            }
            Event::Rejected(hash) => {
                quarantine.insert(hash);
            }
        }
    }
    assert_eq!(r.quarantined, quarantine.len());
    assert!(skipped > 0, "no quarantined program was ever re-proposed");
    assert_eq!(invalid, r.invalid_filtered);
    assert_eq!(built, selected(&r) + invalid + skipped);
    // The scan never stalls on them: the whole budget is spent.
    assert_eq!(selected(&r), opts.trials);
    assert!(r.best.is_some());
}
