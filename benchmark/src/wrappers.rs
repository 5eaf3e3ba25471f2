//! Benchmark-side wrappers that put spans around the two interfaces the
//! real search calls through — [`SketchRule`] and [`Measurer`] — so a
//! traced tune is the unmodified `tune_multi_with` with timers on its
//! doors. They also capture what went through (candidate programs, the
//! measured sample sequence) for the replayed stages the doors cannot see
//! (`structural_hash`, `summarize`, feature extraction, GBDT refit).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tir::PrimFunc;
use tir_autoschedule::{
    build_sketches, tune_multi_with, Decision, DecisionKind, MeasureCtx, MeasureError, Measurer,
    SimMeasurer, SketchRule, Strategy, TuneOptions, TuneResult,
};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_schedule::ScheduleError;
use tir_tensorize::IntrinRegistry;

use crate::spans::Recorder;

pub const SPAN_TUNE: &str = "tir-autoschedule.search.tune";
pub const SPAN_BUILD: &str = "tir-autoschedule.sketch.build";
pub const SPAN_APPLY: &str = "tir-schedule.apply";
pub const SPAN_PROPOSE: &str = "tir-autoschedule.sketch.propose";
pub const SPAN_SIMULATE: &str = "tir-exec.cost.simulate";

/// How many candidate programs one run keeps for the replayed stages.
const CANDIDATE_CAP: usize = 256;
/// Of how many searches the measured sample sequence is kept.
const SEARCH_CAP: usize = 64;

/// What the wrappers saw, shared by all of a run's traced tunes.
#[derive(Default)]
pub struct Capture {
    /// Candidate programs `apply` produced (the first [`CANDIDATE_CAP`]).
    pub candidates: Vec<PrimFunc>,
    pub apply_ok: u64,
    pub apply_err: u64,
    /// Measured programs and their times, one list per search (one sketch
    /// of one tune), in measurement order — the order the cost model was
    /// fed in.
    pub searches: Vec<Vec<(PrimFunc, f64)>>,
    /// Sum of the tunes' own counters.
    pub trials_measured: u64,
    pub cache_hits: u64,
    pub invalid_filtered: u64,
    pub tunes: u64,
}

/// The wrappers' counters at one moment.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub apply_ok: u64,
    pub apply_err: u64,
    pub trials_measured: u64,
    pub cache_hits: u64,
    pub invalid_filtered: u64,
}

impl Capture {
    pub fn counts(&self) -> Counts {
        Counts {
            apply_ok: self.apply_ok,
            apply_err: self.apply_err,
            trials_measured: self.trials_measured,
            cache_hits: self.cache_hits,
            invalid_filtered: self.invalid_filtered,
        }
    }
}

/// Recorder + capture + the sketch whose search is running.
pub struct TraceCtx<'r> {
    pub rec: &'r Recorder,
    capture: Mutex<Capture>,
    next_search: AtomicUsize,
    current_search: AtomicUsize,
}

impl<'r> TraceCtx<'r> {
    pub fn new(rec: &'r Recorder) -> TraceCtx<'r> {
        TraceCtx {
            rec,
            capture: Mutex::new(Capture::default()),
            next_search: AtomicUsize::new(0),
            current_search: AtomicUsize::new(0),
        }
    }

    /// Searches (one sketch of one tune each) started so far.
    pub fn searches_run(&self) -> usize {
        self.next_search.load(Ordering::Relaxed)
    }

    pub fn capture(&self) -> std::sync::MutexGuard<'_, Capture> {
        self.capture.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct TimedSketch<'a> {
    inner: &'a dyn SketchRule,
    ctx: &'a TraceCtx<'a>,
    /// Index of this sketch's search in [`Capture::searches`].
    search: usize,
}

impl SketchRule for TimedSketch<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> Vec<DecisionKind> {
        self.inner.space()
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let out = {
            let _span = self.ctx.rec.enter(SPAN_APPLY);
            self.inner.apply(decisions)
        };
        // `Relaxed`: a statistic of which search is running, read by the
        // measurer on the same thread.
        self.ctx
            .current_search
            .store(self.search, Ordering::Relaxed);
        let mut cap = self.ctx.capture();
        match &out {
            Ok(f) => {
                cap.apply_ok += 1;
                if cap.candidates.len() < CANDIDATE_CAP {
                    cap.candidates.push(f.clone());
                }
            }
            Err(_) => cap.apply_err += 1,
        }
        out
    }

    fn sample(&self, rng: &mut StdRng) -> Vec<Decision> {
        let _span = self.ctx.rec.enter(SPAN_PROPOSE);
        self.inner.sample(rng)
    }

    fn mutate(&self, decisions: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        let _span = self.ctx.rec.enter(SPAN_PROPOSE);
        self.inner.mutate(decisions, rng)
    }

    fn crossover(&self, a: &[Decision], b: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        let _span = self.ctx.rec.enter(SPAN_PROPOSE);
        self.inner.crossover(a, b, rng)
    }
}

struct TimedMeasurer<'a> {
    ctx: &'a TraceCtx<'a>,
}

impl Measurer for TimedMeasurer<'_> {
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        mctx: &MeasureCtx,
    ) -> Result<f64, MeasureError> {
        let out = {
            let _span = self.ctx.rec.enter(SPAN_SIMULATE);
            SimMeasurer.measure(func, machine, mctx)
        };
        if let Ok(t) = out {
            let search = self.ctx.current_search.load(Ordering::Relaxed);
            let mut cap = self.ctx.capture();
            if search < SEARCH_CAP {
                if cap.searches.len() <= search {
                    cap.searches.resize_with(search + 1, Vec::new);
                }
                cap.searches[search].push((func.clone(), t));
            }
        }
        out
    }
}

/// One tune through the same public calls `tune_workload` makes
/// (`build_sketches`, then `tune_multi_with`). With the recorder enabled
/// the sketches and the simulator are wrapped; disabled, this *is*
/// `tune_workload`'s body.
pub fn tune_traced(
    ctx: &TraceCtx<'_>,
    func: &PrimFunc,
    machine: &Machine,
    intrins: &IntrinRegistry,
    opts: &TuneOptions,
) -> TuneResult {
    let _tune = ctx.rec.enter(SPAN_TUNE);
    let sketches = {
        let _span = ctx.rec.enter(SPAN_BUILD);
        build_sketches(func, machine, intrins, Strategy::TensorIr)
    };
    let timed: Vec<TimedSketch<'_>> = sketches
        .iter()
        .map(|s| TimedSketch {
            inner: s.as_ref(),
            ctx,
            search: ctx.next_search.fetch_add(1, Ordering::Relaxed),
        })
        .collect();
    let refs: Vec<&dyn SketchRule> = timed.iter().map(|s| s as &dyn SketchRule).collect();
    let result = tune_multi_with(&refs, machine, opts, &TimedMeasurer { ctx });
    let mut cap = ctx.capture();
    cap.tunes += 1;
    cap.trials_measured += result.trials_measured as u64;
    cap.cache_hits += result.cache_hits as u64;
    cap.invalid_filtered += result.invalid_filtered as u64;
    result
}
