//! Evolutionary search with a learned cost model, validation filtering
//! (§4.4), and a simulated parallel measurement farm.
//!
//! The search samples random decision vectors for a sketch, evolves them by
//! mutation and crossover, ranks unmeasured candidates with the GBDT cost
//! model, "measures" the most promising ones on the hardware simulator, and
//! feeds the measurements back into the model. Invalid candidates (failed
//! primitives or §3.3 validation) are filtered *before* measurement; the
//! `validate_before_measure` flag exists so the ablation benchmark can show
//! what happens without the filter (wasted measurement budget).
//!
//! # One tune over several sketches
//!
//! [`tune_with`] tunes a workload over every sketch it is given, one
//! sketch after another. What decides a trajectory belongs to the sketch:
//! sketch `i` has its own search state (dedup set, elites, candidate cache,
//! quarantine, cost model, generation counter), its own trace stream, the
//! seed `opts.seed + 101·i` and an equal share of the budget, `trials / n`
//! but at least one trial. Its search ends when the share is spent or a
//! generation proposes nothing new. What belongs to the tune is shared:
//! one [`TuneResult`], whose `history` is the best-so-far of the whole
//! tune, one checkpoint file, and one count of generations against
//! `max_generations`. A sketch's `tuning_cost_s` is summed on its own and
//! then added to the tune's: float addition does not associate, and this
//! order keeps the bits a tune of each sketch on its own gives.
//!
//! # Stages
//!
//! The coordinator's loop over one sketch runs six stages per generation,
//! in order, each a function of the search state plus its inputs:
//!
//! | Stage | Reads | Writes | Traces |
//! |---|---|---|---|
//! | `propose` | elites, dedup set | dedup set | `search.evolve`, `search.proposed` |
//! | `materialize` | proposals, candidate cache, quarantine | `invalid_filtered` | `search.sketch_instantiate`, `search.feature_extract`, `search.materialized`, `search.materialize_skipped` |
//! | `score` | candidates, cost model | — | `search.model_rank` |
//! | `select` | scores, quarantine | — | — |
//! | `measure` | batch, checkpoint log | `tuning_cost_s`, checkpoint log | `search.measure`, `measure.*` |
//! | `learn` | batch, readings | result, elites, cache, quarantine, unfitted samples | `search.refit`, the other `search.*` counters, `roofline.*`, `search.candidate_time_s` |
//!
//! `materialize` records two of the six [`SEARCH_PHASES`] because building
//! a candidate and extracting its features are one per-candidate job;
//! `select` records none: it sorts scores that `score` already traced.
//! Every span is keyed `(stream, generation, COORD, phase index)`.
//!
//! `learn` only buffers its samples; the coordinator refits the cost model
//! on them (`CostModel::update`) when it next reads the model, before
//! `materialize`. At every read the model holds the same samples, in the
//! same order, as if `learn` had refitted, so every fitted model is the
//! same; the samples of a search's last generation, which nothing reads,
//! are never fitted. The `search.refit` span stays with `learn`, counting
//! the samples it buffers.
//!
//! # The simulated measurement farm
//!
//! One search runs on its caller's thread: every stage is a plain loop in
//! slot or rank order. What runs in parallel is the *simulated* farm that
//! `num_threads` describes: each generation's batch of compile+profile
//! jobs is spread over that many build+measure workers (as real tuners do
//! with builder/runner pools), and `tuning_cost_s` accumulates the batch
//! makespans. With one worker, the default, this is the serial sum that
//! Table 1 reports. The farm's width changes only `tuning_cost_s`: the
//! search trajectory is a pure function of the other options.
//!
//! Each population slot of each generation draws from its own generator
//! seeded by `derive_seed(seed, [generation, slot])`, with the sketch's
//! seed and generation. A slot's proposal is a function of the sketch,
//! the seed, the generation, the slot and the elites, never of what was
//! drawn for another slot, so the search trajectory is a pure function of
//! `TuneOptions` and a checkpoint replay (below) reproduces it.
//!
//! # Selection pulls, materialization follows
//!
//! Building a candidate (`SketchRule::apply`, hash, summary, features) is
//! most of a tune's wall-clock, and `select` reads only as much of the
//! population as it needs to fill one measurement batch. So the
//! coordinator decides whether `score` can rank *before* `materialize`
//! runs. Whenever the scorer cannot tell valid candidates apart — fewer
//! than four samples, `use_cost_model: false`, or an ensemble without a
//! single split ([`CostModel::has_split`]; every measured time was equal)
//! — all scores tie, the stable sort keeps slot order, and the batch is
//! the first `measure_per_generation.min(budget_left)` valid,
//! non-quarantined slots. Such a generation materializes the population in
//! slot order only up to the slot that completes the batch; everything
//! after it is proposed (and entered in the dedup set) but never built.
//! A model with a split, and `validate_before_measure: false` (invalid
//! candidates rank first, so every slot matters), build the whole
//! population. The search trajectory is the same either way; only
//! `invalid_filtered` — invalid candidates among those *materialized* —
//! and the item counts of the `search.sketch_instantiate`,
//! `search.feature_extract` and `search.model_rank` spans see the
//! difference, and the trace counters `search.proposed`,
//! `search.materialized` and `search.materialize_skipped` state it.
//!
//! # Candidate cache
//!
//! Different decision vectors frequently materialize *structurally
//! identical* programs (e.g. permuted tile factors of 1). A cache keyed by
//! [`tir::structural::structural_hash`] recognizes them: on a hit,
//! summarization, feature extraction, and the simulated hardware
//! measurement are all skipped and the recorded measurement is reused.
//! Because the simulator is deterministic, the reused value equals what
//! re-measurement would produce, so the cache changes *only* the cost of
//! tuning (wall-clock and simulated `tuning_cost_s`), never the result.
//!
//! A sketch may keep its own memo in front of this one: the scalar GPU
//! sketch builds each schedule its decisions denote once and answers a
//! repeated one from memory
//! ([`GpuScalarSketch::effective`](crate::sketch_gpu::GpuScalarSketch::effective)).
//! The same memo keeps, per block that ran staging attempts, the program
//! after them, so a new schedule that shares the thread counts and steps up
//! to that block resumes there instead of building from the start. The
//! search sees an `apply` call either way; the program it gets back is
//! still hashed and looked up here.
//!
//! # Fault tolerance
//!
//! Measurements go through the [`crate::measure`] harness: any
//! [`Measurer`] backend (by default the analytic simulator, optionally
//! wrapped in a [`crate::measure::FaultInjector`]) with capped
//! exponential retry/backoff for transient failures, repeat-until-
//! agreement outlier rejection for corrupt readings, and `catch_unwind`
//! isolation so a panicking candidate fails alone. The same guard wraps
//! each candidate's build and score: a panicking `SketchRule::apply`
//! makes its candidate invalid, a panicking scorer ranks it neutrally.
//! Candidates that fail *deterministically* (compile rejects) are
//! quarantined by structural hash and never re-measured. All retry/backoff delay is charged to
//! `tuning_cost_s`, preserving the key invariant: under any transient
//! fault rate the search trajectory — `best`, `history`, every counter
//! except `tuning_cost_s`/`retries`/`failed_measurements` — is
//! bit-identical to the fault-free run.
//!
//! # Checkpoint/resume
//!
//! With `TuneOptions::checkpoint_path` set, every generation of every
//! sketch appends what its measurements returned to the one file
//! ([`crate::checkpoint`]), and a later run with the same options replays
//! that log through `measure` instead of measuring: proposals are pure
//! functions of `(sketch, seed, generation, slot)`, the log supplies the
//! only input that is not, so the resumed run is the uninterrupted run,
//! wherever among the sketches it was stopped.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use tir_rand::rngs::StdRng;
use tir_rand::{derive_seed, SeedableRng};

use tir::structural::structural_hash;
use tir::PrimFunc;
use tir_exec::cost::{estimate_breakdown, summarize, RooflineBound};
use tir_exec::machine::Machine;
use tir_trace::{Collector, Key};

use crate::checkpoint::MeasureLog;
use crate::cost_model::CostModel;
use crate::fault_io::DiskIo;
use crate::feature::features_of_summary;
use crate::measure::{
    measure_with_retries, panic_message, MeasureError, MeasureOutcome, MeasureTrace, Measurer,
    RetryPolicy, COMPILE_OVERHEAD_S,
};
use crate::sketch::{Decision, SketchRule};

/// The phase spans a traced generation records, in key order: the span of
/// phase `i` is keyed `Key::coord(stream, generation, i)`. Only
/// `search.measure` carries simulated seconds — the *serial* sum of the
/// batch's costs, which does not depend on the farm's width (the makespan
/// stays in `tuning_cost_s`; at one worker the two coincide). The CPU-side
/// phases carry item counts instead of wall-clock, which would break
/// byte-identical reports across machines and runs.
pub const SEARCH_PHASES: [&str; 6] = [
    "search.evolve",
    "search.sketch_instantiate",
    "search.feature_extract",
    "search.model_rank",
    "search.measure",
    "search.refit",
];

/// Indices into [`SEARCH_PHASES`].
#[derive(Clone, Copy)]
enum Phase {
    Evolve,
    SketchInstantiate,
    FeatureExtract,
    ModelRank,
    Measure,
    Refit,
}

/// Search configuration.
///
/// All knobs default to the values the paper-reproduction benches use;
/// construct with struct-update syntax (`TuneOptions { trials: 64,
/// ..Default::default() }`) so new knobs never break call sites.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Measurement (hardware-profile) budget: the search stops once this
    /// many candidates have been measured (§4.4's trial budget; Table 1
    /// reports tuning cost as a function of it).
    pub trials: usize,
    /// Candidates generated per generation of the evolutionary loop.
    pub population: usize,
    /// Measurements per generation, taken from the top of the cost-model
    /// ranking (§4.4: the most promising candidates go to hardware).
    pub measure_per_generation: usize,
    /// RNG seed. The whole search is a pure function of this seed and the
    /// other options.
    pub seed: u64,
    /// Rank candidates with the learned cost model (vs. measuring in
    /// sample order). No bench turns this off today — ablation 3 of
    /// `benches/ablations.rs` scores the model's ranking directly; only
    /// the `demand_driven_materialize` tests set it to `false`.
    pub use_cost_model: bool,
    /// Filter invalid candidates before measurement (§3.3 validation);
    /// when false, invalid candidates consume measurement budget (the
    /// ablation case).
    pub validate_before_measure: bool,
    /// Simulated build+measure workers: the width of the measurement farm
    /// in the `tuning_cost_s` accounting. `1` (the default) is the paper's
    /// one-device setup; `0` is read as `1`. The search itself always runs
    /// on the caller's thread, and any value finds the bit-identical best
    /// program (see the module docs); only the accounted tuning cost
    /// shrinks with more workers.
    pub num_threads: usize,
    /// Reuse measurements of structurally identical candidates via the
    /// structural-hash cache. Never changes the search result (the
    /// simulator is deterministic); only reduces tuning cost. Disable to
    /// model a tuner that re-profiles duplicates.
    pub use_candidate_cache: bool,
    /// Retry/backoff policy for transient measurement failures (see
    /// [`crate::measure`]). The defaults make transient-fault exhaustion
    /// astronomically unlikely, preserving the fault-rate invariant.
    pub retry: RetryPolicy,
    /// When set, the outcome of every measurement is logged to this one
    /// file after every generation of every sketch, and a run starting
    /// with a valid matching log (same seed, machine and sketches) replays
    /// it instead of measuring, resuming bit-identically. Save failures are
    /// ignored (resumability is lost, the run is not).
    pub checkpoint_path: Option<PathBuf>,
    /// Stop after this many generations of the whole tune, counted over
    /// all its sketches, even if trial budget remains — the hook the
    /// kill-and-resume tests use to interrupt a run at a generation
    /// boundary. `None` (the default) runs to budget.
    pub max_generations: Option<u64>,
    /// Warm start from a previously tuned record: the search begins with
    /// this program as the incumbent best instead of nothing, so a
    /// re-tune with a larger budget can only improve on the stored
    /// result. The warm start never changes the search *trajectory* —
    /// proposals, measurements, and the cost model are untouched; it only
    /// floors `best`/`best_time` (and therefore `history`). This is how
    /// the tuning database and the serve daemon implement budget-upgrade
    /// re-tuning without ever regressing a stored record.
    pub warm_start: Option<WarmStart>,
    /// Observability sink ([`tir_trace::Collector`]). `None` (the
    /// default) records nothing and pays nothing beyond one branch per
    /// generation. When set and enabled, the search emits per-generation
    /// phase spans (`search.*`), per-attempt measurement events
    /// (`measure.*`), counters, and roofline attribution. Tracing never
    /// perturbs the search: `best`/`best_time`/`history` are bit-identical
    /// with tracing on or off, at every farm width, and the report itself
    /// is byte-identical at every farm width (all span times are simulated
    /// seconds keyed by deterministic positions).
    pub trace: Option<Arc<Collector>>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            trials: 64,
            population: 32,
            measure_per_generation: 8,
            seed: 42,
            use_cost_model: true,
            validate_before_measure: true,
            num_threads: 1,
            use_candidate_cache: true,
            retry: RetryPolicy::default(),
            checkpoint_path: None,
            max_generations: None,
            warm_start: None,
            trace: None,
        }
    }
}

/// A previously tuned result used to seed a re-tune (see
/// [`TuneOptions::warm_start`]).
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// The stored best program.
    pub best: PrimFunc,
    /// Its measured time — the incumbent the re-tune must beat.
    pub best_time: f64,
}

/// Outcome of a tuning run.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The fastest program found (if any candidate was valid).
    pub best: Option<PrimFunc>,
    /// Simulated execution time of the best program, seconds.
    pub best_time: f64,
    /// Measurements actually performed (cache hits included: a hit still
    /// consumes one unit of trial budget, it just costs nothing).
    pub trials_measured: usize,
    /// Candidates rejected by construction/validation before measuring,
    /// among the candidates that were *materialized*. A generation whose
    /// scorer cannot rank (see the module docs) builds slots only until
    /// its batch is full, so invalid proposals past that slot are never
    /// built and never counted.
    pub invalid_filtered: usize,
    /// Measurement budget wasted on invalid candidates (only when
    /// `validate_before_measure` is off).
    pub wasted_measurements: usize,
    /// Simulated wall-clock cost of tuning: profiling time plus per-trial
    /// compilation overhead (the quantity Table 1 reports). Each batch is
    /// distributed over `num_threads` simulated build+measure workers, so
    /// this is the sum of per-generation makespans; at one worker it is the
    /// plain serial sum. Cache hits contribute nothing — the measurement is
    /// reused, not repeated.
    pub tuning_cost_s: f64,
    /// Best-so-far of the whole tune after each unit of trial budget
    /// spent, over all its sketches: monotone non-increasing.
    pub history: Vec<f64>,
    /// Measurements served from the structural-hash candidate cache.
    pub cache_hits: usize,
    /// Candidates whose measurement failed even after retries (transient
    /// exhaustion) or deterministically (compile reject). Each consumes
    /// one unit of trial budget — a farm pays for failures too.
    pub failed_measurements: usize,
    /// Extra measurement attempts beyond the minimum: transient-failure
    /// retries plus repeat readings taken for outlier rejection.
    pub retries: u64,
    /// Candidates quarantined after a deterministic failure; structurally
    /// identical re-proposals are skipped without consuming budget.
    pub quarantined: usize,
    /// The generation this run resumed from — how many generations, over
    /// all sketches, a valid checkpoint answered in full; `None` for an
    /// uninterrupted run.
    pub resumed_from_generation: Option<u64>,
}

impl Default for TuneResult {
    fn default() -> Self {
        TuneResult {
            best: None,
            best_time: f64::INFINITY,
            trials_measured: 0,
            invalid_filtered: 0,
            wasted_measurements: 0,
            tuning_cost_s: 0.0,
            history: Vec::new(),
            cache_hits: 0,
            failed_measurements: 0,
            retries: 0,
            quarantined: 0,
            resumed_from_generation: None,
        }
    }
}

/// Simulated wall-clock of a measurement batch distributed over `workers`
/// parallel build+measure slots: greedy assignment of each candidate (in
/// slot order) to the least-loaded worker, returning the longest worker's
/// load. One worker degenerates to the serial sum. Deterministic — ties
/// pick the lowest worker index.
///
/// Hardened against bad inputs: a non-finite or negative cost (e.g. a
/// `NaN` measurement of an unvalidated candidate) charges only the
/// compile overhead, so `NaN` can never poison `tuning_cost_s`.
fn batch_makespan(costs: &[f64], workers: usize) -> f64 {
    let mut load = vec![0.0f64; workers.clamp(1, costs.len().max(1))];
    for &c in costs {
        let c = if c.is_finite() && c >= 0.0 {
            c
        } else {
            COMPILE_OVERHEAD_S
        };
        let min = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        load[min] += c;
    }
    load.into_iter().fold(0.0, f64::max)
}

/// A proposal after `materialize`.
struct CandidateEval {
    decisions: Vec<Decision>,
    /// `None` when construction or validation failed (or panicked).
    built: Option<Built>,
}

/// A candidate program that was built and validated.
struct Built {
    func: PrimFunc,
    hash: u64,
    features: Vec<f64>,
    /// The time the candidate cache holds for `hash`, if it may be reused;
    /// otherwise `measure` sends the program to the farm.
    cached: Option<f64>,
}

/// What every stage of one sketch's search reads and nothing changes.
struct Ctx<'a> {
    sketch: &'a dyn SketchRule,
    /// The sketch's seed: `opts.seed + 101·i` for sketch `i`.
    seed: u64,
    machine: &'a Machine,
    opts: &'a TuneOptions,
    measurer: &'a dyn Measurer,
    trace: Option<&'a Collector>,
    stream: u64,
}

impl Ctx<'_> {
    /// Records `phase` of `generation`, when tracing.
    fn span(&self, generation: u64, phase: Phase, sim_s: f64, items: usize) {
        if let Some(c) = self.trace {
            let key = Key::coord(self.stream, generation, phase as u64);
            c.span(SEARCH_PHASES[phase as usize], key, sim_s, items as u64);
        }
    }

    /// Adds `n` to a trace counter, when tracing.
    fn count(&self, name: &str, n: u64) {
        if let Some(c) = self.trace {
            c.count(name, n);
        }
    }
}

/// The mutable coordinator state of one sketch's search; the tune's
/// [`TuneResult`] is shared by all of them. A checkpoint stores none of
/// it: a resumed run rebuilds it by replaying the logged measurements.
#[derive(Default)]
struct SearchState {
    /// Trial budget consumed so far: one unit per batch member, measured,
    /// wasted or failed alike (a farm pays for failures too).
    budget_used: usize,
    /// Simulated tuning cost of this sketch's batches, added to the
    /// tune's `tuning_cost_s` when the sketch's search ends.
    tuning_cost_s: f64,
    model: CostModel,
    /// Samples `learn` measured since the model was last fitted; the
    /// coordinator fits them before it next reads the model.
    unfitted: Vec<(Vec<f64>, f64)>,
    /// Every decision vector ever proposed (dedup set).
    seen: HashSet<Vec<Decision>>,
    /// Elite pool of (decisions, measured time), in coordinator order.
    elites: Vec<(Vec<Decision>, f64)>,
    /// Structural-hash cache of completed measurements: features and
    /// time. `materialize` reads it; `learn` adds to it.
    cache: HashMap<u64, (Vec<f64>, f64)>,
    /// Structural hashes of deterministically failing candidates.
    quarantine: HashSet<u64>,
    /// Next generation to execute.
    generation: u64,
}

impl SearchState {
    /// Whether `candidate` built a program that failed deterministically
    /// before: such a candidate is never selected.
    fn quarantined(&self, candidate: &CandidateEval) -> bool {
        (candidate.built.as_ref()).is_some_and(|b| self.quarantine.contains(&b.hash))
    }
}

/// Tunes a workload over `sketches` against `measurer` and returns the
/// tune's one result (see the module docs for what each sketch owns and
/// what the tune shares). An empty slice, and a zero `trials`,
/// `population` or `measure_per_generation`, search nothing and return
/// [`TuneResult::default`].
///
/// Deterministic for a given `opts`; `num_threads` changes only
/// `tuning_cost_s`. Measurement failures are retried (transient),
/// quarantined (deterministic), or counted as failed after exhaustion; all
/// simulated delay lands in `tuning_cost_s`. Under a purely transient fault plan
/// (a [`crate::measure::FaultInjector`]) the returned `best`/`history` are
/// bit-identical to the fault-free run.
pub fn tune_with(
    sketches: &[&dyn SketchRule],
    machine: &Machine,
    opts: &TuneOptions,
    measurer: &dyn Measurer,
) -> TuneResult {
    // Degenerate budgets: nothing to search. Guarded explicitly — a zero
    // `measure_per_generation` would otherwise loop forever without ever
    // consuming budget, and a zero `population` would spin proposing
    // nothing.
    if sketches.is_empty()
        || opts.trials == 0
        || opts.population == 0
        || opts.measure_per_generation == 0
    {
        return TuneResult::default();
    }
    let trace = opts.trace.as_deref().filter(|c| c.is_enabled());
    let mut result = TuneResult::default();
    // Seed the incumbent from a warm start (stored tuning record). The
    // trajectory is untouched: the incumbent only gates the
    // `t < best_time` replacement test in `learn`.
    if let Some(w) = (opts.warm_start.as_ref()).filter(|w| w.best_time < result.best_time) {
        result.best = Some(w.best.clone());
        result.best_time = w.best_time;
    }
    let names: Vec<&str> = sketches.iter().map(|s| s.name()).collect();
    let mut log = (opts.checkpoint_path.as_ref())
        .map(|p| MeasureLog::open(Box::new(DiskIo), p, opts.seed, &machine.name, &names));
    // Every sketch gets an equal share, at least one trial, so a small
    // budget still covers every structure.
    let share = (opts.trials / sketches.len()).max(1);
    let capped = |generations: u64| opts.max_generations.is_some_and(|g| generations >= g);
    let mut generations = 0u64;
    for (i, &sketch) in sketches.iter().enumerate() {
        if capped(generations) {
            break;
        }
        // One trace stream per sketch, in sketch order.
        let cx = Ctx {
            sketch,
            seed: opts.seed.wrapping_add(i as u64 * 101),
            machine,
            opts,
            measurer,
            trace,
            stream: trace.map_or(0, |c| c.stream(sketch.name())),
        };
        let mut state = SearchState::default();
        while state.budget_used < share && !capped(generations) {
            let population = propose(&cx, &mut state);
            if population.is_empty() {
                // This sketch's space is exhausted.
                break;
            }
            // Decided before anything is built: whether `score` can rank.
            // When validation filters invalid candidates out and the
            // scorer is feature-blind — no model yet, the cost model
            // switched off, or an ensemble without a single split — every
            // candidate ties, so the batch is the first `batch_size` valid,
            // non-quarantined slots and `materialize` stops at the last of
            // them.
            let batch_size = opts.measure_per_generation.min(share - state.budget_used);
            // The model is read from here on: fit what `learn` buffered.
            // The last generation's samples are never read, so never
            // fitted.
            if !state.unfitted.is_empty() {
                state.model.update(std::mem::take(&mut state.unfitted));
            }
            let model_ready = opts.use_cost_model && state.model.num_samples() >= 4;
            let ranks = model_ready && state.model.has_split();
            let prefix_scan = opts.validate_before_measure && !ranks;
            let stop_at = if prefix_scan { batch_size } else { usize::MAX };
            let candidates = materialize(&cx, &state, &mut result, &population, stop_at);
            let scores = score(&cx, &state, &candidates, model_ready);
            let batch = select(&state, &candidates, &scores, batch_size);
            let readings = measure(&cx, &mut state, &batch, log.as_mut());
            learn(&cx, &mut state, &mut result, &batch, readings);
            state.generation += 1;
            generations += 1;
        }
        result.tuning_cost_s += state.tuning_cost_s;
    }
    result.resumed_from_generation = log
        .map(|l| l.replayed_generations())
        .filter(|&replayed| replayed > 0);
    result
}

/// Propose: one decision vector per population slot — a crossover of two
/// elites then a mutation, a mutation of one elite, or a fresh sample —
/// each from the generator of `(seed, generation, slot)`. Deduplicated in
/// slot order against everything ever proposed; empty once the space is
/// exhausted.
fn propose(cx: &Ctx, state: &mut SearchState) -> Vec<Vec<Decision>> {
    let (elites, generation) = (&state.elites, state.generation);
    let population: Vec<Vec<Decision>> = (0..cx.opts.population)
        .map(|slot| {
            let mut rng = StdRng::seed_from_u64(derive_seed(cx.seed, &[generation, slot as u64]));
            let elite = |i: usize| &elites[i % elites.len()].0;
            if elites.len() >= 2 && slot % 2 == 0 {
                let crossed = cx.sketch.crossover(elite(slot), elite(slot + 1), &mut rng);
                cx.sketch.mutate(&crossed, &mut rng)
            } else if !elites.is_empty() && slot % 4 == 1 {
                cx.sketch.mutate(elite(slot), &mut rng)
            } else {
                cx.sketch.sample(&mut rng)
            }
        })
        .filter(|d| state.seen.insert(d.clone()))
        .collect();
    if !population.is_empty() {
        cx.span(generation, Phase::Evolve, 0.0, cx.opts.population);
        cx.count("search.proposed", population.len() as u64);
    }
    population
}

/// Runs one candidate's job; a panic fails that candidate alone and
/// returns the panic's message.
fn isolated<R>(job: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(job)).map_err(panic_message)
}

/// Materialize: build, validate, hash and — unless the cache may answer —
/// summarize and extract features, in slot order until `stop_at`
/// selectable candidates exist or the population ends. A panic while
/// building a candidate makes it invalid. Returns what was built, without
/// the invalid candidates when validation filters them.
fn materialize(
    cx: &Ctx,
    state: &SearchState,
    result: &mut TuneResult,
    population: &[Vec<Decision>],
    stop_at: usize,
) -> Vec<CandidateEval> {
    let build = |decisions: &[Decision]| {
        let func = cx.sketch.apply(decisions).ok()?;
        let hash = structural_hash(&func);
        let (features, cached) = match state.cache.get(&hash) {
            Some((features, t)) if cx.opts.use_candidate_cache => (features.clone(), Some(*t)),
            _ => (features_of_summary(&func, &summarize(&func)), None),
        };
        Some(Built {
            func,
            hash,
            features,
            cached,
        })
    };
    let mut evals: Vec<CandidateEval> = Vec::new();
    let mut selectable = 0usize;
    for decisions in population {
        if selectable == stop_at {
            break;
        }
        let built = isolated(|| build(decisions)).ok().flatten();
        let eval = CandidateEval {
            decisions: decisions.clone(),
            built,
        };
        selectable += usize::from(eval.built.is_some() && !state.quarantined(&eval));
        evals.push(eval);
    }
    let built = evals.iter().filter_map(|e| e.built.as_ref());
    let featurized = built.clone().filter(|b| b.cached.is_none()).count();
    result.invalid_filtered += evals.len() - built.count();
    cx.span(state.generation, Phase::SketchInstantiate, 0.0, evals.len());
    cx.span(state.generation, Phase::FeatureExtract, 0.0, featurized);
    let skipped = population.len() - evals.len();
    cx.count("search.materialized", evals.len() as u64);
    cx.count("search.materialize_skipped", skipped as u64);
    if cx.opts.validate_before_measure {
        evals.retain(|e| e.built.is_some());
    }
    evals
}

/// Score: the cost model's prediction for every candidate; 0 for all while
/// the model is not ready. Without the validation filter an invalid
/// candidate is indistinguishable from a promising one until it fails on
/// the device, so it scores `f64::MAX / 2` and ranks first. A panicking
/// scorer ranks its candidate neutrally (0).
fn score(cx: &Ctx, state: &SearchState, candidates: &[CandidateEval], ready: bool) -> Vec<f64> {
    let scores = (candidates.iter())
        .map(|c| {
            isolated(|| match &c.built {
                Some(b) if ready => state.model.predict(&b.features),
                Some(_) => 0.0,
                None => f64::MAX / 2.0,
            })
            .unwrap_or(0.0)
        })
        .collect();
    cx.span(state.generation, Phase::ModelRank, 0.0, candidates.len());
    scores
}

/// Select: the `batch_size` best-scored candidates, skipping quarantined
/// ones without consuming budget. The sort is stable: equal scores keep
/// slot order, preserving determinism.
fn select<'c>(
    state: &SearchState,
    candidates: &'c [CandidateEval],
    scores: &[f64],
    batch_size: usize,
) -> Vec<&'c CandidateEval> {
    let mut ranked: Vec<usize> = (0..candidates.len()).collect();
    ranked.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal));
    (ranked.into_iter().map(|i| &candidates[i]))
        .filter(|c| !state.quarantined(c))
        .take(batch_size)
        .collect()
}

/// Measure: every uncached valid member of the batch, in rank order,
/// through the fault-tolerant harness on the simulated farm. With a
/// checkpoint log, what an earlier run logged for these jobs is replayed
/// rank by rank, the farm takes over where the log stops, and the log gains
/// the generation. Returns one reading per batch member: `None` for a
/// cached or invalid one. Charges the batch makespan to the sketch's
/// `tuning_cost_s`.
fn measure(
    cx: &Ctx,
    state: &mut SearchState,
    batch: &[&CandidateEval],
    log: Option<&mut MeasureLog>,
) -> Vec<Option<MeasureOutcome>> {
    let jobs: Vec<&Built> = (batch.iter())
        .filter_map(|c| c.built.as_ref().filter(|b| b.cached.is_none()))
        .collect();
    let generation = state.generation;
    // The harness already converts panics into per-candidate RunnerCrash
    // errors; `isolated` is the backstop for panics outside it.
    let job = |rank: usize, b: &Built| {
        // The trace key is the job's rank in the batch.
        let mt = cx.trace.map(|collector| MeasureTrace {
            collector,
            stream: cx.stream,
            generation,
            slot: rank as u64,
        });
        let retry = &cx.opts.retry;
        measure_with_retries(cx.measurer, &b.func, cx.machine, b.hash, retry, mt.as_ref())
    };
    let farm = |from: usize| -> Vec<MeasureOutcome> {
        (jobs.iter().enumerate().skip(from))
            .map(|(rank, b)| {
                isolated(|| job(rank, b)).unwrap_or_else(|msg| MeasureOutcome {
                    reading: Err(MeasureError::RunnerCrash(format!(
                        "measurement panicked outside the harness: {msg}"
                    ))),
                    cost_s: COMPILE_OVERHEAD_S,
                    retries: 0,
                })
            })
            .collect()
    };
    let outcomes = match log {
        None => farm(0),
        Some(log) => {
            let hashes: Vec<u64> = jobs.iter().map(|b| b.hash).collect();
            let mut outcomes = log.replay(&hashes);
            outcomes.extend(farm(outcomes.len()));
            // A failed save only loses resumability, never the run.
            let _ = log.record(&hashes, &outcomes);
            outcomes
        }
    };
    let mut outcomes = outcomes.into_iter();
    let readings: Vec<Option<MeasureOutcome>> = (batch.iter())
        .map(|c| match &c.built {
            Some(b) if b.cached.is_none() => outcomes.next(),
            _ => None,
        })
        .collect();
    // An invalid candidate sent unvalidated fails at build time and costs
    // the compile overhead; a reused measurement costs nothing.
    let costs: Vec<f64> = (batch.iter().zip(&readings))
        .filter_map(|(c, reading)| match reading {
            Some(outcome) => Some(outcome.cost_s),
            None => c.built.is_none().then_some(COMPILE_OVERHEAD_S),
        })
        .collect();
    state.tuning_cost_s += batch_makespan(&costs, cx.opts.num_threads);
    let serial_s = batch_makespan(&costs, 1);
    cx.span(generation, Phase::Measure, serial_s, costs.len());
    readings
}

/// Learn: fold the batch's readings into the result in rank order — every
/// member spends one unit of the sketch's budget and appends one `history`
/// entry — quarantine deterministic failures, cache new measurements,
/// buffer them as the cost model's next samples and keep the eight best
/// elites.
fn learn(
    cx: &Ctx,
    state: &mut SearchState,
    r: &mut TuneResult,
    batch: &[&CandidateEval],
    readings: Vec<Option<MeasureOutcome>>,
) {
    state.budget_used += batch.len();
    let mut samples = Vec::new();
    for (candidate, reading) in batch.iter().zip(readings) {
        let time = match (&candidate.built, reading) {
            // Sent to the farm unvalidated; failed at build time.
            (None, _) => {
                r.wasted_measurements += 1;
                None
            }
            // Reused measurement: no profile repeats, no recompilation,
            // and by construction a trusted reading.
            (Some(b), None) => {
                r.cache_hits += 1;
                cx.count("search.cache_hits", 1);
                b.cached
            }
            (Some(b), Some(outcome)) => {
                r.retries += outcome.retries;
                cx.count("search.retries", outcome.retries);
                match outcome.reading {
                    Ok(t) => Some(t),
                    Err(e) => {
                        r.failed_measurements += 1;
                        cx.count("search.failed_measurements", 1);
                        let rejected = matches!(e, MeasureError::CompileReject(_));
                        cx.count("search.verify_rejections", u64::from(rejected));
                        if !e.is_transient() && state.quarantine.insert(b.hash) {
                            r.quarantined += 1;
                            cx.count("search.quarantined", 1);
                        }
                        None
                    }
                }
            }
        };
        if let (Some(b), Some(t)) = (&candidate.built, time) {
            if let Some(c) = cx.trace {
                // Roofline attribution of every measured candidate:
                // compute-bound vs bandwidth-bound on this machine. Only
                // evaluated while tracing — the breakdown re-runs the
                // summarizer, which the disabled path must not pay for.
                match estimate_breakdown(&summarize(&b.func), cx.machine).bound() {
                    RooflineBound::Compute => c.count("roofline.compute_bound", 1),
                    RooflineBound::Memory => c.count("roofline.memory_bound", 1),
                }
                c.observe("search.candidate_time_s", t);
            }
            if b.cached.is_none() {
                state.cache.insert(b.hash, (b.features.clone(), t));
            }
            r.trials_measured += 1;
            samples.push((b.features.clone(), -(t.max(1e-12)).ln()));
            if t < r.best_time {
                r.best_time = t;
                r.best = Some(b.func.clone());
            }
            state.elites.push((candidate.decisions.clone(), t));
        }
        r.history.push(r.best_time);
    }
    cx.span(state.generation, Phase::Refit, 0.0, samples.len());
    if cx.opts.use_cost_model {
        state.unfitted.extend(samples);
    }
    state
        .elites
        .sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
    state.elites.truncate(8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::SimMeasurer;
    use crate::sketch_gpu::GpuTensorSketch;
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    fn sketch() -> GpuTensorSketch {
        let func = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch")
    }

    /// A one-sketch tune on the simulator.
    fn tune(s: &GpuTensorSketch, machine: &Machine, opts: &TuneOptions) -> TuneResult {
        tune_with(&[s], machine, opts, &SimMeasurer)
    }

    #[test]
    fn batch_makespan_accounting() {
        // One worker = serial sum; perfect split at equal costs; a long
        // job bounds the makespan; empty batches cost nothing.
        assert_eq!(batch_makespan(&[1.0, 2.0, 3.0], 1), 6.0);
        assert_eq!(batch_makespan(&[1.0, 1.0, 1.0, 1.0], 4), 1.0);
        assert_eq!(batch_makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(batch_makespan(&[], 4), 0.0);
        // A farm of zero workers is read as one.
        assert_eq!(batch_makespan(&[1.0, 2.0], 0), 3.0);
    }

    #[test]
    fn batch_makespan_rejects_nan_and_negative_costs() {
        // Regression: a NaN candidate time (reachable when
        // `validate_before_measure` is off and a degenerate machine
        // yields non-finite estimates) must charge only the compile
        // overhead, never poison the accounting.
        let m = batch_makespan(&[f64::NAN, 1.0], 1);
        assert!(m.is_finite());
        assert_eq!(m, 1.0 + COMPILE_OVERHEAD_S);
        assert_eq!(
            batch_makespan(&[f64::INFINITY, -2.0], 1),
            2.0 * COMPILE_OVERHEAD_S
        );
        // All-NaN batches still schedule deterministically.
        assert_eq!(batch_makespan(&[f64::NAN, f64::NAN], 2), COMPILE_OVERHEAD_S);
    }

    #[test]
    fn zero_population_means_no_search() {
        let s = sketch();
        let machine = Machine::sim_gpu();
        let r = tune(
            &s,
            &machine,
            &TuneOptions {
                population: 0,
                ..Default::default()
            },
        );
        assert!(r.best.is_none());
        assert_eq!(r.trials_measured, 0);
        assert_eq!(r.tuning_cost_s, 0.0);
        assert!(r.history.is_empty());
    }

    #[test]
    fn zero_measure_per_generation_means_no_search() {
        // Regression: without the degenerate-options guard this spun
        // forever — generations proposed candidates but never consumed
        // any trial budget.
        let s = sketch();
        let machine = Machine::sim_gpu();
        let r = tune(
            &s,
            &machine,
            &TuneOptions {
                measure_per_generation: 0,
                ..Default::default()
            },
        );
        assert!(r.best.is_none());
        assert_eq!(r.trials_measured, 0);
        assert_eq!(r.tuning_cost_s, 0.0);
        assert!(r.history.is_empty());
    }

    #[test]
    fn zero_trials_means_no_search() {
        // `trials: 0` must not measure anything, even through the
        // per-sketch budget split (which otherwise guarantees each sketch
        // at least one trial).
        let s = sketch();
        let machine = Machine::sim_gpu();
        let opts = TuneOptions {
            trials: 0,
            ..Default::default()
        };
        let r = tune_with(&[&s, &s], &machine, &opts, &SimMeasurer);
        assert!(r.best.is_none());
        assert_eq!(r.trials_measured, 0);
        assert_eq!(r.tuning_cost_s, 0.0);
    }

    #[test]
    fn search_finds_valid_program_and_improves() {
        let s = sketch();
        let machine = Machine::sim_gpu();
        let opts = TuneOptions {
            trials: 24,
            population: 16,
            measure_per_generation: 6,
            ..Default::default()
        };
        let r = tune(&s, &machine, &opts);
        assert!(r.best.is_some(), "no valid candidate found");
        assert!(r.best_time.is_finite());
        assert!(r.trials_measured > 0 && r.trials_measured <= 24);
        // Best-so-far is monotone non-increasing.
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // Searching longer cannot be worse.
        let r_long = tune(&s, &machine, &TuneOptions { trials: 48, ..opts });
        assert!(r_long.best_time <= r.best_time * 1.0001);
    }

    /// A search of G generations refits its model G − 1 times: before
    /// generation g reads it, on every sample of generations 0..g. The
    /// last generation's samples are never fitted. A sample is a measured
    /// trial, so `trials_measured` after g generations is the count the
    /// model must hold when generation g reads it. Runs that end on their
    /// generation cap and on their budget.
    #[test]
    fn the_model_is_refitted_only_where_it_is_read() {
        use crate::cost_model::tests::take_refit_sizes;
        let s = sketch();
        let machine = Machine::sim_gpu();
        // (budget, generations, whether the run is capped there): 24 trials
        // are three full batches of eight.
        for (trials, generations, capped) in [(64, 5u64, true), (24, 3, false)] {
            let opts = |cap: Option<u64>| TuneOptions {
                trials,
                num_threads: 1,
                max_generations: cap,
                ..Default::default()
            };
            let samples_after: Vec<usize> = (1..=generations)
                .map(|g| tune(&s, &machine, &opts(Some(g))).trials_measured)
                .collect();
            take_refit_sizes();
            let r = tune(&s, &machine, &opts(capped.then_some(generations)));
            assert_eq!(r.trials_measured, samples_after[generations as usize - 1]);
            assert_eq!(
                take_refit_sizes(),
                samples_after[..generations as usize - 1]
            );
            assert!(samples_after.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn search_is_deterministic_for_a_seed() {
        let s = sketch();
        let machine = Machine::sim_gpu();
        let opts = TuneOptions {
            trials: 16,
            ..Default::default()
        };
        let a = tune(&s, &machine, &opts);
        let b = tune(&s, &machine, &opts);
        assert_eq!(a.best_time, b.best_time);
        assert_eq!(a.trials_measured, b.trials_measured);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        // A fixed seed replays the identical search at any farm width,
        // down to the bytes of the best program.
        let s = sketch();
        let machine = Machine::sim_gpu();
        let serial = tune(
            &s,
            &machine,
            &TuneOptions {
                trials: 24,
                num_threads: 1,
                ..Default::default()
            },
        );
        for threads in [2usize, 4, 8] {
            let parallel = tune(
                &s,
                &machine,
                &TuneOptions {
                    trials: 24,
                    num_threads: threads,
                    ..Default::default()
                },
            );
            assert_eq!(serial.best_time, parallel.best_time, "{threads} threads");
            assert_eq!(serial.trials_measured, parallel.trials_measured);
            assert_eq!(serial.history, parallel.history);
            assert_eq!(serial.cache_hits, parallel.cache_hits);
            let a = serial.best.as_ref().expect("serial best").to_string();
            let b = parallel.best.as_ref().expect("parallel best").to_string();
            assert_eq!(a, b, "best programs must match byte-for-byte");
            // The simulated measurement farm gets wider with more
            // workers: tuning cost must drop roughly linearly.
            assert!(
                parallel.tuning_cost_s <= serial.tuning_cost_s / (threads as f64) * 1.5,
                "{threads} threads: {} vs serial {}",
                parallel.tuning_cost_s,
                serial.tuning_cost_s
            );
        }
    }

    #[test]
    fn a_panicking_apply_fails_its_candidate_alone() {
        use crate::sketch::DecisionKind;
        use std::hash::{DefaultHasher, Hash, Hasher};
        use tir_schedule::ScheduleError;

        /// Refuses every third decision vector (by hash): with a panic, or
        /// with an error.
        struct Refusing<'a> {
            inner: &'a dyn SketchRule,
            panics: bool,
        }
        impl SketchRule for Refusing<'_> {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn space(&self) -> Vec<DecisionKind> {
                self.inner.space()
            }
            fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
                let mut h = DefaultHasher::new();
                decisions.hash(&mut h);
                if h.finish().is_multiple_of(3) {
                    if self.panics {
                        panic!("apply exploded");
                    }
                    return Err(ScheduleError::Precondition("refused".into()));
                }
                self.inner.apply(decisions)
            }
        }

        let s = sketch();
        let machine = Machine::sim_gpu();
        let opts = TuneOptions {
            trials: 24,
            ..Default::default()
        };
        let run = |panics: bool| {
            let sketch = Refusing { inner: &s, panics };
            tune_with(&[&sketch], &machine, &opts, &SimMeasurer)
        };
        let (panicked, refused) = (run(true), run(false));
        assert!(refused.invalid_filtered > 0, "no decision was refused");
        assert!(refused.best.is_some());
        assert_eq!(panicked.invalid_filtered, refused.invalid_filtered);
        assert_eq!(panicked.trials_measured, refused.trials_measured);
        assert_eq!(panicked.cache_hits, refused.cache_hits);
        assert_eq!(panicked.best_time.to_bits(), refused.best_time.to_bits());
        assert_eq!(
            panicked.tuning_cost_s.to_bits(),
            refused.tuning_cost_s.to_bits()
        );
        assert_eq!(panicked.history, refused.history);
        assert_eq!(
            panicked.best.as_ref().map(|f| f.to_string()),
            refused.best.as_ref().map(|f| f.to_string())
        );
    }

    #[test]
    fn candidate_cache_never_changes_the_result() {
        // The cache reuses deterministic measurements, so the search
        // trajectory — and in particular the best program — is identical
        // with and without it; only the accounted tuning cost may shrink.
        let s = sketch();
        let machine = Machine::sim_gpu();
        let base = TuneOptions {
            trials: 32,
            ..Default::default()
        };
        let with_cache = tune(
            &s,
            &machine,
            &TuneOptions {
                use_candidate_cache: true,
                ..base.clone()
            },
        );
        let without_cache = tune(
            &s,
            &machine,
            &TuneOptions {
                use_candidate_cache: false,
                ..base
            },
        );
        assert_eq!(without_cache.cache_hits, 0);
        assert_eq!(with_cache.best_time, without_cache.best_time);
        assert_eq!(with_cache.history, without_cache.history);
        assert_eq!(with_cache.trials_measured, without_cache.trials_measured);
        let a = with_cache.best.as_ref().expect("best").to_string();
        let b = without_cache.best.as_ref().expect("best").to_string();
        assert_eq!(a, b, "cache must not change the best program");
        assert!(with_cache.tuning_cost_s <= without_cache.tuning_cost_s);
    }

    #[test]
    fn validation_filter_saves_measurements() {
        // A larger tile space so warp-budget violations are common.
        let func = tir::builder::matmul_func("mm", 512, 512, 512, DataType::float16());
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let s = GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch");
        let machine = Machine::sim_gpu();
        let with_filter = tune(
            &s,
            &machine,
            &TuneOptions {
                trials: 24,
                validate_before_measure: true,
                ..Default::default()
            },
        );
        let without_filter = tune(
            &s,
            &machine,
            &TuneOptions {
                trials: 24,
                validate_before_measure: false,
                ..Default::default()
            },
        );
        assert_eq!(with_filter.wasted_measurements, 0);
        // Invalid candidates exist in this space (warp-budget violations);
        // the filter catches them before measurement.
        assert!(
            with_filter.invalid_filtered > 0,
            "expected some invalid candidates to be generated"
        );
        // Without the filter the search can never do better, and the trial
        // accounting includes any wasted measurements.
        assert!(without_filter.best_time >= with_filter.best_time * 0.999);
        assert!(without_filter.trials_measured + without_filter.wasted_measurements <= 24);
    }
}
