//! Evolutionary search with a learned cost model, validation filtering
//! (§4.4), and a parallel candidate-evaluation pipeline.
//!
//! The search samples random decision vectors for a sketch, evolves them by
//! mutation and crossover, ranks unmeasured candidates with the GBDT cost
//! model, "measures" the most promising ones on the hardware simulator, and
//! feeds the measurements back into the model. Invalid candidates (failed
//! primitives or §3.3 validation) are filtered *before* measurement; the
//! `validate_before_measure` flag exists so the ablation benchmark can show
//! what happens without the filter (wasted measurement budget).
//!
//! # Parallel pipeline
//!
//! Candidate evaluation dominates tuning wall-clock, so every
//! per-candidate stage fans out across a thread pool
//! ([`crate::parallel`]): decision sampling/mutation/crossover, sketch
//! instantiation + §3.3 validation, cost summarization, feature
//! extraction, batched cost-model ranking, and simulated measurement. The
//! coordinator keeps only the sequential steps: deduplication, batch
//! selection, accounting, elite maintenance, and cost-model updates.
//!
//! Parallel runs are bit-for-bit deterministic: each population slot of
//! each generation draws from its own generator seeded by
//! `derive_seed(opts.seed, [generation, slot])`, and all fan-out results
//! are consumed in slot order, so the search trajectory is a pure function
//! of `TuneOptions` — any thread count, including 1, replays it exactly.
//!
//! `num_threads` also sets the width of the *simulated* measurement farm:
//! each generation's batch of compile+profile jobs is spread over that
//! many build+measure workers (as real tuners do with builder/runner
//! pools), and `tuning_cost_s` accumulates the batch makespans. With one
//! worker this reduces to the serial sum that Table 1 reports.
//!
//! # Selection pulls, materialization follows
//!
//! Building a candidate (`SketchRule::apply`, hash, summary, features) is
//! most of a tune's wall-clock, and selection reads only as much of the
//! population as it needs to fill one measurement batch. Whenever the
//! scorer cannot tell valid candidates apart — fewer than four samples,
//! `use_cost_model: false`, or an ensemble without a single split
//! ([`CostModel::has_split`]; every measured time was equal) — all scores
//! tie, the stable sort keeps slot order, and the batch is the first
//! `measure_per_generation.min(budget_left)` valid, non-quarantined
//! slots. Such a generation materializes the population in slot order only
//! up to the slot that completes the batch; everything after it is
//! proposed (and entered in the dedup set) but never built. The
//! sequential scan defines the semantics: with several workers slots are
//! built in waves, and whatever a wave evaluated past the sequential
//! stopping slot is dropped without being counted or traced, so results,
//! trace reports and checkpoints are identical at every thread count. A
//! model with a split, and `validate_before_measure: false` (invalid
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
//! # Fault tolerance
//!
//! Measurements go through the [`crate::measure`] harness: any
//! [`Measurer`] backend (by default the analytic simulator, optionally
//! wrapped in a [`crate::measure::FaultInjector`]) with capped
//! exponential retry/backoff for transient failures, repeat-until-
//! agreement outlier rejection for corrupt readings, and `catch_unwind`
//! isolation so a panicking candidate fails alone. Candidates that fail
//! *deterministically* (compile rejects) are quarantined by structural
//! hash and never re-measured. All retry/backoff delay is charged to
//! `tuning_cost_s`, preserving the key invariant: under any transient
//! fault rate the search trajectory — `best`, `history`, every counter
//! except `tuning_cost_s`/`retries`/`failed_measurements` — is
//! bit-identical to the fault-free run.
//!
//! # Checkpoint/resume
//!
//! With `TuneOptions::checkpoint_path` set, every generation logs what its
//! measurements returned ([`crate::checkpoint`]), and a later run with the
//! same options replays that log through this very loop instead of
//! measuring: proposals are pure functions of `(seed, generation, slot)`,
//! the log supplies the only input that is not, so the resumed run is the
//! uninterrupted run.

use std::collections::{HashMap, HashSet};
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
use crate::feature::features_of_summary;
use crate::measure::{
    measure_with_retries, MeasureError, MeasureOutcome, MeasureTrace, Measurer, RetryPolicy,
    SimMeasurer, COMPILE_OVERHEAD_S,
};
use crate::parallel::{effective_threads, parallel_map, try_parallel_map};
use crate::sketch::{Decision, SketchRule};

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
    /// RNG seed. The whole search — serial or parallel — is a pure
    /// function of this seed and the other options.
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
    /// Worker threads for the candidate-evaluation pipeline, and the
    /// width of the simulated build+measure farm in the `tuning_cost_s`
    /// accounting. `0` (the default) uses all available cores; `1` forces
    /// the serial path. Any value finds the bit-identical best program
    /// (see the module docs); only the accounted tuning cost shrinks with
    /// more workers.
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
    /// When set, the outcome of every measurement is logged to this file
    /// after every generation, and a run starting with a valid matching
    /// log (same seed/machine/sketch) replays it instead of measuring,
    /// resuming bit-identically. Save failures are ignored (resumability
    /// is lost, the run is not).
    pub checkpoint_path: Option<PathBuf>,
    /// Stop after this many generations even if trial budget remains —
    /// the hook the kill-and-resume tests use to interrupt a run at a
    /// generation boundary. `None` (the default) runs to budget.
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
    /// with tracing on or off, at every thread count, and the merged
    /// report itself is byte-identical at every thread count (all span
    /// times are simulated seconds keyed by deterministic positions).
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
            num_threads: 0,
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
    /// distributed over `num_threads` build+measure workers, so this is
    /// the sum of per-generation makespans; at one thread it is the plain
    /// serial sum. Cache hits contribute nothing — the measurement is
    /// reused, not repeated.
    pub tuning_cost_s: f64,
    /// Best-so-far after each measurement.
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
    /// The generation this run resumed from — how many generations a valid
    /// checkpoint answered in full; `None` for an uninterrupted run.
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

/// How one population slot derives its decision vector (fixed by the
/// coordinator before the generation fans out).
enum Plan {
    /// Crossover of two elite decision vectors, then one mutation.
    Cross(usize, usize),
    /// One mutation of an elite decision vector.
    Mutate(usize),
    /// A fresh random sample.
    Sample,
}

/// A measurement recorded in the structural-hash candidate cache.
struct CachedMeasurement {
    features: Vec<f64>,
    time: f64,
}

/// Per-candidate result of the parallel evaluation pipeline.
struct CandidateEval {
    decisions: Vec<Decision>,
    /// Materialized program; `None` when construction/validation failed.
    func: Option<PrimFunc>,
    /// Structural hash of the program (0 when invalid).
    hash: u64,
    /// Feature vector (empty when invalid).
    features: Vec<f64>,
    /// Cached measurement time; `NaN` unless `cached` (measurement of
    /// uncached candidates happens after batch selection, through the
    /// fault-tolerant harness).
    time: f64,
    /// Whether features/time were served from the candidate cache.
    cached: bool,
}

/// The mutable coordinator state of a tuning run. A checkpoint stores none
/// of it: a resumed run rebuilds it by replaying the logged measurements.
struct SearchState {
    result: TuneResult,
    model: CostModel,
    /// Every decision vector ever proposed (dedup set).
    seen: HashSet<Vec<Decision>>,
    /// Elite pool of (decisions, measured time), in coordinator order.
    elites: Vec<(Vec<Decision>, f64)>,
    /// Structural-hash cache of completed measurements. Owned by the
    /// coordinator; each generation reads a frozen snapshot in parallel
    /// and new measurements are folded in afterwards.
    cache: HashMap<u64, CachedMeasurement>,
    /// Structural hashes of deterministically failing candidates.
    quarantine: HashSet<u64>,
    /// Next generation to execute.
    generation: u64,
}

impl SearchState {
    fn fresh() -> Self {
        SearchState {
            result: TuneResult::default(),
            model: CostModel::new(),
            seen: HashSet::new(),
            elites: Vec::new(),
            cache: HashMap::new(),
            quarantine: HashSet::new(),
            generation: 0,
        }
    }

    /// Trial budget consumed so far: successful, wasted, and failed
    /// measurements all count (a farm pays for failures too).
    fn budget_used(&self) -> usize {
        self.result.trials_measured
            + self.result.wasted_measurements
            + self.result.failed_measurements
    }
}

/// Runs evolutionary search over one sketch on the default (fault-free,
/// noise-free) simulator backend.
///
/// Deterministic for a given `opts` (including across `num_threads`
/// values); see the module docs for how the parallel pipeline and the
/// candidate cache preserve that.
pub fn tune(sketch: &dyn SketchRule, machine: &Machine, opts: &TuneOptions) -> TuneResult {
    tune_with(sketch, machine, opts, &SimMeasurer)
}

/// Runs evolutionary search over one sketch against an arbitrary
/// [`Measurer`] backend — the entry point the fault-tolerance tests and
/// benches drive with a [`crate::measure::FaultInjector`].
///
/// Measurement failures are retried (transient), quarantined
/// (deterministic), or counted as failed after exhaustion; all simulated
/// delay lands in `tuning_cost_s`. Under a purely transient fault plan
/// the returned `best`/`history` are bit-identical to the fault-free run.
pub fn tune_with(
    sketch: &dyn SketchRule,
    machine: &Machine,
    opts: &TuneOptions,
    measurer: &dyn Measurer,
) -> TuneResult {
    // Degenerate budgets: nothing to search. Guarded explicitly — a zero
    // `measure_per_generation` would otherwise loop forever without ever
    // consuming budget, and a zero `population` would spin proposing
    // nothing.
    if opts.trials == 0 || opts.population == 0 || opts.measure_per_generation == 0 {
        return TuneResult::default();
    }
    let threads = effective_threads(opts.num_threads);
    // One trace stream per tune_with call, allocated by the coordinator so
    // stream ids are deterministic regardless of thread count.
    let trace: Option<&Collector> = opts.trace.as_deref().filter(|c| c.is_enabled());
    let stream = trace.map_or(0, |c| c.stream(sketch.name()));
    let mut state = SearchState::fresh();
    let mut log = opts
        .checkpoint_path
        .as_ref()
        .map(|p| MeasureLog::open(p, opts.seed, &machine.name, sketch.name()));

    // Seed the incumbent from a warm start (stored tuning record) when it
    // beats whatever the state holds. The trajectory below is untouched:
    // the incumbent only gates the `t < best_time` replacement test.
    if let Some(w) = &opts.warm_start {
        if w.best_time < state.result.best_time {
            state.result.best = Some(w.best.clone());
            state.result.best_time = w.best_time;
        }
    }

    while state.budget_used() < opts.trials
        && opts.max_generations.is_none_or(|g| state.generation < g)
    {
        let generation = state.generation;
        let budget_left = opts.trials - state.budget_used();
        let SearchState {
            result,
            model,
            seen,
            elites,
            cache,
            quarantine,
            ..
        } = &mut state;
        // Coordinator: fix each slot's derivation plan (half evolved from
        // elites, half random).
        let plans: Vec<Plan> = (0..opts.population)
            .map(|i| {
                if elites.len() >= 2 && i % 2 == 0 {
                    Plan::Cross(i % elites.len(), (i + 1) % elites.len())
                } else if !elites.is_empty() && i % 4 == 1 {
                    Plan::Mutate(i % elites.len())
                } else {
                    Plan::Sample
                }
            })
            .collect();

        // Fan-out 1: sampling / mutation / crossover. Each slot owns a
        // generator derived from (seed, generation, slot), so the outcome
        // is independent of thread interleaving.
        let elites_ref: &Vec<(Vec<Decision>, f64)> = elites;
        let proposals: Vec<Vec<Decision>> = parallel_map(&plans, threads, |slot, plan| {
            let mut rng = StdRng::seed_from_u64(derive_seed(opts.seed, &[generation, slot as u64]));
            match *plan {
                Plan::Cross(a, b) => {
                    let crossed = sketch.crossover(&elites_ref[a].0, &elites_ref[b].0, &mut rng);
                    sketch.mutate(&crossed, &mut rng)
                }
                Plan::Mutate(e) => sketch.mutate(&elites_ref[e].0, &mut rng),
                Plan::Sample => sketch.sample(&mut rng),
            }
        });

        // Coordinator: deduplicate in slot order against everything ever
        // proposed (decision-vector level).
        let population: Vec<Vec<Decision>> = proposals
            .into_iter()
            .filter(|d| seen.insert(d.clone()))
            .collect();
        if population.is_empty() {
            // Search space exhausted.
            break;
        }

        // Coordinator: decide how much of the population selection can
        // read. The batch is the `batch_size` best-scored candidates that
        // are not quarantined, ties in slot order. When validation filters
        // invalid candidates out and the scorer is feature-blind — no
        // model yet, the cost model switched off, or an ensemble without
        // a single split — every candidate ties, so the batch is the first
        // `batch_size` valid, non-quarantined slots and nothing past the
        // last of them is ever read.
        let batch_size = opts.measure_per_generation.min(budget_left);
        let model_ready = opts.use_cost_model && model.num_samples() >= 4;
        let prefix_scan = opts.validate_before_measure && !(model_ready && model.has_split());
        let stop_at = if prefix_scan { batch_size } else { usize::MAX };
        // Quarantined candidates (deterministic failures, keyed by
        // structural hash) are never selected.
        let selectable = |e: &CandidateEval| e.hash == 0 || !quarantine.contains(&e.hash);

        // Fan-out 2: materialize + validate + summarize + extract features,
        // with cache lookups against the frozen snapshot — in slot order,
        // until `stop_at` selectable candidates exist or the population
        // ends. A wave holds as many slots as are certainly still needed
        // (at least one per worker); whatever a parallel wave evaluated
        // past the slot a sequential scan stops at is dropped uncounted,
        // so every thread count sees the same prefix. A panic while
        // materializing a candidate marks that candidate invalid instead
        // of aborting the run.
        let cache_ref: &HashMap<u64, CachedMeasurement> = cache;
        let invalid = |d: &Vec<Decision>| CandidateEval {
            decisions: d.clone(),
            func: None,
            hash: 0,
            features: Vec::new(),
            time: f64::NAN,
            cached: false,
        };
        let materialize = |_: usize, d: &Vec<Decision>| match sketch.apply(d) {
            Err(_) => invalid(d),
            Ok(f) => {
                let hash = structural_hash(&f);
                let (features, time, cached) = match cache_ref.get(&hash) {
                    Some(m) if opts.use_candidate_cache => (m.features.clone(), m.time, true),
                    _ => {
                        let s = summarize(&f);
                        // The actual measurement happens after batch
                        // selection, through the fault-tolerant
                        // harness; until then the time is unknown.
                        (features_of_summary(&f, &s), f64::NAN, false)
                    }
                };
                CandidateEval {
                    decisions: d.clone(),
                    func: Some(f),
                    hash,
                    features,
                    time,
                    cached,
                }
            }
        };
        let mut evals: Vec<CandidateEval> = Vec::new();
        let mut selectable_found = 0usize;
        while selectable_found < stop_at && evals.len() < population.len() {
            let wave = (stop_at - selectable_found)
                .max(threads)
                .min(population.len() - evals.len());
            let slots = &population[evals.len()..][..wave];
            for (r, d) in try_parallel_map(slots, threads, materialize)
                .into_iter()
                .zip(slots)
            {
                if selectable_found == stop_at {
                    break;
                }
                let eval = r.unwrap_or_else(|_| invalid(d));
                selectable_found += usize::from(eval.func.is_some() && selectable(&eval));
                evals.push(eval);
            }
        }
        let materialized = evals.len();

        // Coordinator: validation-filter accounting, in slot order.
        let mut candidates: Vec<CandidateEval> = Vec::new();
        let mut features_extracted: u64 = 0;
        for eval in evals {
            if eval.func.is_some() && !eval.cached {
                features_extracted += 1;
            }
            if eval.func.is_none() {
                result.invalid_filtered += 1;
                if opts.validate_before_measure {
                    continue;
                }
                // Without the filter this candidate would have been sent
                // to the hardware and failed there.
            }
            candidates.push(eval);
        }

        // Fan-out 3: batched cost-model ranking over what was materialized.
        // A panicking scorer ranks its candidate neutrally (score 0)
        // rather than aborting the run.
        let model_ref: &CostModel = model;
        let mut scored: Vec<(f64, usize)> = try_parallel_map(&candidates, threads, |_, eval| {
            match &eval.func {
                Some(_) if model_ready => model_ref.predict(&eval.features),
                // Without the validation filter, an invalid candidate is
                // indistinguishable from a promising one until it fails
                // on the device: rank it like any unscored candidate.
                None => f64::MAX / 2.0,
                _ => 0.0,
            }
        })
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r.unwrap_or(0.0), i))
        .collect();
        // Stable sort: equal scores keep slot order, preserving
        // determinism.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        // Coordinator: select the top-ranked batch. Quarantined
        // candidates are skipped without consuming any budget.
        let batch: Vec<usize> = scored
            .into_iter()
            .map(|(_, i)| i)
            .filter(|&i| selectable(&candidates[i]))
            .take(batch_size)
            .collect();

        // Fan-out 4: measure the uncached members of the batch (from rank
        // `from` on) through the fault-tolerant harness. The harness
        // already converts panics into per-candidate RunnerCrash errors;
        // `try_parallel_map` is the backstop for panics outside it.
        let jobs: Vec<(&PrimFunc, u64)> = batch
            .iter()
            .filter_map(|&i| {
                let eval = &candidates[i];
                let func = eval.func.as_ref().filter(|_| !eval.cached)?;
                Some((func, eval.hash))
            })
            .collect();
        let measure = |from: usize| -> Vec<MeasureOutcome> {
            try_parallel_map(&jobs[from..], threads, |rank, &(f, hash)| {
                // The trace key is the job's rank in the batch — a pure
                // function of the (deterministic) batch order, so the
                // merged report is byte-identical at any thread count.
                let mut buf = trace.map(Collector::buffer);
                let mut mt = buf.as_mut().map(|buf| MeasureTrace {
                    buf,
                    stream,
                    generation,
                    slot: (from + rank) as u64,
                });
                measure_with_retries(measurer, f, machine, hash, &opts.retry, mt.as_mut())
            })
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|msg| MeasureOutcome {
                    reading: Err(MeasureError::RunnerCrash(format!(
                        "measurement worker panicked: {msg}"
                    ))),
                    cost_s: COMPILE_OVERHEAD_S,
                    retries: 0,
                })
            })
            .collect()
        };
        let outcomes = match &mut log {
            None => measure(0),
            // Checkpointed: what the log of an earlier run holds for these
            // jobs, rank by rank, is not measured again; the farm takes
            // over where the log stops, and the log gains the generation.
            Some(log) => {
                let hashes: Vec<u64> = jobs.iter().map(|&(_, hash)| hash).collect();
                let mut outcomes = log.replay(&hashes);
                outcomes.extend(measure(outcomes.len()));
                // A failed save only loses resumability, never the run.
                let _ = log.record(&hashes, &outcomes);
                outcomes
            }
        };
        // Coordinator: accounting over the batch, in rank order. Every
        // uncached valid batch member is a job, in batch order, so the
        // batch and the job outcomes are walked in lockstep.
        let mut outcomes = outcomes.into_iter();
        let counters_before = (
            result.cache_hits,
            result.quarantined,
            result.retries,
            result.failed_measurements,
        );
        let mut verify_rejections: u64 = 0;
        let mut new_samples = Vec::new();
        let mut new_records: Vec<(u64, CachedMeasurement)> = Vec::new();
        let mut batch_costs: Vec<f64> = Vec::new();
        for i in batch {
            let eval = &candidates[i];
            let Some(f) = &eval.func else {
                // Sent to the farm unvalidated; failed at build time.
                result.wasted_measurements += 1;
                batch_costs.push(COMPILE_OVERHEAD_S);
                result.history.push(result.best_time);
                continue;
            };
            let t = if eval.cached {
                // Reused measurement: no profile repeats, no
                // recompilation, and by construction a trusted reading.
                result.cache_hits += 1;
                eval.time
            } else {
                let outcome = outcomes.next().expect("one outcome per job");
                result.retries += outcome.retries;
                batch_costs.push(outcome.cost_s);
                match outcome.reading {
                    Ok(t) => {
                        new_records.push((
                            eval.hash,
                            CachedMeasurement {
                                features: eval.features.clone(),
                                time: t,
                            },
                        ));
                        t
                    }
                    Err(e) => {
                        if matches!(e, MeasureError::CompileReject(_)) {
                            verify_rejections += 1;
                        }
                        result.failed_measurements += 1;
                        if !e.is_transient() && eval.hash != 0 && quarantine.insert(eval.hash) {
                            result.quarantined += 1;
                        }
                        result.history.push(result.best_time);
                        continue;
                    }
                }
            };
            if let Some(c) = trace {
                // Roofline attribution of every measured candidate:
                // compute-bound vs bandwidth-bound on this machine. Only
                // evaluated while tracing — the breakdown re-runs the
                // summarizer, which the disabled path must not pay for.
                match estimate_breakdown(&summarize(f), machine).bound() {
                    RooflineBound::Compute => c.count("roofline.compute_bound", 1),
                    RooflineBound::Memory => c.count("roofline.memory_bound", 1),
                }
                c.observe("search.candidate_time_s", t);
            }
            result.trials_measured += 1;
            new_samples.push((eval.features.clone(), -(t.max(1e-12)).ln()));
            if t < result.best_time {
                result.best_time = t;
                result.best = Some(f.clone());
            }
            result.history.push(result.best_time);
            elites.push((eval.decisions.clone(), t));
        }
        result.tuning_cost_s += batch_makespan(&batch_costs, threads);
        if let Some(c) = trace {
            // One span per pipeline phase, keyed by (stream, generation,
            // COORD, phase index). Only `search.measure` carries simulated
            // seconds — the *serial* sum of batch costs, which is
            // thread-invariant (the thread-dependent makespan stays in
            // `tuning_cost_s`; at one worker the two coincide). CPU-side
            // phases carry item counts instead of wall-clock, which would
            // break byte-identical reports across machines and runs.
            let g = generation;
            c.span(
                "search.evolve",
                Key::coord(stream, g, 0),
                0.0,
                plans.len() as u64,
            );
            c.span(
                "search.sketch_instantiate",
                Key::coord(stream, g, 1),
                0.0,
                materialized as u64,
            );
            c.span(
                "search.feature_extract",
                Key::coord(stream, g, 2),
                0.0,
                features_extracted,
            );
            c.span(
                "search.model_rank",
                Key::coord(stream, g, 3),
                0.0,
                candidates.len() as u64,
            );
            c.span(
                "search.measure",
                Key::coord(stream, g, 4),
                batch_makespan(&batch_costs, 1),
                batch_costs.len() as u64,
            );
            c.span(
                "search.refit",
                Key::coord(stream, g, 5),
                0.0,
                new_samples.len() as u64,
            );
            let (hits0, quar0, retr0, fail0) = counters_before;
            c.count("search.cache_hits", (result.cache_hits - hits0) as u64);
            c.count("search.quarantined", (result.quarantined - quar0) as u64);
            c.count("search.retries", result.retries - retr0);
            c.count(
                "search.failed_measurements",
                (result.failed_measurements - fail0) as u64,
            );
            c.count("search.verify_rejections", verify_rejections);
            c.count("search.proposed", population.len() as u64);
            c.count("search.materialized", materialized as u64);
            c.count(
                "search.materialize_skipped",
                (population.len() - materialized) as u64,
            );
        }
        for (hash, record) in new_records {
            cache.insert(hash, record);
        }
        if opts.use_cost_model && !new_samples.is_empty() {
            model.update(new_samples);
        }
        elites.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        elites.truncate(8);
        state.generation += 1;
    }
    state.result.resumed_from_generation = log
        .map(|l| l.replayed_generations())
        .filter(|&replayed| replayed > 0);
    state.result
}

/// Tunes several alternative sketches against `measurer` and returns the
/// best result, merging the accounting (the paper's TensorIR searches
/// tensorized and non-tensorized structures jointly).
///
/// When `opts.checkpoint_path` is set, each sketch checkpoints to its own
/// derived file (`<name>.sketch<i>`), so a killed multi-sketch run
/// resumes every sub-search from wherever it got to.
pub fn tune_multi_with(
    sketches: &[&dyn SketchRule],
    machine: &Machine,
    opts: &TuneOptions,
    measurer: &dyn Measurer,
) -> TuneResult {
    let mut merged: Option<TuneResult> = None;
    // Budget split across sketches. Each sketch gets at least one trial so
    // small budgets still cover every structure, but a zero budget stays
    // zero: `trials: 0` must not search at all.
    let per_sketch = TuneOptions {
        trials: (opts.trials / sketches.len().max(1)).max(opts.trials.min(1)),
        ..opts.clone()
    };
    for (i, sketch) in sketches.iter().enumerate() {
        let o = TuneOptions {
            seed: opts.seed.wrapping_add(i as u64 * 101),
            checkpoint_path: opts.checkpoint_path.as_ref().map(|p| {
                let mut name = p.file_name().unwrap_or_default().to_os_string();
                name.push(format!(".sketch{i}"));
                p.with_file_name(name)
            }),
            ..per_sketch.clone()
        };
        let r = tune_with(*sketch, machine, &o, measurer);
        merged = Some(match merged.take() {
            None => r,
            Some(mut m) => {
                if r.best_time < m.best_time {
                    m.best = r.best;
                    m.best_time = r.best_time;
                }
                m.trials_measured += r.trials_measured;
                m.invalid_filtered += r.invalid_filtered;
                m.wasted_measurements += r.wasted_measurements;
                m.tuning_cost_s += r.tuning_cost_s;
                m.history.extend(r.history);
                m.cache_hits += r.cache_hits;
                m.failed_measurements += r.failed_measurements;
                m.retries += r.retries;
                m.quarantined += r.quarantined;
                m.resumed_from_generation = m.resumed_from_generation.or(r.resumed_from_generation);
                m
            }
        });
    }
    merged.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch_gpu::GpuTensorSketch;
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    fn sketch() -> GpuTensorSketch {
        let func = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch")
    }

    #[test]
    fn batch_makespan_accounting() {
        // One worker = serial sum; perfect split at equal costs; a long
        // job bounds the makespan; empty batches cost nothing.
        assert_eq!(batch_makespan(&[1.0, 2.0, 3.0], 1), 6.0);
        assert_eq!(batch_makespan(&[1.0, 1.0, 1.0, 1.0], 4), 1.0);
        assert_eq!(batch_makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(batch_makespan(&[], 4), 0.0);
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
        let r = tune_multi_with(&[&s, &s], &machine, &opts, &SimMeasurer);
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
        // The headline determinism guarantee of the parallel pipeline: a
        // fixed seed replays the identical search at any thread count,
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
