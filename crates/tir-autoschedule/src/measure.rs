//! The measurement abstraction: fallible hardware measurements with
//! first-class failures, deterministic fault injection, and the
//! retry/backoff/outlier-rejection harness the search runs on.
//!
//! The paper's §4.4 search loop assumes every measurement succeeds; real
//! tuning farms (the builder/runner pools of TVM and Ansor) lose a large
//! fraction of trials to compile rejects, runner timeouts, crashes, and
//! noisy readings. This module makes those failure modes explicit:
//!
//! * [`Measurer`] — the farm interface: one candidate in, one reading (or
//!   one [`MeasureError`]) out;
//! * [`SimMeasurer`] — today's analytic-simulator path behind that
//!   interface (via `tir_exec::try_simulate`, so a degenerate `NaN`
//!   roofline becomes a [`MeasureError::CompileReject`] instead of
//!   corrupting downstream accounting);
//! * [`FaultInjector`] — a deterministic, seeded wrapper that injects
//!   timeouts, crashes, worker panics, corrupt readings, and per-candidate
//!   compile rejects at configured rates ([`FaultPlan`]), so failure
//!   handling is testable end-to-end;
//! * [`measure_with_retries`] — the harness: capped exponential
//!   retry/backoff for transient errors, repeat-until-agreement outlier
//!   rejection for corrupt readings, and `catch_unwind` isolation so a
//!   panicking measurement fails one candidate, not the run.
//!
//! # Determinism
//!
//! Injected faults are a pure function of `(FaultPlan::seed,
//! candidate_hash, attempt)` — independent of thread scheduling,
//! generation number, and wall clock. Combined with the deterministic
//! simulator this gives the key invariant the search tests assert: under
//! any *transient* fault rate, tuning converges to the bit-identical best
//! program and history as the fault-free run — only `tuning_cost_s` and
//! `retries` grow. Deterministic faults (compile rejects) instead
//! quarantine their candidate forever, exactly like a kernel the real
//! toolchain cannot build.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tir::PrimFunc;
use tir_exec::machine::Machine;
use tir_exec::try_simulate;
use tir_rand::rngs::StdRng;
use tir_rand::{derive_seed, RngExt, SeedableRng};

/// Simulated repetitions per hardware measurement (profilers average).
pub(crate) const PROFILE_REPEATS: f64 = 300.0;
/// Simulated per-candidate compile + launch overhead, seconds.
pub(crate) const COMPILE_OVERHEAD_S: f64 = 0.1;

/// Why one measurement attempt failed.
///
/// The taxonomy mirrors a real builder/runner farm. [`is_transient`]
/// splits it into errors worth retrying (the runner pool hiccuped) and
/// deterministic rejections (this candidate will never build), which the
/// search quarantines.
///
/// [`is_transient`]: MeasureError::is_transient
#[derive(Clone, Debug, PartialEq)]
pub enum MeasureError {
    /// The toolchain deterministically refused to build this candidate.
    /// Retrying is pointless; the search quarantines the candidate.
    CompileReject(String),
    /// The runner gave up after burning its whole time budget.
    Timeout {
        /// The runner's time limit — the simulated seconds wasted.
        limit_s: f64,
    },
    /// The runner process died mid-measurement (transient).
    RunnerCrash(String),
    /// Repeated readings never agreed: every reading looked corrupt.
    CorruptReading {
        /// How many readings were taken before giving up.
        readings: usize,
    },
}

impl MeasureError {
    /// Whether retrying the measurement can possibly succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            MeasureError::CompileReject(_) => false,
            MeasureError::Timeout { .. }
            | MeasureError::RunnerCrash(_)
            | MeasureError::CorruptReading { .. } => true,
        }
    }

    /// Simulated farm seconds one failed attempt burned (charged to
    /// `tuning_cost_s`). Corrupt readings charge nothing here — their
    /// profiling cost was already charged when the reading was taken.
    pub fn attempt_cost_s(&self) -> f64 {
        match self {
            // The reject happens during the (simulated) build step.
            MeasureError::CompileReject(_) => COMPILE_OVERHEAD_S,
            // A timeout burns the compile plus the full runner budget.
            MeasureError::Timeout { limit_s } => COMPILE_OVERHEAD_S + limit_s.max(0.0),
            // A crash dies early: compile plus a negligible run prefix.
            MeasureError::RunnerCrash(_) => COMPILE_OVERHEAD_S,
            MeasureError::CorruptReading { .. } => 0.0,
        }
    }
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::CompileReject(why) => write!(f, "compile reject: {why}"),
            MeasureError::Timeout { limit_s } => write!(f, "runner timeout after {limit_s}s"),
            MeasureError::RunnerCrash(why) => write!(f, "runner crash: {why}"),
            MeasureError::CorruptReading { readings } => {
                write!(f, "no agreeing reading in {readings} repeats")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// Identity of one measurement attempt, used by fault injection to stay
/// deterministic: faults are a pure function of `(seed, candidate,
/// attempt)`, never of thread scheduling or wall clock.
#[derive(Clone, Copy, Debug)]
pub struct MeasureCtx {
    /// Structural hash of the candidate program.
    pub candidate: u64,
    /// Zero-based attempt counter for this candidate (retries and repeat
    /// readings both advance it).
    pub attempt: u64,
}

/// A measurement backend: the interface between the search and the
/// (simulated) hardware farm.
///
/// `Send + Sync` so one backend can serve tunes on several threads;
/// implementations must be deterministic functions of
/// `(func, machine, ctx)` for tuning runs to stay reproducible.
pub trait Measurer: Send + Sync {
    /// Measures one candidate once, returning its execution time in
    /// seconds.
    ///
    /// # Errors
    ///
    /// Returns a [`MeasureError`] describing which farm failure mode the
    /// attempt hit. Implementations may also panic (a hard runner crash);
    /// the harness converts that into [`MeasureError::RunnerCrash`].
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        ctx: &MeasureCtx,
    ) -> Result<f64, MeasureError>;

    /// How many bit-identical readings the harness must collect before
    /// trusting one (outlier rejection). The default of 1 means readings
    /// are trusted as-is — right for a noise-free backend.
    fn min_agreeing_readings(&self) -> usize {
        1
    }
}

/// The analytic-simulator measurement backend: `tir_exec::try_simulate`
/// behind the fallible [`Measurer`] interface.
///
/// Deterministic and noise-free, so a single reading suffices and the
/// fault-free search behaves bit-identically to the pre-abstraction code.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimMeasurer;

impl Measurer for SimMeasurer {
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        _ctx: &MeasureCtx,
    ) -> Result<f64, MeasureError> {
        try_simulate(func, machine)
            .map_err(|e| MeasureError::CompileReject(format!("simulator rejected candidate: {e}")))
    }
}

/// Static-analysis gate in front of any [`Measurer`]: candidates that
/// fail the whole-program analyzer (structural validation, bounds,
/// data-race and memory-scope checks — [`tir_analysis::analyze`]) are
/// rejected with [`MeasureError::CompileReject`] before the inner backend
/// ever sees them, exactly like a kernel the real toolchain refuses to
/// build. The reject is deterministic, so the search quarantines the
/// candidate by structural hash: an illegal sketch family costs one build
/// attempt, never a simulated measurement.
///
/// `tune_workload`, the benches and the daemon do not use it: they measure
/// with [`SimMeasurer`] after the search's own §3.3 validation. The gate
/// runs in `tests/racecheck_differential.rs`, which tunes a sketch whose
/// every candidate races and checks that the inner backend never sees
/// one.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyingMeasurer<M> {
    inner: M,
}

impl<M: Measurer> VerifyingMeasurer<M> {
    /// Gates `inner` behind the static analyzer.
    pub fn new(inner: M) -> Self {
        VerifyingMeasurer { inner }
    }

    /// The wrapped measurement backend.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Measurer> Measurer for VerifyingMeasurer<M> {
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        ctx: &MeasureCtx,
    ) -> Result<f64, MeasureError> {
        let errors = tir_analysis::analyze(func);
        if !errors.is_empty() {
            let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            return Err(MeasureError::CompileReject(format!(
                "static analyzer rejected candidate: {}",
                msgs.join("; ")
            )));
        }
        self.inner.measure(func, machine, ctx)
    }

    fn min_agreeing_readings(&self) -> usize {
        self.inner.min_agreeing_readings()
    }
}

/// Failure rates for the deterministic [`FaultInjector`].
///
/// All rates are probabilities in `[0, 1]` drawn independently per
/// attempt (per candidate for `compile_reject_rate`, which models a
/// *deterministic* toolchain rejection).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability an attempt burns the runner's full time budget.
    pub timeout_rate: f64,
    /// Probability the runner process dies mid-measurement.
    pub crash_rate: f64,
    /// Probability a reading comes back corrupted (silently wrong).
    pub corrupt_rate: f64,
    /// Probability the measuring worker *panics* (exercises the
    /// `catch_unwind` isolation path; converted to a runner crash).
    pub panic_rate: f64,
    /// Probability a candidate deterministically fails to compile —
    /// keyed on the candidate alone, so every attempt fails and the
    /// search quarantines it.
    pub compile_reject_rate: f64,
    /// The simulated runner time budget burned by each timeout, seconds.
    pub timeout_limit_s: f64,
    /// Seed of the fault stream (independent of the search seed).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            timeout_rate: 0.0,
            crash_rate: 0.0,
            corrupt_rate: 0.0,
            panic_rate: 0.0,
            compile_reject_rate: 0.0,
            timeout_limit_s: 1.0,
            seed: 0x5EED_FA11,
        }
    }
}

impl FaultPlan {
    /// A plan losing `rate` of all attempts to transient faults, split
    /// evenly across timeouts, crashes, and corrupt readings. The fault
    /// matrix tests drive this at 0% / 10% / 30%.
    pub fn transient(rate: f64) -> Self {
        FaultPlan {
            timeout_rate: rate / 3.0,
            crash_rate: rate / 3.0,
            corrupt_rate: rate / 3.0,
            ..Default::default()
        }
    }

    /// Total probability that one attempt fails transiently (before the
    /// corrupt-reading draw).
    fn transient_attempt_rate(&self) -> f64 {
        self.panic_rate + self.timeout_rate + self.crash_rate
    }
}

/// Deterministic seeded fault injection around any [`Measurer`].
///
/// Fault draws depend only on `(plan.seed, ctx.candidate, ctx.attempt)`,
/// so a tuning run with faults is as reproducible as one without: any
/// farm width, and a checkpoint/resume split at any generation, replay
/// the identical fault history.
#[derive(Clone, Debug)]
pub struct FaultInjector<M> {
    inner: M,
    plan: FaultPlan,
}

impl<M: Measurer> FaultInjector<M> {
    /// Wraps `inner` with the failure modes of `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        FaultInjector { inner, plan }
    }
}

impl FaultInjector<SimMeasurer> {
    /// Fault injection over the analytic simulator — the configuration
    /// every fault-tolerance test and bench uses.
    pub fn sim(plan: FaultPlan) -> Self {
        FaultInjector::new(SimMeasurer, plan)
    }
}

/// Domain tags keeping the per-candidate and per-attempt fault streams
/// disjoint under `derive_seed`.
const STREAM_COMPILE: u64 = 0xC0;
const STREAM_ATTEMPT: u64 = 0xA7;

impl<M: Measurer> Measurer for FaultInjector<M> {
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        ctx: &MeasureCtx,
    ) -> Result<f64, MeasureError> {
        // Deterministic per-candidate faults: a rejected candidate is
        // rejected on every attempt, like a kernel the toolchain cannot
        // build. Drawn from a stream keyed on the candidate alone.
        let mut det = StdRng::seed_from_u64(derive_seed(
            self.plan.seed,
            &[STREAM_COMPILE, ctx.candidate],
        ));
        if det.random_f64() < self.plan.compile_reject_rate {
            return Err(MeasureError::CompileReject(
                "injected deterministic compile reject".to_string(),
            ));
        }
        // Transient faults: independent draw per (candidate, attempt).
        let mut rng = StdRng::seed_from_u64(derive_seed(
            self.plan.seed,
            &[STREAM_ATTEMPT, ctx.candidate, ctx.attempt],
        ));
        let roll = rng.random_f64();
        if roll < self.plan.panic_rate {
            panic!("injected runner panic (fault injection)");
        }
        if roll < self.plan.panic_rate + self.plan.timeout_rate {
            return Err(MeasureError::Timeout {
                limit_s: self.plan.timeout_limit_s,
            });
        }
        if roll < self.plan.transient_attempt_rate() {
            return Err(MeasureError::RunnerCrash(
                "injected runner crash".to_string(),
            ));
        }
        let t = self.inner.measure(func, machine, ctx)?;
        if rng.random_f64() < self.plan.corrupt_rate {
            // A silently wrong reading: multiplicative garbage in
            // [0.25, 4). Finite and positive, so it is indistinguishable
            // from a plausible measurement without repeats.
            let factor = 0.25 + rng.random_f64() * 3.75;
            return Ok(t * factor);
        }
        Ok(t)
    }

    fn min_agreeing_readings(&self) -> usize {
        if self.plan.corrupt_rate > 0.0 {
            // With silent corruption in play, a reading is only trusted
            // once it repeats bit-identically.
            self.inner.min_agreeing_readings().max(2)
        } else {
            self.inner.min_agreeing_readings()
        }
    }
}

/// Retry/backoff policy of the measurement harness.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum transient-failure retries per candidate before it counts
    /// as a failed measurement.
    pub max_retries: u32,
    /// Simulated delay before the first retry; doubles per retry
    /// (capped exponential backoff). Charged to `tuning_cost_s`.
    pub backoff_base_s: f64,
    /// Cap on a single backoff delay.
    pub backoff_cap_s: f64,
    /// Cap on successful readings collected while hunting for agreement
    /// (outlier rejection); exceeding it fails the candidate with
    /// [`MeasureError::CorruptReading`].
    pub max_readings: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            backoff_base_s: 0.05,
            backoff_cap_s: 2.0,
            max_readings: 12,
        }
    }
}

impl RetryPolicy {
    /// Simulated delay before retry number `retry` (1-based).
    pub fn backoff_s(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(52);
        (self.backoff_base_s * (1u64 << exp) as f64).min(self.backoff_cap_s)
    }
}

/// The outcome of measuring one candidate through the fault-tolerant
/// harness.
#[derive(Clone, Debug)]
pub struct MeasureOutcome {
    /// The trusted reading, or the error that exhausted the harness.
    pub reading: Result<f64, MeasureError>,
    /// Total simulated farm seconds spent: profiling repeats, compile
    /// overhead, failed-attempt costs, and backoff delays.
    pub cost_s: f64,
    /// Attempts beyond the minimum (retries after transient failures
    /// plus extra readings taken for outlier rejection).
    pub retries: u64,
}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where one measurement job writes its per-attempt trace events.
///
/// The harness emits spans keyed by `(stream, generation, slot, attempt)`
/// into the job's own [`tir_trace::TraceBuffer`], so the merged report is
/// deterministic: the key is a pure function of the job's position in the
/// batch, never of scheduling. All span times are *simulated* farm seconds
/// (the quantities charged to `tuning_cost_s`), so traces are
/// bit-identical across farm widths too.
pub struct MeasureTrace<'a, 'c> {
    /// The job's buffer events land in.
    pub buf: &'a mut tir_trace::TraceBuffer<'c>,
    /// Trace stream of the owning search (one per `tune_with` call).
    pub stream: u64,
    /// Generation the measured batch belongs to.
    pub generation: u64,
    /// Rank of this job within the batch (slot-ordered, deterministic).
    pub slot: u64,
}

impl MeasureTrace<'_, '_> {
    fn span(&mut self, name: &str, attempt: u64, sim_s: f64) {
        self.buf.span(
            name,
            tir_trace::Key {
                stream: self.stream,
                generation: self.generation,
                slot: self.slot,
                seq: attempt,
            },
            sim_s,
            1,
        );
    }
}

/// Trace-event name for one failure mode.
fn fault_span_name(e: &MeasureError) -> &'static str {
    match e {
        MeasureError::CompileReject(_) => "measure.fault.reject",
        MeasureError::Timeout { .. } => "measure.fault.timeout",
        MeasureError::RunnerCrash(_) => "measure.fault.crash",
        MeasureError::CorruptReading { .. } => "measure.fault.corrupt",
    }
}

/// The first reading seen at least `need` times (bit-exact agreement),
/// if any. With a deterministic backend the true value is the only one
/// that can repeat, so agreement identifies it even when most readings
/// are corrupt — a mode-based variant of median-of-repeats that is exact
/// rather than approximate.
fn agreed_reading(readings: &[f64], need: usize) -> Option<f64> {
    readings.iter().find_map(|&r| {
        let n = readings
            .iter()
            .filter(|x| x.to_bits() == r.to_bits())
            .count();
        (n >= need).then_some(r)
    })
}

/// Measures one candidate with transient-failure retry/backoff and
/// repeat-until-agreement outlier rejection, isolating panics.
///
/// Cost accounting (all simulated seconds, returned in
/// [`MeasureOutcome::cost_s`]):
///
/// * each successful reading charges `time * PROFILE_REPEATS`, plus one
///   `COMPILE_OVERHEAD_S` for the first build;
/// * each failed attempt charges [`MeasureError::attempt_cost_s`];
/// * each retry after a transient failure additionally charges the
///   capped exponential [`RetryPolicy::backoff_s`] delay.
///
/// With a noise-free backend ([`Measurer::min_agreeing_readings`] of 1)
/// and no faults this reduces to exactly one reading at
/// `time * PROFILE_REPEATS + COMPILE_OVERHEAD_S` — bit-identical to the
/// pre-abstraction accounting.
///
/// With `trace` set, every successful profile, compile, failure, and
/// backoff delay also lands in the [`MeasureTrace`] as a `measure.*` span
/// carrying its simulated farm seconds; the accounting and the returned
/// outcome are unaffected by tracing.
pub fn measure_with_retries(
    measurer: &dyn Measurer,
    func: &PrimFunc,
    machine: &Machine,
    candidate: u64,
    retry: &RetryPolicy,
    mut trace: Option<&mut MeasureTrace<'_, '_>>,
) -> MeasureOutcome {
    let need = measurer.min_agreeing_readings().max(1);
    let mut cost_s = 0.0f64;
    let mut attempt = 0u64;
    let mut transient_retries = 0u32;
    let mut compiled = false;
    let mut readings: Vec<f64> = Vec::new();
    loop {
        let ctx = MeasureCtx { candidate, attempt };
        attempt += 1;
        // A panicking measurement must fail this candidate, not abort
        // the tune: convert the unwind into a retryable runner crash.
        let outcome = catch_unwind(AssertUnwindSafe(|| measurer.measure(func, machine, &ctx)))
            .unwrap_or_else(|p| Err(MeasureError::RunnerCrash(panic_message(p))));
        match outcome {
            Ok(t) if t.is_finite() && t >= 0.0 => {
                cost_s += t * PROFILE_REPEATS;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span("measure.profile", ctx.attempt, t * PROFILE_REPEATS);
                }
                if !compiled {
                    cost_s += COMPILE_OVERHEAD_S;
                    compiled = true;
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.span("measure.compile", ctx.attempt, COMPILE_OVERHEAD_S);
                    }
                }
                readings.push(t);
                if let Some(agreed) = agreed_reading(&readings, need) {
                    return MeasureOutcome {
                        reading: Ok(agreed),
                        cost_s,
                        retries: attempt - need as u64,
                    };
                }
                if readings.len() >= retry.max_readings {
                    return MeasureOutcome {
                        reading: Err(MeasureError::CorruptReading {
                            readings: readings.len(),
                        }),
                        cost_s,
                        retries: attempt - 1,
                    };
                }
            }
            // A non-finite reading from a custom backend is treated as a
            // transiently corrupt attempt; it never reaches the readings
            // pool, so NaN cannot propagate into any accounting.
            not_ok => {
                let err = match not_ok {
                    Err(e) => e,
                    Ok(_) => MeasureError::CorruptReading { readings: 1 },
                };
                cost_s += err.attempt_cost_s();
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span(fault_span_name(&err), ctx.attempt, err.attempt_cost_s());
                }
                if !err.is_transient() || transient_retries >= retry.max_retries {
                    return MeasureOutcome {
                        reading: Err(err),
                        cost_s,
                        retries: attempt - 1,
                    };
                }
                transient_retries += 1;
                cost_s += retry.backoff_s(transient_retries);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.span(
                        "measure.backoff",
                        ctx.attempt,
                        retry.backoff_s(transient_retries),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::DataType;
    use tir_exec::simulate;

    fn mm() -> PrimFunc {
        tir::builder::matmul_func("mm", 32, 32, 32, DataType::float16())
    }

    fn ctx(candidate: u64, attempt: u64) -> MeasureCtx {
        MeasureCtx { candidate, attempt }
    }

    #[test]
    fn sim_measurer_matches_simulate() {
        let f = mm();
        let m = Machine::sim_gpu();
        let t = SimMeasurer.measure(&f, &m, &ctx(1, 0)).expect("clean");
        assert_eq!(t, simulate(&f, &m));
    }

    #[test]
    fn fault_free_harness_matches_legacy_accounting() {
        // No faults, noise-free backend: exactly one reading at the
        // pre-abstraction cost formula, zero retries.
        let f = mm();
        let m = Machine::sim_gpu();
        let out = measure_with_retries(&SimMeasurer, &f, &m, 7, &RetryPolicy::default(), None);
        let t = simulate(&f, &m);
        assert_eq!(out.reading, Ok(t));
        assert_eq!(out.cost_s, t * PROFILE_REPEATS + COMPILE_OVERHEAD_S);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn fault_draws_are_deterministic() {
        let f = mm();
        let m = Machine::sim_gpu();
        let inj = FaultInjector::sim(FaultPlan {
            timeout_rate: 0.5,
            ..Default::default()
        });
        for a in 0..16 {
            let r1 = inj.measure(&f, &m, &ctx(3, a));
            let r2 = inj.measure(&f, &m, &ctx(3, a));
            assert_eq!(r1, r2, "attempt {a} must be reproducible");
        }
        // Different attempts must not all agree (otherwise the fault is
        // effectively deterministic and retries could never help).
        let outcomes: Vec<bool> = (0..32)
            .map(|a| inj.measure(&f, &m, &ctx(3, a)).is_ok())
            .collect();
        assert!(outcomes.iter().any(|ok| *ok));
        assert!(outcomes.iter().any(|ok| !*ok));
    }

    #[test]
    fn transient_faults_retry_to_the_true_reading() {
        let f = mm();
        let m = Machine::sim_gpu();
        let truth = simulate(&f, &m);
        for rate in [0.1, 0.3, 0.5] {
            let inj = FaultInjector::sim(FaultPlan::transient(rate));
            for candidate in 0..24u64 {
                let out =
                    measure_with_retries(&inj, &f, &m, candidate, &RetryPolicy::default(), None);
                assert_eq!(
                    out.reading,
                    Ok(truth),
                    "candidate {candidate} at rate {rate}"
                );
                assert!(out.cost_s >= truth * PROFILE_REPEATS + COMPILE_OVERHEAD_S);
            }
        }
    }

    #[test]
    fn corrupt_readings_are_rejected_by_agreement() {
        // Even with half of all readings silently corrupted, the
        // repeat-until-agreement harness recovers the exact true value.
        let f = mm();
        let m = Machine::sim_gpu();
        let truth = simulate(&f, &m);
        let inj = FaultInjector::sim(FaultPlan {
            corrupt_rate: 0.5,
            ..Default::default()
        });
        assert_eq!(inj.min_agreeing_readings(), 2);
        let mut saw_extra_reading = false;
        for candidate in 0..24u64 {
            let out = measure_with_retries(&inj, &f, &m, candidate, &RetryPolicy::default(), None);
            assert_eq!(out.reading, Ok(truth), "candidate {candidate}");
            saw_extra_reading |= out.retries > 0;
        }
        assert!(saw_extra_reading, "corruption at 50% must force re-reads");
    }

    #[test]
    fn compile_rejects_are_deterministic_per_candidate() {
        let f = mm();
        let m = Machine::sim_gpu();
        let inj = FaultInjector::sim(FaultPlan {
            compile_reject_rate: 0.4,
            ..Default::default()
        });
        let mut rejected = 0;
        for candidate in 0..32u64 {
            let first = inj.measure(&f, &m, &ctx(candidate, 0));
            // Every later attempt agrees with the first: the fault is a
            // property of the candidate, not of the attempt.
            for attempt in 1..6 {
                assert_eq!(
                    first.is_err(),
                    inj.measure(&f, &m, &ctx(candidate, attempt)).is_err()
                );
            }
            if let Err(e) = first {
                assert!(!e.is_transient());
                rejected += 1;
            }
        }
        assert!(rejected > 0, "40% reject rate must hit some of 32");
        assert!(rejected < 32);
    }

    #[test]
    fn injected_panic_becomes_a_runner_crash_and_retries() {
        let f = mm();
        let m = Machine::sim_gpu();
        let truth = simulate(&f, &m);
        let inj = FaultInjector::sim(FaultPlan {
            panic_rate: 0.4,
            ..Default::default()
        });
        for candidate in 0..12u64 {
            let out = measure_with_retries(&inj, &f, &m, candidate, &RetryPolicy::default(), None);
            assert_eq!(out.reading, Ok(truth), "candidate {candidate}");
        }
    }

    #[test]
    fn exhausted_retries_fail_with_the_last_transient_error() {
        let f = mm();
        let m = Machine::sim_gpu();
        let inj = FaultInjector::sim(FaultPlan {
            timeout_rate: 1.0,
            ..Default::default()
        });
        let retry = RetryPolicy {
            max_retries: 3,
            ..Default::default()
        };
        let out = measure_with_retries(&inj, &f, &m, 1, &retry, None);
        assert!(matches!(out.reading, Err(MeasureError::Timeout { .. })));
        assert_eq!(out.retries, 3);
        // 4 attempts x (compile + timeout budget) + 3 backoff delays.
        let expected = 4.0 * (COMPILE_OVERHEAD_S + 1.0)
            + retry.backoff_s(1)
            + retry.backoff_s(2)
            + retry.backoff_s(3);
        assert!((out.cost_s - expected).abs() < 1e-12, "{}", out.cost_s);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy {
            max_retries: 8,
            backoff_base_s: 0.05,
            backoff_cap_s: 0.3,
            max_readings: 4,
        };
        assert_eq!(r.backoff_s(1), 0.05);
        assert_eq!(r.backoff_s(2), 0.1);
        assert_eq!(r.backoff_s(3), 0.2);
        assert_eq!(r.backoff_s(4), 0.3, "capped");
        assert_eq!(r.backoff_s(10), 0.3, "still capped");
    }

    #[test]
    fn nonfinite_backend_reading_never_propagates() {
        /// A backend that always reads NaN.
        struct NanMeasurer;
        impl Measurer for NanMeasurer {
            fn measure(
                &self,
                _f: &PrimFunc,
                _m: &Machine,
                _c: &MeasureCtx,
            ) -> Result<f64, MeasureError> {
                Ok(f64::NAN)
            }
        }
        let f = mm();
        let m = Machine::sim_gpu();
        let retry = RetryPolicy {
            max_retries: 2,
            ..Default::default()
        };
        let out = measure_with_retries(&NanMeasurer, &f, &m, 1, &retry, None);
        assert!(matches!(
            out.reading,
            Err(MeasureError::CorruptReading { .. })
        ));
        assert!(out.cost_s.is_finite());
    }

    #[test]
    fn verifying_measurer_passes_legal_candidates() {
        let f = mm();
        let m = Machine::sim_gpu();
        let t = VerifyingMeasurer::new(SimMeasurer)
            .measure(&f, &m, &ctx(1, 0))
            .expect("legal candidate must reach the simulator");
        assert_eq!(t, simulate(&f, &m));
    }

    #[test]
    fn verifying_measurer_rejects_race_without_measuring() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use tir::{Buffer, Expr, ForKind, Stmt, Var};

        /// Counts how often the farm is actually hit.
        struct Counting(AtomicUsize);
        impl Measurer for Counting {
            fn measure(
                &self,
                _f: &PrimFunc,
                _m: &Machine,
                _c: &MeasureCtx,
            ) -> Result<f64, MeasureError> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(1.0)
            }
        }

        // All iterations of a parallel loop write O[0]: a race the static
        // analyzer must catch at "build" time.
        let o = Buffer::new("O", tir::DataType::float32(), vec![1]);
        let i = Var::int("i");
        let store = Stmt::store(o.clone(), vec![Expr::int(0)], Expr::from(&i));
        let body = Stmt::For(Box::new(tir::For::with_kind(
            i,
            Expr::int(8),
            ForKind::Parallel,
            store,
        )));
        let racy = PrimFunc::new("racy", vec![o], body);

        let inner = Counting(AtomicUsize::new(0));
        let gate = VerifyingMeasurer::new(inner);
        let err = gate
            .measure(&racy, &Machine::sim_gpu(), &ctx(1, 0))
            .unwrap_err();
        assert!(matches!(err, MeasureError::CompileReject(_)), "{err:?}");
        assert!(!err.is_transient(), "rejects must quarantine");
        assert_eq!(
            gate.inner().0.load(Ordering::SeqCst),
            0,
            "the farm must never see a rejected candidate"
        );
    }

    #[test]
    fn error_classification() {
        assert!(!MeasureError::CompileReject("x".into()).is_transient());
        assert!(MeasureError::Timeout { limit_s: 1.0 }.is_transient());
        assert!(MeasureError::RunnerCrash("x".into()).is_transient());
        assert!(MeasureError::CorruptReading { readings: 3 }.is_transient());
    }
}
