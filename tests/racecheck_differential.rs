//! Differential fuzzing of the static race/bounds analyzer against the VM
//! sanitizer oracle.
//!
//! The static side (`tir_analysis::analyze`: structural validation, bounds
//! intervals, affine race proof, memory-scope rules) claims a program is
//! legal or not without running it. The dynamic side
//! (`tir_exec::run_sanitized`: per-access shadow-memory race tracking and
//! flat bounds checks on the bytecode VM) observes one concrete execution.
//! The contract this suite enforces over a seeded corpus:
//!
//! * **Zero false negatives** — any program the sanitizer convicts
//!   (`DataRace` / `OutOfBounds`) must already have been rejected
//!   statically. The analyzer may only ever err on the side of rejecting.
//! * **False positives are counted** — programs rejected statically but
//!   dynamically clean are reported; on this corpus there are none, and
//!   that precision is regression-guarded.
//!
//! The corpus: seeded random legal schedule pipelines over a matmul
//! (mirroring `vm_differential.rs`), plus deliberately-illegal mutants
//! (reduction loops flipped to `Parallel` / bound to `threadIdx`, store
//! indices shifted out of range) built with the schedule primitives, which
//! check only their own preconditions, or by raw IR surgery.
//!
//! The last test closes the loop with the auto-tuner: a sketch family
//! whose every candidate races is quarantined through
//! `MeasureError::CompileReject` without the simulator ever measuring it.

mod corpus;

use tir::{Buffer, DataType, Expr, ForKind, PrimFunc, Stmt, Var};
use tir_autoschedule::{
    tune_with, Decision, DecisionKind, Measurer, SketchRule, TuneOptions, VerifyingMeasurer,
};
use tir_exec::machine::Machine;
use tir_exec::{run_sanitized, ExecError};

/// Static verdict: the analyzer's diagnostics (empty = legal).
fn static_diagnostics(func: &PrimFunc) -> Vec<String> {
    tir_analysis::analyze(func)
        .iter()
        .map(|e| e.to_string())
        .collect()
}

/// Dynamic verdict: one sanitized execution on seeded random inputs.
/// `Ok(())` means the run completed with no race and no out-of-bounds
/// access; `Err` carries the first violation.
fn sanitize(func: &PrimFunc, seed: u64) -> Result<(), ExecError> {
    run_sanitized(func, corpus::seeded_args(func, seed), None).map(|_| ())
}

/// Whether a dynamic failure is a sanitizer conviction (as opposed to an
/// unrelated execution error, which would be a corpus bug).
fn is_conviction(e: &ExecError) -> bool {
    matches!(e, ExecError::DataRace(_) | ExecError::OutOfBounds(_))
}

/// Random legal pipelines (the `vm_differential.rs` transform mix): the
/// static and dynamic verdicts must both be "legal".
#[test]
fn legal_corpus_has_no_false_positives() {
    let mut false_positives: Vec<(u64, String)> = Vec::new();
    for (case, func) in (0u64..).zip(corpus::random_pipelines(112)) {
        let diags = static_diagnostics(&func);
        let dynamic = sanitize(&func, 0xace + case);
        if let Err(e) = &dynamic {
            // Dynamic conviction of a legal pipeline would be a sanitizer
            // bug; any dynamic failure here also demands a static reject
            // (zero false negatives).
            assert!(is_conviction(e), "case {case}: unexpected exec error {e}");
            assert!(
                !diags.is_empty(),
                "case {case}: FALSE NEGATIVE — sanitizer found {e} but analyzer was silent"
            );
        }
        if !diags.is_empty() && dynamic.is_ok() {
            false_positives.push((case, diags.join("; ")));
        }
    }
    for (case, why) in &false_positives {
        eprintln!("false positive on legal case {case}: {why}");
    }
    assert_eq!(
        false_positives.len(),
        0,
        "analyzer precision regressed: {} false positives on the legal corpus",
        false_positives.len()
    );
}

/// Deliberately-illegal mutants: every one the sanitizer convicts must be
/// statically rejected (the zero-false-negative direction), and every
/// mutant in these families must in fact be rejected statically.
#[test]
fn illegal_mutants_are_all_caught_statically() {
    let mut false_negatives: Vec<String> = Vec::new();
    let mut static_only: usize = 0;
    let mut checked = 0usize;
    for (label, func, seed) in &corpus::illegal_mutants() {
        let diags = static_diagnostics(func);
        let dynamic = sanitize(func, *seed);
        checked += 1;
        match &dynamic {
            Err(e) if is_conviction(e) => {
                if diags.is_empty() {
                    false_negatives.push(format!("{label}: sanitizer found {e}"));
                }
            }
            Err(e) => panic!("{label}: unexpected exec error {e}"),
            Ok(()) => {
                // Statically rejected but this particular execution
                // didn't trip (e.g. an overlap the flat bounds check
                // can't see). Counted, not failed: the analyzer is
                // allowed to be stricter than one concrete run.
                static_only += 1;
            }
        }
        assert!(
            !diags.is_empty(),
            "{label}: the analyzer must reject this mutant (sanitizer said {dynamic:?})"
        );
    }
    assert!(
        false_negatives.is_empty(),
        "static analyzer missed dynamically-convicted programs:\n{}",
        false_negatives.join("\n")
    );
    eprintln!(
        "illegal mutants: {checked} checked, {static_only} rejected statically \
         without a dynamic conviction on the sampled inputs"
    );
}

/// A sketch family whose every candidate races: all iterations of a
/// parallel loop accumulate into the same cell. The decision only varies
/// a loop extent, so the whole family is illegal.
struct RacySketch;

impl SketchRule for RacySketch {
    fn name(&self) -> &str {
        "racy-family"
    }

    fn space(&self) -> Vec<DecisionKind> {
        vec![DecisionKind::Choice {
            options: (3..19).collect(),
        }]
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, tir_schedule::ScheduleError> {
        let extent = decisions
            .first()
            .and_then(|d| d.first())
            .copied()
            .unwrap_or(8);
        let o = Buffer::new("O", DataType::float32(), vec![1]);
        let i = Var::int("i");
        let store = Stmt::store(
            o.clone(),
            vec![Expr::int(0)],
            o.load(vec![Expr::int(0)]) + Expr::from(&i),
        );
        let body = Stmt::For(Box::new(tir::For::with_kind(
            i,
            Expr::int(extent),
            ForKind::Parallel,
            store,
        )));
        Ok(PrimFunc::new("racy", vec![o], body))
    }
}

/// A backend that records whether the farm was ever reached.
struct CountingSim(std::sync::atomic::AtomicUsize);

impl Measurer for CountingSim {
    fn measure(
        &self,
        _f: &PrimFunc,
        _m: &Machine,
        _c: &tir_autoschedule::MeasureCtx,
    ) -> Result<f64, tir_autoschedule::MeasureError> {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(1.0)
    }
}

/// The tuner integration the issue demands: an illegal sketch family is
/// rejected via `CompileReject` and quarantined — the simulator never
/// measures a single one of its candidates.
#[test]
fn tune_quarantines_illegal_family_without_simulating() {
    let gate = VerifyingMeasurer::new(CountingSim(std::sync::atomic::AtomicUsize::new(0)));
    let opts = TuneOptions {
        trials: 8,
        population: 8,
        measure_per_generation: 4,
        max_generations: Some(6),
        num_threads: 1,
        ..TuneOptions::default()
    };
    let result = tune_with(&[&RacySketch], &Machine::sim_gpu(), &opts, &gate);
    assert!(result.best.is_none(), "no racy candidate may win");
    assert_eq!(result.trials_measured, 0, "nothing legal to measure");
    assert!(
        result.quarantined >= 1,
        "compile rejects must quarantine the family: {result:?}"
    );
    assert!(result.failed_measurements >= 1);
    assert_eq!(
        gate.inner().0.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "the simulator must never see a statically-illegal candidate"
    );
}
