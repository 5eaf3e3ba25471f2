//! `GpuScalarSketch::effective` against `apply`, on the scalar GPU part of
//! the corpus of `sketch_apply_golden.rs`: the sketch `build_sketches`
//! makes for each of the eight bench-suite float16 operators on `sim_gpu`,
//! 40 seeded decision vectors each, and for every one of them a mutation
//! and a crossover with the next seed's vector — the two ways the search
//! derives vectors it did not sample.
//!
//! The sketch builds one program per effective form and answers every later
//! vector with that form from memory, so the form must be *sound*: on fresh
//! sketches, `apply(d)` and `apply(effective(d))` are structurally equal
//! programs with equal hashes, or fail with the same error text; one sketch
//! asked for every vector in turn (memo hits included) answers the same;
//! and `effective` is idempotent. It should also be *complete*, or the memo
//! saves less than it could: distinct forms among the `Ok` candidates of an
//! operator are exactly its distinct programs. The table prints with
//! `-- --nocapture`.

use std::collections::HashSet;

use tir::structural::{func_structural_eq, structural_hash};
use tir::{DataType, PrimFunc};
use tir_autoschedule::sketch_gpu::GpuScalarSketch;
use tir_autoschedule::{Decision, SketchRule};
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_schedule::ScheduleError;
use tir_workloads::bench_suite;

const VECTORS_PER_SKETCH: u64 = 40;

/// The seeded vectors of a sketch, each followed by a mutation of it and
/// its crossover with the next seed's vector.
fn corpus(sketch: &dyn SketchRule) -> Vec<Vec<Decision>> {
    let sampled: Vec<Vec<Decision>> = (0..VECTORS_PER_SKETCH)
        .map(|seed| sketch.sample(&mut StdRng::seed_from_u64(seed)))
        .collect();
    let mut out = Vec::new();
    for (i, d) in sampled.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
        let next = &sampled[(i + 1) % sampled.len()];
        out.push(d.clone());
        out.push(sketch.mutate(d, &mut rng));
        out.push(sketch.crossover(d, next, &mut rng));
    }
    out
}

/// The error text of a failed build, or the program's hash.
fn outcome(r: &Result<PrimFunc, ScheduleError>) -> Result<u64, String> {
    r.as_ref().map(structural_hash).map_err(ToString::to_string)
}

#[test]
fn effective_forms_build_what_their_vectors_build() {
    let mut table = Vec::new();
    for case in bench_suite(DataType::float16()) {
        let label = format!("sim_gpu {} gpu-scalar", case.kind.label());
        let fresh = || GpuScalarSketch::new(&case.func);
        let memoized = fresh();
        let (mut forms, mut hashes) = (HashSet::new(), HashSet::new());
        let (mut vectors, mut ok) = (0usize, 0usize);
        for d in corpus(&memoized) {
            vectors += 1;
            let form = (memoized.effective(&d)).unwrap_or_else(|| panic!("{label}: no form"));
            assert_eq!(
                memoized.effective(&form).as_ref(),
                Some(&form),
                "{label}: effective is not idempotent on {d:?}"
            );
            let built = fresh().apply(&d);
            let (from_form, answered) = (fresh().apply(&form), memoized.apply(&d));
            for (other, what) in [(&from_form, "its form"), (&answered, "the memo")] {
                assert_eq!(
                    outcome(&built),
                    outcome(other),
                    "{label}: {d:?} (form {form:?}) and {what} disagree"
                );
                if let (Ok(a), Ok(b)) = (&built, other) {
                    assert!(
                        func_structural_eq(a, b),
                        "{label}: {d:?} (form {form:?}) and {what} build different programs"
                    );
                }
            }
            if let Ok(func) = &built {
                ok += 1;
                forms.insert(form);
                hashes.insert(structural_hash(func));
            }
        }
        assert_eq!(vectors, 3 * VECTORS_PER_SKETCH as usize);
        table.push((label, ok, forms.len(), hashes.len()));
    }
    println!(
        "{:<22} {:>4} {:>6} {:>8}",
        "scalar sketch", "ok", "forms", "programs"
    );
    for (label, ok, forms, programs) in &table {
        println!("{label:<22} {ok:>4} {forms:>6} {programs:>8}");
    }
    assert_eq!(table.len(), 8);
    for (label, ok, forms, programs) in &table {
        assert!(*ok > 0, "{label}: no candidate built");
        assert_eq!(
            forms, programs,
            "{label}: distinct forms and distinct programs differ"
        );
        assert!(forms < ok, "{label}: no two vectors share a form");
    }
}
