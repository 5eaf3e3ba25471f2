//! Golden `SketchRule::apply` outputs: the bit-identity gate for changes to
//! how schedule primitives rewrite the program.
//!
//! For every sketch `build_sketches` yields on the bench-suite families
//! (float16 on `sim_gpu`, int8 on `sim_arm`, `Strategy::TensorIr`) and 40
//! seeded decision vectors each, `tests/golden/sketch_apply.txt` records
//! what `apply` returned: the structural hash and a hash of the printed
//! program, or the `ScheduleError` variant; every `Ok` program is asserted
//! to be well-formed (`tir::well_formed`). The file was generated on the
//! commit *before* the primitives were rewritten to work in place; a
//! mismatch means a primitive now builds a different tree (a dropped
//! `Seq` normalization shows here first, and would otherwise surface only
//! as a drifting candidate-cache hit rate).
//!
//! Regenerate (only when an intended change alters sketch output) with
//! `cargo test -p tir-autoschedule --test sketch_apply_golden -- --ignored`.

#[path = "../../../tests/corpus/golden.rs"]
mod golden;

use golden::fnv1a;
use tir::structural::{func_structural_eq, structural_hash};
use tir::{DataType, PrimFunc};
use tir_autoschedule::{build_sketches, Strategy};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_schedule::ScheduleError;
use tir_tensorize::builtin_registry;
use tir_workloads::bench_suite;

const VECTORS_PER_SKETCH: u64 = 40;
const GOLDEN: &str = include_str!("golden/sketch_apply.txt");

/// Calls `f` with every `apply` result of the corpus, sketch by sketch:
/// the row label (`machine operator sketch`) and the 40 seeded results.
fn for_each_sketch(mut f: impl FnMut(String, Vec<Result<PrimFunc, ScheduleError>>)) {
    let reg = builtin_registry();
    let targets = [
        ("sim_gpu", Machine::sim_gpu(), DataType::float16()),
        ("sim_arm", Machine::sim_arm(), DataType::int8()),
    ];
    for (machine_name, machine, dtype) in &targets {
        for case in bench_suite(*dtype) {
            for sketch in build_sketches(&case.func, machine, &reg, Strategy::TensorIr) {
                let results = (0..VECTORS_PER_SKETCH)
                    .map(|seed| sketch.apply(&sketch.sample(&mut StdRng::seed_from_u64(seed))))
                    .collect();
                let label = format!("{machine_name} {} {}", case.kind.label(), sketch.name());
                f(label, results);
            }
        }
    }
}

fn outcomes() -> String {
    let mut out = String::new();
    for_each_sketch(|label, results| {
        for (seed, result) in results.into_iter().enumerate() {
            let outcome = match result {
                Ok(f) => {
                    assert_eq!(tir::well_formed(&f), Ok(()), "{label} {seed}:\n{f}");
                    format!(
                        "ok {:016x} {:016x}",
                        structural_hash(&f),
                        fnv1a(f.to_string().bytes())
                    )
                }
                Err(ScheduleError::BlockNotFound(_)) => "err BlockNotFound".into(),
                Err(ScheduleError::LoopNotFound(_)) => "err LoopNotFound".into(),
                Err(ScheduleError::Precondition(_)) => "err Precondition".into(),
                Err(ScheduleError::Invalid(_)) => "err Invalid".into(),
            };
            out.push_str(&format!("{label} {seed} {outcome}\n"));
        }
    });
    out
}

/// `func_structural_eq` implies equal `structural_hash` (and, on this
/// corpus, the converse): checked on every pair of programs one sketch
/// produced, where distinct decision vectors do build equal programs.
#[test]
fn structural_equality_implies_equal_hash() {
    let (mut equal_pairs, mut pairs) = (0usize, 0usize);
    for_each_sketch(|label, results| {
        let programs: Vec<(u64, PrimFunc)> = (results.into_iter().flatten())
            .map(|f| (structural_hash(&f), f))
            .collect();
        for (n, (hash_a, a)) in programs.iter().enumerate() {
            for (hash_b, b) in &programs[n + 1..] {
                let equal = func_structural_eq(a, b);
                assert_eq!(
                    equal,
                    hash_a == hash_b,
                    "{label}: equality and hash disagree on\n{a}\nvs\n{b}"
                );
                equal_pairs += usize::from(equal);
                pairs += 1;
            }
        }
    });
    assert!(
        equal_pairs > 0 && equal_pairs < pairs,
        "{equal_pairs} of {pairs} pairs are equal: the check needs both kinds"
    );
}

/// The recompute-everything signature refresh `cache_read`/`cache_write`
/// ran before it was narrowed to the two redirected buffers.
#[path = "../../tir-schedule/tests/support/full_refresh.rs"]
mod full_refresh;

/// Narrowed refresh ≡ full refresh, on the corpus: in every program a
/// sketch returns, each non-leaf block's `reads`/`writes` are exactly what
/// the full refresh derives from its body, order included — nothing a
/// narrowed refresh copied instead of recomputing has gone stale. (The
/// comparison after each single `cache_read`/`cache_write` runs inside
/// `tir-schedule`'s unit tests, where the primitive can be observed.)
#[test]
fn non_leaf_signatures_are_what_a_full_refresh_derives() {
    let (mut programs, mut non_leaf) = (0usize, 0usize);
    for_each_sketch(|label, results| {
        for f in results.into_iter().flatten() {
            let mut refreshed = tir::Stmt::clone(&f.body);
            full_refresh::refresh_all_signatures(&mut refreshed);
            assert!(*f.body == refreshed, "{label}: stale signature in\n{f}");
            programs += 1;
            tir::visit::for_each_block_realize(&f.body, &mut |br| {
                let nested = tir::visit::block_names(&br.block.body);
                non_leaf += usize::from(br.block.name != "root" && !nested.is_empty());
            });
        }
    });
    assert!(
        programs > 320 && non_leaf > 320,
        "{programs} programs, {non_leaf} non-leaf blocks"
    );
}

#[test]
fn apply_outputs_match_golden() {
    golden::assert_matches_golden(GOLDEN, &outcomes(), "apply outcomes");
    assert!(
        GOLDEN.lines().filter(|l| l.contains(" ok ")).count() > GOLDEN.lines().count() / 4,
        "golden set is mostly failures; it would not notice a changed program"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sketch_apply.txt");
    golden::rewrite(path, &outcomes());
}
