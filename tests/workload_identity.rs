//! One workload identity: the tuning database keys a workload by
//! `workload_key`, the hex of its structural stream, so two programs share
//! a record exactly when they are structurally equal — no collision, and no
//! second, coarser key that could serve one workload another's program.

#[path = "corpus/golden.rs"]
mod golden;

use std::collections::HashSet;

use golden::fnv1a;
use tir::structural::{func_structural_eq, structural_stream};
use tir::{DataType, PrimFunc};
use tir_autoschedule::{
    build_sketches, workload_key, Strategy, TuneOptions, TuningDatabase, TuningRecord,
};
use tir_exec::Machine;
use tir_graph::fusion::{fuse_graph, singleton_groups};
use tir_graph::models::{arm_models, gpu_models};
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, ops, OpKind};

fn opts(trials: usize) -> TuneOptions {
    TuneOptions {
        trials,
        num_threads: 1,
        ..TuneOptions::default()
    }
}

/// The single-operator suite at both precisions, `(name, program)`.
fn suite() -> Vec<(String, PrimFunc)> {
    [DataType::float16(), DataType::int8()]
        .into_iter()
        .flat_map(|dt| {
            let name = move |kind: OpKind| format!("{} {dt}", kind.label());
            bench_suite(dt)
                .into_iter()
                .map(move |c| (name(c.kind), c.func))
        })
        .collect()
}

/// Every workload program the repo tunes: the suite, and the fused and
/// unfused groups of the GPU and ARM networks.
fn workloads() -> Vec<(String, PrimFunc)> {
    let mut funcs = suite();
    for model in gpu_models().into_iter().chain(arm_models()) {
        let groups = fuse_graph(&model)
            .into_iter()
            .chain(singleton_groups(&model));
        funcs.extend(groups.filter_map(|g| Some((g.name, g.func?))));
    }
    funcs
}

/// The corpus the identity is checked on: the suite, every fused group of
/// the four GPU networks, and 200 seeded sketch candidates (scheduled
/// programs: thread bindings, cache stages, tensor intrinsics). Many
/// differ only in a shape, a dtype or a literal.
fn corpus() -> Vec<PrimFunc> {
    let mut funcs: Vec<PrimFunc> = suite().into_iter().map(|(_, f)| f).collect();
    for model in gpu_models() {
        funcs.extend(fuse_graph(&model).into_iter().filter_map(|g| g.func));
    }
    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let sketches: Vec<_> = bench_suite(DataType::float16())
        .iter()
        .flat_map(|case| build_sketches(&case.func, &machine, &reg, Strategy::TensorIr))
        .collect();
    let candidates = (0u64..)
        .flat_map(|seed| sketches.iter().map(move |s| (seed, s)))
        .filter_map(|(seed, s)| s.apply(&s.sample(&mut StdRng::seed_from_u64(seed))).ok())
        .take(200);
    funcs.extend(candidates);
    funcs
}

/// Key ⇔ structure: over every pair of the corpus, two programs have one
/// key exactly when they are structurally equal, and every key is its
/// program's structural stream in lowercase hex.
#[test]
fn equal_keys_are_exactly_structurally_equal_programs() {
    let funcs = corpus();
    let keys: Vec<String> = funcs.iter().map(workload_key).collect();
    let distinct: HashSet<&String> = keys.iter().collect();
    println!("{} programs, {} distinct keys", funcs.len(), distinct.len());
    assert!(funcs.len() >= 250 && distinct.len() >= 100, "corpus shrank");
    for (f, key) in funcs.iter().zip(&keys) {
        let hex: String = structural_stream(f)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(*key, hex, "{}: not the stream in lowercase hex", f.name);
    }
    for (i, f) in funcs.iter().enumerate() {
        for (j, g) in funcs.iter().enumerate().skip(i) {
            assert_eq!(
                keys[i] == keys[j],
                func_structural_eq(f, g),
                "programs {i} and {j}"
            );
        }
    }
}

/// The workloads the repo tunes fall into as many classes as the printed,
/// renamed text key made of them, so no tune is added or saved by the
/// change of key. Print → parse moves the key of exactly three of them:
/// the printer drops an integer literal's type, so each parses back with a
/// literal of another type (a miss and a re-tune, never a wrong program).
/// The list can only shrink.
#[test]
fn the_tuned_workloads_keep_their_classes_and_three_do_not_round_trip() {
    let funcs = workloads();
    let keys: Vec<String> = funcs.iter().map(|(_, f)| workload_key(f)).collect();
    let classes: HashSet<&String> = keys.iter().collect();
    println!("{} programs, {} classes", funcs.len(), classes.len());
    assert_eq!((funcs.len(), classes.len()), (282, 221));

    let mut moved: Vec<&str> = funcs
        .iter()
        .zip(&keys)
        .filter(|((_, f), key)| {
            let reparsed = tir::parser::parse_func(&f.to_string()).expect("round trip");
            workload_key(&reparsed) != **key
        })
        .map(|((name, _), _)| name.as_str())
        .collect();
    moved.sort_unstable();
    println!("moved by print → parse: {moved:?}");
    assert_eq!(moved, KEY_MOVED_BY_PRINT_PARSE);
}

/// The workloads whose key print → parse moves: each holds an integer
/// literal of a type other than `int32`, which prints as a bare number and
/// parses back as an `int32` one.
const KEY_MOVED_BY_PRINT_PARSE: &[&str] =
    &["T2D int8", "bert_ffn1_bias_gelu", "vit_mlp1_bias_gelu"];

/// A fixed script of every way the database is driven — cold tunes, warm
/// hits on the same and on alpha-equivalent programs, key lookups that hit
/// and miss, a raw insert, a second machine, a second strategy, a budget
/// upgrade. The expected counters were recorded on the commit before the
/// fingerprint index existed (printed text keys only), and the structural
/// key counts alike.
#[test]
fn scripted_sequence_counts_as_the_text_keyed_database_did() {
    let reg = builtin_registry();
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let (f16, f32, i8, i32) = (
        DataType::float16(),
        DataType::float32(),
        DataType::int8(),
        DataType::int32(),
    );
    let mut db = TuningDatabase::new();
    let mut counts = Vec::new();
    let mut step = |db: &TuningDatabase| counts.push((db.hits(), db.misses(), db.len()));

    let gmm = ops::gmm(32, 32, 32, f16, f32);
    db.tune_cached(&gmm, &gpu, &reg, Strategy::TensorIr, &opts(8));
    step(&db);
    db.tune_cached(&gmm, &gpu, &reg, Strategy::TensorIr, &opts(8));
    step(&db);
    // Fresh identities, another function name: alpha-equivalent.
    let mut renamed = ops::gmm(32, 32, 32, f16, f32);
    renamed.name = "renamed".to_string();
    db.tune_cached(&renamed, &gpu, &reg, Strategy::TensorIr, &opts(8));
    step(&db);
    // Key lookups: an unknown workload misses, a known one hits.
    let other = ops::gmm(32, 32, 64, f16, f32);
    assert!(db
        .lookup(&gpu.name, Strategy::TensorIr, &workload_key(&other))
        .is_none());
    step(&db);
    assert!(db
        .lookup(&gpu.name, Strategy::TensorIr, &workload_key(&gmm))
        .is_some());
    step(&db);
    // A raw insert under `other`'s key, then a tune of it: served warm.
    db.insert(
        &gpu.name,
        Strategy::TensorIr,
        workload_key(&other),
        TuningRecord {
            best: other.clone(),
            best_time: 1.5e-5,
            trials: 3,
            budget: 8,
            tuning_cost_s: 0.25,
        },
    );
    step(&db);
    let served = db.tune_cached(&other, &gpu, &reg, Strategy::TensorIr, &opts(8));
    assert_eq!(served.best_time, 1.5e-5);
    step(&db);
    // Same key, other machine and other strategy: separate records.
    let gmm_i8 = ops::gmm(32, 32, 32, i8, i32);
    db.tune_cached(&gmm_i8, &arm, &reg, Strategy::TensorIr, &opts(8));
    step(&db);
    db.tune_cached(&gmm_i8, &gpu, &reg, Strategy::TensorIr, &opts(8));
    step(&db);
    db.tune_cached(&gmm, &gpu, &reg, Strategy::Ansor, &opts(8));
    step(&db);
    // Budget upgrade (a re-tune, counted as a miss), then warm at the
    // larger budget; a smaller budget stays warm.
    db.tune_cached(&renamed, &gpu, &reg, Strategy::TensorIr, &opts(16));
    step(&db);
    db.tune_cached(&gmm, &gpu, &reg, Strategy::TensorIr, &opts(16));
    step(&db);
    db.tune_cached(&gmm, &gpu, &reg, Strategy::TensorIr, &opts(4));
    step(&db);
    // `peek` never counts.
    assert!(db
        .peek(&arm.name, Strategy::TensorIr, &workload_key(&gmm_i8))
        .is_some());
    step(&db);

    let encoded = db.encode();
    println!(
        "counts {counts:?}\nencode {} bytes, fnv1a {:#018x}",
        encoded.len(),
        fnv1a(encoded.bytes())
    );
    assert_eq!(counts, EXPECTED_COUNTS);
    assert_eq!((encoded.len(), fnv1a(encoded.bytes())), EXPECTED_SNAPSHOT);
    // And a decoded copy carries on identically.
    let mut reloaded = TuningDatabase::decode(&encoded).expect("decodes");
    reloaded.tune_cached(&renamed, &gpu, &reg, Strategy::TensorIr, &opts(16));
    db.tune_cached(&renamed, &gpu, &reg, Strategy::TensorIr, &opts(16));
    assert_eq!(reloaded.encode(), db.encode());
}

/// `(hits, misses, len)` after each step of the script.
const EXPECTED_COUNTS: &[(usize, usize, usize)] = &[
    (0, 1, 1),
    (1, 1, 1),
    (2, 1, 1),
    (2, 2, 1),
    (3, 2, 1),
    (3, 2, 2),
    (4, 2, 2),
    (4, 3, 3),
    (4, 4, 4),
    (4, 5, 5),
    (4, 6, 5),
    (5, 6, 5),
    (6, 6, 5),
    (6, 6, 5),
];
/// Length and FNV-1a of `encode()` after the script, recorded when the
/// key became the structural stream (the text-keyed snapshot was
/// 18 663 bytes).
const EXPECTED_SNAPSHOT: (usize, u64) = (19_000, 0x2166_1c0e_d52c_8f66);
