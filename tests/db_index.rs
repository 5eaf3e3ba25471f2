//! The tuning database's fingerprint index is an index, not an identity:
//! whatever it resolves equals `workload_key(func)` byte for byte, and a
//! database driven through it counts, stores and encodes exactly what one
//! keyed by the printed text alone did.

#[path = "corpus/golden.rs"]
mod golden;

use golden::fnv1a;
use tir::{DataType, PrimFunc};
use tir_autoschedule::{
    build_sketches, workload_key, Strategy, TuneOptions, TuningDatabase, TuningRecord,
};
use tir_exec::Machine;
use tir_graph::fusion::fuse_graph;
use tir_graph::models::gpu_models;
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, ops};

fn opts(trials: usize) -> TuneOptions {
    TuneOptions {
        trials,
        num_threads: 1,
        ..TuneOptions::default()
    }
}

/// The corpus the index is checked on: the single-operator suite at both
/// precisions, every fused group of the four GPU networks, and 200 seeded
/// sketch candidates (scheduled programs: thread bindings, cache stages,
/// tensor intrinsics). Many differ only in a shape or a literal.
fn corpus() -> Vec<PrimFunc> {
    let mut funcs: Vec<PrimFunc> = [DataType::float16(), DataType::int8()]
        .into_iter()
        .flat_map(bench_suite)
        .map(|case| case.func)
        .collect();
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

/// What `tune_cached` and the daemon do with a program: ask the index,
/// fall back on the printed key and offer it to the index.
fn resolve(db: &mut TuningDatabase, func: &PrimFunc) -> String {
    match db.key_of(func) {
        Some(key) => key.to_string(),
        None => {
            let key = workload_key(func);
            db.remember_key(func, &key);
            key
        }
    }
}

fn dummy_record(func: &PrimFunc) -> TuningRecord {
    TuningRecord {
        best: func.clone(),
        best_time: 1e-5,
        trials: 1,
        budget: 1,
        tuning_cost_s: 0.0,
    }
}

/// Index ≡ key: whatever order programs arrive in, and whether the index
/// has met them or not, the key the database resolves is
/// `workload_key(func)` byte for byte — also for a re-parsed copy (fresh
/// variable and buffer identities, what a daemon client sends) served by
/// an index warmed on the original.
#[test]
fn resolved_key_is_the_text_key_cold_and_warm_in_both_orders() {
    let funcs = corpus();
    let keys: Vec<String> = funcs.iter().map(workload_key).collect();
    let distinct: std::collections::HashSet<&String> = keys.iter().collect();
    println!("{} programs, {} distinct keys", funcs.len(), distinct.len());
    assert!(funcs.len() >= 250 && distinct.len() >= 100, "corpus shrank");
    // The keys themselves, as the char-by-char `workload_key` with its
    // `HashMap<String, String>` wrote them: they are the identity on disk.
    let joined = keys.join("\n");
    println!(
        "keys: {} bytes, fnv1a {:#018x}",
        joined.len(),
        fnv1a(joined.bytes())
    );
    assert_eq!((joined.len(), fnv1a(joined.bytes())), EXPECTED_KEYS);

    let forward: Vec<usize> = (0..funcs.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    for order in [forward, backward] {
        let mut db = TuningDatabase::new();
        for &i in &order {
            // Cold for this program; warm with everything before it.
            assert_eq!(resolve(&mut db, &funcs[i]), keys[i], "cold, program {i}");
            db.insert(
                "SimGPU",
                Strategy::TensorIr,
                keys[i].clone(),
                dummy_record(&funcs[i]),
            );
            db.remember_key(&funcs[i], &keys[i]);
        }
        assert_eq!(db.len(), distinct.len());
        let mut served_by_index = 0;
        for &i in &order {
            let warm = db
                .key_of(&funcs[i])
                .expect("the index has met every program");
            assert_eq!(*warm, *keys[i], "warm, program {i}");
            // A re-parsed copy is the same program to the index unless
            // printing lost something structural (an `int8` literal prints
            // as a bare `0` and parses back as `int32`: three programs of
            // this corpus). The index is then the finer of the two and the
            // text key decides; either way the resolved key is the same.
            let reparsed = tir::parser::parse_func(&funcs[i].to_string()).expect("round trip");
            served_by_index += usize::from(db.key_of(&reparsed).is_some());
            assert_eq!(
                resolve(&mut db, &reparsed),
                keys[i],
                "re-parsed, program {i}"
            );
            assert_eq!(workload_key(&reparsed), keys[i]);
        }
        assert!(
            served_by_index * 100 >= funcs.len() * 95,
            "only {served_by_index} of {} re-parsed programs were served by the index",
            funcs.len()
        );
    }
}

/// The index is bounded by the database: a program whose key has no
/// stored record leaves nothing behind, however often it is presented.
#[test]
fn programs_nobody_tuned_leave_no_index_entry() {
    let mut db = TuningDatabase::new();
    let tuned = ops::gmm(32, 32, 32, DataType::float16(), DataType::float32());
    let untuned = ops::gmm(32, 32, 64, DataType::float16(), DataType::float32());
    db.insert(
        "SimGPU",
        Strategy::TensorIr,
        workload_key(&tuned),
        dummy_record(&tuned),
    );
    for _ in 0..3 {
        resolve(&mut db, &tuned);
        resolve(&mut db, &untuned);
    }
    assert_eq!(db.key_of(&tuned).as_deref(), Some(&*workload_key(&tuned)));
    assert_eq!(db.key_of(&untuned), None);
}

/// A fixed script of every way the database is driven — cold tunes, warm
/// hits on the same and on alpha-equivalent programs, text lookups that
/// hit and miss, a raw insert, a second machine, a second strategy, a
/// budget upgrade. The expected counters and snapshot bytes were recorded
/// on the commit before the index existed (text keys only).
#[test]
fn scripted_sequence_counts_and_encodes_as_the_text_keyed_database_did() {
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
    // Text lookups: an unknown workload misses, a known one hits.
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
    // And a decoded copy, whose index starts cold, carries on identically.
    let mut reloaded = TuningDatabase::decode(&encoded).expect("decodes");
    reloaded.tune_cached(&renamed, &gpu, &reg, Strategy::TensorIr, &opts(16));
    db.tune_cached(&renamed, &gpu, &reg, Strategy::TensorIr, &opts(16));
    assert_eq!(reloaded.encode(), db.encode());
}

/// Length and hash of the corpus's text keys joined by newlines, recorded
/// on the commit before `workload_key` became one pass over bytes.
const EXPECTED_KEYS: (usize, u64) = (933_575, 0xf6d8_986d_cf6a_9993);

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
/// Length and FNV-1a of `encode()` after the script.
const EXPECTED_SNAPSHOT: (usize, u64) = (18_663, 0xccff_ddfb_e151_8b1e);
