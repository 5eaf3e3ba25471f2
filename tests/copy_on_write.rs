//! Program bodies are shared between clones and copied on the first
//! write: whatever is done to a clone of a stored, returned or fused
//! program, the original keeps its printed text and its structural hash.

use std::sync::Arc;

use tir::structural::structural_hash;
use tir::{AnnValue, Buffer, DataType, PrimFunc};
use tir_autoschedule::{
    tune_workload, workload_key, Strategy, TuneOptions, TuningDatabase, WarmStart,
};
use tir_exec::Machine;
use tir_graph::{fuse_graph, resnet50};
use tir_schedule::Schedule;
use tir_tensorize::builtin_registry;
use tir_workloads::ops;

fn state(f: &PrimFunc) -> (String, u64) {
    (f.to_string(), structural_hash(f))
}

fn opts(trials: usize) -> TuneOptions {
    TuneOptions {
        trials,
        num_threads: 1,
        ..TuneOptions::default()
    }
}

/// Schedules and edits clones of `original` through both mutation funnels
/// (`Schedule::mutate_body` behind every primitive, `root_block_mut`),
/// and checks each clone changed while `original` did not.
fn write_to_clones_of(original: &PrimFunc) {
    let before = state(original);
    let mut sch = Schedule::new(original.clone());
    assert!(Arc::ptr_eq(&sch.func().body, &original.body), "shared");
    let block = sch
        .block_names()
        .into_iter()
        .filter_map(|name| sch.get_block(&name).ok())
        .find(|b| sch.get_loops(b).is_ok_and(|l| !l.is_empty()))
        .expect("a block under a loop");
    let loops = sch.get_loops(&block).expect("loops");
    // A primitive that fails its precondition writes nothing.
    assert!(sch.split(&loops[0], &[0, 2]).is_err());
    assert!(
        Arc::ptr_eq(&sch.func().body, &original.body),
        "still shared"
    );
    sch.annotate(&loops[0], "cow.test", AnnValue::Int(1))
        .expect("annotate");
    let scratch = Buffer::new("cow_scratch", DataType::float32(), vec![4]);
    sch.alloc_buffer_at_root(scratch).expect("alloc");
    assert!(!Arc::ptr_eq(&sch.func().body, &original.body), "un-shared");
    assert_ne!(state(sch.func()), before);
    assert_eq!(state(original), before);
    let mut edited = original.clone();
    let root = edited.root_block_mut().expect("root block");
    root.annotations.insert("cow.test".into(), AnnValue::Int(1));
    assert_ne!(state(&edited), before);
    assert_eq!(state(original), before);
}

#[test]
fn clones_of_database_records_and_tune_results_are_isolated() {
    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let func = ops::gmm(64, 64, 64, DataType::float16(), DataType::float32());
    let mut db = TuningDatabase::new();
    let cold = db.tune_cached(&func, &machine, &reg, Strategy::TensorIr, &opts(8));
    let key = workload_key(&func);
    let stored = |db: &TuningDatabase| {
        let rec = db.peek(&machine.name, Strategy::TensorIr, &key);
        rec.expect("stored").best.clone()
    };

    // A `TuneResult.best`, the record behind it, and a warm hit all share
    // one body; writing to clones of any of them leaves all of them alone.
    let result_best = cold.best.expect("a best program");
    let record_best = stored(&db);
    let warm = db.tune_cached(&func, &machine, &reg, Strategy::TensorIr, &opts(8));
    let warm_best = warm.best.expect("served");
    assert!(Arc::ptr_eq(&warm_best.body, &record_best.body), "no copy");
    assert!(Arc::ptr_eq(&result_best.body, &record_best.body));
    let before = state(&record_best);
    write_to_clones_of(&record_best);
    write_to_clones_of(&result_best);
    write_to_clones_of(&warm_best);
    assert_eq!(state(&stored(&db)), before);

    // A `WarmStart` re-tune seeded with a clone, directly and through the
    // database's budget upgrade (which replaces the record): the program
    // that seeded it is untouched.
    let warm_start = WarmStart {
        best: record_best.clone(),
        best_time: warm.best_time,
    };
    let seeded = TuneOptions {
        warm_start: Some(warm_start),
        ..opts(16)
    };
    tune_workload(&func, &machine, &reg, Strategy::TensorIr, &seeded);
    assert_eq!(state(&record_best), before);
    let upgraded = db.tune_cached(&func, &machine, &reg, Strategy::TensorIr, &opts(16));
    assert!(upgraded.tuning_cost_s > 0.0, "the upgrade searched");
    assert_eq!(state(&record_best), before);
    assert_eq!(state(&result_best), before);
    assert_eq!(state(&warm_best), before);
}

#[test]
fn clones_of_fused_group_kernels_are_isolated() {
    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let groups = fuse_graph(&resnet50(DataType::float16()));
    let fused = groups
        .iter()
        .find(|g| !g.fused.is_empty() && g.func.is_some())
        .expect("a fused group");
    let func = fused.func.as_ref().expect("checked");
    let before = state(func);
    write_to_clones_of(func);
    // Tuning it schedules clones of it, candidate after candidate.
    let tuned = tune_workload(func, &machine, &reg, Strategy::TensorIr, &opts(8));
    assert!(tuned.best.is_some());
    assert_eq!(state(func), before);
}
