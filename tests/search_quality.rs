//! Search-quality integration tests: the strategy ranking the paper's
//! evaluation depends on must hold on the simulator, deterministically.

use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::Machine;
use tir_tensorize::builtin_registry;

fn opts(trials: usize) -> TuneOptions {
    TuneOptions {
        trials,
        ..Default::default()
    }
}

#[test]
fn strategy_ranking_on_f16_matmul() {
    let func = tir_workloads::gmm(256, 256, 256, DataType::float16(), DataType::float16());
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let tir_r = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(24));
    let amos_r = tune_workload(&func, &machine, &reg, Strategy::Amos, &opts(24));
    let ansor_r = tune_workload(&func, &machine, &reg, Strategy::Ansor, &opts(24));
    assert!(tir_r.best.is_some() && amos_r.best.is_some() && ansor_r.best.is_some());
    // TensorIR <= AMOS <= Ansor (with slack for search noise).
    assert!(
        tir_r.best_time <= amos_r.best_time * 1.001,
        "TensorIR {} vs AMOS {}",
        tir_r.best_time,
        amos_r.best_time
    );
    assert!(
        amos_r.best_time < ansor_r.best_time,
        "AMOS {} vs Ansor {}",
        amos_r.best_time,
        ansor_r.best_time
    );
}

#[test]
fn strategy_ranking_on_int8_arm() {
    let func = tir_workloads::gmm(256, 256, 256, DataType::int8(), DataType::int32());
    let machine = Machine::sim_arm();
    let reg = builtin_registry();
    let tir_r = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(16));
    let ansor_r = tune_workload(&func, &machine, &reg, Strategy::Ansor, &opts(16));
    assert!(
        tir_r.best_time < ansor_r.best_time / 2.0,
        "sdot must be a large win: {} vs {}",
        tir_r.best_time,
        ansor_r.best_time
    );
}

#[test]
fn best_program_is_semantics_preserving() {
    // The search's winning schedule must still be bit-exact.
    let func = tir_workloads::gmm(32, 32, 32, DataType::float16(), DataType::float16());
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let r = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(12));
    let best = r.best.expect("a valid schedule");
    tir_exec::assert_same_semantics(&func, &best, 1, 0.0);
    tir_analysis::assert_valid(&best);
}

#[test]
fn tuning_is_deterministic() {
    let func = tir_workloads::gmm(128, 128, 128, DataType::float16(), DataType::float16());
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let a = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(16));
    let b = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(16));
    assert_eq!(a.best_time, b.best_time);
    assert_eq!(a.trials_measured, b.trials_measured);
    assert_eq!(a.history, b.history);
}

#[test]
fn more_trials_never_hurt() {
    let func = tir_workloads::c2d(1, 30, 30, 64, 64, 3, 3, 1, DataType::float16());
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let short = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(8));
    let long = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts(32));
    assert!(long.best_time <= short.best_time * 1.0001);
}

#[test]
fn thread_count_invariance_end_to_end() {
    // The full workload path (multi-sketch, budget split) must find the
    // byte-identical best program at any farm width.
    let func = tir_workloads::gmm(128, 128, 128, DataType::float16(), DataType::float16());
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let serial = tune_workload(
        &func,
        &machine,
        &reg,
        Strategy::TensorIr,
        &TuneOptions {
            trials: 24,
            num_threads: 1,
            ..Default::default()
        },
    );
    // The default options are the one-worker farm on every host: the same
    // tune bit for bit, simulated tuning cost included, whatever the
    // number of cores.
    let default = tune_workload(
        &func,
        &machine,
        &reg,
        Strategy::TensorIr,
        &TuneOptions {
            trials: 24,
            ..Default::default()
        },
    );
    assert_eq!(
        default.tuning_cost_s.to_bits(),
        serial.tuning_cost_s.to_bits()
    );
    assert_eq!(default.best_time.to_bits(), serial.best_time.to_bits());
    assert_eq!(default.history, serial.history);
    assert_eq!(
        (
            default.trials_measured,
            default.cache_hits,
            default.invalid_filtered
        ),
        (
            serial.trials_measured,
            serial.cache_hits,
            serial.invalid_filtered
        )
    );
    assert_eq!(
        default.best.as_ref().map(|f| f.to_string()),
        serial.best.as_ref().map(|f| f.to_string())
    );
    let parallel = tune_workload(
        &func,
        &machine,
        &reg,
        Strategy::TensorIr,
        &TuneOptions {
            trials: 24,
            num_threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(serial.best_time, parallel.best_time);
    assert_eq!(serial.history, parallel.history);
    assert_eq!(
        serial.best.as_ref().expect("serial best").to_string(),
        parallel.best.as_ref().expect("parallel best").to_string(),
        "best programs must match byte-for-byte"
    );
}

#[test]
fn candidate_cache_invariance_end_to_end() {
    // C2D has real structural-duplicate candidates; the cache must change
    // only the accounted tuning cost, never what the search finds.
    let func = tir_workloads::c2d(1, 30, 30, 64, 64, 3, 3, 1, DataType::float16());
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let with_cache = tune_workload(
        &func,
        &machine,
        &reg,
        Strategy::TensorIr,
        &TuneOptions {
            trials: 32,
            use_candidate_cache: true,
            ..Default::default()
        },
    );
    let without_cache = tune_workload(
        &func,
        &machine,
        &reg,
        Strategy::TensorIr,
        &TuneOptions {
            trials: 32,
            use_candidate_cache: false,
            ..Default::default()
        },
    );
    assert_eq!(without_cache.cache_hits, 0);
    assert_eq!(with_cache.best_time, without_cache.best_time);
    assert_eq!(with_cache.history, without_cache.history);
    assert_eq!(
        with_cache.best.as_ref().expect("best").to_string(),
        without_cache.best.as_ref().expect("best").to_string()
    );
    assert!(with_cache.tuning_cost_s <= without_cache.tuning_cost_s);
}
