//! A tune over several sketches equals the per-sketch merge it replaced,
//! field for field.
//!
//! `tune_with` over `n` sketches searches them one after another inside
//! one coordinator, keeping one `TuneResult`. Before that, a multi-sketch
//! tune ran one one-sketch tune per sketch and merged the results. This
//! file recomputes that merge from one-sketch tunes: sketch `i` at seed
//! `seed + 101·i` with `trials / n` trials (at least one), the first
//! strict minimum of `best_time` wins, and counters and per-sketch costs
//! are summed in sketch order. Every field must be bit-equal, and
//! `history` must be the running minimum of the one-sketch histories one
//! after another. The operators are the Fig. 10 set (float16, `sim_gpu`)
//! and Fig. 13's GMM and C2D (int8, `sim_arm`), at 64 trials, seeds 1
//! and 2; GMM on the GPU also runs under faults, so the retry, failure and
//! quarantine counters are not all zero.

use tir::structural::structural_hash;
use tir::DataType;
use tir_autoschedule::{
    build_sketches, tune_with, FaultInjector, FaultPlan, Measurer, SimMeasurer, SketchRule,
    Strategy, TuneOptions, TuneResult,
};
use tir_exec::machine::Machine;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, OpKind};

/// The merge a multi-sketch tune used to return, from one-sketch tunes.
fn merged(
    sketches: &[&dyn SketchRule],
    machine: &Machine,
    opts: &TuneOptions,
    measurer: &dyn Measurer,
) -> TuneResult {
    let mut m = TuneResult::default();
    let share = (opts.trials / sketches.len()).max(1);
    let mut histories = Vec::new();
    for (i, &sketch) in sketches.iter().enumerate() {
        let o = TuneOptions {
            seed: opts.seed.wrapping_add(i as u64 * 101),
            trials: share,
            ..opts.clone()
        };
        let r = tune_with(&[sketch], machine, &o, measurer);
        if r.best_time < m.best_time {
            m.best = r.best;
            m.best_time = r.best_time;
        }
        m.trials_measured += r.trials_measured;
        m.invalid_filtered += r.invalid_filtered;
        m.wasted_measurements += r.wasted_measurements;
        m.tuning_cost_s += r.tuning_cost_s;
        m.cache_hits += r.cache_hits;
        m.failed_measurements += r.failed_measurements;
        m.retries += r.retries;
        m.quarantined += r.quarantined;
        histories.extend(r.history);
    }
    m.history = (histories.into_iter())
        .scan(f64::INFINITY, |best, t| {
            *best = best.min(t);
            Some(*best)
        })
        .collect();
    m
}

/// Every field of a result, floats as bits and the best program as its
/// structural hash.
fn fields(r: &TuneResult) -> String {
    format!(
        "best={:016x?} time={:016x} measured={} invalid={} wasted={} cost={:016x} history={:?} \
         hits={} failed={} retries={} quarantined={} resumed={:?}",
        r.best.as_ref().map(structural_hash),
        r.best_time.to_bits(),
        r.trials_measured,
        r.invalid_filtered,
        r.wasted_measurements,
        r.tuning_cost_s.to_bits(),
        r.history.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
        r.cache_hits,
        r.failed_measurements,
        r.retries,
        r.quarantined,
        r.resumed_from_generation,
    )
}

#[test]
fn a_tune_over_sketches_equals_the_per_sketch_merge() {
    let reg = builtin_registry();
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let faults = FaultInjector::sim(FaultPlan {
        compile_reject_rate: 0.1,
        ..FaultPlan::transient(0.2)
    });
    let gpu_ops = bench_suite(DataType::float16()).into_iter();
    let arm_ops = (bench_suite(DataType::int8()).into_iter())
        .filter(|c| matches!(c.kind, OpKind::GMM | OpKind::C2D));
    let cases = (gpu_ops.map(|c| (c, &gpu))).chain(arm_ops.map(|c| (c, &arm)));
    let mut runs = 0;
    for (case, machine) in cases {
        let sketches = build_sketches(&case.func, machine, &reg, Strategy::TensorIr);
        let sketches: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
        assert!(sketches.len() >= 2, "{:?}: one sketch", case.kind);
        let mut measurers: Vec<(&str, &dyn Measurer)> = vec![("sim", &SimMeasurer)];
        if machine.name == gpu.name && case.kind == OpKind::GMM {
            measurers.push(("faults", &faults));
        }
        for (what, measurer) in measurers {
            for seed in [1u64, 2] {
                let opts = TuneOptions {
                    trials: 64,
                    seed,
                    num_threads: 1,
                    ..Default::default()
                };
                let joint = tune_with(&sketches, machine, &opts, measurer);
                let label = format!("{} {:?} {what} seed {seed}", machine.name, case.kind);
                assert_eq!(
                    fields(&joint),
                    fields(&merged(&sketches, machine, &opts, measurer)),
                    "{label}"
                );
                assert!(joint.history.windows(2).all(|w| w[1] <= w[0]), "{label}");
                if what == "faults" {
                    assert!(joint.retries > 0 && joint.quarantined > 0, "{label}");
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 2 * (8 + 2 + 1));
}

#[test]
fn an_empty_slice_searches_nothing() {
    let r = tune_with(
        &[],
        &Machine::sim_gpu(),
        &TuneOptions::default(),
        &SimMeasurer,
    );
    assert_eq!(fields(&r), fields(&TuneResult::default()));
}
