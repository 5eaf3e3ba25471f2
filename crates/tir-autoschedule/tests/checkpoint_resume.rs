//! Kill-and-resume tests: a tuning run checkpointed at a generation
//! boundary and resumed in a fresh process state must produce the
//! bit-identical result — best program, history, and all accounting,
//! including `tuning_cost_s` down to the last bit — as an uninterrupted
//! run. Fault injection composes with resume because fault draws are
//! keyed on `(seed, candidate, attempt)`, not on process lifetime.
//!
//! The checkpoint is the log of measurement outcomes and a resume replays
//! it through the search (`checkpoint.rs`); nothing here reads the file's
//! format — the tests state what a resume must return, what the file's
//! bytes may depend on, and what happens to a file that does not fit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tir::DataType;
use tir_autoschedule::sketch_gpu::{GpuScalarSketch, GpuTensorSketch};
use tir_autoschedule::{
    build_sketches, tune_with, FaultInjector, FaultPlan, Measurer, SimMeasurer, SketchRule,
    Strategy, TuneOptions, TuneResult,
};
use tir_exec::machine::Machine;
use tir_tensorize::builtin_registry;
use tir_trace::Collector;
use tir_workloads::{bench_suite, OpKind};

fn mm_sketch() -> GpuTensorSketch {
    let func = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
    let reg = builtin_registry();
    let wmma = reg.get("wmma_16x16x16_f16").unwrap();
    GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch")
}

fn ckpt_path(name: &str) -> PathBuf {
    // CARGO_TARGET_TMPDIR lives under the workspace target directory and
    // is per-integration-test-binary, so parallel test binaries cannot
    // collide.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

fn assert_bit_identical(a: &TuneResult, b: &TuneResult, what: &str) {
    let (ab, bb) = (
        a.best.as_ref().map(|f| f.to_string()),
        b.best.as_ref().map(|f| f.to_string()),
    );
    assert_eq!(ab, bb, "{what}: best program");
    assert_eq!(
        a.best_time.to_bits(),
        b.best_time.to_bits(),
        "{what}: best_time"
    );
    assert_eq!(
        a.tuning_cost_s.to_bits(),
        b.tuning_cost_s.to_bits(),
        "{what}: tuning_cost_s"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: history[{i}]");
    }
    assert_eq!(a.trials_measured, b.trials_measured, "{what}: trials");
    assert_eq!(a.invalid_filtered, b.invalid_filtered, "{what}: invalid");
    assert_eq!(
        a.wasted_measurements, b.wasted_measurements,
        "{what}: wasted"
    );
    assert_eq!(a.cache_hits, b.cache_hits, "{what}: cache hits");
    assert_eq!(
        a.failed_measurements, b.failed_measurements,
        "{what}: failed"
    );
    assert_eq!(a.retries, b.retries, "{what}: retries");
    assert_eq!(a.quarantined, b.quarantined, "{what}: quarantined");
}

/// Kill after generation k, resume, and compare bit-for-bit against the
/// uninterrupted run — for several k, including one past the budget.
#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let base = TuneOptions {
        trials: 32,
        num_threads: 2,
        ..Default::default()
    };
    let uninterrupted = tune_with(&[&s], &machine, &base, &SimMeasurer);
    assert!(uninterrupted.best.is_some());
    for k in [1u64, 2, 3] {
        let path = ckpt_path(&format!("kill-after-{k}.ckpt"));
        let _ = std::fs::remove_file(&path);
        // Phase 1: run exactly k generations, then "die".
        let killed = tune_with(
            &[&s],
            &machine,
            &TuneOptions {
                checkpoint_path: Some(path.clone()),
                max_generations: Some(k),
                ..base.clone()
            },
            &SimMeasurer,
        );
        assert!(
            killed.trials_measured < uninterrupted.trials_measured,
            "kill at generation {k} must interrupt mid-search"
        );
        // Phase 2: a fresh search picks the checkpoint up and finishes.
        let resumed = tune_with(
            &[&s],
            &machine,
            &TuneOptions {
                checkpoint_path: Some(path.clone()),
                ..base.clone()
            },
            &SimMeasurer,
        );
        assert_eq!(resumed.resumed_from_generation, Some(k), "resume point");
        assert_bit_identical(&uninterrupted, &resumed, &format!("resume after gen {k}"));
        let _ = std::fs::remove_file(&path);
    }
}

/// Checkpoint/resume composes with transient fault injection: the resumed
/// faulty run matches the uninterrupted faulty run bit-for-bit (including
/// retry counts and tuning cost), and both find the fault-free best.
#[test]
fn resume_under_transient_faults_is_bit_identical() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan::transient(0.3));
    let base = TuneOptions {
        trials: 24,
        num_threads: 1,
        ..Default::default()
    };
    let fault_free = tune_with(&[&s], &machine, &base, &SimMeasurer);
    let uninterrupted = tune_with(&[&s], &machine, &base, &inj);
    assert_eq!(
        uninterrupted.best.as_ref().map(|f| f.to_string()),
        fault_free.best.as_ref().map(|f| f.to_string()),
        "transient faults must not change the best program"
    );
    let path = ckpt_path("resume-under-faults.ckpt");
    let _ = std::fs::remove_file(&path);
    let _killed = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            checkpoint_path: Some(path.clone()),
            max_generations: Some(2),
            ..base.clone()
        },
        &inj,
    );
    let resumed = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            checkpoint_path: Some(path.clone()),
            ..base.clone()
        },
        &inj,
    );
    assert_eq!(resumed.resumed_from_generation, Some(2));
    assert_bit_identical(&uninterrupted, &resumed, "faulty resume");
    let _ = std::fs::remove_file(&path);
}

/// A corrupt checkpoint file is ignored: the run starts fresh (and then
/// overwrites the file with valid state) instead of resuming from
/// garbage or crashing.
#[test]
fn corrupt_checkpoint_starts_fresh_on_resume() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let base = TuneOptions {
        trials: 16,
        num_threads: 1,
        ..Default::default()
    };
    let clean = tune_with(&[&s], &machine, &base, &SimMeasurer);
    let path = ckpt_path("corrupt.ckpt");
    std::fs::write(&path, "tir-autoschedule-checkpoint v1\ncounts garbage\n").expect("write");
    let r = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            checkpoint_path: Some(path.clone()),
            ..base.clone()
        },
        &SimMeasurer,
    );
    assert_eq!(r.resumed_from_generation, None, "garbage must not resume");
    assert_bit_identical(&clean, &r, "fresh run over corrupt checkpoint");
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint from a different seed (i.e. a different run) is refused;
/// the mismatched run starts fresh rather than splicing foreign state.
#[test]
fn mismatched_seed_checkpoint_is_not_resumed() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let path = ckpt_path("mismatch.ckpt");
    let _ = std::fs::remove_file(&path);
    let _partial = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            trials: 24,
            seed: 42,
            checkpoint_path: Some(path.clone()),
            max_generations: Some(1),
            ..Default::default()
        },
        &SimMeasurer,
    );
    assert!(path.exists(), "checkpoint must have been written");
    let other_seed = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            trials: 24,
            seed: 43,
            num_threads: 1,
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        },
        &SimMeasurer,
    );
    assert_eq!(other_seed.resumed_from_generation, None);
    let reference = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            trials: 24,
            seed: 43,
            num_threads: 1,
            ..Default::default()
        },
        &SimMeasurer,
    );
    assert_bit_identical(&reference, &other_seed, "seed-43 fresh run");
    let _ = std::fs::remove_file(&path);
}

/// Resuming with a backend is orthogonal to which measurer wrote the
/// checkpoint *state*: the SimMeasurer and a transient fault injector
/// walk the identical trajectory, so a run killed fault-free and resumed
/// under faults still converges to the same best program.
#[test]
fn resume_crossing_fault_regimes_converges_to_the_same_best() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let base = TuneOptions {
        trials: 24,
        num_threads: 1,
        ..Default::default()
    };
    let fault_free = tune_with(&[&s], &machine, &base, &SimMeasurer);
    let path = ckpt_path("cross-regime.ckpt");
    let _ = std::fs::remove_file(&path);
    let _killed = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            checkpoint_path: Some(path.clone()),
            max_generations: Some(2),
            ..base.clone()
        },
        &SimMeasurer,
    );
    let resumed = tune_with(
        &[&s],
        &machine,
        &TuneOptions {
            checkpoint_path: Some(path.clone()),
            ..base.clone()
        },
        &FaultInjector::sim(FaultPlan::transient(0.2)),
    );
    assert_eq!(resumed.resumed_from_generation, Some(2));
    assert_eq!(
        resumed.best.as_ref().map(|f| f.to_string()),
        fault_free.best.as_ref().map(|f| f.to_string()),
        "crossing fault regimes must still find the fault-free best"
    );
    assert_eq!(resumed.history.len(), fault_free.history.len());
    let _ = std::fs::remove_file(&path);
}

/// Trial budget a result consumed.
fn budget_used(r: &TuneResult) -> usize {
    r.trials_measured + r.wasted_measurements + r.failed_measurements
}

/// `opts` with a checkpoint file, optionally killed after `k` generations.
fn checkpointed(opts: &TuneOptions, path: &Path, kill_after: Option<u64>) -> TuneOptions {
    TuneOptions {
        checkpoint_path: Some(path.to_path_buf()),
        max_generations: kill_after,
        ..opts.clone()
    }
}

/// One sketch of each kind, on a suite operator that gives it a space
/// worth several generations.
fn sketch_kinds() -> Vec<(Machine, Box<dyn SketchRule>)> {
    let reg = builtin_registry();
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let (f16, i8) = (DataType::float16(), DataType::int8());
    [
        ("gpu-tensor", &gpu, f16, OpKind::GMM),
        ("gpu-scalar", &gpu, f16, OpKind::GMM),
        ("cpu-tensor", &arm, i8, OpKind::C2D),
        // The scalar CPU space of every other operator is three programs.
        ("cpu-scalar", &arm, i8, OpKind::T2D),
    ]
    .into_iter()
    .map(|(kind, machine, dtype, op)| {
        let case = bench_suite(dtype)
            .into_iter()
            .find(|c| c.kind == op)
            .expect("operator in the suite");
        let sketch = build_sketches(&case.func, machine, &reg, Strategy::TensorIr)
            .into_iter()
            .find(|s| s.name().starts_with(kind))
            .expect("sketch of the kind");
        (machine.clone(), sketch)
    })
    .collect()
}

/// The property, for every sketch kind × threads {1, 4} × fault rate
/// {0, 0.2}: whichever generation boundary the run is killed at —
/// including the last, where nothing is left to do — the resumed run
/// returns what the uninterrupted run returns, bit for bit.
#[test]
fn resume_at_every_generation_boundary_is_bit_identical_for_every_sketch_kind() {
    let measurers: [(&str, Box<dyn Measurer>); 2] = [
        ("fault-free", Box::new(SimMeasurer)),
        (
            "20% transient",
            Box::new(FaultInjector::sim(FaultPlan::transient(0.2))),
        ),
    ];
    for (machine, sketch) in sketch_kinds() {
        for threads in [1usize, 4] {
            for (regime, measurer) in &measurers {
                let what = format!("{} / {threads} threads / {regime}", sketch.name());
                let base = TuneOptions {
                    trials: 24,
                    num_threads: threads,
                    ..Default::default()
                };
                let run = |opts: &TuneOptions| {
                    tune_with(&[sketch.as_ref()], &machine, opts, measurer.as_ref())
                };
                let uninterrupted = run(&base);
                assert!(uninterrupted.best.is_some(), "{what}");
                let path = ckpt_path("every-boundary.ckpt");
                let mut boundaries = 0;
                for k in 1u64.. {
                    let _ = std::fs::remove_file(&path);
                    let killed = run(&checkpointed(&base, &path, Some(k)));
                    let resumed = run(&checkpointed(&base, &path, None));
                    assert_eq!(resumed.resumed_from_generation, Some(k), "{what}");
                    assert_bit_identical(&uninterrupted, &resumed, &format!("{what}, gen {k}"));
                    if budget_used(&killed) == budget_used(&uninterrupted) {
                        break;
                    }
                    boundaries += 1;
                }
                assert!(boundaries >= 1, "{what}: the run was never interrupted");
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// A tune over two sketches keeps one checkpoint file. Killed at any
/// generation boundary — in its first sketch, at the boundary between the
/// sketches, or inside its second — it resumes from that one file bit for
/// bit, and `resumed_from_generation` counts the generations replayed over
/// both sketches. A `<path>.sketch0` file next to it, where sketch 0's own
/// log used to live, is never read nor touched.
#[test]
fn resume_across_a_sketch_boundary_is_bit_identical() {
    let machine = Machine::sim_gpu();
    let case = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("GMM in the suite");
    let sketches = build_sketches(
        &case.func,
        &machine,
        &builtin_registry(),
        Strategy::TensorIr,
    );
    let sketches: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
    assert_eq!(sketches.len(), 2, "a tensor and a scalar sketch");
    let inj = FaultInjector::sim(FaultPlan::transient(0.2));
    let base = TuneOptions {
        trials: 64,
        num_threads: 2,
        ..Default::default()
    };
    let uninterrupted = tune_with(&sketches, &machine, &base, &inj);
    assert!(uninterrupted.retries > 0, "the faults never fired");
    // The first sketch's search alone: its share of the budget, its seed.
    let first = TuneOptions {
        trials: base.trials / 2,
        ..base.clone()
    };
    let first_spent = budget_used(&tune_with(&sketches[..1], &machine, &first, &inj));

    let path = ckpt_path("two-sketches.ckpt");
    let mut stale = path.clone().into_os_string();
    stale.push(".sketch0");
    let stale = PathBuf::from(stale);
    // A log that would replay the first sketch's search, were it read.
    let _ = std::fs::remove_file(&path);
    tune_with(
        &sketches[..1],
        &machine,
        &checkpointed(&first, &path, None),
        &inj,
    );
    std::fs::rename(&path, &stale).expect("stale log in place");
    let stale_bytes = std::fs::read(&stale).expect("stale log");
    let fresh = tune_with(&sketches, &machine, &checkpointed(&base, &path, None), &inj);
    assert_eq!(
        fresh.resumed_from_generation, None,
        "the stale log was read"
    );
    assert_bit_identical(&uninterrupted, &fresh, "fresh beside a stale log");

    let mut inside_second = 0;
    for k in 1u64.. {
        let _ = std::fs::remove_file(&path);
        let killed = tune_with(
            &sketches,
            &machine,
            &checkpointed(&base, &path, Some(k)),
            &inj,
        );
        let resumed = tune_with(&sketches, &machine, &checkpointed(&base, &path, None), &inj);
        assert_eq!(resumed.resumed_from_generation, Some(k), "kill at {k}");
        assert_bit_identical(&uninterrupted, &resumed, &format!("kill at {k}"));
        if budget_used(&killed) == budget_used(&uninterrupted) {
            break;
        }
        inside_second += usize::from(budget_used(&killed) > first_spent);
    }
    assert!(inside_second >= 1, "no kill fell inside the second sketch");
    assert_eq!(std::fs::read(&stale).expect("stale log kept"), stale_bytes);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&stale);
}

/// Deterministic failures are logged too: a resumed run re-derives the
/// quarantine from the recorded compile rejects instead of re-measuring.
#[test]
fn resume_rederives_the_quarantine_from_logged_rejects() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan {
        compile_reject_rate: 0.3,
        ..Default::default()
    });
    let base = TuneOptions {
        trials: 32,
        num_threads: 2,
        ..Default::default()
    };
    let uninterrupted = tune_with(&[&s], &machine, &base, &inj);
    assert!(uninterrupted.quarantined > 0, "no candidate was rejected");
    let path = ckpt_path("resume-quarantine.ckpt");
    let _ = std::fs::remove_file(&path);
    let killed = tune_with(&[&s], &machine, &checkpointed(&base, &path, Some(2)), &inj);
    assert!(killed.quarantined > 0, "the kill should follow a reject");
    // Resumed fault-free: a reject that comes back can only be the log's.
    let resumed = tune_with(
        &[&s],
        &machine,
        &checkpointed(&base, &path, Some(2)),
        &SimMeasurer,
    );
    assert_eq!(resumed.resumed_from_generation, Some(2));
    assert_bit_identical(&killed, &resumed, "replayed prefix");
    let resumed = tune_with(&[&s], &machine, &checkpointed(&base, &path, None), &inj);
    assert_bit_identical(&uninterrupted, &resumed, "resume across rejects");
    let _ = std::fs::remove_file(&path);
}

/// The file is a function of the run, not of the process: identical runs,
/// and runs at different thread counts, leave identical bytes — after
/// every generation, not just the last.
#[test]
fn resume_file_bytes_are_identical_across_runs_and_thread_counts() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan::transient(0.2));
    let path = ckpt_path("bytes.ckpt");
    let bytes_after = |threads: usize, generations: Option<u64>| {
        let _ = std::fs::remove_file(&path);
        let opts = TuneOptions {
            trials: 32,
            num_threads: threads,
            ..Default::default()
        };
        tune_with(
            &[&s],
            &machine,
            &checkpointed(&opts, &path, generations),
            &inj,
        );
        std::fs::read(&path).expect("checkpoint written")
    };
    for generations in [Some(1), Some(3), None] {
        let reference = bytes_after(1, generations);
        for threads in [1usize, 1, 1, 2, 4] {
            assert!(
                bytes_after(threads, generations) == reference,
                "{threads} threads, {generations:?} generations: checkpoint bytes differ"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A log that stops fitting the resuming options is used as far as it
/// fits and dropped from there: written under `population: 32` and
/// resumed under `population: 16`, the run equals a fresh `population: 16`
/// run — it never continues from the other run's state.
#[test]
fn resume_under_a_different_population_equals_a_fresh_run() {
    // Scalar matmul: measured times differ, so the model ranks and the
    // population size decides what gets measured.
    let s = GpuScalarSketch::new(&tir::builder::matmul_func(
        "mm",
        128,
        128,
        128,
        DataType::float16(),
    ));
    let machine = Machine::sim_gpu();
    let wide = TuneOptions {
        trials: 32,
        num_threads: 1,
        population: 32,
        ..Default::default()
    };
    let narrow = TuneOptions {
        population: 16,
        ..wide.clone()
    };
    let fresh = tune_with(&[&s], &machine, &narrow, &SimMeasurer);
    let path = ckpt_path("population.ckpt");
    let _ = std::fs::remove_file(&path);
    tune_with(
        &[&s],
        &machine,
        &checkpointed(&wide, &path, None),
        &SimMeasurer,
    );
    let resumed = tune_with(
        &[&s],
        &machine,
        &checkpointed(&narrow, &path, None),
        &SimMeasurer,
    );
    assert_bit_identical(&fresh, &resumed, "population 32 log, population 16 run");
    // The file now holds the narrow run: resuming it again replays it all.
    let again = tune_with(
        &[&s],
        &machine,
        &checkpointed(&narrow, &path, None),
        &SimMeasurer,
    );
    assert_bit_identical(&fresh, &again, "second resume");
    assert!(
        again.resumed_from_generation > resumed.resumed_from_generation,
        "the population-32 log should have stopped fitting before its end"
    );
    let _ = std::fs::remove_file(&path);
}

/// A replayed generation is traced like a measured one: at one thread the
/// `search.measure` spans of a resumed run add up to its `tuning_cost_s`.
#[test]
fn resume_traces_the_replayed_generations_too() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let inj = FaultInjector::sim(FaultPlan::transient(0.2));
    let base = TuneOptions {
        trials: 32,
        num_threads: 1,
        ..Default::default()
    };
    let path = ckpt_path("resume-trace.ckpt");
    let _ = std::fs::remove_file(&path);
    tune_with(&[&s], &machine, &checkpointed(&base, &path, Some(3)), &inj);
    let trace = Arc::new(Collector::new());
    let traced = TuneOptions {
        trace: Some(trace.clone()),
        ..checkpointed(&base, &path, None)
    };
    let resumed = tune_with(&[&s], &machine, &traced, &inj);
    assert_eq!(resumed.resumed_from_generation, Some(3));
    let spans = trace.report().phase_sim_s("search.measure");
    let cost = resumed.tuning_cost_s;
    assert!(
        (spans - cost).abs() <= 0.05 * cost,
        "search.measure spans sum to {spans}, tuning_cost_s is {cost}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint of an older format (golden bytes written by the last
/// commit that produced it, for exactly this sketch, machine and seed) is
/// ignored cleanly: the run starts fresh, equals the uninterrupted result
/// and leaves a current-format file behind.
fn assert_older_format_is_ignored(old: &[u8], name: &str) {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let base = TuneOptions {
        trials: 32,
        num_threads: 2,
        ..Default::default()
    };
    let path = ckpt_path(&format!("{name}.ckpt"));
    std::fs::write(&path, old).expect("write");
    let r = tune_with(
        &[&s],
        &machine,
        &checkpointed(&base, &path, None),
        &SimMeasurer,
    );
    assert_eq!(r.resumed_from_generation, None, "{name} must not resume");
    let fresh = tune_with(&[&s], &machine, &base, &SimMeasurer);
    assert_bit_identical(&fresh, &r, &format!("fresh run over a {name} file"));
    assert_ne!(std::fs::read(&path).expect("rewritten"), old);
    let again = tune_with(
        &[&s],
        &machine,
        &checkpointed(&base, &path, None),
        &SimMeasurer,
    );
    assert!(again.resumed_from_generation.is_some());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_ignores_a_v1_checkpoint() {
    assert_older_format_is_ignored(include_bytes!("golden/checkpoint_v1.ckpt"), "v1");
}

/// A v2 file's context line is this run's own, but its hashes are of the
/// structural hash's earlier encoding.
#[test]
fn resume_ignores_a_v2_checkpoint() {
    let v2 = include_bytes!("golden/checkpoint_v2.ckpt");
    assert!(v2.starts_with(b"tir-autoschedule-checkpoint v2\n"));
    assert_older_format_is_ignored(v2, "v2");
}

/// A v3 file's context line and hashes are this run's own; its
/// generations are lines after the context line, not frames.
#[test]
fn resume_ignores_a_v3_checkpoint() {
    let v3 = include_bytes!("golden/checkpoint_v3.ckpt");
    assert!(v3.starts_with(b"tir-autoschedule-checkpoint v3\n"));
    assert_older_format_is_ignored(v3, "v3");
}

/// A file cut short inside generation k + 1 — as a crash mid-append leaves
/// it — resumes exactly k generations and equals the uninterrupted run;
/// an empty file is a fresh start.
/// Where the generations end is read off the files of runs killed after
/// each of them, not parsed.
#[test]
fn resume_ignores_a_truncated_checkpoint() {
    let s = mm_sketch();
    let machine = Machine::sim_gpu();
    let base = TuneOptions {
        trials: 32,
        num_threads: 1,
        ..Default::default()
    };
    let clean = tune_with(&[&s], &machine, &base, &SimMeasurer);
    let path = ckpt_path("truncated.ckpt");
    let mut ends = Vec::new();
    for k in 1.. {
        let _ = std::fs::remove_file(&path);
        let opts = checkpointed(&base, &path, Some(k));
        let r = tune_with(&[&s], &machine, &opts, &SimMeasurer);
        ends.push(std::fs::metadata(&path).expect("checkpoint written").len() as usize);
        if budget_used(&r) == budget_used(&clean) {
            break;
        }
    }
    assert!(ends.len() >= 3, "a tune of several generations");
    let full = std::fs::read(&path).expect("checkpoint written");
    let mut start = 0;
    for (k, &end) in ends.iter().enumerate() {
        // Generation 0's first cut is the empty file.
        let first = if k == 0 { start } else { start + 1 };
        for keep in [first, (start + end) / 2, end - 1] {
            std::fs::write(&path, &full[..keep]).expect("write");
            let r = tune_with(
                &[&s],
                &machine,
                &checkpointed(&base, &path, None),
                &SimMeasurer,
            );
            let want = Some(k as u64).filter(|&k| k > 0);
            let what = format!("{keep} of {} bytes", full.len());
            assert_eq!(r.resumed_from_generation, want, "{what}");
            assert_bit_identical(&clean, &r, &what);
            assert_eq!(std::fs::read(&path).expect("rewritten"), full, "{what}");
        }
        start = end;
    }
    let _ = std::fs::remove_file(&path);
}
