//! Microbenchmarks of the compiler itself: transformation, validation,
//! candidate generation, and simulation throughput.
//!
//! Uses a small hand-rolled timing harness (median of timed batches after
//! warmup) instead of an external benchmark framework, so the workspace
//! builds with no external dependencies.

use std::time::Instant;

use tensorir_bench::alloc_count::{counted, CountingAlloc};
use tir::builder::matmul_func;
use tir::DataType;
use tir_exec::cost::simulate;
use tir_exec::machine::Machine;
use tir_schedule::Schedule;
use tir_tensorize::{auto_tensorize, builtin_registry};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Times `f`, prints a `name: median ns/iter, allocations/iter` line and
/// returns the median.
///
/// Runs a warmup, then picks an iteration count targeting ~20 ms per batch
/// and reports the median of 7 batches, and the heap allocations of one
/// more call (exact: a function of the input, not of the machine). A row
/// whose calls differ from one another counts a fixed call itself, with
/// [`time_batches`] and [`report`].
fn bench_function<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    let (median, iters) = time_batches(&mut f);
    let (_, allocs) = counted(|| std::hint::black_box(f()));
    report(name, median, allocs, iters)
}

/// The timing of [`bench_function`]: the median ns of 7 batches after a
/// warmup, and the iterations per batch.
fn time_batches<R>(mut f: impl FnMut() -> R) -> (f64, u64) {
    // Warmup + calibration.
    let start = Instant::now();
    let mut calib_iters = 0u64;
    while start.elapsed().as_millis() < 50 {
        std::hint::black_box(f());
        calib_iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as u64 / calib_iters.max(1);
    let iters = (20_000_000 / per_iter.max(1)).clamp(1, 1_000_000);
    let mut samples = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[samples.len() / 2], iters)
}

/// [`time_batches`] of `f` on what `setup` returns, with `setup` and the
/// drops off the clock.
fn time_batches_after<S, R>(
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&S) -> R,
) -> (f64, u64) {
    let mut timed = |n: u64| -> u64 {
        let mut ns = 0;
        for _ in 0..n {
            let s = setup();
            let t = Instant::now();
            let r = std::hint::black_box(f(&s));
            ns += t.elapsed().as_nanos() as u64;
            drop((r, s));
        }
        ns
    };
    // Warmup + calibration.
    let start = Instant::now();
    let (mut calib_iters, mut calib_ns) = (0u64, 0u64);
    while start.elapsed().as_millis() < 50 {
        calib_ns += timed(1);
        calib_iters += 1;
    }
    let per_iter = calib_ns / calib_iters.max(1);
    let iters = (20_000_000 / per_iter.max(1)).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..7).map(|_| timed(iters) as f64 / iters as f64).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[samples.len() / 2], iters)
}

/// Prints one row and returns its median.
fn report(name: &str, median: f64, allocs: u64, iters: u64) -> f64 {
    println!("{name:<40} {median:>14.0} ns/iter {allocs:>7} allocs/iter  ({iters} iters x 7)");
    median
}

fn bench_split_fuse_reorder() {
    let func = matmul_func("mm", 256, 256, 256, DataType::float32());
    bench_function("schedule/split_reorder_fuse", || {
        let mut sch = Schedule::new(func.clone());
        let block = sch.get_block("C").unwrap();
        let loops = sch.get_loops(&block).unwrap();
        let i = sch.split(&loops[0], &[16, 16]).unwrap();
        let j = sch.split(&loops[1], &[16, 16]).unwrap();
        sch.reorder(&[i[0].clone(), j[0].clone(), i[1].clone(), j[1].clone()])
            .unwrap();
        sch.fuse(&[i[0].clone(), j[0].clone()]).unwrap();
        sch.into_func()
    });
}

/// The IR passes a candidate is built and keyed with, on one finished GMM
/// f16 GPU-tensor candidate (the program `schedule/sketch_apply_gpu_tensor_gmm`
/// produces): a substitution that hits every loop variable and a `simplify`
/// that finds nothing left to do (both on a fresh copy, whose own cost is
/// the `clone` row), the candidate-cache key, the validation every `apply`
/// ends with, and the whole static verifier (what the measurement gate and
/// `Schedule::verify` run).
fn bench_ir_passes() {
    use tir::{Expr, Stmt, Var, VarMap};
    use tir_autoschedule::{build_sketches, Strategy};
    use tir_rand::rngs::StdRng;
    use tir_rand::SeedableRng;
    use tir_workloads::{bench_suite, OpKind};

    let reg = builtin_registry();
    let case = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("GMM in the suite");
    let sketch = build_sketches(&case.func, &Machine::sim_gpu(), &reg, Strategy::TensorIr)
        .into_iter()
        .find(|s| s.name().starts_with("gpu-tensor"))
        .expect("gpu-tensor sketch");
    let func = (0..64)
        .find_map(|seed| {
            sketch
                .apply(&sketch.sample(&mut StdRng::seed_from_u64(seed)))
                .ok()
        })
        .expect("a decision vector that applies");

    fn loop_vars(s: &Stmt, out: &mut Vec<Var>) {
        if let Stmt::For(f) = s {
            out.push(f.var.clone());
        }
        match s {
            Stmt::For(f) => loop_vars(&f.body, out),
            Stmt::Seq(v) => v.iter().for_each(|st| loop_vars(st, out)),
            Stmt::BlockRealize(br) => loop_vars(&br.block.body, out),
            _ => {}
        }
    }
    let mut vars = Vec::new();
    loop_vars(&func.body, &mut vars);
    // Every loop variable becomes `v * 2 + 1`: what `split` does to one.
    let map: VarMap<Expr> = vars
        .iter()
        .map(|v| (v.clone(), Expr::from(v) * 2 + 1))
        .collect();
    bench_function("ir/subst_stmt_gmm", || {
        let mut body = Stmt::clone(&func.body);
        tir::visit::subst_stmt(&mut body, &map);
        body
    });
    bench_function("ir/simplify_stmt_gmm", || {
        let mut body = Stmt::clone(&func.body);
        tir::simplify::simplify_stmt(&mut body);
        body
    });
    bench_function("ir/clone_stmt_gmm", || Stmt::clone(&func.body));
    bench_function("ir/structural_hash_gmm", || {
        tir::structural::structural_hash(&func)
    });
    bench_function("analysis/validate_gpu_tensor_gmm", || {
        tir_analysis::validate(&func).is_ok()
    });
    bench_function("analysis/analyze_gpu_tensor_gmm", || {
        tir_analysis::analyze(&func).is_empty()
    });

    // What every primitive starts with: find the tensorized inner block
    // (the deepest one, so a lookup that walks on after its match walks the
    // most), its loops, and each loop's extent.
    let inner = auto_tensorize(&case.func, "C", reg.get("wmma_16x16x16_f16").expect("wmma"))
        .expect("tensorizes")
        .inner_block;
    let sch = Schedule::new(func);
    bench_function("schedule/lookup_tuned_gmm", || {
        let block = sch.get_block(inner.name()).expect("inner block");
        let loops = sch.get_loops(&block).expect("its loops");
        (loops.iter())
            .map(|l| sch.loop_extent(l).expect("extent"))
            .sum::<i64>()
    });
}

/// `SketchRule::apply` on the full bench-suite shapes: what one candidate
/// of the search costs to build. Each row times a cycle through 16 seeded
/// decision vectors that apply cleanly, and counts the allocations of the
/// first of them, so the count is the same on every run.
///
/// The tensor rows hit no memo: `gpu-tensor` and `cpu-tensor` keep none,
/// and every `apply` runs the steps a decision reads on the sketch's base.
/// `gpu-scalar` keeps what its `apply` built, so its plain rows call a
/// fresh `GpuScalarSketch` each time and time a whole build, no memo level
/// hit: the sketch's construction (a schedule over the unscheduled program
/// and the loop extents it reads) plus one `apply`.
/// `schedule/sketch_apply_gpu_scalar_gmm_resumed` times only the `apply` of
/// a sketch that has built the same vector under another reduction split:
/// the form misses, its staged prefix hits, and the build resumes after
/// the staging attempts: the `k` split, then the final `validate` unless
/// the program is still the one a staging attempt validated (with no
/// split, as for the first vector, whose allocations are counted).
fn bench_sketch_apply() {
    use tir_autoschedule::sketch_gpu::GpuScalarSketch;
    use tir_autoschedule::{build_sketches, Decision, SketchRule, Strategy};
    use tir_rand::rngs::StdRng;
    use tir_rand::SeedableRng;
    use tir_workloads::{bench_suite, OpKind};

    let reg = builtin_registry();
    let rows = [
        (
            "gpu_tensor_gmm",
            "gpu-tensor",
            Machine::sim_gpu(),
            OpKind::GMM,
        ),
        (
            "gpu_scalar_c2d",
            "gpu-scalar",
            Machine::sim_gpu(),
            OpKind::C2D,
        ),
        (
            "gpu_scalar_gmm",
            "gpu-scalar",
            Machine::sim_gpu(),
            OpKind::GMM,
        ),
        (
            "cpu_tensor_gmm",
            "cpu-tensor",
            Machine::sim_arm(),
            OpKind::GMM,
        ),
    ];
    for (row, sketch_name, machine, kind) in rows {
        let dtype = match machine.kind {
            tir_exec::machine::MachineKind::Gpu => DataType::float16(),
            tir_exec::machine::MachineKind::Cpu => DataType::int8(),
        };
        let case = bench_suite(dtype)
            .into_iter()
            .find(|c| c.kind == kind)
            .expect("operator in the suite");
        let sketch = build_sketches(&case.func, &machine, &reg, Strategy::TensorIr)
            .into_iter()
            .find(|s| s.name().starts_with(sketch_name))
            .expect("sketch for the row");
        let decisions: Vec<Vec<Decision>> = (0..)
            .map(|seed| sketch.sample(&mut StdRng::seed_from_u64(seed)))
            .filter(|d| sketch.apply(d).is_ok())
            .take(16)
            .collect();
        let apply = |d: &[Decision]| {
            match sketch_name {
                "gpu-scalar" => GpuScalarSketch::new(&case.func).apply(d),
                _ => sketch.apply(d),
            }
            .unwrap()
        };
        let mut next = 0usize;
        let (median, iters) = time_batches(|| {
            next = (next + 1) % decisions.len();
            apply(&decisions[next])
        });
        let (_, allocs) = counted(|| std::hint::black_box(apply(&decisions[0])));
        report(
            &format!("schedule/sketch_apply_{row}"),
            median,
            allocs,
            iters,
        );
        if row == "gpu_scalar_gmm" {
            bench_resumed_scalar_build(&case.func, &decisions);
        }
    }
}

/// The `_resumed` row of [`bench_sketch_apply`]: each vector is applied to
/// a fresh sketch warmed, off the clock, with the vector under another
/// reduction split that makes another form.
fn bench_resumed_scalar_build(func: &tir::PrimFunc, decisions: &[Vec<tir_autoschedule::Decision>]) {
    use tir_autoschedule::sketch_gpu::GpuScalarSketch;
    use tir_autoschedule::SketchRule;

    let probe = GpuScalarSketch::new(func);
    let pairs: Vec<_> = (decisions.iter())
        .map(|d| {
            // The same thread counts and steps under every other split
            // option (1, 2, 4, 8): `k = 2^j` becomes `2^((j + shift) % 4)`.
            let warm = (1..4)
                .map(|shift| {
                    let k = |k: i64| 1 << ((k.trailing_zeros() + shift) % 4);
                    (d.chunks(3))
                        .flat_map(|b| [b[0].clone(), b[1].clone(), vec![k(b[2][0])]])
                        .collect::<Vec<_>>()
                })
                .find(|w| probe.effective(w) != probe.effective(d))
                .expect("a reduction split that makes another form");
            (warm, d)
        })
        .collect();
    let warmed = |(warm, _): &(Vec<_>, _)| {
        let sketch = GpuScalarSketch::new(func);
        let _ = sketch.apply(warm);
        sketch
    };
    let mut next = 0usize;
    let (median, iters) = time_batches_after(
        || {
            next = (next + 1) % pairs.len();
            (warmed(&pairs[next]), next)
        },
        |(sketch, i)| sketch.apply(pairs[*i].1).unwrap(),
    );
    let sketch = warmed(&pairs[0]);
    let (_, allocs) = counted(|| std::hint::black_box(sketch.apply(pairs[0].1).unwrap()));
    report(
        "schedule/sketch_apply_gpu_scalar_gmm_resumed",
        median,
        allocs,
        iters,
    );
}

/// A whole cold tune of GMM f16 on the GPU (`tune_workload`'s body, every
/// sketch behind a [`tir_autoschedule::CountingSketch`]): what the search
/// costs end to end, and how many candidates it builds to get there — the
/// `schedule/sketch_apply_*` rows above are the cost of *one* of them. 16
/// trials is the budget `compile_model_with` gives a kernel (one generation
/// per sketch, never a trained model), 64 the single-operator figures'
/// budget, 256 a budget where the cost model's refits, which grow with the
/// samples, carry a real share.
///
/// `search/gbdt_refit_128_samples` is one refit on the first 128 samples
/// the 256-trial tune measured. They are the `gpu-tensor` sketch's (its
/// search comes first and measures 134; the `gpu-scalar` space runs out
/// after 30), the samples of that tune's largest refits. Every one
/// simulates to the same time (`sim_census.txt`), so the refit finds no
/// split: the row prices the column sort and the root scans.
fn bench_search_tune() {
    use tir_autoschedule::feature::extract_features;
    use tir_autoschedule::{
        build_sketches, tune_with, CostModel, CountingSketch, MeasureCtx, MeasureError, Measurer,
        SimMeasurer, SketchRule, Strategy, TuneOptions,
    };
    use tir_workloads::{bench_suite, OpKind};

    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let case = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("GMM in the suite");
    let sketches = build_sketches(&case.func, &machine, &reg, Strategy::TensorIr);
    for trials in [16usize, 64, 256] {
        let opts = TuneOptions {
            trials,
            num_threads: 1,
            ..Default::default()
        };
        let tune = || {
            let counting: Vec<CountingSketch<'_>> = sketches
                .iter()
                .map(|s| CountingSketch::new(s.as_ref()))
                .collect();
            let refs: Vec<&dyn SketchRule> = counting.iter().map(|s| s as _).collect();
            let measured = tune_with(&refs, &machine, &opts, &SimMeasurer).trials_measured;
            let applies: usize = counting.iter().map(CountingSketch::applies).sum();
            (applies, measured)
        };
        let name = format!("search/tune_gmm_{trials}_trials");
        bench_function(&name, tune);
        let (applies, measured) = tune();
        println!(
            "{name:<40} {applies:>14} apply calls/tune, {measured} trials measured \
             ({:.2} applies per trial)",
            applies as f64 / measured.max(1) as f64
        );
    }

    /// The simulator, keeping every reading as the sample the search
    /// learns from it: `(features, -ln time)`.
    struct Recorder(std::sync::Mutex<Vec<(Vec<f64>, f64)>>);
    impl Measurer for Recorder {
        fn measure(
            &self,
            func: &tir::PrimFunc,
            machine: &Machine,
            ctx: &MeasureCtx,
        ) -> Result<f64, MeasureError> {
            let t = SimMeasurer.measure(func, machine, ctx)?;
            let sample = (extract_features(func), -(t.max(1e-12)).ln());
            self.0.lock().expect("recorder").push(sample);
            Ok(t)
        }
    }
    let recorder = Recorder(Default::default());
    // Without the candidate cache every sample the model learns is a
    // reading the recorder sees; the cache never changes the trajectory.
    let opts = TuneOptions {
        trials: 256,
        num_threads: 1,
        use_candidate_cache: false,
        ..Default::default()
    };
    let refs: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
    tune_with(&refs, &machine, &opts, &recorder);
    let mut samples = recorder.0.into_inner().expect("recorder");
    assert!(samples.len() >= 128, "{} measured", samples.len());
    samples.truncate(128);
    bench_function("search/gbdt_refit_128_samples", || {
        let mut model = CostModel::new();
        model.update(samples.iter().cloned());
        model
    });
}

/// What `TuneOptions::checkpoint_path` costs a tune of the GMM f16
/// gpu-tensor sketch, and what a resume costs. A checkpointed tune appends
/// and fsyncs one frame per generation; `search/resume_*` is a run
/// killed at its last generation boundary and resumed — everything but the
/// last generation comes from the checkpoint. The file lives in the
/// bench's own target tmpdir.
fn bench_search_checkpoint() {
    use std::path::PathBuf;
    use tir_autoschedule::{
        build_sketches, tune_with, SimMeasurer, Strategy, TuneOptions, TuneResult,
    };
    use tir_workloads::{bench_suite, OpKind};

    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let case = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("GMM in the suite");
    let sketch = build_sketches(&case.func, &machine, &reg, Strategy::TensorIr)
        .into_iter()
        .find(|s| s.name().starts_with("gpu-tensor"))
        .expect("gpu-tensor sketch");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint-bench");
    std::fs::create_dir_all(&dir).expect("bench tmpdir");
    let (live, killed) = (dir.join("gmm.ckpt"), dir.join("killed.ckpt"));
    let used = |r: &TuneResult| r.trials_measured + r.wasted_measurements + r.failed_measurements;
    for trials in [32usize, 64, 256] {
        let plain = TuneOptions {
            trials,
            num_threads: 1,
            ..Default::default()
        };
        let checkpointed = TuneOptions {
            checkpoint_path: Some(live.clone()),
            ..plain.clone()
        };
        let plain_ns = bench_function(&format!("search/tune_gmm_tensor_{trials}_plain"), || {
            tune_with(&[sketch.as_ref()], &machine, &plain, &SimMeasurer).trials_measured
        });
        let name = format!("search/tune_gmm_tensor_{trials}_checkpointed");
        let checkpointed_ns = bench_function(&name, || {
            let _ = std::fs::remove_file(&live);
            tune_with(&[sketch.as_ref()], &machine, &checkpointed, &SimMeasurer).trials_measured
        });
        println!(
            "{:<40} {:>14.2} ms plain, {:.2} ms checkpointed ({:+.0}%), final checkpoint {} bytes",
            format!("search/checkpoint_overhead_{trials}"),
            plain_ns / 1e6,
            checkpointed_ns / 1e6,
            (checkpointed_ns / plain_ns - 1.0) * 100.0,
            std::fs::metadata(&live).map_or(0, |m| m.len())
        );

        // The last generation boundary: the largest generation cap that
        // still leaves budget unspent.
        let capped = |g: u64, opts: &TuneOptions| {
            let opts = TuneOptions {
                max_generations: Some(g),
                ..opts.clone()
            };
            used(&tune_with(
                &[sketch.as_ref()],
                &machine,
                &opts,
                &SimMeasurer,
            ))
        };
        let full = used(&tune_with(
            &[sketch.as_ref()],
            &machine,
            &plain,
            &SimMeasurer,
        ));
        let generations = (1u64..)
            .find(|&g| capped(g, &plain) == full)
            .expect("the tune ends");
        let _ = std::fs::remove_file(&live);
        capped(generations - 1, &checkpointed);
        std::fs::rename(&live, &killed).expect("the killed run left a checkpoint");
        let resume_ns = bench_function(&format!("search/resume_gmm_tensor_{trials}"), || {
            std::fs::copy(&killed, &live).expect("restore the killed run's checkpoint");
            let r = tune_with(&[sketch.as_ref()], &machine, &checkpointed, &SimMeasurer);
            assert_eq!(r.resumed_from_generation, Some(generations - 1));
            r.trials_measured
        });
        println!(
            "{:<40} {:>14.2} ms to resume at generation {} of {generations} and finish",
            format!("search/resume_ms_{trials}"),
            resume_ns / 1e6,
            generations - 1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warm paths: what it costs to be told "already tuned". One
/// `tune_cached` hit (one walk writing the workload key, one probe, one
/// reference-count increment) on gmm 128³ and on ResNet-50's conv + add +
/// relu group, and one whole warm `compile_model_with` / `evaluate_model_with` of the two
/// networks the repo benchmark's `compile_models` workload uses (same
/// precision, machine and 16-trial budget; 200 of the first and 80 of the
/// second make its phases B and C).
fn bench_warm_paths() {
    use tir_autoschedule::{Strategy, TuneOptions, TuningDatabase};
    use tir_graph::{bert_large, compile_model_with, evaluate_model_with, fuse_graph, resnet50};

    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let dt = DataType::float16();
    let opts = TuneOptions {
        trials: 16,
        num_threads: 1,
        ..TuneOptions::default()
    };
    let strategy = Strategy::TensorIr;
    let mut db = TuningDatabase::new();

    let fused = fuse_graph(&resnet50(dt))
        .into_iter()
        .find(|g| g.name == "r50_s0_c3_add_relu")
        .and_then(|g| g.func)
        .expect("conv + add + relu group");
    let gmm = tir_workloads::gmm(128, 128, 128, dt, DataType::float32());
    for (row, func) in [("gmm", &gmm), ("fused", &fused)] {
        db.tune_cached(func, &machine, &reg, strategy, &opts);
        bench_function(&format!("db/tune_cached_hit_{row}"), || {
            db.tune_cached(func, &machine, &reg, strategy, &opts)
        });
    }
    for (row, model) in [("resnet50", resnet50(dt)), ("bert_large", bert_large(dt))] {
        compile_model_with(&model, &machine, &reg, strategy, &opts, &mut db).expect("valid");
        bench_function(&format!("graph/warm_compile_{row}"), || {
            compile_model_with(&model, &machine, &reg, strategy, &opts, &mut db).expect("valid")
        });
        bench_function(&format!("graph/warm_evaluate_{row}"), || {
            evaluate_model_with(&model, &machine, &reg, strategy, &opts, &mut db, true)
                .expect("valid")
        });
        bench_function(&format!("graph/fuse_graph_{row}"), || fuse_graph(&model));
    }
}

fn bench_validation() {
    let func = matmul_func("mm", 256, 256, 256, DataType::float32());
    bench_function("analysis/validate_matmul", || {
        tir_analysis::validate(&func).is_ok()
    });
}

/// What a candidate costs to check and what it saves by deriving each fact
/// once, on the full bench-suite shapes: a validation and a full analysis
/// of a finished C2D `gpu-scalar` candidate; one `cache_read` below GMM's
/// blockized `gpu-tensor` tile, signature refresh of the outer block
/// included (on a copy of the base schedule, whose own cost is the first
/// primitive's un-sharing), and one `required_region` of that tile by
/// itself; and a cost-model refit at half a 64-trial tune.
fn bench_derive_once() {
    use tir::MemScope;
    use tir_autoschedule::feature::extract_features;
    use tir_autoschedule::{build_sketches, CostModel, Strategy};
    use tir_rand::rngs::StdRng;
    use tir_rand::SeedableRng;
    use tir_workloads::{bench_suite, OpKind};

    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let case = |kind: OpKind| {
        (bench_suite(DataType::float16()).into_iter())
            .find(|c| c.kind == kind)
            .expect("operator in the suite")
    };
    let c2d = case(OpKind::C2D);
    let scalar = build_sketches(&c2d.func, &machine, &reg, Strategy::TensorIr)
        .into_iter()
        .find(|s| s.name() == "gpu-scalar")
        .expect("gpu-scalar sketch");
    let candidates: Vec<tir::PrimFunc> = (0..)
        .filter_map(|seed| {
            scalar
                .apply(&scalar.sample(&mut StdRng::seed_from_u64(seed)))
                .ok()
        })
        .take(32)
        .collect();
    let func = &candidates[0];
    bench_function("analysis/validate_gpu_scalar_c2d", || {
        tir_analysis::validate(func).is_ok()
    });
    bench_function("analysis/analyze_gpu_scalar_c2d", || {
        tir_analysis::analyze(func).is_empty()
    });

    let wmma = reg.get("wmma_16x16x16_f16").expect("wmma intrinsic");
    let tensorized = auto_tensorize(&case(OpKind::GMM).func, "C", wmma).expect("tensorizes");
    let loops = (tensorized.schedule)
        .get_loops(&tensorized.outer_block)
        .expect("tile loops");
    let operand = (tensorized.schedule)
        .find_buffer(&tensorized.input_staging[0])
        .expect("staging buffer");
    bench_function("schedule/cache_read_refresh_gpu_tensor_gmm", || {
        let mut sch = tensorized.schedule.clone();
        sch.cache_read(
            &tensorized.inner_block,
            &operand,
            MemScope::Shared,
            loops.last(),
        )
        .expect("cache_read")
    });
    // `required_region` alone, through the one public call that reaches it
    // and then stops: with the operand staged as above, `reverse_compute_at`
    // of the inner block relaxes the staged tile over the copy nest and then
    // refuses (the block does not read it at its spatial iterators), having
    // touched nothing — the row is that relaxation plus the error's text.
    let mut staged = tensorized.schedule.clone();
    (staged.cache_read(
        &tensorized.inner_block,
        &operand,
        MemScope::Shared,
        loops.last(),
    ))
    .expect("cache_read");
    let attach = loops.last().expect("a tile loop");
    bench_function("schedule/required_region_gmm", || {
        (staged.reverse_compute_at(&tensorized.inner_block, attach))
            .expect_err("refused after the region is known")
            .to_string()
            .len()
    });

    let samples: Vec<(Vec<f64>, f64)> = candidates
        .iter()
        .map(|f| (extract_features(f), -simulate(f, &machine).ln()))
        .collect();
    bench_function("search/gbdt_refit_32_samples", || {
        let mut model = CostModel::new();
        model.update(samples.iter().cloned());
        model
    });
}

fn bench_auto_tensorize() {
    let func = matmul_func("mm", 256, 256, 256, DataType::float16());
    let reg = builtin_registry();
    let wmma = reg.get("wmma_16x16x16_f16").unwrap().clone();
    bench_function("tensorize/auto_tensorize_matmul", || {
        auto_tensorize(&func, "C", &wmma).unwrap()
    });
}

fn bench_simulate() {
    let func = matmul_func("mm", 256, 256, 256, DataType::float16());
    let machine = Machine::sim_gpu();
    bench_function("exec/simulate_matmul", || simulate(&func, &machine));
}

fn bench_iter_map() {
    use tir::{Expr, Var};
    let i = Var::int("i");
    let j = Var::int("j");
    let fused = Expr::from(&i) * 64 + Expr::from(&j);
    let bindings = [
        fused.clone().floor_div(16),
        fused.clone().floor_mod(16).floor_div(4),
        fused.floor_mod(4),
    ];
    let dom = [(i.clone(), 32i64), (j.clone(), 64i64)];
    bench_function("arith/detect_iter_map", || {
        tir_arith::detect_iter_map(&bindings, &dom).unwrap()
    });
}

fn bench_print_parse() {
    let func = matmul_func("mm", 128, 128, 128, DataType::float32());
    let text = func.to_string();
    bench_function("text/print_matmul", || func.to_string());
    bench_function("text/parse_matmul", || {
        tir::parser::parse_func(&text).unwrap()
    });
}

/// The text a daemon lives on, at the sizes it meets: parsing a *tuned* GMM
/// (what a journal replay and a database load parse, once per record), the
/// workload key of the untuned one (one encoder walk, no printing: once per
/// admission, warm or cold), and a whole warm `tune` round trip against an in-process daemon — request
/// written, parsed, looked up, reply written and read — timed and counted on
/// the client's thread.
fn bench_text_and_serve() {
    use tir_autoschedule::{tune_workload, workload_key, Strategy, TuneOptions};
    use tir_serve::client::Client;
    use tir_serve::server::{ServeConfig, Server};
    use tir_workloads::{bench_suite, OpKind};

    let case = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("GMM in the suite");
    let opts = TuneOptions {
        trials: 16,
        num_threads: 1,
        ..TuneOptions::default()
    };
    let reg = builtin_registry();
    let tuned = tune_workload(
        &case.func,
        &Machine::sim_gpu(),
        &reg,
        Strategy::TensorIr,
        &opts,
    );
    let tuned_text = tuned.best.expect("a tuned GMM").to_string();
    bench_function("text/parse_gpu_tensor_gmm", || {
        tir::parser::parse_func(&tuned_text).unwrap()
    });
    bench_function("text/workload_key_gmm", || workload_key(&case.func));

    let dir = std::env::temp_dir().join(format!("tir-microbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let server = Server::start(ServeConfig::new(dir.join("s"), dir.join("db"))).expect("daemon");
    let mut client = Client::connect(server.socket_path()).expect("client");
    let gmm = tir_workloads::gmm(128, 128, 128, DataType::float16(), DataType::float32());
    let request = gmm.to_string();
    client
        .tune("gpu", "tensorir", 16, 5, &request)
        .expect("cold tune");
    bench_function("serve/warm_roundtrip_gmm", || {
        client
            .tune("gpu", "tensorir", 16, 5, &request)
            .expect("warm hit")
    });
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    bench_split_fuse_reorder();
    bench_sketch_apply();
    bench_search_tune();
    bench_search_checkpoint();
    bench_warm_paths();
    bench_ir_passes();
    bench_validation();
    bench_derive_once();
    bench_auto_tensorize();
    bench_simulate();
    bench_iter_map();
    bench_print_parse();
    bench_text_and_serve();
}
