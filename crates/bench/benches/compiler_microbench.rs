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

/// Times `f` and prints a `name: median ns/iter, allocations/iter` line.
///
/// Runs a warmup, then picks an iteration count targeting ~20 ms per batch
/// and reports the median of 7 batches, and the heap allocations of one
/// more call (exact: a function of the input, not of the machine).
fn bench_function<R>(name: &str, mut f: impl FnMut() -> R) {
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
    let median = samples[samples.len() / 2];
    let (_, allocs) = counted(|| std::hint::black_box(f()));
    println!("{name:<40} {median:>14.0} ns/iter {allocs:>7} allocs/iter  ({iters} iters x 7)");
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
/// the `clone` row), the candidate-cache key, and the validation every
/// `apply` ends with.
fn bench_ir_passes() {
    use std::collections::HashMap;
    use tir::{Expr, Stmt, Var};
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
    let map: HashMap<Var, Expr> = vars
        .iter()
        .map(|v| (v.clone(), Expr::from(v) * 2 + 1))
        .collect();
    bench_function("ir/subst_stmt_gmm", || {
        let mut body = func.body.clone();
        tir::visit::subst_stmt(&mut body, &map);
        body
    });
    bench_function("ir/simplify_stmt_gmm", || {
        let mut body = func.body.clone();
        tir::simplify::simplify_stmt(&mut body);
        body
    });
    bench_function("ir/clone_stmt_gmm", || func.body.clone());
    bench_function("ir/structural_hash_gmm", || {
        tir::structural::structural_hash(&func)
    });
    bench_function("analysis/validate_gpu_tensor_gmm", || {
        tir_analysis::validate(&func).is_ok()
    });
}

/// `SketchRule::apply` on the full bench-suite shapes: what one candidate
/// of the search costs to build. Each row cycles through 16 seeded
/// decision vectors that apply cleanly.
fn bench_sketch_apply() {
    use tir_autoschedule::{build_sketches, Decision, Strategy};
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
        let mut next = 0usize;
        bench_function(&format!("schedule/sketch_apply_{row}"), || {
            next = (next + 1) % decisions.len();
            sketch.apply(&decisions[next]).unwrap()
        });
    }
}

/// A whole cold tune of GMM f16 on the GPU (`tune_workload`'s body, every
/// sketch behind a [`tir_autoschedule::CountingSketch`]): what the search
/// costs end to end, and how many candidates it builds to get there — the
/// `schedule/sketch_apply_*` rows above are the cost of *one* of them. 16
/// trials is the budget `compile_model` gives a kernel (one generation per
/// sketch, never a trained model), 64 the single-operator figures' budget.
fn bench_search_tune() {
    use tir_autoschedule::{
        build_sketches, tune_multi, CountingSketch, SketchRule, Strategy, TuneOptions,
    };
    use tir_workloads::{bench_suite, OpKind};

    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let case = bench_suite(DataType::float16())
        .into_iter()
        .find(|c| c.kind == OpKind::GMM)
        .expect("GMM in the suite");
    let sketches = build_sketches(&case.func, &machine, &reg, Strategy::TensorIr);
    for trials in [16usize, 64] {
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
            let measured = tune_multi(&refs, &machine, &opts).trials_measured;
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
}

fn bench_validation() {
    let func = matmul_func("mm", 256, 256, 256, DataType::float32());
    bench_function("analysis/validate_matmul", || {
        tir_analysis::validate(&func).is_ok()
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

fn main() {
    bench_split_fuse_reorder();
    bench_sketch_apply();
    bench_search_tune();
    bench_ir_passes();
    bench_validation();
    bench_auto_tensorize();
    bench_simulate();
    bench_iter_map();
    bench_print_parse();
}
