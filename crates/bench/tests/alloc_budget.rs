//! Allocation budget of one search candidate: exact and machine-independent.
//!
//! Candidate evaluation is allocation-bound (every phase runs at the same
//! ~50–60 ns per heap allocation), so the number of allocations one
//! `SketchRule::apply` + `structural_hash` makes is the regression gate
//! wall-clock cannot give on a shared 2-core VM. The counts are a pure
//! function of the program and the decision vector: they must repeat
//! exactly run to run and stay under the committed budget (measured after
//! the IR passes were rewritten to work in place, +10%). They are the same
//! in a debug and an optimized build, and both enforce every budget.
//!
//! This is its own test binary because it installs the harness's counting
//! `#[global_allocator]` (`tensorir_bench::alloc_count`), which counts only
//! the measuring thread.

use std::collections::HashMap;

use tensorir_bench::alloc_count::{counted, CountingAlloc};
use tir::builder::matmul_func;
use tir::simplify::{simplify_expr, simplify_stmt};
use tir::structural::structural_hash;
use tir::visit::{replace_buffers, subst_expr, subst_stmt};
use tir::{Buffer, DataType, Expr, PrimFunc, Stmt, Var, VarMap};
use tir_autoschedule::{
    build_sketches, workload_key, Decision, SketchRule, Strategy, TuneOptions, TuningDatabase,
};
use tir_exec::machine::Machine;
use tir_exec::{run_sanitized, run_with, ExecBackend, Tensor};
use tir_graph::{compile_model_with, fuse_graph, resnet50};
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, OpKind};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Budgets: the counts measured on the commit that made the IR passes
/// work in place (2 047, 2 067 and 1 015 per `apply`; 8, 7 and 7 per
/// `structural_hash`), plus 10%. On the commit before it `apply` made
/// 8 416, 6 993 and 3 181 allocations and `structural_hash` 891, 505 and 577.
/// Since function bodies became shared (`Arc<Stmt>`) `apply` makes 2 048,
/// 2 072 and 1 016: cloning the base schedule no longer copies the tree,
/// the first primitive after it does, into one more box — the `Arc` — per
/// un-sharing: once per candidate, and once more after each of
/// `gpu-scalar`'s four speculative backups.
/// Since a candidate derives each fact once (a redirect refreshes the two
/// buffers it changed, `gpu-scalar` validates through one remembering
/// session, `Var` maps hash the id, a trace step's name is a literal)
/// `apply` makes 1 744, 1 516 and 832; the budgets are those counts plus
/// 10%, capped at the ceilings that change committed to (1 860, 1 660, 930).
/// Since `required_region` keeps one record of the loops it is inside (it
/// kept three maps) `apply` makes 1 708, 1 517 and 817 (1 749, 1 530 and
/// 835 on the commit before); the third budget follows, the caps stay.
/// Since validation starts with `tir::well_formed` (one allocation per
/// `validate`) `apply` makes 1 709, 1 521 and 818; the budgets stay. The
/// `gpu-scalar` row is measured on fresh sketches, so its `apply` is a
/// build (1 526), never an answer from the sketch's memo (11).
/// Since iterator-map detection, binding composition and `required_region`
/// copy only what they change (they allocated for every node they read)
/// `apply` makes 1 167, 1 115 and 634 (1 709, 1 526 and 818 on the commit
/// before); the budgets are those counts plus 10%.
/// Since validation keeps no session, the C2D `gpu-scalar` `apply` makes
/// 1 118 (1 107 while its validations went through one remembering
/// session); `validate` lost the stack of open blocks only the session
/// read, one allocation each, so the other two make 1 151 and 625 (1 152
/// and 626). The budgets stay.
/// Since `GpuTensorSketch::new` flat-binds the write-back and the other
/// leaf blocks once, and a `gpu-scalar` build skips its final `validate`
/// when a staging attempt's passing `validate` saw the same program,
/// `apply` makes 1 105, 1 079 and 625 (1 151, 1 118 and 625 on the commit
/// before); the C2D build also keeps its staged prefix in the sketch's
/// memo. The budgets are those counts plus 10%.
/// `structural_hash` makes 2 on each: the encoder's two id maps, sized up
/// front (8, 7 and 7 while they grew as the walk went, budget 9).
const APPLY_GMM_GPU: u64 = 1_216;
const APPLY_C2D_GPU: u64 = 1_187;
const APPLY_GMM_CPU: u64 = 688;
const HASH_BUDGET: u64 = 2;

struct Row {
    name: &'static str,
    sketch_prefix: &'static str,
    machine: Machine,
    dtype: DataType,
    kind: OpKind,
    apply_budget: u64,
    hash_budget: u64,
}

/// A freshly built sketch of a row, one that has built nothing yet:
/// `gpu-scalar` keeps what its `apply` built and answers a repeated vector
/// from memory.
fn sketch(row: &Row) -> Box<dyn SketchRule> {
    let case = bench_suite(row.dtype)
        .into_iter()
        .find(|c| c.kind == row.kind)
        .expect("operator in the suite");
    build_sketches(
        &case.func,
        &row.machine,
        &builtin_registry(),
        Strategy::TensorIr,
    )
    .into_iter()
    .find(|s| s.name().starts_with(row.sketch_prefix))
    .expect("sketch for the row")
}

/// The sketch of a row and the first seeded decision vector it applies
/// cleanly (the rows of `compiler_microbench`'s `schedule/sketch_apply_*`).
fn candidate(row: &Row) -> (Box<dyn SketchRule>, Vec<Decision>) {
    let sketch = sketch(row);
    let decisions = (0..64)
        .map(|seed| sketch.sample(&mut StdRng::seed_from_u64(seed)))
        .find(|d| sketch.apply(d).is_ok())
        .expect("a decision vector that applies");
    (sketch, decisions)
}

fn measure(sketch: &dyn SketchRule, decisions: &[Decision]) -> (PrimFunc, u64, u64) {
    let (func, apply) = counted(|| sketch.apply(decisions).expect("applies"));
    let (_, hash) = counted(|| structural_hash(&func));
    (func, apply, hash)
}

fn gmm_gpu_tensor() -> Row {
    Row {
        name: "GMM f16 gpu-tensor",
        sketch_prefix: "gpu-tensor",
        machine: Machine::sim_gpu(),
        dtype: DataType::float16(),
        kind: OpKind::GMM,
        apply_budget: APPLY_GMM_GPU,
        hash_budget: HASH_BUDGET,
    }
}

fn c2d_gpu_scalar() -> Row {
    Row {
        name: "C2D f16 gpu-scalar",
        sketch_prefix: "gpu-scalar",
        kind: OpKind::C2D,
        apply_budget: APPLY_C2D_GPU,
        ..gmm_gpu_tensor()
    }
}

#[test]
fn candidate_allocations_repeat_and_stay_in_budget() {
    let rows = [
        gmm_gpu_tensor(),
        c2d_gpu_scalar(),
        Row {
            name: "GMM int8 cpu-tensor",
            sketch_prefix: "cpu-tensor",
            machine: Machine::sim_arm(),
            dtype: DataType::int8(),
            kind: OpKind::GMM,
            apply_budget: APPLY_GMM_CPU,
            hash_budget: HASH_BUDGET,
        },
    ];
    for row in &rows {
        // Each `apply` is a build: `candidate` has applied the vector
        // already, so both measurements ask sketches built afresh.
        let (_, decisions) = candidate(row);
        let (_, apply, hash) = measure(&*sketch(row), &decisions);
        let (_, apply_again, hash_again) = measure(&*sketch(row), &decisions);
        println!(
            "{:<22} apply {apply:>6} allocations, structural_hash {hash:>4}",
            row.name
        );
        assert_eq!(
            (apply, hash),
            (apply_again, hash_again),
            "{}: allocation counts do not repeat",
            row.name
        );
        assert!(
            apply <= row.apply_budget,
            "{}: apply made {apply} allocations, budget {}",
            row.name,
            row.apply_budget
        );
        assert!(
            hash <= row.hash_budget,
            "{}: structural_hash made {hash} allocations, budget {}",
            row.name,
            row.hash_budget
        );
    }
}

/// `tir::well_formed`, which every program entering the parser, the
/// verifier and the executors goes through, allocates its scope once per
/// call (twice if the nest is deeper than its initial capacity), whatever
/// the size of the program.
#[test]
fn well_formed_allocates_at_most_twice_per_call() {
    for row in [gmm_gpu_tensor(), c2d_gpu_scalar()] {
        let (sketch, decisions) = candidate(&row);
        let func = sketch.apply(&decisions).expect("applies");
        let (verdict, allocs) = counted(|| tir::well_formed(&func));
        assert_eq!(verdict, Ok(()), "{}", func.name);
        println!("{:<22} well_formed {allocs} allocations", row.name);
        assert!(allocs <= 2, "{}: {allocs} allocations", func.name);
    }
}

/// Budgets of one `tir_analysis::validate` of a finished candidate, the
/// check every `gpu-tensor` candidate ends with: the counts measured once
/// the loop-nest check passed the enclosing loops to iterator-map detection
/// without collecting them per block (108 and 45), plus 10%. They were 123
/// and 51 while it collected them, 487 and 266 before the read-only
/// analyses copied only what they change. Validation does the same work in
/// both profiles, so the budgets hold in debug too.
const VALIDATE_GMM_GPU: u64 = 119;
const VALIDATE_C2D_GPU: u64 = 50;

#[test]
fn validation_allocations_repeat_and_stay_in_budget() {
    for (row, budget) in [
        (gmm_gpu_tensor(), VALIDATE_GMM_GPU),
        (c2d_gpu_scalar(), VALIDATE_C2D_GPU),
    ] {
        let (sketch, decisions) = candidate(&row);
        let func = sketch.apply(&decisions).expect("applies");
        let (verdict, allocs) = counted(|| tir_analysis::validate(&func));
        let (_, again) = counted(|| tir_analysis::validate(&func));
        assert_eq!(verdict, Ok(()), "{}", row.name);
        println!("{:<22} validate {allocs} allocations", row.name);
        assert_eq!(
            allocs, again,
            "{}: allocation counts do not repeat",
            row.name
        );
        assert!(
            allocs <= budget,
            "{}: validate made {allocs} allocations, budget {budget}",
            row.name
        );
    }
}

/// Budgets of one `tir_analysis::analyze` of a finished candidate, all five
/// checks in one walk, the one `verify_scheduled` gates on: the counts
/// measured once the race proof composed and normalized only the accesses
/// it proves, once each (264 and 354), plus 10%. While the walk composed
/// every index of every access, and the proof normalized a site again for
/// every parallel loop around it, `analyze` made 652 and 549. The analyses
/// do the same work in both profiles, so the budgets hold in debug too.
const ANALYZE_GMM_GPU: u64 = 291;
const ANALYZE_C2D_GPU: u64 = 390;

#[test]
fn analyze_allocations_repeat_and_stay_in_budget() {
    for (row, budget) in [
        (gmm_gpu_tensor(), ANALYZE_GMM_GPU),
        (c2d_gpu_scalar(), ANALYZE_C2D_GPU),
    ] {
        let (sketch, decisions) = candidate(&row);
        let func = sketch.apply(&decisions).expect("applies");
        let (errors, allocs) = counted(|| tir_analysis::analyze(&func));
        let (_, again) = counted(|| tir_analysis::analyze(&func));
        assert_eq!(errors, [], "{}", row.name);
        println!("{:<22} analyze {allocs} allocations", row.name);
        assert_eq!(
            allocs, again,
            "{}: allocation counts do not repeat",
            row.name
        );
        assert!(
            allocs <= budget,
            "{}: analyze made {allocs} allocations, budget {budget}",
            row.name
        );
    }
}

/// `simplify`, `subst` and `replace_buffers` cost what they change: on a
/// tree they leave as it is they allocate nothing.
#[test]
fn passes_that_change_nothing_allocate_nothing() {
    let (sketch, decisions) = candidate(&gmm_gpu_tensor());
    let mut body = Stmt::clone(&sketch.apply(&decisions).expect("applies").body);
    // A finished candidate is already simplified; make sure of it.
    simplify_stmt(&mut body);
    let before = body.clone();

    let absent_var: VarMap<Expr> = [(Var::int("absent"), Expr::int(0))].into_iter().collect();
    let absent_buf = Buffer::new("absent", DataType::float16(), vec![1]);
    let absent_buf: HashMap<Buffer, Buffer> = [(absent_buf.clone(), absent_buf)].into();
    let (_, simplify) = counted(|| simplify_stmt(&mut body));
    let (_, subst) = counted(|| subst_stmt(&mut body, &absent_var));
    let (_, replace) = counted(|| replace_buffers(&mut body, &absent_buf));
    assert_eq!((simplify, subst, replace), (0, 0, 0));
    assert_eq!(body, before);

    let i = Var::int("i");
    let mut index = (Expr::from(&i) * 16 + Expr::from(&i).floor_mod(4)).floor_div(8);
    let index_before = index.clone();
    let (_, simplify) = counted(|| simplify_expr(&mut index));
    let (_, subst) = counted(|| subst_expr(&mut index, &absent_var));
    assert_eq!((simplify, subst), (0, 0));
    assert_eq!(index, index_before);
}

/// What a warm `tune_cached` hit allocates of its own: the returned
/// function's name and parameter list, and the one-element `history`.
const WARM_HIT_OWN: u64 = 3;
/// The whole hit on gmm 128³ and on ResNet-50's conv + residual add + relu
/// group (the network's three-operator fused kernel): own + key walk, the
/// three above plus the two id maps of the walk that writes the workload
/// key and the key's string, all sized up front. Before bodies were shared
/// and the database indexed by fingerprint the same hits made 480 and 960
/// allocations; while the comparison grew one map per kind as it went, 9
/// and 17; while the hash walk grew its maps (3 and 7) and a second,
/// tree-against-tree walk confirmed the hit, 8 and 12; while a fingerprint
/// index (a hash walk and a compare walk, two id maps each) stood in front
/// of a printed text key, 7 and 7.
const WARM_HIT_GMM: u64 = 6;
const WARM_HIT_FUSED: u64 = 6;
/// One warm `compile_model_with` of ResNet-50 (22 kernels, no measurement):
/// 2 198 of these are `fuse_graph` composing the kernels again. Was 19 457,
/// 2 588 while the comparison of each hit grew its maps, 2 507 while the
/// hash walk grew its maps, and 2 426 while a fingerprint index stood in
/// front of the key (one allocation more per kernel).
const WARM_COMPILE_RESNET50: u64 = 2_404;

/// A warm hit is a key walk, a probe and a reference-count increment: its
/// allocation count is exact, repeats, and
/// does not depend on the size of the stored program (build profile makes
/// no difference either: nothing is scheduled).
#[test]
fn warm_hits_allocate_a_small_exact_constant() {
    let reg = builtin_registry();
    let machine = Machine::sim_gpu();
    let dt = DataType::float16();
    let opts = TuneOptions {
        trials: 4,
        num_threads: 1,
        ..TuneOptions::default()
    };
    let model = resnet50(dt);
    let fused = fuse_graph(&model)
        .into_iter()
        .find(|g| g.name == "r50_s0_c3_add_relu")
        .and_then(|g| g.func)
        .expect("conv + add + relu group");
    let gmm = tir_workloads::gmm(128, 128, 128, dt, DataType::float32());

    let mut db = TuningDatabase::new();
    for (func, expected) in [(&gmm, WARM_HIT_GMM), (&fused, WARM_HIT_FUSED)] {
        let mut hit = || db.tune_cached(func, &machine, &reg, Strategy::TensorIr, &opts);
        assert!(hit().tuning_cost_s > 0.0, "{}: first call tunes", func.name);
        let (first, allocs) = counted(&mut hit);
        let (_, again) = counted(&mut hit);
        assert_eq!(first.trials_measured, 0, "{}: warm", func.name);
        let (_, key) = counted(|| workload_key(func));
        println!(
            "{:<22} warm hit {allocs} allocations ({key} key walk + {WARM_HIT_OWN} own)",
            func.name
        );
        assert_eq!((allocs, again), (expected, expected), "{}", func.name);
        assert_eq!(allocs - key, WARM_HIT_OWN, "{}", func.name);
    }

    let mut compile = || {
        compile_model_with(&model, &machine, &reg, Strategy::TensorIr, &opts, &mut db)
            .expect("valid model")
    };
    compile();
    let (warm, allocs) = counted(&mut compile);
    let (_, again) = counted(&mut compile);
    assert_eq!(warm.trials, 0, "second compile is warm");
    println!("ResNet-50 warm compile  {allocs} allocations");
    assert_eq!(
        (allocs, again),
        (WARM_COMPILE_RESNET50, WARM_COMPILE_RESNET50)
    );
}

/// The tree-walker allocates per run, never per step: its entry check's
/// scope, its lexical environment and its buffer map grow with the loop
/// nest and the buffer count, so a matmul and a c2d with 7.6x and 4x the
/// steps make the same count as small ones (5 and 6). The walker that
/// keyed a `HashMap<Var, f64>` allocated per block realize and per access.
#[test]
fn tree_walk_allocates_per_run_not_per_step() {
    let f32_ = DataType::float32();
    let count = |f: PrimFunc| {
        let args: Vec<Tensor> = (f.params.iter())
            .map(|p| Tensor::zeros(p.dtype(), p.shape()))
            .collect();
        let (out, allocs) = counted(|| run_with(&f, args, ExecBackend::TreeWalk, None));
        (out.expect("runs").steps, allocs)
    };
    for (small, large) in [
        (
            matmul_func("mm", 8, 8, 8, f32_),
            matmul_func("mm", 16, 16, 16, f32_),
        ),
        (
            tir_workloads::ops::c2d(1, 6, 6, 4, 4, 3, 3, 1, f32_),
            tir_workloads::ops::c2d(1, 10, 10, 4, 4, 3, 3, 1, f32_),
        ),
    ] {
        let name = small.name.clone();
        let ((small_steps, small), (large_steps, large)) = (count(small), count(large));
        println!("{name}: {small} allocations for {small_steps} steps, {large} for {large_steps}");
        assert!(large_steps >= 4 * small_steps, "{name}");
        assert_eq!(small, large, "{name}: allocations grow with steps");
    }
}

/// A sanitized run keeps shadow cells only for buffers a parallel loop
/// touches. On programs without one it makes at most two allocations more
/// than `run_with(Vm)` (the empty shadow table and the loop generations),
/// whatever the buffer count; when every buffer had its own shadow it made
/// one more per buffer (+5 on both programs).
#[test]
fn sanitizer_allocates_no_shadow_outside_parallel_loops() {
    let f32_ = DataType::float32();
    for f in [
        matmul_func("mm", 64, 64, 64, f32_),
        tir_workloads::ops::c2d(1, 10, 10, 4, 4, 3, 3, 1, f32_),
    ] {
        let args: Vec<Tensor> = (f.params.iter())
            .map(|p| Tensor::zeros(p.dtype(), p.shape()))
            .collect();
        let copy = args.clone();
        let (plain, plain_allocs) = counted(|| run_with(&f, args, ExecBackend::Vm, None));
        let (sanitized, sanitized_allocs) = counted(|| run_sanitized(&f, copy, None));
        let (plain, sanitized) = (plain.expect("runs"), sanitized.expect("clean"));
        assert_eq!(plain.outputs, sanitized.outputs, "{}", f.name);
        assert_eq!(plain.steps, sanitized.steps, "{}", f.name);
        println!(
            "{}: {plain_allocs} allocations plain, {sanitized_allocs} sanitized",
            f.name
        );
        assert!(
            sanitized_allocs <= plain_allocs + 2,
            "{}: the sanitizer makes {sanitized_allocs} allocations against {plain_allocs}",
            f.name
        );
    }
}

/// Budget of one cost-model refit: `CostModel::update` of a fresh model
/// with the 32 samples of `compiler_microbench`'s
/// `search/gbdt_refit_32_samples` row (the first 32 valid `gpu-scalar`
/// C2D f16 candidates, seeds from 0). The count is exact and repeats; the
/// budget is the count measured once a refit sorted only the feature
/// columns that can split (1 470; 1 477 when it sorted all 16), plus 10%.
const REFIT_32_SAMPLES: u64 = 1_617;

#[test]
fn cost_model_refit_stays_in_budget() {
    use tir_autoschedule::feature::extract_features;
    use tir_autoschedule::CostModel;
    use tir_exec::cost::simulate;

    let machine = Machine::sim_gpu();
    let c2d = (bench_suite(DataType::float16()).into_iter())
        .find(|c| c.kind == OpKind::C2D)
        .expect("C2D in the suite");
    let scalar = build_sketches(&c2d.func, &machine, &builtin_registry(), Strategy::TensorIr)
        .into_iter()
        .find(|s| s.name() == "gpu-scalar")
        .expect("gpu-scalar sketch");
    let samples: Vec<(Vec<f64>, f64)> = (0..)
        .filter_map(|seed| {
            (scalar
                .apply(&scalar.sample(&mut StdRng::seed_from_u64(seed)))
                .ok())
            .map(|f| (extract_features(&f), -simulate(&f, &machine).ln()))
        })
        .take(32)
        .collect();
    let refit = || {
        let (batch, mut model) = (samples.clone(), CostModel::new());
        let ((), allocs) = counted(|| model.update(batch));
        assert!(model.has_split());
        allocs
    };
    let (allocs, again) = (refit(), refit());
    println!("CostModel::update of 32 samples: {allocs} allocations");
    assert_eq!(allocs, again, "allocation counts do not repeat");
    assert!(
        allocs <= REFIT_32_SAMPLES,
        "a 32-sample refit made {allocs} allocations, budget {REFIT_32_SAMPLES}"
    );
}
