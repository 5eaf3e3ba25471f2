//! Allocation budget of one search candidate: exact and machine-independent.
//!
//! Candidate evaluation is allocation-bound (every phase runs at the same
//! ~50–60 ns per heap allocation), so the number of allocations one
//! `SketchRule::apply` + `structural_hash` makes is the regression gate
//! wall-clock cannot give on a shared 2-core VM. The counts are a pure
//! function of the program and the decision vector: they must repeat
//! exactly run to run and stay under the committed budget (measured after
//! the IR passes were rewritten to work in place, +10%). The budgets
//! describe the optimized build, where `Schedule` runs without auto-verify
//! as the search does; a debug build re-verifies after every primitive, so
//! there only the exact repetition is checked.
//!
//! This is its own test binary because it installs the harness's counting
//! `#[global_allocator]` (`tensorir_bench::alloc_count`), which counts only
//! the measuring thread.

use std::collections::HashMap;

use tensorir_bench::alloc_count::{counted, CountingAlloc};
use tir::simplify::{simplify_expr, simplify_stmt};
use tir::structural::structural_hash;
use tir::visit::{replace_buffers, subst_expr, subst_stmt};
use tir::{Buffer, DataType, Expr, PrimFunc, Var};
use tir_autoschedule::{build_sketches, Decision, SketchRule, Strategy};
use tir_exec::machine::Machine;
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
const APPLY_GMM_GPU: u64 = 2_251;
const APPLY_C2D_GPU: u64 = 2_273;
const APPLY_GMM_CPU: u64 = 1_116;
const HASH_BUDGET: u64 = 9;

struct Row {
    name: &'static str,
    sketch_prefix: &'static str,
    machine: Machine,
    dtype: DataType,
    kind: OpKind,
    apply_budget: u64,
    hash_budget: u64,
}

/// The sketch of a row and the first seeded decision vector it applies
/// cleanly (the rows of `compiler_microbench`'s `schedule/sketch_apply_*`).
fn candidate(row: &Row) -> (Box<dyn SketchRule>, Vec<Decision>) {
    let reg = builtin_registry();
    let case = bench_suite(row.dtype)
        .into_iter()
        .find(|c| c.kind == row.kind)
        .expect("operator in the suite");
    let sketch = build_sketches(&case.func, &row.machine, &reg, Strategy::TensorIr)
        .into_iter()
        .find(|s| s.name().starts_with(row.sketch_prefix))
        .expect("sketch for the row");
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

#[test]
fn candidate_allocations_repeat_and_stay_in_budget() {
    let rows = [
        gmm_gpu_tensor(),
        Row {
            name: "C2D f16 gpu-scalar",
            sketch_prefix: "gpu-scalar",
            machine: Machine::sim_gpu(),
            dtype: DataType::float16(),
            kind: OpKind::C2D,
            apply_budget: APPLY_C2D_GPU,
            hash_budget: HASH_BUDGET,
        },
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
        let (sketch, decisions) = candidate(row);
        let (_, apply, hash) = measure(&*sketch, &decisions);
        let (_, apply_again, hash_again) = measure(&*sketch, &decisions);
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
        if cfg!(debug_assertions) {
            continue;
        }
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

/// `simplify`, `subst` and `replace_buffers` cost what they change: on a
/// tree they leave as it is they allocate nothing.
#[test]
fn passes_that_change_nothing_allocate_nothing() {
    let (sketch, decisions) = candidate(&gmm_gpu_tensor());
    let mut body = sketch.apply(&decisions).expect("applies").body;
    // A finished candidate is already simplified; make sure of it.
    simplify_stmt(&mut body);
    let before = body.clone();

    let absent_var: HashMap<Var, Expr> = [(Var::int("absent"), Expr::int(0))].into();
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
