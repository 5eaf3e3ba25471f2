//! Differential testing of the three execution backends.
//!
//! The optimized bytecode VM (`ExecBackend::Vm`), the compiler's
//! unoptimized bytecode (`compile(f)?.run_with_fuel(..)`), and the
//! tree-walking interpreter (`ExecBackend::TreeWalk`) must be
//! observationally identical: bit-exact
//! output tensors (`==`, not allclose) and identical step counts on every
//! run. This suite drives all three backends over
//!
//! * small-shape instances of **every** `tir-workloads` operator family
//!   (gmm, batch_matmul, c1d, c2d, c3d, dep, dil, grp, t2d) across
//!   float32/float16/int8, executed to completion;
//! * the real `bench_suite` entries (too large to execute fully in a
//!   test), fuel-capped so both backends must agree on hitting
//!   `OutOfFuel`;
//! * 100+ randomly-traced scheduled variants (seeded split / fuse /
//!   reorder / parallel / unroll pipelines plus GPU-style
//!   bind + cache_read + cache_write pipelines) of a matmul.

mod corpus;

use tir::{DataType, PrimFunc};
use tir_exec::{compile, run_with, ExecBackend, ExecError, RunOutcome, Tensor};
use tir_workloads::bench_suite;

/// The three executors, by name: each runs `func` on `args` under `fuel`.
const EXECUTORS: [&str; 3] = ["tree-walk", "unoptimized", "optimized"];

fn execute(
    executor: &str,
    func: &PrimFunc,
    args: Vec<Tensor>,
    fuel: Option<u64>,
) -> Result<RunOutcome, ExecError> {
    match executor {
        "tree-walk" => run_with(func, args, ExecBackend::TreeWalk, fuel),
        "unoptimized" => compile(func)?.run_with_fuel(args, fuel.unwrap_or(u64::MAX)),
        _ => run_with(func, args, ExecBackend::Vm, fuel),
    }
}

/// Runs `func` on all three executors with identical inputs; asserts
/// bit-exact outputs and identical step counts across every pair.
fn backends_agree(func: &PrimFunc, seed: u64) {
    let args = corpus::seeded_args(func, seed);
    let tw = run_with(func, args.clone(), ExecBackend::TreeWalk, None)
        .unwrap_or_else(|e| panic!("tree-walk failed on {}: {e}", func.name));
    for executor in &EXECUTORS[1..] {
        let vm = execute(executor, func, args.clone(), None)
            .unwrap_or_else(|e| panic!("{executor} failed on {}: {e}", func.name));
        assert_eq!(
            tw.steps, vm.steps,
            "step counts diverge on {}: tree-walk {} vs {executor} {}",
            func.name, tw.steps, vm.steps
        );
        for (i, (a, b)) in tw.outputs.iter().zip(&vm.outputs).enumerate() {
            assert_eq!(
                a, b,
                "output {i} of {} is not bit-identical on {executor}",
                func.name
            );
        }
    }
}

/// Every operator family in `tir-workloads`, at shapes small enough to
/// execute to completion, across representative dtypes.
#[test]
fn all_workload_families_bit_exact() {
    for (func, seed) in corpus::workload_families() {
        backends_agree(&func, seed);
    }
}

/// The real (large) bench-suite entries: both backends must hit the fuel
/// guard — neither may finish, diverge into a different error, or panic.
#[test]
fn bench_suite_fuel_parity() {
    for dt in [DataType::float16(), DataType::int8()] {
        for case in bench_suite(dt) {
            let args: Vec<Tensor> = case
                .func
                .params
                .iter()
                .map(|p| Tensor::zeros(p.dtype(), p.shape()))
                .collect();
            for executor in EXECUTORS {
                let err = execute(executor, &case.func, args.clone(), Some(4096))
                    .err()
                    .unwrap_or_else(|| {
                        panic!("{executor} finished {} under tiny fuel", case.func.name)
                    });
                assert!(
                    matches!(err, ExecError::OutOfFuel),
                    "{executor} on {}: expected OutOfFuel, got {err}",
                    case.func.name
                );
            }
        }
    }
}

/// 112 seeded random schedule pipelines over a matmul (alternating f32 /
/// f16), mirroring the transform mix of `schedule_semantics.rs`.
#[test]
fn random_scheduled_variants_bit_exact() {
    for (case, func) in corpus::random_pipelines(112).iter().enumerate() {
        backends_agree(func, 0xace + case as u64);
    }
}

/// GPU-style pipelines (split + reorder + fuse + thread binds +
/// cache_read + cache_write) across a grid of tile factors.
#[test]
fn gpu_scheduled_variants_bit_exact() {
    for (v, func) in corpus::gpu_pipelines().iter().enumerate() {
        backends_agree(func, 0xca0 + v as u64);
    }
}
