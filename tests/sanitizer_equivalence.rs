//! One bytecode pipeline for both dynamic oracles.
//!
//! `tir_exec::run_sanitized` executes *optimized* bytecode, as
//! `run_with(ExecBackend::Vm)` does. That is sound only if the optimizer
//! never changes what the sanitizer sees: every fused op and every lane of
//! a `MacLanes` replays its constituent accesses through the same shadow
//! hooks, and no pass adds or deletes a `Load`/`Store`. This suite is the
//! check behind that claim: on every program of `vm_differential`, every
//! legal pipeline and every illegal mutant of `racecheck_differential`,
//! and a racy *scheduled* program (so the compiler's iterator forwarding
//! and the race sit in one nest), the sanitizer over unoptimized bytecode — the reference —
//! and over optimized bytecode return the same outputs and step count, or
//! the same `ExecError` variant.

mod corpus;

use tir::builder::matmul_func;
use tir::{DataType, PrimFunc};
use tir_exec::{compile, compile_optimized, ExecError};
use tir_schedule::Schedule;

/// Sanitizes `func` on both bytecodes and asserts the same verdict;
/// returns whether it was a conviction.
fn same_verdict(label: &str, func: &PrimFunc, seed: u64) -> bool {
    let args = corpus::seeded_args(func, seed);
    let fuel = 1 << 24;
    let reference = compile(func)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .run_sanitized(args.clone(), fuel);
    let optimized = compile_optimized(func)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .run_sanitized(args, fuel);
    match (&reference, &optimized) {
        (Ok(r), Ok(o)) => {
            assert_eq!(r.steps, o.steps, "{label}: step counts differ");
            assert_eq!(r.outputs, o.outputs, "{label}: outputs differ");
            false
        }
        (Err(r), Err(o)) => {
            assert_eq!(
                std::mem::discriminant(r),
                std::mem::discriminant(o),
                "{label}: unoptimized says {r}, optimized says {o}"
            );
            matches!(r, ExecError::DataRace(_) | ExecError::OutOfBounds(_))
        }
        _ => panic!(
            "{label}: verdicts differ — unoptimized {:?}, optimized {:?}",
            reference.map(|o| o.steps),
            optimized.map(|o| o.steps)
        ),
    }
}

#[test]
fn optimizer_never_changes_a_sanitizer_verdict() {
    let mut convicted = 0;
    for (func, seed) in corpus::workload_families() {
        convicted += same_verdict(&func.name, &func, seed) as usize;
    }
    for (case, func) in (0u64..).zip(corpus::random_pipelines(112)) {
        convicted += same_verdict(&format!("variant {case}"), &func, 0xace + case) as usize;
    }
    for (v, func) in (0u64..).zip(corpus::gpu_pipelines()) {
        convicted += same_verdict(&format!("gpu variant {v}"), &func, 0xca0 + v) as usize;
    }
    assert_eq!(convicted, 0, "a legal program was convicted");
    for (label, func, seed) in &corpus::illegal_mutants() {
        convicted += same_verdict(label, func, *seed) as usize;
    }
    // The six reduction races and the three 1-past-the-end stores.
    assert_eq!(convicted, 9, "every illegal mutant is convicted");
}

/// A matmul whose reduction loop is split and whose *outer* half is made
/// parallel: the block binds `vk = k0*4 + k1`, which the compiler forwards
/// into the accesses and the optimizer batches over `k1`, while every
/// iteration of `k0` read-modify-writes the same `C[i, j]`.
#[test]
fn race_in_a_forwarded_nest_is_convicted_on_both() {
    let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    let k = sch.split(&loops[2], &[2, -1]).unwrap();
    sch.parallel(&k[0]).unwrap();
    let listing = compile_optimized(sch.func()).unwrap().to_string();
    assert!(
        listing.contains("mac_lanes") && !listing.contains("set_var"),
        "the nest must be forwarded and batched for this test to mean anything:\n{listing}"
    );
    assert!(same_verdict("split-k parallel", sch.func(), 7));
}
