//! The program corpora of the differential suites, built once here so that
//! `vm_differential`, `racecheck_differential` and `sanitizer_equivalence`
//! run the same programs on the same inputs.

// Each suite uses its own subset.
#![allow(dead_code)]

pub mod golden;

use tir::builder::matmul_func;
use tir::{DataType, Expr, PrimFunc, Stmt, ThreadTag};
use tir_exec::Tensor;
use tir_rand::{rngs::StdRng, RngExt, SeedableRng};
use tir_schedule::Schedule;
use tir_workloads::ops;

/// Seeded random inputs for `func`, zeros for its last (output) parameter.
pub fn seeded_args(func: &PrimFunc, seed: u64) -> Vec<Tensor> {
    let n = func.params.len();
    func.params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i + 1 >= n {
                Tensor::zeros(p.dtype(), p.shape())
            } else {
                Tensor::random(p.dtype(), p.shape(), seed.wrapping_add(i as u64))
            }
        })
        .collect()
}

/// Every operator family in `tir-workloads`, at shapes small enough to
/// execute to completion, across representative dtypes; each with the
/// seed of its inputs.
pub fn workload_families() -> Vec<(PrimFunc, u64)> {
    let mut out = Vec::new();
    for (i, dt) in [DataType::float32(), DataType::float16(), DataType::int8()]
        .into_iter()
        .enumerate()
    {
        let acc = ops::accumulator_of(dt);
        let seed = 0xd1f5 + i as u64;
        for func in [
            ops::gmm(8, 7, 6, dt, acc),
            ops::batch_matmul(2, 4, 5, 6, dt, acc),
            ops::c1d(2, 18, 4, 5, 3, 2, dt),
            ops::c2d(1, 10, 10, 4, 4, 3, 3, 1, dt),
            ops::c3d(1, 6, 6, 6, 2, 2, 3, 1, dt),
            ops::dep(1, 10, 10, 4, 3, 3, 2, dt),
            ops::dil(1, 12, 12, 2, 2, 3, 3, 2, dt),
            ops::grp(1, 8, 8, 2, 2, 2, 3, 3, 1, dt),
            ops::t2d(1, 5, 5, 2, 2, 3, 3, 2, dt),
        ] {
            out.push((func, seed));
        }
    }
    out
}

/// `count` seeded random schedule pipelines over an 8³ matmul
/// (alternating f32 / f16): split / fuse / reorder / parallel / unroll,
/// the transform mix of `schedule_semantics.rs`. A case is a prefix of any
/// longer set's. None of the first 112 is illegal: every one passes the
/// analyzer, and the illegal programs are [`illegal_mutants`]. Inputs of
/// case `c` are seeded `0xace + c`.
pub fn random_pipelines(count: u64) -> Vec<PrimFunc> {
    (random_pipeline_schedules(count).into_iter())
        .map(Schedule::into_func)
        .collect()
}

/// The schedules behind [`random_pipelines`], each with the trace of the
/// steps that applied (a step the program refused left no mark).
pub fn random_pipeline_schedules(count: u64) -> Vec<Schedule> {
    let n = 8i64;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    (0..count)
        .map(|case| {
            let dt = if case % 2 == 0 {
                DataType::float32()
            } else {
                DataType::float16()
            };
            let mut sch = Schedule::new(matmul_func("mm", n, n, n, dt));
            let block = sch.get_block("C").unwrap();
            let len = rng.random_range(1usize..6);
            let ops: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..5)).collect();
            for (step, op) in ops.iter().enumerate() {
                let loops = sch.get_loops(&block).unwrap();
                match op {
                    0 => {
                        for l in &loops {
                            let e = sch.loop_extent(l).unwrap_or(1);
                            if e % 2 == 0 && e > 2 {
                                let _ = sch.split(l, &[2, -1]);
                                break;
                            }
                        }
                    }
                    1 if loops.len() >= 2 => {
                        let _ = sch.fuse(&loops[..2]);
                    }
                    2 if loops.len() >= 2 => {
                        let mut order = loops.clone();
                        order.swap(0, 1);
                        let _ = sch.reorder(&order[..2]);
                    }
                    3 if step == 0 => {
                        let _ = sch.parallel(&loops[0]);
                    }
                    _ => {
                        let _ = sch.unroll(loops.last().unwrap());
                    }
                }
            }
            sch
        })
        .collect()
}

/// GPU-style pipelines (split + reorder + fuse + thread binds +
/// cache_read + cache_write) over a 16³ matmul across a grid of tile
/// factors. Inputs of variant `v` are seeded `0xca0 + v`.
pub fn gpu_pipelines() -> Vec<PrimFunc> {
    (gpu_pipeline_schedules().into_iter())
        .map(Schedule::into_func)
        .collect()
}

/// The schedules behind [`gpu_pipelines`], with their eight-step traces.
pub fn gpu_pipeline_schedules() -> Vec<Schedule> {
    let mut out = Vec::new();
    for fi in [2i64, 4, 8] {
        for fj in [2i64, 4, 8, 16] {
            let reference = matmul_func("mm", 16, 16, 16, DataType::float32());
            let mut sch = Schedule::new(reference);
            let block = sch.get_block("C").unwrap();
            let loops = sch.get_loops(&block).unwrap();
            let i = sch.split(&loops[0], &[fi, -1]).unwrap();
            let j = sch.split(&loops[1], &[fj, -1]).unwrap();
            sch.reorder(&[i[0].clone(), j[0].clone(), i[1].clone(), j[1].clone()])
                .unwrap();
            let bid = sch.fuse(&[i[0].clone(), j[0].clone()]).unwrap();
            sch.bind(&bid, ThreadTag::BlockIdxX).unwrap();
            sch.bind(&i[1], ThreadTag::ThreadIdxX).unwrap();
            let a = sch.func().param("A").unwrap().clone();
            sch.cache_read(&block, &a, tir::MemScope::Shared, Some(&j[1]))
                .unwrap();
            sch.cache_write(&block, tir::MemScope::Local, Some(&j[1]))
                .unwrap();
            out.push(sch);
        }
    }
    out
}

/// Rewrites the first `Store` reachable in `s`, shifting its first index
/// by +1 — the classic off-by-one that walks off the end of the buffer.
fn shift_first_store_index(s: &mut Stmt) -> bool {
    match s {
        Stmt::Store { indices, .. } => {
            if let Some(first) = indices.first_mut() {
                *first = first.clone() + Expr::int(1);
                return true;
            }
            false
        }
        Stmt::For(f) => shift_first_store_index(&mut f.body),
        Stmt::Seq(v) => v.iter_mut().any(shift_first_store_index),
        Stmt::IfThenElse {
            then_branch,
            else_branch,
            ..
        } => {
            shift_first_store_index(then_branch)
                || else_branch
                    .as_mut()
                    .is_some_and(|e| shift_first_store_index(e))
        }
        Stmt::BlockRealize(br) => shift_first_store_index(&mut br.block.body),
        _ => false,
    }
}

/// Nine deliberately-illegal mutants of an n³ matmul, n ∈ {4, 8, 16}: the
/// reduction loop flipped to `Parallel`, bound to `threadIdx.x`, and the
/// store index shifted out of range — built with the primitives, which
/// leave legality to the analyzer, or by raw IR surgery. Inputs of size index `m` are seeded `0xbad + m`.
pub fn illegal_mutants() -> Vec<(String, PrimFunc, u64)> {
    let mut out = Vec::new();
    for (m, n) in [4i64, 8, 16].into_iter().enumerate() {
        for family in 0..3u8 {
            let mut sch = Schedule::new(matmul_func("mm", n, n, n, DataType::float32()));
            let block = sch.get_block("C").unwrap();
            let loops = sch.get_loops(&block).unwrap();
            let mut func;
            let label = match family {
                0 => {
                    // Parallel reduction: every iteration of the k loop
                    // read-modify-writes the same C[i, j] cell.
                    sch.parallel(&loops[2]).unwrap();
                    func = sch.into_func();
                    format!("parallel-reduction n={n}")
                }
                1 => {
                    // Same race, spelled as a GPU thread binding.
                    sch.bind(&loops[2], ThreadTag::ThreadIdxX).unwrap();
                    func = sch.into_func();
                    format!("threadIdx-reduction n={n}")
                }
                _ => {
                    // Off-by-one: C[i+1, j] walks past the last row.
                    func = sch.into_func();
                    let root = func.root_block_mut().expect("root block");
                    assert!(shift_first_store_index(&mut root.body));
                    format!("store-index-shift n={n}")
                }
            };
            out.push((label, func, 0xbad + m as u64));
        }
    }
    out
}
