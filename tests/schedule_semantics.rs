//! Cross-crate property tests: randomly composed schedules must preserve
//! program semantics exactly (interpreter-checked), and the iterator-map
//! detector must agree with brute-force evaluation.
//!
//! Originally written with `proptest`; rewritten as exhaustive/seeded
//! sweeps over the same parameter ranges so the workspace builds with no
//! external dependencies.

use tir::builder::matmul_func;
use tir::{DataType, Expr, ThreadTag, Var, VarMap};
use tir_arith::iter_map::{detect_iter_map, eval_iter_sum};
use tir_exec::assert_same_semantics;
use tir_rand::{rngs::StdRng, RngExt, SeedableRng};
use tir_schedule::Schedule;

/// Factor pairs of n.
fn factor_pairs(n: i64) -> Vec<(i64, i64)> {
    (1..=n).filter(|d| n % d == 0).map(|d| (d, n / d)).collect()
}

/// Any split of any loop of a matmul by exact factors preserves semantics
/// and passes validation (exhaustive over loops x factor pairs).
#[test]
fn split_preserves_semantics() {
    let n = 12i64;
    let reference = matmul_func("mm", n, n, n, DataType::float32());
    for loop_idx in 0usize..3 {
        for (a, b) in factor_pairs(n) {
            let mut sch = Schedule::new(reference.clone());
            let block = sch.get_block("C").unwrap();
            let loops = sch.get_loops(&block).unwrap();
            sch.split(&loops[loop_idx], &[a, b]).unwrap();
            tir_analysis::validate(sch.func()).unwrap_or_else(|e| panic!("validation: {}", e[0]));
            assert_same_semantics(&reference, sch.func(), 1, 0.0);
        }
    }
}

/// Random pipelines of split / fuse / reorder / parallel / bind keep the
/// matmul bit-exact (seeded random op sequences).
#[test]
fn random_pipeline_preserves_semantics() {
    let n = 8i64;
    let reference = matmul_func("mm", n, n, n, DataType::float32());
    let mut rng = StdRng::seed_from_u64(0x5c4ed);
    for _case in 0..24 {
        let len = rng.random_range(1usize..6);
        let ops: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..5)).collect();
        let mut sch = Schedule::new(reference.clone());
        let block = sch.get_block("C").unwrap();
        for (step, op) in ops.iter().enumerate() {
            let loops = sch.get_loops(&block).unwrap();
            match op {
                0 => {
                    // Split the first splittable loop by 2.
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
                    // Parallel only as the first op (outermost loop is
                    // guaranteed spatial there).
                    let _ = sch.parallel(&loops[0]);
                }
                _ => {
                    let _ = sch.unroll(loops.last().unwrap());
                }
            }
        }
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
    }
}

/// detect_iter_map's normalized sums evaluate identically to the raw
/// binding expressions on every point of the domain (exhaustive).
#[test]
fn iter_map_matches_bruteforce() {
    for e1 in 2i64..5 {
        for e2 in 2i64..5 {
            for cut in 1i64..5 {
                let i = Var::int("i");
                let j = Var::int("j");
                let fused = Expr::from(&i) * e2 + Expr::from(&j);
                let total = e1 * e2;
                // Use only divisor-aligned cuts.
                let c = (1..=total)
                    .filter(|d| total % d == 0 && e2 % d == 0)
                    .nth(cut as usize % 2)
                    .unwrap_or(1);
                let bindings = vec![fused.clone().floor_div(c), fused.floor_mod(c)];
                let dom = vec![(i.clone(), e1), (j.clone(), e2)];
                if let Ok(map) = detect_iter_map(&bindings, &dom) {
                    for iv in 0..e1 {
                        for jv in 0..e2 {
                            let vals: VarMap<i64> =
                                [(i.clone(), iv), (j.clone(), jv)].into_iter().collect();
                            let f = iv * e2 + jv;
                            assert_eq!(eval_iter_sum(&map.sums[0], &vals), f / c);
                            assert_eq!(eval_iter_sum(&map.sums[1], &vals), f % c);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gpu_style_schedule_pipeline_end_to_end() {
    let reference = matmul_func("mm", 16, 16, 16, DataType::float32());
    let mut sch = Schedule::new(reference.clone());
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    let i = sch.split(&loops[0], &[4, 4]).unwrap();
    let j = sch.split(&loops[1], &[4, 4]).unwrap();
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
    tir_analysis::assert_valid(sch.func());
    assert_same_semantics(&reference, sch.func(), 1, 0.0);
}
