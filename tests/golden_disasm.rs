//! Golden-listing tests for the bytecode disassembler and optimizer.
//!
//! Each fixture pins the full disassembly of an *optimized* program, so
//! any change in the optimizer's output — a pass firing differently, a
//! fusion regressing to scalar ops, an access pool reshuffling — shows
//! up as a readable text diff instead of a silent perf cliff. The
//! unoptimized listing of the elementwise fixture is pinned too, as a
//! guard on the compiler's baseline lowering.

use tir::builder::matmul_func;
use tir::{Block, BlockRealize, Buffer, DataType, Expr, IterVar, PrimFunc, Stmt, ThreadTag, Var};
use tir_exec::{compile, optimize};
use tir_schedule::Schedule;

fn listing(f: &PrimFunc, opt: bool) -> String {
    let prog = compile(f).expect("compiles");
    let prog = if opt { optimize(prog) } else { prog };
    format!("{prog}")
}

#[track_caller]
fn assert_listing(actual: &str, expected: &str) {
    let expected = expected.trim_start_matches('\n');
    assert!(
        actual == expected,
        "listing drifted from the golden fixture.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// The canonical matmul: three loops of literal extent collapse to a
/// guarded `MacLanes` over one fused multiply-accumulate — seven ops
/// total.
#[test]
fn golden_matmul_optimized() {
    let f = matmul_func("gmm", 4, 4, 4, DataType::float32());
    assert_listing(
        &listing(&f, true),
        r"
program gmm (7 ops, 3 regs, 6 slots, 3 loops, optimized)
   0: for_setup L0 v0 extent=4 end=7
   1: for_setup L1 v1 extent=4 end=6
   2: for_setup L2 v2 extent=4 end=5
   3: mac_lanes L2 v2 mac0 guard[v2] init C[v0*4 + v1*1] = 0
   4: for_next L2 v2 body=3
   5: for_next L1 v1 body=2
   6: for_next L0 v0 body=1
  mac0: C[v0*4 + v1*1] = C[v0*4 + v1*1] Add (A[v0*4 + v2*1] Mul B[v1*1 + v2*4])
",
    );
}

fn elementwise() -> PrimFunc {
    // B[i] = A[i] * 2 + 1
    let a = Buffer::new("A", DataType::float32(), vec![8]);
    let b = Buffer::new("B", DataType::float32(), vec![8]);
    let i = Var::int("i");
    let body = Stmt::store(
        b.clone(),
        vec![Expr::from(&i)],
        a.load(vec![Expr::from(&i)]) * Expr::f32(2.0) + Expr::f32(1.0),
    )
    .in_loop(i, 8);
    PrimFunc::new("ew", vec![a, b], body)
}

/// An elementwise loop: the compiler addresses both accesses by a direct
/// frame read and the final `Bin; Store` fuses, but the loop stays
/// scalar (its body is not a single fused statement).
#[test]
fn golden_elementwise_optimized() {
    assert_listing(
        &listing(&elementwise(), true),
        r"
program ew (8 ops, 2 regs, 1 slots, 1 loops, optimized)
   0: for_setup L0 v0 extent=8 end=8
   1: tick
   2: load r0 = A[v0*1]
   3: const r1 = 2
   4: bin r0 = r0 Mul r1
   5: const r1 = 1
   6: bin_store B[v0*1] = r0 Add r1
   7: for_next L0 v0 body=1
",
    );
}

/// The same fixture before optimization — pins the compiler's baseline
/// lowering: slot-addressed accesses, no test for the root block's literal
/// `true` predicate, and the separate Bin / Store the optimizer fuses.
#[test]
fn golden_elementwise_unoptimized() {
    assert_listing(
        &listing(&elementwise(), false),
        r"
program ew (9 ops, 2 regs, 1 slots, 1 loops)
   0: for_setup L0 v0 extent=8 end=9
   1: tick
   2: load r0 = A[v0*1]
   3: const r1 = 2
   4: bin r0 = r0 Mul r1
   5: const r1 = 1
   6: bin r0 = r0 Add r1
   7: store B[v0*1] = r0
   8: for_next L0 v0 body=1
",
    );
}

/// A split matmul: the compiler substitutes the binding `vi = i0*4 + i1`
/// into the three accesses, the optimizer deletes its unread `SetVar` and
/// chain, and the reduction loop is
/// the same guarded `MacLanes` the unscheduled matmul gets — the listing
/// differs from `golden_matmul_optimized` by one loop and the strides.
#[test]
fn golden_scheduled_matmul_optimized() {
    let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    sch.split(&loops[0], &[2, -1]).unwrap();
    let actual = listing(sch.func(), true);
    assert_listing(
        &actual,
        r"
program mm (9 ops, 3 regs, 7 slots, 4 loops, optimized)
   0: for_setup L0 v0 extent=2 end=9
   1: for_setup L1 v1 extent=4 end=8
   2: for_setup L2 v2 extent=8 end=7
   3: for_setup L3 v3 extent=8 end=6
   4: mac_lanes L3 v3 mac0 guard[v3] init C[v0*32 + v1*8 + v2*1] = 0
   5: for_next L3 v3 body=4
   6: for_next L2 v2 body=3
   7: for_next L1 v1 body=2
   8: for_next L0 v0 body=1
  mac0: C[v0*32 + v1*8 + v2*1] = C[v0*32 + v1*8 + v2*1] Add (A[v0*32 + v1*8 + v3*1] Mul B[v2*1 + v3*8])
",
    );
}

/// A GPU-style nest: both spatial loops tiled, the two outer tiles fused
/// into one `blockIdx.x` loop and the tile blockized. The outer block
/// binds its iterators through `fused // 2` and `fused % 2`, which the
/// loop's extent of 4 does not make affine: substitution stops there and
/// keeps `v1`/`v2` as base terms.
/// The inner block's `vi = vi_o*4 + i1` is affine over them, so the MAC
/// nest still indexes by loop variables and collapses to `MacLanes`.
#[test]
fn golden_opaque_outer_iterator_optimized() {
    let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    let i = sch.split(&loops[0], &[2, -1]).unwrap();
    let j = sch.split(&loops[1], &[2, -1]).unwrap();
    sch.reorder(&[i[0].clone(), j[0].clone(), i[1].clone(), j[1].clone()])
        .unwrap();
    let fused = sch.fuse(&[i[0].clone(), j[0].clone()]).unwrap();
    sch.bind(&fused, ThreadTag::BlockIdxX).unwrap();
    sch.blockize(&i[1]).unwrap();
    assert_listing(
        &listing(sch.func(), true),
        r"
program mm (17 ops, 3 regs, 10 slots, 4 loops, optimized)
   0: for_setup L0 v0 extent=4 end=17
   1: load_var r0 = v0
   2: const r1 = 2
   3: bin r0 = r0 FloorDivI r1
   4: set_var v1 = r0
   5: load_var r0 = v0
   6: const r1 = 2
   7: bin r0 = r0 FloorModI r1
   8: set_var v2 = r0
   9: for_setup L1 v4 extent=4 end=16
  10: for_setup L2 v5 extent=4 end=15
  11: for_setup L3 v6 extent=8 end=14
  12: mac_lanes L3 v6 mac0 guard[v6] init C[v1*32 + v2*4 + v4*8 + v5*1] = 0
  13: for_next L3 v6 body=12
  14: for_next L2 v5 body=11
  15: for_next L1 v4 body=10
  16: for_next L0 v0 body=1
  mac0: C[v1*32 + v2*4 + v4*8 + v5*1] = C[v1*32 + v2*4 + v4*8 + v5*1] Add (A[v1*32 + v4*8 + v6*1] Mul B[v2*4 + v5*1 + v6*8])
",
    );
}

/// The negative of the guard rule: a reduce iterator bound to `7 - k`
/// (a reversed loop) is zero when the loop counter is 7, not 0, so the
/// flag ops must survive and the loop stays scalar — substituted and
/// MAC-fused, but not lane-batched.
#[test]
fn golden_reversed_reduce_binding_optimized() {
    let f = matmul_func("mm", 4, 4, 8, DataType::float32());
    let realize = tir::visit::find_block(&f.body, "C").unwrap();
    let loops: Vec<(Var, i64)> = (realize.iter_values.iter().zip([4, 4, 8]))
        .map(|(value, extent)| match value {
            Expr::Var(v) => (v.clone(), extent),
            other => panic!("matmul_func binds loop variables, got {other}"),
        })
        .collect();
    let mut values = realize.iter_values.clone();
    values[2] = 7 - values[2].clone();
    let reversed = BlockRealize::new(values, realize.block.clone());
    let body = Stmt::BlockRealize(Box::new(reversed)).in_loops(loops);
    let f = PrimFunc::new("mm", f.params.clone(), body);
    assert_listing(
        &listing(&f, true),
        r"
program mm (16 ops, 3 regs, 6 slots, 3 loops, optimized)
   0: for_setup L0 v0 extent=4 end=16
   1: for_setup L1 v1 extent=4 end=15
   2: for_setup L2 v2 extent=8 end=14
   3: reset_reduce_flag
   4: const r0 = 7
   5: load_var r1 = v2
   6: bin r0 = r0 Sub r1
   7: update_reduce_flag r0
   8: jump_if_reduce_flag_false -> 11
   9: tick
  10: store_const C[v0*4 + v1*1] = 0
  11: tick
  12: fused_mac mac0
  13: for_next L2 v2 body=3
  14: for_next L1 v1 body=2
  15: for_next L0 v0 body=1
  mac0: C[v0*4 + v1*1] = C[v0*4 + v1*1] Add (A[7 + v0*8 + v2*-1] Mul B[28 + v1*1 + v2*-4])
",
    );
}

/// A staged copy as a tensorized sketch leaves it: `v0 = k0*16 + ax0`
/// and `v1 = f % 2 * 32 + ax1` read `B[v0 % 64, v1 % 64]`, and
/// `v2 = f // 2` indexes the stage, under loops of extents 2, 4, 16
/// and 32. The extents prove every `//` and `%`: the three bindings
/// become slot terms, their `SetVar`s and divisions are dead code, and
/// the innermost loop is one copy lane.
#[test]
fn golden_staged_copy_optimized() {
    let dt = DataType::float16();
    let (b, s) = (
        Buffer::new("B", dt, vec![64, 64]),
        Buffer::new("S", dt, vec![1, 64, 64]),
    );
    let [f, k0, ax0, ax1, v0, v1, v2] = ["f", "k0", "ax0", "ax1", "v0", "v1", "v2"].map(Var::int);
    let e = |var: &Var| Expr::from(var);
    let load = b.load(vec![e(&v0).floor_mod(64), e(&v1).floor_mod(64)]);
    let body = Stmt::store(s.clone(), vec![e(&v2), e(&v0), e(&v1)], load);
    let iters = [(v2, 1), (v0, 64), (v1, 64)].map(|(var, n)| IterVar::spatial(var, n));
    let block = Block::new("S", iters.to_vec(), vec![], vec![], body);
    let bind = vec![
        e(&f).floor_div(2),
        e(&k0) * 16 + e(&ax0),
        e(&f).floor_mod(2) * 32 + e(&ax1),
    ];
    let realize = Stmt::BlockRealize(Box::new(BlockRealize::new(bind, block)));
    let body = realize.in_loops(vec![(f, 2), (k0, 4), (ax0, 16), (ax1, 32)]);
    let func = PrimFunc::new("stage", vec![b, s], body);
    assert_listing(
        &listing(&func, true),
        r"
program stage (9 ops, 2 regs, 7 slots, 4 loops, optimized)
   0: for_setup L0 v0 extent=2 end=9
   1: for_setup L1 v1 extent=4 end=8
   2: for_setup L2 v2 extent=16 end=7
   3: for_setup L3 v3 extent=32 end=6
   4: mac_lanes L3 v3 copy S[v0*32 + v1*1024 + v2*64 + v3*1] = B[v0*32 + v1*1024 + v2*64 + v3*1]
   5: for_next L3 v3 body=4
   6: for_next L2 v2 body=3
   7: for_next L1 v1 body=2
   8: for_next L0 v0 body=1
",
    );
}
