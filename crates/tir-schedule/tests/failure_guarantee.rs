//! The strong failure guarantee: a primitive that returns an error leaves
//! the program (printed text and structural hash) and the trace exactly as
//! it found them.
//!
//! Primitives keep no backup: they check every precondition on a borrow
//! before the first rewrite. Whether the whole program is legal is
//! [`Schedule::verify`]'s question, never a primitive's.

use std::sync::Arc;

use tir::builder::{compute, matmul_func};
use tir::structural::structural_hash;
use tir::{
    AnnValue, Block, BlockRealize, Buffer, BufferRegion, DataType, Expr, IterVar, MemScope,
    PrimFunc, Stmt, ThreadTag, Var,
};
use tir_schedule::{BlockRef, LoopRef, Schedule, ScheduleError};

fn mm() -> PrimFunc {
    matmul_func("mm", 16, 16, 16, DataType::float32())
}

/// Matmul with the root block stripped: the body is the bare loop nest.
fn mm_rootless() -> PrimFunc {
    let mut f = mm();
    if let Stmt::BlockRealize(root) = &*f.body {
        f.body = Arc::new((*root.block.body).clone());
    }
    f
}

/// B = A + 1; C = exp(B): two spatial blocks with an intermediate buffer.
fn add_exp() -> PrimFunc {
    let a = Buffer::new("A", DataType::float32(), vec![16, 16]);
    let b = Buffer::new("B", DataType::float32(), vec![16, 16]);
    let c = Buffer::new("C", DataType::float32(), vec![16, 16]);
    let s1 = compute("B", &b, |iv| {
        a.load(iv.iter().map(Expr::from).collect()) + Expr::f32(1.0)
    });
    let s2 = compute("C", &c, |iv| Expr::Call {
        name: "exp".into(),
        args: vec![b.load(iv.iter().map(Expr::from).collect())],
        dtype: DataType::float32(),
    });
    let mut f = PrimFunc::new("add_exp", vec![a, c], Stmt::seq(vec![s1, s2]));
    f.root_block_mut().expect("root").alloc_buffers.push(b);
    f
}

/// Matmul followed by ReLU: a reduction producer with a spatial consumer.
fn matmul_relu() -> PrimFunc {
    let base = mm();
    let c = base.params[2].clone();
    let d = Buffer::new("D", DataType::float32(), vec![16, 16]);
    let relu = compute("D", &d, |iv| {
        c.load(iv.iter().map(Expr::from).collect())
            .max(Expr::f32(0.0))
    });
    let mm_body = (*base.root_block().expect("root").body).clone();
    let mut f = PrimFunc::new(
        "matmul_relu",
        vec![base.params[0].clone(), base.params[1].clone(), d],
        Stmt::seq(vec![mm_body, relu]),
    );
    f.root_block_mut().expect("root").alloc_buffers.push(c);
    f
}

/// `O[vi] += A[vi, vk]` whose `init` is a block of its own, `Z`, beside a
/// loop that holds nothing (which a `prune_empty` that runs removes).
fn init_block_beside_an_empty_loop() -> PrimFunc {
    let a = Buffer::new("A", DataType::float32(), vec![4, 8]);
    let o = Buffer::new("O", DataType::float32(), vec![4]);
    let (i, k) = (Var::int("i"), Var::int("k"));
    let (vi, vk, vz) = (Var::int("vi"), Var::int("vk"), Var::int("vz"));
    let at = |v: &Var| vec![Expr::from(v)];
    let z = Block::new(
        "Z",
        vec![IterVar::spatial(vz.clone(), 4)],
        vec![],
        vec![BufferRegion::point(o.clone(), at(&vz))],
        Stmt::store(o.clone(), at(&vz), Expr::f32(0.0)),
    );
    let row = vec![Expr::from(&vi), Expr::from(&vk)];
    let mut r = Block::new(
        "R",
        vec![
            IterVar::spatial(vi.clone(), 4),
            IterVar::reduce(vk.clone(), 8),
        ],
        vec![BufferRegion::point(a.clone(), row.clone())],
        vec![BufferRegion::point(o.clone(), at(&vi))],
        Stmt::store(o.clone(), at(&vi), o.load(at(&vi)) + a.load(row)),
    );
    let realize = |values, block| Stmt::BlockRealize(Box::new(BlockRealize::new(values, block)));
    r.init = Some(Box::new(realize(at(&vi), z)));
    let nest = realize(vec![Expr::from(&i), Expr::from(&k)], r).in_loops(vec![(i, 4), (k, 8)]);
    let hollow = Stmt::Seq(vec![]).in_loop(Var::int("hollow"), 2);
    PrimFunc::new("f", vec![a, o], Stmt::Seq(vec![hollow, nest]))
}

fn loops_of(sch: &Schedule, block: &str) -> Vec<LoopRef> {
    sch.get_loops(&sch.get_block(block).expect("block"))
        .expect("loops")
}

/// References that resolve in `matmul_relu` but in none of the other
/// functions: its `D` block and that block's outer loop.
fn foreign_refs() -> (BlockRef, LoopRef) {
    let other = Schedule::new(matmul_relu());
    let block = other.get_block("D").expect("D");
    let l = other.get_loops(&block).expect("loops")[0].clone();
    (block, l)
}

/// Runs `call`, which must fail, and checks it changed nothing.
fn must_fail_untouched<T>(
    sch: &mut Schedule,
    what: &str,
    call: impl FnOnce(&mut Schedule) -> Result<T, ScheduleError>,
) -> ScheduleError {
    let before = (
        sch.func().to_string(),
        structural_hash(sch.func()),
        sch.trace().len(),
    );
    let err = match call(sch) {
        Ok(_) => panic!("{what}: expected an error"),
        Err(e) => e,
    };
    let after = (
        sch.func().to_string(),
        structural_hash(sch.func()),
        sch.trace().len(),
    );
    assert_eq!(
        before, after,
        "{what} failed with `{err}` but changed the schedule"
    );
    err
}

#[test]
fn loop_primitives_fail_whole() {
    let mut sch = Schedule::new(add_exp());
    let (_, ghost) = foreign_refs();
    let b = loops_of(&sch, "B");
    let c = loops_of(&sch, "C");

    must_fail_untouched(&mut sch, "split: missing loop", |s| {
        s.split(&ghost, &[4, 4])
    });
    must_fail_untouched(&mut sch, "split: non-covering", |s| s.split(&b[0], &[2, 2]));
    must_fail_untouched(&mut sch, "split: two inferred", |s| {
        s.split(&b[0], &[-1, -1])
    });
    must_fail_untouched(&mut sch, "fuse: missing loop", |s| {
        s.fuse(&[b[0].clone(), ghost.clone()])
    });
    must_fail_untouched(&mut sch, "fuse: imperfect nest", |s| {
        s.fuse(&[b[0].clone(), c[1].clone()])
    });
    must_fail_untouched(&mut sch, "fuse: wrong order", |s| {
        s.fuse(&[b[1].clone(), b[0].clone()])
    });
    must_fail_untouched(&mut sch, "reorder: off-chain", |s| {
        s.reorder(&[b[0].clone(), c[0].clone()])
    });
    must_fail_untouched(&mut sch, "reorder: missing loops", |s| {
        s.reorder(&[ghost.clone(), ghost.clone()])
    });
    must_fail_untouched(&mut sch, "parallel", |s| s.parallel(&ghost));
    must_fail_untouched(&mut sch, "vectorize", |s| s.vectorize(&ghost));
    must_fail_untouched(&mut sch, "unroll", |s| s.unroll(&ghost));
    must_fail_untouched(&mut sch, "bind", |s| s.bind(&ghost, ThreadTag::ThreadIdxX));
    must_fail_untouched(&mut sch, "annotate", |s| {
        s.annotate(&ghost, "k", AnnValue::Int(1))
    });
    must_fail_untouched(&mut sch, "replace_loop_subtree", |s| {
        s.replace_loop_subtree(&ghost, Stmt::Seq(vec![]))
    });

    // A non-serial loop cannot be fused.
    sch.parallel(&b[0]).expect("parallel");
    must_fail_untouched(&mut sch, "fuse: non-serial", |s| s.fuse(&b));
}

#[test]
fn block_primitives_fail_whole() {
    let (ghost_block, ghost_loop) = foreign_refs();

    let mut sch = Schedule::new(add_exp());
    let (b_block, c_block) = (sch.get_block("B").unwrap(), sch.get_block("C").unwrap());
    let (b, c) = (loops_of(&sch, "B"), loops_of(&sch, "C"));
    let a_buf = sch.func().param("A").unwrap().clone();
    let b_buf = sch.find_buffer("B").unwrap();

    must_fail_untouched(&mut sch, "annotate_block", |s| {
        s.annotate_block(&ghost_block, "k", AnnValue::Int(1))
    });
    must_fail_untouched(&mut sch, "cache_read: missing block", |s| {
        s.cache_read(&ghost_block, &a_buf, MemScope::Shared, None)
    });
    must_fail_untouched(&mut sch, "cache_read: buffer not read", |s| {
        s.cache_read(&c_block, &a_buf, MemScope::Shared, None)
    });
    must_fail_untouched(&mut sch, "cache_read: missing loop", |s| {
        s.cache_read(&c_block, &b_buf, MemScope::Shared, Some(&ghost_loop))
    });
    must_fail_untouched(&mut sch, "cache_read: no read under loop", |s| {
        s.cache_read(&c_block, &b_buf, MemScope::Shared, Some(&b[0]))
    });
    must_fail_untouched(&mut sch, "cache_write: missing block", |s| {
        s.cache_write(&ghost_block, MemScope::Local, None)
    });
    must_fail_untouched(&mut sch, "cache_write: missing loop", |s| {
        s.cache_write(&c_block, MemScope::Local, Some(&ghost_loop))
    });
    must_fail_untouched(&mut sch, "cache_write: no write under loop", |s| {
        s.cache_write(&c_block, MemScope::Local, Some(&b[0]))
    });
    must_fail_untouched(&mut sch, "compute_at: no consumer", |s| {
        s.compute_at(&b_block, &b[0])
    });
    must_fail_untouched(&mut sch, "compute_at: missing loop", |s| {
        s.compute_at(&b_block, &ghost_loop)
    });
    must_fail_untouched(&mut sch, "compute_at: missing block", |s| {
        s.compute_at(&ghost_block, &c[0])
    });
    must_fail_untouched(&mut sch, "reverse_compute_at: no producer", |s| {
        s.reverse_compute_at(&c_block, &c[0])
    });
    must_fail_untouched(&mut sch, "reverse_compute_at: missing loop", |s| {
        s.reverse_compute_at(&c_block, &ghost_loop)
    });
    must_fail_untouched(&mut sch, "compute_inline: missing block", |s| {
        s.compute_inline(&ghost_block)
    });
    must_fail_untouched(&mut sch, "reverse_compute_inline: missing", |s| {
        s.reverse_compute_inline(&ghost_block)
    });
    must_fail_untouched(&mut sch, "decompose_reduction: no init", |s| {
        s.decompose_reduction(&b_block, &b[0])
    });
    must_fail_untouched(&mut sch, "merge_reduction: one block twice", |s| {
        s.merge_reduction(&b_block, &b_block)
    });
    must_fail_untouched(&mut sch, "merge_reduction: unrelated pair", |s| {
        s.merge_reduction(&b_block, &c_block)
    });
    must_fail_untouched(&mut sch, "blockize: missing loop", |s| {
        s.blockize(&ghost_loop)
    });

    let mut sch = Schedule::new(matmul_relu());
    let (mm_block, relu) = (sch.get_block("C").unwrap(), sch.get_block("D").unwrap());
    let k = loops_of(&sch, "C");
    must_fail_untouched(&mut sch, "compute_inline: reduction block", |s| {
        s.compute_inline(&mm_block)
    });
    must_fail_untouched(
        &mut sch,
        "reverse_compute_inline: reduction producer",
        |s| s.reverse_compute_inline(&relu),
    );
    must_fail_untouched(&mut sch, "merge_reduction: reduction as init", |s| {
        s.merge_reduction(&mm_block, &mm_block)
    });
    must_fail_untouched(
        &mut sch,
        "decompose_reduction: loop of another block",
        |s| s.decompose_reduction(&mm_block, &loops_of(s, "D")[0]),
    );
    // With k outermost, decomposing at an inner loop would re-run the
    // init mid-reduction.
    sch.reorder(&[k[2].clone(), k[0].clone(), k[1].clone()])
        .expect("reorder");
    must_fail_untouched(&mut sch, "decompose_reduction: reduce outside", |s| {
        s.decompose_reduction(&mm_block, &k[1])
    });

    // Partial tiles are predicated, and predicated blocks do not blockize.
    let mut sch = Schedule::new(matmul_func("mm", 10, 10, 10, DataType::float32()));
    let loops = loops_of(&sch, "C");
    let tiles = sch.split(&loops[0], &[-1, 4]).expect("split");
    must_fail_untouched(&mut sch, "blockize: predicated", |s| s.blockize(&tiles[1]));
    // Two blocks under one loop are not a perfect nest over one block.
    let mut sch = Schedule::new(mm());
    let loops = loops_of(&sch, "C");
    sch.decompose_reduction(&sch.get_block("C").unwrap(), &loops[2])
        .expect("decompose");
    must_fail_untouched(&mut sch, "blockize: imperfect nest", |s| {
        s.blockize(&loops[0])
    });
}

/// Regression: `get_block` looks inside an `init`, the extraction behind
/// `take_block` did not — it found nothing, pruned the body all the same
/// (the empty loop went) and then reported the block missing. Both walk
/// `Stmt::children` now, and a block in an `init` is refused up front.
#[test]
fn a_block_inside_an_init_is_refused_whole() {
    let mut sch = Schedule::new(init_block_beside_an_empty_loop());
    let z = sch.get_block("Z").expect("Z, inside R's init");
    let err = must_fail_untouched(&mut sch, "compute_inline: block in an init", |s| {
        s.compute_inline(&z)
    });
    assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
    sch.get_block("Z").expect("Z is where it was");
}

/// Regression: on a function whose body is not a root block, `cache_read`
/// and `cache_write` used to insert the copy nest and redirect the block,
/// and only then fail to allocate the new buffer.
#[test]
fn rootless_function_fails_cache_primitives_whole() {
    let mut sch = Schedule::new(mm_rootless());
    let block = sch.get_block("C").expect("C");
    let loops = loops_of(&sch, "C");
    let a = sch.func().param("A").unwrap().clone();
    for at_loop in [None, Some(&loops[0])] {
        let err = must_fail_untouched(&mut sch, "cache_read: no root", |s| {
            s.cache_read(&block, &a, MemScope::Shared, at_loop)
        });
        let msg = err.to_string();
        assert!(msg.contains("not a root block but a loop"), "{msg}");
        assert!(msg.len() < 120, "error dumps the program: {msg}");
        must_fail_untouched(&mut sch, "cache_write: no root", |s| {
            s.cache_write(&block, MemScope::Local, at_loop)
        });
    }
    must_fail_untouched(&mut sch, "alloc_buffer_at_root: no root", |s| {
        s.alloc_buffer_at_root(a.derive("A_shared", MemScope::Shared))
    });
    assert!(sch.find_buffer("A_shared").is_none());
    assert!(sch.find_buffer("C_local").is_none());
}

/// A primitive checks its own preconditions, not the whole program: a
/// call the analyzer objects to applies, and [`Schedule::verify`] is where
/// the objection comes from.
#[test]
fn analyzer_objections_come_from_verify() {
    let mut sch = Schedule::new(mm());
    let block = sch.get_block("C").expect("C");
    let loops = loops_of(&sch, "C");

    // One rewrite: a reduction loop bound to GPU threads races.
    let mut raced = sch.clone();
    raced
        .bind(&loops[2], ThreadTag::ThreadIdxX)
        .expect("bind reduction loop");
    let err = raced.verify().expect_err("the analyzer objects");
    assert!(matches!(err, ScheduleError::Invalid(_)), "{err}");

    // Several rewrites (copy nest, redirect, allocation, signatures): a
    // shared-memory stage filled outside the blockIdx loop it is read in.
    sch.bind(&loops[0], ThreadTag::BlockIdxX).expect("bind i");
    sch.verify().expect("a bound spatial loop is legal");
    let a = sch.func().param("A").unwrap().clone();
    sch.cache_read(&block, &a, MemScope::Shared, None)
        .expect("cache_read across blockIdx");
    let err = sch.verify().expect_err("the analyzer objects");
    assert!(matches!(err, ScheduleError::Invalid(_)), "{err}");
}
