//! Validation end-to-end: the paper's §3.3 examples and the failure modes
//! the evolutionary search relies on being filtered.

use tir::builder::matmul_func;
use tir::{Block, BlockRealize, Buffer, DataType, Expr, IterVar, PrimFunc, Stmt, ThreadTag, Var};
use tir_analysis::validate::{check_loop_nests, validate, ValidationError};
use tir_schedule::Schedule;

/// The paper's invalid binding: v1 = i, v2 = i * 2 (not independent).
#[test]
fn paper_invalid_binding_rejected() {
    let out = Buffer::new("O", DataType::float32(), vec![16, 32]);
    let i = Var::int("i");
    let (v1, v2) = (Var::int("v1"), Var::int("v2"));
    let body = Stmt::store(
        out.clone(),
        vec![Expr::from(&v1), Expr::from(&v2)],
        Expr::f32(1.0),
    );
    let block = Block::new(
        "b",
        vec![IterVar::spatial(v1, 16), IterVar::spatial(v2, 32)],
        vec![],
        vec![out.full_region()],
        body,
    );
    let realize = BlockRealize::new(vec![Expr::from(&i), Expr::from(&i) * 2], block);
    let func = PrimFunc::new(
        "invalid",
        vec![out],
        Stmt::BlockRealize(Box::new(realize)).in_loop(i, 16),
    );
    let errors = check_loop_nests(&func);
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ValidationError::LoopNest { .. })),
        "{errors:?}"
    );
}

/// The paper's legal counterpart: v1 = i / 4, v2 = i % 4.
#[test]
fn paper_legal_binding_accepted() {
    let out = Buffer::new("O", DataType::float32(), vec![4, 4]);
    let i = Var::int("i");
    let (v1, v2) = (Var::int("v1"), Var::int("v2"));
    let body = Stmt::store(
        out.clone(),
        vec![Expr::from(&v1), Expr::from(&v2)],
        Expr::f32(1.0),
    );
    let block = Block::new(
        "b",
        vec![IterVar::spatial(v1, 4), IterVar::spatial(v2, 4)],
        vec![],
        vec![out.full_region()],
        body,
    );
    let realize = BlockRealize::new(
        vec![Expr::from(&i).floor_div(4), Expr::from(&i).floor_mod(4)],
        block,
    );
    let func = PrimFunc::new(
        "legal",
        vec![out],
        Stmt::BlockRealize(Box::new(realize)).in_loop(i, 16),
    );
    assert!(validate(&func).is_ok());
}

/// Binding a reduction loop to GPU threads applies (it is a pure loop-kind
/// change), and the loop-nest check reports it.
#[test]
fn reduction_thread_binding_applies_and_check_loop_nests_reports_it() {
    let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    sch.bind(&loops[2], ThreadTag::ThreadIdxX).unwrap();
    let errors = check_loop_nests(sch.func());
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ValidationError::ReductionOnParallelLoop { .. })),
        "{errors:?}"
    );
}

/// Failed primitives roll back completely (the transactional property the
/// evolutionary search depends on).
#[test]
fn failed_primitives_leave_program_unchanged() {
    let reference = matmul_func("mm", 8, 8, 8, DataType::float32());
    let mut sch = Schedule::new(reference.clone());
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    let before = sch.func().to_string();

    // Bad split factors.
    assert!(sch.split(&loops[0], &[3, 2]).is_err());
    // Fuse of non-adjacent loops.
    assert!(sch.fuse(&[loops[0].clone(), loops[2].clone()]).is_err());
    // compute_at with no consumer.
    assert!(sch.compute_at(&block, &loops[2]).is_err());
    // Inline of a reduction block.
    assert!(sch.compute_inline(&block).is_err());

    assert_eq!(sch.func().to_string(), before, "schedule must be untouched");
    assert!(sch.trace().is_empty(), "no steps recorded for failures");
    tir_exec::assert_same_semantics(&reference, sch.func(), 1, 0.0);
}

/// Thread launch limits are enforced end-to-end through a schedule.
#[test]
fn launch_limit_checked_through_schedule() {
    let func = matmul_func("mm", 2048, 8, 8, DataType::float32());
    let mut sch = Schedule::new(func);
    let block = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&block).unwrap();
    sch.bind(&loops[0], ThreadTag::ThreadIdxX).unwrap();
    let errors = check_loop_nests(sch.func());
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ValidationError::LaunchLimit { .. })),
        "{errors:?}"
    );
}

/// A producer shrunk below what its consumer needs is caught by the
/// region-cover check (producer-covers-consumer, §3.3).
#[test]
fn region_cover_violation_detected() {
    use tir::MemScope;
    // Build B = A + 1 (half extent); C = B * 2 (full extent).
    let a = Buffer::new("A", DataType::float32(), vec![8]);
    let b = Buffer::new("B", DataType::float32(), vec![8]);
    let c = Buffer::new("C", DataType::float32(), vec![8]);
    let (i, vi) = (Var::int("i"), Var::int("vi"));
    let producer = Stmt::BlockRealize(Box::new(BlockRealize::new(
        vec![Expr::from(&i)],
        Block::new(
            "B",
            vec![IterVar::spatial(vi.clone(), 4)],
            vec![tir::BufferRegion::point(a.clone(), vec![Expr::from(&vi)])],
            vec![tir::BufferRegion::point(b.clone(), vec![Expr::from(&vi)])],
            Stmt::store(
                b.clone(),
                vec![Expr::from(&vi)],
                a.load(vec![Expr::from(&vi)]) + Expr::f32(1.0),
            ),
        ),
    )))
    .in_loop(i, 4);
    let consumer = tir::builder::compute("C", &c, |iv| {
        b.load(vec![Expr::from(&iv[0])]) * Expr::f32(2.0)
    });
    let mut func = PrimFunc::new("bad_cover", vec![a, c], Stmt::seq(vec![producer, consumer]));
    func.root_block_mut()
        .unwrap()
        .alloc_buffers
        .push(b.derive("B", MemScope::Global));
    let err = validate(&func).unwrap_err();
    assert!(
        err.iter()
            .any(|e| matches!(e, ValidationError::RegionCover { .. })),
        "{err:?}"
    );
}
