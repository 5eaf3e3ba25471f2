//! Ergonomic construction of common TensorIR programs.
//!
//! These helpers build the loop-nest + block idiom of Fig. 4: one serial
//! loop per output axis, a block whose spatial iterators bind to the loops,
//! and a body computing one output element. Block read/write signatures are
//! derived syntactically from the body (point regions per access).

use crate::buffer::{Buffer, BufferRegion};
use crate::dtype::DataType;
use crate::expr::{Expr, Var};
use crate::func::PrimFunc;
use crate::stmt::{Block, BlockRealize, IterVar, Stmt};
use crate::visit::{ExprVisitor, StmtVisitor};

/// Derives a block's read/write signature from its body as point regions.
///
/// Every `Load` contributes a point read region and every `Store` a point
/// write region, keyed by buffer; duplicate (buffer, indices) accesses are
/// deduplicated. This matches TVM's default signature for scalar blocks;
/// range-precise regions are computed where a primitive needs them
/// (`required_region` in `tir-schedule`).
pub fn derive_signature(
    body: &Stmt,
    init: Option<&Stmt>,
) -> (Vec<BufferRegion>, Vec<BufferRegion>) {
    struct Scan {
        reads: Vec<BufferRegion>,
        writes: Vec<BufferRegion>,
    }
    impl Scan {
        fn push(list: &mut Vec<BufferRegion>, buffer: &Buffer, indices: &[Expr]) {
            let region = BufferRegion::point(buffer.clone(), indices.to_vec());
            if !list.contains(&region) {
                list.push(region);
            }
        }
    }
    impl ExprVisitor for Scan {
        fn visit_expr(&mut self, e: &Expr) {
            if let Expr::Load { buffer, indices } = e {
                Self::push(&mut self.reads, buffer, indices);
            }
            self.walk_expr(e);
        }
    }
    impl StmtVisitor for Scan {
        fn visit_stmt(&mut self, s: &Stmt) {
            if let Stmt::Store {
                buffer, indices, ..
            } = s
            {
                Self::push(&mut self.writes, buffer, indices);
            }
            self.walk_stmt(s);
        }
    }
    let mut scan = Scan {
        reads: Vec::new(),
        writes: Vec::new(),
    };
    if let Some(init) = init {
        scan.visit_stmt(init);
    }
    scan.visit_stmt(body);
    // A buffer written by this block should not also appear as a read of
    // itself at the same point (reduction updates read the output); keep the
    // read — the dependency is real — but drop exact duplicates only.
    (scan.reads, scan.writes)
}

/// Creates `n` fresh `int32` variables named `prefix0..prefixN`.
pub fn fresh_vars(prefix: &str, n: usize) -> Vec<Var> {
    (0..n).map(|i| Var::int(format!("{prefix}{i}"))).collect()
}

/// Builds a spatial compute statement: a loop nest over `out`'s shape
/// containing one block that stores `f(block_iters)` into `out`.
///
/// # Examples
///
/// ```
/// use tir::{Buffer, DataType, Expr};
/// use tir::builder::compute;
/// let a = Buffer::new("A", DataType::float32(), vec![4, 4]);
/// let b = Buffer::new("B", DataType::float32(), vec![4, 4]);
/// // B[i, j] = A[i, j] + 1
/// let stmt = compute("B", &b, |iv| {
///     a.load(iv.iter().map(Expr::from).collect()) + Expr::f32(1.0)
/// });
/// assert!(tir::visit::find_block(&stmt, "B").is_some());
/// ```
pub fn compute(name: &str, out: &Buffer, f: impl FnOnce(&[Var]) -> Expr) -> Stmt {
    let loop_vars = fresh_vars("i", out.ndim());
    let block_vars = fresh_vars("v", out.ndim());
    let value = f(&block_vars);
    let body = Stmt::store(
        out.clone(),
        block_vars.iter().map(Expr::from).collect(),
        value,
    );
    let (reads, writes) = derive_signature(&body, None);
    let iter_vars = block_vars
        .iter()
        .zip(out.shape())
        .map(|(v, &e)| IterVar::spatial(v.clone(), e))
        .collect();
    let realize = BlockRealize::new(
        loop_vars.iter().map(Expr::from).collect(),
        Block::new(name, iter_vars, reads, writes, body),
    );
    Stmt::BlockRealize(Box::new(realize)).in_loops(
        loop_vars
            .into_iter()
            .zip(out.shape().iter().copied())
            .collect(),
    )
}

/// Builds a sum-reduction compute statement.
///
/// The produced block has one spatial iterator per output axis and one
/// reduction iterator per entry of `reduce_extents`. Its body performs
/// `out[spatial] += term(spatial, reduce)`, with an `init` statement storing
/// `init` on the first reduction iteration.
pub fn reduce_compute(
    name: &str,
    out: &Buffer,
    reduce_extents: &[i64],
    init: Expr,
    term: impl FnOnce(&[Var], &[Var]) -> Expr,
) -> Stmt {
    let spatial_loops = fresh_vars("i", out.ndim());
    let reduce_loops = fresh_vars("k", reduce_extents.len());
    let spatial_vars = fresh_vars("v", out.ndim());
    let reduce_vars = fresh_vars("vk", reduce_extents.len());

    let out_idx: Vec<Expr> = spatial_vars.iter().map(Expr::from).collect();
    let update = term(&spatial_vars, &reduce_vars);
    let body = Stmt::store(
        out.clone(),
        out_idx.clone(),
        out.load(out_idx.clone()) + update,
    );
    let init_stmt = Stmt::store(out.clone(), out_idx, init);
    let (reads, writes) = derive_signature(&body, None);
    // The self-read of `out` is part of the reduction update; the canonical
    // signature keeps only true input reads.
    let reads = reads
        .into_iter()
        .filter(|r| r.buffer != *out)
        .collect::<Vec<_>>();

    let mut iter_vars: Vec<IterVar> = spatial_vars
        .iter()
        .zip(out.shape())
        .map(|(v, &e)| IterVar::spatial(v.clone(), e))
        .collect();
    iter_vars.extend(
        reduce_vars
            .iter()
            .zip(reduce_extents)
            .map(|(v, &e)| IterVar::reduce(v.clone(), e)),
    );

    let mut block = Block::new(name, iter_vars, reads, writes, body);
    block.init = Some(Box::new(init_stmt));

    let mut bindings: Vec<Expr> = spatial_loops.iter().map(Expr::from).collect();
    bindings.extend(reduce_loops.iter().map(Expr::from));
    let realize = BlockRealize::new(bindings, block);

    let mut loops: Vec<(Var, i64)> = spatial_loops
        .into_iter()
        .zip(out.shape().iter().copied())
        .collect();
    loops.extend(reduce_loops.into_iter().zip(reduce_extents.iter().copied()));
    Stmt::BlockRealize(Box::new(realize)).in_loops(loops)
}

/// Builds a complete `C[m, n] += A[m, k] * B[k, n]` matmul function.
///
/// # Examples
///
/// ```
/// use tir::builder::matmul_func;
/// use tir::DataType;
/// let f = matmul_func("matmul", 64, 64, 64, DataType::float32());
/// assert!(f.to_string().contains("with T.block(\"C\"):"));
/// ```
pub fn matmul_func(name: &str, m: i64, n: i64, k: i64, dtype: DataType) -> PrimFunc {
    let a = Buffer::new("A", dtype, vec![m, k]);
    let b = Buffer::new("B", dtype, vec![k, n]);
    let c = Buffer::new("C", dtype, vec![m, n]);
    let zero = if dtype.is_float() {
        Expr::Float(0.0, dtype)
    } else {
        Expr::Int(0, dtype)
    };
    let body = reduce_compute("C", &c, &[k], zero, |sp, rd| {
        let (vm, vn, vk) = (&sp[0], &sp[1], &rd[0]);
        a.load(vec![vm.into(), vk.into()]) * b.load(vec![vk.into(), vn.into()])
    });
    PrimFunc::new(name, vec![a, b, c], body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::find_block;

    #[test]
    fn compute_builds_block_with_signature() {
        let a = Buffer::new("A", DataType::float32(), vec![4, 4]);
        let b = Buffer::new("B", DataType::float32(), vec![4, 4]);
        let stmt = compute("B", &b, |iv| {
            a.load(iv.iter().map(Expr::from).collect()) + Expr::f32(1.0)
        });
        let br = find_block(&stmt, "B").expect("block");
        assert_eq!(br.block.iter_vars.len(), 2);
        assert_eq!(br.block.reads.len(), 1);
        assert_eq!(br.block.reads[0].buffer, a);
        assert_eq!(br.block.writes.len(), 1);
        assert_eq!(br.block.writes[0].buffer, b);
    }

    #[test]
    fn matmul_structure() {
        let f = matmul_func("mm", 8, 8, 8, DataType::float32());
        let br = find_block(&f.body, "C").expect("C block");
        assert_eq!(br.block.iter_vars.len(), 3);
        assert!(br.block.is_reduction());
        assert!(br.block.init.is_some());
        // Signature reads are A and B only (self-read of C filtered).
        assert_eq!(br.block.reads.len(), 2);
        let read_names: Vec<_> = br
            .block
            .reads
            .iter()
            .map(|r| r.buffer.name().to_string())
            .collect();
        assert_eq!(read_names, vec!["A", "B"]);
    }

    #[test]
    fn derive_signature_dedups() {
        let a = Buffer::new("A", DataType::float32(), vec![4]);
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        let v = Var::int("v");
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&v)],
            a.load(vec![Expr::from(&v)]) + a.load(vec![Expr::from(&v)]),
        );
        let (reads, writes) = derive_signature(&body, None);
        assert_eq!(reads.len(), 1);
        assert_eq!(writes.len(), 1);
    }

    #[test]
    fn fresh_vars_named() {
        let vs = fresh_vars("i", 3);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[2].name(), "i2");
        assert_ne!(vs[0], vs[1]);
    }
}
