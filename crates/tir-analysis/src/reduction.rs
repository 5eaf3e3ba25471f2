//! Reduction-pattern detection on block bodies.
//!
//! Recognizes update statements of the form
//! `out[idx] = combine(out[idx], term)` for commutative combiners, which is
//! what `decompose_reduction`, tensorization matching (§4.2) and
//! cross-thread reduction lowering all need.

use tir::{BinOp, Block, Buffer, Expr, Stmt};

/// A commutative reduction combiner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Sum reduction (`+`), identity 0.
    Add,
    /// Max reduction, identity -inf / INT_MIN.
    Max,
    /// Min reduction, identity +inf / INT_MAX.
    Min,
}

/// A detected reduction update.
#[derive(Clone, Debug)]
pub struct ReductionInfo {
    /// The output buffer being reduced into.
    pub buffer: Buffer,
    /// Output indices (in block iterator variables).
    pub indices: Vec<Expr>,
    /// The combiner.
    pub op: ReduceOp,
    /// The per-iteration term combined into the output.
    pub term: Expr,
}

/// Detects the reduction pattern in a single store statement.
pub(crate) fn detect_reduction_store(stmt: &Stmt) -> Option<ReductionInfo> {
    let Stmt::Store {
        buffer,
        indices,
        value,
    } = stmt
    else {
        return None;
    };
    let self_load = |e: &Expr| -> bool {
        matches!(e, Expr::Load { buffer: b, indices: i } if b == buffer && i == indices)
    };
    if let Expr::Bin(op, a, b) = value {
        let rop = match op {
            BinOp::Add => ReduceOp::Add,
            BinOp::Max => ReduceOp::Max,
            BinOp::Min => ReduceOp::Min,
            _ => return None,
        };
        let term = if self_load(a) {
            (**b).clone()
        } else if self_load(b) {
            (**a).clone()
        } else {
            return None;
        };
        return Some(ReductionInfo {
            buffer: buffer.clone(),
            indices: indices.clone(),
            op: rop,
            term,
        });
    }
    None
}

/// Detects the reduction pattern of a block: the block must have at least
/// one reduce iterator and a body that is a single reduction store
/// (possibly wrapped in serial loops, which become part of the term's
/// context and are not descended into here).
pub fn detect_block_reduction(block: &Block) -> Option<ReductionInfo> {
    if !block.is_reduction() {
        return None;
    }
    detect_reduction_store(&block.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::visit::find_block;
    use tir::{DataType, Var};

    #[test]
    fn detects_matmul_sum() {
        let f = matmul_func("mm", 4, 4, 4, DataType::float32());
        let br = find_block(&f.body, "C").expect("block");
        let info = detect_block_reduction(&br.block).expect("reduction");
        assert_eq!(info.op, ReduceOp::Add);
        assert_eq!(info.buffer.name(), "C");
        assert!(matches!(info.term, Expr::Bin(BinOp::Mul, ..)));
    }

    #[test]
    fn detects_max_reduction() {
        let out = Buffer::new("O", DataType::float32(), vec![4]);
        let input = Buffer::new("I", DataType::float32(), vec![4, 8]);
        let (v, k) = (Var::int("v"), Var::int("k"));
        let stmt = Stmt::store(
            out.clone(),
            vec![Expr::from(&v)],
            out.load(vec![Expr::from(&v)])
                .max(input.load(vec![Expr::from(&v), Expr::from(&k)])),
        );
        let info = detect_reduction_store(&stmt).expect("max reduction");
        assert_eq!(info.op, ReduceOp::Max);
    }

    #[test]
    fn rejects_non_reduction() {
        let out = Buffer::new("O", DataType::float32(), vec![4]);
        let v = Var::int("v");
        let stmt = Stmt::store(out.clone(), vec![Expr::from(&v)], Expr::f32(1.0));
        assert!(detect_reduction_store(&stmt).is_none());
        // Store reading a *different* element of the same buffer is not a
        // reduction.
        let stmt = Stmt::store(
            out.clone(),
            vec![Expr::from(&v)],
            out.load(vec![Expr::from(&v) + 1]) + Expr::f32(1.0),
        );
        assert!(detect_reduction_store(&stmt).is_none());
    }

    /// `O[v] = O[k] + I[v, k]` reads another element of `O`: two distinct
    /// variables of one program are not the same index, however alike
    /// they look up to renaming.
    #[test]
    fn rejects_a_load_indexed_by_another_variable() {
        let out = Buffer::new("O", DataType::float32(), vec![4]);
        let input = Buffer::new("I", DataType::float32(), vec![4, 4]);
        let (v, k) = (Var::int("v"), Var::int("k"));
        let stmt = Stmt::store(
            out.clone(),
            vec![Expr::from(&v)],
            out.load(vec![Expr::from(&k)]) + input.load(vec![Expr::from(&v), Expr::from(&k)]),
        );
        assert!(detect_reduction_store(&stmt).is_none());
    }
}
