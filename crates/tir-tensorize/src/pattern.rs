//! Workload einsum extraction and the characteristic-vector iterator
//! mapping of §4.2.
//!
//! Given a reduction block, [`extract_einsum`] recovers the form
//! `O[g0(v)] += I1[g1(v)] * I2[g2(v)]` (Eq. 2/3 of the paper), and
//! [`propose_mapping`] matches the block's iterators to an intrinsic's by
//! comparing characteristic vectors, fusing workload iterators that share
//! a vector.

use tir::visit::expr_uses_var;
use tir::{BinOp, Block, Buffer, Expr, IterKind, Var};
use tir_analysis::reduction::{detect_block_reduction, ReduceOp};

use crate::intrin::TensorIntrin;

/// A workload in canonical einsum form.
#[derive(Clone, Debug)]
pub struct Einsum {
    /// Output buffer and its index expressions (over block iterators).
    pub output: (Buffer, Vec<Expr>),
    /// Input operands in multiplication order.
    pub inputs: Vec<(Buffer, Vec<Expr>)>,
    /// The reduction combiner (only `Add` is tensorizable today).
    pub op: ReduceOp,
    /// Per-input cast target applied inside the term (if any).
    pub input_casts: Vec<Option<tir::DataType>>,
}

/// Why einsum extraction or mapping failed.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchError {
    /// The block is not a recognized reduction.
    NotReduction,
    /// The reduction term is not a two-operand product.
    NotMulAdd,
    /// Data types do not match the intrinsic's operands.
    DtypeMismatch(String),
    /// A workload iterator's characteristic vector matches no intrinsic
    /// iterator.
    UnmatchedIterator(String),
    /// Iterator kinds disagree between workload and intrinsic.
    KindMismatch(String),
    /// The operand count differs from the intrinsic.
    ArityMismatch,
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::NotReduction => write!(f, "block is not a reduction"),
            MatchError::NotMulAdd => write!(f, "reduction term is not a product"),
            MatchError::DtypeMismatch(s) => write!(f, "dtype mismatch: {s}"),
            MatchError::UnmatchedIterator(s) => {
                write!(f, "iterator {s} matches no intrinsic iterator")
            }
            MatchError::KindMismatch(s) => write!(f, "iterator kind mismatch on {s}"),
            MatchError::ArityMismatch => write!(f, "operand count mismatch"),
        }
    }
}

impl std::error::Error for MatchError {}

fn strip_cast(e: &Expr) -> (&Expr, Option<tir::DataType>) {
    match e {
        Expr::Cast(dt, inner) => (inner, Some(*dt)),
        other => (other, None),
    }
}

/// Extracts the einsum form of a reduction block.
///
/// # Errors
///
/// Fails when the block is not an `O += cast(A) * cast(B)` reduction.
pub fn extract_einsum(block: &Block) -> Result<Einsum, MatchError> {
    let info = detect_block_reduction(block).ok_or(MatchError::NotReduction)?;
    if info.op != ReduceOp::Add {
        return Err(MatchError::NotMulAdd);
    }
    let Expr::Bin(BinOp::Mul, lhs, rhs) = &info.term else {
        return Err(MatchError::NotMulAdd);
    };
    let (lhs, lcast) = strip_cast(lhs);
    let (rhs, rcast) = strip_cast(rhs);
    let (
        Expr::Load {
            buffer: ba,
            indices: ia,
        },
        Expr::Load {
            buffer: bb,
            indices: ib,
        },
    ) = (lhs, rhs)
    else {
        return Err(MatchError::NotMulAdd);
    };
    Ok(Einsum {
        output: (info.buffer.clone(), info.indices.clone()),
        inputs: vec![(ba.clone(), ia.clone()), (bb.clone(), ib.clone())],
        op: info.op,
        input_casts: vec![lcast, rcast],
    })
}

/// Characteristic vector of a block iterator w.r.t. an einsum: one bit per
/// operand (output first), set when the iterator appears in that operand's
/// index expressions.
pub fn characteristic(einsum: &Einsum, var: &Var) -> Vec<bool> {
    let appears = |indices: &[Expr]| indices.iter().any(|e| expr_uses_var(e, var));
    let mut chi = vec![appears(&einsum.output.1)];
    for (_, idx) in &einsum.inputs {
        chi.push(appears(idx));
    }
    chi
}

/// The proposed iterator mapping: for each intrinsic iterator (in
/// canonical order), the workload block iterators fused onto it (in block
/// declaration order — the paper's "default fusion order").
#[derive(Clone, Debug)]
pub struct IterMapping {
    /// `groups[d]` lists the workload iterators mapped to intrinsic
    /// iterator `d`. A group may be empty (the intrinsic dimension is then
    /// padded from extent 1).
    pub groups: Vec<Vec<Var>>,
    /// Fused extent per group (product of member extents).
    pub group_extents: Vec<i64>,
    /// *Batch* iterators: spatial iterators appearing in the output and
    /// every input (characteristic vector all-ones). They stay as outer
    /// loops around the tensorized computation — this is how batch matmul,
    /// grouped convolution, and depthwise convolution map onto matrix
    /// intrinsics.
    pub batch: Vec<Var>,
    /// Product of batch iterator extents.
    pub batch_extent: i64,
}

/// Proposes the iterator mapping between a workload block and an intrinsic
/// by matching characteristic vectors (§4.2).
///
/// # Errors
///
/// Fails when arity/dtypes disagree, an iterator matches no intrinsic
/// iterator, or kinds mismatch.
pub fn propose_mapping(
    block: &Block,
    einsum: &Einsum,
    intrin: &TensorIntrin,
) -> Result<IterMapping, MatchError> {
    if einsum.inputs.len() != intrin.input_iters.len() {
        return Err(MatchError::ArityMismatch);
    }
    // Data types: compare post-cast input types and the accumulator type.
    for (i, ((buf, _), cast)) in einsum.inputs.iter().zip(&einsum.input_casts).enumerate() {
        let effective = cast.unwrap_or_else(|| buf.dtype());
        // The multiplication operand type must match the intrinsic input
        // type (either directly or via the declared cast).
        if buf.dtype() != intrin.input_dtypes[i] && effective != intrin.output_dtype {
            return Err(MatchError::DtypeMismatch(format!(
                "input {} has type {}, intrinsic expects {}",
                buf.name(),
                buf.dtype(),
                intrin.input_dtypes[i]
            )));
        }
    }
    if einsum.output.0.dtype() != intrin.output_dtype {
        return Err(MatchError::DtypeMismatch(format!(
            "output {} has type {}, intrinsic accumulates {}",
            einsum.output.0.name(),
            einsum.output.0.dtype(),
            intrin.output_dtype
        )));
    }

    let intrin_chis: Vec<Vec<bool>> = (0..intrin.iters.len())
        .map(|d| intrin.characteristic(d))
        .collect();
    let mut groups: Vec<Vec<Var>> = vec![Vec::new(); intrin.iters.len()];
    let mut group_extents: Vec<i64> = vec![1; intrin.iters.len()];
    let mut batch: Vec<Var> = Vec::new();
    let mut batch_extent = 1i64;
    for iv in &block.iter_vars {
        let chi = characteristic(einsum, &iv.var);
        if chi.iter().all(|b| !b) {
            // The iterator touches no operand (degenerate); skip if unit.
            if iv.extent == 1 {
                continue;
            }
            return Err(MatchError::UnmatchedIterator(iv.var.name().to_string()));
        }
        if chi.iter().all(|b| *b) {
            // Appears in every operand: a batch-like iterator.
            if iv.kind != IterKind::Spatial {
                return Err(MatchError::KindMismatch(iv.var.name().to_string()));
            }
            batch.push(iv.var.clone());
            batch_extent *= iv.extent;
            continue;
        }
        let d = intrin_chis
            .iter()
            .position(|c| c == &chi)
            .ok_or_else(|| MatchError::UnmatchedIterator(iv.var.name().to_string()))?;
        if intrin.iters[d].kind != iv.kind {
            return Err(MatchError::KindMismatch(iv.var.name().to_string()));
        }
        groups[d].push(iv.var.clone());
        group_extents[d] *= iv.extent;
    }
    Ok(IterMapping {
        groups,
        group_extents,
        batch,
        batch_extent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrin::builtin_registry;
    use tir::builder::{matmul_func, reduce_compute};
    use tir::visit::find_block;
    use tir::{Buffer, DataType};

    #[test]
    fn matmul_extracts_and_maps() {
        let f = matmul_func("mm", 64, 64, 64, DataType::float32());
        let block = &find_block(&f.body, "C").expect("block").block;
        let einsum = extract_einsum(block).expect("einsum");
        assert_eq!(einsum.inputs.len(), 2);
        let reg = builtin_registry();
        let intrin = reg.get("dot_4x4x4_f32").unwrap();
        let mapping = propose_mapping(block, &einsum, intrin).expect("mapping");
        assert_eq!(mapping.group_extents, vec![64, 64, 64]);
        assert_eq!(mapping.groups[0].len(), 1);
    }

    /// Batch matmul: C[b, i, j] += A[b, i, r] * B[b, r, j] — the paper's
    /// easy case. `b` appears in all three operands; with a 3-operand mm
    /// intrinsic whose vectors are distinct, b matches nothing — the paper
    /// maps (b, i) -> x by fusing. b's vector is [1,1,1] which differs from
    /// every intrinsic vector, so it is unmatched: exactly why the paper's
    /// batch-matmul example keeps b separate by mapping onto i/j/k only
    /// when B is not batched. Use an unbatched B here.
    #[test]
    fn batch_matmul_with_shared_weights_maps() {
        let a = Buffer::new("A", DataType::float32(), vec![2, 8, 8]);
        let b = Buffer::new("B", DataType::float32(), vec![8, 8]);
        let c = Buffer::new("C", DataType::float32(), vec![2, 8, 8]);
        let body = reduce_compute("C", &c, &[8], Expr::f32(0.0), |sp, rd| {
            a.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&sp[1]),
                Expr::from(&rd[0]),
            ]) * b.load(vec![Expr::from(&rd[0]), Expr::from(&sp[2])])
        });
        let block = &find_block(&body, "C").expect("block").block;
        let einsum = extract_einsum(block).expect("einsum");
        let reg = builtin_registry();
        let intrin = reg.get("dot_4x4x4_f32").unwrap();
        let mapping = propose_mapping(block, &einsum, intrin).expect("mapping");
        // batch and i fuse onto x: extents [2*8, 8, 8].
        assert_eq!(mapping.group_extents, vec![16, 8, 8]);
        assert_eq!(mapping.groups[0].len(), 2);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let f = matmul_func("mm", 32, 32, 32, DataType::float32());
        let block = &find_block(&f.body, "C").expect("block").block;
        let einsum = extract_einsum(block).expect("einsum");
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let err = propose_mapping(block, &einsum, wmma).unwrap_err();
        assert!(matches!(err, MatchError::DtypeMismatch(_)), "{err}");
    }

    #[test]
    fn f16_matmul_matches_wmma() {
        let f = matmul_func("mm", 64, 64, 64, DataType::float16());
        let block = &find_block(&f.body, "C").expect("block").block;
        let einsum = extract_einsum(block).expect("einsum");
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let mapping = propose_mapping(block, &einsum, wmma).expect("mapping");
        assert_eq!(mapping.group_extents, vec![64, 64, 64]);
    }

    #[test]
    fn non_reduction_rejected() {
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let body = tir::builder::compute("B", &b, |_| Expr::f32(1.0));
        let block = &find_block(&body, "B").expect("block").block;
        assert_eq!(extract_einsum(block).unwrap_err(), MatchError::NotReduction);
    }

    #[test]
    fn characteristic_of_conv_iterators() {
        // C[n, w, f] += A[n, w + rw, rc] * B[rw, rc, f] (1-D conv, already
        // re-indexed form not required for characteristic computation).
        let a = Buffer::new("A", DataType::float32(), vec![2, 10, 4]);
        let b = Buffer::new("B", DataType::float32(), vec![3, 4, 8]);
        let c = Buffer::new("C", DataType::float32(), vec![2, 8, 8]);
        let body = reduce_compute("C", &c, &[3, 4], Expr::f32(0.0), |sp, rd| {
            a.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&sp[1]) + Expr::from(&rd[0]),
                Expr::from(&rd[1]),
            ]) * b.load(vec![
                Expr::from(&rd[0]),
                Expr::from(&rd[1]),
                Expr::from(&sp[2]),
            ])
        });
        let block = &find_block(&body, "C").expect("block").block;
        let einsum = extract_einsum(block).expect("einsum");
        // n: output + A -> [1,1,0]; w: output + A -> [1,1,0];
        // f: output + B -> [1,0,1]; rw: A + B -> [0,1,1]; rc: A + B.
        let chis: Vec<Vec<bool>> = block
            .iter_vars
            .iter()
            .map(|iv| characteristic(&einsum, &iv.var))
            .collect();
        assert_eq!(chis[0], vec![true, true, false]);
        assert_eq!(chis[1], vec![true, true, false]);
        assert_eq!(chis[2], vec![true, false, true]);
        assert_eq!(chis[3], vec![false, true, true]);
        assert_eq!(chis[4], vec![false, true, true]);
        // Mapping onto the mm intrinsic fuses (n, w) -> x and (rw, rc) -> k.
        let reg = builtin_registry();
        let intrin = reg.get("dot_4x4x4_f32").unwrap();
        let mapping = propose_mapping(block, &einsum, intrin).expect("mapping");
        assert_eq!(mapping.group_extents, vec![16, 8, 12]);
    }
}
