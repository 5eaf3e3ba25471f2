//! Benchmark shape suite: the concrete operator instances the figures run.
//!
//! The paper evaluates standard model layers on an RTX 3080 / Graviton2;
//! our substrate is an analytic simulator, so the suite uses
//! representative layer shapes (ResNet/MobileNet/BERT-style) that exercise
//! the same compute/data-movement regimes while staying fast to analyze.

use tir::{DataType, PrimFunc};

use crate::ops;

/// The operator families of Figure 10/11.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// 1-D convolution.
    C1D,
    /// 2-D convolution.
    C2D,
    /// 3-D convolution.
    C3D,
    /// Depthwise 2-D convolution.
    DEP,
    /// Dilated 2-D convolution.
    DIL,
    /// General matrix multiply.
    GMM,
    /// Grouped 2-D convolution.
    GRP,
    /// Transposed 2-D convolution.
    T2D,
}

impl OpKind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::C1D => "C1D",
            OpKind::C2D => "C2D",
            OpKind::C3D => "C3D",
            OpKind::DEP => "DEP",
            OpKind::DIL => "DIL",
            OpKind::GMM => "GMM",
            OpKind::GRP => "GRP",
            OpKind::T2D => "T2D",
        }
    }
}

/// One benchmark case: an operator instance plus bookkeeping.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Operator family.
    pub kind: OpKind,
    /// The workload function.
    pub func: PrimFunc,
    /// Multiply-accumulate count (for throughput reporting).
    pub macs: i64,
}

fn conv_macs(out_spatial: i64, co: i64, reduce: i64) -> i64 {
    out_spatial * co * reduce
}

/// Builds the single-operator benchmark suite for a given data type
/// (float16 on the GPU machine, int8 on the ARM machine).
pub fn bench_suite(dtype: DataType) -> Vec<BenchCase> {
    let acc = if dtype == DataType::int8() {
        DataType::int32()
    } else {
        dtype
    };
    vec![
        // C1D: sequence conv: N=8, L=512, ci=co=256, k=3.
        BenchCase {
            kind: OpKind::C1D,
            func: ops::c1d(8, 514, 256, 256, 3, 1, dtype),
            macs: conv_macs(8 * 512, 256, 3 * 256),
        },
        // C2D: ResNet-style block: 8x58x58x128 -> 56x56x128, 3x3.
        BenchCase {
            kind: OpKind::C2D,
            func: ops::c2d(8, 58, 58, 128, 128, 3, 3, 1, dtype),
            macs: conv_macs(8 * 56 * 56, 128, 3 * 3 * 128),
        },
        // C3D: video conv: 4x18x18x18x64 -> 16x16x16x64, 3x3x3.
        BenchCase {
            kind: OpKind::C3D,
            func: ops::c3d(4, 18, 18, 18, 64, 64, 3, 1, dtype),
            macs: conv_macs(4 * 16 * 16 * 16, 64, 27 * 64),
        },
        // DEP: MobileNet-style depthwise: 8x114x114x256, 3x3.
        BenchCase {
            kind: OpKind::DEP,
            func: ops::dep(8, 114, 114, 256, 3, 3, 1, dtype),
            macs: 8 * 112 * 112 * 256 * 9,
        },
        // DIL: dilated 3x3, dilation 2, same output volume as C2D.
        BenchCase {
            kind: OpKind::DIL,
            func: ops::dil(8, 60, 60, 128, 128, 3, 3, 2, dtype),
            macs: conv_macs(8 * 56 * 56, 128, 9 * 128),
        },
        // GMM: 1024 x 1024 x 1024.
        BenchCase {
            kind: OpKind::GMM,
            func: ops::gmm(1024, 1024, 1024, dtype, acc),
            macs: 1024 * 1024 * 1024,
        },
        // GRP: grouped conv: 8 groups of 32 -> 32 channels at 28x28.
        BenchCase {
            kind: OpKind::GRP,
            func: ops::grp(8, 30, 30, 8, 32, 32, 3, 3, 1, dtype),
            macs: 8 * 28 * 28 * 8 * 32 * 9 * 32,
        },
        // T2D: GAN-style upsampling: 8x16x16x256 -> 34x34x128, 4x4 stride 2.
        BenchCase {
            kind: OpKind::T2D,
            func: ops::t2d(8, 16, 16, 256, 128, 4, 4, 2, dtype),
            macs: 8 * 34 * 34 * 128 * 16 * 256,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_kinds() {
        let suite = bench_suite(DataType::float16());
        assert_eq!(suite.len(), 8);
        let kinds: Vec<OpKind> = suite.iter().map(|c| c.kind).collect();
        // The paper's figure order.
        use OpKind::*;
        assert_eq!(kinds, [C1D, C2D, C3D, DEP, DIL, GMM, GRP, T2D]);
        for case in &suite {
            assert!(case.macs > 0, "{:?}", case.kind);
            tir_analysis::assert_valid(&case.func);
        }
    }

    #[test]
    fn int8_suite_uses_i32_accumulators() {
        let suite = bench_suite(DataType::int8());
        let gmm = suite.iter().find(|c| c.kind == OpKind::GMM).expect("gmm");
        assert_eq!(gmm.func.params[2].dtype(), DataType::int32());
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(OpKind::GMM.label(), "GMM");
        assert_eq!(OpKind::T2D.label(), "T2D");
    }
}
