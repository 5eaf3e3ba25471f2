//! Program feature extraction for the learned cost model (§4.4).
//!
//! Features are drawn from the static cost summary plus block-signature
//! structure, "extracted from both block signatures in an isolated way as
//! well as the body of the block (e.g., to mark the use of Tensor Core)".

use tir::{AnnValue, MemScope, PrimFunc};
use tir_exec::cost::{summarize, CostSummary};

/// Number of features in a feature vector.
pub const NUM_FEATURES: usize = 16;

fn log1p(v: f64) -> f64 {
    (1.0 + v.max(0.0)).ln()
}

/// Extracts the feature vector of a program.
pub fn extract_features(func: &PrimFunc) -> Vec<f64> {
    let s: CostSummary = summarize(func);
    features_of_summary(func, &s)
}

/// Extracts features given a precomputed summary (avoids re-walking).
pub fn features_of_summary(func: &PrimFunc, s: &CostSummary) -> Vec<f64> {
    let global = s.traffic.get(&MemScope::Global).copied().unwrap_or(0.0);
    let shared = s.traffic.get(&MemScope::Shared).copied().unwrap_or(0.0);
    // The maps are ordered, so the sums (and with them the model's
    // inputs) repeat bit for bit.
    let local: f64 = s
        .traffic
        .iter()
        .filter(|(k, _)| !matches!(k, MemScope::Global | MemScope::Shared))
        .map(|(_, v)| v)
        .sum();
    let tensor_macs: f64 = s.tensor_macs.values().sum();
    let total_ops = s.scalar_ops + s.vector_ops + 2.0 * tensor_macs;
    let mut num_blocks = 0.0;
    let mut num_tensorized = 0.0;
    let mut num_cooperative = 0.0;
    tir::visit::for_each_block_realize(&func.body, &mut |br| {
        num_blocks += 1.0;
        if br.block.annotations.contains_key("tir.tensor_intrin") {
            num_tensorized += 1.0;
        }
        if matches!(
            br.block.annotations.get("tir.cooperative"),
            Some(AnnValue::Int(_))
        ) {
            num_cooperative += 1.0;
        }
    });
    vec![
        log1p(s.scalar_ops),
        log1p(s.vector_ops),
        log1p(tensor_macs),
        log1p(global),
        log1p(shared),
        log1p(local),
        log1p(s.grid_size),
        log1p(s.block_threads),
        log1p(s.cpu_parallelism),
        // Arithmetic intensity: ops per global byte.
        log1p(total_ops / global.max(1.0)),
        // Tensorization fraction.
        if total_ops > 0.0 {
            2.0 * tensor_macs / total_ops
        } else {
            0.0
        },
        // Vectorization fraction.
        if s.scalar_ops + s.vector_ops > 0.0 {
            s.vector_ops / (s.scalar_ops + s.vector_ops)
        } else {
            0.0
        },
        num_blocks,
        num_tensorized,
        num_cooperative,
        // Shared-staging ratio: shared traffic relative to global.
        log1p(shared / global.max(1.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn feature_vector_shape() {
        let f = matmul_func("mm", 32, 32, 32, DataType::float32());
        let feats = extract_features(&f);
        assert_eq!(feats.len(), NUM_FEATURES);
        assert!(feats.iter().all(|v| v.is_finite()));
        // Scalar ops feature must be large for a scalar matmul.
        assert!(feats[0] > 5.0);
        // No tensor MACs.
        assert_eq!(feats[2], 0.0);
    }

    #[test]
    fn features_distinguish_sizes() {
        let a = extract_features(&matmul_func("a", 16, 16, 16, DataType::float32()));
        let b = extract_features(&matmul_func("b", 64, 64, 64, DataType::float32()));
        assert!(b[0] > a[0]);
        assert!(b[3] > a[3]);
    }
}
