//! Epilogue composition: build one `PrimFunc` computing an anchor operator
//! (matmul, conv, …) followed by a chain of elementwise epilogues.
//!
//! This is the code-generation half of graph-level operator fusion
//! (`tir-graph::fusion` decides *what* to fuse; this module builds the
//! fused kernel). The anchor's output buffer and every intermediate of the
//! epilogue chain become block-local allocations in the
//! [`FUSED_SCOPE`] memory scope — on-chip storage that never round-trips
//! through DRAM — so the roofline cost model charges their traffic at the
//! on-chip bandwidth instead of global bandwidth, which is exactly the
//! traffic a fusing compiler eliminates. [`compose_unfused`] builds the
//! same computation with global-memory intermediates: the reference for
//! bit-exactness differentials and for quantifying what fusion saves.
//!
//! The composed function keeps the anchor's main block name (`"C"` for
//! every generator in this crate), so the auto-scheduler tensorizes the
//! anchor exactly as it would standalone and flat-schedules the epilogue
//! blocks as `other_blocks`.

use std::collections::HashMap;

use tir::builder::compute;
use tir::visit::replace_buffers;
use tir::{Buffer, DataType, Expr, MemScope, PrimFunc, Stmt};

/// Memory scope of fused intermediates: on-chip storage produced and
/// consumed inside one fused kernel. Charged at the machine's on-chip
/// (shared) bandwidth by the cost model and exempt from the thread-scope
/// visibility checks (it is private to the fused kernel by construction).
pub const FUSED_SCOPE: &str = "fused";

/// One elementwise epilogue step applied to the running value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Epilogue {
    /// `max(x, 0)`.
    Relu,
    /// `x + R` for an extra same-shape input tensor `R` (residual add).
    AddInput,
    /// `x + bias[last_axis]` for an extra 1-D input over the last axis.
    BiasAdd,
    /// `0.5 * x * (1 + erf(x / sqrt(2)))` — float dtypes only.
    Gelu,
}

impl Epilogue {
    /// Short name used in fused-kernel and block names.
    pub fn label(self) -> &'static str {
        match self {
            Epilogue::Relu => "relu",
            Epilogue::AddInput => "add",
            Epilogue::BiasAdd => "bias",
            Epilogue::Gelu => "gelu",
        }
    }
}

fn zero(dt: DataType) -> Expr {
    if dt.is_float() {
        Expr::Float(0.0, dt)
    } else {
        Expr::Int(0, dt)
    }
}

fn erf(x: Expr, dt: DataType) -> Expr {
    Expr::Call {
        name: "erf".into(),
        args: vec![x],
        dtype: dt,
    }
}

/// Composes `anchor` with an epilogue chain into one fused `PrimFunc`:
/// intermediates live in the [`FUSED_SCOPE`] on-chip scope.
///
/// The result's parameters are the anchor's inputs, then the extra inputs
/// of each epilogue step in order, then the final output. The anchor's
/// output and every chain intermediate become root-block allocations.
///
/// # Panics
///
/// Panics if `steps` is empty, if the anchor does not follow the
/// root-block convention, or on a [`Epilogue::Gelu`] over a non-float
/// anchor output.
pub fn fuse_epilogue(anchor: &PrimFunc, steps: &[Epilogue], name: &str) -> PrimFunc {
    compose(anchor, steps, name, true)
}

/// Same computation as [`fuse_epilogue`], with every intermediate in
/// global memory: what running the chain unfused (one kernel per op,
/// intermediates round-tripping through DRAM) computes. Bit-exact against
/// the fused composition; the reference side of the fusion differential.
pub fn compose_unfused(anchor: &PrimFunc, steps: &[Epilogue], name: &str) -> PrimFunc {
    compose(anchor, steps, name, false)
}

fn compose(anchor: &PrimFunc, steps: &[Epilogue], name: &str, fused: bool) -> PrimFunc {
    assert!(!steps.is_empty(), "epilogue chain must be non-empty");
    let out = anchor
        .params
        .last()
        .expect("anchor function has parameters")
        .clone();
    let scope_of = || {
        if fused {
            MemScope::Custom(FUSED_SCOPE.into())
        } else {
            MemScope::Global
        }
    };
    let (mut anchor_body, anchor_allocs) = match &*anchor.body {
        Stmt::BlockRealize(br) => ((*br.block.body).clone(), br.block.alloc_buffers.clone()),
        other => panic!("anchor must follow the root-block convention, got {other:?}"),
    };

    // The anchor now produces the first chain intermediate instead of its
    // output parameter. Buffers have identity semantics, so retargeting is
    // a substitution through loads/stores/regions/allocations.
    let stage0 = out.derive(format!("{}_s0", out.name()), scope_of());
    let mut map = HashMap::new();
    map.insert(out.clone(), stage0.clone());
    replace_buffers(&mut anchor_body, &map);
    let mut stmts = vec![anchor_body];
    let mut allocs: Vec<Buffer> = anchor_allocs
        .into_iter()
        .map(|b| map.get(&b).cloned().unwrap_or(b))
        .collect();
    allocs.push(stage0.clone());

    let mut extra_params: Vec<Buffer> = Vec::new();
    let mut cur = stage0;
    for (i, step) in steps.iter().enumerate() {
        let dt = cur.dtype();
        let last = i + 1 == steps.len();
        let dst = if last {
            Buffer::new("D", dt, cur.shape().to_vec())
        } else {
            out.derive(format!("{}_s{}", out.name(), i + 1), scope_of())
        };
        let block_name = format!("{}{}", step.label(), i);
        let src = cur.clone();
        let stmt = match step {
            Epilogue::Relu => compute(&block_name, &dst, |iv| {
                src.load(iv.iter().map(Expr::from).collect()).max(zero(dt))
            }),
            Epilogue::AddInput => {
                let r = Buffer::new(format!("R{i}"), dt, cur.shape().to_vec());
                extra_params.push(r.clone());
                compute(&block_name, &dst, |iv| {
                    let idx: Vec<Expr> = iv.iter().map(Expr::from).collect();
                    src.load(idx.clone()) + r.load(idx)
                })
            }
            Epilogue::BiasAdd => {
                let channels = *cur.shape().last().expect("output has at least one axis");
                let b = Buffer::new(format!("Bias{i}"), dt, vec![channels]);
                extra_params.push(b.clone());
                compute(&block_name, &dst, |iv| {
                    let idx: Vec<Expr> = iv.iter().map(Expr::from).collect();
                    let ch = idx.last().expect("at least one axis").clone();
                    src.load(idx) + b.load(vec![ch])
                })
            }
            Epilogue::Gelu => {
                assert!(dt.is_float(), "Gelu requires a float dtype, got {dt}");
                compute(&block_name, &dst, |iv| {
                    let x = src.load(iv.iter().map(Expr::from).collect());
                    let inv_sqrt2 = Expr::Float(std::f64::consts::FRAC_1_SQRT_2, dt);
                    Expr::Float(0.5, dt)
                        * x.clone()
                        * (Expr::Float(1.0, dt) + erf(x * inv_sqrt2, dt))
                })
            }
        };
        if !last {
            allocs.push(dst.clone());
        }
        stmts.push(stmt);
        cur = dst;
    }

    let mut params: Vec<Buffer> = anchor.params[..anchor.params.len() - 1].to_vec();
    params.extend(extra_params);
    params.push(cur);
    let mut func = PrimFunc::new(name, params, Stmt::seq(stmts));
    func.root_block_mut()
        .expect("PrimFunc::new builds a root block")
        .alloc_buffers = allocs;
    func
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{batch_matmul, c2d, dep, gmm};

    fn anchors(dtype: DataType) -> Vec<(&'static str, PrimFunc)> {
        let acc = if dtype == DataType::int8() {
            DataType::int32()
        } else {
            dtype
        };
        vec![
            ("gmm", gmm(16, 16, 16, dtype, acc)),
            ("c2d", c2d(1, 8, 8, 4, 8, 3, 3, 1, dtype)),
            ("dep", dep(1, 8, 8, 4, 3, 3, 1, dtype)),
            ("bmm", batch_matmul(2, 8, 8, 8, dtype, acc)),
        ]
    }

    #[test]
    fn fused_matches_unfused_across_anchors_epilogues_and_dtypes() {
        let chains: Vec<Vec<Epilogue>> = vec![
            vec![Epilogue::Relu],
            vec![Epilogue::AddInput],
            vec![Epilogue::BiasAdd, Epilogue::Relu],
            vec![Epilogue::AddInput, Epilogue::Relu],
        ];
        for dtype in [DataType::float16(), DataType::float32(), DataType::int8()] {
            for (label, anchor) in anchors(dtype) {
                for chain in &chains {
                    let name = format!("{label}_fused");
                    let fused = fuse_epilogue(&anchor, chain, &name);
                    let unfused = compose_unfused(&anchor, chain, &name);
                    tir_analysis::assert_valid(&fused);
                    tir_analysis::assert_valid(&unfused);
                    tir_exec::assert_same_semantics(&fused, &unfused, 1, 0.0);
                }
            }
        }
    }

    #[test]
    fn gelu_chain_matches_unfused_on_floats() {
        for dtype in [DataType::float16(), DataType::float32()] {
            let anchor = gmm(16, 16, 16, dtype, dtype);
            let chain = [Epilogue::BiasAdd, Epilogue::Gelu];
            let fused = fuse_epilogue(&anchor, &chain, "gmm_bias_gelu");
            let unfused = compose_unfused(&anchor, &chain, "gmm_bias_gelu");
            tir_analysis::assert_valid(&fused);
            tir_exec::assert_same_semantics(&fused, &unfused, 1, 0.0);
        }
    }

    #[test]
    fn fused_relu_computes_relu_of_matmul() {
        // Ground truth independent of the composition machinery: run the
        // fused kernel and recompute max(A·B, 0) from the same inputs.
        let dt = DataType::float32();
        let anchor = gmm(8, 8, 8, dt, dt);
        let fused = fuse_epilogue(&anchor, &[Epilogue::Relu], "mm_relu");
        let out = tir_exec::run_on_random_inputs(&fused, 1, 7).expect("run");
        let (a, b, d) = (&out[0], &out[1], &out[2]);
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += a.get(&[i, k]) * b.get(&[k, j]);
                }
                let expect = acc.max(0.0);
                assert!(
                    (d.get(&[i, j]) - expect).abs() < 1e-4,
                    "D[{i},{j}] = {} vs {expect}",
                    d.get(&[i, j])
                );
            }
        }
    }

    #[test]
    fn fused_intermediates_live_in_the_fused_scope() {
        let dt = DataType::float16();
        let anchor = gmm(16, 16, 16, dt, dt);
        let chain = [Epilogue::BiasAdd, Epilogue::Relu];
        let fused = fuse_epilogue(&anchor, &chain, "mm_bias_relu");
        let root = fused.root_block().expect("root");
        let fused_scope = MemScope::Custom(FUSED_SCOPE.into());
        let scoped = root
            .alloc_buffers
            .iter()
            .filter(|b| *b.scope() == fused_scope)
            .count();
        // Anchor output + one chain intermediate.
        assert_eq!(scoped, 2, "allocs: {:?}", root.alloc_buffers);
        // Signature: A, B, Bias, D.
        assert_eq!(fused.params.len(), 4);
        assert_eq!(fused.params[2].shape(), &[16]);
        // The unfused reference keeps intermediates in global memory.
        let unfused = compose_unfused(&anchor, &chain, "mm_bias_relu");
        let root_u = unfused.root_block().expect("root");
        assert!(root_u
            .alloc_buffers
            .iter()
            .all(|b| *b.scope() == MemScope::Global));
    }

    #[test]
    fn fused_signature_extra_inputs_follow_the_chain_order() {
        let dt = DataType::float32();
        let anchor = c2d(1, 8, 8, 4, 8, 3, 3, 1, dt);
        let chain = [Epilogue::BiasAdd, Epilogue::AddInput, Epilogue::Relu];
        let fused = fuse_epilogue(&anchor, &chain, "conv_bias_add_relu");
        // A, W, Bias, R, D.
        assert_eq!(fused.params.len(), 5);
        assert_eq!(fused.params[2].shape(), &[8], "bias over channels");
        assert_eq!(
            fused.params[3].shape(),
            anchor.params[2].shape(),
            "residual matches the conv output shape"
        );
        let unfused = compose_unfused(&anchor, &chain, "conv_bias_add_relu");
        tir_exec::assert_same_semantics(&fused, &unfused, 1, 0.0);
    }
}
