//! # tir-graph — end-to-end model layer
//!
//! Lowers whole networks onto the TensorIR stack: [`models`] defines the
//! four evaluation networks (ResNet-50, MobileNetV2, BERT-large,
//! ViT-Base/16) as dataflow graphs of [`layer::OpNode`]s with explicit
//! tensor edges, [`fusion`] greedily folds elementwise chains into their
//! anchor kernels (composed via [`tir_workloads::fuse_epilogue`]),
//! [`executor`] tunes every distinct fusion group with a compiler
//! [`tir_autoschedule::Strategy`] through a shared
//! [`tir_autoschedule::TuningDatabase`] and aggregates end-to-end latency,
//! tuning cost and fusion savings, and [`frameworks`] models the
//! framework/vendor-library comparison points (PyTorch, TensorRT, CUTLASS,
//! ArmComputeLib, QNNPACK) as roofline oracles.

#![warn(missing_docs)]

pub mod executor;
pub mod frameworks;
pub mod fusion;
pub mod layer;
pub mod models;

pub use executor::{
    compile_model_with, evaluate_model, evaluate_model_unfused, evaluate_model_with, CompiledModel,
    GroupResult, ModelError, ModelResult,
};
pub use frameworks::Framework;
pub use fusion::{can_anchor, fuse_graph, singleton_groups, FusionGroup};
pub use layer::{EltwiseOp, LayerKind, ModelSpec, NodeId, OpNode};
pub use models::{arm_models, bert_large, gpu_models, mobilenet_v2, resnet50, vit_base};
