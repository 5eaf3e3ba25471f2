//! # tir-tensorize — automatic tensorization for TensorIR
//!
//! Implements §4.1–4.2 of the paper:
//!
//! * [`intrin`] — [`intrin::TensorIntrin`] descriptions of hardware tensor
//!   instructions in the same TensorIR vocabulary (iteration domain,
//!   operand index signatures, dtypes, memory/execution scopes), plus the
//!   built-in registry (Tensor Core `wmma`, the paper's synthetic 4x4x4
//!   dot intrinsic, ARM `sdot`);
//! * [`pattern`] — einsum extraction and the characteristic-vector
//!   iterator mapping;
//! * [`candidate`] — the full candidate-generation pipeline: ReIndex with
//!   fused-layout staging buffers, padding to divisible shapes, tiling,
//!   blockization, and the `tensorize` primitive.
//!
//! # Examples
//!
//! ```
//! use tir::builder::matmul_func;
//! use tir::DataType;
//! use tir_tensorize::{auto_tensorize, builtin_registry};
//!
//! let func = matmul_func("mm", 64, 64, 64, DataType::float32());
//! let reg = builtin_registry();
//! let intrin = reg.get("dot_4x4x4_f32").unwrap();
//! let result = auto_tensorize(&func, "C", intrin).unwrap();
//! assert_eq!(result.padded_extents, vec![64, 64, 64]);
//! ```

#![warn(missing_docs)]

pub mod candidate;
pub mod intrin;
pub mod pattern;

pub use candidate::{auto_tensorize, find_tensorizable_block, tensorize, Tensorized};
pub use intrin::{builtin_registry, IntrinRegistry, TensorIntrin};
pub use pattern::{extract_einsum, propose_mapping, Einsum, MatchError};
