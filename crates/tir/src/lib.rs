//! # tir — the TensorIR abstraction
//!
//! A from-scratch Rust implementation of the TensorIR program representation
//! from *"TensorIR: An Abstraction for Automatic Tensorized Program
//! Optimization"* (ASPLOS 2023).
//!
//! A TensorIR program has three main elements (Fig. 4 of the paper):
//!
//! * **multi-dimensional buffers** ([`Buffer`]) with memory scopes,
//! * **loop nests** ([`Stmt::For`]) with optional GPU thread bindings,
//! * **blocks** ([`Block`]) — isolated units of tensorized computation whose
//!   *signature* (iterator domains + read/write regions) carries all the
//!   dependency information needed to transform the surrounding loops.
//!
//! # Examples
//!
//! Build and print the paper's running matmul example:
//!
//! ```
//! use tir::builder::matmul_func;
//! use tir::DataType;
//!
//! let f = matmul_func("matmul", 64, 64, 64, DataType::float32());
//! let text = f.to_string();
//! assert!(text.contains("with T.block(\"C\"):"));
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod builder;
pub mod dtype;
pub mod expr;
pub mod func;
pub mod parser;
pub mod printer;
pub mod simplify;
pub mod stmt;
pub mod structural;
pub mod visit;
pub mod well_formed;

pub use buffer::{Buffer, BufferRegion, MemScope, RangeExpr};
pub use dtype::{DataType, TypeCode};
pub use expr::{BinOp, CmpOp, Expr, Var, VarMap};
pub use func::{IrModule, PrimFunc};
pub use stmt::{
    AnnValue, Annotations, Block, BlockRealize, For, ForKind, IterKind, IterVar, Stmt, ThreadTag,
    RELAXING_ANNOTATIONS,
};
pub use well_formed::{well_formed, WellFormedError};
