//! # tir-arith — integer arithmetic analysis for TensorIR
//!
//! Two analyses power the paper's validation and scheduling machinery:
//!
//! * [`bound`] — sound constant-interval analysis over integer expressions,
//!   used for region arithmetic, predicate proving, and cover checks;
//! * [`iter_map`] — the quasi-affine iterator-map detector of §3.3, which
//!   recognizes split/fuse binding patterns and proves their independence
//!   and full domain coverage.
//!
//! # Examples
//!
//! ```
//! use tir::{Expr, Var};
//! use tir_arith::iter_map::detect_iter_map;
//!
//! // A legal re-split of a 64-iteration loop into 16 x 4.
//! let i = Var::int("i");
//! let map = detect_iter_map(
//!     &[Expr::from(&i).floor_div(4), Expr::from(&i).floor_mod(4)],
//!     &[(i.clone(), 64)],
//! ).unwrap();
//! assert_eq!(map.extents, vec![16, 4]);
//! ```

#![warn(missing_docs)]

pub mod bound;
pub mod iter_map;

pub use bound::{bound_of, IntBound};
pub use iter_map::{detect_iter_map, IterMap, IterMapError};
