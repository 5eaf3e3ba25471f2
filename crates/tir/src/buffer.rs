//! Multi-dimensional buffers and buffer regions.
//!
//! Buffers in this reproduction have *constant* shapes (`Vec<i64>`): the
//! paper's entire evaluation uses static shapes, and constant shapes keep
//! region arithmetic, padding, and the interpreter exact instead of symbolic.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dtype::DataType;
use crate::expr::Expr;

/// Memory scope of a buffer, mirroring GPU/accelerator storage hierarchies.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum MemScope {
    /// Device-global memory (DRAM).
    #[default]
    Global,
    /// Shared memory, visible to one thread block.
    Shared,
    /// Per-thread registers / local memory.
    Local,
    /// Warp-level storage (e.g. register fragments shared across a warp).
    Warp,
    /// Tensor-core fragment holding the A matrix operand.
    WmmaMatrixA,
    /// Tensor-core fragment holding the B matrix operand.
    WmmaMatrixB,
    /// Tensor-core accumulator fragment.
    WmmaAccumulator,
    /// Backend-specific scope identified by name (e.g. interleaved ARM
    /// micro-kernel layouts).
    Custom(String),
}

impl MemScope {
    /// The canonical textual name of the scope.
    pub fn as_str(&self) -> &str {
        match self {
            MemScope::Global => "global",
            MemScope::Shared => "shared",
            MemScope::Local => "local",
            MemScope::Warp => "warp",
            MemScope::WmmaMatrixA => "wmma.matrix_a",
            MemScope::WmmaMatrixB => "wmma.matrix_b",
            MemScope::WmmaAccumulator => "wmma.accumulator",
            MemScope::Custom(s) => s,
        }
    }

    /// Parses a scope from its textual name.
    pub fn from_name(name: &str) -> MemScope {
        match name {
            "global" => MemScope::Global,
            "shared" => MemScope::Shared,
            "local" => MemScope::Local,
            "warp" => MemScope::Warp,
            "wmma.matrix_a" => MemScope::WmmaMatrixA,
            "wmma.matrix_b" => MemScope::WmmaMatrixB,
            "wmma.accumulator" => MemScope::WmmaAccumulator,
            other => MemScope::Custom(other.to_string()),
        }
    }
}

impl fmt::Display for MemScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

static NEXT_BUFFER_ID: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug)]
struct BufferNode {
    id: usize,
    name: String,
    dtype: DataType,
    shape: Vec<i64>,
    scope: MemScope,
}

/// A multi-dimensional buffer with identity semantics.
///
/// Like [`crate::Var`], two `Buffer`s compare equal iff they are the same
/// allocation; cloning the handle is cheap.
///
/// # Examples
///
/// ```
/// use tir::{Buffer, DataType, MemScope};
/// let a = Buffer::new("A", DataType::float32(), vec![64, 64]);
/// assert_eq!(a.ndim(), 2);
/// assert_eq!(a.num_elements(), 64 * 64);
/// assert_eq!(a.scope(), &MemScope::Global);
/// ```
#[derive(Clone)]
pub struct Buffer(Arc<BufferNode>);

impl Buffer {
    /// Creates a new global-scope buffer.
    pub fn new(name: impl Into<String>, dtype: DataType, shape: Vec<i64>) -> Self {
        Self::with_scope(name, dtype, shape, MemScope::Global)
    }

    /// Creates a new buffer in a specific memory scope.
    pub fn with_scope(
        name: impl Into<String>,
        dtype: DataType,
        shape: Vec<i64>,
        scope: MemScope,
    ) -> Self {
        Buffer(Arc::new(BufferNode {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            dtype,
            shape,
            scope,
        }))
    }

    /// The globally unique id of this buffer.
    pub fn id(&self) -> usize {
        self.0.id
    }

    /// The user-facing name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Element data type.
    pub fn dtype(&self) -> DataType {
        self.0.dtype
    }

    /// The constant shape.
    pub fn shape(&self) -> &[i64] {
        &self.0.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.shape.len()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.0.shape.iter().product()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> i64 {
        self.num_elements() * self.dtype().bytes() as i64
    }

    /// Memory scope.
    pub fn scope(&self) -> &MemScope {
        &self.0.scope
    }

    /// Creates a fresh buffer with the same dtype/shape but a new name and scope.
    pub fn derive(&self, name: impl Into<String>, scope: MemScope) -> Buffer {
        Buffer::with_scope(name, self.dtype(), self.shape().to_vec(), scope)
    }

    /// Builds a load expression `self[indices]`.
    ///
    /// # Panics
    ///
    /// Panics if the number of indices differs from the buffer rank.
    pub fn load(&self, indices: Vec<Expr>) -> Expr {
        assert_eq!(
            indices.len(),
            self.ndim(),
            "buffer {} expects {} indices, got {}",
            self.name(),
            self.ndim(),
            indices.len()
        );
        Expr::Load {
            buffer: self.clone(),
            indices,
        }
    }

    /// The full region `[0:shape[0], 0:shape[1], ...]` of this buffer.
    pub fn full_region(&self) -> BufferRegion {
        BufferRegion {
            buffer: self.clone(),
            region: self
                .shape()
                .iter()
                .map(|&extent| RangeExpr::new(Expr::int(0), Expr::int(extent)))
                .collect(),
        }
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for Buffer {}
impl std::hash::Hash for Buffer {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}
impl PartialOrd for Buffer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Buffer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.id.cmp(&other.0.id)
    }
}
impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}({:?}, {}, {})",
            self.name(),
            self.id(),
            self.shape(),
            self.dtype(),
            self.scope()
        )
    }
}

/// A half-open range `[min, min + extent)` with expression bounds.
#[derive(Clone, PartialEq, Debug)]
pub struct RangeExpr {
    /// Inclusive lower bound.
    pub min: Expr,
    /// Number of covered points.
    pub extent: Expr,
}

impl RangeExpr {
    /// Creates a range from its bounds.
    pub fn new(min: impl Into<Expr>, extent: impl Into<Expr>) -> Self {
        RangeExpr {
            min: min.into(),
            extent: extent.into(),
        }
    }

    /// A range covering a single point.
    pub fn point(at: impl Into<Expr>) -> Self {
        Self::new(at, 1)
    }

    /// Whether the extent is the constant 1.
    pub fn is_point(&self) -> bool {
        self.extent.is_const_int(1)
    }
}

impl fmt::Display for RangeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "{}", self.min)
        } else if self.min.is_const_int(0) {
            write!(f, "0:{}", self.extent)
        } else {
            write!(f, "{}:{} + {}", self.min, self.min, self.extent)
        }
    }
}

/// A rectangular sub-region of a buffer: one [`RangeExpr`] per dimension.
///
/// Buffer regions are the access summaries stored in block signatures
/// (`reads` / `writes`), the information the paper uses for dependency
/// analysis without inspecting block bodies.
#[derive(Clone, PartialEq, Debug)]
pub struct BufferRegion {
    /// The buffer whose sub-region is described.
    pub buffer: Buffer,
    /// Per-dimension ranges; length equals the buffer rank.
    pub region: Vec<RangeExpr>,
}

impl BufferRegion {
    /// Creates a buffer region.
    ///
    /// # Panics
    ///
    /// Panics if the region rank differs from the buffer rank.
    pub fn new(buffer: Buffer, region: Vec<RangeExpr>) -> Self {
        assert_eq!(
            region.len(),
            buffer.ndim(),
            "region rank {} does not match buffer {} rank {}",
            region.len(),
            buffer.name(),
            buffer.ndim()
        );
        BufferRegion { buffer, region }
    }

    /// A single-point region at the given indices.
    pub fn point(buffer: Buffer, indices: Vec<Expr>) -> Self {
        let region = indices.into_iter().map(RangeExpr::point).collect();
        Self::new(buffer, region)
    }
}

impl fmt::Display for BufferRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.buffer.name())?;
        for (i, r) in self.region.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_identity_and_shape() {
        let a = Buffer::new("A", DataType::float32(), vec![4, 8]);
        let b = Buffer::new("A", DataType::float32(), vec![4, 8]);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a.num_elements(), 32);
        assert_eq!(a.size_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "expects 2 indices")]
    fn load_rank_checked() {
        let a = Buffer::new("A", DataType::float32(), vec![4, 8]);
        let _ = a.load(vec![Expr::int(0)]);
    }

    #[test]
    fn scope_round_trip() {
        for scope in [
            MemScope::Global,
            MemScope::Shared,
            MemScope::Local,
            MemScope::Warp,
            MemScope::WmmaMatrixA,
            MemScope::WmmaMatrixB,
            MemScope::WmmaAccumulator,
            MemScope::Custom("interleaved".into()),
        ] {
            assert_eq!(MemScope::from_name(scope.as_str()), scope);
        }
    }

    #[test]
    fn full_region_covers_shape() {
        let a = Buffer::new("A", DataType::float32(), vec![4, 8]);
        let r = a.full_region();
        assert_eq!(r.region.len(), 2);
        assert!(r.region[0].min.is_const_int(0));
        assert!(r.region[1].extent.is_const_int(8));
    }

    #[test]
    fn derive_keeps_shape_changes_scope() {
        let a = Buffer::new("A", DataType::float16(), vec![16, 16]);
        let sh = a.derive("A_shared", MemScope::Shared);
        assert_eq!(sh.shape(), a.shape());
        assert_eq!(sh.dtype(), a.dtype());
        assert_eq!(sh.scope(), &MemScope::Shared);
        assert_ne!(sh, a);
    }

    #[test]
    fn range_display() {
        let r = RangeExpr::new(0, 8);
        assert_eq!(r.to_string(), "0:8");
        assert!(RangeExpr::point(3).is_point());
    }
}
