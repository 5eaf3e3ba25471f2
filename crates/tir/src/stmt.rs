//! Statements of TensorIR: loops, blocks, stores and control flow.
//!
//! The central construct is the [`Block`] (§3.1 of the paper): a unit of
//! tensorized computation whose *signature* — iterator variables with
//! domains, and read/write buffer regions — carries all the dependency
//! information needed to transform the surrounding loop nests without
//! inspecting the block body.

use std::collections::BTreeMap;
use std::fmt;

use crate::buffer::{Buffer, BufferRegion};
use crate::expr::{Expr, Var};

/// The iteration semantics of a loop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ForKind {
    /// Ordinary sequential loop.
    Serial,
    /// Parallelizable across CPU threads.
    Parallel,
    /// Mapped to SIMD lanes.
    Vectorized,
    /// Fully unrolled by the backend.
    Unrolled,
    /// Bound to a GPU thread axis.
    ThreadBinding(ThreadTag),
}

impl ForKind {
    /// Whether iterations of this loop may execute concurrently.
    pub fn is_parallel(self) -> bool {
        !matches!(self, ForKind::Serial | ForKind::Unrolled)
    }
}

/// GPU thread axes a loop can be bound to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ThreadTag {
    /// Grid dimension x.
    BlockIdxX,
    /// Grid dimension y.
    BlockIdxY,
    /// Grid dimension z.
    BlockIdxZ,
    /// Thread-block dimension x.
    ThreadIdxX,
    /// Thread-block dimension y.
    ThreadIdxY,
    /// Thread-block dimension z.
    ThreadIdxZ,
    /// Virtual thread (software pipelining axis).
    Vthread,
}

impl ThreadTag {
    /// The CUDA-style name of this axis.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadTag::BlockIdxX => "blockIdx.x",
            ThreadTag::BlockIdxY => "blockIdx.y",
            ThreadTag::BlockIdxZ => "blockIdx.z",
            ThreadTag::ThreadIdxX => "threadIdx.x",
            ThreadTag::ThreadIdxY => "threadIdx.y",
            ThreadTag::ThreadIdxZ => "threadIdx.z",
            ThreadTag::Vthread => "vthread",
        }
    }

    /// Parses a thread tag from its CUDA-style name.
    pub fn from_name(name: &str) -> Option<ThreadTag> {
        Some(match name {
            "blockIdx.x" => ThreadTag::BlockIdxX,
            "blockIdx.y" => ThreadTag::BlockIdxY,
            "blockIdx.z" => ThreadTag::BlockIdxZ,
            "threadIdx.x" => ThreadTag::ThreadIdxX,
            "threadIdx.y" => ThreadTag::ThreadIdxY,
            "threadIdx.z" => ThreadTag::ThreadIdxZ,
            "vthread" => ThreadTag::Vthread,
            _ => return None,
        })
    }

    /// Whether this axis enumerates threads inside one thread block.
    pub fn is_thread_idx(self) -> bool {
        matches!(
            self,
            ThreadTag::ThreadIdxX | ThreadTag::ThreadIdxY | ThreadTag::ThreadIdxZ
        )
    }

    /// Whether this axis enumerates thread blocks of the grid.
    pub fn is_block_idx(self) -> bool {
        matches!(
            self,
            ThreadTag::BlockIdxX | ThreadTag::BlockIdxY | ThreadTag::BlockIdxZ
        )
    }
}

impl fmt::Display for ThreadTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Block annotations that declare the block's accesses safe under
/// parallel execution (atomic reductions, idempotent replicated copies,
/// tensorized intrinsics with group semantics, opaque bodies). The static
/// race analyzer and the dynamic sanitizer both exempt every buffer such a
/// block touches, which keeps their verdicts comparable.
pub const RELAXING_ANNOTATIONS: [&str; 5] = [
    "tir.atomic",
    "tir.cooperative",
    "tir.copy",
    "tir.exec_scope",
    "tir.opaque",
];

/// An annotation value attached to loops or blocks.
#[derive(Clone, PartialEq, Debug)]
pub enum AnnValue {
    /// Integer annotation (e.g. unroll depth).
    Int(i64),
    /// String annotation (e.g. a scope name).
    Str(String),
}

impl fmt::Display for AnnValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnValue::Int(v) => write!(f, "{v}"),
            AnnValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for AnnValue {
    fn from(v: i64) -> Self {
        AnnValue::Int(v)
    }
}
impl From<&str> for AnnValue {
    fn from(v: &str) -> Self {
        AnnValue::Str(v.to_string())
    }
}
impl From<String> for AnnValue {
    fn from(v: String) -> Self {
        AnnValue::Str(v)
    }
}

/// Ordered key-value annotations.
pub type Annotations = BTreeMap<String, AnnValue>;

/// A `for` loop with extent starting at zero.
#[derive(Clone, PartialEq, Debug)]
pub struct For {
    /// Loop iterator variable, ranging over `[0, extent)`.
    pub var: Var,
    /// Loop extent.
    pub extent: Expr,
    /// Iteration semantics.
    pub kind: ForKind,
    /// Loop body.
    pub body: Stmt,
    /// Scheduling hints (e.g. software pipeline markers).
    pub annotations: Annotations,
}

impl For {
    /// Creates a serial loop.
    pub fn serial(var: Var, extent: impl Into<Expr>, body: Stmt) -> Self {
        Self::with_kind(var, extent, ForKind::Serial, body)
    }

    /// Creates a loop with an explicit kind.
    pub fn with_kind(var: Var, extent: impl Into<Expr>, kind: ForKind, body: Stmt) -> Self {
        For {
            var,
            extent: extent.into(),
            kind,
            body,
            annotations: Annotations::new(),
        }
    }
}

/// Whether a block iterator is data-parallel or a reduction axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IterKind {
    /// Data-parallel (spatial) iterator: instances write disjoint outputs.
    Spatial,
    /// Reduction (commutative update) iterator.
    Reduce,
}

impl IterKind {
    /// Printer name (`spatial` / `reduce`).
    pub fn as_str(self) -> &'static str {
        match self {
            IterKind::Spatial => "spatial",
            IterKind::Reduce => "reduce",
        }
    }
}

/// A block iterator variable with its domain, part of the block signature.
#[derive(Clone, PartialEq, Debug)]
pub struct IterVar {
    /// The variable visible inside the block body.
    pub var: Var,
    /// Constant domain extent: the variable ranges over `[0, extent)`.
    pub extent: i64,
    /// Spatial or reduction semantics.
    pub kind: IterKind,
}

impl IterVar {
    /// Creates a spatial block iterator.
    pub fn spatial(var: Var, extent: i64) -> Self {
        IterVar {
            var,
            extent,
            kind: IterKind::Spatial,
        }
    }

    /// Creates a reduction block iterator.
    pub fn reduce(var: Var, extent: i64) -> Self {
        IterVar {
            var,
            extent,
            kind: IterKind::Reduce,
        }
    }
}

/// A block: an isolated unit of (possibly tensorized) computation.
///
/// The fields other than `body`/`init` form the *block signature* of Fig. 5:
/// iterator variables with domains and kinds, plus read and write buffer
/// regions expressed in terms of those iterators. Scheduling transformations
/// outside the block consult only the signature.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// Human-readable block name, unique within a function by convention.
    pub name: String,
    /// Block iterator variables (the signature's iterator domain).
    pub iter_vars: Vec<IterVar>,
    /// Buffer regions read by one block instance.
    pub reads: Vec<BufferRegion>,
    /// Buffer regions written by one block instance.
    pub writes: Vec<BufferRegion>,
    /// Buffers allocated at this block's scope.
    pub alloc_buffers: Vec<Buffer>,
    /// Optional reduction initialization statement, executed on the first
    /// iteration of every reduction axis.
    pub init: Option<Box<Stmt>>,
    /// The block body.
    pub body: Box<Stmt>,
    /// Annotations (e.g. `tir.opaque` marking non-schedulable blocks).
    pub annotations: Annotations,
}

impl Block {
    /// Creates a block with empty allocations, init and annotations.
    pub fn new(
        name: impl Into<String>,
        iter_vars: Vec<IterVar>,
        reads: Vec<BufferRegion>,
        writes: Vec<BufferRegion>,
        body: Stmt,
    ) -> Self {
        Block {
            name: name.into(),
            iter_vars,
            reads,
            writes,
            alloc_buffers: Vec::new(),
            init: None,
            body: Box::new(body),
            annotations: Annotations::new(),
        }
    }

    /// Whether any iterator is a reduction axis.
    pub fn is_reduction(&self) -> bool {
        self.iter_vars.iter().any(|iv| iv.kind == IterKind::Reduce)
    }

    /// The iterator variables as plain `Var`s.
    pub fn iter_var_handles(&self) -> Vec<Var> {
        self.iter_vars.iter().map(|iv| iv.var.clone()).collect()
    }

    /// Whether the block is marked opaque (not schedulable inside).
    pub fn is_opaque(&self) -> bool {
        self.annotations.contains_key("tir.opaque")
    }
}

/// Realization of a block: binds values to the block's iterator variables.
#[derive(Clone, PartialEq, Debug)]
pub struct BlockRealize {
    /// Binding value for each block iterator, in signature order.
    pub iter_values: Vec<Expr>,
    /// Guard predicate; instances with a false predicate are skipped.
    pub predicate: Expr,
    /// The block being realized.
    pub block: Block,
}

impl BlockRealize {
    /// Creates a realize with a constant-true predicate.
    ///
    /// # Panics
    ///
    /// Panics if the number of values differs from the block's iterator count.
    pub fn new(iter_values: Vec<Expr>, block: Block) -> Self {
        Self::with_predicate(iter_values, Expr::true_(), block)
    }

    /// Creates a realize with an explicit predicate.
    pub fn with_predicate(iter_values: Vec<Expr>, predicate: Expr, block: Block) -> Self {
        assert_eq!(
            iter_values.len(),
            block.iter_vars.len(),
            "block {} has {} iterators but {} binding values were given",
            block.name,
            block.iter_vars.len(),
            iter_values.len()
        );
        BlockRealize {
            iter_values,
            predicate,
            block,
        }
    }
}

/// A TensorIR statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// Write of one element: `buffer[indices] = value`.
    Store {
        /// Destination buffer.
        buffer: Buffer,
        /// One index per dimension.
        indices: Vec<Expr>,
        /// Stored value.
        value: Expr,
    },
    /// Evaluate an expression for its side effects (intrinsic calls).
    Eval(Expr),
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// Conditional execution.
    IfThenElse {
        /// Branch condition.
        cond: Expr,
        /// Taken when the condition holds.
        then_branch: Box<Stmt>,
        /// Taken otherwise, if present.
        else_branch: Option<Box<Stmt>>,
    },
    /// A loop.
    For(Box<For>),
    /// A block realization.
    BlockRealize(Box<BlockRealize>),
}

impl Stmt {
    /// Builds a store statement, checking index rank.
    ///
    /// # Panics
    ///
    /// Panics if the number of indices differs from the buffer rank.
    pub fn store(buffer: Buffer, indices: Vec<Expr>, value: Expr) -> Stmt {
        assert_eq!(
            indices.len(),
            buffer.ndim(),
            "store into {} expects {} indices, got {}",
            buffer.name(),
            buffer.ndim(),
            indices.len()
        );
        Stmt::Store {
            buffer,
            indices,
            value,
        }
    }

    /// Builds a sequence, flattening nested sequences and dropping
    /// single-element wrappers.
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        let mut flat = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Seq(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Stmt::Seq(flat)
        }
    }

    /// Puts a `Seq` whose members were rewritten in place back into the
    /// form [`Stmt::seq`] builds (nested sequences flattened, a singleton
    /// unwrapped): programs that differ only in `Seq` nesting print and hash
    /// differently. A `Seq` already in that form, and any other statement,
    /// is left untouched.
    pub fn normalize_seq(&mut self) {
        if let Stmt::Seq(v) = self {
            if v.len() == 1 || v.iter().any(|st| matches!(st, Stmt::Seq(_))) {
                *self = Stmt::seq(std::mem::take(v));
            }
        }
    }

    /// The statements directly below this one, in execution order: a loop's
    /// body; a sequence's members; an `if`'s then-branch, then its
    /// else-branch; a block's `init`, then its `body`; nothing for a store
    /// or an evaluate. Allocates nothing.
    ///
    /// This is the one definition of "child statement". Every pre-order
    /// lookup in the workspace ([`Stmt::find`], `visit::find_block`, the
    /// schedule's loop and block lookups and rewrites) is written over it
    /// and so inherits its order — in particular that **`init` precedes
    /// `body`**: of two matches, the one in a block's `init` is found first.
    /// A descent that must not look inside a block (§3.1: the signature
    /// summarises the body) stops at the `BlockRealize` itself instead of
    /// taking fewer children.
    pub fn children(&self) -> impl Iterator<Item = &Stmt> {
        match self {
            Stmt::Store { .. } | Stmt::Eval(_) => Children::UpToTwo(None, None),
            Stmt::Seq(v) => Children::Members(v.iter()),
            Stmt::For(f) => Children::UpToTwo(Some(&f.body), None),
            Stmt::IfThenElse {
                then_branch,
                else_branch,
                ..
            } => Children::UpToTwo(Some(&**then_branch), else_branch.as_deref()),
            Stmt::BlockRealize(br) => {
                Children::UpToTwo(br.block.init.as_deref(), Some(&*br.block.body))
            }
        }
    }

    /// [`Stmt::children`], mutably. A `Seq` whose members a caller rewrites
    /// through this is *not* put back into [`Stmt::seq`] form here; callers
    /// that can hand back a `Seq` call [`Stmt::normalize_seq`] on the way
    /// back up.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Stmt> {
        match self {
            Stmt::Store { .. } | Stmt::Eval(_) => Children::UpToTwo(None, None),
            Stmt::Seq(v) => Children::Members(v.iter_mut()),
            Stmt::For(f) => Children::UpToTwo(Some(&mut f.body), None),
            Stmt::IfThenElse {
                then_branch,
                else_branch,
                ..
            } => Children::UpToTwo(Some(&mut **then_branch), else_branch.as_deref_mut()),
            Stmt::BlockRealize(br) => {
                let block = &mut br.block;
                Children::UpToTwo(block.init.as_deref_mut(), Some(&mut *block.body))
            }
        }
    }

    /// The first statement `pred` accepts in a pre-order walk over
    /// [`Stmt::children`], this statement included. The walk stops there:
    /// `pred` is called on nothing after its first match.
    pub fn find(&self, pred: &mut impl FnMut(&Stmt) -> bool) -> Option<&Stmt> {
        if pred(self) {
            return Some(self);
        }
        self.children().find_map(|child| child.find(pred))
    }

    /// Wraps this statement in a serial loop.
    pub fn in_loop(self, var: Var, extent: impl Into<Expr>) -> Stmt {
        Stmt::For(Box::new(For::serial(var, extent, self)))
    }

    /// Wraps this statement in nested serial loops, outermost first.
    pub fn in_loops(self, loops: Vec<(Var, i64)>) -> Stmt {
        let mut body = self;
        for (var, extent) in loops.into_iter().rev() {
            body = body.in_loop(var, extent);
        }
        body
    }

    /// Returns the block realize if this statement is one.
    pub fn as_block_realize(&self) -> Option<&BlockRealize> {
        match self {
            Stmt::BlockRealize(br) => Some(br),
            _ => None,
        }
    }

    /// Returns the loop if this statement is one.
    pub fn as_for(&self) -> Option<&For> {
        match self {
            Stmt::For(f) => Some(f),
            _ => None,
        }
    }
}

/// What [`Stmt::children`] and [`Stmt::children_mut`] return: the members
/// of a sequence, or up to two single statements in order.
enum Children<I: Iterator> {
    Members(I),
    UpToTwo(Option<I::Item>, Option<I::Item>),
}

impl<I: Iterator> Iterator for Children<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        match self {
            Children::Members(members) => members.next(),
            Children::UpToTwo(first, second) => first.take().or_else(|| second.take()),
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::stmt_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;

    #[test]
    fn seq_flattens() {
        let b = Buffer::new("B", DataType::float32(), vec![1]);
        let s = || Stmt::store(b.clone(), vec![Expr::int(0)], Expr::f32(0.0));
        let nested = Stmt::seq(vec![Stmt::seq(vec![s(), s()]), s()]);
        match nested {
            Stmt::Seq(v) => assert_eq!(v.len(), 3),
            other => panic!("expected seq, got {other:?}"),
        }
        assert!(matches!(Stmt::seq(vec![s()]), Stmt::Store { .. }));
    }

    #[test]
    fn in_loops_orders_outermost_first() {
        let b = Buffer::new("B", DataType::float32(), vec![4, 4]);
        let (i, j) = (Var::int("i"), Var::int("j"));
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&i), Expr::from(&j)],
            Expr::f32(1.0),
        );
        let nest = body.in_loops(vec![(i.clone(), 4), (j.clone(), 4)]);
        let outer = nest.as_for().expect("outer loop");
        assert_eq!(outer.var, i);
        assert_eq!(outer.body.as_for().expect("inner loop").var, j);
    }

    #[test]
    #[should_panic(expected = "3 binding values")]
    fn realize_arity_checked() {
        let block = Block::new("b", vec![], vec![], vec![], Stmt::Seq(vec![]));
        let _ = BlockRealize::new(vec![Expr::int(0); 3], block);
    }

    #[test]
    fn reduction_detection() {
        let v = Var::int("k");
        let block = Block::new(
            "b",
            vec![IterVar::reduce(v, 4)],
            vec![],
            vec![],
            Stmt::Seq(vec![]),
        );
        assert!(block.is_reduction());
    }

    #[test]
    fn thread_tags() {
        assert_eq!(
            ThreadTag::from_name("threadIdx.x"),
            Some(ThreadTag::ThreadIdxX)
        );
        assert!(ThreadTag::ThreadIdxY.is_thread_idx());
        assert!(ThreadTag::BlockIdxZ.is_block_idx());
        assert_eq!(ThreadTag::from_name("warpIdx.w"), None);
        assert!(ForKind::ThreadBinding(ThreadTag::Vthread).is_parallel());
        assert!(!ForKind::Unrolled.is_parallel());
    }
}
