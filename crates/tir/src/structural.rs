//! Alpha-equivalence (structural equality and hashing) of programs.
//!
//! Two programs are structurally equal when they are identical up to a
//! one-to-one renaming of variables and buffers. Used heavily by schedule
//! tests: a transformation and its hand-written expected output never share
//! variable identities, so plain `==` would always fail.
//!
//! [`structural_hash`] is the companion hash: alpha-equivalent programs
//! hash identically (variables and buffers are numbered by first
//! occurrence), so it can key caches of per-program results. The
//! auto-scheduler's candidate-evaluation cache uses it to recognize that
//! two distinct decision vectors materialized the same program and to skip
//! re-measuring it.
//!
//! The hash is FNV-1a over an explicit, prefix-free encoding of the tree
//! (`StructHasher`). Its values are the same across runs, threads and
//! builds, but free to change between commits: a file that stores them
//! carries a format version, as the search checkpoint does.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::buffer::{Buffer, BufferRegion, MemScope};
use crate::dtype::DataType;
use crate::expr::{Expr, IdHasher, Var};
use crate::func::PrimFunc;
use crate::stmt::{AnnValue, Annotations, Block, BlockRealize, ForKind, Stmt};

type IdMap<V> = HashMap<usize, V, BuildHasherDefault<IdHasher>>;

/// A one-to-one pairing of the ids met on the two sides of a comparison,
/// in one map: key `2a` holds the partner of left id `a`, key `2b + 1`
/// the partner of right id `b`.
struct Pairing(IdMap<usize>);

impl Pairing {
    /// An empty pairing with room for `pairs` pairs.
    fn with_room(pairs: usize) -> Self {
        Pairing(IdMap::with_capacity_and_hasher(
            2 * pairs,
            Default::default(),
        ))
    }

    /// Whether `a` (left) and `b` (right) are partners, pairing them when
    /// neither has one yet.
    fn pair(&mut self, a: usize, b: usize) -> bool {
        if let Some(&partner) = self.0.get(&(2 * a)) {
            return partner == b;
        }
        match self.0.entry(2 * b + 1) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(a);
                self.0.insert(2 * a, b);
                true
            }
        }
    }
}

/// Compares two trees in one walk. Variables and buffers must pair one to
/// one — what numbering each side by first occurrence, as [`StructHasher`]
/// does, and comparing the numbers decides — so the comparison is
/// symmetric, and it looks at exactly what the hash feeds (float literals
/// by their bits).
struct Matcher {
    vars: Pairing,
    bufs: Pairing,
}

impl Matcher {
    /// Room for 32 variables and 8 buffers a side, more than most kernels
    /// have: growing the maps mid-walk costs more than the walk.
    fn new() -> Self {
        Matcher {
            vars: Pairing::with_room(32),
            bufs: Pairing::with_room(8),
        }
    }

    fn var(&mut self, a: &Var, b: &Var) -> bool {
        self.vars.pair(a.id(), b.id())
    }

    fn buffer(&mut self, a: &Buffer, b: &Buffer) -> bool {
        if a.dtype() != b.dtype() || a.shape() != b.shape() || a.scope() != b.scope() {
            return false;
        }
        self.bufs.pair(a.id(), b.id())
    }

    fn exprs(&mut self, a: &[Expr], b: &[Expr]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| self.expr(x, y))
    }

    fn expr(&mut self, a: &Expr, b: &Expr) -> bool {
        match (a, b) {
            (Expr::Int(x, dx), Expr::Int(y, dy)) => x == y && dx == dy,
            (Expr::Float(x, dx), Expr::Float(y, dy)) => x.to_bits() == y.to_bits() && dx == dy,
            (Expr::Str(x), Expr::Str(y)) => x == y,
            (Expr::Var(x), Expr::Var(y)) => self.var(x, y),
            (Expr::Cast(dx, x), Expr::Cast(dy, y)) => dx == dy && self.expr(x, y),
            (Expr::Bin(ox, ax, bx), Expr::Bin(oy, ay, by)) => {
                ox == oy && self.expr(ax, ay) && self.expr(bx, by)
            }
            (Expr::Cmp(ox, ax, bx), Expr::Cmp(oy, ay, by)) => {
                ox == oy && self.expr(ax, ay) && self.expr(bx, by)
            }
            (Expr::Not(x), Expr::Not(y)) => self.expr(x, y),
            (
                Expr::Select {
                    cond: cx,
                    then: tx,
                    other: ox,
                },
                Expr::Select {
                    cond: cy,
                    then: ty,
                    other: oy,
                },
            ) => self.expr(cx, cy) && self.expr(tx, ty) && self.expr(ox, oy),
            (
                Expr::Load {
                    buffer: bx,
                    indices: ix,
                },
                Expr::Load {
                    buffer: by,
                    indices: iy,
                },
            ) => self.buffer(bx, by) && self.exprs(ix, iy),
            (
                Expr::Call {
                    name: nx,
                    args: ax,
                    dtype: dx,
                },
                Expr::Call {
                    name: ny,
                    args: ay,
                    dtype: dy,
                },
            ) => nx == ny && dx == dy && self.exprs(ax, ay),
            _ => false,
        }
    }

    fn region(&mut self, a: &BufferRegion, b: &BufferRegion) -> bool {
        self.buffer(&a.buffer, &b.buffer)
            && a.region.len() == b.region.len()
            && a.region
                .iter()
                .zip(&b.region)
                .all(|(x, y)| self.expr(&x.min, &y.min) && self.expr(&x.extent, &y.extent))
    }

    fn block(&mut self, a: &Block, b: &Block) -> bool {
        if a.name != b.name
            || a.iter_vars.len() != b.iter_vars.len()
            || a.reads.len() != b.reads.len()
            || a.writes.len() != b.writes.len()
            || a.alloc_buffers.len() != b.alloc_buffers.len()
            || a.init.is_some() != b.init.is_some()
            || a.annotations != b.annotations
        {
            return false;
        }
        for (x, y) in a.iter_vars.iter().zip(&b.iter_vars) {
            if x.extent != y.extent || x.kind != y.kind || !self.var(&x.var, &y.var) {
                return false;
            }
        }
        for (x, y) in a.alloc_buffers.iter().zip(&b.alloc_buffers) {
            if !self.buffer(x, y) {
                return false;
            }
        }
        for (x, y) in a.reads.iter().zip(&b.reads) {
            if !self.region(x, y) {
                return false;
            }
        }
        for (x, y) in a.writes.iter().zip(&b.writes) {
            if !self.region(x, y) {
                return false;
            }
        }
        if let (Some(ix), Some(iy)) = (&a.init, &b.init) {
            if !self.stmt(ix, iy) {
                return false;
            }
        }
        self.stmt(&a.body, &b.body)
    }

    fn realize(&mut self, a: &BlockRealize, b: &BlockRealize) -> bool {
        self.exprs(&a.iter_values, &b.iter_values)
            && self.expr(&a.predicate, &b.predicate)
            && self.block(&a.block, &b.block)
    }

    fn stmt(&mut self, a: &Stmt, b: &Stmt) -> bool {
        match (a, b) {
            (
                Stmt::Store {
                    buffer: bx,
                    indices: ix,
                    value: vx,
                },
                Stmt::Store {
                    buffer: by,
                    indices: iy,
                    value: vy,
                },
            ) => self.buffer(bx, by) && self.exprs(ix, iy) && self.expr(vx, vy),
            (Stmt::Eval(x), Stmt::Eval(y)) => self.expr(x, y),
            (Stmt::Seq(x), Stmt::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(sx, sy)| self.stmt(sx, sy))
            }
            (
                Stmt::IfThenElse {
                    cond: cx,
                    then_branch: tx,
                    else_branch: ex,
                },
                Stmt::IfThenElse {
                    cond: cy,
                    then_branch: ty,
                    else_branch: ey,
                },
            ) => {
                self.expr(cx, cy)
                    && self.stmt(tx, ty)
                    && match (ex, ey) {
                        (Some(x), Some(y)) => self.stmt(x, y),
                        (None, None) => true,
                        _ => false,
                    }
            }
            (Stmt::For(x), Stmt::For(y)) => {
                x.kind == y.kind
                    && x.annotations == y.annotations
                    && self.var(&x.var, &y.var)
                    && self.expr(&x.extent, &y.extent)
                    && self.stmt(&x.body, &y.body)
            }
            (Stmt::BlockRealize(x), Stmt::BlockRealize(y)) => self.realize(x, y),
            _ => false,
        }
    }
}

/// FNV-1a over a prefix-free encoding of the program, with variables and
/// buffers numbered by first occurrence so that alpha-equivalent programs
/// produce identical hashes.
///
/// Every value is self-delimiting, so two different trees never feed the
/// same byte stream: a tree node or an enum value is one tag byte (a
/// `ThreadBinding` loop kind is followed by its
/// [`ThreadTag`](crate::stmt::ThreadTag), a `Custom` scope and a string
/// annotation by their text), text goes in behind its length, a data type
/// as its code, bits and lanes, an integer as LEB128 (an `i64` zig-zagged
/// first), a float literal as its 8 raw bytes, and every list — a buffer's
/// shape too — behind its length.
struct StructHasher {
    state: u64,
    vars: IdMap<u64>,
    bufs: IdMap<u64>,
}

impl StructHasher {
    fn new() -> Self {
        StructHasher {
            // FNV-1a 64-bit offset basis.
            state: 0xcbf2_9ce4_8422_2325,
            vars: IdMap::default(),
            bufs: IdMap::default(),
        }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(0x100_0000_01b3);
    }

    /// LEB128: seven bits a byte, low bits first, the high bit set on every
    /// byte but the last.
    fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    /// Zig-zagged, so that small negative values stay short too.
    fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn dtype(&mut self, d: DataType) {
        self.byte(d.code() as u8);
        self.byte(d.bits());
        self.u64(d.lanes().into());
    }

    fn scope(&mut self, scope: &MemScope) {
        let tag = match scope {
            MemScope::Global => 0,
            MemScope::Shared => 1,
            MemScope::Local => 2,
            MemScope::Warp => 3,
            MemScope::WmmaMatrixA => 4,
            MemScope::WmmaMatrixB => 5,
            MemScope::WmmaAccumulator => 6,
            MemScope::Custom(_) => 7,
        };
        self.byte(tag);
        if let MemScope::Custom(name) = scope {
            self.str(name);
        }
    }

    fn for_kind(&mut self, kind: ForKind) {
        match kind {
            ForKind::Serial => self.byte(0),
            ForKind::Parallel => self.byte(1),
            ForKind::Vectorized => self.byte(2),
            ForKind::Unrolled => self.byte(3),
            ForKind::ThreadBinding(thread) => {
                self.byte(4);
                self.byte(thread as u8);
            }
        }
    }

    fn annotations(&mut self, annotations: &Annotations) {
        self.u64(annotations.len() as u64);
        for (k, v) in annotations {
            self.str(k);
            match v {
                AnnValue::Int(i) => {
                    self.byte(0);
                    self.i64(*i);
                }
                AnnValue::Str(s) => {
                    self.byte(1);
                    self.str(s);
                }
            }
        }
    }

    /// Tags a tree-node kind so different shapes never collide trivially.
    fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    fn var(&mut self, v: &Var) {
        let n = self.vars.len() as u64;
        let idx = *self.vars.entry(v.id()).or_insert(n);
        self.tag(1);
        self.u64(idx);
    }

    fn buffer(&mut self, b: &Buffer) {
        let n = self.bufs.len() as u64;
        let idx = *self.bufs.entry(b.id()).or_insert(n);
        self.tag(2);
        self.u64(idx);
        self.dtype(b.dtype());
        self.scope(b.scope());
        self.u64(b.shape().len() as u64);
        for &d in b.shape() {
            self.i64(d);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(v, d) => {
                self.tag(10);
                self.i64(*v);
                self.dtype(*d);
            }
            Expr::Float(v, d) => {
                self.tag(11);
                for b in v.to_bits().to_le_bytes() {
                    self.byte(b);
                }
                self.dtype(*d);
            }
            Expr::Str(s) => {
                self.tag(12);
                self.str(s);
            }
            Expr::Var(v) => {
                self.tag(13);
                self.var(v);
            }
            Expr::Cast(d, x) => {
                self.tag(14);
                self.dtype(*d);
                self.expr(x);
            }
            Expr::Bin(op, a, b) => {
                self.tag(15);
                self.byte(*op as u8);
                self.expr(a);
                self.expr(b);
            }
            Expr::Cmp(op, a, b) => {
                self.tag(16);
                self.byte(*op as u8);
                self.expr(a);
                self.expr(b);
            }
            Expr::Not(x) => {
                self.tag(17);
                self.expr(x);
            }
            Expr::Select { cond, then, other } => {
                self.tag(18);
                self.expr(cond);
                self.expr(then);
                self.expr(other);
            }
            Expr::Load { buffer, indices } => {
                self.tag(19);
                self.buffer(buffer);
                self.u64(indices.len() as u64);
                for i in indices {
                    self.expr(i);
                }
            }
            Expr::Call { name, args, dtype } => {
                self.tag(20);
                self.str(name);
                self.dtype(*dtype);
                self.u64(args.len() as u64);
                for a in args {
                    self.expr(a);
                }
            }
        }
    }

    fn region(&mut self, r: &BufferRegion) {
        self.tag(3);
        self.buffer(&r.buffer);
        self.u64(r.region.len() as u64);
        for dim in &r.region {
            self.expr(&dim.min);
            self.expr(&dim.extent);
        }
    }

    fn block(&mut self, b: &Block) {
        self.tag(4);
        self.str(&b.name);
        self.u64(b.iter_vars.len() as u64);
        for iv in &b.iter_vars {
            self.var(&iv.var);
            self.i64(iv.extent);
            self.byte(iv.kind as u8);
        }
        self.u64(b.alloc_buffers.len() as u64);
        for buf in &b.alloc_buffers {
            self.buffer(buf);
        }
        self.u64(b.reads.len() as u64);
        for r in &b.reads {
            self.region(r);
        }
        self.u64(b.writes.len() as u64);
        for w in &b.writes {
            self.region(w);
        }
        self.annotations(&b.annotations);
        match &b.init {
            Some(init) => {
                self.tag(5);
                self.stmt(init);
            }
            None => self.tag(6),
        }
        self.stmt(&b.body);
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.tag(30);
                self.buffer(buffer);
                self.u64(indices.len() as u64);
                for i in indices {
                    self.expr(i);
                }
                self.expr(value);
            }
            Stmt::Eval(e) => {
                self.tag(31);
                self.expr(e);
            }
            Stmt::Seq(stmts) => {
                self.tag(32);
                self.u64(stmts.len() as u64);
                for st in stmts {
                    self.stmt(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.tag(33);
                self.expr(cond);
                self.stmt(then_branch);
                match else_branch {
                    Some(e) => {
                        self.tag(5);
                        self.stmt(e);
                    }
                    None => self.tag(6),
                }
            }
            Stmt::For(f) => {
                self.tag(34);
                self.for_kind(f.kind);
                self.var(&f.var);
                self.expr(&f.extent);
                self.annotations(&f.annotations);
                self.stmt(&f.body);
            }
            Stmt::BlockRealize(br) => {
                self.tag(35);
                self.u64(br.iter_values.len() as u64);
                for v in &br.iter_values {
                    self.expr(v);
                }
                self.expr(&br.predicate);
                self.block(&br.block);
            }
        }
    }
}

/// Alpha-invariant structural hash of a function.
///
/// Guarantees `func_structural_eq(a, b)` implies
/// `structural_hash(a) == structural_hash(b)`: both number variables and
/// buffers by first occurrence rather than identity or name, and compare
/// or feed float literals by their bits. Collisions between
/// structurally different programs are possible but 2^-64-unlikely; the
/// auto-scheduler uses the hash to key its candidate-evaluation cache.
pub fn structural_hash(func: &PrimFunc) -> u64 {
    let mut h = StructHasher::new();
    h.u64(func.params.len() as u64);
    for p in &func.params {
        h.buffer(p);
    }
    h.stmt(&func.body);
    h.state
}

/// Structural (alpha) equality of two statements.
pub fn stmt_structural_eq(a: &Stmt, b: &Stmt) -> bool {
    Matcher::new().stmt(a, b)
}

/// Structural (alpha) equality of two functions, mapping parameter buffers
/// positionally.
pub fn func_structural_eq(a: &PrimFunc, b: &PrimFunc) -> bool {
    if a.params.len() != b.params.len() {
        return false;
    }
    let mut m = Matcher::new();
    for (x, y) in a.params.iter().zip(&b.params) {
        if !m.buffer(x, y) {
            return false;
        }
    }
    m.stmt(&a.body, &b.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;

    fn expr_structural_eq(a: &Expr, b: &Expr) -> bool {
        stmt_structural_eq(&Stmt::Eval(a.clone()), &Stmt::Eval(b.clone()))
    }

    #[test]
    fn alpha_equivalent_exprs() {
        let x1 = Var::int("x");
        let x2 = Var::int("different_name");
        let e1 = Expr::from(&x1) * 4 + Expr::from(&x1);
        let e2 = Expr::from(&x2) * 4 + Expr::from(&x2);
        assert!(expr_structural_eq(&e1, &e2));
        // Inconsistent renaming must fail.
        let y = Var::int("y");
        let e3 = Expr::from(&x2) * 4 + Expr::from(&y);
        assert!(!expr_structural_eq(&e1, &e3));
    }

    /// The best program of a 16-trial Ansor-strategy tune, on `sim_gpu`, of
    /// a 32³ GMM (float16 operands, float32 accumulator) fused with a GELU
    /// epilogue, as printed: thread bindings, block annotations,
    /// allocations (one in the `Custom` scope `fused`), an `init`, casts,
    /// an `erf` call, int and float literals.
    const TUNED: &str = r#"@T.prim_func
def gmm_gelu(A: T.Buffer((32, 32), "float16"), B: T.Buffer((32, 32), "float16"), D: T.Buffer((32, 32), "float32")):
    C_s0 = T.alloc_buffer((32, 32), "float32", scope="fused")
    A_shared = T.alloc_buffer((32, 32), "float16", scope="shared")
    B_shared = T.alloc_buffer((32, 32), "float16", scope="shared")
    for i0_i1_fused_0 in T.thread_binding(2, thread="blockIdx.x"):
        for i0_i1_fused_1 in T.thread_binding(256, thread="threadIdx.x"):
            for i0_i1_fused_2, k0_0, k0_1 in T.grid(2, 8, 4):
                for ax0, ax1 in T.grid(1, 1):
                    with T.block("B_shared"):
                        v0 = T.axis.spatial(32, k0_0 * 4 + k0_1 + ax0)
                        v1 = T.axis.spatial(32, ((i0_i1_fused_0 * 256 + i0_i1_fused_1) * 2 + i0_i1_fused_2) % 32 + ax1)
                        T.reads(B[v0, v1])
                        T.writes(B_shared[v0, v1])
                        T.block_attr({"auto_copy": 1})
                        T.block_attr({"tir.cooperative": 256})
                        T.block_attr({"tir.copy": 1})
                        B_shared[v0, v1] = B[v0, v1]
                for ax0, ax1 in T.grid(1, 1):
                    with T.block("A_shared"):
                        v0 = T.axis.spatial(32, ((i0_i1_fused_0 * 256 + i0_i1_fused_1) * 2 + i0_i1_fused_2) // 32 + ax0)
                        v1 = T.axis.spatial(32, k0_0 * 4 + k0_1 + ax1)
                        T.reads(A[v0, v1])
                        T.writes(A_shared[v0, v1])
                        T.block_attr({"auto_copy": 1})
                        T.block_attr({"tir.cooperative": 256})
                        T.block_attr({"tir.copy": 1})
                        A_shared[v0, v1] = A[v0, v1]
                with T.block("C"):
                    v0 = T.axis.spatial(32, ((i0_i1_fused_0 * 256 + i0_i1_fused_1) * 2 + i0_i1_fused_2) // 32)
                    v1 = T.axis.spatial(32, ((i0_i1_fused_0 * 256 + i0_i1_fused_1) * 2 + i0_i1_fused_2) % 32)
                    vk0 = T.axis.reduce(32, k0_0 * 4 + k0_1)
                    T.reads(A_shared[v0, vk0], B_shared[vk0, v1])
                    T.writes(C_s0[v0, v1])
                    with T.init():
                        C_s0[v0, v1] = 0.0
                    C_s0[v0, v1] = C_s0[v0, v1] + T.cast(A_shared[v0, vk0], "float32") * T.cast(B_shared[vk0, v1], "float32")
    for i0_i1_fused_0 in T.thread_binding(8, thread="blockIdx.x"):
        for i0_i1_fused_1 in T.thread_binding(32, thread="threadIdx.x"):
            for i0_i1_fused_2 in range(4):
                with T.block("gelu0"):
                    v0 = T.axis.spatial(32, ((i0_i1_fused_0 * 32 + i0_i1_fused_1) * 4 + i0_i1_fused_2) // 32)
                    v1 = T.axis.spatial(32, ((i0_i1_fused_0 * 32 + i0_i1_fused_1) * 4 + i0_i1_fused_2) % 32)
                    T.reads(C_s0[v0, v1])
                    T.writes(D[v0, v1])
                    D[v0, v1] = 0.5 * C_s0[v0, v1] * (1.0 + T.erf(C_s0[v0, v1] * 0.7071067811865476))
"#;

    fn parse(text: &str) -> PrimFunc {
        crate::parser::parse_func(text).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    /// [`TUNED`] with the first `from` replaced by `to`.
    fn edited(from: &str, to: &str) -> PrimFunc {
        assert!(TUNED.contains(from), "{from}");
        parse(&TUNED.replacen(from, to, 1))
    }

    /// `func` with `edit` applied to its expressions in walk order until
    /// the first one it changes (it returns whether it did).
    fn with_first_expr(func: &PrimFunc, edit: impl FnMut(&mut Expr) -> bool) -> PrimFunc {
        use crate::visit::{ExprMutator, StmtMutator};
        struct First<F>(F, bool);
        impl<F: FnMut(&mut Expr) -> bool> ExprMutator for First<F> {
            fn mutate_expr(&mut self, e: &mut Expr) {
                if !self.1 {
                    self.1 = (self.0)(e);
                    self.walk_expr(e);
                }
            }
        }
        impl<F: FnMut(&mut Expr) -> bool> StmtMutator for First<F> {}
        let mut body = Stmt::clone(&func.body);
        let mut first = First(edit, false);
        first.mutate_stmt(&mut body);
        assert!(first.1, "no expression to edit");
        PrimFunc::new(func.name.clone(), func.params.clone(), body)
    }

    /// Every field the matcher compares, changed alone in a tuned program,
    /// separates it from the original under both `func_structural_eq` and
    /// `structural_hash`; an alpha-renamed copy does not.
    #[test]
    fn every_compared_field_separates_a_tuned_program() {
        let tuned = parse(TUNED);
        let renamed = [
            ("vk0", "r"),
            ("k0_", "kk"),
            ("i0_i1_fused_", "t"),
            // Buffers, not the blocks that share their names.
            ("_shared[", "_smem["),
            ("_shared = ", "_smem = "),
            ("C_s0", "acc"),
            ("D[", "Out["),
            ("D: ", "Out: "),
            ("gmm_gelu", "other"),
        ]
        .iter()
        .fold(TUNED.to_string(), |text, (from, to)| {
            assert!(text.contains(from), "{from}");
            text.replace(from, to)
        });
        assert_ne!(renamed, TUNED);
        let renamed = parse(&renamed);
        assert!(func_structural_eq(&tuned, &renamed));
        assert!(func_structural_eq(&renamed, &tuned));
        assert_eq!(structural_hash(&tuned), structural_hash(&renamed));

        let retyped = |pick: fn(&mut Expr) -> Option<&mut DataType>, to| {
            with_first_expr(&tuned, move |e| pick(e).map(|d| *d = to).is_some())
        };
        // The parser refuses a region of another rank than its buffer's.
        let rank_three = {
            let root = tuned.root_block().expect("a root block");
            let old = root.alloc_buffers.iter().find(|b| b.name() == "A_shared");
            let old = old.expect("A_shared").clone();
            let new = Buffer::with_scope(
                "A_shared",
                old.dtype(),
                vec![32, 32, 1],
                old.scope().clone(),
            );
            let mut body = Stmt::clone(&tuned.body);
            crate::visit::replace_buffers(&mut body, &HashMap::from([(old, new)]));
            PrimFunc::new(tuned.name.clone(), tuned.params.clone(), body)
        };
        fn int(e: &mut Expr) -> Option<&mut DataType> {
            match e {
                // Not a predicate's `true`.
                Expr::Int(_, d) if *d == DataType::int32() => Some(d),
                _ => None,
            }
        }
        fn float(e: &mut Expr) -> Option<&mut DataType> {
            match e {
                Expr::Float(_, d) => Some(d),
                _ => None,
            }
        }
        fn call(e: &mut Expr) -> Option<&mut DataType> {
            match e {
                Expr::Call { dtype, .. } => Some(dtype),
                _ => None,
            }
        }
        let init =
            "with T.init():\n                        C_s0[v0, v1] = 0.0\n                    ";
        let variants = [
            ("int literal dtype", retyped(int, DataType::int64())),
            ("float literal dtype", retyped(float, DataType::float16())),
            ("call dtype", retyped(call, DataType::float16())),
            // The first allocation in `shared` is `A_shared`.
            (
                "buffer dtype",
                edited(r#""float16", scope="s"#, r#""float32", scope="s"#),
            ),
            (
                "buffer scope",
                edited(r#"scope="shared""#, r#"scope="local""#),
            ),
            (
                "buffer dims",
                edited(r#"32), "float16", scope"#, r#"64), "float16", scope"#),
            ),
            ("buffer rank", rank_three),
            (
                "custom scope text",
                edited(r#"scope="fused""#, r#"scope="fusex""#),
            ),
            ("for kind", edited("in range(4):", "in T.unroll(4):")),
            ("thread tag", edited("threadIdx.x", "threadIdx.y")),
            (
                "annotation key",
                edited("tir.cooperative", "tir.cooperating"),
            ),
            (
                "annotation value",
                edited(r#"cooperative": 256"#, r#"cooperative": 128"#),
            ),
            (
                "annotation value kind",
                edited(r#"copy": 1"#, r#"copy": "1""#),
            ),
            ("iter kind", edited("T.axis.reduce(", "T.axis.spatial(")),
            (
                "iter extent",
                edited("T.axis.reduce(32,", "T.axis.reduce(64,"),
            ),
            ("block name", edited(r#""gelu0""#, r#""gelu1""#)),
            ("init present", edited(init, "")),
        ];
        for (field, variant) in &variants {
            assert!(!func_structural_eq(&tuned, variant), "{field}: equal");
            assert!(
                !func_structural_eq(variant, &tuned),
                "{field}: equal reversed"
            );
            assert_ne!(
                structural_hash(&tuned),
                structural_hash(variant),
                "{field}: same hash"
            );
        }
    }

    #[test]
    fn structural_hash_is_alpha_invariant() {
        use crate::builder::matmul_func;
        // Independently constructed, alpha-equivalent programs hash
        // identically; different shapes or dtypes do not.
        let a = matmul_func("mm", 64, 64, 64, DataType::float16());
        let b = matmul_func("other", 64, 64, 64, DataType::float16());
        let c = matmul_func("mm", 64, 64, 32, DataType::float16());
        let d = matmul_func("mm", 64, 64, 64, DataType::float32());
        assert!(func_structural_eq(&a, &b));
        assert_eq!(structural_hash(&a), structural_hash(&b));
        assert_ne!(structural_hash(&a), structural_hash(&c));
        assert_ne!(structural_hash(&a), structural_hash(&d));
    }

    #[test]
    fn structural_hash_tracks_inconsistent_renaming() {
        let x1 = Var::int("x");
        let x2 = Var::int("y");
        let a = Buffer::new("A", DataType::float32(), vec![64]);
        // x*4 + x vs x*4 + y: structurally different, must hash apart.
        let mk = |e: Expr| {
            Stmt::store(
                a.clone(),
                vec![Expr::int(0)],
                Expr::f32(0.0) + e.cast(DataType::float32()),
            )
        };
        let same = mk(Expr::from(&x1) * 4 + Expr::from(&x1));
        let diff = mk(Expr::from(&x1) * 4 + Expr::from(&x2));
        let fa = PrimFunc::new("f", vec![a.clone()], same);
        let fb = PrimFunc::new("f", vec![a.clone()], diff);
        assert_ne!(structural_hash(&fa), structural_hash(&fb));
    }

    /// Pairs a one-way, `==`-on-floats matcher got wrong: sibling loops over
    /// two variables against the same loops reusing one (equal left to
    /// right only), a NaN literal (not equal to itself), and `0.0` against
    /// `-0.0` (equal, but hashed apart).
    fn matcher_seams() -> Vec<(&'static str, PrimFunc, PrimFunc)> {
        let a = Buffer::new("A", DataType::float32(), vec![4]);
        let store = |i: &Var, value: f32| {
            Stmt::store(a.clone(), vec![Expr::from(i)], Expr::f32(value)).in_loop(i.clone(), 4)
        };
        let func = |body: Stmt| PrimFunc::new("f", vec![a.clone()], body);
        let (i, j, k) = (Var::int("i"), Var::int("j"), Var::int("k"));
        let two_vars = func(Stmt::seq(vec![store(&i, 0.0), store(&j, 1.0)]));
        let one_var = func(Stmt::seq(vec![store(&k, 0.0), store(&k, 1.0)]));
        let fill = |value: f32| func(store(&Var::int("i"), value));
        vec![
            ("sibling loops", two_vars, one_var),
            ("NaN", fill(f32::NAN), fill(f32::NAN)),
            ("signed zero", fill(0.0), fill(-0.0)),
        ]
    }

    #[test]
    fn structural_equality_is_symmetric() {
        for (name, a, b) in matcher_seams() {
            assert_eq!(
                func_structural_eq(&a, &b),
                func_structural_eq(&b, &a),
                "{name}"
            );
        }
    }

    #[test]
    fn structural_equality_is_reflexive() {
        for (name, a, b) in matcher_seams() {
            assert!(func_structural_eq(&a, &a), "{name}: left");
            assert!(func_structural_eq(&b, &b), "{name}: right");
        }
    }

    #[test]
    fn structural_equality_implies_equal_hash() {
        for (name, a, b) in matcher_seams() {
            if func_structural_eq(&a, &b) {
                assert_eq!(structural_hash(&a), structural_hash(&b), "{name}");
            }
        }
    }

    #[test]
    fn stmt_equality_with_loops() {
        let a = Buffer::new("A", DataType::float32(), vec![8]);
        let mk = |buf: &Buffer| {
            let i = Var::int("i");
            Stmt::store(
                buf.clone(),
                vec![Expr::from(&i)],
                buf.load(vec![Expr::from(&i)]) + Expr::f32(1.0),
            )
            .in_loop(i, 8)
        };
        assert!(stmt_structural_eq(&mk(&a), &mk(&a)));
        let b = Buffer::new("B", DataType::float32(), vec![7]);
        assert!(!stmt_structural_eq(&mk(&a), &mk(&b)));
    }
}
