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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::BuildHasherDefault;

use crate::buffer::{Buffer, BufferRegion, MemScope};
use crate::dtype::{DataType, TypeCode};
use crate::expr::{BinOp, CmpOp, Expr, IdHasher, Var};
use crate::func::PrimFunc;
use crate::stmt::{AnnValue, Annotations, Block, BlockRealize, ForKind, IterKind, Stmt, ThreadTag};

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

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// What feeding one fixed byte string does to any FNV-1a state, as a
/// multiplication and a table lookup instead of a step per byte.
///
/// A step is `s' = (s ^ b) * P`. The xor reaches only the low byte of `s`,
/// and whatever sits above it is multiplied through unchanged, so by
/// induction the state after `n` bytes is
/// `(s & !0xff) * P^n + run[s & 0xff]`, where `run[l]` is the plain
/// byte-by-byte result started from state `l`. The hasher feeds the same
/// few strings (a `Debug` rendering behind its length, the zero bytes of a
/// small `u64`) thousands of times per program; their tables are built at
/// compile time.
struct Fixed {
    pow: u64,
    run: [u64; 256],
}

impl Fixed {
    /// The table for `head` followed by `tail`.
    const fn new(head: &[u8], tail: &[u8]) -> Fixed {
        let mut run = [0; 256];
        let mut low = 0;
        while low < run.len() {
            let mut state = low as u64;
            let mut i = 0;
            while i < head.len() + tail.len() {
                let b = if i < head.len() {
                    head[i]
                } else {
                    tail[i - head.len()]
                };
                state = (state ^ b as u64).wrapping_mul(FNV_PRIME);
                i += 1;
            }
            run[low] = state;
            low += 1;
        }
        let mut pow: u64 = 1;
        let mut i = 0;
        while i < head.len() + tail.len() {
            pow = pow.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        Fixed { pow, run }
    }

    /// The table for what [`StructHasher::str`] feeds for `s`: its length
    /// as a little-endian `u64`, then its bytes.
    const fn str(s: &str) -> Fixed {
        Fixed::new(&(s.len() as u64).to_le_bytes(), s.as_bytes())
    }
}

/// The compile-time [`Fixed`] table of [`StructHasher::str`] of a literal.
macro_rules! fixed_str {
    ($text:literal) => {{
        static TABLE: Fixed = Fixed::str($text);
        &TABLE
    }};
}

/// Decimal digits of `v`, as `{v}` prints them.
fn decimal(v: i64, buf: &mut [u8; 20]) -> &str {
    let mut rest = v.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    std::str::from_utf8(&buf[at..]).expect("ascii digits")
}

/// FNV-1a accumulator with first-occurrence numbering of variables and
/// buffers, so alpha-equivalent programs produce identical hashes.
///
/// The byte stream is part of the on-disk formats (hash values are stored
/// in search checkpoints and pinned by golden files): data types,
/// operators, scopes, iterator and loop kinds and annotation values go in
/// as the text their derived `Debug` prints. Those texts come from a
/// handful of distinct values, so the `debug_*` methods below feed them
/// from static [`Fixed`] tables instead of running a formatter into a
/// fresh `String` per node; `debug_renderings_match_derived_debug` holds
/// them to what `{:?}` prints.
struct StructHasher {
    state: u64,
    vars: IdMap<u64>,
    bufs: IdMap<u64>,
}

/// Adapters that count, then feed, formatter output: the length prefix of
/// [`StructHasher::str`] has to go in before the bytes.
struct CountBytes(u64);
impl fmt::Write for CountBytes {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}
struct FeedBytes<'a>(&'a mut StructHasher);
impl fmt::Write for FeedBytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.bytes(s);
        Ok(())
    }
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
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Feeds the bytes `table` was built from.
    fn fixed(&mut self, table: &Fixed) {
        let low = (self.state & 0xff) as usize;
        self.state = (self.state & !0xff)
            .wrapping_mul(table.pow)
            .wrapping_add(table.run[low]);
    }

    fn bytes(&mut self, s: &str) {
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        static ZEROS: Fixed = Fixed::new(&[0; 7], &[]);
        match u8::try_from(v) {
            // Lengths, first-occurrence numbers, most constants.
            Ok(low) => {
                self.byte(low);
                self.fixed(&ZEROS);
            }
            Err(_) => v.to_le_bytes().into_iter().for_each(|b| self.byte(b)),
        }
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.str_parts(&[s]);
    }

    /// [`StructHasher::str`] of the concatenation of `parts`.
    fn str_parts(&mut self, parts: &[&str]) {
        self.u64(parts.iter().map(|p| p.len() as u64).sum());
        for p in parts {
            self.bytes(p);
        }
    }

    /// `str(&format!("{v:?}"))` without the `String`: the formatter runs
    /// twice, once to count. For the values that carry free text.
    fn debug(&mut self, v: &dyn fmt::Debug) {
        let mut len = CountBytes(0);
        write!(len, "{v:?}").expect("counting cannot fail");
        self.u64(len.0);
        write!(FeedBytes(self), "{v:?}").expect("hashing cannot fail");
    }

    fn debug_dtype(&mut self, d: DataType) {
        // The types programs are made of have a table each; any other is
        // spelled out.
        let table = match (d.code(), d.bits(), d.lanes()) {
            (TypeCode::Int, 32, 1) => fixed_str!("DataType { code: Int, bits: 32, lanes: 1 }"),
            (TypeCode::Int, 64, 1) => fixed_str!("DataType { code: Int, bits: 64, lanes: 1 }"),
            (TypeCode::Int, 8, 1) => fixed_str!("DataType { code: Int, bits: 8, lanes: 1 }"),
            (TypeCode::Float, 16, 1) => fixed_str!("DataType { code: Float, bits: 16, lanes: 1 }"),
            (TypeCode::Float, 32, 1) => fixed_str!("DataType { code: Float, bits: 32, lanes: 1 }"),
            (TypeCode::Bool, 1, 1) => fixed_str!("DataType { code: Bool, bits: 1, lanes: 1 }"),
            _ => return self.spell_dtype(d),
        };
        self.fixed(table);
    }

    fn spell_dtype(&mut self, d: DataType) {
        let code = match d.code() {
            TypeCode::Int => "Int",
            TypeCode::UInt => "UInt",
            TypeCode::Float => "Float",
            TypeCode::BFloat => "BFloat",
            TypeCode::Bool => "Bool",
            TypeCode::Handle => "Handle",
        };
        let (mut bits, mut lanes) = ([0; 20], [0; 20]);
        self.str_parts(&[
            "DataType { code: ",
            code,
            ", bits: ",
            decimal(d.bits().into(), &mut bits),
            ", lanes: ",
            decimal(d.lanes().into(), &mut lanes),
            " }",
        ]);
    }

    fn debug_bin_op(&mut self, op: BinOp) {
        self.fixed(match op {
            BinOp::Add => fixed_str!("Add"),
            BinOp::Sub => fixed_str!("Sub"),
            BinOp::Mul => fixed_str!("Mul"),
            BinOp::Div => fixed_str!("Div"),
            BinOp::FloorDiv => fixed_str!("FloorDiv"),
            BinOp::FloorMod => fixed_str!("FloorMod"),
            BinOp::Min => fixed_str!("Min"),
            BinOp::Max => fixed_str!("Max"),
            BinOp::And => fixed_str!("And"),
            BinOp::Or => fixed_str!("Or"),
        });
    }

    fn debug_cmp_op(&mut self, op: CmpOp) {
        self.fixed(match op {
            CmpOp::Eq => fixed_str!("Eq"),
            CmpOp::Ne => fixed_str!("Ne"),
            CmpOp::Lt => fixed_str!("Lt"),
            CmpOp::Le => fixed_str!("Le"),
            CmpOp::Gt => fixed_str!("Gt"),
            CmpOp::Ge => fixed_str!("Ge"),
        });
    }

    fn debug_scope(&mut self, scope: &MemScope) {
        self.fixed(match scope {
            MemScope::Global => fixed_str!("Global"),
            MemScope::Shared => fixed_str!("Shared"),
            MemScope::Local => fixed_str!("Local"),
            MemScope::Warp => fixed_str!("Warp"),
            MemScope::WmmaMatrixA => fixed_str!("WmmaMatrixA"),
            MemScope::WmmaMatrixB => fixed_str!("WmmaMatrixB"),
            MemScope::WmmaAccumulator => fixed_str!("WmmaAccumulator"),
            MemScope::Custom(_) => return self.debug(scope),
        });
    }

    fn debug_iter_kind(&mut self, kind: IterKind) {
        self.fixed(match kind {
            IterKind::Spatial => fixed_str!("Spatial"),
            IterKind::Reduce => fixed_str!("Reduce"),
        });
    }

    fn debug_for_kind(&mut self, kind: ForKind) {
        use ThreadTag::*;
        self.fixed(match kind {
            ForKind::Serial => fixed_str!("Serial"),
            ForKind::Parallel => fixed_str!("Parallel"),
            ForKind::Vectorized => fixed_str!("Vectorized"),
            ForKind::Unrolled => fixed_str!("Unrolled"),
            ForKind::ThreadBinding(BlockIdxX) => fixed_str!("ThreadBinding(BlockIdxX)"),
            ForKind::ThreadBinding(BlockIdxY) => fixed_str!("ThreadBinding(BlockIdxY)"),
            ForKind::ThreadBinding(BlockIdxZ) => fixed_str!("ThreadBinding(BlockIdxZ)"),
            ForKind::ThreadBinding(ThreadIdxX) => fixed_str!("ThreadBinding(ThreadIdxX)"),
            ForKind::ThreadBinding(ThreadIdxY) => fixed_str!("ThreadBinding(ThreadIdxY)"),
            ForKind::ThreadBinding(ThreadIdxZ) => fixed_str!("ThreadBinding(ThreadIdxZ)"),
            ForKind::ThreadBinding(Vthread) => fixed_str!("ThreadBinding(Vthread)"),
        });
    }

    fn annotations(&mut self, annotations: &Annotations) {
        self.u64(annotations.len() as u64);
        for (k, v) in annotations {
            self.str(k);
            match v {
                AnnValue::Int(i) => self.str_parts(&["Int(", decimal(*i, &mut [0; 20]), ")"]),
                AnnValue::Str(_) => self.debug(v),
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
        self.debug_dtype(b.dtype());
        self.debug_scope(b.scope());
        for &d in b.shape() {
            self.i64(d);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(v, d) => {
                self.tag(10);
                self.i64(*v);
                self.debug_dtype(*d);
            }
            Expr::Float(v, d) => {
                self.tag(11);
                self.u64(v.to_bits());
                self.debug_dtype(*d);
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
                self.debug_dtype(*d);
                self.expr(x);
            }
            Expr::Bin(op, a, b) => {
                self.tag(15);
                self.debug_bin_op(*op);
                self.expr(a);
                self.expr(b);
            }
            Expr::Cmp(op, a, b) => {
                self.tag(16);
                self.debug_cmp_op(*op);
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
                self.debug_dtype(*dtype);
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
            self.debug_iter_kind(iv.kind);
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
                self.debug_for_kind(f.kind);
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

    #[test]
    fn buffers_compare_by_shape_dtype_scope() {
        let a1 = Buffer::new("A", DataType::float32(), vec![4]);
        let a2 = Buffer::new("Z", DataType::float32(), vec![4]);
        let a3 = Buffer::new("A", DataType::float16(), vec![4]);
        let l = |b: &Buffer| b.load(vec![Expr::int(0)]);
        assert!(expr_structural_eq(&l(&a1), &l(&a2)));
        assert!(!expr_structural_eq(&l(&a1), &l(&a3)));
    }

    /// Regression: the matcher used to ignore a call's result type while
    /// the hasher fed it, so programs it called equal hashed apart.
    #[test]
    fn calls_differing_only_in_dtype_are_not_equal() {
        let a = Buffer::new("A", DataType::float32(), vec![4]);
        let call = |dtype| Expr::Call {
            name: "exp".into(),
            args: vec![a.load(vec![Expr::int(0)])],
            dtype,
        };
        let func = |dtype| PrimFunc::new("f", vec![a.clone()], Stmt::Eval(call(dtype)));
        let (as_f32, as_f16) = (func(DataType::float32()), func(DataType::float16()));
        assert!(func_structural_eq(&as_f32, &func(DataType::float32())));
        assert_ne!(structural_hash(&as_f32), structural_hash(&as_f16));
        assert!(!func_structural_eq(&as_f32, &as_f16));
        assert!(!expr_structural_eq(
            &call(DataType::float32()),
            &call(DataType::float16())
        ));
    }

    /// A `Fixed` table takes any state where the byte-by-byte loop takes it.
    #[test]
    fn fixed_tables_match_bytewise_fnv() {
        static TEXT: Fixed = Fixed::str("DataType { code: Int, bits: 32, lanes: 1 }");
        static EMPTY: Fixed = Fixed::str("");
        static ZEROS: Fixed = Fixed::new(&[0; 7], &[]);
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        for round in 0..2000u64 {
            // Every low byte, under changing upper bits.
            state = (state.wrapping_mul(0x9e37_79b9_7f4a_7c15) & !0xff) | (round & 0xff);
            let start = || StructHasher {
                state,
                ..StructHasher::new()
            };
            let (mut a, mut b) = (start(), start());
            a.fixed(&TEXT);
            b.u64(42);
            b.bytes("DataType { code: Int, bits: 32, lanes: 1 }");
            assert_eq!(a.state, b.state);
            let (mut a, mut b) = (start(), start());
            a.fixed(&EMPTY);
            a.fixed(&ZEROS);
            (0..15).for_each(|_| b.byte(0));
            assert_eq!(a.state, b.state);
            // `u64` takes the table for small values and the loop for large.
            for v in [0, 1, 255, 256, u64::MAX, round << 20] {
                let (mut a, mut b) = (start(), start());
                a.u64(v);
                v.to_le_bytes().into_iter().for_each(|x| b.byte(x));
                assert_eq!(a.state, b.state, "u64({v})");
            }
        }
    }

    /// The hasher feeds `Debug` renderings from static tables; every one
    /// must feed exactly what `str(&format!("{v:?}"))` fed before.
    #[test]
    fn debug_renderings_match_derived_debug() {
        fn same(fast: impl FnOnce(&mut StructHasher), v: &dyn fmt::Debug) {
            let (mut a, mut b) = (StructHasher::new(), StructHasher::new());
            fast(&mut a);
            b.str(&format!("{v:?}"));
            assert_eq!(a.state, b.state, "{v:?}");
            let mut c = StructHasher::new();
            c.debug(v);
            assert_eq!(c.state, b.state, "two-pass formatter path, {v:?}");
        }
        let codes = [
            TypeCode::Int,
            TypeCode::UInt,
            TypeCode::Float,
            TypeCode::BFloat,
            TypeCode::Bool,
            TypeCode::Handle,
        ];
        for code in codes {
            let widths = [
                (1, 1),
                (8, 1),
                (8, 4),
                (16, 1),
                (32, 1),
                (32, 16),
                (64, 1),
                (255, 65535),
            ];
            for (bits, lanes) in widths {
                let d = DataType::new(code, bits, lanes);
                same(|h| h.debug_dtype(d), &d);
            }
        }
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, FloorDiv, FloorMod, Min, Max, And, Or] {
            same(|h| h.debug_bin_op(op), &op);
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            same(|h| h.debug_cmp_op(op), &op);
        }
        for kind in [IterKind::Spatial, IterKind::Reduce] {
            same(|h| h.debug_iter_kind(kind), &kind);
        }
        let tags = [
            ThreadTag::BlockIdxX,
            ThreadTag::BlockIdxY,
            ThreadTag::BlockIdxZ,
            ThreadTag::ThreadIdxX,
            ThreadTag::ThreadIdxY,
            ThreadTag::ThreadIdxZ,
            ThreadTag::Vthread,
        ];
        let kinds = [
            ForKind::Serial,
            ForKind::Parallel,
            ForKind::Vectorized,
            ForKind::Unrolled,
        ];
        for kind in kinds.into_iter().chain(tags.map(ForKind::ThreadBinding)) {
            same(|h| h.debug_for_kind(kind), &kind);
        }
        for name in [
            "global",
            "shared",
            "local",
            "warp",
            "wmma.matrix_a",
            "wmma.matrix_b",
            "wmma.accumulator",
            "arm.\"interleaved\"\n",
        ] {
            let scope = MemScope::from_name(name);
            same(|h| h.debug_scope(&scope), &scope);
        }
        for value in [
            AnnValue::Int(0),
            AnnValue::Int(-17),
            AnnValue::Int(i64::MIN),
            AnnValue::Int(i64::MAX),
            AnnValue::Str("warp".into()),
            AnnValue::Str("a \"quoted\"\tvalue\\".into()),
        ] {
            let mut anns = Annotations::new();
            anns.insert("k".into(), value.clone());
            let mut a = StructHasher::new();
            a.annotations(&anns);
            let mut b = StructHasher::new();
            b.u64(1);
            b.str("k");
            b.str(&format!("{value:?}"));
            assert_eq!(a.state, b.state, "{value:?}");
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
