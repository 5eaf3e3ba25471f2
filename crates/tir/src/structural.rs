//! Alpha-equivalence (structural equality and hashing) of programs.
//!
//! Two programs are structurally equal when they are identical up to a
//! one-to-one renaming of variables and buffers. Used heavily by schedule
//! tests: a transformation and its hand-written expected output never share
//! variable identities, so plain `==` would always fail.
//!
//! One encoder defines that identity: it writes a program as an explicit,
//! prefix-free byte stream, variables and buffers numbered by first
//! occurrence (`Encoder`). Two programs are structurally equal exactly
//! when their streams are equal — equal streams number their variables and
//! buffers alike, which pairs them one to one. The encoder feeds four
//! consumers, so they cannot disagree:
//!
//! * an FNV-1a fold, [`structural_hash`], which keys caches of per-program
//!   results (the auto-scheduler's candidate-evaluation cache recognizes
//!   that two decision vectors materialized the same program);
//! * a byte vector, [`structural_stream`], the stream itself;
//! * its lowercase hex, [`structural_hex`], the tuning database's key;
//! * a comparison against a recorded stream, [`matches_stream`], which
//!   builds no stream of its own.
//!
//! [`func_structural_eq`] and [`stmt_structural_eq`] record one side and
//! compare the other against it. The stream and its hash are the same
//! across runs, threads and builds, but free to change between commits: a
//! file that stores hashes carries a format version, as the search
//! checkpoint does.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::buffer::{Buffer, BufferRegion, MemScope};
use crate::dtype::DataType;
use crate::expr::{Expr, IdHasher, Var};
use crate::func::PrimFunc;
use crate::stmt::{AnnValue, Annotations, Block, ForKind, Stmt};

type IdMap<V> = HashMap<usize, V, BuildHasherDefault<IdHasher>>;

/// Where the encoder's bytes go.
trait Sink {
    fn byte(&mut self, b: u8);
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        // The offset basis.
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Sink for Fnv {
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
}

impl Sink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
}

/// A `String` takes the stream as lowercase hex, two digits a byte.
impl Sink for String {
    fn byte(&mut self, b: u8) {
        let digit = |d: u8| char::from(b"0123456789abcdef"[usize::from(d)]);
        self.push(digit(b >> 4));
        self.push(digit(b & 15));
    }
}

/// A comparison against a recorded stream: the bytes still to be met,
/// `None` once one differed.
struct Expect<'a>(Option<&'a [u8]>);

impl Expect<'_> {
    /// Whether the walk fed exactly the recorded stream.
    fn matched(&self) -> bool {
        self.0 == Some(&[])
    }
}

impl Sink for Expect<'_> {
    fn byte(&mut self, b: u8) {
        self.0 = match self.0 {
            Some([first, rest @ ..]) if *first == b => Some(rest),
            _ => None,
        };
    }
}

/// Writes a prefix-free encoding of a program to a [`Sink`], with
/// variables and buffers numbered by first occurrence so that
/// alpha-equivalent programs produce identical streams.
///
/// Every value is self-delimiting, so two different trees never feed the
/// same byte stream: a tree node or an enum value is one tag byte (a
/// `ThreadBinding` loop kind is followed by its
/// [`ThreadTag`](crate::stmt::ThreadTag), a `Custom` scope and a string
/// annotation by their text), text goes in behind its length, a data type
/// as its code, bits and lanes, an integer as LEB128 (an `i64` zig-zagged
/// first), a float literal as its 8 raw bytes, and every list — a buffer's
/// shape too — behind its length. Names are not encoded.
struct Encoder<S> {
    sink: S,
    vars: IdMap<u64>,
    bufs: IdMap<u64>,
}

impl<S: Sink> Encoder<S> {
    /// Room for 32 variables and 8 buffers, more than most kernels have:
    /// growing the maps mid-walk costs more than the walk.
    fn new(sink: S) -> Self {
        Encoder {
            sink,
            vars: IdMap::with_capacity_and_hasher(32, Default::default()),
            bufs: IdMap::with_capacity_and_hasher(8, Default::default()),
        }
    }

    fn byte(&mut self, b: u8) {
        self.sink.byte(b);
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

    /// A function is its parameter buffers, in order, and its body; its
    /// name is not encoded.
    fn func(&mut self, func: &PrimFunc) {
        self.u64(func.params.len() as u64);
        for p in &func.params {
            self.buffer(p);
        }
        self.stmt(&func.body);
    }
}

/// What `sink` holds after `root` fed it one program.
fn encode<S: Sink>(sink: S, root: impl FnOnce(&mut Encoder<S>)) -> S {
    let mut encoder = Encoder::new(sink);
    root(&mut encoder);
    encoder.sink
}

/// Alpha-invariant structural hash of a function: FNV-1a over its
/// [`structural_stream`], folded as the encoder walks (the stream is never
/// built). Structurally equal functions hash equally by construction;
/// structurally different ones collide with 2^-64 likelihood.
pub fn structural_hash(func: &PrimFunc) -> u64 {
    encode(Fnv::new(), |e| e.func(func)).0
}

/// The byte stream that is `func`'s structural identity: two functions
/// have equal streams exactly when [`func_structural_eq`] holds. A caller
/// that meets many programs keeps a known program's stream instead of the
/// program and asks [`matches_stream`].
pub fn structural_stream(func: &PrimFunc) -> Vec<u8> {
    encode(Vec::new(), |e| e.func(func))
}

/// [`structural_stream`] as lowercase hex, written as the encoder walks
/// into room for a 2 KiB stream, more than any untuned workload needs.
pub fn structural_hex(func: &PrimFunc) -> String {
    encode(String::with_capacity(4096), |e| e.func(func))
}

/// Whether `func`'s stream is `stream` — whether `func` is structurally
/// equal to the function `stream` was taken from — compared as the
/// encoder walks, without building `func`'s stream.
pub fn matches_stream(func: &PrimFunc, stream: &[u8]) -> bool {
    encode(Expect(Some(stream)), |e| e.func(func)).matched()
}

/// Structural (alpha) equality of two statements: equal streams.
pub fn stmt_structural_eq(a: &Stmt, b: &Stmt) -> bool {
    let stream = encode(Vec::new(), |e| e.stmt(a));
    encode(Expect(Some(&stream)), |e| e.stmt(b)).matched()
}

/// Structural (alpha) equality of two functions, parameter buffers mapped
/// positionally: equal streams.
pub fn func_structural_eq(a: &PrimFunc, b: &PrimFunc) -> bool {
    matches_stream(b, &structural_stream(a))
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

    /// [`TUNED`], an alpha-renamed copy of it, and copies of it with one
    /// field the stream encodes changed, each named by that field.
    fn tuned_variants() -> (PrimFunc, PrimFunc, Vec<(&'static str, PrimFunc)>) {
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
        let variants = vec![
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
        (tuned, renamed, variants)
    }

    /// Every field the stream encodes, changed alone in a tuned program,
    /// changes its stream, so it separates the program from the original
    /// under both `func_structural_eq` and `structural_hash`; an
    /// alpha-renamed copy has the original's stream.
    #[test]
    fn every_compared_field_separates_a_tuned_program() {
        let (tuned, renamed, variants) = tuned_variants();
        assert!(func_structural_eq(&tuned, &renamed));
        assert!(func_structural_eq(&renamed, &tuned));
        assert_eq!(structural_hash(&tuned), structural_hash(&renamed));
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

    /// Pairs a one-way, `==`-on-floats equality got wrong: sibling loops
    /// over two variables against the same loops reusing one (equal left
    /// to right only), a NaN literal (not equal to itself), and `0.0`
    /// against `-0.0` (equal, but hashed apart).
    fn equality_seams() -> Vec<(&'static str, PrimFunc, PrimFunc)> {
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
        for (name, a, b) in equality_seams() {
            assert_eq!(
                func_structural_eq(&a, &b),
                func_structural_eq(&b, &a),
                "{name}"
            );
        }
    }

    #[test]
    fn structural_equality_is_reflexive() {
        for (name, a, b) in equality_seams() {
            assert!(func_structural_eq(&a, &a), "{name}: left");
            assert!(func_structural_eq(&b, &b), "{name}: right");
        }
    }

    #[test]
    fn structural_equality_implies_equal_hash() {
        for (name, a, b) in equality_seams() {
            if func_structural_eq(&a, &b) {
                assert_eq!(structural_hash(&a), structural_hash(&b), "{name}");
            }
        }
    }

    /// One stream, three consumers: on the seam pairs and the tuned
    /// variants, `structural_hash` is FNV-1a over the stream, and the
    /// compare walk (so equality) answers what byte equality of the two
    /// streams answers, in both directions.
    #[test]
    fn hash_and_equality_are_functions_of_the_stream() {
        let (tuned, renamed, variants) = tuned_variants();
        let mut funcs = vec![tuned, renamed];
        funcs.extend(variants.into_iter().map(|(_, f)| f));
        funcs.extend(equality_seams().into_iter().flat_map(|(_, a, b)| [a, b]));
        let streams: Vec<Vec<u8>> = funcs.iter().map(structural_stream).collect();
        let mut equal_pairs = 0;
        for (f, stream) in funcs.iter().zip(&streams) {
            let mut fnv = Fnv::new();
            stream.iter().for_each(|&b| fnv.byte(b));
            assert_eq!(structural_hash(f), fnv.0, "{}", f.name);
            for (g, other) in funcs.iter().zip(&streams) {
                let same = stream == other;
                equal_pairs += usize::from(same);
                assert_eq!(matches_stream(g, stream), same, "{} / {}", f.name, g.name);
                assert_eq!(func_structural_eq(f, g), same, "{} / {}", f.name, g.name);
            }
        }
        // Each program with itself, and both ways round the renamed copy
        // with the original and the two NaN fills.
        assert_eq!(equal_pairs, funcs.len() + 4);
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
