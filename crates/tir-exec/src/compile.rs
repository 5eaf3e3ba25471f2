//! Lowering of [`PrimFunc`]s into register bytecode for the VM.
//!
//! The tree-walking interpreter pays a `HashMap` lookup per variable read,
//! a `HashMap` lookup per buffer access, and a fresh `Vec<i64>` per index
//! evaluation. This module removes all of that *once, at compile time*:
//!
//! * variables become dense slots in a flat frame (`Vec<f64>`),
//! * buffers become dense ids into a flat storage table,
//! * every load/store is lowered to precomputed row-major stride
//!   arithmetic — an index dimension affine over the variables in scope
//!   becomes `(frame slot, stride)` terms plus a static base offset, the
//!   rest evaluate into registers at the access,
//! * literal-only subtrees fold to one constant, a literal predicate or
//!   condition emits no test, and a literal loop extent rides in its
//!   `ForSetup` (`Extent::Lit`),
//! * control flow (loops, block predicates, reduction-init guards,
//!   `select`) becomes jumps over a flat `Op` array.
//!
//! Semantics are bit-identical to the tree-walker by construction: the
//! same `f64` arithmetic runs in the same order, errors
//! ([`ExecError`]) fire at the same evaluation points, and the fuel counter
//! ticks on exactly the same statements. Both bind variables lexically, and
//! the compiler refuses, as every executor does, a program that is not
//! well-formed ([`tir::well_formed()`]): every variable it reads has one
//! binder around it, so every read is a frame slot.
//!
//! **Addressing.** Every variable in scope has a *form*: what a read of it
//! sees, as `Σ round(frame[slot])·m + k`. A loop variable is its own slot;
//! a block iterator bound to an affine expression (`vi = i0*16 + i1`,
//! what schedule primitives leave behind) is that expression over the
//! forms of the variables it reads, so substitution goes through enclosing
//! blocks; an integer iterator bound to anything else is its own slot.
//! An integer `e // c` or `e % c` by a literal `c > 0` is a form too when
//! the literal extents of the enclosing loops prove it
//! (`Compiler::div_mod`): `e = c·q + r` with `0 ≤ r < c` on every
//! iteration makes `q` and `r` the floor quotient and remainder, over the
//! integers. Only loop extents count, never a block iterator's declared
//! domain, so the bytecode stays exact on programs the verifier rejects.
//! Reading a form is legal by lexical scope alone: a well-formed
//! program reads an iterator only inside its block, after its binding, and
//! no variable a form mentions is rebound there. Frame slots hold integers
//! (loop counters and integer bindings), so `round` distributes over the
//! sum and the `i64` offset is the one the tree-walker computes. The
//! binding's `SetVar` stays; the optimizer deletes it when nothing reads
//! the slot any more.
//!
//! Nothing is moved out of a loop. An index term invariant in an inner
//! loop would have to be invariant below the innermost binder of its
//! access, and in a block program that binder is the block itself: every
//! store sits in a block whose iterators index it.

use std::collections::HashMap;

use tir::simplify::{floor_div_i64, floor_mod_i64};
use tir::{BinOp, Block, BlockRealize, Buffer, CmpOp, DataType, Expr, IterKind, PrimFunc, Stmt};
use tir_arith::bound::IntBound;

use crate::interp::{ExecError, MathFn};
use crate::vm::{bin_eval, cast_val};

/// A `(start, len)` window into one of the [`Program`]'s shared dense
/// pools. Access sites used to own per-site `Box<[..]>` tables; pooling
/// them removes a pointer chase (and an allocation) per site on the hot
/// path and lets the optimizer compare and rewrite index terms in place.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct PoolRange {
    pub start: u32,
    pub len: u32,
}

impl PoolRange {
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Arithmetic flavor of a binary op, resolved from static operand dtypes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    /// True division, float semantics (no zero check).
    DivF,
    /// True division on integers: truncating, zero-checked.
    DivI,
    FloorDivF,
    FloorDivI,
    FloorModF,
    FloorModI,
    Min,
    Max,
    And,
    Or,
}

/// One lowered buffer access site: `offset = base +
/// Σ round(reg) * stride + Σ round(frame_slot) * stride`.
///
/// All variable-length tables live in the [`Program`]'s shared dense
/// pools; the access itself is a small `Copy` record. The compiler writes
/// an affine index dimension as slot terms (canonical: sorted by slot, one
/// term per slot, no zero stride), so structurally equal accesses have
/// equal pool contents; only the other dimensions are register terms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Access {
    /// Dense buffer id.
    pub buf: u32,
    /// Compile-time-folded part of the offset (constant index dims).
    pub base: i64,
    /// Range in [`Program::reg_pool`]: `(register, stride)` index terms.
    pub regs: PoolRange,
    /// Range in [`Program::slot_pool`]: `(frame slot, stride)` index
    /// terms read straight from the variable frame.
    pub slots: PoolRange,
    /// Range in [`Program::race_pool`]: loop ids of every enclosing
    /// parallel loop (outermost first) — the iteration signature the
    /// sanitizer tracks races over. Empty outside every parallel loop and
    /// for a relaxed buffer: the sanitizer tracks only a non-empty one.
    pub race: PoolRange,
}

/// One fused multiply-accumulate statement:
/// `acc = load(acc) <k2> (cast_a(load(a)) <k1> cast_b(load(b)))`.
///
/// Loads evaluate in the order `acc, a, b` — exactly the order the
/// unfused `Load; Load; [Cast]; Load; [Cast]; Bin; Bin; Store` sequence
/// evaluates them, so errors (and sanitizer shadow updates) fire at the
/// same points. The surrounding `Tick` stays a separate op, so fuel
/// accounting is untouched.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct MacSpec {
    /// Accumulator access: loaded, combined, stored back.
    pub acc: u32,
    /// First operand access.
    pub a: u32,
    /// Quantization applied to the `a` operand after the load, if any.
    pub a_cast: Option<(DataType, bool)>,
    /// Second operand access.
    pub b: u32,
    /// Quantization applied to the `b` operand after the load, if any.
    pub b_cast: Option<(DataType, bool)>,
    /// Inner combine: `t = a <k1> b`.
    pub k1: BinKind,
    /// Outer combine: `acc <k2> t`.
    pub k2: BinKind,
}

/// The reduction-init guard of a lane-batched loop: the init store fires
/// for a lane iff every flag slot (the bindings of the block's reduce
/// iterators) is zero — the bytecode equivalent of
/// `ResetReduceFlag; UpdateReduceFlag*; JumpIfReduceFlagFalse`.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct LaneGuard {
    /// Frame slots of the reduce-iterator bindings (the batched loop's
    /// own variable may or may not be among them).
    pub flags: Box<[u32]>,
    /// The init store's access (structurally equal to the body's
    /// accumulator access).
    pub access: u32,
    /// The init store's constant value.
    pub val: f64,
}

/// Body of one lane of a lane-batched loop.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum LaneBody {
    /// A fused multiply-accumulate ([`MacSpec`] id).
    Mac(u32),
    /// A constant fill store: `(access, value)`.
    Fill(u32, f64),
    /// A copy `dst = src` of one element: `(src, dst)` accesses.
    Copy(u32, u32),
}

/// One lane-batched innermost loop: the whole `ForSetup`/`ForNext` body
/// collapsed into a single op that executes every iteration ("lane") of
/// the loop in one dispatch. Per-lane offsets are strength reduced to
/// `off += stride`; fuel ticks once per lane (plus once per firing init),
/// exactly as the scalar loop would.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct LaneSpec {
    /// The batched loop.
    pub loop_id: u32,
    /// Frame slot of the loop variable.
    pub var: u32,
    /// Guarded reduction-init store, if the block has one.
    pub guard: Option<LaneGuard>,
    /// The per-lane statement.
    pub body: LaneBody,
    /// How far each body access's offset moves per lane, in [`LaneBody`]
    /// order (`acc, a, b` of the MAC; the fill's store; `src, dst` of the
    /// copy): the sum of the strides of the loop variable's slot terms.
    /// Every other index term is invariant in the loop, whose body writes
    /// no register and no frame slot.
    pub strides: [i64; 3],
}

/// The trip count [`Op::ForSetup`] latches: a literal the compiler
/// rounded and clamped at zero, or a register evaluated at run time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Extent {
    Lit(u32),
    Reg(u32),
}

/// One bytecode instruction. Registers, frame slots, loop states and
/// access sites are all dense `u32` indices into per-program tables.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum Op {
    /// `regs[dst] = val`
    Const { dst: u32, val: f64 },
    /// `regs[dst] = frame[slot]`
    LoadVar { dst: u32, slot: u32 },
    /// `frame[slot] = regs[src]`
    SetVar { slot: u32, src: u32 },
    /// Raise `UnknownIntrinsic(names[name])`.
    ThrowUnknownIntrinsic { name: u32 },
    /// Cast with the tree-walker's quantization semantics.
    Cast {
        dst: u32,
        src: u32,
        dtype: DataType,
        trunc: bool,
    },
    /// `regs[dst] = regs[a] <kind> regs[b]`
    Bin {
        kind: BinKind,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs[dst] = (regs[a] <op> regs[b]) as i64 as f64`
    Cmp { op: CmpOp, dst: u32, a: u32, b: u32 },
    /// `regs[dst] = (regs[src] == 0.0) as i64 as f64`
    Not { dst: u32, src: u32 },
    /// `regs[dst] = f(regs[first .. first + n])`
    Call {
        dst: u32,
        f: MathFn,
        first: u32,
        n: u32,
    },
    /// `regs[dst] = storage[access.buf][offset(access)]`; errors with
    /// `UnboundBuffer` if the buffer was never allocated.
    Load { dst: u32, access: u32 },
    /// `storage[access.buf][offset(access)] = quantize(regs[val])`,
    /// allocating the buffer on first store (tree-walker `ensure_alloc`).
    Store { access: u32, val: u32 },
    /// One fuel step (a store or eval statement begins).
    Tick,
    /// Unconditional jump.
    Jump { target: u32 },
    /// Jump if `regs[reg] == 0.0`.
    JumpIfZero { reg: u32, target: u32 },
    /// Enter a loop: latch the extent (`round(regs[r])` for a register),
    /// reset the counter, bind the loop variable to 0, or jump to `end`
    /// when the extent is empty.
    ForSetup {
        loop_id: u32,
        extent: Extent,
        var: u32,
        end: u32,
    },
    /// Loop back-edge: advance the counter, rebind, jump to `body` while
    /// iterations remain.
    ForNext { loop_id: u32, var: u32, body: u32 },
    /// `reduce_at_start = true` (entering a reduction block realize).
    ResetReduceFlag,
    /// `reduce_at_start &= regs[reg] == 0.0` (a reduce iter binding).
    UpdateReduceFlag { reg: u32 },
    /// Skip the init statement unless every reduce iter is at its start.
    JumpIfReduceFlagFalse { target: u32 },
    /// Zero-fill and (re)allocate a block-local buffer.
    AllocBuf { buf: u32 },
    /// Fused `Bin; Store`: `store(access, regs[a] <kind> regs[b])`.
    BinStore {
        kind: BinKind,
        a: u32,
        b: u32,
        access: u32,
    },
    /// Fused `Const; Store`: `store(access, val)`.
    StoreConst { access: u32, val: f64 },
    /// Fused `Load; Load; [Cast]; Load; [Cast]; Bin; Bin; Store`
    /// multiply-accumulate ([`MacSpec`] id).
    FusedMac { spec: u32 },
    /// A lane-batched innermost loop body ([`LaneSpec`] id): executes
    /// every remaining iteration, then falls through to the loop's
    /// `ForNext`, which exits.
    MacLanes { spec: u32 },
}

impl Op {
    /// Number of opcodes (the size of an instruction-mix table).
    pub(crate) const COUNT: usize = 24;

    /// Display names, indexed by [`Op::opcode`].
    pub(crate) const MNEMONICS: [&'static str; Op::COUNT] = [
        "const",
        "load_var",
        "set_var",
        "throw_unknown_intrinsic",
        "cast",
        "bin",
        "cmp",
        "not",
        "call",
        "load",
        "store",
        "tick",
        "jump",
        "jump_if_zero",
        "for_setup",
        "for_next",
        "reset_reduce_flag",
        "update_reduce_flag",
        "jump_if_reduce_flag_false",
        "alloc_buf",
        "bin_store",
        "store_const",
        "fused_mac",
        "mac_lanes",
    ];

    /// Dense opcode index of this instruction (for profiling tables).
    pub(crate) fn opcode(&self) -> usize {
        match self {
            Op::Const { .. } => 0,
            Op::LoadVar { .. } => 1,
            Op::SetVar { .. } => 2,
            Op::ThrowUnknownIntrinsic { .. } => 3,
            Op::Cast { .. } => 4,
            Op::Bin { .. } => 5,
            Op::Cmp { .. } => 6,
            Op::Not { .. } => 7,
            Op::Call { .. } => 8,
            Op::Load { .. } => 9,
            Op::Store { .. } => 10,
            Op::Tick => 11,
            Op::Jump { .. } => 12,
            Op::JumpIfZero { .. } => 13,
            Op::ForSetup { .. } => 14,
            Op::ForNext { .. } => 15,
            Op::ResetReduceFlag => 16,
            Op::UpdateReduceFlag { .. } => 17,
            Op::JumpIfReduceFlagFalse { .. } => 18,
            Op::AllocBuf { .. } => 19,
            Op::BinStore { .. } => 20,
            Op::StoreConst { .. } => 21,
            Op::FusedMac { .. } => 22,
            Op::MacLanes { .. } => 23,
        }
    }
}

/// A compiled program: flat bytecode plus the table sizes the VM needs to
/// preallocate its entire runtime state up front (zero per-step
/// allocation).
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) func_name: String,
    pub(crate) params: Vec<Buffer>,
    /// All buffers the program touches; params occupy the first ids.
    pub(crate) buffers: Vec<Buffer>,
    pub(crate) ops: Vec<Op>,
    pub(crate) accesses: Vec<Access>,
    pub(crate) names: Vec<String>,
    /// Per buffer id: at least one access to it has a non-empty race
    /// range, so a sanitized run keeps shadow cells for it.
    pub(crate) tracked: Vec<bool>,
    /// Shared pool behind [`Access::regs`].
    pub(crate) reg_pool: Vec<(u32, i64)>,
    /// Shared pool behind [`Access::slots`].
    pub(crate) slot_pool: Vec<(u32, i64)>,
    /// Shared pool behind [`Access::race`].
    pub(crate) race_pool: Vec<u32>,
    /// One entry per [`Op::ResetReduceFlag`], in program order: the frame
    /// slots whose values are all zero exactly when the reduction's init
    /// fires ([`LaneGuard::flags`]), when the compiler could name them.
    /// No optimizer pass adds, deletes or reorders a `ResetReduceFlag`
    /// before lane batching reads this.
    pub(crate) guard_flags: Vec<Option<Box<[u32]>>>,
    /// Side table for [`Op::FusedMac`] (filled by the optimizer).
    pub(crate) mac_specs: Vec<MacSpec>,
    /// Side table for [`Op::MacLanes`] (filled by the optimizer).
    pub(crate) lane_specs: Vec<LaneSpec>,
    /// Whether the optimizer pipeline has run over this program.
    pub(crate) optimized: bool,
    pub(crate) num_regs: usize,
    pub(crate) num_slots: usize,
    pub(crate) num_loops: usize,
}

impl Program {
    /// Number of bytecode instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Compiles a function into VM bytecode.
///
/// # Errors
///
/// Returns [`ExecError::Malformed`] for a program that is not well-formed
/// ([`tir::well_formed()`]); any other program compiles.
pub fn compile(func: &PrimFunc) -> Result<Program, ExecError> {
    tir::well_formed(func).map_err(ExecError::Malformed)?;
    let mut c = Compiler::new(func);
    c.compile_stmt(&func.body);
    Ok(c.finish(func))
}

/// An affine combination of frame slots: `Σ round(frame[slot])·m + k`.
#[derive(Clone, Default)]
struct Affine {
    terms: Vec<(u32, i64)>,
    k: i64,
}

impl Affine {
    /// One slot read as it stands.
    fn slot(slot: u32) -> Self {
        Affine {
            terms: vec![(slot, 1)],
            k: 0,
        }
    }
}

/// Canonical form of a list of `(slot, multiplier)` terms: sorted,
/// duplicate slots merged (`v + v`), zero multipliers dropped.
fn canonicalize(terms: &mut Vec<(u32, i64)>) {
    terms.sort_unstable();
    terms.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 += b.1;
            true
        } else {
            false
        }
    });
    terms.retain(|&(_, m)| m != 0);
}

/// Appends `items` to a pool, returning the new range.
fn append_pool<T: Copy>(pool: &mut Vec<T>, items: &[T]) -> PoolRange {
    let start = pool.len() as u32;
    pool.extend_from_slice(items);
    PoolRange {
        start,
        len: items.len() as u32,
    }
}

/// The value of a literal-only subtree (literals, `Bin` and `Cast`),
/// computed with the VM's own arithmetic; `None` when `e` reads anything
/// or raises (an integer or floor division by a literal zero is left to
/// raise `DivisionByZero` at run time).
fn fold(e: &Expr) -> Option<f64> {
    match e {
        Expr::Int(v, _) => Some(*v as f64),
        Expr::Float(v, _) => Some(*v),
        Expr::Str(_) => Some(0.0),
        Expr::Cast(dt, x) => Some(cast_val(fold(x)?, *dt, truncates(*dt))),
        Expr::Bin(op, a, b) => bin_eval(bin_kind(*op, a, b), fold(a)?, fold(b)?).ok(),
        _ => None,
    }
}

/// A folded constant that distributes through `round`: integral and exact.
fn integral(v: f64) -> Option<i64> {
    (v.fract() == 0.0 && v.abs() < (1i64 << 52) as f64).then_some(v as i64)
}

fn truncates(dt: DataType) -> bool {
    dt.is_int() || dt.is_bool()
}

/// The arithmetic flavor of `a <op> b`, from the operands' static dtypes.
fn bin_kind(op: BinOp, a: &Expr, b: &Expr) -> BinKind {
    let int_op = a.dtype().is_int() && b.dtype().is_int();
    match (op, int_op) {
        (BinOp::Add, _) => BinKind::Add,
        (BinOp::Sub, _) => BinKind::Sub,
        (BinOp::Mul, _) => BinKind::Mul,
        (BinOp::Div, true) => BinKind::DivI,
        (BinOp::Div, false) => BinKind::DivF,
        (BinOp::FloorDiv, true) => BinKind::FloorDivI,
        (BinOp::FloorDiv, false) => BinKind::FloorDivF,
        (BinOp::FloorMod, true) => BinKind::FloorModI,
        (BinOp::FloorMod, false) => BinKind::FloorModF,
        (BinOp::Min, _) => BinKind::Min,
        (BinOp::Max, _) => BinKind::Max,
        (BinOp::And, _) => BinKind::And,
        (BinOp::Or, _) => BinKind::Or,
    }
}

struct Compiler {
    ops: Vec<Op>,
    accesses: Vec<Access>,
    names: Vec<String>,
    buf_ids: HashMap<Buffer, u32>,
    buffers: Vec<Buffer>,
    slot_of: HashMap<usize, u32>,
    /// The form of every variable in scope that has one (module docs):
    /// what a read of it sees. A variable without one is read through a
    /// register.
    forms: HashMap<usize, Affine>,
    /// Frame slots and extents of the enclosing loops, outermost first.
    loop_slots: Vec<(u32, Extent)>,
    guard_flags: Vec<Option<Box<[u32]>>>,
    reg_pool: Vec<(u32, i64)>,
    slot_pool: Vec<(u32, i64)>,
    race_pool: Vec<u32>,
    /// Dedup table for race signatures (many accesses share one).
    race_ranges: HashMap<Vec<u32>, PoolRange>,
    /// Loop ids of the currently-open parallel loops, outermost first.
    par_loops: Vec<u32>,
    /// Depth of enclosing blocks with a relaxing annotation.
    relax_depth: usize,
    /// Buffer ids with at least one access under a relaxing block.
    relaxed_bufs: std::collections::HashSet<u32>,
    num_regs: u32,
    num_loops: u32,
}

impl Compiler {
    fn new(func: &PrimFunc) -> Self {
        let mut c = Compiler {
            ops: Vec::new(),
            accesses: Vec::new(),
            names: Vec::new(),
            buf_ids: HashMap::new(),
            buffers: Vec::new(),
            slot_of: HashMap::new(),
            forms: HashMap::new(),
            loop_slots: Vec::new(),
            guard_flags: Vec::new(),
            reg_pool: Vec::new(),
            slot_pool: Vec::new(),
            race_pool: Vec::new(),
            race_ranges: HashMap::new(),
            par_loops: Vec::new(),
            relax_depth: 0,
            relaxed_bufs: std::collections::HashSet::new(),
            num_regs: 0,
            num_loops: 0,
        };
        for p in &func.params {
            c.buf_id(p);
        }
        c
    }

    fn buf_id(&mut self, b: &Buffer) -> u32 {
        if let Some(&id) = self.buf_ids.get(b) {
            return id;
        }
        let id = self.buffers.len() as u32;
        self.buffers.push(b.clone());
        self.buf_ids.insert(b.clone(), id);
        id
    }

    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    fn touch_reg(&mut self, r: u32) {
        self.num_regs = self.num_regs.max(r + 1);
    }

    /// The frame slot of a variable (allocated on first binding).
    fn slot(&mut self, var: &tir::Var) -> u32 {
        let next = self.slot_of.len() as u32;
        *self.slot_of.entry(var.id()).or_insert(next)
    }

    /// Adds `scale · e` to `acc` and returns true when `e` is affine over
    /// the forms in scope: integral literal subtrees, variables with a
    /// form, `+`, `-` and `*` by a literal of such, and an integer `//` or
    /// `%` by a positive literal that [`Compiler::div_mod`] proves.
    fn add_affine(&self, e: &Expr, scale: i64, acc: &mut Affine) -> bool {
        if let Some(c) = fold(e).and_then(integral) {
            acc.k += scale * c;
            return true;
        }
        let constant = |x: &Expr| fold(x).and_then(integral);
        match e {
            Expr::Var(v) => match self.forms.get(&v.id()) {
                Some(form) => {
                    let scaled = form.terms.iter().map(|&(s, m)| (s, m * scale));
                    acc.terms.extend(scaled);
                    acc.k += form.k * scale;
                    true
                }
                None => false,
            },
            Expr::Bin(BinOp::Add, a, b) => {
                self.add_affine(a, scale, acc) && self.add_affine(b, scale, acc)
            }
            Expr::Bin(BinOp::Sub, a, b) => {
                self.add_affine(a, scale, acc) && self.add_affine(b, -scale, acc)
            }
            Expr::Bin(BinOp::Mul, a, b) => match (constant(b), constant(a)) {
                (Some(c), _) => self.add_affine(a, scale * c, acc),
                (None, Some(c)) => self.add_affine(b, scale * c, acc),
                (None, None) => false,
            },
            Expr::Bin(op @ (BinOp::FloorDiv | BinOp::FloorMod), a, b)
                if a.dtype().is_int() && b.dtype().is_int() =>
            {
                let proof = (constant(b).filter(|&c| c > 0))
                    .zip(self.affine(a))
                    .and_then(|(c, form)| self.div_mod(form, c));
                let Some((q, r)) = proof else {
                    return false;
                };
                let part = if *op == BinOp::FloorDiv { q } else { r };
                acc.terms
                    .extend(part.terms.iter().map(|&(s, m)| (s, m * scale)));
                acc.k += part.k * scale;
                true
            }
            _ => false,
        }
    }

    /// `(e // c, e % c)` as forms, when the literal extents of the enclosing
    /// loops prove them: `e = c·q + r` with `q` the terms and the part of
    /// the constant that `c` divides, and `r` the rest. A loop slot lies in
    /// `[0, extent − 1]`; if `0 ≤ r < c` there, `e // c = q` and `e % c = r`
    /// over the integers. A slot of any other kind is unbounded.
    fn div_mod(&self, e: Affine, c: i64) -> Option<(Affine, Affine)> {
        let mut q = Affine {
            terms: Vec::new(),
            k: floor_div_i64(e.k, c),
        };
        let mut r = Affine {
            terms: Vec::new(),
            k: floor_mod_i64(e.k, c),
        };
        let mut range = IntBound::single(r.k);
        for (slot, m) in e.terms {
            if m % c == 0 {
                q.terms.push((slot, m / c));
                continue;
            }
            let extent = self.loop_slots.iter().rev().find(|&&(s, _)| s == slot);
            let n = match extent {
                Some(&(_, Extent::Lit(n))) if n > 0 => i64::from(n),
                _ => return None,
            };
            range = range + IntBound::new(0, n - 1) * IntBound::single(m);
            r.terms.push((slot, m));
        }
        (range.min >= 0 && range.max < c).then_some((q, r))
    }

    /// `e` as a canonical [`Affine`], if it is one.
    fn affine(&self, e: &Expr) -> Option<Affine> {
        let mut acc = Affine::default();
        if !self.add_affine(e, 1, &mut acc) {
            return None;
        }
        canonicalize(&mut acc.terms);
        Some(acc)
    }

    /// Emits the test of a branch taken when `cond` is zero and returns the
    /// jump to patch: none for a literal non-zero condition, an
    /// unconditional jump for a literal zero.
    fn branch_if_zero(&mut self, cond: &Expr, reg: u32) -> Option<usize> {
        let op = match fold(cond) {
            Some(v) if v != 0.0 => return None,
            Some(_) => Op::Jump { target: 0 },
            None => {
                self.compile_expr(cond, reg);
                Op::JumpIfZero { reg, target: 0 }
            }
        };
        Some(self.emit(op))
    }

    /// Appends `op` and returns its index.
    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Points the jump at `at` (if any) to the next op to be emitted.
    fn land(&mut self, at: Option<usize>) {
        let here = self.ops.len() as u32;
        match at.map(|at| &mut self.ops[at]) {
            Some(
                Op::Jump { target }
                | Op::JumpIfZero { target, .. }
                | Op::JumpIfReduceFlagFalse { target },
            ) => *target = here,
            Some(Op::ForSetup { end, .. }) => *end = here,
            Some(op) => unreachable!("{op:?} does not jump"),
            None => {}
        }
    }

    /// Compiles `e` so its value lands in register `base`; scratch
    /// registers `> base` may be clobbered.
    fn compile_expr(&mut self, e: &Expr, base: u32) {
        self.touch_reg(base);
        if let Some(val) = fold(e) {
            self.ops.push(Op::Const { dst: base, val });
            return;
        }
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) => unreachable!("literals fold"),
            Expr::Var(v) => {
                // A copy `vi = i` reads `i`'s slot.
                let slot = match self.forms.get(&v.id()) {
                    Some(Affine { terms, k: 0 }) if matches!(terms[..], [(_, 1)]) => terms[0].0,
                    _ => *(self.slot_of.get(&v.id()))
                        .expect("a well-formed program reads a variable only where it is bound"),
                };
                self.ops.push(Op::LoadVar { dst: base, slot });
            }
            Expr::Cast(dt, x) => {
                self.compile_expr(x, base);
                self.ops.push(Op::Cast {
                    dst: base,
                    src: base,
                    dtype: *dt,
                    trunc: truncates(*dt),
                });
            }
            Expr::Bin(op, a, b) => {
                self.compile_expr(a, base);
                self.compile_expr(b, base + 1);
                self.ops.push(Op::Bin {
                    kind: bin_kind(*op, a, b),
                    dst: base,
                    a: base,
                    b: base + 1,
                });
            }
            Expr::Cmp(op, a, b) => {
                self.compile_expr(a, base);
                self.compile_expr(b, base + 1);
                self.ops.push(Op::Cmp {
                    op: *op,
                    dst: base,
                    a: base,
                    b: base + 1,
                });
            }
            Expr::Not(x) => {
                self.compile_expr(x, base);
                self.ops.push(Op::Not {
                    dst: base,
                    src: base,
                });
            }
            Expr::Select { cond, then, other } => {
                let jz = self.branch_if_zero(cond, base);
                self.compile_expr(then, base);
                let jmp = self.emit(Op::Jump { target: 0 });
                self.land(jz);
                self.compile_expr(other, base);
                self.land(Some(jmp));
            }
            Expr::Load { buffer, indices } => {
                let access = self.compile_access(buffer, indices, base);
                self.ops.push(Op::Load { dst: base, access });
            }
            Expr::Call { name, args, .. } => {
                for (i, a) in args.iter().enumerate() {
                    self.compile_expr(a, base + i as u32);
                }
                match MathFn::from_name(name) {
                    Some(f) => self.ops.push(Op::Call {
                        dst: base,
                        f,
                        first: base,
                        n: args.len() as u32,
                    }),
                    None => {
                        let name = self.name_id(name);
                        self.ops.push(Op::ThrowUnknownIntrinsic { name });
                    }
                }
            }
        }
    }

    /// Lowers one access site. Literal dims fold into `base` and affine
    /// dims into slot terms and `base`; the rest evaluate inline into
    /// registers starting at `first_reg` (in dimension order, preserving
    /// error order — an affine dim cannot raise).
    fn compile_access(&mut self, buffer: &Buffer, indices: &[Expr], first_reg: u32) -> u32 {
        let buf = self.buf_id(buffer);
        let shape = buffer.shape();
        // Row-major strides.
        let mut strides = vec![1i64; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        let mut base = 0i64;
        let (mut inline, mut slots) = (Vec::new(), Vec::new());
        let mut next = first_reg;
        for (e, &stride) in indices.iter().zip(&strides) {
            if let Some(v) = fold(e) {
                base += (v.round() as i64) * stride;
            } else if let Some(form) = self.affine(e) {
                slots.extend(form.terms.iter().map(|&(s, m)| (s, m * stride)));
                base += form.k * stride;
            } else {
                self.compile_expr(e, next);
                inline.push((next, stride));
                next += 1;
            }
        }
        canonicalize(&mut slots);
        if self.relax_depth > 0 {
            self.relaxed_bufs.insert(buf);
        }
        let regs = append_pool(&mut self.reg_pool, &inline);
        let slots = append_pool(&mut self.slot_pool, &slots);
        let race = match self.race_ranges.get(&self.par_loops) {
            Some(&r) => r,
            None => {
                let r = PoolRange {
                    start: self.race_pool.len() as u32,
                    len: self.par_loops.len() as u32,
                };
                self.race_pool.extend(&self.par_loops);
                self.race_ranges.insert(self.par_loops.clone(), r);
                r
            }
        };
        let id = self.accesses.len() as u32;
        self.accesses.push(Access {
            buf,
            base,
            regs,
            slots,
            race,
        });
        id
    }

    fn compile_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.ops.push(Op::Tick);
                let access = self.compile_access(buffer, indices, 0);
                let val_reg = self.accesses[access as usize].regs.len;
                self.compile_expr(value, val_reg);
                self.ops.push(Op::Store {
                    access,
                    val: val_reg,
                });
            }
            Stmt::Eval(e) => {
                self.ops.push(Op::Tick);
                self.compile_expr(e, 0);
            }
            Stmt::Seq(v) => {
                for st in v {
                    self.compile_stmt(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                let jz = self.branch_if_zero(cond, 0);
                self.compile_stmt(then_branch);
                match else_branch {
                    Some(eb) => {
                        let jmp = self.emit(Op::Jump { target: 0 });
                        self.land(jz);
                        self.compile_stmt(eb);
                        self.land(Some(jmp));
                    }
                    None => self.land(jz),
                }
            }
            Stmt::For(f) => {
                // `ForSetup` latches `round(extent)`; a literal one rounds
                // here, and anything at or below zero runs no iteration.
                let literal = fold(&f.extent).map(|v| (v.round() as i64).max(0));
                let extent = match literal.and_then(|n| u32::try_from(n).ok()) {
                    Some(n) => Extent::Lit(n),
                    None => {
                        self.compile_expr(&f.extent, 0);
                        Extent::Reg(0)
                    }
                };
                let loop_id = self.num_loops;
                self.num_loops += 1;
                let var_slot = self.slot(&f.var);
                self.forms.insert(f.var.id(), Affine::slot(var_slot));
                let setup = self.emit(Op::ForSetup {
                    loop_id,
                    extent,
                    var: var_slot,
                    end: 0,
                });
                let body_at = self.ops.len();
                if f.kind.is_parallel() {
                    self.par_loops.push(loop_id);
                }
                self.loop_slots.push((var_slot, extent));
                self.compile_stmt(&f.body);
                self.loop_slots.pop();
                if f.kind.is_parallel() {
                    self.par_loops.pop();
                }
                self.ops.push(Op::ForNext {
                    loop_id,
                    var: var_slot,
                    body: body_at as u32,
                });
                self.land(Some(setup));
            }
            Stmt::BlockRealize(br) => self.compile_block_realize(br),
        }
    }

    fn compile_block_realize(&mut self, br: &BlockRealize) {
        let jz = self.branch_if_zero(&br.predicate, 0);
        let block: &Block = &br.block;
        let guarded = block.init.is_some() && block.is_reduction();
        if guarded {
            self.ops.push(Op::ResetReduceFlag);
        }
        // The guard's flag slots: each reduce binding must be one slot, or a
        // sum of enclosing loop counters with positive multipliers and no
        // constant — counters never go negative, so the sum is zero iff
        // every one of them is.
        let mut flags = Some(Vec::new());
        // Bind iterators one at a time: the tree-walker inserts each into
        // the environment before evaluating the next binding value.
        for (iv, value) in block.iter_vars.iter().zip(&br.iter_values) {
            self.compile_expr(value, 0);
            let slot = self.slot(&iv.var);
            self.ops.push(Op::SetVar { slot, src: 0 });
            let form = self.affine(value);
            if guarded && iv.kind == IterKind::Reduce {
                self.ops.push(Op::UpdateReduceFlag { reg: 0 });
                let counter =
                    |&(s, m): &(u32, i64)| m > 0 && self.loop_slots.iter().any(|l| l.0 == s);
                flags = match (flags, &form) {
                    (Some(mut f), Some(Affine { terms, k: 0 }))
                        if matches!(terms[..], [(_, 1)]) || terms.iter().all(counter) =>
                    {
                        f.extend(terms.iter().map(|&(s, _)| s));
                        Some(f)
                    }
                    _ => None,
                };
            }
            let integer = iv.var.dtype().is_int() && value.dtype().is_int();
            match form {
                Some(form) => self.forms.insert(iv.var.id(), form),
                None if integer => self.forms.insert(iv.var.id(), Affine::slot(slot)),
                None => self.forms.remove(&iv.var.id()),
            };
        }
        if guarded {
            self.guard_flags.push(flags.map(|mut f| {
                f.sort_unstable();
                f.dedup();
                f.into()
            }));
        }
        let relaxing = tir::RELAXING_ANNOTATIONS
            .iter()
            .any(|a| block.annotations.contains_key(*a));
        if relaxing {
            self.relax_depth += 1;
        }
        for b in &block.alloc_buffers {
            let buf = self.buf_id(b);
            self.ops.push(Op::AllocBuf { buf });
        }
        if let Some(init) = &block.init {
            let skip = guarded.then(|| self.emit(Op::JumpIfReduceFlagFalse { target: 0 }));
            self.compile_stmt(init);
            self.land(skip);
        }
        self.compile_stmt(&block.body);
        if relaxing {
            self.relax_depth -= 1;
        }
        self.land(jz);
    }

    fn finish(mut self, func: &PrimFunc) -> Program {
        // A buffer touched under a relaxing annotation is exempt from race
        // tracking everywhere (the static analyzer's exemption).
        let mut tracked = vec![false; self.buffers.len()];
        for acc in &mut self.accesses {
            if self.relaxed_bufs.contains(&acc.buf) {
                acc.race = PoolRange::default();
            }
            tracked[acc.buf as usize] |= !acc.race.is_empty();
        }
        Program {
            func_name: func.name.clone(),
            params: func.params.clone(),
            buffers: self.buffers,
            ops: self.ops,
            accesses: self.accesses,
            names: self.names,
            tracked,
            reg_pool: self.reg_pool,
            slot_pool: self.slot_pool,
            race_pool: self.race_pool,
            guard_flags: self.guard_flags,
            mac_specs: Vec::new(),
            lane_specs: Vec::new(),
            optimized: false,
            num_regs: self.num_regs as usize,
            num_slots: self.slot_of.len(),
            num_loops: self.num_loops as usize,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use tir::builder::matmul_func;
    use tir::{IterVar, Var};

    use super::*;
    use crate::interp::{run_with, ExecBackend};
    use crate::tensor::Tensor;

    /// Scheduled shapes of a 4×4×8 matmul — what schedule primitives leave
    /// behind, built by hand because `tir-schedule` sits above this crate —
    /// each with what `optimize` must make of it: how many `SetVar`s
    /// survive, how many flags the guard of the lane-batched reduction
    /// loop reads (`None`: the loop stays scalar and keeps its flag ops),
    /// and how many reduction nests the program has.
    pub(crate) fn scheduled_matmuls() -> Vec<(&'static str, PrimFunc, usize, Option<usize>, usize)>
    {
        let base = matmul_func("mm", 4, 4, 8, DataType::float32());
        let block = &tir::visit::find_block(&base.body, "C").unwrap().block;
        let v = |name: &str| Var::int(name);
        let e = |var: &Var| Expr::from(var);
        // The matmul block under `loops`, `(vi, vj, vk)` bound to `bind`.
        let nest = |loops: Vec<(Var, i64)>, bind: [Expr; 3], predicate: Expr| {
            let realize = BlockRealize::with_predicate(bind.to_vec(), predicate, block.clone());
            Stmt::BlockRealize(Box::new(realize)).in_loops(loops)
        };
        // `tile` inside an outer block binding `(vio, vjo)` to `bind`.
        let tiled =
            |loops: Vec<(Var, i64)>, (vio, vjo): (Var, Var), bind: [Expr; 2], tile: Stmt| {
                let iters = vec![IterVar::spatial(vio, 2), IterVar::spatial(vjo, 2)];
                let outer = Block::new("C_o", iters, vec![], vec![], tile);
                Stmt::BlockRealize(Box::new(BlockRealize::new(bind.to_vec(), outer)))
                    .in_loops(loops)
            };
        let func = |body: Stmt| PrimFunc::new("mm", base.params.clone(), body);
        let mut out = Vec::new();

        // Both `i` and the reduction loop split: two flags in the guard.
        let (i0, i1, j, k0, k1) = (v("i0"), v("i1"), v("j"), v("k0"), v("k1"));
        let bind = [e(&i0) * 2 + e(&i1), e(&j), e(&k0) * 4 + e(&k1)];
        let loops = vec![(i0, 2), (i1, 2), (j, 4), (k0, 2), (k1, 4)];
        let body = nest(loops, bind, Expr::true_());
        out.push(("doubly split", func(body), 0, Some(2), 1));

        // A non-divisible split: the `T.where` predicate is evaluated in
        // the reduction loop, ahead of the bindings, so the loop stays
        // scalar — forwarded and MAC-fused all the same.
        let (i0, i1, j, k) = (v("i0"), v("i1"), v("j"), v("k"));
        let vi = e(&i0) * 3 + e(&i1);
        let bind = [vi.clone(), e(&j), e(&k)];
        let loops = vec![(i0, 2), (i1, 3), (j, 4), (k, 8)];
        let body = nest(loops, bind, vi.lt(4));
        out.push(("non-divisible split", func(body), 0, None, 1));

        // A blockized tile: `vi = vio*2 + i1` with `vio = i0` one block up.
        let (i0, j0, i1, j1, k) = (v("i0"), v("j0"), v("i1"), v("j1"), v("k"));
        let (vio, vjo) = (v("vio"), v("vjo"));
        let bind = [e(&vio) * 2 + e(&i1), e(&vjo) * 2 + e(&j1), e(&k)];
        let tile = nest(vec![(i1, 2), (j1, 2), (k, 8)], bind, Expr::true_());
        let outer = [e(&i0), e(&j0)];
        let body = tiled(vec![(i0, 2), (j0, 2)], (vio, vjo), outer, tile);
        out.push(("blockized tile", func(body), 0, Some(1), 1));

        // The two tile loops fused: `vio = f // 2`, `vjo = f % 2` are opaque
        // and stay bound; the inner bindings are affine over them.
        let (f, i1, j1, k) = (v("f"), v("i1"), v("j1"), v("k"));
        let (vio, vjo) = (v("vio"), v("vjo"));
        let bind = [e(&vio) * 2 + e(&i1), e(&vjo) * 2 + e(&j1), e(&k)];
        let tile = nest(vec![(i1, 2), (j1, 2), (k, 8)], bind, Expr::true_());
        let outer = [e(&f).floor_div(2), e(&f).floor_mod(2)];
        let body = tiled(vec![(f, 4)], (vio, vjo), outer, tile);
        out.push(("fused then split", func(body), 2, Some(1), 1));

        // One block realized twice, for the upper and the lower rows: every
        // iterator has two `SetVar`s. Each realization is substituted into
        // its own block, where lexical scope says that binding is the one
        // in force, so both nests lose their bindings and batch.
        let half = |row: i64| {
            let (i, j, k) = (v("i"), v("j"), v("k"));
            let bind = [e(&i) + row, e(&j), e(&k)];
            nest(vec![(i, 2), (j, 4), (k, 8)], bind, Expr::true_())
        };
        let body = Stmt::seq(vec![half(0), half(2)]);
        out.push(("sibling blocks", func(body), 0, Some(1), 2));

        // `vk = k + 1` over 7 iterations: zero for no `k`, so the init
        // never fires — and the guard must not be read off the counter.
        let (i, j, k) = (v("i"), v("j"), v("k"));
        let bind = [e(&i), e(&j), e(&k) + 1];
        let body = nest(vec![(i, 4), (j, 4), (k, 7)], bind, Expr::true_());
        out.push(("offset reduce binding", func(body), 0, None, 1));

        // `vk = 7 - k`: zero on the *last* iteration.
        let (i, j, k) = (v("i"), v("j"), v("k"));
        let bind = [e(&i), e(&j), 7 - e(&k)];
        let body = nest(vec![(i, 4), (j, 4), (k, 8)], bind, Expr::true_());
        out.push(("reversed reduce binding", func(body), 0, None, 1));
        out
    }

    /// Every index of `prog` is slot-addressed: no access has a register
    /// term, so no `load_var` feeds an index.
    fn slot_addressed(prog: &Program) -> bool {
        prog.accesses.iter().all(|a| a.regs.is_empty())
    }

    /// On unoptimized bytecode, the split matmul and the blockized tile
    /// whose outer block binds `f // 2` and `f % 2` index every access by
    /// frame slots; the opaque bindings stay and are read as base terms.
    #[test]
    fn affine_accesses_are_slot_addressed_before_optimization() {
        for (name, f, ..) in scheduled_matmuls() {
            let prog = compile(&f).expect("compiles");
            assert!(slot_addressed(&prog), "{name}:\n{prog}");
            let reads_opaque = prog.slot_pool.iter().any(|&(s, _)| {
                prog.ops
                    .iter()
                    .any(|op| matches!(op, Op::SetVar { slot, .. } if *slot == s))
            });
            assert_eq!(reads_opaque, name == "fused then split", "{name}:\n{prog}");
        }
    }

    /// `A[i // 2]` is not affine: the index keeps its register term, fed by
    /// a `load_var` of `i`.
    #[test]
    fn a_non_affine_index_keeps_its_register_term() {
        let (a, b) = (
            Buffer::new("A", DataType::float32(), vec![4]),
            Buffer::new("B", DataType::float32(), vec![8]),
        );
        let i = Var::int("i");
        let value = a.load(vec![Expr::from(&i).floor_div(2)]);
        let body = Stmt::store(b.clone(), vec![Expr::from(&i)], value).in_loop(i, 8);
        let prog = compile(&PrimFunc::new("half", vec![a, b], body)).expect("compiles");
        let load = prog.ops.iter().find_map(|op| match op {
            Op::Load { access, .. } => Some(&prog.accesses[*access as usize]),
            _ => None,
        });
        let load = load.expect("a load");
        assert_eq!(load.regs.len, 1, "{prog}");
        assert!(load.slots.is_empty(), "{prog}");
        assert!(prog.ops.iter().any(|op| matches!(op, Op::LoadVar { .. })));
    }

    /// A literal `true` predicate (every realize `matmul_func` builds) and a
    /// literal condition emit no test; a literal `false` one jumps.
    #[test]
    fn literal_predicates_emit_no_test() {
        let f = matmul_func("mm", 4, 4, 4, DataType::float32());
        let prog = compile(&f).expect("compiles");
        let tests = |prog: &Program| {
            let count = |m: fn(&Op) -> bool| prog.ops.iter().filter(|o| m(o)).count();
            (
                count(|o| matches!(o, Op::JumpIfZero { .. })),
                count(|o| matches!(o, Op::Jump { .. })),
            )
        };
        assert_eq!(tests(&prog), (0, 0), "{prog}");
        let b = Buffer::new("B", DataType::float32(), vec![1]);
        let fill = |cond: Expr| {
            let then = Stmt::store(b.clone(), vec![Expr::int(0)], Expr::f32(1.0));
            let body = Stmt::IfThenElse {
                cond,
                then_branch: Box::new(then),
                else_branch: None,
            };
            compile(&PrimFunc::new("fill", vec![b.clone()], body)).expect("compiles")
        };
        assert_eq!(tests(&fill(Expr::true_())), (0, 0));
        assert_eq!(tests(&fill(Expr::bool(false))), (0, 1));
    }

    /// A division by a literal zero is never folded: on every backend it
    /// raises `DivisionByZero` at the same step, whether the dividend is a
    /// variable or a literal.
    #[test]
    fn division_by_a_literal_zero_raises_at_the_same_step_everywhere() {
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        for literal in [false, true] {
            let i = Var::int("i");
            let dividend = if literal {
                Expr::int(7)
            } else {
                Expr::from(&i)
            };
            let quotient = Expr::Bin(BinOp::Div, Box::new(dividend), Box::new(Expr::int(0)));
            let late = Stmt::IfThenElse {
                cond: Expr::int(1).lt(Expr::from(&i)),
                then_branch: Box::new(Stmt::store(
                    b.clone(),
                    vec![Expr::from(&i)],
                    Expr::Cast(DataType::float32(), Box::new(quotient)),
                )),
                else_branch: None,
            };
            let early = Stmt::store(b.clone(), vec![Expr::from(&i)], Expr::f32(1.0));
            let f = PrimFunc::new(
                "div0",
                vec![b.clone()],
                Stmt::seq(vec![early, late]).in_loop(i, 4),
            );
            let args = vec![Tensor::zeros(DataType::float32(), &[4])];
            let unopt = compile(&f).expect("compiles");
            let opt = crate::opt::optimize(unopt.clone());
            // The first fuel budget at which each backend gets as far as the
            // division rather than running out: the fourth store, at i = 2.
            let first_raise = |run: &dyn Fn(u64) -> Result<_, ExecError>| {
                (0..16)
                    .find(|&fuel| matches!(run(fuel), Err(ExecError::DivisionByZero)))
                    .expect("raises")
            };
            let runs: [&dyn Fn(u64) -> Result<_, ExecError>; 3] = [
                &|fuel| run_with(&f, args.clone(), ExecBackend::TreeWalk, Some(fuel)),
                &|fuel| unopt.run_with_fuel(args.clone(), fuel),
                &|fuel| opt.run_with_fuel(args.clone(), fuel),
            ];
            for run in runs {
                assert_eq!(first_raise(run), 4, "literal dividend: {literal}");
            }
        }
    }

    /// `T[x] = x` for `x < n`.
    fn arange(n: i64) -> Tensor {
        Tensor::from_fn(DataType::float32(), &[n], |x| x as f64)
    }

    /// Runs `f` on the tree-walker, on the compiler's bytecode and on the
    /// optimized bytecode, and asserts they agree bit for bit and step for
    /// step.
    fn agree(f: &PrimFunc, args: &[Tensor]) {
        let walk = run_with(f, args.to_vec(), ExecBackend::TreeWalk, None).expect("walks");
        let prog = compile(f).expect("compiles");
        let opt = crate::opt::optimize(prog.clone());
        for (label, prog) in [("compile", prog), ("optimize", opt)] {
            let vm = prog.run_with_fuel(args.to_vec(), 1 << 40).expect("runs");
            assert_eq!(vm.steps, walk.steps, "{}: {label} steps", f.name);
            assert_eq!(vm.outputs, walk.outputs, "{}: {label} outputs", f.name);
        }
    }

    /// The register-term count of every access to buffer `T`.
    fn t_register_terms(prog: &Program) -> Vec<u32> {
        let t = prog
            .buffers
            .iter()
            .position(|b| b.name() == "T")
            .expect("T") as u32;
        (prog.accesses.iter())
            .filter(|a| a.buf == t)
            .map(|a| a.regs.len)
            .collect()
    }

    /// The loop-extent rule, exhaustively: every `a·i + b·j + k` with
    /// `a, b ∈ −3..=3` and `k ∈ −4..=4`, over loops `i`, `j` of literal
    /// extents 1–6, indexes an `arange` buffer as `T[form // c + 34]` and
    /// `T[form % c]` for every `c ∈ 1..=7`, one store per case at every
    /// point `(i, j)`. Both bytecodes agree with the tree-walker, and the
    /// rule proves some of the cases.
    #[test]
    fn div_mod_by_loop_extents_is_exact_on_every_small_form() {
        let t = Buffer::new("T", DataType::float32(), vec![69]);
        let cases: Vec<(i64, i64, i64, i64)> = (-3..=3)
            .flat_map(|a| (-3..=3).map(move |b| (a, b)))
            .flat_map(|(a, b)| (-4..=4).map(move |k| (a, b, k)))
            .flat_map(|(a, b, k)| (1..=7).map(move |c| (a, b, k, c)))
            .collect();
        let n = cases.len() as i64;
        let mut proved = 0;
        for (ei, ej) in (1..=6).flat_map(|ei| (1..=6).map(move |ej| (ei, ej))) {
            let (i, j) = (Var::int("i"), Var::int("j"));
            let out = Buffer::new("O", DataType::float32(), vec![n, ei, ej]);
            let stores = (cases.iter().zip(0..)).map(|(&(a, b, k, c), case)| {
                let form = || Expr::from(&i) * a + Expr::from(&j) * b + k;
                let q = t.load(vec![form().floor_div(c) + 34]);
                let r = t.load(vec![form().floor_mod(c)]);
                let at = vec![Expr::int(case), Expr::from(&i), Expr::from(&j)];
                Stmt::store(out.clone(), at, q * Expr::f32(8.0) + r)
            });
            let body = Stmt::seq(stores.collect()).in_loops(vec![(i, ei), (j, ej)]);
            let f = PrimFunc::new("forms", vec![t.clone(), out], body);
            let terms = t_register_terms(&compile(&f).expect("compiles"));
            proved += terms.iter().filter(|&&regs| regs == 0).count();
            let args = [arange(69), Tensor::zeros(DataType::float32(), &[n, ei, ej])];
            agree(&f, &args);
        }
        assert!(proved > 0, "the rule proved nothing");
    }

    /// A tuned wmma GMM's staged copy, cut down: `v0 = k0*16 + ax0` and
    /// `v1 = f % 2 * 32 + ax1` read `B[v0 % 64, v1 % 64]`, and
    /// `v2 = f // 2` indexes the stage, with `f` of extent 2.
    fn staged_copy() -> PrimFunc {
        let dt = DataType::float16();
        let (b, s) = (
            Buffer::new("B", dt, vec![64, 64]),
            Buffer::new("S", dt, vec![1, 64, 64]),
        );
        let (f, k0, ax0, ax1) = (v("f"), v("k0"), v("ax0"), v("ax1"));
        let (v0, v1, v2) = (v("v0"), v("v1"), v("v2"));
        let e = |var: &Var| Expr::from(var);
        let load = b.load(vec![e(&v0).floor_mod(64), e(&v1).floor_mod(64)]);
        let body = Stmt::store(s.clone(), vec![e(&v2), e(&v0), e(&v1)], load);
        let iters = [(v2, 1), (v0, 64), (v1, 64)].map(|(var, n)| IterVar::spatial(var, n));
        let block = Block::new("S", iters.to_vec(), vec![], vec![], body);
        let bind = vec![
            e(&f).floor_div(2),
            e(&k0) * 16 + e(&ax0),
            e(&f).floor_mod(2) * 32 + e(&ax1),
        ];
        let realize = Stmt::BlockRealize(Box::new(BlockRealize::new(bind, block)));
        let body = realize.in_loops(vec![(f, 2), (k0, 4), (ax0, 16), (ax1, 32)]);
        PrimFunc::new("stage", vec![b, s], body)
    }

    fn v(name: &str) -> Var {
        Var::int(name)
    }

    /// Every `//` and `%` of the staged copy is proven from the loop
    /// extents, so it optimizes to one copy lane with no division left.
    #[test]
    fn a_staged_copy_optimizes_to_one_copy_lane() {
        let f = staged_copy();
        let opt = crate::opt::optimize(compile(&f).expect("compiles"));
        let divisions = (opt.ops.iter())
            .filter(|op| {
                let div = |k| matches!(k, BinKind::FloorDivI | BinKind::FloorModI);
                matches!(op, Op::Bin { kind, .. } if div(*kind))
            })
            .count();
        assert_eq!(divisions, 0, "{opt}");
        let lanes: Vec<LaneBody> = opt.lane_specs.iter().map(|sp| sp.body).collect();
        assert!(matches!(lanes[..], [LaneBody::Copy(..)]), "{opt}");
        let args = [
            Tensor::random(DataType::float16(), &[64, 64], 5),
            Tensor::zeros(DataType::float16(), &[1, 64, 64]),
        ];
        agree(&f, &args);
    }

    /// What the rule must not prove keeps its register term, exactly: a
    /// remainder that can go negative, one that reaches `c`, a loop of
    /// non-literal extent, and float operands.
    #[test]
    fn unproven_divisions_keep_their_register_term() {
        let t = Buffer::new("T", DataType::float32(), vec![8]);
        let o = Buffer::new("O", DataType::float32(), vec![256]);
        let (i, j) = (v("i"), v("j"));
        let (ie, je) = (Expr::from(&i), Expr::from(&j));
        let copy = |from: Expr, to: Expr| Stmt::store(o.clone(), vec![to], t.load(vec![from]));
        let negative = copy((ie.clone() - 1).floor_mod(4), ie.clone()).in_loop(i.clone(), 4);
        let fused = ie.clone() * 128 + je.clone();
        let reaches_c = copy(fused.clone().floor_div(64), fused)
            .in_loops(vec![(i.clone(), 2), (j.clone(), 128)]);
        let non_literal = copy(je.clone().floor_mod(8), ie.clone() * 4 + je.clone())
            .in_loop(j, ie.clone() + 1)
            .in_loop(i.clone(), 4);
        let vf = Var::new("vf", DataType::float32());
        let float_body = copy(Expr::from(&vf).floor_div(2), ie.clone());
        let block = Block::new(
            "F",
            vec![IterVar::spatial(vf, 8)],
            vec![],
            vec![],
            float_body,
        );
        let float = Stmt::BlockRealize(Box::new(BlockRealize::new(vec![ie], block))).in_loop(i, 8);
        let args = [arange(8), Tensor::zeros(DataType::float32(), &[256])];
        for (name, body) in [
            ("negative", negative),
            ("reaches_c", reaches_c),
            ("non_literal", non_literal),
            ("float", float),
        ] {
            let f = PrimFunc::new(name, vec![t.clone(), o.clone()], body);
            let prog = compile(&f).expect("compiles");
            assert_eq!(t_register_terms(&prog), [1], "{name}:\n{prog}");
            agree(&f, &args);
        }
    }

    /// A binding `v = i // 0` or `v = i % 0` that nothing reads is not dead
    /// code: it raises `DivisionByZero` at the same step on the
    /// tree-walker, both bytecodes and the sanitizer.
    #[test]
    fn an_unread_division_by_zero_still_raises_at_the_same_step() {
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        for op in [BinOp::FloorDiv, BinOp::FloorMod] {
            let (i, vz) = (v("i"), v("vz"));
            let ie = Expr::from(&i);
            let zero = Expr::Bin(op, Box::new(ie.clone()), Box::new(Expr::int(0)));
            let inner = Stmt::store(b.clone(), vec![ie.clone()], Expr::f32(2.0));
            let block = Block::new("Z", vec![IterVar::spatial(vz, 4)], vec![], vec![], inner);
            let late = Stmt::IfThenElse {
                cond: Expr::int(1).lt(ie.clone()),
                then_branch: Box::new(Stmt::BlockRealize(Box::new(BlockRealize::new(
                    vec![zero],
                    block,
                )))),
                else_branch: None,
            };
            let early = Stmt::store(b.clone(), vec![ie], Expr::f32(1.0));
            let body = Stmt::seq(vec![early, late]).in_loop(i, 4);
            let f = PrimFunc::new("unread", vec![b.clone()], body);
            let args = vec![Tensor::zeros(DataType::float32(), &[4])];
            let unopt = compile(&f).expect("compiles");
            let opt = crate::opt::optimize(unopt.clone());
            let runs: [&dyn Fn(u64) -> Result<_, ExecError>; 4] = [
                &|fuel| run_with(&f, args.clone(), ExecBackend::TreeWalk, Some(fuel)),
                &|fuel| unopt.run_with_fuel(args.clone(), fuel),
                &|fuel| opt.run_with_fuel(args.clone(), fuel),
                &|fuel| opt.run_sanitized(args.clone(), fuel),
            ];
            for run in runs {
                let first =
                    (0..16).find(|&fuel| matches!(run(fuel), Err(ExecError::DivisionByZero)));
                assert_eq!(first, Some(3), "{op:?}");
            }
        }
    }

    /// One instance of every `Op` variant. Adding an enum variant without
    /// extending this list is caught by `opcode_table_is_consistent`
    /// (the coverage set will miss an index); extending the enum without
    /// updating `Op::opcode` is a compile error (non-exhaustive match);
    /// and forgetting `COUNT`/`MNEMONICS` fails the assertions below.
    fn one_of_each() -> Vec<Op> {
        let dt = DataType::float32();
        vec![
            Op::Const { dst: 0, val: 0.0 },
            Op::LoadVar { dst: 0, slot: 0 },
            Op::SetVar { slot: 0, src: 0 },
            Op::ThrowUnknownIntrinsic { name: 0 },
            Op::Cast {
                dst: 0,
                src: 0,
                dtype: dt,
                trunc: false,
            },
            Op::Bin {
                kind: BinKind::Add,
                dst: 0,
                a: 0,
                b: 0,
            },
            Op::Cmp {
                op: CmpOp::Eq,
                dst: 0,
                a: 0,
                b: 0,
            },
            Op::Not { dst: 0, src: 0 },
            Op::Call {
                dst: 0,
                f: MathFn::Sqrt,
                first: 0,
                n: 1,
            },
            Op::Load { dst: 0, access: 0 },
            Op::Store { access: 0, val: 0 },
            Op::Tick,
            Op::Jump { target: 0 },
            Op::JumpIfZero { reg: 0, target: 0 },
            Op::ForSetup {
                loop_id: 0,
                extent: Extent::Reg(0),
                var: 0,
                end: 0,
            },
            Op::ForNext {
                loop_id: 0,
                var: 0,
                body: 0,
            },
            Op::ResetReduceFlag,
            Op::UpdateReduceFlag { reg: 0 },
            Op::JumpIfReduceFlagFalse { target: 0 },
            Op::AllocBuf { buf: 0 },
            Op::BinStore {
                kind: BinKind::Add,
                a: 0,
                b: 0,
                access: 0,
            },
            Op::StoreConst {
                access: 0,
                val: 0.0,
            },
            Op::FusedMac { spec: 0 },
            Op::MacLanes { spec: 0 },
        ]
    }

    /// `Op::COUNT`, `Op::MNEMONICS`, and `Op::opcode` cannot silently
    /// desync from the enum: every variant maps to a distinct in-range
    /// opcode, every opcode is hit, and every mnemonic is distinct.
    #[test]
    fn opcode_table_is_consistent() {
        let ops = one_of_each();
        assert_eq!(
            ops.len(),
            Op::COUNT,
            "one_of_each() must list every Op variant exactly once"
        );
        let mut seen = [false; Op::COUNT];
        for op in &ops {
            let idx = op.opcode();
            assert!(idx < Op::COUNT, "opcode {idx} out of range for {op:?}");
            assert!(!seen[idx], "duplicate opcode {idx} for {op:?}");
            seen[idx] = true;
            // Indexing panics if MNEMONICS is shorter than COUNT claims.
            assert!(!Op::MNEMONICS[idx].is_empty());
        }
        assert!(seen.iter().all(|&s| s), "some opcode index is never used");
        let mut names: Vec<&str> = Op::MNEMONICS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::COUNT, "duplicate mnemonic in the table");
    }
}
