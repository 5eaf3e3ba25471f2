//! Lowering of [`PrimFunc`]s into register bytecode for the VM.
//!
//! The tree-walking interpreter pays a `HashMap` lookup per variable read,
//! a `HashMap` lookup per buffer access, and a fresh `Vec<i64>` per index
//! evaluation. This module removes all of that *once, at compile time*:
//!
//! * variables become dense slots in a flat frame (`Vec<f64>`),
//! * buffers become dense ids into a flat storage table,
//! * every load/store is lowered to precomputed row-major stride
//!   arithmetic — constant index dimensions fold into a static base
//!   offset, the rest evaluate into registers at the access,
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
//! Nothing is moved out of a loop. An index term invariant in an inner
//! loop would have to be invariant below the innermost binder of its
//! access, and in a block program that binder is the block itself: every
//! store sits in a block whose iterators index it. The optimizer's
//! strength reduction (`opt.rs`) turns the index registers that remain
//! into frame reads instead.

use std::collections::HashMap;

use tir::{BinOp, Block, BlockRealize, Buffer, CmpOp, DataType, Expr, IterKind, PrimFunc, Stmt};

use crate::interp::{ExecError, MathFn};

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
/// pools; the access itself is a small `Copy` record. Slot terms are
/// never produced by the compiler — the optimizer's strength-reduction
/// pass folds `LoadVar`-fed register terms into direct frame reads.
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
    /// sanitizer tracks races over.
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
}

/// One lane-batched innermost loop: the whole `ForSetup`/`ForNext` body
/// collapsed into a single op that executes up to [`LANE_WIDTH_MAX`]
/// iterations ("lanes") per dispatch. Per-lane offsets are strength
/// reduced to `off += stride`; fuel ticks once per lane (plus once per
/// firing init), exactly as the scalar loop would.
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
    /// Lanes executed per dispatch (clamped to the remaining extent).
    pub lanes: u32,
}

/// Upper bound on lanes per [`LaneSpec`] dispatch.
pub(crate) const LANE_WIDTH_MAX: u32 = 8;

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
    /// Enter a loop: latch `round(regs[extent])`, reset the counter, bind
    /// the loop variable to 0, or jump to `end` when the extent is empty.
    ForSetup {
        loop_id: u32,
        extent: u32,
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
    /// A lane-batched innermost loop body ([`LaneSpec`] id): executes up
    /// to `lanes` iterations per dispatch, then falls through to the
    /// loop's `ForNext`.
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
    /// Per buffer id: some access to it sits inside a block carrying a
    /// [`tir::RELAXING_ANNOTATIONS`] annotation, exempting the buffer from
    /// race tracking (mirrors the static analyzer's exemption).
    pub(crate) relaxed: Vec<bool>,
    /// Shared pool behind [`Access::regs`].
    pub(crate) reg_pool: Vec<(u32, i64)>,
    /// Shared pool behind [`Access::slots`] (filled by the optimizer).
    pub(crate) slot_pool: Vec<(u32, i64)>,
    /// Shared pool behind [`Access::race`].
    pub(crate) race_pool: Vec<u32>,
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

struct Compiler {
    ops: Vec<Op>,
    accesses: Vec<Access>,
    names: Vec<String>,
    buf_ids: HashMap<Buffer, u32>,
    buffers: Vec<Buffer>,
    slot_of: HashMap<usize, u32>,
    reg_pool: Vec<(u32, i64)>,
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
            reg_pool: Vec::new(),
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

    /// Compiles `e` so its value lands in register `base`; scratch
    /// registers `> base` may be clobbered.
    fn compile_expr(&mut self, e: &Expr, base: u32) {
        self.touch_reg(base);
        match e {
            Expr::Int(v, _) => self.ops.push(Op::Const {
                dst: base,
                val: *v as f64,
            }),
            Expr::Float(v, _) => self.ops.push(Op::Const { dst: base, val: *v }),
            Expr::Str(_) => self.ops.push(Op::Const {
                dst: base,
                val: 0.0,
            }),
            Expr::Var(v) => {
                let slot = *(self.slot_of.get(&v.id()))
                    .expect("a well-formed program reads a variable only where it is bound");
                self.ops.push(Op::LoadVar { dst: base, slot });
            }
            Expr::Cast(dt, x) => {
                self.compile_expr(x, base);
                self.ops.push(Op::Cast {
                    dst: base,
                    src: base,
                    dtype: *dt,
                    trunc: dt.is_int() || dt.is_bool(),
                });
            }
            Expr::Bin(op, a, b) => {
                self.compile_expr(a, base);
                self.compile_expr(b, base + 1);
                let int_op = a.dtype().is_int() && b.dtype().is_int();
                let kind = match (op, int_op) {
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
                };
                self.ops.push(Op::Bin {
                    kind,
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
                self.compile_expr(cond, base);
                let jz = self.ops.len();
                self.ops.push(Op::JumpIfZero {
                    reg: base,
                    target: 0,
                });
                self.compile_expr(then, base);
                let jmp = self.ops.len();
                self.ops.push(Op::Jump { target: 0 });
                let else_at = self.ops.len() as u32;
                self.compile_expr(other, base);
                let end_at = self.ops.len() as u32;
                if let Op::JumpIfZero { target, .. } = &mut self.ops[jz] {
                    *target = else_at;
                }
                if let Op::Jump { target } = &mut self.ops[jmp] {
                    *target = end_at;
                }
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

    /// Lowers one access site. Constant dims fold into `base`; the rest
    /// evaluate inline into registers starting at `first_reg` (in
    /// dimension order, preserving error order).
    fn compile_access(&mut self, buffer: &Buffer, indices: &[Expr], first_reg: u32) -> u32 {
        let buf = self.buf_id(buffer);
        let shape = buffer.shape();
        // Row-major strides.
        let mut strides = vec![1i64; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        let mut base = 0i64;
        let mut inline = Vec::new();
        let mut next = first_reg;
        for (e, &stride) in indices.iter().zip(&strides) {
            match e {
                Expr::Int(v, _) => base += v * stride,
                Expr::Float(v, _) => base += (v.round() as i64) * stride,
                _ => {
                    self.compile_expr(e, next);
                    inline.push((next, stride));
                    next += 1;
                }
            }
        }
        if self.relax_depth > 0 {
            self.relaxed_bufs.insert(buf);
        }
        let regs = PoolRange {
            start: self.reg_pool.len() as u32,
            len: inline.len() as u32,
        };
        self.reg_pool.extend(inline);
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
            slots: PoolRange::default(),
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
                self.compile_expr(cond, 0);
                let jz = self.ops.len();
                self.ops.push(Op::JumpIfZero { reg: 0, target: 0 });
                self.compile_stmt(then_branch);
                let end = match else_branch {
                    Some(eb) => {
                        let jmp = self.ops.len();
                        self.ops.push(Op::Jump { target: 0 });
                        let else_at = self.ops.len() as u32;
                        if let Op::JumpIfZero { target, .. } = &mut self.ops[jz] {
                            *target = else_at;
                        }
                        self.compile_stmt(eb);
                        let end = self.ops.len() as u32;
                        if let Op::Jump { target } = &mut self.ops[jmp] {
                            *target = end;
                        }
                        None
                    }
                    None => Some(self.ops.len() as u32),
                };
                if let (Some(end), Op::JumpIfZero { target, .. }) = (end, &mut self.ops[jz]) {
                    *target = end;
                }
            }
            Stmt::For(f) => {
                self.compile_expr(&f.extent, 0);
                let loop_id = self.num_loops;
                self.num_loops += 1;
                let var_slot = self.slot(&f.var);
                let setup = self.ops.len();
                self.ops.push(Op::ForSetup {
                    loop_id,
                    extent: 0,
                    var: var_slot,
                    end: 0,
                });
                let body_at = self.ops.len();
                if f.kind.is_parallel() {
                    self.par_loops.push(loop_id);
                }
                self.compile_stmt(&f.body);
                if f.kind.is_parallel() {
                    self.par_loops.pop();
                }
                self.ops.push(Op::ForNext {
                    loop_id,
                    var: var_slot,
                    body: body_at as u32,
                });
                let end = self.ops.len() as u32;
                if let Op::ForSetup { end: e, .. } = &mut self.ops[setup] {
                    *e = end;
                }
            }
            Stmt::BlockRealize(br) => self.compile_block_realize(br),
        }
    }

    fn compile_block_realize(&mut self, br: &BlockRealize) {
        self.compile_expr(&br.predicate, 0);
        let jz = self.ops.len();
        self.ops.push(Op::JumpIfZero { reg: 0, target: 0 });
        let block: &Block = &br.block;
        let has_init = block.init.is_some();
        let has_reduce = block.is_reduction();
        if has_init && has_reduce {
            self.ops.push(Op::ResetReduceFlag);
        }
        // Bind iterators one at a time: the tree-walker inserts each into
        // the environment before evaluating the next binding value.
        for (iv, value) in block.iter_vars.iter().zip(&br.iter_values) {
            self.compile_expr(value, 0);
            let slot = self.slot(&iv.var);
            self.ops.push(Op::SetVar { slot, src: 0 });
            if has_init && has_reduce && iv.kind == IterKind::Reduce {
                self.ops.push(Op::UpdateReduceFlag { reg: 0 });
            }
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
            let guard = if has_reduce {
                let at = self.ops.len();
                self.ops.push(Op::JumpIfReduceFlagFalse { target: 0 });
                Some(at)
            } else {
                None
            };
            self.compile_stmt(init);
            if let Some(at) = guard {
                let target = self.ops.len() as u32;
                if let Op::JumpIfReduceFlagFalse { target: t } = &mut self.ops[at] {
                    *t = target;
                }
            }
        }
        self.compile_stmt(&block.body);
        if relaxing {
            self.relax_depth -= 1;
        }
        let end = self.ops.len() as u32;
        if let Op::JumpIfZero { target, .. } = &mut self.ops[jz] {
            *target = end;
        }
    }

    fn finish(self, func: &PrimFunc) -> Program {
        let relaxed = (0..self.buffers.len() as u32)
            .map(|id| self.relaxed_bufs.contains(&id))
            .collect();
        Program {
            func_name: func.name.clone(),
            params: func.params.clone(),
            buffers: self.buffers,
            ops: self.ops,
            accesses: self.accesses,
            names: self.names,
            relaxed,
            reg_pool: self.reg_pool,
            slot_pool: Vec::new(),
            race_pool: self.race_pool,
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
mod tests {
    use super::*;

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
                extent: 0,
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
