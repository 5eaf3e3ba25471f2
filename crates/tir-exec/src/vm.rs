//! The register-based bytecode VM.
//!
//! Executes a [`Program`] produced by [`compile`](crate::compile::compile)
//! with **zero per-step allocation**: every table the dispatch loop touches
//! — registers, the variable frame, loop counters and tensor storage — is
//! sized from the program header and allocated once
//! before the first instruction runs. The loop itself is a flat `match`
//! over `Op`s driven by a program counter.
//!
//! A sanitized run is the same loop monomorphized over a `Sanitizer`
//! instead of the plain path's no-op hooks: every access is bounds
//! checked, and only a *tracked* access (one inside a parallel loop)
//! touches shadow memory. Its signature is the one per-step allocation,
//! and a program without a parallel loop has none. A lane-batched loop
//! (`exec_lanes`) runs to its end in one dispatch, one loop per lane body
//! — multiply-accumulate, fill, copy — for both: each lane does its
//! aliveness check, shadow hook and element access inline, in the scalar
//! loop's order, and moves each offset by the stride the optimizer
//! recorded. Index terms and integer stores round through `round_i64`,
//! which leaves an integral value as it is, so the loop calls no libm
//! routine on integral data.
//!
//! Semantics are bit-identical to the tree-walking
//! [`Interpreter`](crate::Interpreter): the same `f64` arithmetic in the
//! same order, the same quantization on casts and stores, the same
//! [`ExecError`]s at the same points, and a fuel counter that ticks on
//! exactly the same statements (so `OutOfFuel` fires at identical step
//! counts). The `vm_differential` test suite enforces this across every
//! workload family and hundreds of scheduled variants.

use tir::simplify::{floor_div_i64, floor_mod_i64};
use tir::DataType;

use crate::compile::{Access, BinKind, Extent, LaneBody, LaneSpec, MacSpec, Op, Program};
use crate::interp::{check_arg, check_arity, ExecError, RunOutcome, DEFAULT_FUEL};
use crate::tensor::{round_i64, Tensor};

type Result<T> = std::result::Result<T, ExecError>;

/// Observes each instruction the dispatch loop executes.
///
/// The hook is monomorphized into the loop: with [`NoProfile`] (the default
/// used by [`Program::run`] / [`Program::run_with_fuel`]) the call inlines
/// to nothing, so the unprofiled path pays zero cost. `opcode` is a dense
/// index suitable for a fixed-size table; display names come from
/// [`InstrMixProfile::mix`].
pub trait VmProfiler {
    /// Called once per dispatched instruction, before it executes.
    fn on_op(&mut self, opcode: usize);
}

/// The zero-cost profiler: every hook compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProfile;

impl VmProfiler for NoProfile {
    #[inline(always)]
    fn on_op(&mut self, _opcode: usize) {}
}

/// Counts dispatched instructions per opcode.
#[derive(Clone, Debug, Default)]
pub struct InstrMixProfile {
    counts: [u64; Op::COUNT],
}

impl InstrMixProfile {
    /// A fresh profile with all counts zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions dispatched.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Non-zero `(mnemonic, count)` pairs in fixed opcode order.
    pub fn mix(&self) -> Vec<(&'static str, u64)> {
        Op::MNEMONICS
            .iter()
            .zip(self.counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&m, &c)| (m, c))
            .collect()
    }
}

impl VmProfiler for InstrMixProfile {
    #[inline(always)]
    fn on_op(&mut self, opcode: usize) {
        self.counts[opcode] += 1;
    }
}

/// Flat runtime offset of one access site. Index tables live in the
/// program's shared pools; slot terms (the compiler's affine index
/// dimensions) read the variable frame directly, skipping the `LoadVar`
/// round trip through a register.
#[inline]
fn offset(prog: &Program, acc: &Access, regs: &[f64], frame: &[f64]) -> i64 {
    let mut off = acc.base;
    for &(r, stride) in &prog.reg_pool[acc.regs.range()] {
        off += round_i64(regs[r as usize]) * stride;
    }
    for &(s, stride) in &prog.slot_pool[acc.slots.range()] {
        off += round_i64(frame[s as usize]) * stride;
    }
    off
}

/// Shared arithmetic of [`Op::Bin`] and every fused op — one definition,
/// so fused execution is bit-identical to the unfused sequence by
/// construction.
#[inline]
pub(crate) fn bin_eval(kind: BinKind, x: f64, y: f64) -> Result<f64> {
    Ok(match kind {
        BinKind::Add => x + y,
        BinKind::Sub => x - y,
        BinKind::Mul => x * y,
        BinKind::DivF => x / y,
        BinKind::DivI => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            (x as i64 / y as i64) as f64
        }
        BinKind::FloorDivF => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            (x / y).floor()
        }
        BinKind::FloorDivI => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            floor_div_i64(x as i64, y as i64) as f64
        }
        BinKind::FloorModF => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            x - (x / y).floor() * y
        }
        BinKind::FloorModI => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            floor_mod_i64(x as i64, y as i64) as f64
        }
        BinKind::Min => x.min(y),
        BinKind::Max => x.max(y),
        BinKind::And => ((x != 0.0) && (y != 0.0)) as i64 as f64,
        BinKind::Or => ((x != 0.0) || (y != 0.0)) as i64 as f64,
    })
}

/// The tree-walker's cast/quantization semantics ([`Op::Cast`] and
/// [`MacSpec`] operand casts). An integral `x` is its own truncation (the
/// `as i64` round trip keeps exactly the integral values below 2^63 in
/// magnitude, and ±2^63, whose truncation is themselves too).
#[inline]
pub(crate) fn cast_val(x: f64, dtype: DataType, trunc: bool) -> f64 {
    let x = if trunc && (x as i64) as f64 != x {
        x.trunc()
    } else {
        x
    };
    crate::tensor::quantize(x, dtype)
}

/// An access's position in the parallel iteration space: for every
/// enclosing parallel loop (outermost first), its id, the generation of
/// the current dynamic instance, and the current iteration. `-1`
/// iterations only appear in merged read signatures and mean "reads from
/// several iterations of this instance".
type Sig = Box<[(u32, u64, i64)]>;

/// Shadow state of one buffer element: the signature of its last write and
/// the merged signature of reads since.
#[derive(Clone, Default)]
struct Cell {
    write: Option<Sig>,
    read: Option<Sig>,
}

/// Per-access work of one run, monomorphized into the dispatch loop like
/// [`VmProfiler`]: with [`NoShadow`] every hook inlines to nothing, so the
/// plain VM compiles no sanitizer branch.
trait Shadow {
    /// Before the load of element `off` through `acc`.
    fn read(&mut self, acc: &Access, off: i64, store: &[Tensor], counters: &[i64]) -> Result<()>;
    /// Before the store to element `off` through `acc`.
    fn write(&mut self, acc: &Access, off: i64, store: &[Tensor], counters: &[i64]) -> Result<()>;
    /// A `ForSetup` starts a new dynamic instance of loop `l`.
    fn for_setup(&mut self, l: usize);
    /// An `AllocBuf` starts a fresh allocation of buffer `b`.
    fn alloc_buf(&mut self, b: usize);
}

/// The plain VM: no checks, no shadow.
struct NoShadow;

impl Shadow for NoShadow {
    #[inline(always)]
    fn read(&mut self, _: &Access, _: i64, _: &[Tensor], _: &[i64]) -> Result<()> {
        Ok(())
    }
    #[inline(always)]
    fn write(&mut self, _: &Access, _: i64, _: &[Tensor], _: &[i64]) -> Result<()> {
        Ok(())
    }
    #[inline(always)]
    fn for_setup(&mut self, _: usize) {}
    #[inline(always)]
    fn alloc_buf(&mut self, _: usize) {}
}

/// Bounds checking and race tracking of a sanitized run.
///
/// An access is *tracked* iff its race range is non-empty. An untracked
/// access to a buffer that is not relaxed is lexically outside every
/// parallel loop, so no parallel instance is live when it runs and every
/// later tracked signature starts with a newer generation than any stored
/// one: skipping its shadow update changes no later `conflicts` answer and
/// no `merge_read` result, and its own empty signature conflicts with
/// nothing.
struct Sanitizer<'p> {
    prog: &'p Program,
    /// Per buffer id: one [`Cell`] per element if the buffer is
    /// [`tracked`](Program::tracked), else empty.
    shadow: Vec<Vec<Cell>>,
    /// Per loop id: dynamic-instance generation, bumped at every
    /// `ForSetup` — accesses from different instances of a loop are
    /// sequentially ordered and never race through it.
    gens: Vec<u64>,
}

fn sig_of(race: &[u32], gens: &[u64], counters: &[i64]) -> Sig {
    race.iter()
        .map(|&l| (l, gens[l as usize], counters[l as usize]))
        .collect()
}

/// Two accesses conflict when they share a dynamic parallel-loop instance
/// at different iterations. Signatures share exactly a common prefix (loop
/// nests form a tree and instance generations are unique), so a zip walk
/// suffices; returns the first differing iteration pair.
fn conflicts(a: &[(u32, u64, i64)], b: &[(u32, u64, i64)]) -> Option<(i64, i64)> {
    for (x, y) in a.iter().zip(b) {
        if x.0 != y.0 || x.1 != y.1 {
            break;
        }
        if x.2 != y.2 {
            return Some((x.2, y.2));
        }
    }
    None
}

/// Folds a new read into a cell's read signature: common-prefix entries
/// whose iterations differ collapse to the `-1` marker (a later write in
/// that instance must then differ from one of the merged reads, whatever
/// its iteration); entries of dead instances are dropped.
fn merge_read(stored: &mut Option<Sig>, mut new: Sig) {
    if let Some(s) = stored {
        for (x, y) in s.iter().zip(new.iter_mut()) {
            if x.0 != y.0 || x.1 != y.1 {
                break;
            }
            if x.2 != y.2 {
                y.2 = -1;
            }
        }
    }
    *stored = Some(new);
}

#[cold]
fn race_err(buffer: &str, off: i64, iters: (i64, i64)) -> ExecError {
    let show = |i: i64| {
        if i < 0 {
            "several".to_string()
        } else {
            i.to_string()
        }
    };
    ExecError::DataRace(format!(
        "buffer {buffer}: iterations {} and {} of a parallel loop both touch element {off}",
        show(iters.0),
        show(iters.1)
    ))
}

#[cold]
fn bounds_err(prog: &Program, buf: usize, off: i64, len: usize) -> ExecError {
    ExecError::OutOfBounds(format!(
        "buffer {}: flat offset {off} outside length {len}",
        prog.buffers[buf].name()
    ))
}

impl<'p> Sanitizer<'p> {
    fn new(prog: &'p Program) -> Self {
        let cells = |b: &tir::Buffer| {
            vec![Cell::default(); b.shape().iter().product::<i64>().max(0) as usize]
        };
        Sanitizer {
            prog,
            shadow: (prog.buffers.iter().zip(&prog.tracked))
                .map(|(b, &t)| if t { cells(b) } else { Vec::new() })
                .collect(),
            gens: vec![0u64; prog.num_loops],
        }
    }

    /// Bounds check of every access; race tracking of a tracked one.
    #[inline(always)]
    fn access(
        &mut self,
        acc: &Access,
        off: i64,
        store: &[Tensor],
        counters: &[i64],
        write: bool,
    ) -> Result<()> {
        let len = store[acc.buf as usize].data().len();
        // A negative offset wraps past every length.
        if off as usize >= len {
            return Err(bounds_err(self.prog, acc.buf as usize, off, len));
        }
        if acc.race.is_empty() {
            return Ok(());
        }
        self.track(acc, off, counters, write)
    }

    /// Checks a tracked access against the element's last write and, for
    /// a write, the reads merged since; then records it.
    #[inline(never)]
    fn track(&mut self, acc: &Access, off: i64, counters: &[i64], write: bool) -> Result<()> {
        let prog = self.prog;
        let sig = sig_of(&prog.race_pool[acc.race.range()], &self.gens, counters);
        let cell = &mut self.shadow[acc.buf as usize][off as usize];
        let reads = if write { cell.read.as_ref() } else { None };
        for prev in cell.write.iter().chain(reads) {
            if let Some(iters) = conflicts(prev, &sig) {
                return Err(race_err(prog.buffers[acc.buf as usize].name(), off, iters));
            }
        }
        if write {
            cell.write = Some(sig);
        } else {
            merge_read(&mut cell.read, sig);
        }
        Ok(())
    }
}

impl Shadow for Sanitizer<'_> {
    #[inline(always)]
    fn read(&mut self, acc: &Access, off: i64, store: &[Tensor], counters: &[i64]) -> Result<()> {
        self.access(acc, off, store, counters, false)
    }

    #[inline(always)]
    fn write(&mut self, acc: &Access, off: i64, store: &[Tensor], counters: &[i64]) -> Result<()> {
        self.access(acc, off, store, counters, true)
    }

    fn for_setup(&mut self, l: usize) {
        self.gens[l] += 1;
    }

    /// A fresh allocation: accesses to the previous one cannot race with
    /// accesses to this one.
    fn alloc_buf(&mut self, b: usize) {
        self.shadow[b].fill(Cell::default());
    }
}

#[cold]
fn unbound(prog: &Program, buf: usize) -> ExecError {
    ExecError::UnboundBuffer(prog.buffers[buf].name().to_string())
}

/// One buffer read at a precomputed offset: aliveness check, shadow work,
/// then the load (the unfused `Op::Load` semantics exactly).
#[inline]
fn load_at<S: Shadow>(
    prog: &Program,
    acc: &Access,
    off: i64,
    alive: &[bool],
    sh: &mut S,
    counters: &[i64],
    store: &[Tensor],
) -> Result<f64> {
    let buf = acc.buf as usize;
    if !alive[buf] {
        return Err(unbound(prog, buf));
    }
    sh.read(acc, off, store, counters)?;
    Ok(store[buf].get_flat(off as usize))
}

/// One buffer write at a precomputed offset: shadow work, first-store
/// allocation, quantizing store (the unfused `Op::Store` semantics).
#[inline]
fn store_at<S: Shadow>(
    acc: &Access,
    off: i64,
    val: f64,
    alive: &mut [bool],
    sh: &mut S,
    counters: &[i64],
    store: &mut [Tensor],
) -> Result<()> {
    let buf = acc.buf as usize;
    sh.write(acc, off, store, counters)?;
    alive[buf] = true;
    store[buf].set_flat(off as usize, val);
    Ok(())
}

/// One fused multiply-accumulate: loads in the unfused order
/// (`acc, a, b`), casts, combines, stores back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn exec_mac<S: Shadow>(
    prog: &Program,
    sp: &MacSpec,
    regs: &[f64],
    frame: &[f64],
    alive: &mut [bool],
    sh: &mut S,
    counters: &[i64],
    store: &mut [Tensor],
) -> Result<()> {
    let acc = &prog.accesses[sp.acc as usize];
    let a = &prog.accesses[sp.a as usize];
    let b = &prog.accesses[sp.b as usize];
    let off_acc = offset(prog, acc, regs, frame);
    let x = load_at(prog, acc, off_acc, alive, sh, counters, store)?;
    let mut y = load_at(
        prog,
        a,
        offset(prog, a, regs, frame),
        alive,
        sh,
        counters,
        store,
    )?;
    if let Some((dt, trunc)) = sp.a_cast {
        y = cast_val(y, dt, trunc);
    }
    let mut z = load_at(
        prog,
        b,
        offset(prog, b, regs, frame),
        alive,
        sh,
        counters,
        store,
    )?;
    if let Some((dt, trunc)) = sp.b_cast {
        z = cast_val(z, dt, trunc);
    }
    let v = bin_eval(sp.k2, x, bin_eval(sp.k1, y, z)?)?;
    store_at(acc, off_acc, v, alive, sh, counters, store)
}

/// Executes a lane-batched innermost loop in one dispatch, one lane per
/// iteration. The op sits right after its loop's `ForSetup`, which skips
/// an empty loop, and nothing jumps into the loop: the counter is 0 here
/// and the extent at least 1, so the last lane leaves the counter where
/// the following `ForNext` exits. Per-lane semantics — fuel ticks,
/// guarded init fire, load/store order, quantization, errors, sanitizer
/// shadow updates — are exactly the scalar loop body's. Offsets are
/// computed for the first lane only; each later lane adds the access's
/// stride ([`LaneSpec::strides`]). Every lane does its own aliveness
/// check, shadow hook and element access inline, one loop per body shape
/// for the plain and the sanitized run alike.
#[allow(clippy::too_many_arguments)]
fn exec_lanes<S: Shadow>(
    prog: &Program,
    sp: &LaneSpec,
    regs: &[f64],
    frame: &[f64],
    alive: &mut [bool],
    sh: &mut S,
    counters: &mut [i64],
    extents: &[i64],
    store: &mut [Tensor],
    steps: &mut u64,
    fuel: u64,
) -> Result<()> {
    let l = sp.loop_id as usize;
    debug_assert_eq!(counters[l], 0);
    // The scalar `Op::Tick`, `Op::Load` and `Op::Store` of one lane.
    macro_rules! tick {
        () => {
            *steps += 1;
            if *steps > fuel {
                return Err(ExecError::OutOfFuel);
            }
        };
    }
    macro_rules! load {
        ($acc:expr, $off:expr) => {{
            let buf = $acc.buf as usize;
            if !alive[buf] {
                return Err(unbound(prog, buf));
            }
            sh.read($acc, $off, store, counters)?;
            store[buf].get_flat($off as usize)
        }};
    }
    macro_rules! store {
        ($acc:expr, $off:expr, $val:expr) => {{
            let buf = $acc.buf as usize;
            sh.write($acc, $off, store, counters)?;
            alive[buf] = true;
            store[buf].set_flat($off as usize, $val);
        }};
    }
    // An access site with its offset at the first lane.
    let site = |id: u32| {
        let acc = &prog.accesses[id as usize];
        (acc, offset(prog, acc, regs, frame))
    };
    match sp.body {
        LaneBody::Mac(m) => {
            let ms = &prog.mac_specs[m as usize];
            let [d_acc, d_a, d_b] = sp.strides;
            let (acc, mut off_acc) = site(ms.acc);
            let (a, mut off_a) = site(ms.a);
            let (b, mut off_b) = site(ms.b);
            // The init fires on a lane iff every flag slot is zero; slots
            // other than the loop variable are invariant across the loop.
            let init = sp.guard.as_ref().map(|g| {
                let others_zero =
                    (g.flags.iter()).all(|&f| f == sp.var || frame[f as usize] == 0.0);
                let first_only = g.flags.contains(&sp.var);
                (
                    &prog.accesses[g.access as usize],
                    g.val,
                    others_zero,
                    first_only,
                )
            });
            for i in 0..extents[l] {
                counters[l] = i;
                if let Some((ga, val, others_zero, first_only)) = init {
                    if others_zero && (!first_only || i == 0) {
                        tick!();
                        store!(ga, off_acc, val);
                    }
                }
                tick!();
                let x = load!(acc, off_acc);
                let mut y = load!(a, off_a);
                if let Some((dt, trunc)) = ms.a_cast {
                    y = cast_val(y, dt, trunc);
                }
                let mut z = load!(b, off_b);
                if let Some((dt, trunc)) = ms.b_cast {
                    z = cast_val(z, dt, trunc);
                }
                let v = bin_eval(ms.k2, x, bin_eval(ms.k1, y, z)?)?;
                store!(acc, off_acc, v);
                off_acc += d_acc;
                off_a += d_a;
                off_b += d_b;
            }
        }
        LaneBody::Fill(id, val) => {
            let d = sp.strides[0];
            let (acc, mut off) = site(id);
            for i in 0..extents[l] {
                counters[l] = i;
                tick!();
                store!(acc, off, val);
                off += d;
            }
        }
        LaneBody::Copy(src_id, dst_id) => {
            let [d_src, d_dst, _] = sp.strides;
            let (src, mut off_src) = site(src_id);
            let (dst, mut off_dst) = site(dst_id);
            for i in 0..extents[l] {
                counters[l] = i;
                tick!();
                let v = load!(src, off_src);
                store!(dst, off_dst, v);
                off_src += d_src;
                off_dst += d_dst;
            }
        }
    }
    Ok(())
}

impl Program {
    /// Runs the program on positional tensor arguments with the default
    /// fuel budget, returning the final value of every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadArguments`] on arity/shape/dtype mismatch
    /// and propagates any execution failure.
    pub fn run(&self, args: Vec<Tensor>) -> Result<Vec<Tensor>> {
        Ok(self.run_with_fuel(args, DEFAULT_FUEL)?.outputs)
    }

    /// Runs the program with an explicit fuel budget, returning outputs
    /// plus the number of store/eval steps executed.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadArguments`] on arity/shape/dtype mismatch
    /// and propagates any execution failure ([`ExecError::OutOfFuel`] when
    /// the budget is exhausted, at the exact step count the tree-walker
    /// would report).
    pub fn run_with_fuel(&self, args: Vec<Tensor>, fuel: u64) -> Result<RunOutcome> {
        self.run_impl(args, fuel, &mut NoProfile, &mut NoShadow)
    }

    /// Runs the program while feeding every dispatched instruction to a
    /// [`VmProfiler`] (e.g. [`InstrMixProfile`] for an instruction-mix
    /// histogram). Execution semantics are identical to
    /// [`run_with_fuel`](Self::run_with_fuel).
    ///
    /// # Errors
    ///
    /// Same as [`run_with_fuel`](Self::run_with_fuel).
    pub fn run_profiled(
        &self,
        args: Vec<Tensor>,
        fuel: u64,
        prof: &mut impl VmProfiler,
    ) -> Result<RunOutcome> {
        self.run_impl(args, fuel, prof, &mut NoShadow)
    }

    /// Runs the program under the dynamic sanitizer: every access is
    /// bounds checked against its buffer's flat length, and conflicting
    /// accesses to one element from two different iterations of any
    /// parallel (or thread-bound) loop raise [`ExecError::DataRace`].
    /// Buffers touched by blocks carrying a
    /// [`tir::RELAXING_ANNOTATIONS`] annotation are exempt from race
    /// tracking, mirroring the static analyzer in `tir-analysis`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadArguments`] on arity/shape/dtype mismatch,
    /// [`ExecError::OutOfBounds`]/[`ExecError::DataRace`] on the first
    /// violation, and propagates any other execution failure.
    pub fn run_sanitized(&self, args: Vec<Tensor>, fuel: u64) -> Result<RunOutcome> {
        self.run_impl(args, fuel, &mut NoProfile, &mut Sanitizer::new(self))
    }

    fn run_impl<P: VmProfiler, S: Shadow>(
        &self,
        args: Vec<Tensor>,
        fuel: u64,
        prof: &mut P,
        sh: &mut S,
    ) -> Result<RunOutcome> {
        check_arity(&self.func_name, &self.params, &args)?;
        for (p, t) in self.params.iter().zip(&args) {
            check_arg(p, t)?;
        }
        let nparams = self.params.len();

        // The whole runtime state, allocated once up front.
        let mut store: Vec<Tensor> = args;
        for b in &self.buffers[nparams..] {
            store.push(Tensor::zeros(b.dtype(), b.shape()));
        }
        let mut alive = vec![false; self.buffers.len()];
        alive[..nparams].fill(true);
        let mut regs = vec![0.0f64; self.num_regs];
        let mut frame = vec![0.0f64; self.num_slots];
        let mut counters = vec![0i64; self.num_loops];
        let mut extents = vec![0i64; self.num_loops];
        let mut reduce_at_start = true;
        let mut steps: u64 = 0;

        let ops = &self.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = &ops[pc];
            prof.on_op(op.opcode());
            match op {
                Op::Const { dst, val } => regs[*dst as usize] = *val,
                Op::LoadVar { dst, slot } => regs[*dst as usize] = frame[*slot as usize],
                Op::SetVar { slot, src } => frame[*slot as usize] = regs[*src as usize],
                Op::ThrowUnknownIntrinsic { name } => {
                    return Err(ExecError::UnknownIntrinsic(
                        self.names[*name as usize].clone(),
                    ));
                }
                Op::Cast {
                    dst,
                    src,
                    dtype,
                    trunc,
                } => {
                    regs[*dst as usize] = cast_val(regs[*src as usize], *dtype, *trunc);
                }
                Op::Bin { kind, dst, a, b } => {
                    regs[*dst as usize] = bin_eval(*kind, regs[*a as usize], regs[*b as usize])?;
                }
                Op::Cmp { op, dst, a, b } => {
                    let x = regs[*a as usize];
                    let y = regs[*b as usize];
                    regs[*dst as usize] = op.apply(x, y) as i64 as f64;
                }
                Op::Not { dst, src } => {
                    regs[*dst as usize] = (regs[*src as usize] == 0.0) as i64 as f64;
                }
                Op::Call { dst, f, first, n } => {
                    let lo = *first as usize;
                    let v = f.eval(&regs[lo..lo + *n as usize]);
                    regs[*dst as usize] = v;
                }
                Op::Load { dst, access } => {
                    let acc = &self.accesses[*access as usize];
                    let off = offset(self, acc, &regs, &frame);
                    regs[*dst as usize] = load_at(self, acc, off, &alive, sh, &counters, &store)?;
                }
                Op::Store { access, val } => {
                    let acc = &self.accesses[*access as usize];
                    let off = offset(self, acc, &regs, &frame);
                    // First store allocates (the storage is pre-zeroed, so
                    // marking it live is the whole allocation).
                    store_at(
                        acc,
                        off,
                        regs[*val as usize],
                        &mut alive,
                        sh,
                        &counters,
                        &mut store,
                    )?;
                }
                Op::Tick => {
                    steps += 1;
                    if steps > fuel {
                        return Err(ExecError::OutOfFuel);
                    }
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfZero { reg, target } => {
                    if regs[*reg as usize] == 0.0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::ForSetup {
                    loop_id,
                    extent,
                    var,
                    end,
                } => {
                    let l = *loop_id as usize;
                    sh.for_setup(l);
                    extents[l] = match *extent {
                        Extent::Lit(n) => i64::from(n),
                        Extent::Reg(r) => round_i64(regs[r as usize]),
                    };
                    counters[l] = 0;
                    if extents[l] <= 0 {
                        pc = *end as usize;
                        continue;
                    }
                    frame[*var as usize] = 0.0;
                }
                Op::ForNext { loop_id, var, body } => {
                    let l = *loop_id as usize;
                    counters[l] += 1;
                    if counters[l] < extents[l] {
                        frame[*var as usize] = counters[l] as f64;
                        pc = *body as usize;
                        continue;
                    }
                }
                Op::ResetReduceFlag => reduce_at_start = true,
                Op::UpdateReduceFlag { reg } => {
                    if regs[*reg as usize] != 0.0 {
                        reduce_at_start = false;
                    }
                }
                Op::JumpIfReduceFlagFalse { target } => {
                    if !reduce_at_start {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::AllocBuf { buf } => {
                    let b = *buf as usize;
                    store[b].fill_zero();
                    alive[b] = true;
                    sh.alloc_buf(b);
                }
                Op::BinStore { kind, a, b, access } => {
                    let v = bin_eval(*kind, regs[*a as usize], regs[*b as usize])?;
                    let acc = &self.accesses[*access as usize];
                    let off = offset(self, acc, &regs, &frame);
                    store_at(acc, off, v, &mut alive, sh, &counters, &mut store)?;
                }
                Op::StoreConst { access, val } => {
                    let acc = &self.accesses[*access as usize];
                    let off = offset(self, acc, &regs, &frame);
                    store_at(acc, off, *val, &mut alive, sh, &counters, &mut store)?;
                }
                Op::FusedMac { spec } => {
                    exec_mac(
                        self,
                        &self.mac_specs[*spec as usize],
                        &regs,
                        &frame,
                        &mut alive,
                        sh,
                        &counters,
                        &mut store,
                    )?;
                }
                Op::MacLanes { spec } => {
                    exec_lanes(
                        self,
                        &self.lane_specs[*spec as usize],
                        &regs,
                        &frame,
                        &mut alive,
                        sh,
                        &mut counters,
                        &extents,
                        &mut store,
                        &mut steps,
                        fuel,
                    )?;
                }
            }
            pc += 1;
        }

        store.truncate(nparams);
        Ok(RunOutcome {
            outputs: store,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use tir::builder::matmul_func;
    use tir::{Buffer, DataType, Expr, PrimFunc, Stmt, Var};

    use crate::compile::compile;
    use crate::interp::{run_with, ExecBackend, ExecError, DEFAULT_FUEL};
    use crate::opt::compile_optimized;
    use crate::tensor::Tensor;
    use crate::vm::InstrMixProfile;

    /// Runs `func` on every backend with identical inputs and asserts
    /// bit-exact outputs and identical step counts; returns the steps.
    fn backends_agree(func: &PrimFunc, num_outputs: usize, seed: u64) -> u64 {
        let n = func.params.len();
        let args: Vec<Tensor> = func
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i + num_outputs >= n {
                    Tensor::zeros(p.dtype(), p.shape())
                } else {
                    Tensor::random(p.dtype(), p.shape(), seed.wrapping_add(i as u64))
                }
            })
            .collect();
        let tw = run_with(func, args.clone(), ExecBackend::TreeWalk, None).expect("tree-walk");
        let unopt = compile(func).expect("compiles");
        let runs = [
            (
                "unoptimized",
                unopt.run_with_fuel(args.clone(), DEFAULT_FUEL),
            ),
            ("optimized", run_with(func, args, ExecBackend::Vm, None)),
        ];
        for (backend, vm) in runs {
            let vm = vm.expect("vm");
            let name = &func.name;
            assert_eq!(
                tw.outputs, vm.outputs,
                "{backend} outputs diverge on {name}"
            );
            assert_eq!(
                tw.steps, vm.steps,
                "{backend} step counts diverge on {name}"
            );
        }
        tw.steps
    }

    #[test]
    fn matmul_bit_exact_and_step_exact() {
        for dt in [
            DataType::float32(),
            DataType::float16(),
            DataType::bfloat16(),
            DataType::int8(),
        ] {
            let f = matmul_func("mm", 6, 5, 4, dt);
            backends_agree(&f, 1, 7);
        }
    }

    #[test]
    fn fuel_boundary_is_identical() {
        let f = matmul_func("mm", 4, 4, 4, DataType::float32());
        let steps = backends_agree(&f, 1, 3);
        let args: Vec<Tensor> = f
            .params
            .iter()
            .map(|p| Tensor::zeros(p.dtype(), p.shape()))
            .collect();
        for backend in [ExecBackend::TreeWalk, ExecBackend::Vm] {
            let ok = run_with(&f, args.clone(), backend, Some(steps)).expect("exact fuel");
            assert_eq!(ok.steps, steps);
            let err = run_with(&f, args.clone(), backend, Some(steps - 1)).unwrap_err();
            assert!(matches!(err, ExecError::OutOfFuel), "{backend:?}: {err}");
        }
    }

    #[test]
    fn loop_invariant_index_terms_agree_on_every_backend() {
        // B[i] += A[i] inside a j-loop and outside any block: the A/B index
        // is invariant in j and is evaluated afresh on every iteration.
        let a = Buffer::new("A", DataType::float32(), vec![8]);
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let i = Var::int("i");
        let j = Var::int("j");
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&i)],
            b.load(vec![Expr::from(&i)]) + a.load(vec![Expr::from(&i)]),
        )
        .in_loop(j.clone(), 4)
        .in_loop(i.clone(), 8);
        let f = PrimFunc::new("accum", vec![a, b], body);
        backends_agree(&f, 1, 11);
    }

    #[test]
    fn unbound_buffer_errors_on_both_backends() {
        // Loading from a buffer that is neither a param nor allocated must
        // fail instead of yielding phantom zeros.
        let phantom = Buffer::new("P", DataType::float32(), vec![4]);
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        let i = Var::int("i");
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&i)],
            phantom.load(vec![Expr::from(&i)]),
        )
        .in_loop(i, 4);
        let f = PrimFunc::new("phantom", vec![b], body);
        for backend in [ExecBackend::TreeWalk, ExecBackend::Vm] {
            let args = vec![Tensor::zeros(DataType::float32(), &[4])];
            let err = run_with(&f, args, backend, None).unwrap_err();
            assert!(
                matches!(&err, ExecError::UnboundBuffer(n) if n == "P"),
                "{backend:?}: {err}"
            );
        }
    }

    #[test]
    fn runtime_errors_are_identical() {
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        let mk = |value: Expr| {
            let i = Var::int("i");
            PrimFunc::new(
                "err",
                vec![b.clone()],
                Stmt::store(b.clone(), vec![Expr::from(&i)], value).in_loop(i.clone(), 4),
            )
        };
        type Check = fn(&ExecError) -> bool;
        let cases: Vec<(PrimFunc, Check)> = vec![
            (mk(Expr::int(1).floor_div(Expr::int(0))), |e| {
                matches!(e, ExecError::DivisionByZero)
            }),
            (
                mk(Expr::Call {
                    name: "bogus".into(),
                    args: vec![Expr::f32(1.0)],
                    dtype: DataType::float32(),
                }),
                |e| matches!(e, ExecError::UnknownIntrinsic(_)),
            ),
        ];
        for (f, check) in cases {
            for backend in [ExecBackend::TreeWalk, ExecBackend::Vm] {
                let args = vec![Tensor::zeros(DataType::float32(), &[4])];
                let err = run_with(&f, args, backend, None).unwrap_err();
                assert!(check(&err), "{backend:?}: {err}");
            }
        }
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_counts_every_dispatch() {
        let f = tir::builder::matmul_func("mm", 6, 5, 4, DataType::float32());
        let prog = compile(&f).expect("compiles");
        let args: Vec<Tensor> = f
            .params
            .iter()
            .map(|b| Tensor::zeros(b.dtype(), b.shape()))
            .collect();
        let plain = prog.run_with_fuel(args.clone(), 1 << 20).expect("plain");
        let mut prof = InstrMixProfile::new();
        let profiled = prog
            .run_profiled(args, 1 << 20, &mut prof)
            .expect("profiled");
        assert_eq!(plain.steps, profiled.steps);
        for (a, b) in plain.outputs.iter().zip(&profiled.outputs) {
            assert_eq!(a.data(), b.data());
        }
        let mix = prof.mix();
        assert!(!mix.is_empty());
        assert_eq!(mix.iter().map(|(_, c)| c).sum::<u64>(), prof.total());
        // The fuel counter ticks on store/eval statements, each of which
        // dispatches at least a `tick` instruction, so the total dispatch
        // count dominates the step count.
        assert!(prof.total() >= plain.steps);
        let tick = mix.iter().find(|(m, _)| *m == "tick").map(|(_, c)| *c);
        assert_eq!(tick, Some(plain.steps));
    }

    #[test]
    fn sanitizer_catches_parallel_reduction_race() {
        // parallel i: B[0] += 1 — every iteration touches one cell.
        let b = Buffer::new("B", DataType::float32(), vec![1]);
        let i = Var::int("i");
        let body = Stmt::store(
            b.clone(),
            vec![Expr::int(0)],
            b.load(vec![Expr::int(0)]) + Expr::f32(1.0),
        );
        let f = PrimFunc::new(
            "race",
            vec![b],
            Stmt::For(Box::new(tir::For::with_kind(
                i,
                8,
                tir::ForKind::Parallel,
                body,
            ))),
        );
        let prog = compile(&f).expect("compiles");
        let args = vec![Tensor::zeros(DataType::float32(), &[1])];
        let err = prog.run_sanitized(args.clone(), 1 << 20).unwrap_err();
        assert!(matches!(err, ExecError::DataRace(_)), "{err}");
        // Plain execution is unaffected.
        prog.run_with_fuel(args, 1 << 20).expect("plain run");
    }

    #[test]
    fn sanitizer_accepts_disjoint_parallel_writes() {
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let i = Var::int("i");
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&i)],
            b.load(vec![Expr::from(&i)]) + Expr::f32(1.0),
        );
        let f = PrimFunc::new(
            "clean",
            vec![b],
            Stmt::For(Box::new(tir::For::with_kind(
                i,
                8,
                tir::ForKind::Parallel,
                body,
            ))),
        );
        let prog = compile(&f).expect("compiles");
        let args = vec![Tensor::zeros(DataType::float32(), &[8])];
        prog.run_sanitized(args, 1 << 20).expect("race-free");
    }

    #[test]
    fn sanitizer_separates_loop_instances() {
        // serial o { parallel i: B[i] += o } — the two dynamic instances
        // of the parallel loop are sequentially ordered; same-cell writes
        // across them are not races.
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        let (o, i) = (Var::int("o"), Var::int("i"));
        let inner = Stmt::store(
            b.clone(),
            vec![Expr::from(&i)],
            b.load(vec![Expr::from(&i)]) + Expr::from(&o),
        );
        let body = Stmt::For(Box::new(tir::For::with_kind(
            i,
            4,
            tir::ForKind::Parallel,
            inner,
        )))
        .in_loop(o, 2);
        let f = PrimFunc::new("gens", vec![b], body);
        let prog = compile(&f).expect("compiles");
        let args = vec![Tensor::zeros(DataType::float32(), &[4])];
        prog.run_sanitized(args, 1 << 20)
            .expect("instances ordered");
    }

    #[test]
    fn sanitizer_catches_out_of_bounds() {
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        let i = Var::int("i");
        let body = Stmt::store(b.clone(), vec![Expr::from(&i) + 1], Expr::f32(1.0));
        let f = PrimFunc::new("oob", vec![b], body.in_loop(i, 4));
        let prog = compile(&f).expect("compiles");
        let args = vec![Tensor::zeros(DataType::float32(), &[4])];
        let err = prog.run_sanitized(args, 1 << 20).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds(_)), "{err}");
    }

    #[test]
    fn relaxing_annotation_exempts_buffer() {
        // The racy reduction again, but inside a block annotated
        // tir.atomic — the sanitizer must stay quiet, like the static
        // analyzer.
        let b = Buffer::new("B", DataType::float32(), vec![1]);
        let i = Var::int("i");
        let body = Stmt::store(
            b.clone(),
            vec![Expr::int(0)],
            b.load(vec![Expr::int(0)]) + Expr::f32(1.0),
        );
        let vk = Var::int("vk");
        let mut block = tir::Block::new(
            "atomic_add",
            vec![tir::IterVar::reduce(vk, 8)],
            vec![b.full_region()],
            vec![b.full_region()],
            body,
        );
        block
            .annotations
            .insert("tir.atomic".into(), tir::AnnValue::Int(1));
        let realize = tir::BlockRealize::new(vec![Expr::from(&i)], block);
        let f = PrimFunc::new(
            "relaxed",
            vec![b],
            Stmt::For(Box::new(tir::For::with_kind(
                i,
                8,
                tir::ForKind::Parallel,
                Stmt::BlockRealize(Box::new(realize)),
            ))),
        );
        let prog = compile(&f).expect("compiles");
        let args = vec![Tensor::zeros(DataType::float32(), &[1])];
        prog.run_sanitized(args, 1 << 20).expect("relaxed buffer");
    }

    fn parallel(var: &Var, extent: i64, body: Stmt) -> Stmt {
        Stmt::For(Box::new(tir::For::with_kind(
            var.clone(),
            extent,
            tir::ForKind::Parallel,
            body,
        )))
    }

    /// `B[idx] = B[idx] + 1`.
    fn bump(b: &Buffer, idx: Expr) -> Stmt {
        Stmt::store(
            b.clone(),
            vec![idx.clone()],
            b.load(vec![idx]) + Expr::f32(1.0),
        )
    }

    /// `run_sanitized` on zeroed inputs, on the compiler's bytecode and on
    /// optimized bytecode; asserts the two agree and returns the verdict.
    fn sanitized(f: &PrimFunc) -> Result<u64, String> {
        let args: Vec<Tensor> = (f.params.iter())
            .map(|p| Tensor::zeros(p.dtype(), p.shape()))
            .collect();
        let [plain, opt] = [compile(f), compile_optimized(f)].map(|p| {
            let out = p.expect("compiles").run_sanitized(args.clone(), 1 << 20);
            out.map(|o| (o.steps, o.outputs)).map_err(|e| e.to_string())
        });
        assert_eq!(plain, opt, "optimized bytecode changes the verdict");
        plain.map(|(steps, _)| steps)
    }

    #[test]
    fn a_serial_access_between_parallel_instances_stays_clean() {
        // parallel i { B[i] = 1 }; B[0] = 2; parallel i { C[i] = B[i] } —
        // the serial write is ordered after the first instance and before
        // the second, so nothing races.
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let c = Buffer::new("C", DataType::float32(), vec![8]);
        let (i, j) = (Var::int("i"), Var::int("j"));
        let body = Stmt::seq(vec![
            parallel(
                &i,
                8,
                Stmt::store(b.clone(), vec![Expr::from(&i)], Expr::f32(1.0)),
            ),
            Stmt::store(b.clone(), vec![Expr::int(0)], Expr::f32(2.0)),
            parallel(
                &j,
                8,
                Stmt::store(
                    c.clone(),
                    vec![Expr::from(&j)],
                    b.load(vec![Expr::from(&j)]),
                ),
            ),
        ]);
        let f = PrimFunc::new("ordered", vec![b, c], body);
        assert_eq!(sanitized(&f), Ok(17));
    }

    #[test]
    fn a_serial_write_before_a_racy_parallel_loop_keeps_the_race() {
        // B[0] = 2; parallel i { B[0] += 1 }.
        let b = Buffer::new("B", DataType::float32(), vec![1]);
        let i = Var::int("i");
        let body = Stmt::seq(vec![
            Stmt::store(b.clone(), vec![Expr::int(0)], Expr::f32(2.0)),
            parallel(&i, 8, bump(&b, Expr::int(0))),
        ]);
        let f = PrimFunc::new("race_after_serial", vec![b], body);
        assert_eq!(
            sanitized(&f),
            Err(
                "data race: buffer B: iterations 0 and 1 of a parallel loop both touch \
                 element 0"
                    .to_string()
            )
        );
    }

    #[test]
    fn a_relaxing_annotation_exempts_the_buffer_everywhere() {
        // parallel i { atomic block: B[0] += 1 }; parallel j { B[0] = 1 } —
        // the second loop races, and alone it is convicted; the annotation
        // in the first exempts B in both, as the static analyzer does.
        let b = Buffer::new("B", DataType::float32(), vec![1]);
        let (i, j, vk) = (Var::int("i"), Var::int("j"), Var::int("vk"));
        let mut block = tir::Block::new(
            "atomic_add",
            vec![tir::IterVar::reduce(vk, 8)],
            vec![b.full_region()],
            vec![b.full_region()],
            bump(&b, Expr::int(0)),
        );
        block
            .annotations
            .insert("tir.atomic".into(), tir::AnnValue::Int(1));
        let realize = tir::BlockRealize::new(vec![Expr::from(&i)], block);
        let racy = parallel(
            &j,
            8,
            Stmt::store(b.clone(), vec![Expr::int(0)], Expr::f32(1.0)),
        );
        let alone = PrimFunc::new("racy", vec![b.clone()], racy.clone());
        assert!(sanitized(&alone).unwrap_err().starts_with("data race"));
        let body = Stmt::seq(vec![
            parallel(&i, 8, Stmt::BlockRealize(Box::new(realize))),
            racy,
        ]);
        let f = PrimFunc::new("relaxed_twice", vec![b], body);
        assert_eq!(sanitized(&f), Ok(16));
    }

    #[test]
    fn expression_zoo_matches() {
        // One store exercising select (branch-only evaluation), logic ops
        // (no short-circuit), comparisons, casts, min/max, floor ops on
        // floats and ints, and math intrinsics.
        let a = Buffer::new("A", DataType::float32(), vec![16]);
        let b = Buffer::new("B", DataType::float32(), vec![16]);
        let i = Var::int("i");
        let iv = || Expr::from(&i);
        let x = || a.load(vec![iv()]);
        let value = Expr::select(
            iv().floor_mod(Expr::int(2))
                .eq_(0)
                .and(x().lt(Expr::f32(0.5))),
            Expr::Call {
                name: "sqrt".into(),
                args: vec![x() * x() + Expr::f32(1.0)],
                dtype: DataType::float32(),
            },
            Expr::Cast(DataType::int8(), Box::new(x() * Expr::f32(100.0)))
                + Expr::Bin(
                    tir::BinOp::Max,
                    Box::new(x()),
                    Box::new(Expr::Bin(
                        tir::BinOp::Min,
                        Box::new(iv().floor_div(Expr::int(3))),
                        Box::new(Expr::Not(Box::new(x().lt(Expr::f32(0.0))))),
                    )),
                ),
        );
        let body = Stmt::store(b.clone(), vec![iv()], value).in_loop(i.clone(), 16);
        let f = PrimFunc::new("zoo", vec![a, b], body);
        backends_agree(&f, 1, 99);
    }
}
