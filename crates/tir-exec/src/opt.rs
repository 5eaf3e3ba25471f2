//! The bytecode optimizer: peephole fusion, strength reduction, and
//! multi-lane dispatch between [`compile`](crate::compile::compile) and
//! the [`vm`](crate::vm).
//!
//! Pass order (see `ARCHITECTURE.md` § "Bytecode optimizer"):
//!
//! 1. **Strength reduction** (`fold_access_slots`): access index terms
//!    of the form `LoadVar r, slot; ... offset uses round(r)*stride` are
//!    folded into direct frame-slot terms (`Access::slots`), deleting
//!    the `LoadVar` when it becomes dead. This is what makes per-lane
//!    offsets incrementable.
//! 2. **Affine iterator forwarding** (`forward_iterators`): a block
//!    iterator bound once to an affine form of loop variables
//!    (`vi = i0*16 + i1`, what every schedule primitive leaves behind —
//!    a copy `vi = i` is the one-term case) is substituted into the
//!    access terms that read it, transitively through the iterators of
//!    enclosing blocks, so accesses index by loop variables the fusions
//!    and the lane batcher understand; the binding itself then dies.
//! 3. **Constant folding + dead code** (`fold_constants` /
//!    `dead_code`, to a fixpoint): `Const`-fed `Bin`/`Cast`/branches
//!    fold; pure ops with dead destinations and `SetVar`s to never-read
//!    slots are deleted.
//! 4. **MAC fusion** (`fuse_macs`): the eight-op
//!    `Load; Load; [Cast]; Load; [Cast]; Bin; Bin; Store` inner-product
//!    idiom collapses to one `Op::FusedMac`.
//! 5. **Small fusions** (`fuse_small`): adjacent `Bin; Store` and
//!    `Const; Store` pairs collapse to `Op::BinStore` / `Op::StoreConst`
//!    (the latter is the fill the lane batcher reads).
//! 6. **Lane batching** (`batch_lanes`): an innermost
//!    `ForSetup/ForNext` loop whose whole body is one fused statement
//!    (plus its `Tick` and optional reduction-init guard) becomes a
//!    single `Op::MacLanes` executing up to `LANE_WIDTH_MAX`
//!    iterations per dispatch with strength-reduced `off += stride`
//!    addressing; a last dead-code sweep collects the outer bindings
//!    only the collapsed body read.
//!
//! Every rewrite preserves the tree-walker contract bit-for-bit: the same
//! `f64` arithmetic in the same order, errors at the same points, fuel
//! ticks at the same statements (fused ops keep their `Tick`s; lanes tick
//! per lane), and full per-access sanitizer fidelity (fused ops replay
//! their constituent accesses in the unfused order).

use crate::compile::{
    LaneBody, LaneGuard, LaneSpec, MacSpec, Op, PoolRange, Program, LANE_WIDTH_MAX,
};
use crate::vm::{bin_eval, cast_val};

/// Programs with more registers than this skip optimization (the liveness
/// analysis packs the register set into one `u128` mask).
const MAX_REGS: usize = 128;

type Mask = u128;

/// Runs the full optimizer pipeline. Idempotent: a program that has
/// already been optimized is returned unchanged.
pub fn optimize(mut prog: Program) -> Program {
    if prog.optimized {
        return prog;
    }
    prog.optimized = true;
    if prog.num_regs > MAX_REGS {
        return prog;
    }
    fold_access_slots(&mut prog);
    forward_iterators(&mut prog);
    while fold_constants(&mut prog) | dead_code(&mut prog) {}
    fuse_macs(&mut prog);
    fuse_small(&mut prog);
    dead_code(&mut prog);
    batch_lanes(&mut prog);
    while dead_code(&mut prog) {}
    prog
}

/// Compiles and optimizes in one step (the default VM path of
/// [`run_with`](crate::run_with)).
///
/// # Errors
///
/// Returns [`ExecError::Malformed`](crate::ExecError::Malformed) for a
/// program that is not well-formed, as [`compile`](crate::compile()) does;
/// optimization itself cannot fail.
pub fn compile_optimized(func: &tir::PrimFunc) -> Result<Program, crate::ExecError> {
    Ok(optimize(crate::compile::compile(func)?))
}

// ---------------------------------------------------------------------------
// Analysis infrastructure
// ---------------------------------------------------------------------------

/// `targets[t]` is true when some instruction jumps to `t` (including
/// `ForSetup.end` and `ForNext.body`). Length is `ops.len() + 1` so a
/// jump to one-past-the-end is representable.
fn jump_targets(ops: &[Op]) -> Vec<bool> {
    let mut t = vec![false; ops.len() + 1];
    for op in ops {
        match op {
            Op::Jump { target }
            | Op::JumpIfZero { target, .. }
            | Op::JumpIfReduceFlagFalse { target } => t[*target as usize] = true,
            Op::ForSetup { end, .. } => t[*end as usize] = true,
            Op::ForNext { body, .. } => t[*body as usize] = true,
            _ => {}
        }
    }
    t
}

fn bit(r: u32) -> Mask {
    1u128 << r
}

/// Registers an access site reads when its offset is computed.
fn access_reg_mask(prog: &Program, access: u32) -> Mask {
    let acc = &prog.accesses[access as usize];
    let mut m = 0;
    for &(r, _) in &prog.reg_pool[acc.regs.range()] {
        m |= bit(r);
    }
    m
}

/// Whether the access's offset depends on any register.
fn access_reads_reg(prog: &Program, access: u32) -> bool {
    !prog.accesses[access as usize].regs.is_empty()
}

/// The access sites whose offsets an op computes (at most four: a
/// guarded `MacLanes`).
fn op_accesses(prog: &Program, op: &Op) -> impl Iterator<Item = u32> {
    let mac = |spec: u32| {
        let sp = &prog.mac_specs[spec as usize];
        ([sp.acc, sp.a, sp.b, 0], 3)
    };
    let (accesses, n) = match *op {
        Op::Load { access, .. }
        | Op::Store { access, .. }
        | Op::BinStore { access, .. }
        | Op::StoreConst { access, .. } => ([access, 0, 0, 0], 1),
        Op::FusedMac { spec } => mac(spec),
        Op::MacLanes { spec } => {
            let sp = &prog.lane_specs[spec as usize];
            let (mut accesses, mut n) = match sp.body {
                LaneBody::Mac(m) => mac(m),
                LaneBody::Fill(a, _) => ([a, 0, 0, 0], 1),
            };
            if let Some(g) = &sp.guard {
                accesses[n] = g.access;
                n += 1;
            }
            (accesses, n)
        }
        _ => ([0; 4], 0),
    };
    accesses.into_iter().take(n)
}

/// Registers an op reads.
fn reads_mask(prog: &Program, op: &Op) -> Mask {
    let direct = match op {
        Op::Const { .. }
        | Op::LoadVar { .. }
        | Op::ThrowUnknownIntrinsic { .. }
        | Op::Tick
        | Op::Jump { .. }
        | Op::ForNext { .. }
        | Op::ResetReduceFlag
        | Op::JumpIfReduceFlagFalse { .. }
        | Op::AllocBuf { .. }
        | Op::Load { .. }
        | Op::StoreConst { .. }
        | Op::FusedMac { .. }
        | Op::MacLanes { .. } => 0,
        Op::SetVar { src, .. } | Op::Cast { src, .. } | Op::Not { src, .. } => bit(*src),
        Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } | Op::BinStore { a, b, .. } => {
            bit(*a) | bit(*b)
        }
        Op::Call { first, n, .. } => (*first..*first + *n).fold(0, |m, r| m | bit(r)),
        Op::Store { val: reg, .. }
        | Op::JumpIfZero { reg, .. }
        | Op::ForSetup { extent: reg, .. }
        | Op::UpdateReduceFlag { reg } => bit(*reg),
    };
    op_accesses(prog, op).fold(direct, |m, a| m | access_reg_mask(prog, a))
}

/// Registers an op writes.
fn writes_mask(op: &Op) -> Mask {
    match op {
        Op::Const { dst, .. }
        | Op::LoadVar { dst, .. }
        | Op::Cast { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Cmp { dst, .. }
        | Op::Not { dst, .. }
        | Op::Call { dst, .. }
        | Op::Load { dst, .. } => bit(*dst),
        _ => 0,
    }
}

/// Whether the op writes the variable frame.
fn writes_frame(op: &Op) -> bool {
    matches!(
        op,
        Op::SetVar { .. } | Op::ForSetup { .. } | Op::ForNext { .. } | Op::MacLanes { .. }
    )
}

/// Control-flow successors of `ops[i]` (at most two).
fn successors(ops: &[Op], i: usize) -> ([usize; 2], usize) {
    let next = i + 1;
    match &ops[i] {
        Op::ThrowUnknownIntrinsic { .. } => ([0, 0], 0),
        Op::Jump { target } => ([*target as usize, 0], 1),
        Op::JumpIfZero { target, .. } | Op::JumpIfReduceFlagFalse { target } => {
            ([next, *target as usize], 2)
        }
        Op::ForSetup { end, .. } => ([next, *end as usize], 2),
        Op::ForNext { body, .. } => ([next, *body as usize], 2),
        _ => ([next, 0], 1),
    }
}

/// Whether [`dead_code`] deletes `op`, given the registers live after it
/// and the slots something reads: a pure op that cannot raise and whose
/// destination is dead, or a `SetVar` binding an iterator nobody reads.
fn is_dead(op: &Op, live_out: Mask, slot_read: &[bool]) -> bool {
    match op {
        Op::Const { dst, .. }
        | Op::LoadVar { dst, .. }
        | Op::Cmp { dst, .. }
        | Op::Not { dst, .. }
        | Op::Cast { dst, .. }
        | Op::Call { dst, .. } => live_out & bit(*dst) == 0,
        Op::Bin { kind, dst, .. } => bin_safe(*kind) && live_out & bit(*dst) == 0,
        Op::SetVar { slot, .. } => !slot_read[*slot as usize],
        _ => false,
    }
}

/// Backward liveness over registers: `live_in[i]` / `live_out[i]` are the
/// registers live before / after `ops[i]`. Conservative about nothing —
/// registers are dead at program exit (only buffers escape) — and an op
/// that [`is_dead`] reads nothing, so a dead binding takes the whole chain
/// that computed it along in one [`dead_code`] sweep, not a link per sweep.
fn liveness(prog: &Program) -> (Vec<Mask>, Vec<Mask>) {
    let ops = &prog.ops;
    let n = ops.len();
    let slot_read = slot_read_mask(prog);
    let masks: Vec<(Mask, Mask)> = ops
        .iter()
        .map(|op| (reads_mask(prog, op), writes_mask(op)))
        .collect();
    let mut live_in = vec![0 as Mask; n];
    let mut live_out = vec![0 as Mask; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let (succ, ns) = successors(ops, i);
            let mut out = 0;
            for &s in &succ[..ns] {
                if s < n {
                    out |= live_in[s];
                }
            }
            let (reads, writes) = masks[i];
            let inn = if is_dead(&ops[i], out, &slot_read) {
                out
            } else {
                reads | (out & !writes)
            };
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

/// Deletes the ops marked `dead`, remapping every jump target. A target
/// `t` maps to the number of surviving ops before `t`.
fn compact(prog: &mut Program, dead: &[bool]) {
    let n = prog.ops.len();
    let mut map = vec![0u32; n + 1];
    let mut kept = 0u32;
    for t in 0..=n {
        map[t] = kept;
        if t < n && !dead[t] {
            kept += 1;
        }
    }
    let old = std::mem::take(&mut prog.ops);
    prog.ops = old
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dead[*i])
        .map(|(_, mut op)| {
            match &mut op {
                Op::Jump { target }
                | Op::JumpIfZero { target, .. }
                | Op::JumpIfReduceFlagFalse { target } => *target = map[*target as usize],
                Op::ForSetup { end, .. } => *end = map[*end as usize],
                Op::ForNext { body, .. } => *body = map[*body as usize],
                _ => {}
            }
            op
        })
        .collect();
}

/// Structural equality of two access sites: same buffer, same base, and
/// element-wise equal pooled index terms (the pool *contents*, not the
/// ranges — two sites pooled at different offsets still compare equal).
fn acc_eq(prog: &Program, a: u32, b: u32) -> bool {
    if a == b {
        return true;
    }
    let (x, y) = (&prog.accesses[a as usize], &prog.accesses[b as usize]);
    x.buf == y.buf
        && x.base == y.base
        && prog.reg_pool[x.regs.range()] == prog.reg_pool[y.regs.range()]
        && prog.slot_pool[x.slots.range()] == prog.slot_pool[y.slots.range()]
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

// ---------------------------------------------------------------------------
// Pass 1: strength-reduce register index terms into frame-slot terms
// ---------------------------------------------------------------------------

/// For every access whose offset uses `round(regs[r]) * stride`, resolve
/// the reaching definition of `r` to an affine form `Σ frame_slot·mᵢ +
/// k` ([`affine_of_reg`]) and fold it into direct `(slot, stride·mᵢ)`
/// terms plus a `base` adjustment, read from the frame at offset time.
/// The feeding `LoadVar`/`Const`/`Bin` chain is left for dead-code
/// elimination.
///
/// Exactness: frame slots only ever hold integers — loop counters
/// (`ForSetup`/`ForNext`/`MacLanes`) and block-iterator bindings of
/// integer iterator expressions (`SetVar` has no other emission site in
/// the compiler) — so `round` distributes over the decomposed sum and
/// products, and the rewrite is bit-exact.
fn fold_access_slots(prog: &mut Program) {
    /// One rewritten access: surviving register terms, canonical slot
    /// terms, and the adjusted base offset.
    struct Rewrite {
        access: usize,
        keep: Vec<(u32, i64)>,
        slots: Vec<(u32, i64)>,
        base: i64,
    }
    let targets = jump_targets(&prog.ops);
    let mut rewrites: Vec<Rewrite> = Vec::new();
    for i in 0..prog.ops.len() {
        let access = match &prog.ops[i] {
            Op::Load { access, .. }
            | Op::Store { access, .. }
            | Op::BinStore { access, .. }
            | Op::StoreConst { access, .. } => *access,
            _ => continue,
        };
        let acc = prog.accesses[access as usize];
        if acc.regs.is_empty() {
            continue;
        }
        let mut keep: Vec<(u32, i64)> = Vec::new();
        let mut slots: Vec<(u32, i64)> = prog.slot_pool[acc.slots.range()].to_vec();
        let mut base = acc.base;
        for &(r, stride) in &prog.reg_pool[acc.regs.range()] {
            match affine_of_reg(prog, i, r, &targets, 0) {
                Some(aff) => {
                    for (slot, m) in aff.terms {
                        slots.push((slot, m * stride));
                    }
                    base += aff.k * stride;
                }
                None => keep.push((r, stride)),
            }
        }
        if keep.len() as u32 != acc.regs.len {
            canonicalize(&mut slots);
            rewrites.push(Rewrite {
                access: access as usize,
                keep,
                slots,
                base,
            });
        }
    }
    for rw in rewrites {
        prog.accesses[rw.access].regs = append_pool(&mut prog.reg_pool, &rw.keep);
        prog.accesses[rw.access].slots = append_pool(&mut prog.slot_pool, &rw.slots);
        prog.accesses[rw.access].base = rw.base;
    }
}

/// An affine combination of frame slots: `Σ round(frame[slot])·m + k`.
#[derive(Clone)]
struct Affine {
    terms: Vec<(u32, i64)>,
    k: i64,
}

/// Canonical form of a list of `(slot, multiplier)` terms: sorted,
/// duplicate slots merged (e.g. `v + v`), zero multipliers dropped —
/// structurally equal index expressions then produce identical pool
/// contents, which is what [`acc_eq`] (and thus MAC fusion) compares.
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

/// Resolves the value `r` holds at `ops[use_at]` to an [`Affine`] form,
/// if its reaching definition is a `LoadVar`, an integral `Const`, or an
/// `Add`/`Sub`/`Mul`-chain of such (multiplication by a constant side
/// only). Walks backward from the use; crossing a jump target (where
/// another path may merge in) or an op that writes `r` or the frame
/// aborts the search — so the definition dominates on every path and
/// the frame slots are unchanged between definition and use. The op at
/// `use_at` itself may be a jump target (execution still flows through
/// the definition first only if no target intervenes strictly inside
/// `(def, use_at]` — hence the check includes `use_at`).
fn affine_of_reg(
    prog: &Program,
    use_at: usize,
    r: u32,
    targets: &[bool],
    depth: u32,
) -> Option<Affine> {
    if depth > 8 {
        return None;
    }
    let mut i = use_at;
    while i > 0 {
        if targets[i] {
            return None;
        }
        i -= 1;
        match &prog.ops[i] {
            Op::LoadVar { dst, slot } if *dst == r => {
                return Some(Affine {
                    terms: vec![(*slot, 1)],
                    k: 0,
                });
            }
            Op::Const { dst, val } if *dst == r => {
                // Only integral constants distribute through `round`.
                if !val.is_finite() || val.fract() != 0.0 || val.abs() >= (1i64 << 52) as f64 {
                    return None;
                }
                return Some(Affine {
                    terms: Vec::new(),
                    k: *val as i64,
                });
            }
            Op::Bin { kind, dst, a, b } if *dst == r => {
                use crate::compile::BinKind::*;
                let ka = affine_of_reg(prog, i, *a, targets, depth + 1)?;
                let kb = affine_of_reg(prog, i, *b, targets, depth + 1)?;
                return match kind {
                    Add | Sub => {
                        let sign = if *kind == Sub { -1 } else { 1 };
                        let mut terms = ka.terms;
                        terms.extend(kb.terms.into_iter().map(|(s, m)| (s, m * sign)));
                        Some(Affine {
                            terms,
                            k: ka.k + sign * kb.k,
                        })
                    }
                    Mul => {
                        // One side must be a pure constant.
                        let (var, c) = if kb.terms.is_empty() {
                            (ka, kb.k)
                        } else if ka.terms.is_empty() {
                            (kb, ka.k)
                        } else {
                            return None;
                        };
                        Some(Affine {
                            terms: var.terms.into_iter().map(|(s, m)| (s, m * c)).collect(),
                            k: var.k * c,
                        })
                    }
                    _ => None,
                };
            }
            op => {
                if writes_mask(op) & bit(r) != 0 || writes_frame(op) {
                    return None;
                }
                if matches!(
                    op,
                    Op::Jump { .. }
                        | Op::JumpIfZero { .. }
                        | Op::JumpIfReduceFlagFalse { .. }
                        | Op::ThrowUnknownIntrinsic { .. }
                ) {
                    return None;
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Pass 2: forward affine iterator bindings into the accesses that read them
// ---------------------------------------------------------------------------

/// Who writes a frame slot.
#[derive(Clone, Copy)]
enum Writer {
    /// Nothing: the slot keeps its initial zero.
    Nobody,
    /// One `SetVar`, at this op index: a block iterator.
    Set(usize),
    /// One `ForSetup`/`ForNext` pair, at these op indices, each naming the
    /// other: a loop variable.
    Loop(usize, usize),
    /// Anything else.
    Several,
}

/// What [`forward_iterators`] and [`batch_lanes`] know about the frame:
/// who writes each slot, every jump, and the slots whose reads can be
/// replaced by an affine form of *base terms*.
struct Iterators {
    writers: Vec<Writer>,
    /// `(from, to)` op indices of every jump, loop edges included.
    jumps: Vec<(usize, usize)>,
    /// [`jump_targets`] of the same ops.
    targets: Vec<bool>,
    /// `expansion[s]`, when set, is what every read of slot `s` sees.
    expansion: Vec<Option<Affine>>,
}

/// Finds the forwardable block iterators of a program.
///
/// A slot with one writer, a `SetVar` at op `d` fed by a chain
/// [`affine_of_reg`] decomposes, has the *definition* `Σ mᵢ·slotᵢ + k`.
/// Its reads may be replaced by that sum when the sum still has, at the
/// read, the value it had when the `SetVar` last ran:
///
/// * **The binding dominates its reads.** Take the smallest op range
///   `(d, q]` that holds every read of the slot and every backward jump
///   into itself (`region_end`). If no other jump enters it — no
///   predicate, reduce guard or empty-extent skip passes over the
///   `SetVar` and lands before a read — then execution can only get into
///   `(d, q]` by falling out of the `SetVar`, and whatever reads the slot
///   has run nothing but ops of `(d, q]` since. The compiler's block
///   layout (predicate, bindings, body, with the predicate jumping past
///   the body and every read lexically inside it) always has this shape;
///   a read at or before `d`, or a second writer, is refused outright.
/// * **No base term is written inside `(d, q]`.** A term is a *loop
///   variable* — one `ForSetup`/`ForNext` pair whose range encloses
///   `(d, q]`; outside its loop a loop variable holds whatever the last
///   batch left — or an *opaque iterator* — another single-`SetVar` slot
///   bound before `d`, whose own definition may be anything
///   (`fused // 2`). A term that is itself forwardable is replaced by its
///   expansion: a read of a slot counts as a read of every slot its
///   definition mentions, so the enclosing block's region covers it.
///
/// Exactness is that of [`fold_access_slots`]: frame slots hold integers
/// (loop counters, and bindings of integer iterator expressions — the only
/// `SetVar` the compiler emits), so `round` distributes over the sum and
/// the `i64` offset comes out the same.
fn iterators(prog: &Program) -> Iterators {
    let ops = &prog.ops;
    let mut writers = vec![Writer::Nobody; prog.num_slots];
    let mut jumps = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::SetVar { slot, .. } => {
                let w = &mut writers[slot as usize];
                *w = match *w {
                    Writer::Nobody => Writer::Set(i),
                    _ => Writer::Several,
                };
            }
            Op::ForSetup {
                loop_id, var, end, ..
            } => {
                jumps.push((i, end as usize));
                let next = (end as usize).wrapping_sub(1);
                let paired = next > i
                    && matches!(ops.get(next), Some(&Op::ForNext { loop_id: l, var: v, body })
                        if l == loop_id && v == var && body as usize == i + 1);
                let w = &mut writers[var as usize];
                *w = match *w {
                    Writer::Nobody if paired => Writer::Loop(i, next),
                    _ => Writer::Several,
                };
            }
            Op::ForNext { var, body, .. } => {
                jumps.push((i, body as usize));
                let w = &mut writers[var as usize];
                if !matches!(*w, Writer::Loop(_, next) if next == i) {
                    *w = Writer::Several;
                }
            }
            Op::Jump { target }
            | Op::JumpIfZero { target, .. }
            | Op::JumpIfReduceFlagFalse { target } => jumps.push((i, target as usize)),
            _ => {}
        }
    }
    let mut first = vec![usize::MAX; prog.num_slots];
    let mut last = vec![0; prog.num_slots];
    slot_reads(prog, |at, slot| {
        first[slot as usize] = first[slot as usize].min(at);
        last[slot as usize] = last[slot as usize].max(at);
    });
    // `(SetVar index, slot, definition)` of every block iterator something
    // reads, in program order.
    let mut bindings: Vec<(usize, usize, Option<Affine>)> = writers
        .iter()
        .enumerate()
        .filter_map(|(s, w)| match *w {
            Writer::Set(d) if first[s] != usize::MAX => Some((d, s, None)),
            _ => None,
        })
        .collect();
    bindings.sort_unstable_by_key(|&(d, ..)| d);
    // Later bindings first: a read of `s` reads what its definition reads.
    let targets = jump_targets(ops);
    for (d, s, def) in bindings.iter_mut().rev() {
        let Op::SetVar { src, .. } = ops[*d] else {
            unreachable!("Writer::Set points at a SetVar");
        };
        *def = affine_of_reg(prog, *d, src, &targets, 0);
        for &(t, _) in def.iter().flat_map(|def| &def.terms) {
            last[t as usize] = last[t as usize].max(last[*s]);
        }
    }
    // Earlier bindings first: a definition expands through the ones before.
    let mut expansion: Vec<Option<Affine>> = vec![None; prog.num_slots];
    for (d, s, def) in bindings {
        let Some(def) = def else { continue };
        if first[s] < d {
            continue;
        }
        let Some(q) = region_end(&jumps, d, last[s]) else {
            continue;
        };
        let based = def.terms.iter().all(|&(t, _)| match writers[t as usize] {
            Writer::Loop(setup, next) => setup < d && q < next,
            Writer::Set(dt) => dt < d,
            _ => false,
        });
        if based {
            expansion[s] = Some(expand(&expansion, &def.terms, def.k));
        }
    }
    Iterators {
        writers,
        jumps,
        targets,
        expansion,
    }
}

/// The end `q` of the smallest op range `(d, q]` that contains `(d, last]`
/// and the source of every backward jump into itself, or `None` when some
/// jump from at or before `d` lands inside it.
fn region_end(jumps: &[(usize, usize)], d: usize, last: usize) -> Option<usize> {
    let mut q = last;
    loop {
        let mut grown = false;
        for &(from, to) in jumps {
            if d < to && to <= q && !(d < from && from <= q) {
                if from <= d {
                    return None;
                }
                q = from;
                grown = true;
            }
        }
        if !grown {
            return Some(q);
        }
    }
}

/// `Σ slot·m + k` with every slot that has an expansion replaced by it.
fn expand(expansion: &[Option<Affine>], terms: &[(u32, i64)], k: i64) -> Affine {
    let mut out = Affine {
        terms: Vec::new(),
        k,
    };
    for &(s, m) in terms {
        match &expansion[s as usize] {
            Some(e) => {
                out.terms.extend(e.terms.iter().map(|&(b, mb)| (b, mb * m)));
                out.k += e.k * m;
            }
            None => out.terms.push((s, m)),
        }
    }
    canonicalize(&mut out.terms);
    out
}

/// Substitutes every forwardable iterator ([`iterators`]) into the
/// `Access::slots` terms that read it, canonicalised as
/// [`fold_access_slots`] does, and redirects a `LoadVar` of a plain copy
/// (`vi = i`: one base term, multiplier 1, no constant) to the slot it
/// copies. The binding's `SetVar` and its chain are left for dead-code
/// elimination, which removes them once nothing reads the slot.
fn forward_iterators(prog: &mut Program) {
    let it = iterators(prog);
    for op in &mut prog.ops {
        if let Op::LoadVar { slot, .. } = op {
            if let Some(Affine { terms, k: 0 }) = &it.expansion[*slot as usize] {
                if let [(base, 1)] = terms[..] {
                    *slot = base;
                }
            }
        }
    }
    for a in 0..prog.accesses.len() {
        let acc = prog.accesses[a];
        let terms = &prog.slot_pool[acc.slots.range()];
        if terms
            .iter()
            .all(|&(s, _)| it.expansion[s as usize].is_none())
        {
            continue;
        }
        let forwarded = expand(&it.expansion, terms, 0);
        prog.accesses[a].slots = append_pool(&mut prog.slot_pool, &forwarded.terms);
        prog.accesses[a].base = acc.base + forwarded.k;
    }
}

// ---------------------------------------------------------------------------
// Pass 3: constant folding
// ---------------------------------------------------------------------------

/// Whether a `Bin` of this kind can be folded/deleted without changing
/// observable behavior (no zero-divide check to preserve).
fn bin_safe(kind: crate::compile::BinKind) -> bool {
    use crate::compile::BinKind::*;
    !matches!(kind, DivI | FloorDivF | FloorDivI | FloorModF | FloorModI)
}

/// Folds `Const`-fed `Bin`/`Cast` pairs and `Const`-fed conditional
/// branches. Only strictly-adjacent `Const; op` / `Const; Const; op`
/// windows fold (with no jump target between them), so evaluation order
/// and error points are untouched; division-family `Bin`s fold only when
/// the evaluation cannot error (non-zero constant divisor). The `Const`s a
/// fold leaves without a reader are [`dead_code`]'s to collect.
fn fold_constants(prog: &mut Program) -> bool {
    let targets = jump_targets(&prog.ops);
    let n = prog.ops.len();
    let mut dead = vec![false; n];
    let mut changed = false;
    for i in 0..n {
        // Const c; JumpIfZero { reg: c } → Jump/fall-through.
        if i + 1 < n && !targets[i + 1] {
            if let (&Op::Const { dst, val }, &Op::JumpIfZero { reg, target }) =
                (&prog.ops[i], &prog.ops[i + 1])
            {
                if dst == reg {
                    if val == 0.0 {
                        prog.ops[i + 1] = Op::Jump { target };
                    } else {
                        // Never-taken branch: just drop it.
                        dead[i + 1] = true;
                    }
                    changed = true;
                    continue;
                }
            }
        }
        // Const a; Const b; Bin → Const (when the kinds cannot error).
        if i + 2 < n && !targets[i + 1] && !targets[i + 2] {
            if let (
                &Op::Const { dst: d1, val: v1 },
                &Op::Const { dst: d2, val: v2 },
                &Op::Bin { kind, dst, a, b },
            ) = (&prog.ops[i], &prog.ops[i + 1], &prog.ops[i + 2])
            {
                if a == d1 && b == d2 && d1 != d2 && (bin_safe(kind) || v2 != 0.0) {
                    if let Ok(val) = bin_eval(kind, v1, v2) {
                        prog.ops[i + 2] = Op::Const { dst, val };
                        changed = true;
                        continue;
                    }
                }
            }
        }
        // Const; Cast → Const.
        if i + 1 < n && !targets[i + 1] {
            if let (
                &Op::Const { dst: d1, val },
                &Op::Cast {
                    dst,
                    src,
                    dtype,
                    trunc,
                },
            ) = (&prog.ops[i], &prog.ops[i + 1])
            {
                if src == d1 {
                    let val = cast_val(val, dtype, trunc);
                    prog.ops[i + 1] = Op::Const { dst, val };
                    changed = true;
                    continue;
                }
            }
        }
    }
    if dead.contains(&true) {
        compact(prog, &dead);
    }
    changed
}

// ---------------------------------------------------------------------------
// Pass 4: dead code elimination
// ---------------------------------------------------------------------------

/// Calls `visit(op index, slot)` for every read of a frame slot:
/// `LoadVar`, the pooled slot terms of every access an op uses, and
/// lane-spec metadata.
fn slot_reads(prog: &Program, mut visit: impl FnMut(usize, u32)) {
    for (at, op) in prog.ops.iter().enumerate() {
        match op {
            Op::LoadVar { slot, .. } => visit(at, *slot),
            Op::MacLanes { spec } => {
                let sp = &prog.lane_specs[*spec as usize];
                visit(at, sp.var);
                for &f in sp.guard.iter().flat_map(|g| g.flags.iter()) {
                    visit(at, f);
                }
            }
            _ => {}
        }
        for a in op_accesses(prog, op) {
            for &(s, _) in &prog.slot_pool[prog.accesses[a as usize].slots.range()] {
                visit(at, s);
            }
        }
    }
}

/// Frame slots with at least one read site.
fn slot_read_mask(prog: &Program) -> Vec<bool> {
    let mut read = vec![false; prog.num_slots];
    slot_reads(prog, |_, slot| read[slot as usize] = true);
    read
}

/// Deletes pure ops whose destination register is dead and `SetVar`s to
/// slots that are never read ([`is_dead`]). `ForSetup`/`ForNext` variable
/// rebinding keeps its slot alive through the loop ops themselves (they
/// are never deleted), but a `SetVar` binding an iterator nobody reads any
/// more (after forwarding) goes away.
fn dead_code(prog: &mut Program) -> bool {
    let (_, live_out) = liveness(prog);
    let slot_read = slot_read_mask(prog);
    let dead: Vec<bool> = (prog.ops.iter().zip(&live_out))
        .map(|(op, &out)| is_dead(op, out, &slot_read))
        .collect();
    let changed = dead.contains(&true);
    if changed {
        compact(prog, &dead);
    }
    changed
}

// ---------------------------------------------------------------------------
// Pass 5: MAC fusion
// ---------------------------------------------------------------------------

/// Fuses the inner-product idiom
/// `Load x,acc; Load y,a; [Cast y]; Load z,b; [Cast z];
///  Bin k1 y,y,z; Bin k2 x,x,y; Store acc,x`
/// into one `Op::FusedMac`. Conditions:
///
/// * strictly adjacent ops, no jump target lands inside the window after
///   its first op (so the whole window executes as one unit on every
///   path that reaches it);
/// * `x`, `y`, `z` are three distinct registers, all dead after the
///   `Store` (the fused op does not write them);
/// * the load and store accumulator accesses are structurally equal
///   ([`acc_eq`]) — same element, so one offset computation serves both;
/// * no access in the window uses register index terms — pattern ops
///   would clobber each other's index registers if offsets were
///   recomputed at fused-op time, so fusion requires the strength-
///   reduced (slot/base-only) form.
///
/// The deleted ops are replaced by the fused op at the `Store` position;
/// the preceding `Tick` stays, so fuel is untouched.
fn fuse_macs(prog: &mut Program) {
    let targets = jump_targets(&prog.ops);
    let n = prog.ops.len();
    let (_, live_out) = liveness(prog);
    let mut dead = vec![false; n];
    let mut changed = false;
    let mut i = 0;
    while i < n {
        let Some(m) = match_mac(prog, i, &targets) else {
            i += 1;
            continue;
        };
        let MacMatch { end, spec, x, y, z } = m;
        if live_out[end] & (bit(x) | bit(y) | bit(z)) != 0 {
            i += 1;
            continue;
        }
        let sid = prog.mac_specs.len() as u32;
        prog.mac_specs.push(spec);
        for d in &mut dead[i..end] {
            *d = true;
        }
        prog.ops[end] = Op::FusedMac { spec: sid };
        changed = true;
        i = end + 1;
    }
    if changed {
        compact(prog, &dead);
    }
}

struct MacMatch {
    /// Index of the final `Store` (where the fused op lands).
    end: usize,
    spec: MacSpec,
    x: u32,
    y: u32,
    z: u32,
}

/// Matches the MAC window starting at `ops[i]`.
fn match_mac(prog: &Program, i: usize, targets: &[bool]) -> Option<MacMatch> {
    let ops = &prog.ops;
    let n = ops.len();
    let mut j = i;
    let take = |j: &mut usize| -> Option<&Op> {
        if *j >= n || (*j > i && targets[*j]) {
            return None;
        }
        let op = &ops[*j];
        *j += 1;
        Some(op)
    };
    let &Op::Load {
        dst: x,
        access: acc_ld,
    } = take(&mut j)?
    else {
        return None;
    };
    let &Op::Load { dst: y, access: a } = take(&mut j)? else {
        return None;
    };
    let a_cast = match ops.get(j) {
        Some(&Op::Cast {
            dst,
            src,
            dtype,
            trunc,
        }) if dst == y && src == y && !targets[j] => {
            j += 1;
            Some((dtype, trunc))
        }
        _ => None,
    };
    let &Op::Load { dst: z, access: b } = take(&mut j)? else {
        return None;
    };
    let b_cast = match ops.get(j) {
        Some(&Op::Cast {
            dst,
            src,
            dtype,
            trunc,
        }) if dst == z && src == z && !targets[j] => {
            j += 1;
            Some((dtype, trunc))
        }
        _ => None,
    };
    let &Op::Bin {
        kind: k1,
        dst: d1,
        a: a1,
        b: b1,
    } = take(&mut j)?
    else {
        return None;
    };
    let &Op::Bin {
        kind: k2,
        dst: d2,
        a: a2,
        b: b2,
    } = take(&mut j)?
    else {
        return None;
    };
    let end = j;
    let &Op::Store {
        access: acc_st,
        val,
    } = take(&mut j)?
    else {
        return None;
    };
    // Shape checks: y = y <k1> z; x = x <k2> y; store x.
    if d1 != y || a1 != y || b1 != z {
        return None;
    }
    if d2 != x || a2 != x || b2 != y {
        return None;
    }
    if val != x || x == y || x == z || y == z {
        return None;
    }
    if !acc_eq(prog, acc_ld, acc_st) {
        return None;
    }
    // Offsets are recomputed at the fused op; register index terms could
    // have been clobbered by the window's own loads, so require none.
    for &acc in &[acc_ld, a, b, acc_st] {
        if access_reads_reg(prog, acc) {
            return None;
        }
    }
    Some(MacMatch {
        end,
        spec: MacSpec {
            acc: acc_ld,
            a,
            a_cast,
            b,
            b_cast,
            k1,
            k2,
        },
        x,
        y,
        z,
    })
}

// ---------------------------------------------------------------------------
// Pass 6: small fusions
// ---------------------------------------------------------------------------

/// Peephole fusions over adjacent pairs: `Bin; Store` → `BinStore` and
/// `Const; Store` → `StoreConst`, each when the fused-away register dies
/// at the store and the store's offset does not read it.
fn fuse_small(prog: &mut Program) {
    loop {
        let targets = jump_targets(&prog.ops);
        let n = prog.ops.len();
        let (_, live_out) = liveness(prog);
        let mut dead = vec![false; n];
        for i in 0..n.saturating_sub(1) {
            if dead[i] || dead[i + 1] || targets[i + 1] {
                continue;
            }
            match (&prog.ops[i], &prog.ops[i + 1]) {
                (&Op::Bin { kind, dst, a, b }, &Op::Store { access, val })
                    if val == dst
                        && bin_safe(kind)
                        && live_out[i + 1] & bit(dst) == 0
                        && access_reg_mask(prog, access) & bit(dst) == 0 =>
                {
                    prog.ops[i + 1] = Op::BinStore { kind, a, b, access };
                    dead[i] = true;
                }
                (&Op::Const { dst, val: v }, &Op::Store { access, val })
                    if val == dst
                        && live_out[i + 1] & bit(dst) == 0
                        && access_reg_mask(prog, access) & bit(dst) == 0 =>
                {
                    prog.ops[i + 1] = Op::StoreConst { access, val: v };
                    dead[i] = true;
                }
                _ => {}
            }
        }
        if !dead.contains(&true) {
            return;
        }
        compact(prog, &dead);
    }
}

// ---------------------------------------------------------------------------
// Pass 7: lane batching
// ---------------------------------------------------------------------------

/// Matches the body `ops[s..t]` of a candidate innermost loop. Accepted
/// shapes (exactly, nothing else in the body):
///
/// * `Tick; FusedMac` — an unguarded accumulate loop;
/// * `Tick; StoreConst` — a fill loop;
/// * `ResetReduceFlag; (chain; UpdateReduceFlag)+;
///    JumpIfReduceFlagFalse; Tick; StoreConst; Tick; FusedMac` — a
///   guarded reduction whose init store hits the same element as the
///   accumulator ([`acc_eq`]), the matmul/conv inner loop. Each `chain`
///   is the pure `LoadVar`/`Const`/safe-`Bin` computation of one reduce
///   binding, and its forwarded expansion ([`iterators`]) must be one
///   slot as it stands, or a sum of loop variables enclosing the body,
///   every multiplier positive, no constant: loop counters never go
///   negative, so the sum is zero iff every one of them is, and they
///   become the [`LaneGuard::flags`]. A constant offset, a reversed loop
///   (`7 - k`) or an opaque term in a sum keeps the flag ops and the
///   loop unbatched.
fn match_lane_body(
    prog: &Program,
    it: &Iterators,
    s: usize,
    t: usize,
) -> Option<(Option<LaneGuard>, LaneBody)> {
    let ops = &prog.ops;
    if t - s == 2 {
        if let (Op::Tick, &Op::FusedMac { spec }) = (&ops[s], &ops[s + 1]) {
            return Some((None, LaneBody::Mac(spec)));
        }
        if let (Op::Tick, &Op::StoreConst { access, val }) = (&ops[s], &ops[s + 1]) {
            return Some((None, LaneBody::Fill(access, val)));
        }
        return None;
    }
    // Guarded form.
    if !matches!(ops[s], Op::ResetReduceFlag) {
        return None;
    }
    let mut flags: Vec<u32> = Vec::new();
    let mut k = s + 1;
    let target = loop {
        match ops[k] {
            Op::LoadVar { .. } | Op::Const { .. } => {}
            Op::Bin { kind, .. } if bin_safe(kind) => {}
            Op::UpdateReduceFlag { reg } => {
                let bound = affine_of_reg(prog, k, reg, &it.targets, 0)?;
                let sum = expand(&it.expansion, &bound.terms, bound.k);
                let one_slot = matches!(sum.terms[..], [(_, 1)]);
                let counter = |&(v, m): &(u32, i64)| {
                    m > 0 && matches!(it.writers[v as usize], Writer::Loop(f, n) if f < s && t <= n)
                };
                if sum.k != 0 || !(one_slot || sum.terms.iter().all(counter)) {
                    return None;
                }
                flags.extend(sum.terms.iter().map(|&(v, _)| v));
            }
            Op::JumpIfReduceFlagFalse { target } => break target,
            _ => return None,
        }
        k += 1;
    };
    if k + 5 != t || target as usize != t - 2 {
        return None;
    }
    let (
        Op::Tick,
        &Op::StoreConst {
            access: ga,
            val: gv,
        },
        Op::Tick,
        &Op::FusedMac { spec },
    ) = (&ops[k + 1], &ops[k + 2], &ops[k + 3], &ops[k + 4])
    else {
        return None;
    };
    let mac = &prog.mac_specs[spec as usize];
    if !acc_eq(prog, ga, mac.acc) {
        return None;
    }
    flags.sort_unstable();
    flags.dedup();
    Some((
        Some(LaneGuard {
            flags: flags.into(),
            access: ga,
            val: gv,
        }),
        LaneBody::Mac(spec),
    ))
}

/// Collapses innermost `ForSetup`/`ForNext` loops whose entire body is
/// one recognized lane shape into a single `Op::MacLanes`. The loop
/// ops themselves stay (they own extent latching and the back edge); the
/// body becomes one op executing up to `LANE_WIDTH_MAX` iterations per
/// dispatch.
fn batch_lanes(prog: &mut Program) {
    let n = prog.ops.len();
    let (live_in, _) = liveness(prog);
    let it = iterators(prog);
    let mut dead = vec![false; n];
    let mut changed = false;
    for f in 0..n {
        let &Op::ForSetup {
            loop_id, var, end, ..
        } = &prog.ops[f]
        else {
            continue;
        };
        let e = end as usize;
        if e > n || e < f + 4 {
            continue;
        }
        let &Op::ForNext {
            loop_id: l2, body, ..
        } = &prog.ops[e - 1]
        else {
            continue;
        };
        if l2 != loop_id || body as usize != f + 1 {
            continue;
        }
        let Some((guard, lbody)) = match_lane_body(prog, &it, f + 1, e - 1) else {
            continue;
        };
        let jumped_into =
            |&(from, to): &(usize, usize)| (from < f || from >= e) && f < to && to < e;
        if it.jumps.iter().any(jumped_into) {
            continue;
        }
        // Registers the body writes vanish with it; they must not be
        // read after the loop.
        let mut w: Mask = 0;
        for k in f + 1..e - 1 {
            w |= writes_mask(&prog.ops[k]);
        }
        let exit_live = if e < n { live_in[e] } else { 0 };
        if w & exit_live != 0 {
            continue;
        }
        let sid = prog.lane_specs.len() as u32;
        prog.lane_specs.push(LaneSpec {
            loop_id,
            var,
            guard,
            body: lbody,
            lanes: LANE_WIDTH_MAX,
        });
        prog.ops[f + 1] = Op::MacLanes { spec: sid };
        for d in &mut dead[f + 2..e - 1] {
            *d = true;
        }
        changed = true;
    }
    if changed {
        compact(prog, &dead);
    }
}

#[cfg(test)]
mod tests {
    use tir::builder::matmul_func;
    use tir::{Block, BlockRealize, Buffer, DataType, Expr, IterVar, PrimFunc, Stmt, Var};

    use super::{append_pool, optimize};
    use crate::compile::{compile, Access, BinKind, LaneBody, Op, PoolRange, Program};
    use crate::interp::{run_with, ExecBackend, ExecError};
    use crate::tensor::Tensor;

    fn zeros_args(f: &PrimFunc) -> Vec<Tensor> {
        f.params
            .iter()
            .map(|p| Tensor::zeros(p.dtype(), p.shape()))
            .collect()
    }

    /// The matmul inner loop collapses to a guarded `MacLanes` and the
    /// whole program shrinks by more than half.
    #[test]
    fn matmul_collapses_to_lanes() {
        let f = matmul_func("mm", 8, 8, 8, DataType::float32());
        let plain = compile(&f).expect("compiles");
        let before = plain.len();
        let opt = optimize(plain);
        assert!(
            opt.ops.iter().any(|o| matches!(o, Op::MacLanes { .. })),
            "no MacLanes in:\n{opt}"
        );
        assert!(
            opt.len() * 2 < before,
            "expected >2x op-count shrink, got {} -> {}",
            before,
            opt.len()
        );
        let spec = &opt.lane_specs[0];
        assert!(spec.guard.is_some(), "matmul init must become the guard");
    }

    /// Optimization is idempotent and the `optimized` flag latches.
    #[test]
    fn optimize_is_idempotent() {
        let f = matmul_func("mm", 6, 5, 4, DataType::float16());
        let once = optimize(compile(&f).expect("compiles"));
        let ops_once = once.ops.clone();
        let twice = optimize(once);
        assert_eq!(ops_once, twice.ops);
        assert!(twice.optimized);
    }

    /// Lane batching with every extent-vs-width relationship: shorter
    /// than one batch, exact multiples, and ragged tails. Outputs and
    /// step counts must match the tree-walker on each.
    #[test]
    fn lane_tails_are_exact() {
        for k in [1i64, 3, 7, 8, 9, 13, 16, 17] {
            let f = matmul_func("mm", 2, k, 2, DataType::float32());
            let tw = run_with(&f, zeros_args(&f), ExecBackend::TreeWalk, None).expect("tw");
            let vm = run_with(&f, zeros_args(&f), ExecBackend::Vm, None).expect("vm");
            assert_eq!(tw.steps, vm.steps, "steps diverge at k={k}");
            assert_eq!(tw.outputs, vm.outputs, "outputs diverge at k={k}");
        }
    }

    /// Scheduled shapes of a 4×4×8 matmul — what schedule primitives leave
    /// behind, built by hand because `tir-schedule` sits above this crate —
    /// each with what `optimize` must make of it: how many `SetVar`s
    /// survive, how many flags the guard of the lane-batched reduction
    /// loop reads (`None`: the loop stays scalar and keeps its flag ops),
    /// and how many reduction nests the program has.
    fn scheduled_matmuls() -> Vec<(&'static str, PrimFunc, usize, Option<usize>, usize)> {
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
        // iterator has two `SetVar`s, so nothing is forwarded and the
        // bindings stay inside both reduction loops.
        let half = |row: i64| {
            let (i, j, k) = (v("i"), v("j"), v("k"));
            let bind = [e(&i) + row, e(&j), e(&k)];
            nest(vec![(i, 2), (j, 4), (k, 8)], bind, Expr::true_())
        };
        let body = Stmt::seq(vec![half(0), half(2)]);
        out.push(("sibling blocks", func(body), 6, None, 2));

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

    /// What `optimize` makes of every scheduled shape: bindings forwarded
    /// and collected (or kept, where they must be), the reduction loop
    /// batched exactly where its guard can be read off loop counters, the
    /// flag ops kept where it cannot; and `optimize` stays idempotent.
    #[test]
    fn scheduled_matmuls_forward_and_batch_where_legal() {
        for (name, f, set_vars, guard_flags, nests) in scheduled_matmuls() {
            let opt = optimize(compile(&f).expect("compiles"));
            let count = |pred: fn(&Op) -> bool| opt.ops.iter().filter(|o| pred(o)).count();
            assert_eq!(
                count(|o| matches!(o, Op::SetVar { .. })),
                set_vars,
                "{name}: surviving bindings in\n{opt}"
            );
            assert_eq!(
                count(|o| matches!(o, Op::FusedMac { .. } | Op::MacLanes { .. })),
                nests,
                "{name}: the multiply-accumulate must fuse in\n{opt}"
            );
            let flags = opt.lane_specs.iter().find_map(|sp| match sp.body {
                LaneBody::Mac(_) => Some(sp.guard.as_ref().expect("guarded").flags.len()),
                LaneBody::Fill(..) => None,
            });
            assert_eq!(flags, guard_flags, "{name}: guard flags in\n{opt}");
            assert_eq!(
                count(|o| matches!(o, Op::UpdateReduceFlag { .. })),
                if guard_flags.is_some() { 0 } else { nests },
                "{name}: flag ops in\n{opt}"
            );
            let ops_once = opt.ops.clone();
            assert_eq!(ops_once, optimize(opt).ops, "{name}: not idempotent");
        }
    }

    /// `OutOfFuel` fires at the identical step count even when the
    /// boundary lands mid-batch (every fuel value from 0 to completion),
    /// on the plain matmul and on every scheduled shape; with exact fuel
    /// the three backends agree bit for bit.
    #[test]
    fn fuel_boundary_mid_batch() {
        let plain = matmul_func("mm", 2, 13, 2, DataType::float32());
        let shapes = scheduled_matmuls()
            .into_iter()
            .map(|(name, f, ..)| (name, f));
        for (name, f) in [("plain", plain)].into_iter().chain(shapes) {
            let args: Vec<Tensor> = (f.params.iter().zip(1..))
                .map(|(p, seed)| Tensor::random(p.dtype(), p.shape(), seed))
                .collect();
            let reference =
                run_with(&f, args.clone(), ExecBackend::TreeWalk, None).expect("tree-walker");
            let total = reference.steps;
            for backend in [ExecBackend::TreeWalk, ExecBackend::VmUnopt, ExecBackend::Vm] {
                for fuel in 0..total {
                    let err = run_with(&f, args.clone(), backend, Some(fuel)).unwrap_err();
                    assert!(
                        matches!(err, ExecError::OutOfFuel),
                        "{name} {backend:?} fuel={fuel}: {err}"
                    );
                }
                let ok = run_with(&f, args.clone(), backend, Some(total)).expect("exact fuel");
                assert_eq!(ok.steps, total, "{name} {backend:?}");
                assert_eq!(ok.outputs, reference.outputs, "{name} {backend:?}");
            }
        }
    }

    /// A hand-assembled program over one parameter `O: float32[16]`:
    /// `accesses` are `(base, slot terms)` into it.
    fn assemble(ops: Vec<Op>, accesses: &[(i64, &[(u32, i64)])], num_slots: usize) -> Program {
        let o = Buffer::new("O", DataType::float32(), vec![16]);
        let mut slot_pool = Vec::new();
        let accesses = accesses
            .iter()
            .map(|&(base, slots)| Access {
                buf: 0,
                base,
                regs: PoolRange::default(),
                slots: append_pool(&mut slot_pool, slots),
                race: PoolRange::default(),
            })
            .collect();
        Program {
            func_name: "hand".into(),
            params: vec![o.clone()],
            buffers: vec![o],
            ops,
            accesses,
            names: Vec::new(),
            relaxed: vec![false],
            reg_pool: Vec::new(),
            slot_pool,
            race_pool: Vec::new(),
            mac_specs: Vec::new(),
            lane_specs: Vec::new(),
            optimized: false,
            num_regs: 2,
            num_slots,
            num_loops: 1,
        }
    }

    /// `for v0 in 0..extent { body }` with `body` placed at op 2.
    fn in_loop(extent: f64, body: Vec<Op>) -> Vec<Op> {
        let end = body.len() as u32 + 3;
        let mut ops = vec![
            Op::Const {
                dst: 0,
                val: extent,
            },
            Op::ForSetup {
                loop_id: 0,
                extent: 0,
                var: 0,
                end,
            },
        ];
        ops.extend(body);
        ops.push(Op::ForNext {
            loop_id: 0,
            var: 0,
            body: 2,
        });
        ops
    }

    /// `v1 = v0 + add`, the binding every shape below is about.
    fn bind_v1(add: f64) -> [Op; 4] {
        [
            Op::LoadVar { dst: 0, slot: 0 },
            Op::Const { dst: 1, val: add },
            Op::Bin {
                kind: BinKind::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::SetVar { slot: 1, src: 0 },
        ]
    }

    /// `O[access] = val`, one fuel step.
    fn fill(access: u32, val: f64) -> [Op; 2] {
        [Op::Tick, Op::StoreConst { access, val }]
    }

    /// Shapes `compile` never emits, where substituting the binding of `v1`
    /// into the access that reads it would read a different value than the
    /// frame holds: each must come out of `optimize` with the access still
    /// reading `v1` and the `SetVar` in place, and run as it did before.
    /// The first shape is the legal one, as the control.
    #[test]
    fn forwarding_refuses_what_the_compiler_never_emits() {
        let via_v1: &[(i64, &[(u32, i64)])] = &[(0, &[(1, 1)])];
        let skip = |target: u32| -> Vec<Op> {
            vec![
                Op::LoadVar { dst: 0, slot: 0 },
                Op::Const { dst: 1, val: 2.0 },
                Op::Cmp {
                    op: tir::CmpOp::Lt,
                    dst: 0,
                    a: 0,
                    b: 1,
                },
                Op::JumpIfZero { reg: 0, target },
            ]
        };
        let cat = |parts: &[&[Op]]| -> Vec<Op> { parts.concat() };
        let shapes: Vec<(&str, bool, Program)> = vec![
            (
                "binding then read",
                true,
                assemble(
                    in_loop(4.0, cat(&[&bind_v1(1.0), &fill(0, 1.0)])),
                    via_v1,
                    2,
                ),
            ),
            (
                "a forward jump over the SetVar",
                false,
                assemble(
                    in_loop(4.0, cat(&[&skip(10), &bind_v1(1.0), &fill(0, 1.0)])),
                    via_v1,
                    2,
                ),
            ),
            (
                "a read before its definition",
                false,
                assemble(
                    in_loop(4.0, cat(&[&fill(0, 1.0), &bind_v1(1.0)])),
                    via_v1,
                    2,
                ),
            ),
            (
                "a slot with two SetVars",
                false,
                assemble(
                    in_loop(
                        4.0,
                        cat(&[&bind_v1(1.0), &fill(0, 1.0), &bind_v1(9.0), &fill(0, 2.0)]),
                    ),
                    via_v1,
                    2,
                ),
            ),
            (
                "a loop variable read after its loop ended",
                false,
                assemble(
                    cat(&[
                        &in_loop(4.0, vec![Op::Tick, Op::Load { dst: 1, access: 1 }]),
                        &bind_v1(1.0),
                        &fill(0, 1.0),
                    ]),
                    &[(0, &[(1, 1)]), (0, &[(0, 1)])],
                    2,
                ),
            ),
            (
                "an empty-extent loop around the definition",
                false,
                assemble(
                    cat(&[&in_loop(0.0, bind_v1(1.0).to_vec()), &fill(0, 1.0)]),
                    via_v1,
                    2,
                ),
            ),
        ];
        for (name, forwarded, prog) in shapes {
            let args = vec![Tensor::zeros(DataType::float32(), &[16])];
            let before = prog
                .run_with_fuel(args.clone(), 1 << 10)
                .expect("unoptimized");
            let opt = optimize(prog);
            let after = opt.run_with_fuel(args, 1 << 10).expect("optimized");
            assert_eq!(before.outputs, after.outputs, "{name}:\n{opt}");
            assert_eq!(before.steps, after.steps, "{name}");
            let reads_v1 = opt.slot_pool[opt.accesses[0].slots.range()]
                .iter()
                .any(|&(s, _)| s == 1);
            let binds_v1 = opt
                .ops
                .iter()
                .any(|o| matches!(o, Op::SetVar { slot: 1, .. }));
            assert_eq!(
                (reads_v1, binds_v1),
                (!forwarded, !forwarded),
                "{name}:\n{opt}"
            );
        }
    }

    /// A sanitized run of an *optimized* program keeps full per-access
    /// shadow fidelity: the parallel reduction's fused `BinStore` still
    /// reports the race.
    #[test]
    fn sanitizer_sees_through_fused_ops() {
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
        let opt = optimize(compile(&f).expect("compiles"));
        assert!(
            opt.ops.iter().any(|o| matches!(o, Op::BinStore { .. })),
            "expected a fused store in:\n{opt}"
        );
        let args = vec![Tensor::zeros(DataType::float32(), &[1])];
        let err = opt.run_sanitized(args.clone(), 1 << 20).unwrap_err();
        assert!(matches!(err, ExecError::DataRace(_)), "{err}");
        opt.run_with_fuel(args, 1 << 20).expect("plain run");
    }

    /// Optimized out-of-bounds detection is intact under lane batching.
    #[test]
    fn sanitizer_bounds_under_optimizer() {
        let b = Buffer::new("B", DataType::float32(), vec![4]);
        let i = Var::int("i");
        let body = Stmt::store(b.clone(), vec![Expr::from(&i) + 1], Expr::f32(1.0));
        let f = PrimFunc::new("oob", vec![b], body.in_loop(i, 4));
        let opt = optimize(compile(&f).expect("compiles"));
        let args = vec![Tensor::zeros(DataType::float32(), &[4])];
        let err = opt.run_sanitized(args, 1 << 20).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds(_)), "{err}");
    }
}
