//! The bytecode optimizer: peephole fusion and multi-lane dispatch between
//! [`compile`](crate::compile::compile) and the [`vm`](crate::vm).
//!
//! The compiler already emits what the optimizer needs to see: affine
//! accesses as frame-slot terms, with block iterators substituted through
//! enclosing blocks; literal-only subtrees folded; and the flag slots of
//! every reduction-init guard it can read off loop counters
//! (`Program::guard_flags`). Pass order (see `ARCHITECTURE.md` § "Bytecode
//! optimizer"):
//!
//! 1. **Dead code** (`dead_code`, to a fixpoint): pure ops with dead
//!    destinations and `SetVar`s to never-read slots — the bindings the
//!    compiler substituted into every read — are deleted; a division is
//!    pure when the op before it sets its divisor to a non-zero constant.
//! 2. **MAC fusion** (`fuse_macs`): the eight-op
//!    `Load; Load; [Cast]; Load; [Cast]; Bin; Bin; Store` inner-product
//!    idiom collapses to one `Op::FusedMac`.
//! 3. **Small fusions** (`fuse_small`): adjacent `Bin; Store` and
//!    `Const; Store` pairs collapse to `Op::BinStore` / `Op::StoreConst`
//!    (the latter is the fill the lane batcher reads).
//! 4. **Lane batching** (`batch_lanes`): an innermost
//!    `ForSetup/ForNext` loop whose whole body is one fused statement or
//!    a slot-addressed copy (plus its `Tick` and optional reduction-init
//!    guard) becomes a single `Op::MacLanes` executing the whole loop in
//!    one dispatch with strength-reduced `off += stride` addressing (the
//!    per-lane strides are recorded here, once, in the `LaneSpec`); a
//!    last dead-code sweep collects the outer bindings only the collapsed
//!    body read.
//!
//! Every rewrite preserves the tree-walker contract bit-for-bit: the same
//! `f64` arithmetic in the same order, errors at the same points, fuel
//! ticks at the same statements (fused ops keep their `Tick`s; lanes tick
//! per lane), and full per-access sanitizer fidelity (fused ops replay
//! their constituent accesses in the unfused order).

use crate::compile::{Extent, LaneBody, LaneGuard, LaneSpec, MacSpec, Op, Program};

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
    while dead_code(&mut prog) {}
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

/// `(from, to)` op indices of every jump, `ForSetup.end` and
/// `ForNext.body` included.
fn jumps(ops: &[Op]) -> impl Iterator<Item = (usize, usize)> + '_ {
    ops.iter().enumerate().filter_map(|(i, op)| match *op {
        Op::Jump { target }
        | Op::JumpIfZero { target, .. }
        | Op::JumpIfReduceFlagFalse { target } => Some((i, target as usize)),
        Op::ForSetup { end, .. } => Some((i, end as usize)),
        Op::ForNext { body, .. } => Some((i, body as usize)),
        _ => None,
    })
}

/// `targets[t]` is true when some instruction jumps to `t`. Length is
/// `ops.len() + 1` so a jump to one-past-the-end is representable.
fn jump_targets(ops: &[Op]) -> Vec<bool> {
    let mut t = vec![false; ops.len() + 1];
    for (_, to) in jumps(ops) {
        t[to] = true;
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

/// The access sites of a lane body, in [`LaneSpec::strides`] order, and
/// how many there are; the fourth entry is free for a guard's.
fn body_accesses(prog: &Program, body: LaneBody) -> ([u32; 4], usize) {
    match body {
        LaneBody::Mac(m) => {
            let sp = &prog.mac_specs[m as usize];
            ([sp.acc, sp.a, sp.b, 0], 3)
        }
        LaneBody::Fill(a, _) => ([a, 0, 0, 0], 1),
        LaneBody::Copy(src, dst) => ([src, dst, 0, 0], 2),
    }
}

/// The access sites whose offsets an op computes (at most four: a
/// guarded `MacLanes`).
fn op_accesses(prog: &Program, op: &Op) -> impl Iterator<Item = u32> {
    let (accesses, n) = match *op {
        Op::Load { access, .. }
        | Op::Store { access, .. }
        | Op::BinStore { access, .. }
        | Op::StoreConst { access, .. } => ([access, 0, 0, 0], 1),
        Op::FusedMac { spec } => body_accesses(prog, LaneBody::Mac(spec)),
        Op::MacLanes { spec } => {
            let sp = &prog.lane_specs[spec as usize];
            let (mut accesses, mut n) = body_accesses(prog, sp.body);
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
        | Op::ForSetup {
            extent: Extent::Reg(reg),
            ..
        }
        | Op::UpdateReduceFlag { reg } => bit(*reg),
        Op::ForSetup { .. } => 0,
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

/// Whether [`dead_code`] deletes `ops[i]`, given the registers live after
/// it, the slots something reads and the jump targets: a pure op that
/// cannot raise and whose destination is dead, or a `SetVar` binding an
/// iterator nobody reads. A division cannot raise when the op before it,
/// on the only path in, sets its divisor to a non-zero constant.
fn is_dead(ops: &[Op], i: usize, live_out: Mask, slot_read: &[bool], targets: &[bool]) -> bool {
    match &ops[i] {
        Op::Const { dst, .. }
        | Op::LoadVar { dst, .. }
        | Op::Cmp { dst, .. }
        | Op::Not { dst, .. }
        | Op::Cast { dst, .. }
        | Op::Call { dst, .. } => live_out & bit(*dst) == 0,
        Op::Bin { kind, dst, b, .. } => {
            let nonzero_divisor = i > 0
                && !targets[i]
                && matches!(ops[i - 1], Op::Const { dst, val } if dst == *b && val != 0.0);
            (bin_safe(*kind) || nonzero_divisor) && live_out & bit(*dst) == 0
        }
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
    let targets = jump_targets(ops);
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
            let inn = if is_dead(ops, i, out, &slot_read, &targets) {
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

/// Whether a `Bin` of this kind can be deleted without changing
/// observable behavior (no zero-divide check to preserve).
fn bin_safe(kind: crate::compile::BinKind) -> bool {
    use crate::compile::BinKind::*;
    !matches!(kind, DivI | FloorDivF | FloorDivI | FloorModF | FloorModI)
}

// ---------------------------------------------------------------------------
// Pass 1: dead code elimination
// ---------------------------------------------------------------------------

/// Frame slots with at least one read site: a `LoadVar`, a pooled slot
/// term of an access some op uses, or lane-spec metadata.
fn slot_read_mask(prog: &Program) -> Vec<bool> {
    let mut read = vec![false; prog.num_slots];
    for op in &prog.ops {
        match op {
            Op::LoadVar { slot, .. } => read[*slot as usize] = true,
            Op::MacLanes { spec } => {
                let sp = &prog.lane_specs[*spec as usize];
                read[sp.var as usize] = true;
                for &f in sp.guard.iter().flat_map(|g| g.flags.iter()) {
                    read[f as usize] = true;
                }
            }
            _ => {}
        }
        for a in op_accesses(prog, op) {
            for &(s, _) in &prog.slot_pool[prog.accesses[a as usize].slots.range()] {
                read[s as usize] = true;
            }
        }
    }
    read
}

/// Deletes pure ops whose destination register is dead and `SetVar`s to
/// slots that are never read ([`is_dead`]). `ForSetup`/`ForNext` variable
/// rebinding keeps its slot alive through the loop ops themselves (they
/// are never deleted), but a `SetVar` binding an iterator the compiler
/// substituted into every read goes away.
fn dead_code(prog: &mut Program) -> bool {
    let (_, live_out) = liveness(prog);
    let slot_read = slot_read_mask(prog);
    let targets = jump_targets(&prog.ops);
    let dead: Vec<bool> = (0..prog.ops.len())
        .map(|i| is_dead(&prog.ops, i, live_out[i], &slot_read, &targets))
        .collect();
    let changed = dead.contains(&true);
    if changed {
        compact(prog, &dead);
    }
    changed
}

// ---------------------------------------------------------------------------
// Pass 2: MAC fusion
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
///   recomputed at fused-op time, so fusion requires the affine
///   (slot/base-only) form the compiler emits.
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
// Pass 3: small fusions
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
// Pass 4: lane batching
// ---------------------------------------------------------------------------

/// Matches the body `ops[s..t]` of a candidate innermost loop. Accepted
/// shapes (exactly, nothing else in the body):
///
/// * `Tick; FusedMac` — an unguarded accumulate loop;
/// * `Tick; StoreConst` — a fill loop;
/// * `Tick; Load; Store` of the loaded register — a copy loop, when
///   neither access has a register term;
/// * `ResetReduceFlag; (chain; UpdateReduceFlag)+;
///    JumpIfReduceFlagFalse; Tick; StoreConst; Tick; FusedMac` — a
///   guarded reduction whose init store hits the same element as the
///   accumulator ([`acc_eq`]), the matmul/conv inner loop. Each `chain`
///   is the pure `LoadVar`/`Const`/safe-`Bin` computation of one reduce
///   binding, and `flags` is the compiler's record of the guard
///   (`Program::guard_flags`): without one (a constant offset, a reversed
///   loop `7 - k`, an opaque term in a sum) the flag ops stay and the loop
///   stays scalar.
fn match_lane_body(
    prog: &Program,
    s: usize,
    t: usize,
    flags: Option<&[u32]>,
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
    if t - s == 3 {
        let (Op::Tick, &Op::Load { dst, access: src }, &Op::Store { access, val }) =
            (&ops[s], &ops[s + 1], &ops[s + 2])
        else {
            return None;
        };
        let slot_only = !access_reads_reg(prog, src) && !access_reads_reg(prog, access);
        return (val == dst && slot_only).then_some((None, LaneBody::Copy(src, access)));
    }
    // Guarded form.
    let flags = flags?;
    let mut k = s + 1;
    let target = loop {
        match ops[k] {
            Op::LoadVar { .. } | Op::Const { .. } | Op::UpdateReduceFlag { .. } => {}
            Op::Bin { kind, .. } if bin_safe(kind) => {}
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
/// ops themselves stay (they own extent latching and the exit); the
/// body becomes one op executing every iteration in one dispatch, with
/// each access's per-lane stride recorded in its [`LaneSpec`].
fn batch_lanes(prog: &mut Program) {
    let n = prog.ops.len();
    let (live_in, _) = liveness(prog);
    let jumps: Vec<(usize, usize)> = jumps(&prog.ops).collect();
    // The compiler's guard record of every `ResetReduceFlag`, by op index.
    let mut records = std::mem::take(&mut prog.guard_flags).into_iter();
    let guards: Vec<Option<Box<[u32]>>> = (prog.ops.iter())
        .map(|op| match op {
            Op::ResetReduceFlag => records.next().flatten(),
            _ => None,
        })
        .collect();
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
        let Some((guard, lbody)) = match_lane_body(prog, f + 1, e - 1, guards[f + 1].as_deref())
        else {
            continue;
        };
        let jumped_into =
            |&(from, to): &(usize, usize)| (from < f || from >= e) && f < to && to < e;
        if jumps.iter().any(jumped_into) {
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
        let (ids, n_ids) = body_accesses(prog, lbody);
        let mut strides = [0; 3];
        for (d, &id) in strides.iter_mut().zip(&ids[..n_ids]) {
            let terms = &prog.slot_pool[prog.accesses[id as usize].slots.range()];
            *d = terms.iter().filter(|t| t.0 == var).map(|t| t.1).sum();
        }
        let sid = prog.lane_specs.len() as u32;
        prog.lane_specs.push(LaneSpec {
            loop_id,
            var,
            guard,
            body: lbody,
            strides,
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
    use tir::{Buffer, DataType, Expr, ForKind, PrimFunc, Stmt, Var};

    use super::{compile_optimized, optimize};
    use crate::compile::tests::scheduled_matmuls;
    use crate::compile::{compile, Extent, LaneBody, Op};
    use crate::interp::{run_with, ExecBackend, ExecError};
    use crate::tensor::Tensor;
    use crate::vm::InstrMixProfile;

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

    /// Lane loops of short and long extents, even and odd. Outputs and
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
                LaneBody::Fill(..) | LaneBody::Copy(..) => None,
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
    /// boundary lands mid-loop (every fuel value from 0 to completion),
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
            let unopt = compile(&f).expect("compiles");
            let run = |backend: &str, fuel: u64| match backend {
                "tree-walk" => run_with(&f, args.clone(), ExecBackend::TreeWalk, Some(fuel)),
                "unoptimized" => unopt.run_with_fuel(args.clone(), fuel),
                _ => run_with(&f, args.clone(), ExecBackend::Vm, Some(fuel)),
            };
            for backend in ["tree-walk", "unoptimized", "optimized"] {
                for fuel in 0..total {
                    let err = run(backend, fuel).unwrap_err();
                    assert!(
                        matches!(err, ExecError::OutOfFuel),
                        "{name} {backend} fuel={fuel}: {err}"
                    );
                }
                let ok = run(backend, total).expect("exact fuel");
                assert_eq!(ok.steps, total, "{name} {backend}");
                assert_eq!(ok.outputs, reference.outputs, "{name} {backend}");
            }
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

    /// How many copy lanes `opt` has.
    fn copy_lanes(opt: &crate::compile::Program) -> usize {
        let copy = |sp: &&crate::compile::LaneSpec| matches!(sp.body, LaneBody::Copy(..));
        opt.lane_specs.iter().filter(copy).count()
    }

    /// A copy lane that reads a buffer nothing has stored raises
    /// `UnboundBuffer` at the tree-walker's step: eight fill stores run
    /// first, so the ninth step is the first that fails.
    #[test]
    fn a_copy_lane_from_a_never_stored_buffer_raises_at_the_walkers_step() {
        let (p, b) = (
            Buffer::new("P", DataType::float32(), vec![8]),
            Buffer::new("B", DataType::float32(), vec![8]),
        );
        let (i, j) = (Var::int("i"), Var::int("j"));
        let fill = Stmt::store(b.clone(), vec![Expr::from(&i)], Expr::f32(1.0)).in_loop(i, 8);
        let copy = Stmt::store(
            b.clone(),
            vec![Expr::from(&j)],
            p.load(vec![Expr::from(&j)]),
        );
        let f = PrimFunc::new(
            "phantom",
            vec![b],
            Stmt::seq(vec![fill, copy.in_loop(j, 8)]),
        );
        let opt = optimize(compile(&f).expect("compiles"));
        assert_eq!(copy_lanes(&opt), 1, "{opt}");
        let args = zeros_args(&f);
        let first_unbound = |run: &dyn Fn(u64) -> Result<_, ExecError>| {
            (0..16)
                .find(|&fuel| matches!(run(fuel), Err(ExecError::UnboundBuffer(ref n)) if n == "P"))
        };
        let runs: [&dyn Fn(u64) -> Result<_, ExecError>; 3] = [
            &|fuel| run_with(&f, args.clone(), ExecBackend::TreeWalk, Some(fuel)),
            &|fuel| opt.run_with_fuel(args.clone(), fuel),
            &|fuel| opt.run_sanitized(args.clone(), fuel),
        ];
        for run in runs {
            assert_eq!(first_unbound(run), Some(9));
        }
    }

    /// An in-place shift through one buffer, both ways: each lane reads
    /// and writes in scalar order, so `A[i + 1] = A[i]` smears `A[0]` over
    /// the buffer and `A[i] = A[i + 1]` moves it down by one.
    #[test]
    fn an_overlapping_in_place_copy_is_exact() {
        let a = Buffer::new("A", DataType::float32(), vec![13]);
        let args = vec![Tensor::random(DataType::float32(), &[13], 3)];
        for (to, from) in [(1, 0), (0, 1)] {
            let i = Var::int("i");
            let at = |k: i64| vec![Expr::from(&i) + k];
            let body = Stmt::store(a.clone(), at(to), a.load(at(from))).in_loop(i.clone(), 12);
            let f = PrimFunc::new("shift", vec![a.clone()], body);
            let opt = optimize(compile(&f).expect("compiles"));
            assert_eq!(copy_lanes(&opt), 1, "{opt}");
            let walk = run_with(&f, args.clone(), ExecBackend::TreeWalk, None).expect("walks");
            let vm = opt.run_with_fuel(args.clone(), 1 << 20).expect("runs");
            assert_eq!((vm.steps, &vm.outputs), (walk.steps, &walk.outputs));
        }
    }

    /// A racy parallel copy draws, through its copy lane, the sanitizer's
    /// exact message from the scalar path.
    #[test]
    fn a_racy_parallel_copy_lane_reports_the_scalar_race() {
        let (a, b) = (
            Buffer::new("A", DataType::float32(), vec![8]),
            Buffer::new("B", DataType::float32(), vec![4]),
        );
        let i = Var::int("i");
        let body = Stmt::store(b.clone(), vec![Expr::int(3)], a.load(vec![Expr::from(&i)]));
        let par = tir::For::with_kind(i, 8, tir::ForKind::Parallel, body);
        let f = PrimFunc::new("racy_copy", vec![a, b], Stmt::For(Box::new(par)));
        let plain = compile(&f).expect("compiles");
        let opt = optimize(plain.clone());
        assert_eq!(copy_lanes(&opt), 1, "{opt}");
        let args = zeros_args(&f);
        let [scalar, lanes] = [plain, opt].map(|p| p.run_sanitized(args.clone(), 1 << 20));
        let message = "data race: buffer B: iterations 0 and 1 of a parallel loop both touch \
                       element 3";
        assert_eq!(scalar.unwrap_err().to_string(), message);
        assert_eq!(lanes.unwrap_err().to_string(), message);
    }

    /// `C[c(k)] += A[k] * B[k]` over `k` in `0..extent` (a lane loop),
    /// under `outer`; `A` and `B` hold 1000 elements, `C` holds `c_len`.
    fn dot(
        outer: Option<(&Var, i64, ForKind)>,
        c: impl Fn(&Var) -> Expr,
        extent: Expr,
        c_len: i64,
    ) -> PrimFunc {
        let [a, b] = ["A", "B"].map(|n| Buffer::new(n, DataType::float32(), vec![1000]));
        let c_buf = Buffer::new("C", DataType::float32(), vec![c_len]);
        let k = Var::int("k");
        let prod = a.load(vec![Expr::from(&k)]) * b.load(vec![Expr::from(&k)]);
        let c = c(&k);
        let body = Stmt::store(c_buf.clone(), vec![c.clone()], c_buf.load(vec![c]) + prod);
        let mut body = body.in_loop(k, extent);
        if let Some((o, n, kind)) = outer {
            body = Stmt::For(Box::new(tir::For::with_kind(o.clone(), n, kind, body)));
        }
        PrimFunc::new("dot", vec![a, b, c_buf], body)
    }

    /// The outcome of one run, comparable across backends.
    type Outcome = Result<(u64, Vec<Tensor>), String>;

    /// `f` on seeded inputs through the walker, the compiler's bytecode,
    /// optimized bytecode and the sanitizer (on optimized bytecode).
    fn four_ways(f: &PrimFunc, fuel: u64) -> [Outcome; 4] {
        let args: Vec<Tensor> = (f.params.iter().zip(1..))
            .map(|(p, seed)| Tensor::random(p.dtype(), p.shape(), seed))
            .collect();
        let (plain, opt) = (compile(f).expect("compiles"), compile_optimized(f).unwrap());
        [
            run_with(f, args.clone(), ExecBackend::TreeWalk, Some(fuel)),
            plain.run_with_fuel(args.clone(), fuel),
            opt.run_with_fuel(args.clone(), fuel),
            opt.run_sanitized(args, fuel),
        ]
        .map(|r| r.map(|o| (o.steps, o.outputs)).map_err(|e| e.to_string()))
    }

    /// A MAC loop of extent 1000 is one `mac_lanes` dispatch per entry.
    #[test]
    fn a_long_mac_loop_is_one_dispatch_per_entry() {
        let o = Var::int("o");
        let f = dot(
            Some((&o, 3, ForKind::Serial)),
            |_| Expr::from(&o),
            Expr::int(1000),
            3,
        );
        let opt = compile_optimized(&f).unwrap();
        let mut prof = InstrMixProfile::new();
        let out = opt
            .run_profiled(zeros_args(&f), 1 << 20, &mut prof)
            .expect("runs");
        assert_eq!(out.steps, 3000);
        let mac_lanes = prof.mix().into_iter().find(|m| m.0 == "mac_lanes");
        assert_eq!(mac_lanes, Some(("mac_lanes", 3)), "{opt}");
    }

    /// Fuel running out before, inside and at the end of a 1000-lane loop
    /// stops every backend at the same step.
    #[test]
    fn fuel_runs_out_step_exactly_inside_a_long_lane_loop() {
        let f = dot(None, |_| Expr::int(0), Expr::int(1000), 1);
        for fuel in [1, 517, 999, 1000, 1001] {
            let [walk, rest @ ..] = four_ways(&f, fuel);
            for other in rest {
                assert_eq!(other, walk, "fuel {fuel}");
            }
            match walk {
                Ok((steps, _)) => assert!(fuel >= 1000 && steps == 1000, "fuel {fuel}"),
                Err(e) => assert!(
                    fuel < 1000 && e == ExecError::OutOfFuel.to_string(),
                    "fuel {fuel}: {e}"
                ),
            }
        }
    }

    /// A lane loop whose extent is a register runs 0, 1 and 1000 lanes.
    #[test]
    fn a_register_extent_runs_zero_one_and_many_lanes() {
        let o = Var::int("o");
        for n in [0, 1, 1000] {
            let outer = Some((&o, 1, ForKind::Serial));
            let f = dot(outer, |_| Expr::int(0), Expr::from(&o) + n, 1);
            let opt = compile_optimized(&f).unwrap();
            let reg = (opt.ops.iter()).any(|op| {
                matches!(
                    op,
                    Op::ForSetup {
                        extent: Extent::Reg(_),
                        ..
                    }
                )
            });
            assert!(reg && opt.lane_specs.len() == 1, "{opt}");
            let [walk, rest @ ..] = four_ways(&f, 1 << 20);
            assert_eq!(walk.as_ref().map(|o| o.0), Ok(n as u64));
            for other in rest {
                assert_eq!(other, walk, "extent {n}");
            }
        }
    }

    /// A parallel loop around a 1000-lane body whose two instances first
    /// collide at lane 517 draws the scalar path's exact race message.
    #[test]
    fn a_race_deep_inside_a_long_lane_body_reports_the_scalar_race() {
        let i = Var::int("i");
        let c = |k: &Var| Expr::from(k) + 517 - Expr::from(&i) * 517;
        let f = dot(Some((&i, 2, ForKind::Parallel)), c, Expr::int(1000), 1517);
        let opt = compile_optimized(&f).unwrap();
        assert_eq!(opt.lane_specs.len(), 1, "{opt}");
        let [plain, opt] = [compile(&f).expect("compiles"), opt].map(|p| {
            let err = p.run_sanitized(zeros_args(&f), 1 << 20).unwrap_err();
            err.to_string()
        });
        let message = "data race: buffer C: iterations 0 and 1 of a parallel loop both touch \
                       element 517";
        assert_eq!((plain.as_str(), opt.as_str()), (message, message));
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
