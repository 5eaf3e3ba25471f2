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
//! 2. **Copy aliasing** (`alias_copy_slots`): block-iterator bindings
//!    that merely copy a loop variable (`SetVar s ← LoadVar t`) are
//!    aliased to the loop variable's slot, turning opaque iterator reads
//!    into loop-variable reads the lane batcher understands.
//! 3. **Constant folding + dead code** (`fold_constants` /
//!    `dead_code`, to a fixpoint): `Const`-fed `Bin`/`Cast`/branches
//!    fold; pure ops with dead destinations and `SetVar`s to never-read
//!    slots are deleted.
//! 4. **MAC fusion** (`fuse_macs`): the eight-op
//!    `Load; Load; [Cast]; Load; [Cast]; Bin; Bin; Store` inner-product
//!    idiom collapses to one `Op::FusedMac`.
//! 5. **Small fusions** (`fuse_small`): `Load+Cast`, `Bin+Store`,
//!    `Const+Store`, and `Load ... Bin+Store` accumulate idioms collapse
//!    to `Op::LoadCast` / `Op::BinStore` / `Op::StoreConst` /
//!    `Op::FusedAcc`.
//! 6. **Lane batching** (`batch_lanes`): an innermost
//!    `ForSetup/ForNext` loop whose whole body is one fused statement
//!    (plus its `Tick` and optional reduction-init guard) becomes a
//!    single `Op::MacLanes` executing up to `LANE_WIDTH_MAX`
//!    iterations per dispatch with strength-reduced `off += stride`
//!    addressing.
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
    alias_copy_slots(&mut prog);
    loop {
        let changed = fold_constants(&mut prog) | dead_code(&mut prog);
        if !changed {
            break;
        }
    }
    fuse_macs(&mut prog);
    fuse_small(&mut prog);
    dead_code(&mut prog);
    batch_lanes(&mut prog);
    prog
}

/// Compiles and optimizes in one step (the default VM path of
/// [`run_with`](crate::run_with)).
///
/// # Errors
///
/// Propagates [`CompileError`](crate::CompileError) from compilation;
/// optimization itself cannot fail.
pub fn compile_optimized(func: &tir::PrimFunc) -> Result<Program, crate::compile::CompileError> {
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

/// Registers an op reads.
fn reads_mask(prog: &Program, op: &Op) -> Mask {
    match op {
        Op::Const { .. }
        | Op::LoadVar { .. }
        | Op::ThrowUnboundVar { .. }
        | Op::ThrowUnknownIntrinsic { .. }
        | Op::Tick
        | Op::Jump { .. }
        | Op::ForNext { .. }
        | Op::ResetReduceFlag
        | Op::JumpIfReduceFlagFalse { .. }
        | Op::AllocBuf { .. } => 0,
        Op::SetVar { src, .. } => bit(*src),
        Op::Cast { src, .. } | Op::Not { src, .. } => bit(*src),
        Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } => bit(*a) | bit(*b),
        Op::Call { first, n, .. } => {
            let mut m = 0;
            for r in *first..*first + *n {
                m |= bit(r);
            }
            m
        }
        Op::Load { access, .. } => access_reg_mask(prog, *access),
        Op::Store { access, val } => access_reg_mask(prog, *access) | bit(*val),
        Op::JumpIfZero { reg, .. } => bit(*reg),
        Op::ForSetup { extent, .. } => bit(*extent),
        Op::UpdateReduceFlag { reg } => bit(*reg),
        Op::HoistSet { src, .. } => bit(*src),
        Op::LoadCast { access, .. } => access_reg_mask(prog, *access),
        Op::BinStore { a, b, access, .. } => bit(*a) | bit(*b) | access_reg_mask(prog, *access),
        Op::StoreConst { access, .. } => access_reg_mask(prog, *access),
        Op::FusedAcc { access, src, .. } => access_reg_mask(prog, *access) | bit(*src),
        Op::FusedMac { spec } => {
            let sp = &prog.mac_specs[*spec as usize];
            access_reg_mask(prog, sp.acc)
                | access_reg_mask(prog, sp.a)
                | access_reg_mask(prog, sp.b)
        }
        Op::MacLanes { spec } => {
            let sp = &prog.lane_specs[*spec as usize];
            let mut m = 0;
            match sp.body {
                LaneBody::Mac(ms) => {
                    let s = &prog.mac_specs[ms as usize];
                    m |= access_reg_mask(prog, s.acc)
                        | access_reg_mask(prog, s.a)
                        | access_reg_mask(prog, s.b);
                }
                LaneBody::Fill(a, _) => m |= access_reg_mask(prog, a),
            }
            if let Some(g) = &sp.guard {
                m |= access_reg_mask(prog, g.access);
            }
            m
        }
    }
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
        | Op::Load { dst, .. }
        | Op::LoadCast { dst, .. } => bit(*dst),
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
        Op::ThrowUnboundVar { .. } | Op::ThrowUnknownIntrinsic { .. } => ([0, 0], 0),
        Op::Jump { target } => ([*target as usize, 0], 1),
        Op::JumpIfZero { target, .. } | Op::JumpIfReduceFlagFalse { target } => {
            ([next, *target as usize], 2)
        }
        Op::ForSetup { end, .. } => ([next, *end as usize], 2),
        Op::ForNext { body, .. } => ([next, *body as usize], 2),
        _ => ([next, 0], 1),
    }
}

/// Backward liveness over registers: `live_in[i]` / `live_out[i]` are the
/// registers live before / after `ops[i]`. Conservative about nothing —
/// registers are dead at program exit (only buffers escape).
fn liveness(prog: &Program, ops: &[Op]) -> (Vec<Mask>, Vec<Mask>) {
    let n = ops.len();
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
            let inn = reads_mask(prog, &ops[i]) | (out & !writes_mask(&ops[i]));
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
        && prog.hoist_pool[x.hoists.range()] == prog.hoist_pool[y.hoists.range()]
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
            | Op::LoadCast { access, .. }
            | Op::BinStore { access, .. }
            | Op::StoreConst { access, .. }
            | Op::FusedAcc { access, .. } => *access,
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
            // Canonicalize: merge duplicate slots (e.g. `v + v`), drop
            // zero multipliers, sort — structurally equal index
            // expressions then produce identical pool contents, which is
            // what `acc_eq` (and thus MAC fusion) compares.
            slots.sort_unstable();
            slots.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
            slots.retain(|&(_, m)| m != 0);
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
struct Affine {
    terms: Vec<(u32, i64)>,
    k: i64,
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
                        | Op::ThrowUnboundVar { .. }
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
// Pass 2: alias copy slots (block iterator bindings) to loop variables
// ---------------------------------------------------------------------------

/// A block-realize binding `vi = i` compiles to `LoadVar r, slot_i;
/// SetVar slot_vi, r`. When *every* write to `slot_vi` is such a copy
/// from one common source slot `slot_t`, and `slot_t` is written only by
/// loop ops (`ForSetup`/`ForNext`, which keep it equal to the loop
/// counter), every read of `slot_vi` between binding and rebinding sees
/// exactly `frame[slot_t]` — so reads can be redirected to `slot_t`.
/// This exposes the loop variable to the lane batcher through iterator
/// indirection. Iterates to a fixpoint to resolve copy chains.
///
/// The redirect is safe precisely because the compiler rejects shadowed
/// bindings: within one loop iteration the binding `SetVar` executes
/// before any read of the iterator (the tree-walker would otherwise
/// throw `UnboundVar`, which compilation of in-scope reads rules out).
fn alias_copy_slots(prog: &mut Program) {
    loop {
        let nslots = prog.num_slots;
        // writer[s]: Some(set) of source slots copied into s, or None
        // when s has a non-copy writer (ForSetup/ForNext/lane ops count
        // as non-copy).
        let mut copy_src: Vec<Option<Vec<u32>>> = vec![Some(Vec::new()); nslots];
        let mut loop_written = vec![false; nslots];
        for (i, op) in prog.ops.iter().enumerate() {
            match op {
                Op::SetVar { slot, src } => {
                    let from = match prev_loadvar(prog, i, *src) {
                        Some(t) => t,
                        None => {
                            copy_src[*slot as usize] = None;
                            continue;
                        }
                    };
                    if let Some(list) = &mut copy_src[*slot as usize] {
                        list.push(from);
                    }
                }
                Op::ForSetup { var, .. } | Op::ForNext { var, .. } => {
                    copy_src[*var as usize] = None;
                    loop_written[*var as usize] = true;
                }
                Op::MacLanes { spec } => {
                    let v = prog.lane_specs[*spec as usize].var;
                    copy_src[v as usize] = None;
                    loop_written[v as usize] = true;
                }
                _ => {}
            }
        }
        let mut alias: Vec<Option<u32>> = vec![None; nslots];
        for s in 0..nslots {
            if let Some(list) = &copy_src[s] {
                if !list.is_empty() && list.iter().all(|&t| t == list[0]) {
                    let t = list[0] as usize;
                    if loop_written[t] && t != s {
                        alias[s] = Some(list[0]);
                    }
                }
            }
        }
        if alias.iter().all(Option::is_none) {
            return;
        }
        // Redirect reads: LoadVar sites and slot_pool terms. Terminate
        // when nothing actually moved (the aliases may recompute until
        // dead_code collects the copy writers).
        let mut moved = 0usize;
        for op in &mut prog.ops {
            if let Op::LoadVar { slot, .. } = op {
                if let Some(t) = alias[*slot as usize] {
                    *slot = t;
                    moved += 1;
                }
            }
        }
        for (s, _) in prog.slot_pool.iter_mut() {
            if let Some(t) = alias[*s as usize] {
                *s = t;
                moved += 1;
            }
        }
        if moved == 0 {
            return;
        }
        // The binding SetVars (and their LoadVars) are now dead unless
        // something else reads the slot; collect them before re-scanning
        // for copy chains.
        while fold_constants(prog) | dead_code(prog) {}
    }
}

/// When `ops[i - 1]` is `LoadVar { dst: src, slot }`, that slot.
fn prev_loadvar(prog: &Program, i: usize, src: u32) -> Option<u32> {
    if i == 0 {
        return None;
    }
    match &prog.ops[i - 1] {
        Op::LoadVar { dst, slot } if *dst == src => Some(*slot),
        _ => None,
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
/// the evaluation cannot error (non-zero constant divisor).
fn fold_constants(prog: &mut Program) -> bool {
    let targets = jump_targets(&prog.ops);
    let n = prog.ops.len();
    let (_, live_out) = liveness(prog, &prog.ops);
    let mut dead = vec![false; n];
    let mut changed = false;
    for i in 0..n {
        if dead[i] {
            continue;
        }
        // Const c; JumpIfZero { reg: c } → Jump/fall-through.
        if i + 1 < n && !targets[i + 1] {
            if let (Op::Const { dst, val }, Op::JumpIfZero { reg, target }) =
                (&prog.ops[i], &prog.ops[i + 1])
            {
                if dst == reg {
                    let (dst, val, target) = (*dst, *val, *target);
                    let keep_const = live_out[i + 1] & bit(dst) != 0;
                    if val == 0.0 {
                        prog.ops[i + 1] = Op::Jump { target };
                    } else {
                        // Never-taken branch: just drop it.
                        dead[i + 1] = true;
                    }
                    if !keep_const {
                        dead[i] = true;
                    }
                    changed = true;
                    continue;
                }
            }
        }
        // Const a; Const b; Bin → Const (when the kinds cannot error).
        if i + 2 < n && !targets[i + 1] && !targets[i + 2] {
            if let (
                Op::Const { dst: d1, val: v1 },
                Op::Const { dst: d2, val: v2 },
                Op::Bin { kind, dst, a, b },
            ) = (&prog.ops[i], &prog.ops[i + 1], &prog.ops[i + 2])
            {
                if a == d1 && b == d2 && d1 != d2 {
                    let ok = bin_safe(*kind) || *v2 != 0.0;
                    if ok {
                        if let Ok(v) = bin_eval(*kind, *v1, *v2) {
                            let (d1, d2, dst) = (*d1, *d2, *dst);
                            prog.ops[i + 2] = Op::Const { dst, val: v };
                            if live_out[i + 2] & bit(d1) == 0 && d1 != dst {
                                dead[i] = true;
                            }
                            if live_out[i + 2] & bit(d2) == 0 && d2 != dst {
                                dead[i + 1] = true;
                            }
                            changed = true;
                            continue;
                        }
                    }
                }
            }
        }
        // Const; Cast → Const.
        if i + 1 < n && !targets[i + 1] {
            if let (
                Op::Const { dst: d1, val },
                Op::Cast {
                    dst,
                    src,
                    dtype,
                    trunc,
                },
            ) = (&prog.ops[i], &prog.ops[i + 1])
            {
                if src == d1 {
                    let (d1, dst) = (*d1, *dst);
                    let v = cast_val(*val, *dtype, *trunc);
                    prog.ops[i + 1] = Op::Const { dst, val: v };
                    if live_out[i + 1] & bit(d1) == 0 && d1 != dst {
                        dead[i] = true;
                    }
                    changed = true;
                    continue;
                }
            }
        }
    }
    if changed {
        compact(prog, &dead);
    }
    changed
}

// ---------------------------------------------------------------------------
// Pass 4: dead code elimination
// ---------------------------------------------------------------------------

/// Frame slots with at least one read site: `LoadVar`, pooled slot
/// terms reachable from any live access, and lane-spec metadata.
fn slot_read_mask(prog: &Program) -> Vec<bool> {
    let mut read = vec![false; prog.num_slots];
    let mark_access = |read: &mut Vec<bool>, access: u32| {
        let acc = &prog.accesses[access as usize];
        for &(s, _) in &prog.slot_pool[acc.slots.range()] {
            read[s as usize] = true;
        }
    };
    for op in &prog.ops {
        match op {
            Op::LoadVar { slot, .. } => read[*slot as usize] = true,
            Op::Load { access, .. }
            | Op::Store { access, .. }
            | Op::LoadCast { access, .. }
            | Op::BinStore { access, .. }
            | Op::StoreConst { access, .. }
            | Op::FusedAcc { access, .. } => mark_access(&mut read, *access),
            Op::FusedMac { spec } => {
                let sp = prog.mac_specs[*spec as usize];
                mark_access(&mut read, sp.acc);
                mark_access(&mut read, sp.a);
                mark_access(&mut read, sp.b);
            }
            Op::MacLanes { spec } => {
                let sp = prog.lane_specs[*spec as usize].clone();
                read[sp.var as usize] = true;
                match sp.body {
                    LaneBody::Mac(m) => {
                        let ms = prog.mac_specs[m as usize];
                        mark_access(&mut read, ms.acc);
                        mark_access(&mut read, ms.a);
                        mark_access(&mut read, ms.b);
                    }
                    LaneBody::Fill(a, _) => mark_access(&mut read, a),
                }
                if let Some(g) = &sp.guard {
                    for &f in g.flags.iter() {
                        read[f as usize] = true;
                    }
                    mark_access(&mut read, g.access);
                }
            }
            _ => {}
        }
    }
    read
}

/// Deletes pure ops whose destination register is dead and `SetVar`s to
/// slots that are never read. `ForSetup`/`ForNext` variable rebinding
/// keeps its slot alive through the loop ops themselves (they are never
/// deleted), but a `SetVar` binding an iterator nobody reads any more
/// (after slot aliasing) goes away.
fn dead_code(prog: &mut Program) -> bool {
    let n = prog.ops.len();
    let (_, live_out) = liveness(prog, &prog.ops);
    let slot_read = slot_read_mask(prog);
    let mut dead = vec![false; n];
    let mut changed = false;
    for i in 0..n {
        let kill = match &prog.ops[i] {
            Op::Const { dst, .. }
            | Op::LoadVar { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Not { dst, .. }
            | Op::Cast { dst, .. }
            | Op::Call { dst, .. } => live_out[i] & bit(*dst) == 0,
            Op::Bin { kind, dst, .. } => bin_safe(*kind) && live_out[i] & bit(*dst) == 0,
            Op::SetVar { slot, .. } => !slot_read[*slot as usize],
            _ => false,
        };
        if kill {
            dead[i] = true;
            changed = true;
        }
    }
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
///   reduced (hoist/slot/base-only) form.
///
/// The deleted ops are replaced by the fused op at the `Store` position;
/// the preceding `Tick` stays, so fuel is untouched.
fn fuse_macs(prog: &mut Program) {
    let targets = jump_targets(&prog.ops);
    let n = prog.ops.len();
    let (_, live_out) = liveness(prog, &prog.ops);
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

/// Ops safe to sit between a `Load x` and the `BinStore` consuming `x`
/// in the `acc_left` accumulate pattern: pure, cannot error, cannot
/// tick, cannot write buffers or the frame.
fn interior_ok(prog: &Program, op: &Op, x: u32) -> bool {
    let pure = match op {
        Op::Const { .. }
        | Op::LoadVar { .. }
        | Op::Cmp { .. }
        | Op::Not { .. }
        | Op::Cast { .. } => true,
        Op::Bin { kind, .. } => bin_safe(*kind),
        // A load from a live-for-sure buffer cannot throw UnboundBuffer
        // here only if the buffer is a param; block-locals may not be
        // allocated yet on some paths, so restrict to params.
        Op::Load { access, .. } => {
            (prog.accesses[*access as usize].buf as usize) < prog.params.len()
        }
        _ => false,
    };
    pure && writes_mask(op) & bit(x) == 0 && reads_mask(prog, op) & bit(x) == 0
}

/// Peephole fusions over adjacent pairs plus the two-sided accumulate
/// (`Load x ... BinStore` on a structurally equal access → `FusedAcc`).
fn fuse_small(prog: &mut Program) {
    // Round 1: adjacent pairs.
    let mut changed = true;
    while changed {
        changed = false;
        let targets = jump_targets(&prog.ops);
        let n = prog.ops.len();
        let (_, live_out) = liveness(prog, &prog.ops);
        let mut dead = vec![false; n];
        let mut any = false;
        for i in 0..n.saturating_sub(1) {
            if dead[i] || dead[i + 1] || targets[i + 1] {
                continue;
            }
            match (&prog.ops[i], &prog.ops[i + 1]) {
                // Load; Cast (same reg) → LoadCast.
                (
                    &Op::Load { dst, access },
                    &Op::Cast {
                        dst: cd,
                        src,
                        dtype,
                        trunc,
                    },
                ) if cd == dst && src == dst => {
                    prog.ops[i + 1] = Op::LoadCast {
                        dst,
                        access,
                        dtype,
                        trunc,
                    };
                    dead[i] = true;
                    any = true;
                }
                // Bin; Store (of the result) → BinStore, provided the
                // result register dies and the store's offset does not
                // depend on it.
                (&Op::Bin { kind, dst, a, b }, &Op::Store { access, val })
                    if val == dst
                        && bin_safe(kind)
                        && live_out[i + 1] & bit(dst) == 0
                        && access_reg_mask(prog, access) & bit(dst) == 0 =>
                {
                    prog.ops[i + 1] = Op::BinStore { kind, a, b, access };
                    dead[i] = true;
                    any = true;
                }
                // Const; Store (of the constant) → StoreConst.
                (&Op::Const { dst, val: v }, &Op::Store { access, val })
                    if val == dst
                        && live_out[i + 1] & bit(dst) == 0
                        && access_reg_mask(prog, access) & bit(dst) == 0 =>
                {
                    prog.ops[i + 1] = Op::StoreConst { access, val: v };
                    dead[i] = true;
                    any = true;
                }
                _ => {}
            }
        }
        if any {
            compact(prog, &dead);
            changed = true;
        }
    }
    // Round 2: accumulate idioms around BinStore.
    fuse_accumulates(prog);
}

/// Fuses `Load x, A; [interior ops]; BinStore k, a, b, A'` (with
/// `acc_eq(A, A')` and `x` one of the operands) into `FusedAcc`. The
/// accumulator side may be the left (`a == x`, interior ops compute the
/// right operand) or the right (`b == x`, adjacent) operand.
fn fuse_accumulates(prog: &mut Program) {
    const MAX_INTERIOR: usize = 16;
    let targets = jump_targets(&prog.ops);
    let n = prog.ops.len();
    let (_, live_out) = liveness(prog, &prog.ops);
    let mut dead = vec![false; n];
    let mut changed = false;
    for end in 0..n {
        let &Op::BinStore { kind, a, b, access } = &prog.ops[end] else {
            continue;
        };
        if a == b || access_reads_reg(prog, access) {
            continue;
        }
        // `(load index, other-operand register, acc_left)`.
        let found: Option<(usize, u32, bool)> = 'search: {
            // Right form: `Load b` immediately before (interior ops would
            // evaluate before the accumulator load in the fused order,
            // so only adjacency is sound).
            if end > 0 && !dead[end - 1] && !targets[end] {
                if let &Op::Load { dst, access: lacc } = &prog.ops[end - 1] {
                    if dst == b && acc_eq(prog, lacc, access) {
                        break 'search Some((end - 1, a, false));
                    }
                }
            }
            // Left form: `Load a`, scanning back over interior ops that
            // neither touch `a` nor can error, tick, or write state.
            let mut k = end;
            while k > 0 && end - k < MAX_INTERIOR {
                k -= 1;
                if dead[k] || targets[k + 1] {
                    break;
                }
                if let &Op::Load { dst, access: lacc } = &prog.ops[k] {
                    if dst == a {
                        if acc_eq(prog, lacc, access) {
                            break 'search Some((k, b, true));
                        }
                        break;
                    }
                }
                if !interior_ok(prog, &prog.ops[k], a) {
                    break;
                }
            }
            None
        };
        let Some((load_at, src, acc_left)) = found else {
            continue;
        };
        // The fused op does not write the accumulator register, so it
        // must die at the store.
        let x = if acc_left { a } else { b };
        if live_out[end] & bit(x) != 0 {
            continue;
        }
        dead[load_at] = true;
        prog.ops[end] = Op::FusedAcc {
            kind,
            access,
            src,
            acc_left,
        };
        changed = true;
    }
    if changed {
        compact(prog, &dead);
    }
}

// ---------------------------------------------------------------------------
// Pass 7: lane batching
// ---------------------------------------------------------------------------

/// Whether any op outside `[f, e)` jumps strictly inside `(f, e)`.
fn external_jump_into(ops: &[Op], f: usize, e: usize) -> bool {
    let inside = |t: u32| {
        let t = t as usize;
        t > f && t < e
    };
    for (i, op) in ops.iter().enumerate() {
        if i >= f && i < e {
            continue;
        }
        let hit = match op {
            Op::Jump { target }
            | Op::JumpIfZero { target, .. }
            | Op::JumpIfReduceFlagFalse { target } => inside(*target),
            Op::ForSetup { end, .. } => inside(*end),
            Op::ForNext { body, .. } => inside(*body),
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

/// Matches the body `ops[s..t]` of a candidate innermost loop. Accepted
/// shapes (exactly, nothing else in the body):
///
/// * `Tick; FusedMac` — an unguarded accumulate loop;
/// * `Tick; StoreConst` — a fill loop;
/// * `ResetReduceFlag; (LoadVar; UpdateReduceFlag)+;
///    JumpIfReduceFlagFalse; Tick; StoreConst; Tick; FusedMac` — a
///   guarded reduction whose init store hits the same element as the
///   accumulator ([`acc_eq`]), the matmul/conv inner loop.
fn match_lane_body(prog: &Program, s: usize, t: usize) -> Option<(Option<LaneGuard>, LaneBody)> {
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
    if t - s < 8 || !matches!(ops[s], Op::ResetReduceFlag) {
        return None;
    }
    let mut k = s + 1;
    let mut flags: Vec<u32> = Vec::new();
    while let (Some(&Op::LoadVar { dst, slot }), Some(&Op::UpdateReduceFlag { reg })) =
        (ops.get(k), ops.get(k + 1))
    {
        if reg != dst {
            return None;
        }
        flags.push(slot);
        k += 2;
    }
    if flags.is_empty() {
        return None;
    }
    let &Op::JumpIfReduceFlagFalse { target } = ops.get(k)? else {
        return None;
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
/// ops themselves stay (they own extent latching and the back edge); the
/// body becomes one op executing up to `LANE_WIDTH_MAX` iterations per
/// dispatch.
fn batch_lanes(prog: &mut Program) {
    let n = prog.ops.len();
    let (live_in, _) = liveness(prog, &prog.ops);
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
        let Some((guard, lbody)) = match_lane_body(prog, f + 1, e - 1) else {
            continue;
        };
        if external_jump_into(&prog.ops, f, e) {
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
    use tir::{Buffer, DataType, Expr, PrimFunc, Stmt, Var};

    use super::optimize;
    use crate::compile::{compile, Op};
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

    /// `OutOfFuel` fires at the identical step count even when the
    /// boundary lands mid-batch (every fuel value from 0 to completion).
    #[test]
    fn fuel_boundary_mid_batch() {
        let f = matmul_func("mm", 2, 13, 2, DataType::float32());
        let total = run_with(&f, zeros_args(&f), ExecBackend::TreeWalk, None)
            .expect("tw")
            .steps;
        for fuel in 0..total {
            for backend in [ExecBackend::TreeWalk, ExecBackend::VmUnopt, ExecBackend::Vm] {
                let err = run_with(&f, zeros_args(&f), backend, Some(fuel)).unwrap_err();
                assert!(
                    matches!(err, ExecError::OutOfFuel),
                    "{backend:?} fuel={fuel}: {err}"
                );
            }
        }
        for backend in [ExecBackend::VmUnopt, ExecBackend::Vm] {
            let ok = run_with(&f, zeros_args(&f), backend, Some(total)).expect("exact fuel");
            assert_eq!(ok.steps, total);
        }
    }

    /// A sanitized run of an *optimized* program keeps full per-access
    /// shadow fidelity: the fused/lane-batched parallel reduction still
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
            opt.ops
                .iter()
                .any(|o| matches!(o, Op::FusedAcc { .. } | Op::MacLanes { .. })),
            "expected a fused accumulate in:\n{opt}"
        );
        let args = vec![Tensor::zeros(DataType::float32(), &[1])];
        let err = opt.run_sanitized(args.clone(), 1 << 20).unwrap_err();
        assert!(matches!(err, ExecError::DataRace(_)), "{err}");
        opt.run_with_fuel(args, 1 << 20).expect("unchecked run");
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
