//! Static race detection: proves accesses of every `Parallel`,
//! `Vectorized` and `ThreadBinding` loop disjoint across iterations, and
//! checks memory-scope legality across the GPU thread hierarchy.
//!
//! # Race analysis
//!
//! The walk of the crate (`walk.rs`) records every buffer access of the
//! function as a `Site`: its indices as written, the frame of the block it
//! stands in (which names every binding around it), its innermost loop
//! (which names its whole nest — a site holds no copy of either) and the
//! block itself. Both analyses here read those sites after the walk;
//! neither descends the program. The race proof composes a site's indices
//! down to loop variables, through the very bindings loop-nest validation
//! composed, and normalizes them only when a proof first reads the site
//! (relaxed and read-only buffers, and sites under no parallel loop, are
//! never read), then reuses them for every parallel loop around it. For
//! each buffer `B`
//! written under a parallel loop `p` (extent `n`), it must prove that no
//! two iterations of `p` touch a common element of `B` with at least one
//! write — otherwise a [`ValidationError::WriteRace`] is reported.
//!
//! The proof works on the quasi-affine normal form of each index
//! ([`tir_arith::iter_map::normalize`]): an index dimension is a sum of
//! *splits* `((v // lf) % ext) * scale` plus a base. For an (ordered) pair
//! of access sites `s, t` compared at two iterations `a ≠ b` of `p`:
//!
//! * splits of loops **outside** `p` take equal values in both iterations —
//!   structurally equal pieces cancel, leftovers contribute an interval;
//! * splits of loops **inside** `p` are independent between the two
//!   iterations and contribute their full interval in both directions;
//! * splits of `p` itself must be structurally identical in `s` and `t` for
//!   the dimension to *separate*: they then form a compact positional chain
//!   whose minimum scale `s_min` bounds the difference of any two distinct
//!   digit values from below. If `s_min` exceeds the total wobble of the
//!   non-`p` terms, iterations differing in the chain's digits provably
//!   touch different elements along this dimension.
//!
//! The pair is disjoint when the digit intervals of `p` covered by
//! separating dimensions tile `p`'s whole digit space `[1, n)` (overlap
//! allowed): any two distinct iterations then differ in some covered digit.
//! A reduction block whose update does not consume `p` has no separating
//! dimension, so the classic parallel-reduction race falls out of the same
//! proof.
//!
//! Accesses inside blocks annotated `tir.atomic` (atomic reduction),
//! `tir.cooperative` / `tir.copy` (idempotent replicated copies),
//! `tir.exec_scope` (tensorized intrinsics with group semantics) or
//! `tir.opaque` relax the analysis: every buffer such a block touches is
//! exempt from the race proof, mirroring the paper's §3.1 atomicity
//! escape hatch. The dynamic sanitizer in `tir-exec` applies the same
//! exemption, which is what makes the two comparable in the differential
//! oracle.
//!
//! # Scope analysis
//!
//! [`check_scopes`] enforces two placement rules on scoped buffers:
//!
//! * a `shared` buffer must not be accessed across `blockIdx` axes — every
//!   access must sit under the same set of `blockIdx`-bound loops (shared
//!   memory is per-thread-block; producing it in one grid nest and
//!   consuming it in another communicates across blocks);
//! * `local`/`warp`/fragment buffers are private to a (warp of) thread(s)
//!   and must additionally sit under one consistent set of `threadIdx`
//!   loops.
//!
//! Cooperative writes (`tir.cooperative`, whose integer value declares the
//! cooperating thread count) to a shared buffer must have their loop nest
//! cover the declared group: the annotation value must equal the product
//! of enclosing `threadIdx` extents, or 32x that product when no
//! `threadIdx.x` binding is in scope (implicit warp lanes, as in
//! pre-lowering Tensor Core programs).

use std::cell::OnceCell;

use tir::{Block, Buffer, Expr, ForKind, MemScope, PrimFunc, ThreadTag, Var, VarMap};
use tir_arith::iter_map::{normalize, IterSplit, IterSum};

use crate::validate::ValidationError;
use crate::walk::{self, name_of, Check, Loop, Scope};

/// One buffer access with its static context, as the walk recorded it.
pub(crate) struct Site<'a> {
    pub(crate) buffer: &'a Buffer,
    /// Index expressions, as written: the race proof composes them down to
    /// loop variables only when it reads the site ([`sums`]).
    pub(crate) indices: &'a [Expr],
    /// The frame of the innermost enclosing block, through which the
    /// indices are composed when the race proof runs
    /// ([`crate::walk::Scope::composed_in`]).
    pub(crate) frame: Option<usize>,
    /// The indices composed, simplified and normalized, or why they cannot
    /// be: filled the first time a proof reads the site ([`sums`]).
    pub(crate) sums: OnceCell<Result<Vec<IterSum>, String>>,
    /// The innermost enclosing loop, which names the whole nest
    /// ([`crate::walk::Scope::nests`]).
    pub(crate) innermost: Option<usize>,
    pub(crate) write: bool,
    /// Inside a block carrying a relaxing annotation.
    pub(crate) relaxed: bool,
    /// The innermost enclosing block.
    pub(crate) block: Option<&'a Block>,
}

/// An access site with its enclosing loops, outermost first.
type Nested<'s, 'a> = (&'s Site<'a>, &'s [Loop<'a>]);

/// The sites grouped by buffer, buffers in first-access order (which is
/// the order diagnostics come in), each site beside the nest of its
/// innermost loop (`nests` is [`crate::walk::Scope::nests`]).
fn by_buffer<'s, 'a>(
    nests: &'s [Vec<Loop<'a>>],
    sites: &'s [Site<'a>],
) -> Vec<(&'a Buffer, Vec<Nested<'s, 'a>>)> {
    let mut groups: Vec<(&Buffer, Vec<Nested>)> = Vec::new();
    for site in sites {
        let nested = (site, site.innermost.map_or(&[][..], |at| &nests[at][..]));
        match groups.iter_mut().find(|(b, _)| *b == site.buffer) {
            Some((_, group)) => group.push(nested),
            None => groups.push((site.buffer, vec![nested])),
        }
    }
    groups
}

/// Proves write-disjointness of every parallel loop, reporting a
/// [`ValidationError::WriteRace`] per (loop, buffer) pair the proof fails
/// on.
pub fn check_races(func: &PrimFunc) -> Vec<ValidationError> {
    walk::run(func, &[Check::Races])
}

/// The race proof over the sites of one walk.
pub(crate) fn races(scope: &Scope, nests: &[Vec<Loop>], sites: &[Site]) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    for (buffer, accesses) in by_buffer(nests, sites) {
        if accesses.iter().any(|(s, _)| s.relaxed) || !accesses.iter().any(|(s, _)| s.write) {
            continue;
        }
        // Every distinct parallel loop enclosing an access to this buffer.
        let mut seen: Vec<&Var> = Vec::new();
        for (site, nest) in &accesses {
            for (p, extent, kind) in *nest {
                if !kind.is_parallel() || seen.contains(p) {
                    continue;
                }
                seen.push(p);
                let under: Vec<&Nested> = accesses
                    .iter()
                    .filter(|(_, nest)| nest.iter().any(|(v, _, _)| v == p))
                    .collect();
                if !under.iter().any(|(s, _)| s.write) {
                    continue;
                }
                let proof = match extent {
                    Some(n) => prove_disjoint(scope, p, *n, &under),
                    None => Err("non-constant loop extent".to_string()),
                };
                if let Err(detail) = proof {
                    errors.push(ValidationError::WriteRace {
                        loop_var: p.name().to_string(),
                        buffer: buffer.name().to_string(),
                        block: name_of(site.block).to_string(),
                        detail,
                    });
                }
            }
        }
    }
    errors
}

/// An access site's index, decomposed relative to a parallel loop `p`.
struct Decomp {
    /// Splits of `p`, sorted by `lower_factor`.
    p_parts: Vec<IterSplit>,
    /// Splits of loops nested inside `p` (independent across iterations).
    inner: Vec<IterSplit>,
    /// Splits of loops outside `p` (shared across iterations).
    outer: Vec<IterSplit>,
    base: i64,
}

/// Decomposes `sum` relative to `p`, whose nested loops are `inner`.
fn decompose(sum: &IterSum, p: &Var, inner: &[Loop]) -> Decomp {
    let mut d = Decomp {
        p_parts: Vec::new(),
        inner: Vec::new(),
        outer: Vec::new(),
        base: sum.base,
    };
    for t in &sum.terms {
        if &t.var == p {
            d.p_parts.push(t.clone());
        } else if inner.iter().any(|(v, _, _)| **v == t.var) {
            d.inner.push(t.clone());
        } else {
            d.outer.push(t.clone());
        }
    }
    d.p_parts.sort_by_key(|t| t.lower_factor);
    d
}

/// Interval of `((v // lf) % ext) * scale` over the variable's range.
fn split_range(t: &IterSplit) -> (i64, i64) {
    let reach = t.scale * (t.extent - 1);
    (reach.min(0), reach.max(0))
}

fn same_split(a: &IterSplit, b: &IterSplit) -> bool {
    a.var == b.var && a.lower_factor == b.lower_factor && a.extent == b.extent && a.scale == b.scale
}

/// The normal forms of a site's indices, composed down to loop variables
/// through the bindings around it: built the first time a proof asks, then
/// read by the proof of every parallel loop around the site. The error is
/// the proof's failure description.
fn sums<'s>(scope: &Scope, (site, nest): &Nested<'s, '_>) -> &'s Result<Vec<IterSum>, String> {
    site.sums.get_or_init(|| {
        let mut dom: VarMap<i64> = VarMap::default();
        for (v, e, _) in *nest {
            let Some(e) = e else {
                return Err(format!("non-constant extent of loop {}", v.name()));
            };
            dom.insert((*v).clone(), *e);
        }
        let sum = |idx: &Expr| {
            let composed = scope.composed_in(site.frame, idx);
            let idx = composed.as_ref().unwrap_or(idx);
            normalize(idx, &dom).map_err(|e| {
                let buffer = site.buffer.name();
                format!("index {idx} of buffer {buffer} is not quasi-affine: {e}")
            })
        };
        site.indices.iter().map(sum).collect()
    })
}

/// Tries to prove that no two distinct iterations of `p` (extent `n`)
/// touch a common element through the given access sites. Returns a short
/// failure description on the first unprovable pair.
fn prove_disjoint(scope: &Scope, p: &Var, n: i64, sites: &[&Nested]) -> Result<(), String> {
    if n <= 1 {
        return Ok(());
    }
    let mut decomps: Vec<Vec<Decomp>> = Vec::with_capacity(sites.len());
    for nested in sites {
        let nest = nested.1;
        let pos = (nest.iter().position(|(v, _, _)| *v == p)).expect("p encloses site");
        let sums = sums(scope, nested).as_ref().map_err(String::clone)?;
        decomps.push(
            sums.iter()
                .map(|sum| decompose(sum, p, &nest[pos + 1..]))
                .collect(),
        );
    }
    // Pairwise disjointness, self-pairs included (two iterations execute
    // the same site with independent inner-loop values).
    for (i, (s, _)) in sites.iter().enumerate() {
        for (j, (t, _)) in sites.iter().enumerate() {
            if j < i || (!s.write && !t.write) {
                continue;
            }
            pair_disjoint(p, n, &decomps[i], &decomps[j]).map_err(|d| {
                let (s, t) = (name_of(s.block), name_of(t.block));
                format!("accesses in blocks {s:?} and {t:?} {d}")
            })?;
        }
    }
    Ok(())
}

/// Checks one (site, site) pair: separating dimensions must jointly cover
/// the digit space `[1, n)` of `p`.
fn pair_disjoint(p: &Var, n: i64, s: &[Decomp], t: &[Decomp]) -> Result<(), String> {
    if s.len() != t.len() {
        // Rank mismatch cannot happen for the same buffer; be safe.
        return Err("have mismatched ranks".to_string());
    }
    let mut covered: Vec<(i64, i64)> = Vec::new();
    for (ds, dt) in s.iter().zip(t) {
        if ds.p_parts.is_empty()
            || ds.p_parts.len() != dt.p_parts.len()
            || !ds
                .p_parts
                .iter()
                .zip(&dt.p_parts)
                .all(|(a, b)| same_split(a, b))
        {
            continue;
        }
        // The p-chain must be compact with uniformly signed scales so the
        // minimum nonzero difference between digit values is min |scale|.
        let negate = ds.p_parts.iter().all(|t| t.scale < 0);
        let chain = IterSum {
            terms: ds
                .p_parts
                .iter()
                .map(|t| IterSplit {
                    scale: if negate { -t.scale } else { t.scale },
                    ..t.clone()
                })
                .collect(),
            base: 0,
        };
        let Some(sorted) = chain.sorted_compact() else {
            continue;
        };
        let s_min = sorted.last().expect("nonempty").scale;
        // Wobble of everything that is not the p-chain: inner splits of
        // both sites range independently; structurally equal outer splits
        // cancel; leftover outer splits contribute conservatively.
        let (mut lo, mut hi) = (ds.base - dt.base, ds.base - dt.base);
        for part in &ds.inner {
            let (l, h) = split_range(part);
            lo += l;
            hi += h;
        }
        for part in &dt.inner {
            let (l, h) = split_range(part);
            lo -= h;
            hi -= l;
        }
        let mut t_outer: Vec<&IterSplit> = dt.outer.iter().collect();
        for part in &ds.outer {
            if let Some(k) = t_outer.iter().position(|o| same_split(o, part)) {
                t_outer.remove(k);
            } else {
                let (l, h) = split_range(part);
                lo += l;
                hi += h;
            }
        }
        for part in t_outer {
            let (l, h) = split_range(part);
            lo -= h;
            hi -= l;
        }
        if s_min > hi.max(-lo) {
            for part in &sorted {
                covered.push((part.lower_factor, part.lower_factor * part.extent));
            }
        }
    }
    covered.sort_unstable();
    let mut reach = 1i64;
    for (lf, hi) in covered {
        if lf > reach {
            break;
        }
        reach = reach.max(hi);
    }
    if reach >= n {
        Ok(())
    } else {
        Err(format!(
            "may overlap: iterations of {} separated only up to digit {reach} of {n}",
            p.name()
        ))
    }
}

/// Checks memory-scope legality of every scoped buffer.
pub fn check_scopes(func: &PrimFunc) -> Vec<ValidationError> {
    walk::run(func, &[Check::Scopes])
}

/// The scope rules over the sites of one walk.
pub(crate) fn scopes(nests: &[Vec<Loop>], sites: &[Site]) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    for (buffer, accesses) in by_buffer(nests, sites) {
        let scope = buffer.scope();
        let check_threads = match scope {
            MemScope::Global | MemScope::Custom(_) => continue,
            MemScope::Shared => false,
            _ => true,
        };
        let violation = |detail: String| ValidationError::ScopeViolation {
            buffer: buffer.name().to_string(),
            scope: scope.as_str().to_string(),
            detail,
        };
        // Rule 1: one consistent thread nest for every access.
        let thread_nest = |nest: &[Loop]| -> Vec<Var> {
            nest.iter()
                .filter(|(_, _, k)| match k {
                    ForKind::ThreadBinding(tag) => {
                        tag.is_block_idx() || (check_threads && tag.is_thread_idx())
                    }
                    _ => false,
                })
                .map(|(v, _, _)| (*v).clone())
                .collect()
        };
        let (first, first_nest) = (accesses[0].0, thread_nest(accesses[0].1));
        if let Some((site, _)) = (accesses[1..].iter()).find(|(_, n)| thread_nest(n) != first_nest)
        {
            errors.push(violation(format!(
                "accessed across {} boundaries (blocks {:?} and {:?} run under \
                 different thread nests)",
                if check_threads { "thread" } else { "blockIdx" },
                name_of(first.block),
                name_of(site.block)
            )));
        }
        // Rule 2: cooperative shared writes must cover the declared group.
        // The claim is read off the block the write stands in.
        if *scope != MemScope::Shared {
            continue;
        }
        for (site, nest) in accesses.iter().filter(|(s, _)| s.write) {
            let claim = site
                .block
                .and_then(|b| b.annotations.get("tir.cooperative"));
            let Some(tir::AnnValue::Int(claimed)) = claim else {
                continue;
            };
            let mut product = 1i64;
            let mut has_tx = false;
            for (_, e, k) in *nest {
                if let ForKind::ThreadBinding(tag) = k {
                    if tag.is_thread_idx() {
                        product *= e.unwrap_or(1);
                        has_tx |= *tag == ThreadTag::ThreadIdxX;
                    }
                }
            }
            let ok = *claimed == product || (!has_tx && *claimed == product * 32);
            if !ok {
                errors.push(violation(format!(
                    "block {:?} declares a cooperative group of {claimed} threads but \
                     its loop nest provides {product}",
                    name_of(site.block)
                )));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{DataType, IterVar, Stmt};

    fn store_loop(kind: ForKind, shift: i64) -> PrimFunc {
        let out = Buffer::new("O", DataType::float32(), vec![17]);
        let i = Var::int("i");
        let body = Stmt::store(out.clone(), vec![Expr::from(&i) + shift], Expr::f32(0.0));
        let f = Stmt::For(Box::new(tir::For::with_kind(i, 16, kind, body)));
        PrimFunc::new("f", vec![out], f)
    }

    #[test]
    fn disjoint_parallel_store_accepted() {
        assert!(check_races(&store_loop(ForKind::Parallel, 0)).is_empty());
        assert!(check_races(&store_loop(ForKind::Vectorized, 1)).is_empty());
    }

    #[test]
    fn parallel_reduction_race_flagged() {
        // parallel i: O[0] += 1 — all iterations write one cell.
        let out = Buffer::new("O", DataType::float32(), vec![1]);
        let i = Var::int("i");
        let body = Stmt::store(
            out.clone(),
            vec![Expr::int(0)],
            out.load(vec![Expr::int(0)]) + Expr::f32(1.0),
        );
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::For(Box::new(tir::For::with_kind(i, 8, ForKind::Parallel, body))),
        );
        let errors = check_races(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::WriteRace { .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn read_write_shift_race_flagged() {
        // parallel i: O[i] = O[i + 1] — neighbour communication races.
        let out = Buffer::new("O", DataType::float32(), vec![17]);
        let i = Var::int("i");
        let body = Stmt::store(
            out.clone(),
            vec![Expr::from(&i)],
            out.load(vec![Expr::from(&i) + 1]),
        );
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::For(Box::new(tir::For::with_kind(
                i,
                16,
                ForKind::Parallel,
                body,
            ))),
        );
        let errors = check_races(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::WriteRace { .. })),
            "{errors:?}"
        );
    }

    #[test]
    fn serial_matmul_race_free() {
        let f = matmul_func("mm", 16, 16, 16, DataType::float32());
        assert!(check_races(&f).is_empty());
    }

    #[test]
    fn split_parallel_outer_accepted() {
        // parallel io: for ii: O[io * 4 + ii] — iterations own 4-wide
        // stripes.
        let out = Buffer::new("O", DataType::float32(), vec![64]);
        let (io, ii) = (Var::int("io"), Var::int("ii"));
        let body = Stmt::store(
            out.clone(),
            vec![Expr::from(&io) * 4 + Expr::from(&ii)],
            Expr::f32(0.0),
        )
        .in_loop(ii, 4);
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::For(Box::new(tir::For::with_kind(
                io,
                16,
                ForKind::Parallel,
                body,
            ))),
        );
        assert!(check_races(&f).is_empty(), "{:?}", check_races(&f));
    }

    #[test]
    fn overlapping_stripes_flagged() {
        // parallel io: for ii in 0..5: O[io * 4 + ii] — stripes overlap.
        let out = Buffer::new("O", DataType::float32(), vec![69]);
        let (io, ii) = (Var::int("io"), Var::int("ii"));
        let body = Stmt::store(
            out.clone(),
            vec![Expr::from(&io) * 4 + Expr::from(&ii)],
            Expr::f32(0.0),
        )
        .in_loop(ii, 5);
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::For(Box::new(tir::For::with_kind(
                io,
                16,
                ForKind::Parallel,
                body,
            ))),
        );
        let errors = check_races(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::WriteRace { .. })),
            "{errors:?}"
        );
    }

    /// Under `parallel io (4)`, `parallel j (8)` and `for ii (4)`, block
    /// `outer` binds `v = io * 4 + ii, w = j`, and block `inner` inside it
    /// binds `v` again, to `v // 2`, and `u = w`. `inner` stores
    /// `O[v] = A[v * u]` and `P[v * u]`, and an atomic block inside it adds
    /// to `R[v * u]`. With `inlined`, the same blocks bind the same values,
    /// but the accesses name the loops: `v` and `u` written out by hand.
    fn shadowed_two_blocks_deep(inlined: bool) -> PrimFunc {
        let f32_ = DataType::float32();
        let o = Buffer::new("O", f32_, vec![8]);
        let (a, p, r) = (
            Buffer::new("A", f32_, vec![64]),
            Buffer::new("P", f32_, vec![64]),
            Buffer::new("R", f32_, vec![64]),
        );
        let (io, j, ii) = (Var::int("io"), Var::int("j"), Var::int("ii"));
        let (v, w, u) = (Var::int("v"), Var::int("w"), Var::int("u"));
        let outer_v = Expr::from(&io) * 4 + Expr::from(&ii);
        let (v_at, u_at) = if inlined {
            (outer_v.clone().floor_div(2), Expr::from(&j))
        } else {
            (Expr::from(&v), Expr::from(&u))
        };
        let product = v_at.clone() * u_at;
        let atomic = {
            let add = r.load(vec![product.clone()]) + Expr::f32(1.0);
            let body = Stmt::store(r.clone(), vec![product.clone()], add);
            let mut block = tir::Block::new("acc", vec![], vec![], vec![r.full_region()], body);
            block
                .annotations
                .insert("tir.atomic".into(), tir::AnnValue::Int(1));
            Stmt::BlockRealize(Box::new(tir::BlockRealize::new(vec![], block)))
        };
        let body = Stmt::seq(vec![
            Stmt::store(o.clone(), vec![v_at], a.load(vec![product.clone()])),
            Stmt::store(p.clone(), vec![product], Expr::f32(0.0)),
            atomic,
        ]);
        let inner_iters = vec![IterVar::spatial(v.clone(), 8), IterVar::spatial(u, 8)];
        let inner = tir::Block::new("inner", inner_iters, vec![], vec![], body);
        let inner_values = vec![Expr::from(&v).floor_div(2), Expr::from(&w)];
        let inner = Stmt::BlockRealize(Box::new(tir::BlockRealize::new(inner_values, inner)));
        let outer_iters = vec![IterVar::spatial(v, 16), IterVar::spatial(w, 8)];
        let outer = tir::Block::new("outer", outer_iters, vec![], vec![], inner);
        let outer_values = vec![outer_v, Expr::from(&j)];
        let outer = Stmt::BlockRealize(Box::new(tir::BlockRealize::new(outer_values, outer)));
        let nest = outer.in_loop(ii, 4);
        let nest = Stmt::For(Box::new(tir::For::with_kind(j, 8, ForKind::Parallel, nest)));
        let nest = Stmt::For(Box::new(tir::For::with_kind(
            io,
            4,
            ForKind::Parallel,
            nest,
        )));
        PrimFunc::new("f", vec![o, a, p, r], nest)
    }

    #[test]
    fn indices_are_composed_as_the_bindings_read_when_they_were_recorded() {
        let errors = check_races(&shadowed_two_blocks_deep(false));
        assert_eq!(errors, check_races(&shadowed_two_blocks_deep(true)));
        // `O` races on `j`, which its index does not read, and `P`'s index
        // is not quasi-affine, a failure the proofs of both loops report.
        // The read-only `A` and the relaxed `R` report nothing.
        let races: Vec<(&str, &str, &str)> = (errors.iter())
            .map(|e| match e {
                ValidationError::WriteRace {
                    loop_var,
                    buffer,
                    block,
                    ..
                } => (loop_var.as_str(), buffer.as_str(), block.as_str()),
                other => panic!("{other:?}"),
            })
            .collect();
        let expected = [
            ("j", "O", "inner"),
            ("io", "P", "inner"),
            ("j", "P", "inner"),
        ];
        assert_eq!(races, expected, "{errors:?}");
        let [_, ValidationError::WriteRace { detail, .. }, _] = &errors[..] else {
            unreachable!()
        };
        assert!(detail.contains("is not quasi-affine"), "{detail}");
    }

    #[test]
    fn atomic_annotation_relaxes() {
        let out = Buffer::new("O", DataType::float32(), vec![1]);
        let (i, vk) = (Var::int("i"), Var::int("vk"));
        let body = Stmt::store(
            out.clone(),
            vec![Expr::int(0)],
            out.load(vec![Expr::int(0)]) + Expr::f32(1.0),
        );
        let mut block = tir::Block::new(
            "b",
            vec![IterVar::reduce(vk, 8)],
            vec![out.full_region()],
            vec![out.full_region()],
            body,
        );
        block
            .annotations
            .insert("tir.atomic".into(), tir::AnnValue::Int(1));
        let realize = tir::BlockRealize::new(vec![Expr::from(&i)], block);
        let f = PrimFunc::new(
            "f",
            vec![out],
            Stmt::For(Box::new(tir::For::with_kind(
                i,
                8,
                ForKind::Parallel,
                Stmt::BlockRealize(Box::new(realize)),
            ))),
        );
        assert!(check_races(&f).is_empty(), "{:?}", check_races(&f));
    }

    #[test]
    fn shared_across_block_idx_flagged() {
        // S written under one blockIdx loop and read outside it.
        let s = Buffer::with_scope("S", DataType::float32(), vec![8], MemScope::Shared);
        let o = Buffer::new("O", DataType::float32(), vec![8]);
        let (b, i) = (Var::int("b"), Var::int("i"));
        let write = Stmt::store(s.clone(), vec![Expr::from(&b)], Expr::f32(1.0));
        let write_loop = Stmt::For(Box::new(tir::For::with_kind(
            b,
            8,
            ForKind::ThreadBinding(ThreadTag::BlockIdxX),
            write,
        )));
        let read = Stmt::store(
            o.clone(),
            vec![Expr::from(&i)],
            s.load(vec![Expr::from(&i)]),
        )
        .in_loop(i, 8);
        let mut f = PrimFunc::new("f", vec![o], Stmt::seq(vec![write_loop, read]));
        f.root_block_mut().expect("root").alloc_buffers.push(s);
        let errors = check_scopes(&f);
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ValidationError::ScopeViolation { .. })),
            "{errors:?}"
        );
    }

    /// Two blocks share the name `S_copy`, each under its own `threadIdx.x`
    /// loop (of 8 and of 32 threads), and one of them claims a cooperative
    /// group. The claim must be read off the block the write stands in, not
    /// off the first block of that name.
    fn two_copies_named_alike(first_claims: Option<i64>, second_claims: Option<i64>) -> PrimFunc {
        let s = Buffer::with_scope("S", DataType::float32(), vec![8], MemScope::Shared);
        let copy = |threads: i64, claim: Option<i64>| {
            let (t, ax, v) = (Var::int("t"), Var::int("ax"), Var::int("v"));
            let body = Stmt::store(s.clone(), vec![Expr::from(&v)], Expr::f32(0.0));
            let iters = vec![IterVar::spatial(v, 8)];
            let mut block = tir::Block::new("S_copy", iters, vec![], vec![s.full_region()], body);
            if let Some(claim) = claim {
                let claim = tir::AnnValue::Int(claim);
                block.annotations.insert("tir.cooperative".into(), claim);
            }
            let realize = tir::BlockRealize::new(vec![Expr::from(&ax)], block);
            let inner = Stmt::BlockRealize(Box::new(realize)).in_loop(ax, 8);
            let kind = ForKind::ThreadBinding(ThreadTag::ThreadIdxX);
            Stmt::For(Box::new(tir::For::with_kind(t, threads, kind, inner)))
        };
        let body = Stmt::seq(vec![copy(8, first_claims), copy(32, second_claims)]);
        let mut f = PrimFunc::new("f", vec![], body);
        f.root_block_mut().expect("root").alloc_buffers.push(s);
        f
    }

    #[test]
    fn cooperative_claim_is_read_off_the_enclosing_block() {
        // Only the second block claims, and claims too much.
        let errors = check_scopes(&two_copies_named_alike(None, Some(64)));
        let [ValidationError::ScopeViolation { detail, .. }] = &errors[..] else {
            panic!("one violation, of the second block: {errors:?}");
        };
        assert!(detail.contains("64 threads") && detail.contains("provides 32"));
        // Only the first claims, rightly: its claim is not the second's.
        let errors = check_scopes(&two_copies_named_alike(Some(8), None));
        assert!(errors.is_empty(), "{errors:?}");
    }
}
