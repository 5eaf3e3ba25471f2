//! Static race detection: proves accesses of every `Parallel`,
//! `Vectorized` and `ThreadBinding` loop disjoint across iterations, and
//! checks memory-scope legality across the GPU thread hierarchy.
//!
//! # Race analysis
//!
//! The analyzer collects every buffer access of the function with its
//! enclosing loop nest, composing block-iterator bindings down to loop
//! variables exactly as loop-nest validation does. For each buffer `B`
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

use tir::simplify::simplified;
use tir::visit::substituted;
use tir::{
    Buffer, Expr, ForKind, MemScope, PrimFunc, Stmt, ThreadTag, Var, VarMap, RELAXING_ANNOTATIONS,
};
use tir_arith::iter_map::{normalize, IterSplit, IterSum};

use crate::validate::ValidationError;

/// One buffer access with its full static context.
struct AccessSite {
    buffer: Buffer,
    /// Index expressions, composed down to loop variables and simplified.
    indices: Vec<Expr>,
    /// Enclosing loops, outermost first.
    loops: Vec<(Var, Option<i64>, ForKind)>,
    write: bool,
    /// Inside a block carrying a relaxing annotation.
    relaxed: bool,
    /// Innermost enclosing block name (diagnostics).
    block: String,
}

struct Collector {
    loops: Vec<(Var, Option<i64>, ForKind)>,
    bind_map: VarMap<Expr>,
    relax_depth: usize,
    blocks: Vec<String>,
    sites: Vec<AccessSite>,
}

impl Collector {
    fn record(&mut self, buffer: &Buffer, indices: &[Expr], write: bool) {
        let indices = indices
            .iter()
            .map(|i| simplified(substituted(i.clone(), &self.bind_map)))
            .collect();
        self.sites.push(AccessSite {
            buffer: buffer.clone(),
            indices,
            loops: self.loops.clone(),
            write,
            relaxed: self.relax_depth > 0,
            block: self.blocks.last().cloned().unwrap_or_default(),
        });
    }

    fn collect_expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Cast(_, v) | Expr::Not(v) => self.collect_expr(v),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.collect_expr(a);
                self.collect_expr(b);
            }
            Expr::Select { cond, then, other } => {
                self.collect_expr(cond);
                self.collect_expr(then);
                self.collect_expr(other);
            }
            Expr::Load { buffer, indices } => {
                self.record(buffer, indices, false);
                for i in indices {
                    self.collect_expr(i);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.collect_expr(a);
                }
            }
        }
    }

    fn visit(&mut self, s: &Stmt) {
        match s {
            Stmt::For(f) => {
                self.loops.push((f.var.clone(), f.extent.as_int(), f.kind));
                self.visit(&f.body);
                self.loops.pop();
            }
            Stmt::Seq(v) => {
                for st in v {
                    self.visit(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.collect_expr(cond);
                self.visit(then_branch);
                if let Some(e) = else_branch {
                    self.visit(e);
                }
            }
            Stmt::BlockRealize(br) => {
                self.collect_expr(&br.predicate);
                let composed: Vec<Expr> = br
                    .iter_values
                    .iter()
                    .map(|v| simplified(substituted(v.clone(), &self.bind_map)))
                    .collect();
                let mut saved = Vec::new();
                for (iv, value) in br.block.iter_vars.iter().zip(composed) {
                    saved.push((iv.var.clone(), self.bind_map.insert(iv.var.clone(), value)));
                }
                let relaxing = RELAXING_ANNOTATIONS
                    .iter()
                    .any(|a| br.block.annotations.contains_key(*a));
                if relaxing {
                    self.relax_depth += 1;
                }
                self.blocks.push(br.block.name.clone());
                if let Some(init) = &br.block.init {
                    self.visit(init);
                }
                self.visit(&br.block.body);
                self.blocks.pop();
                if relaxing {
                    self.relax_depth -= 1;
                }
                for (var, prev) in saved {
                    match prev {
                        Some(v) => {
                            self.bind_map.insert(var, v);
                        }
                        None => {
                            self.bind_map.remove(&var);
                        }
                    }
                }
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.record(buffer, indices, true);
                for i in indices {
                    self.collect_expr(i);
                }
                self.collect_expr(value);
            }
            Stmt::Eval(e) => self.collect_expr(e),
        }
    }
}

fn collect_sites(func: &PrimFunc) -> Vec<AccessSite> {
    let mut c = Collector {
        loops: Vec::new(),
        bind_map: VarMap::default(),
        relax_depth: 0,
        blocks: Vec::new(),
        sites: Vec::new(),
    };
    c.visit(&func.body);
    c.sites
}

/// Proves write-disjointness of every parallel loop, reporting a
/// [`ValidationError::WriteRace`] per (loop, buffer) pair the proof fails
/// on.
pub fn check_races(func: &PrimFunc) -> Vec<ValidationError> {
    let sites = collect_sites(func);
    let mut errors = Vec::new();
    // Buffers in first-access order for deterministic reporting.
    let mut buffer_order: Vec<Buffer> = Vec::new();
    for s in &sites {
        if !buffer_order.contains(&s.buffer) {
            buffer_order.push(s.buffer.clone());
        }
    }
    for buffer in &buffer_order {
        let accesses: Vec<&AccessSite> = sites.iter().filter(|s| &s.buffer == buffer).collect();
        if accesses.iter().any(|s| s.relaxed) || !accesses.iter().any(|s| s.write) {
            continue;
        }
        // Every distinct parallel loop enclosing an access to this buffer.
        let mut seen: Vec<Var> = Vec::new();
        for site in &accesses {
            for (p, extent, kind) in &site.loops {
                if !kind.is_parallel() || seen.contains(p) {
                    continue;
                }
                seen.push(p.clone());
                let under: Vec<&AccessSite> = accesses
                    .iter()
                    .filter(|s| s.loops.iter().any(|(v, _, _)| v == p))
                    .copied()
                    .collect();
                if !under.iter().any(|s| s.write) {
                    continue;
                }
                let n = match extent {
                    Some(n) => *n,
                    None => {
                        errors.push(race_error(p, buffer, site, "non-constant loop extent"));
                        continue;
                    }
                };
                if let Err(detail) = prove_disjoint(p, n, &under) {
                    errors.push(race_error(p, buffer, site, &detail));
                }
            }
        }
    }
    errors
}

fn race_error(p: &Var, buffer: &Buffer, site: &AccessSite, detail: &str) -> ValidationError {
    ValidationError::WriteRace {
        loop_var: p.name().to_string(),
        buffer: buffer.name().to_string(),
        block: site.block.clone(),
        detail: detail.to_string(),
    }
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

fn decompose(sum: &IterSum, p: &Var, inner_vars: &[Var]) -> Decomp {
    let mut d = Decomp {
        p_parts: Vec::new(),
        inner: Vec::new(),
        outer: Vec::new(),
        base: sum.base,
    };
    for t in &sum.terms {
        if &t.var == p {
            d.p_parts.push(t.clone());
        } else if inner_vars.contains(&t.var) {
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

/// Tries to prove that no two distinct iterations of `p` (extent `n`)
/// touch a common element through the given access sites. Returns a short
/// failure description on the first unprovable pair.
fn prove_disjoint(p: &Var, n: i64, sites: &[&AccessSite]) -> Result<(), String> {
    if n <= 1 {
        return Ok(());
    }
    // Normalize every index of every site once.
    let mut decomps: Vec<Vec<Decomp>> = Vec::with_capacity(sites.len());
    for site in sites {
        let pos = site
            .loops
            .iter()
            .position(|(v, _, _)| v == p)
            .expect("p encloses site");
        let inner_vars: Vec<Var> = site.loops[pos + 1..]
            .iter()
            .map(|(v, _, _)| v.clone())
            .collect();
        let mut dom: VarMap<i64> = VarMap::default();
        for (v, e, _) in &site.loops {
            let Some(e) = e else {
                return Err(format!("non-constant extent of loop {}", v.name()));
            };
            dom.insert(v.clone(), *e);
        }
        let mut per_dim = Vec::with_capacity(site.indices.len());
        for idx in &site.indices {
            match normalize(idx, &dom) {
                Ok(sum) => per_dim.push(decompose(&sum, p, &inner_vars)),
                Err(e) => {
                    return Err(format!(
                        "index {idx} of buffer {} is not quasi-affine: {e}",
                        site.buffer.name()
                    ))
                }
            }
        }
        decomps.push(per_dim);
    }
    // Pairwise disjointness, self-pairs included (two iterations execute
    // the same site with independent inner-loop values).
    for (i, s) in sites.iter().enumerate() {
        for (j, t) in sites.iter().enumerate() {
            if j < i || (!s.write && !t.write) {
                continue;
            }
            pair_disjoint(p, n, &decomps[i], &decomps[j])
                .map_err(|d| format!("accesses in blocks {:?} and {:?} {d}", s.block, t.block))?;
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
    let sites = collect_sites(func);
    let mut errors = Vec::new();
    let mut buffer_order: Vec<Buffer> = Vec::new();
    for s in &sites {
        if !buffer_order.contains(&s.buffer) {
            buffer_order.push(s.buffer.clone());
        }
    }
    for buffer in &buffer_order {
        let scope = buffer.scope().clone();
        let check_threads = match scope {
            MemScope::Global | MemScope::Custom(_) => continue,
            MemScope::Shared => false,
            _ => true,
        };
        let accesses: Vec<&AccessSite> = sites.iter().filter(|s| &s.buffer == buffer).collect();
        // Rule 1: one consistent thread nest for every access.
        let nest_of = |site: &AccessSite| -> Vec<Var> {
            site.loops
                .iter()
                .filter(|(_, _, k)| match k {
                    ForKind::ThreadBinding(tag) => {
                        tag.is_block_idx() || (check_threads && tag.is_thread_idx())
                    }
                    _ => false,
                })
                .map(|(v, _, _)| v.clone())
                .collect()
        };
        let first_nest = nest_of(accesses[0]);
        for site in &accesses[1..] {
            if nest_of(site) != first_nest {
                errors.push(ValidationError::ScopeViolation {
                    buffer: buffer.name().to_string(),
                    scope: scope.as_str().to_string(),
                    detail: format!(
                        "accessed across {} boundaries (blocks {:?} and {:?} run under \
                         different thread nests)",
                        if check_threads { "thread" } else { "blockIdx" },
                        accesses[0].block,
                        site.block
                    ),
                });
                break;
            }
        }
        // Rule 2: cooperative shared writes must cover the declared group.
        if scope != MemScope::Shared {
            continue;
        }
        for site in accesses.iter().filter(|s| s.write) {
            let Some(claimed) = cooperative_claim(func, &site.block) else {
                continue;
            };
            let mut product = 1i64;
            let mut has_tx = false;
            for (_, e, k) in &site.loops {
                if let ForKind::ThreadBinding(tag) = k {
                    if tag.is_thread_idx() {
                        product *= e.unwrap_or(1);
                        has_tx |= *tag == ThreadTag::ThreadIdxX;
                    }
                }
            }
            let ok = claimed == product || (!has_tx && claimed == product * 32);
            if !ok {
                errors.push(ValidationError::ScopeViolation {
                    buffer: buffer.name().to_string(),
                    scope: scope.as_str().to_string(),
                    detail: format!(
                        "block {:?} declares a cooperative group of {claimed} threads but \
                         its loop nest provides {product}",
                        site.block
                    ),
                });
            }
        }
    }
    errors
}

/// The `tir.cooperative` thread count declared by the named block, if any.
fn cooperative_claim(func: &PrimFunc, block: &str) -> Option<i64> {
    let br = tir::visit::find_block(&func.body, block)?;
    match br.block.annotations.get("tir.cooperative") {
        Some(tir::AnnValue::Int(v)) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::{DataType, IterVar};

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
}
