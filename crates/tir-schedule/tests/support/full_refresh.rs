//! The signature refresh as it was before `cache_read`/`cache_write`
//! narrowed it to the two buffers a redirect touches: after any redirect,
//! recompute *every* buffer region of *every* non-leaf block from its
//! body. Kept, with the region relaxation it ran on, only as the oracle the
//! narrowed routine (`refresh_nested_signatures` in
//! `src/compute_location.rs`) is compared against — by `tir-schedule`'s
//! unit tests after every redirect they perform, and by
//! `tir-autoschedule/tests/sketch_apply_golden.rs` on every program of the
//! golden corpus. Written against the public `tir`/`tir-arith` API so both
//! can include it with `#[path]`.

use tir::simplify::simplified;
use tir::visit::{expr_any_var, substituted};
use tir::{Buffer, Expr, RangeExpr, Stmt, Var, VarMap};
use tir_arith::bound::{bound_of, IntBound};

/// The region of `buffer` accessed by block realizes inside `stmt`,
/// expressed in terms of variables *not* bound inside `stmt`: block
/// signature regions are instantiated with their binding values, then all
/// loop variables bound within `stmt` are relaxed away (symbolic min at
/// zero, constant extent from interval analysis).
fn required_region(
    stmt: &Stmt,
    buffer: &Buffer,
    reads: bool,
    writes: bool,
) -> Option<Vec<RangeExpr>> {
    /// The walk's state: the requirement gathered so far, and three views
    /// of the loops entered inside `stmt`, kept up to date on the way down
    /// and up instead of being rebuilt for every region dimension.
    struct Relaxer<'a> {
        buffer: &'a Buffer,
        reads: bool,
        writes: bool,
        mins: Vec<Option<Expr>>,
        extents: Vec<i64>,
        any: bool,
        /// Inner loop variable → `0`.
        zero_map: VarMap<Expr>,
        /// Inner loop variable → `[0, extent)`.
        env: VarMap<IntBound>,
        /// Inner loop variable → `[0, 0]`.
        env0: VarMap<IntBound>,
        /// Scratch: the outer variables `relax` pins for one dimension.
        outer: Vec<Var>,
    }
    impl Relaxer<'_> {
        fn relax(&mut self, region: &[RangeExpr], subst: &VarMap<&Expr>) {
            let shape = self.buffer.shape();
            for (d, r) in region.iter().enumerate() {
                let min = simplified(substituted(r.min.clone(), subst));
                let extent_c = r.extent.as_int().unwrap_or(shape[d]);
                let min_zeroed = simplified(substituted(min.clone(), &self.zero_map));
                // Width contributed by inner vars in the min expression:
                // bound it with the outer variables pinned to zero, against
                // its value with every variable at zero.
                expr_any_var(&min, &mut |v| {
                    if !self.env.contains_key(v) {
                        self.env.insert(v.clone(), IntBound::single(0));
                        self.env0.insert(v.clone(), IntBound::single(0));
                        self.outer.push(v.clone());
                    }
                    false // visit every occurrence
                });
                let full = bound_of(&min, &self.env);
                let at_zero = bound_of(&min, &self.env0);
                for v in self.outer.drain(..) {
                    self.env.remove(&v);
                    self.env0.remove(&v);
                }
                if full.min < at_zero.min {
                    // Negative coefficient on an inner variable (e.g. a flipped
                    // convolution kernel): zeroing the inner vars does not give
                    // the region minimum, so fall back to the full dimension.
                    self.mins[d] = Some(Expr::int(0));
                    self.extents[d] = shape[d];
                    self.any = true;
                    continue;
                }
                let width = (full.max - at_zero.max) + extent_c;
                match &mut self.mins[d] {
                    Some(existing) if *existing == min_zeroed => {
                        self.extents[d] = self.extents[d].max(width);
                    }
                    Some(_) => {
                        self.mins[d] = Some(Expr::int(0));
                        self.extents[d] = shape[d];
                    }
                    None => {
                        self.mins[d] = Some(min_zeroed);
                        self.extents[d] = width;
                    }
                }
            }
            self.any = true;
        }

        fn walk(&mut self, s: &Stmt) {
            match s {
                Stmt::For(f) => {
                    let extent = f.extent.as_int().unwrap_or(1);
                    let range = IntBound::new(0, (extent - 1).max(0));
                    self.zero_map.insert(f.var.clone(), Expr::int(0));
                    self.env.insert(f.var.clone(), range);
                    self.env0.insert(f.var.clone(), IntBound::single(0));
                    self.walk(&f.body);
                    self.zero_map.remove(&f.var);
                    self.env.remove(&f.var);
                    self.env0.remove(&f.var);
                }
                Stmt::Seq(v) => {
                    for st in v {
                        self.walk(st);
                    }
                }
                Stmt::IfThenElse {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.walk(then_branch);
                    if let Some(e) = else_branch {
                        self.walk(e);
                    }
                }
                Stmt::BlockRealize(br) => {
                    let signature = &br.block;
                    let (buffer, reads, writes) = (self.buffer, self.reads, self.writes);
                    let mut touched = (signature.reads.iter().filter(|_| reads))
                        .chain(signature.writes.iter().filter(|_| writes))
                        .filter(|r| &r.buffer == buffer)
                        .peekable();
                    if touched.peek().is_none() {
                        return;
                    }
                    let subst: VarMap<&Expr> = br
                        .block
                        .iter_vars
                        .iter()
                        .zip(&br.iter_values)
                        .map(|(iv, v)| (iv.var.clone(), v))
                        .collect();
                    for r in touched {
                        self.relax(&r.region, &subst);
                    }
                    // Nested blocks: their accesses are already summarized by
                    // this block's own signature, so no need to descend.
                }
                _ => {}
            }
        }
    }
    let mut relaxer = Relaxer {
        buffer,
        reads,
        writes,
        mins: vec![None; buffer.ndim()],
        extents: vec![0; buffer.ndim()],
        any: false,
        zero_map: VarMap::default(),
        env: VarMap::default(),
        env0: VarMap::default(),
        outer: Vec::new(),
    };
    relaxer.walk(stmt);
    if !relaxer.any {
        return None;
    }
    Some(
        relaxer
            .mins
            .into_iter()
            .zip(relaxer.extents)
            .map(|(min, e)| RangeExpr::new(min.expect("dim visited"), e))
            .collect(),
    )
}

/// Recomputes, in place, the read/write signatures of every *non-leaf*
/// block (one containing nested blocks) from its children, bottom-up.
/// Needed after a transformation rewrites buffers inside a nested block:
/// the enclosing blocks' signatures would otherwise go stale.
pub fn refresh_all_signatures(s: &mut Stmt) {
    fn buffers_accessed_below(s: &Stmt, reads: &mut Vec<Buffer>, writes: &mut Vec<Buffer>) {
        match s {
            Stmt::BlockRealize(br) => {
                for r in &br.block.reads {
                    if !reads.contains(&r.buffer) {
                        reads.push(r.buffer.clone());
                    }
                }
                for w in &br.block.writes {
                    if !writes.contains(&w.buffer) {
                        writes.push(w.buffer.clone());
                    }
                }
            }
            Stmt::For(f) => buffers_accessed_below(&f.body, reads, writes),
            Stmt::Seq(v) => {
                for st in v {
                    buffers_accessed_below(st, reads, writes);
                }
            }
            Stmt::IfThenElse {
                then_branch,
                else_branch,
                ..
            } => {
                buffers_accessed_below(then_branch, reads, writes);
                if let Some(e) = else_branch {
                    buffers_accessed_below(e, reads, writes);
                }
            }
            _ => {}
        }
    }
    fn contains_block(s: &Stmt) -> bool {
        match s {
            Stmt::BlockRealize(_) => true,
            Stmt::For(f) => contains_block(&f.body),
            Stmt::Seq(v) => v.iter().any(contains_block),
            Stmt::IfThenElse {
                then_branch,
                else_branch,
                ..
            } => contains_block(then_branch) || else_branch.as_deref().is_some_and(contains_block),
            _ => false,
        }
    }
    match s {
        Stmt::BlockRealize(br) => {
            refresh_all_signatures(&mut br.block.body);
            if br.block.name != "root" && contains_block(&br.block.body) {
                let mut read_bufs = Vec::new();
                let mut write_bufs = Vec::new();
                buffers_accessed_below(&br.block.body, &mut read_bufs, &mut write_bufs);
                let body = &br.block.body;
                let local = &br.block.alloc_buffers;
                let signature = |bufs: Vec<Buffer>, reads: bool| -> Vec<tir::BufferRegion> {
                    bufs.into_iter()
                        .filter(|b| !local.contains(b))
                        .filter_map(|b| {
                            let region = required_region(body, &b, reads, !reads)?;
                            Some(tir::BufferRegion::new(b, region))
                        })
                        .collect()
                };
                let reads = signature(read_bufs, true);
                let writes = signature(write_bufs, false);
                br.block.reads = reads;
                br.block.writes = writes;
            }
        }
        Stmt::For(f) => refresh_all_signatures(&mut f.body),
        Stmt::Seq(v) => v.iter_mut().for_each(refresh_all_signatures),
        Stmt::IfThenElse {
            then_branch,
            else_branch,
            ..
        } => {
            refresh_all_signatures(then_branch);
            if let Some(e) = else_branch {
                refresh_all_signatures(e);
            }
        }
        _ => {}
    }
}
