//! Compute-location primitives: `compute_at`, `reverse_compute_at`,
//! `compute_inline`, `reverse_compute_inline`.
//!
//! These move or dissolve whole blocks while preserving the producer-covers-
//! consumer invariant, using only block-signature information plus region
//! arithmetic (Fig. 6 of the paper).
//!
//! The descents of this module go over [`Stmt::children`]. The ones that
//! rewrite (`prune_empty`, `extract_block`, `refresh_nested_signatures`,
//! `drop_alloc`) reach every statement, an `init` and both branches of an
//! `if` included; the ones that read accesses (`required_region`,
//! `buffers_accessed_below`) stop at a block, whose signature already
//! summarises what is nested in it (§3.1).

use tir::simplify::{simplified, simplify_expr};
use tir::visit::substituted;
use tir::{Block, BlockRealize, Buffer, Expr, IterKind, RangeExpr, Stmt, Var, VarMap};
use tir_arith::bound::{bound_with, IntBound};

use crate::schedule::{precondition, BlockRef, LoopRef, Result, Schedule, ScheduleError};
use crate::trace::TraceStep;

fn is_empty_seq(s: &Stmt) -> bool {
    matches!(s, Stmt::Seq(v) if v.is_empty())
}

/// Removes loops whose bodies became empty and flattens empty sequences,
/// in place, bottom-up over [`Stmt::children_mut`] — so also inside an
/// `init`, where [`extract_block`] can leave an empty sequence too.
fn prune_empty(s: &mut Stmt) {
    s.children_mut().for_each(prune_empty);
    match s {
        Stmt::For(f) if is_empty_seq(&f.body) => *s = Stmt::Seq(vec![]),
        Stmt::Seq(v) => {
            v.retain(|st| !is_empty_seq(st));
            s.normalize_seq();
        }
        _ => {}
    }
}

/// Extracts (removes and returns) the first block realize with the given
/// name, leaving an empty sequence in its place for [`prune_empty`]. It is
/// the block `find_block` answers: both are pre-order over
/// [`Stmt::children`], `init` included.
fn extract_block(s: &mut Stmt, name: &str) -> Option<BlockRealize> {
    if matches!(s, Stmt::BlockRealize(br) if br.block.name == name) {
        return match std::mem::replace(s, Stmt::Seq(vec![])) {
            Stmt::BlockRealize(br) => Some(*br),
            _ => unreachable!("matched a block realize"),
        };
    }
    (s.children_mut()).find_map(|child| extract_block(child, name))
}

/// The region of `buffer` accessed by block realizes inside `stmt`,
/// expressed in terms of variables *not* bound inside `stmt`: block
/// signature regions are instantiated with their binding values, then all
/// loop variables bound within `stmt` are relaxed away (symbolic min at
/// zero, constant extent from interval analysis).
pub(crate) fn required_region(
    stmt: &Stmt,
    buffer: &Buffer,
    reads: bool,
    writes: bool,
) -> Option<Vec<RangeExpr>> {
    /// The walk's state: the requirement gathered so far, and the loops of
    /// `stmt` the walk is inside. What `relax` needs of them — every one at
    /// `0`, every one over `[0, extent)` — it reads off that one record.
    struct Relaxer<'a> {
        buffer: &'a Buffer,
        reads: bool,
        writes: bool,
        /// Per dimension, the minimum and extent required so far.
        dims: Vec<Option<(Expr, i64)>>,
        any: bool,
        /// Inner loops, outermost first: variable and extent.
        loops: Vec<(&'a Var, i64)>,
    }
    /// Puts each block iterator's binding for it (the last binding of an
    /// iterator listed twice).
    struct Bind<'b>(&'b BlockRealize);
    impl tir::visit::ExprMutator for Bind<'_> {
        fn mutate_expr(&mut self, e: &mut Expr) {
            match e {
                Expr::Var(v) => {
                    let br = self.0;
                    let mut bindings = br.block.iter_vars.iter().zip(&br.iter_values).rev();
                    if let Some((_, value)) = bindings.find(|(iv, _)| iv.var == *v) {
                        *e = value.clone();
                    }
                }
                _ => self.walk_expr(e),
            }
        }
    }
    /// Puts `0` for every variable of `loops`.
    struct ZeroLoops<'l, 'a>(&'l [(&'a Var, i64)]);
    impl tir::visit::ExprMutator for ZeroLoops<'_, '_> {
        fn mutate_expr(&mut self, e: &mut Expr) {
            match e {
                Expr::Var(v) if self.0.iter().any(|(l, _)| *l == v) => *e = Expr::int(0),
                _ => self.walk_expr(e),
            }
        }
    }
    impl<'a> Relaxer<'a> {
        /// Relaxes one region of the block `br`. Each minimum is built once:
        /// the region's, with the block's bindings put in and simplified,
        /// is bounded where it stands and then has the inner loops zeroed in
        /// place.
        fn relax(&mut self, region: &[RangeExpr], br: &BlockRealize) {
            use tir::visit::ExprMutator as _;
            let shape = self.buffer.shape();
            for (d, r) in region.iter().enumerate() {
                let mut min = r.min.clone();
                Bind(br).mutate_expr(&mut min);
                simplify_expr(&mut min);
                let extent_c = r.extent.as_int().unwrap_or(shape[d]);
                // Width contributed by inner vars in the min expression: its
                // value with every variable at zero, against its bound with
                // only the outer variables pinned there.
                let at_zero = bound_with(&min, &|_| Some(IntBound::single(0)));
                let full = bound_with(&min, &|v| {
                    let inner = self.loops.iter().rev().find(|(l, _)| *l == v);
                    Some(inner.map_or(IntBound::single(0), |(_, extent)| {
                        IntBound::new(0, (extent - 1).max(0))
                    }))
                });
                if full.min < at_zero.min {
                    // Negative coefficient on an inner variable (e.g. a flipped
                    // convolution kernel): zeroing the inner vars does not give
                    // the region minimum, so fall back to the full dimension.
                    self.dims[d] = Some((Expr::int(0), shape[d]));
                    continue;
                }
                let width = (full.max - at_zero.max) + extent_c;
                ZeroLoops(&self.loops).mutate_expr(&mut min);
                simplify_expr(&mut min);
                let dim = &mut self.dims[d];
                match dim {
                    Some((existing, extent)) if *existing == min => {
                        *extent = (*extent).max(width);
                    }
                    Some(_) => *dim = Some((Expr::int(0), shape[d])),
                    None => *dim = Some((min, width)),
                }
            }
            self.any = true;
        }

        /// Relaxes the regions of `buffer` in one block's signature.
        fn block(&mut self, br: &BlockRealize) {
            let (buffer, reads, writes) = (self.buffer, self.reads, self.writes);
            let touched = (br.block.reads.iter().filter(|_| reads))
                .chain(br.block.writes.iter().filter(|_| writes))
                .filter(|r| &r.buffer == buffer);
            for r in touched {
                self.relax(&r.region, br);
            }
        }

        fn walk(&mut self, s: &'a Stmt) {
            match s {
                // §3.1: the signature summarises everything nested in the
                // block, `init` and body alike; read it and stop.
                Stmt::BlockRealize(br) => return self.block(br),
                Stmt::For(f) => {
                    let extent = f.extent.as_int().unwrap_or(1);
                    self.loops.push((&f.var, extent));
                }
                _ => {}
            }
            for child in s.children() {
                self.walk(child);
            }
            if let Stmt::For(_) = s {
                self.loops.pop();
            }
        }
    }
    let mut relaxer = Relaxer {
        buffer,
        reads,
        writes,
        dims: vec![None; buffer.ndim()],
        any: false,
        loops: Vec::new(),
    };
    relaxer.walk(stmt);
    if !relaxer.any {
        return None;
    }
    let dims = relaxer.dims.into_iter();
    Some(
        dims.map(|dim| {
            let (min, extent) = dim.expect("dim visited");
            RangeExpr::new(min, extent)
        })
        .collect(),
    )
}

/// Brings the read/write signatures of every *non-leaf* block (one
/// containing nested blocks) up to date, bottom-up, after a nested block
/// was redirected from one of the `redirected` buffers to the other.
///
/// The invariant this leans on: a non-leaf block's signature is what
/// [`required_region`] gives over its body — `blockize` derives it that
/// way and this function keeps it so — and below such a block only a
/// buffer redirect changes that. A redirect (and the copy nest that comes
/// with it) touches the two `redirected` buffers and nothing else, so the
/// region of every other buffer is carried over from the signature as it
/// stands and only those two are relaxed again; which buffers appear, and in
/// what order, is still read off the children.
pub(crate) fn refresh_nested_signatures(s: &mut Stmt, redirected: [&Buffer; 2]) {
    /// The buffers read and written by the outermost blocks of `s`, in order.
    fn buffers_accessed_below(s: &Stmt, reads: &mut Vec<Buffer>, writes: &mut Vec<Buffer>) {
        // §3.1: a block's signature already covers what is nested in it.
        if let Stmt::BlockRealize(br) = s {
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
            return;
        }
        (s.children()).for_each(|child| buffers_accessed_below(child, reads, writes));
    }
    // Bottom-up, through `init` as well: a block nested there has a
    // signature to keep like any other.
    (s.children_mut()).for_each(|child| refresh_nested_signatures(child, redirected));
    let Stmt::BlockRealize(br) = s else { return };
    let is_block = &mut |st: &Stmt| matches!(st, Stmt::BlockRealize(_));
    if br.block.name == "root" || br.block.body.find(is_block).is_none() {
        return;
    }
    let mut read_bufs = Vec::new();
    let mut write_bufs = Vec::new();
    buffers_accessed_below(&br.block.body, &mut read_bufs, &mut write_bufs);
    let (old_reads, old_writes) = (
        std::mem::take(&mut br.block.reads),
        std::mem::take(&mut br.block.writes),
    );
    let block = &br.block;
    let signature = |bufs: Vec<Buffer>, mut current: Vec<tir::BufferRegion>, reads| {
        bufs.into_iter()
            .filter(|b| !block.alloc_buffers.contains(b))
            .filter_map(|b| {
                let kept = current.iter().position(|r| r.buffer == b);
                if let (Some(kept), false) = (kept, redirected.contains(&&b)) {
                    return Some(current.swap_remove(kept));
                }
                let region = required_region(&block.body, &b, reads, !reads)?;
                Some(tir::BufferRegion::new(b, region))
            })
            .collect()
    };
    let reads = signature(read_bufs, old_reads, true);
    let writes = signature(write_bufs, old_writes, false);
    br.block.reads = reads;
    br.block.writes = writes;
}

/// Builds a loop nest realizing `block` so that its spatial iterators sweep
/// `region` (one range per output dimension, in output-dim order) and its
/// reduction iterators sweep their full domains. Requires the block's write
/// indices to be exactly its spatial iterators in order.
pub(crate) fn realize_over_region(
    block: &Block,
    region: &[RangeExpr],
    guard_shape: &[i64],
) -> Result<Stmt> {
    let spatial_count = block
        .iter_vars
        .iter()
        .filter(|iv| iv.kind == IterKind::Spatial)
        .count();
    if spatial_count != region.len() {
        return Err(ScheduleError::Precondition(format!(
            "block {} has {} spatial iterators but the target region has rank {}",
            block.name,
            spatial_count,
            region.len()
        )));
    }
    let mut bindings: Vec<Expr> = Vec::with_capacity(block.iter_vars.len());
    let mut loops: Vec<(Var, i64)> = Vec::new();
    let mut predicate = Expr::true_();
    let mut spatial_idx = 0usize;
    for iv in &block.iter_vars {
        match iv.kind {
            IterKind::Spatial => {
                let r = &region[spatial_idx];
                let extent = r.extent.as_int().ok_or_else(|| {
                    ScheduleError::Precondition("non-constant region extent".into())
                })?;
                let fresh = Var::int(format!("ax{spatial_idx}"));
                let binding = simplified(r.min.clone() + Expr::from(&fresh));
                let dim = guard_shape[spatial_idx];
                if !can_prove_within(&r.min, extent, dim) {
                    predicate = and_pred(predicate, binding.clone().lt(dim));
                }
                bindings.push(binding);
                loops.push((fresh, extent));
                spatial_idx += 1;
            }
            IterKind::Reduce => {
                let fresh = Var::int(format!("red{}", bindings.len()));
                bindings.push(Expr::from(&fresh));
                loops.push((fresh, iv.extent));
            }
        }
    }
    let realize = BlockRealize::with_predicate(bindings, predicate, block.clone());
    Ok(Stmt::BlockRealize(Box::new(realize)).in_loops(loops))
}

fn and_pred(p: Expr, q: Expr) -> Expr {
    if p.is_const_int(1) {
        q
    } else {
        p.and(q)
    }
}

/// Attempts to prove `min + extent <= dim` (loose: only constant mins
/// succeed; symbolic mins return false and get a runtime guard instead).
fn can_prove_within(min: &Expr, extent: i64, dim: i64) -> bool {
    match min.as_int() {
        Some(m) => m + extent <= dim,
        None => false,
    }
}

impl Schedule {
    /// Removes the realize of `block` from the tree (pruning the loops it
    /// leaves empty) and returns it. A block that is missing, or cannot be
    /// taken, is reported with nothing touched.
    pub(crate) fn take_block(&mut self, block: &BlockRef) -> Result<BlockRealize> {
        let name = block.name();
        self.refuse_block_in_init(name)?;
        let mut out = None;
        self.mutate_body(|body| {
            out = extract_block(body, name);
            if out.is_some() {
                prune_empty(body);
            }
            out.is_some()
        });
        out.ok_or_else(|| ScheduleError::BlockNotFound(name.to_string()))
    }

    /// An `init` runs on the first step of its block's reduction only
    /// (§3.1): what is in it is not a statement of the loop nest, to be
    /// moved or dissolved like one.
    fn refuse_block_in_init(&self, name: &str) -> Result<()> {
        let holds_it = &mut |s: &Stmt| {
            let init = s.as_block_realize().and_then(|br| br.block.init.as_deref());
            init.is_some_and(|init| tir::visit::find_block(init, name).is_some())
        };
        if let Some(Stmt::BlockRealize(outer)) = self.func.body.find(holds_it) {
            return precondition(format!(
                "block {name} is inside the init of {}; decompose_reduction lifts an init out",
                outer.block.name
            ));
        }
        Ok(())
    }

    /// Moves producer `block` to the top of `loop_ref`'s body, shrinking it
    /// to compute exactly the region its consumers under that loop need
    /// (Fig. 6's compute-at).
    ///
    /// # Errors
    ///
    /// Fails when the block/loop is missing, the block writes more than one
    /// buffer, or no consumer under the loop reads its output; on failure
    /// the schedule is left unchanged.
    pub fn compute_at(&mut self, block: &BlockRef, loop_ref: &LoopRef) -> Result<()> {
        let br = self.block_node(block)?;
        if br.block.writes.len() != 1 {
            return Err(ScheduleError::Precondition(format!(
                "compute_at requires a single-output block, {} writes {} buffers",
                br.block.name,
                br.block.writes.len()
            )));
        }
        let buffer = &br.block.writes[0].buffer;
        // A consumer under the loop keeps the loop alive when the producer
        // is taken out below, so the attach point cannot be pruned away.
        let region = required_region(&self.loop_node(loop_ref)?.body, buffer, true, false)
            .ok_or_else(|| {
                ScheduleError::Precondition(format!(
                    "no consumer of {} under loop {}",
                    buffer.name(),
                    loop_ref.var().name()
                ))
            })?;
        let nest = realize_over_region(&br.block, &region, buffer.shape())?;

        self.take_block(block)?;
        self.rewrite_loop(loop_ref, |f: tir::For| {
            Stmt::For(Box::new(tir::For {
                body: Stmt::seq(vec![nest, f.body]),
                ..f
            }))
        })?;
        self.record(TraceStep::new(
            "compute_at",
            vec![
                block.name().into(),
                loop_ref.var().name().to_string().into(),
            ],
        ));
        Ok(())
    }

    /// Moves consumer `block` to the bottom of `loop_ref`'s body, shrinking
    /// it to consume exactly what is produced under that loop (the paper's
    /// reverse compute-at).
    ///
    /// # Errors
    ///
    /// Fails symmetrically to [`Schedule::compute_at`].
    pub fn reverse_compute_at(&mut self, block: &BlockRef, loop_ref: &LoopRef) -> Result<()> {
        let consumer = &self.block_node(block)?.block;
        let under_loop = &self.loop_node(loop_ref)?.body;
        let (pbuf, region) = consumer
            .reads
            .iter()
            .find_map(|r| {
                Some((
                    &r.buffer,
                    required_region(under_loop, &r.buffer, false, true)?,
                ))
            })
            .ok_or_else(|| {
                ScheduleError::Precondition(format!(
                    "no producer for any input of {} under loop {}",
                    consumer.name,
                    loop_ref.var().name()
                ))
            })?;
        // The consumer must read pbuf at exactly its spatial iterators
        // (identity mapping) so the produced region carries over.
        let spatial_vars: Vec<&Var> = consumer
            .iter_vars
            .iter()
            .filter(|iv| iv.kind == IterKind::Spatial)
            .map(|iv| &iv.var)
            .collect();
        let reads_identity = consumer.reads.iter().any(|r| {
            &r.buffer == pbuf
                && r.region.len() == spatial_vars.len()
                && r.region
                    .iter()
                    .zip(&spatial_vars)
                    .all(|(rr, v)| rr.min.as_var() == Some(v))
        });
        if !reads_identity {
            return Err(ScheduleError::Precondition(format!(
                "reverse_compute_at requires {} to read {} at its spatial iterators",
                consumer.name,
                pbuf.name()
            )));
        }
        let nest = realize_over_region(consumer, &region, consumer.writes[0].buffer.shape())?;

        self.take_block(block)?;
        self.rewrite_loop(loop_ref, |f: tir::For| {
            Stmt::For(Box::new(tir::For {
                body: Stmt::seq(vec![f.body, nest]),
                ..f
            }))
        })?;
        self.record(TraceStep::new(
            "reverse_compute_at",
            vec![
                block.name().into(),
                loop_ref.var().name().to_string().into(),
            ],
        ));
        Ok(())
    }

    /// Inlines an elementwise producer block into its consumers: the block
    /// body must be a single store of the form `B[v0, .., vn] = f(v0..vn)`,
    /// and that store must be the only one to `B`, which the function
    /// allocates: inlining deletes every value `B` held.
    ///
    /// # Errors
    ///
    /// Fails when the block has reductions, multiple statements, or
    /// non-identity store indices, or writes a parameter or a buffer that
    /// something else also stores to.
    pub fn compute_inline(&mut self, block: &BlockRef) -> Result<()> {
        let br = self.block_node(block)?;
        if br.block.is_reduction() {
            return Err(ScheduleError::Precondition(
                "compute_inline requires a spatial-only block".into(),
            ));
        }
        let Stmt::Store {
            buffer,
            indices,
            value,
        } = &*br.block.body
        else {
            return Err(ScheduleError::Precondition(
                "compute_inline requires a single-store body".into(),
            ));
        };
        let iter_vars = br.block.iter_var_handles();
        if !is_identity(indices, &iter_vars) {
            return Err(ScheduleError::Precondition(format!(
                "compute_inline requires identity store indices in block {}",
                block.name()
            )));
        }
        // `take_block`'s refusal below comes first.
        self.refuse_block_in_init(block.name())?;
        self.refuse_to_eliminate_param("compute_inline", buffer)?;
        let mut stores = 0;
        let second_writer = self.func.body.find(&mut |s| {
            stores += usize::from(matches!(s, Stmt::Store { buffer: b, .. } if b == buffer));
            stores > 1
        });
        if second_writer.is_some() {
            return precondition(format!(
                "compute_inline requires block {} to be the only writer of {}",
                block.name(),
                buffer.name()
            ));
        }
        let (buffer, value) = (buffer.clone(), value.clone());
        struct Inliner<'a> {
            buffer: &'a Buffer,
            iter_vars: &'a [Var],
            template: &'a Expr,
        }
        impl tir::visit::ExprMutator for Inliner<'_> {
            fn mutate_expr(&mut self, e: &mut Expr) {
                match e {
                    Expr::Load { buffer, indices } if buffer == self.buffer => {
                        for i in indices.iter_mut() {
                            self.mutate_expr(i);
                        }
                        let map: VarMap<Expr> = (self.iter_vars.iter().cloned())
                            .zip(std::mem::take(indices))
                            .collect();
                        *e = substituted(self.template.clone(), &map);
                    }
                    _ => self.walk_expr(e),
                }
            }
        }
        impl tir::visit::StmtMutator for Inliner<'_> {
            fn mutate_block(&mut self, b: &mut Block) {
                if let Some(init) = &mut b.init {
                    self.mutate_stmt(init);
                }
                self.mutate_stmt(&mut b.body);
                // Re-derive reads for blocks that referenced the inlined
                // buffer (the inlined expression brings new inputs).
                if b.reads.iter().any(|r| &r.buffer == self.buffer) {
                    let (mut reads, _) = tir::builder::derive_signature(&b.body, None);
                    reads.retain(|r| !b.writes.iter().any(|w| w.buffer == r.buffer));
                    b.reads = reads;
                }
            }
        }
        let mut inliner = Inliner {
            buffer: &buffer,
            iter_vars: &iter_vars,
            template: &value,
        };
        self.take_block(block)?;
        self.mutate_body(|body| {
            use tir::visit::StmtMutator as _;
            inliner.mutate_stmt(body);
            drop_alloc(body, &buffer);
            true
        });
        self.record(TraceStep::new("compute_inline", vec![block.name().into()]));
        Ok(())
    }

    /// Inlines an elementwise *consumer* into its producer: the consumer's
    /// body must be `D[v..] = f(O[v..])` where `O` is produced by a single
    /// non-reducing block; the producer's stores to `O` are rewritten to
    /// store `f(value)` into `D` directly.
    ///
    /// # Errors
    ///
    /// Fails when the consumer is not a pure elementwise epilogue or the
    /// producer reduces (the epilogue would apply to partial values).
    pub fn reverse_compute_inline(&mut self, block: &BlockRef) -> Result<()> {
        let br = self.block_node(block)?;
        if br.block.is_reduction() {
            return precondition("reverse_compute_inline requires a spatial block");
        }
        let Stmt::Store {
            buffer: dst,
            indices,
            value,
        } = &*br.block.body
        else {
            return precondition("reverse_compute_inline requires a single store");
        };
        let iter_vars = br.block.iter_var_handles();
        if !is_identity(indices, &iter_vars) {
            return precondition("consumer store indices must be identity");
        }
        let [read] = &br.block.reads[..] else {
            return precondition("consumer must read exactly one buffer");
        };
        let src = read.buffer.clone();
        if src.shape() != dst.shape() {
            return precondition("source and destination shapes must match");
        }
        // Reject reduction producers: the epilogue must only see the final
        // value (decompose the reduction first).
        let mut producer_reduces = false;
        tir::visit::for_each_block_realize(&self.func.body, &mut |pbr| {
            if pbr.block.writes.iter().any(|w| w.buffer == src) && pbr.block.is_reduction() {
                producer_reduces = true;
            }
        });
        if producer_reduces {
            return precondition(
                "reverse_compute_inline into a reduction producer is unsound; \
                 use decompose_reduction first",
            );
        }
        // `take_block`'s refusal below comes first.
        self.refuse_block_in_init(block.name())?;
        self.refuse_to_eliminate_param("reverse_compute_inline", &src)?;
        let (dst, value) = (dst.clone(), value.clone());
        struct Rewriter<'a> {
            src: &'a Buffer,
            dst: &'a Buffer,
            iter_vars: &'a [Var],
            template: &'a Expr,
        }
        impl Rewriter<'_> {
            fn apply_epilogue(&self, store_indices: &[Expr], inner_value: Expr) -> Expr {
                let map: VarMap<Expr> = self
                    .iter_vars
                    .iter()
                    .cloned()
                    .zip(store_indices.iter().cloned())
                    .collect();
                struct LoadSwap<'b> {
                    src: &'b Buffer,
                    replacement: &'b Expr,
                }
                impl tir::visit::ExprMutator for LoadSwap<'_> {
                    fn mutate_expr(&mut self, e: &mut Expr) {
                        match e {
                            Expr::Load { buffer, .. } if buffer == self.src => {
                                *e = self.replacement.clone();
                            }
                            _ => self.walk_expr(e),
                        }
                    }
                }
                use tir::visit::ExprMutator as _;
                let mut out = substituted(self.template.clone(), &map);
                LoadSwap {
                    src: self.src,
                    replacement: &inner_value,
                }
                .mutate_expr(&mut out);
                out
            }
        }
        use tir::visit::ExprMutator as _;
        impl tir::visit::ExprMutator for Rewriter<'_> {}
        impl tir::visit::StmtMutator for Rewriter<'_> {
            fn mutate_stmt(&mut self, s: &mut Stmt) {
                match s {
                    Stmt::Store {
                        buffer,
                        indices,
                        value,
                    } if buffer == self.src => {
                        self.mutate_expr(value);
                        let inner = std::mem::replace(value, Expr::int(0));
                        *value = self.apply_epilogue(indices, inner);
                        *buffer = self.dst.clone();
                    }
                    _ => self.walk_stmt(s),
                }
            }

            fn mutate_block(&mut self, b: &mut Block) {
                if let Some(init) = &mut b.init {
                    self.mutate_stmt(init);
                }
                self.mutate_stmt(&mut b.body);
                for w in &mut b.writes {
                    if &w.buffer == self.src {
                        w.buffer = self.dst.clone();
                    }
                }
            }
        }
        let mut rewriter = Rewriter {
            src: &src,
            dst: &dst,
            iter_vars: &iter_vars,
            template: &value,
        };
        self.take_block(block)?;
        self.mutate_body(|body| {
            use tir::visit::StmtMutator as _;
            rewriter.mutate_stmt(body);
            drop_alloc(body, &src);
            true
        });
        self.record(TraceStep::new(
            "reverse_compute_inline",
            vec![block.name().into()],
        ));
        Ok(())
    }

    /// An inline deletes the buffer it eliminates; a parameter's final
    /// value is what the caller gets back.
    fn refuse_to_eliminate_param(&self, primitive: &str, buffer: &Buffer) -> Result<()> {
        if self.func.params.contains(buffer) {
            return precondition(format!(
                "{primitive} cannot eliminate {}, a parameter of the function",
                buffer.name()
            ));
        }
        Ok(())
    }
}

/// Whether a store's indices are exactly the block's iterators, in order.
pub(crate) fn is_identity(indices: &[Expr], iter_vars: &[Var]) -> bool {
    indices.len() == iter_vars.len()
        && indices
            .iter()
            .zip(iter_vars)
            .all(|(e, v)| e.as_var() == Some(v))
}

/// Removes `buffer` from every block's allocation list (after inlining):
/// every block [`Stmt::children_mut`] reaches, since the one that allocates
/// it may sit below an `if` or inside an `init`.
fn drop_alloc(s: &mut Stmt, buffer: &Buffer) {
    if let Stmt::BlockRealize(br) = s {
        br.block.alloc_buffers.retain(|b| b != buffer);
    }
    (s.children_mut()).for_each(|child| drop_alloc(child, buffer));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use tir::builder::{compute, matmul_func};
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    /// B = A + 1; C = exp(B): Fig. 4's pipeline, as a function.
    fn add_exp() -> tir::PrimFunc {
        let a = Buffer::new("A", DataType::float32(), vec![64, 64]);
        let b = Buffer::new("B", DataType::float32(), vec![64, 64]);
        let c = Buffer::new("C", DataType::float32(), vec![64, 64]);
        let s1 = compute("B", &b, |iv| {
            a.load(iv.iter().map(Expr::from).collect()) + Expr::f32(1.0)
        });
        let s2 = compute("C", &c, |iv| Expr::Call {
            name: "exp".into(),
            args: vec![b.load(iv.iter().map(Expr::from).collect())],
            dtype: DataType::float32(),
        });
        let mut f = tir::PrimFunc::new("add_exp", vec![a, c], Stmt::seq(vec![s1, s2]));
        f.root_block_mut().expect("root").alloc_buffers.push(b);
        f
    }

    /// Matmul followed by ReLU (the Fig. 8 workload shape).
    fn matmul_relu(n: i64) -> tir::PrimFunc {
        let base = matmul_func("mm", n, n, n, DataType::float32());
        let c = base.params[2].clone();
        let d = Buffer::new("D", DataType::float32(), vec![n, n]);
        let relu = compute("D", &d, |iv| {
            c.load(iv.iter().map(Expr::from).collect())
                .max(Expr::f32(0.0))
        });
        let a = base.params[0].clone();
        let b = base.params[1].clone();
        let root_body = match &*base.body {
            Stmt::BlockRealize(br) => (*br.block.body).clone(),
            _ => unreachable!("root convention"),
        };
        let mut f = tir::PrimFunc::new(
            "matmul_relu",
            vec![a, b, d],
            Stmt::seq(vec![root_body, relu]),
        );
        f.root_block_mut().expect("root").alloc_buffers.push(c);
        f
    }

    #[test]
    fn compute_at_fig6() {
        let reference = add_exp();
        let mut sch = Schedule::new(add_exp());
        let c_block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&c_block).expect("loops");
        let i_split = sch.split(&loops[0], &[8, 8]).expect("split");
        let b_block = sch.get_block("B").expect("B");
        sch.compute_at(&b_block, &i_split[0]).expect("compute_at");
        let b_loops = sch.get_loops(&b_block).expect("b loops");
        assert!(b_loops.len() >= 3, "expected nested placement");
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn compute_at_missing_consumer_fails_and_restores() {
        let mut sch = Schedule::new(add_exp());
        let b_block = sch.get_block("B").expect("B");
        let b_loops = sch.get_loops(&b_block).expect("loops");
        let err = sch.compute_at(&b_block, &b_loops[0].clone()).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Precondition(_) | ScheduleError::LoopNotFound(_)
        ));
        sch.get_block("B").expect("B restored");
        assert_same_semantics(&add_exp(), sch.func(), 1, 0.0);
    }

    #[test]
    fn reverse_compute_at_epilogue() {
        let reference = matmul_relu(16);
        let mut sch = Schedule::new(matmul_relu(16));
        let mm = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&mm).expect("loops");
        let i_split = sch.split(&loops[0], &[4, 4]).expect("split");
        let relu = sch.get_block("D").expect("D");
        sch.reverse_compute_at(&relu, &i_split[0])
            .expect("reverse_compute_at");
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn compute_inline_elementwise() {
        let reference = add_exp();
        let mut sch = Schedule::new(add_exp());
        let b_block = sch.get_block("B").expect("B");
        sch.compute_inline(&b_block).expect("inline");
        assert!(sch.get_block("B").is_err(), "B dissolved");
        let text = sch.func().to_string();
        assert!(text.contains("exp(A["), "inlined into consumer: {text}");
        // Inlining removes the f32 rounding of the intermediate buffer, so
        // allow a small tolerance (real fusing compilers do the same).
        assert_same_semantics(&reference, sch.func(), 1, 1e-5);
        tir_analysis::assert_valid(sch.func());
    }

    /// `for i: if i < 8: W`, where block `W` allocates `T` and holds both
    /// its producer `P` and its consumer `Q`.
    fn allocating_block_below_an_if() -> tir::PrimFunc {
        use tir::{BufferRegion, IterVar};
        let a = Buffer::new("A", DataType::float32(), vec![8, 8]);
        let o = Buffer::new("O", DataType::float32(), vec![8, 8]);
        let t = Buffer::new("T", DataType::float32(), vec![8]);
        let (i, vi) = (Var::int("i"), Var::int("vi"));
        let row = |v: &Var| vec![Expr::from(&vi), Expr::from(v)];
        let p = compute("P", &t, |iv| a.load(row(&iv[0])) + Expr::f32(1.0));
        let (vq, jq) = (Var::int("vq"), Var::int("jq"));
        let exp = Expr::Call {
            name: "exp".into(),
            args: vec![t.load(vec![Expr::from(&vq)])],
            dtype: DataType::float32(),
        };
        let q = Block::new(
            "Q",
            vec![IterVar::spatial(vq.clone(), 8)],
            vec![BufferRegion::point(t.clone(), vec![Expr::from(&vq)])],
            vec![BufferRegion::point(o.clone(), row(&vq))],
            Stmt::store(o.clone(), row(&vq), exp),
        );
        let q = Stmt::BlockRealize(Box::new(BlockRealize::new(vec![Expr::from(&jq)], q)));
        let row_of = |b: &Buffer| {
            let mut r = b.full_region();
            r.region[0] = RangeExpr::new(Expr::from(&vi), 1);
            r
        };
        let mut w = Block::new(
            "W",
            vec![IterVar::spatial(vi.clone(), 8)],
            vec![row_of(&a)],
            vec![row_of(&o)],
            Stmt::seq(vec![p, q.in_loop(jq, 8)]),
        );
        w.alloc_buffers.push(t);
        let w = Stmt::BlockRealize(Box::new(BlockRealize::new(vec![Expr::from(&i)], w)));
        let guarded = Stmt::IfThenElse {
            cond: Expr::from(&i).lt(8),
            then_branch: Box::new(w),
            else_branch: None,
        };
        tir::PrimFunc::new("f", vec![a, o], guarded.in_loop(i, 8))
    }

    /// Regression: `drop_alloc` did not look below an `if`, so the inlined
    /// buffer stayed in `W`'s allocations — printed, hashed and allocated by
    /// every executor, read and written by nothing.
    #[test]
    fn inlining_drops_the_allocation_of_a_block_below_an_if() {
        let reference = allocating_block_below_an_if();
        let mut sch = Schedule::new(reference.clone());
        let p = sch.get_block("P").expect("P");
        sch.compute_inline(&p).expect("inline");
        tir::visit::for_each_block_realize(&sch.func().body, &mut |br| {
            let allocated: Vec<&str> = br.block.alloc_buffers.iter().map(|b| b.name()).collect();
            assert!(
                !allocated.contains(&"T"),
                "{} allocates {allocated:?}",
                br.block.name
            );
        });
        assert_same_semantics(&reference, sch.func(), 1, 1e-5);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn compute_inline_rejects_reduction() {
        let mut sch = Schedule::new(matmul_relu(8));
        let mm = sch.get_block("C").expect("C");
        let err = sch.compute_inline(&mm).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)));
        sch.get_block("C").expect("C restored");
    }

    #[test]
    fn reverse_compute_inline_epilogue() {
        let reference = add_exp();
        let mut sch = Schedule::new(add_exp());
        let c_block = sch.get_block("C").expect("C");
        sch.reverse_compute_inline(&c_block).expect("rev inline");
        assert!(sch.get_block("C").is_err());
        let text = sch.func().to_string();
        assert!(text.contains("C["), "B's store now writes C: {text}");
        assert_same_semantics(&reference, sch.func(), 1, 1e-5);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn reverse_compute_inline_rejects_reduction_producer() {
        let mut sch = Schedule::new(matmul_relu(8));
        let relu = sch.get_block("D").expect("D");
        let err = sch.reverse_compute_inline(&relu).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
        sch.get_block("D").expect("D restored");
        assert_same_semantics(&matmul_relu(8), sch.func(), 1, 0.0);
    }

    /// Schedules `func` with `prepare`, then calls `inline`: an `Ok` must
    /// compute what `func` computed in its last `outputs` parameters, and
    /// the call must be refused. Each case here returned `Ok` and a wrong
    /// answer that the analyzer accepted, before the refusals existed.
    fn assert_inline_refused(
        func: tir::PrimFunc,
        outputs: usize,
        prepare: impl FnOnce(&mut Schedule),
        inline: impl FnOnce(&mut Schedule) -> Result<()>,
    ) -> String {
        let mut sch = Schedule::new(func.clone());
        prepare(&mut sch);
        let result = inline(&mut sch);
        if result.is_ok() {
            assert_same_semantics(&func, sch.func(), outputs, 1e-5);
        }
        match result {
            Err(ScheduleError::Precondition(m)) => m,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// `add_exp` with `B` a parameter instead of an allocation.
    fn add_exp_returning_b() -> tir::PrimFunc {
        let f = add_exp();
        let root = f.root_block().expect("root");
        let (b, body) = (root.alloc_buffers[0].clone(), Stmt::clone(&root.body));
        let params = vec![f.params[0].clone(), b, f.params[1].clone()];
        tir::PrimFunc::new("add_exp_b", params, body)
    }

    #[test]
    fn inlining_never_eliminates_a_parameter() {
        let nothing = |_: &mut Schedule| {};
        // C is the output: inlining it leaves the caller's C unwritten.
        let m = assert_inline_refused(add_exp(), 1, nothing, |s| {
            s.compute_inline(&s.get_block("C")?)
        });
        assert!(m.contains("cannot eliminate C"), "{m}");
        let m = assert_inline_refused(add_exp_returning_b(), 2, nothing, |s| {
            s.compute_inline(&s.get_block("B")?)
        });
        assert!(m.contains("cannot eliminate B"), "{m}");
        // Reverse-inlining C into B's block redirects B's stores to C.
        let m = assert_inline_refused(add_exp_returning_b(), 2, nothing, |s| {
            s.reverse_compute_inline(&s.get_block("C")?)
        });
        assert!(m.contains("cannot eliminate B"), "{m}");
    }

    #[test]
    fn compute_inline_refuses_one_of_two_writers() {
        // decompose_reduction(C, k) leaves C_init (C = 0) and C (C += A*B);
        // inlining C_init turned the update into C = 0 + A*B of the last k.
        let decompose = |s: &mut Schedule| {
            let c = s.get_block("C").expect("C");
            let k = s.get_loops(&c).expect("loops")[2].clone();
            s.decompose_reduction(&c, &k).expect("decompose");
        };
        let inline_init = |s: &mut Schedule| s.compute_inline(&s.get_block("C_init")?);
        let f32_ = DataType::float32();
        let m = assert_inline_refused(matmul_func("mm", 8, 8, 8, f32_), 1, decompose, inline_init);
        assert!(m.contains("cannot eliminate C"), "{m}");
        let m = assert_inline_refused(matmul_relu(8), 1, decompose, inline_init);
        assert!(m.contains("only writer of C"), "{m}");
    }
}
