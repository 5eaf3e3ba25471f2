//! Caching primitives: `cache_read` and `cache_write`.
//!
//! These introduce staging blocks that move data between memory scopes
//! (global → shared → registers / tensor-core fragments), the block-
//! hierarchy transformation the paper pairs with blockization (§3.2) and
//! the mechanism behind AutoCopy data-movement blocks (§4.3).

use tir::visit::replace_buffers;
use tir::{
    AnnValue, Block, BlockRealize, Buffer, BufferRegion, Expr, IterVar, MemScope, RangeExpr, Stmt,
    Var,
};

use crate::compute_location::{refresh_nested_signatures, required_region};
use crate::schedule::{stmt_kind, BlockRef, LoopRef, Result, Schedule, ScheduleError};
use crate::trace::TraceStep;

fn sanitize(scope: &MemScope) -> String {
    scope.as_str().replace('.', "_")
}

/// Builds a copy block `dst[idx] = src[idx]` sweeping `region`, with block
/// iterator domains equal to the full buffer dims (bindings `min + ax`).
fn copy_block_nest(
    name: &str,
    src: &Buffer,
    dst: &Buffer,
    region: &[RangeExpr],
    annotations: &[(&str, AnnValue)],
) -> Result<Stmt> {
    let ndim = src.ndim();
    let mut loops: Vec<(Var, i64)> = Vec::with_capacity(ndim);
    let mut bindings: Vec<Expr> = Vec::with_capacity(ndim);
    let mut block_vars: Vec<Var> = Vec::with_capacity(ndim);
    for (d, r) in region.iter().enumerate() {
        let extent = r
            .extent
            .as_int()
            .ok_or_else(|| ScheduleError::Precondition("non-constant region extent".into()))?;
        let ax = Var::int(format!("ax{d}"));
        bindings.push(tir::simplify::simplified(r.min.clone() + Expr::from(&ax)));
        loops.push((ax, extent));
        block_vars.push(Var::int(format!("v{d}")));
    }
    let idx: Vec<Expr> = block_vars.iter().map(Expr::from).collect();
    let body = Stmt::store(dst.clone(), idx.clone(), src.load(idx.clone()));
    let iter_vars: Vec<IterVar> = block_vars
        .iter()
        .zip(src.shape())
        .map(|(v, &e)| IterVar::spatial(v.clone(), e))
        .collect();
    let mut block = Block::new(
        name,
        iter_vars,
        vec![BufferRegion::point(src.clone(), idx.clone())],
        vec![BufferRegion::point(dst.clone(), idx)],
        body,
    );
    // Generated copies are idempotent and may legitimately have
    // overlapping (halo) or non-surjective bindings; the validator relaxes
    // loop-nest binding checks for them (region cover still applies).
    block
        .annotations
        .insert("tir.copy".to_string(), AnnValue::Int(1));
    for (k, v) in annotations {
        block.annotations.insert((*k).to_string(), v.clone());
    }
    let realize = BlockRealize::new(bindings, block);
    Ok(Stmt::BlockRealize(Box::new(realize)).in_loops(loops))
}

impl Schedule {
    /// The root block, or the error every primitive that needs one reports.
    /// Primitives call this before their first rewrite, so that a function
    /// whose body is not a root block fails them whole.
    fn root_block(&self) -> Result<&Block> {
        match &*self.func.body {
            Stmt::BlockRealize(root) => Ok(&root.block),
            other => Err(ScheduleError::Precondition(format!(
                "function body is not a root block but {}",
                stmt_kind(other)
            ))),
        }
    }

    /// Rewrites the root block in place.
    fn rewrite_root(&mut self, f: impl FnOnce(&mut Block)) -> Result<()> {
        self.root_block()?;
        self.mutate_body(|body| {
            if let Stmt::BlockRealize(root) = body {
                f(&mut root.block);
            }
            true
        });
        Ok(())
    }

    /// Registers a buffer in the root block's allocation list.
    pub(crate) fn alloc_at_root(&mut self, buffer: Buffer) -> Result<()> {
        self.rewrite_root(|root| root.alloc_buffers.push(buffer))
    }

    /// Puts `nest` first (`front`) or last in the body of `at_loop`, or of
    /// the root block when `None`.
    fn insert_nest(&mut self, at_loop: Option<&LoopRef>, nest: Stmt, front: bool) -> Result<()> {
        let join = |body: Stmt| {
            Stmt::seq(if front {
                vec![nest, body]
            } else {
                vec![body, nest]
            })
        };
        match at_loop {
            Some(l) => self.rewrite_loop(l, |f: tir::For| {
                Stmt::For(Box::new(tir::For {
                    body: join(f.body),
                    ..f
                }))
            }),
            None => self.rewrite_root(|root| {
                let body = std::mem::replace(&mut *root.body, Stmt::Seq(Vec::new()));
                *root.body = join(body);
            }),
        }
    }

    /// Points `block` at `to` wherever it used `from`, allocates `to` at the
    /// root, and refreshes the signatures of the blocks enclosing `block`.
    fn redirect_block(&mut self, block: &BlockRef, from: &Buffer, to: Buffer) -> Result<()> {
        let mut map = std::collections::HashMap::new();
        map.insert(from.clone(), to.clone());
        self.rewrite_block(block, |br: BlockRealize| {
            let mut stmt = Stmt::BlockRealize(Box::new(br));
            replace_buffers(&mut stmt, &map);
            stmt
        })?;
        self.alloc_at_root(to.clone())?;
        // The rewritten block may be nested: refresh enclosing block
        // signatures so they describe the new buffer.
        self.mutate_body(|body| {
            #[cfg(test)]
            let fully_refreshed = tests::fully_refreshed(body);
            refresh_nested_signatures(body, [from, &to]);
            #[cfg(test)]
            assert_eq!(*body, fully_refreshed, "narrowed refresh != full refresh");
            true
        });
        Ok(())
    }

    /// Creates a staging copy of `buffer` in `scope` for the reads of
    /// `block`, inserting the copy block at the top of `at_loop`'s body
    /// (or at the start of the root block when `at_loop` is `None`). The
    /// consumer block is rewritten to read the staged copy.
    ///
    /// Returns a reference to the new copy block, named
    /// `{buffer}_{scope}`.
    ///
    /// # Errors
    ///
    /// Fails when the block does not read the buffer or the loop is
    /// missing.
    pub fn cache_read(
        &mut self,
        block: &BlockRef,
        buffer: &Buffer,
        scope: MemScope,
        at_loop: Option<&LoopRef>,
    ) -> Result<BlockRef> {
        // Every check comes before the first rewrite: a failing
        // cache_read leaves the program as it found it.
        if !self
            .block_node(block)?
            .block
            .reads
            .iter()
            .any(|r| &r.buffer == buffer)
        {
            return Err(ScheduleError::Precondition(format!(
                "block {} does not read buffer {}",
                block.name(),
                buffer.name()
            )));
        }
        let cache_name = format!("{}_{}", buffer.name(), sanitize(&scope));
        let cache = buffer.derive(cache_name.clone(), scope);
        let region = match at_loop {
            Some(l) => {
                required_region(&self.loop_node(l)?.body, buffer, true, false).ok_or_else(|| {
                    ScheduleError::Precondition(format!(
                        "no read of {} under the target loop",
                        buffer.name()
                    ))
                })?
            }
            None => buffer.full_region().region,
        };
        let nest = copy_block_nest(&cache_name, buffer, &cache, &region, &[])?;
        self.root_block()?;

        let scope_str = cache.scope().as_str().to_string();
        self.insert_nest(at_loop, nest, true)?;
        self.redirect_block(block, buffer, cache)?;
        self.record(TraceStep::new(
            "cache_read",
            vec![
                block.name().into(),
                buffer.name().to_string().into(),
                scope_str.into(),
                at_loop
                    .map(|l| l.var().name().to_string())
                    .unwrap_or_default()
                    .into(),
            ],
        ));
        self.get_block(&cache_name)
    }

    /// Makes `block` accumulate into a private copy of its output buffer in
    /// `scope`, adding a write-back copy block at the bottom of `at_loop`'s
    /// body (or at the end of the root block when `None`).
    ///
    /// Returns a reference to the write-back block, named
    /// `{buffer}_{scope}_wb`.
    ///
    /// # Errors
    ///
    /// Fails when the block writes zero or multiple buffers.
    pub fn cache_write(
        &mut self,
        block: &BlockRef,
        scope: MemScope,
        at_loop: Option<&LoopRef>,
    ) -> Result<BlockRef> {
        // Every check comes before the first rewrite (see cache_read).
        let writes = &self.block_node(block)?.block.writes;
        if writes.len() != 1 {
            return Err(ScheduleError::Precondition(format!(
                "cache_write requires a single-output block, {} writes {}",
                block.name(),
                writes.len()
            )));
        }
        let out_buffer = writes[0].buffer.clone();
        let cache_name = format!("{}_{}", out_buffer.name(), sanitize(&scope));
        let wb_name = format!("{cache_name}_wb");
        let scope_str = scope.as_str().to_string();
        let cache = out_buffer.derive(cache_name, scope);
        // The written region under the attach loop, in terms of the
        // original buffer (the block is redirected below).
        let region = match at_loop {
            Some(l) => required_region(&self.loop_node(l)?.body, &out_buffer, false, true)
                .ok_or_else(|| {
                    ScheduleError::Precondition(format!(
                        "no write of {} under the target loop",
                        out_buffer.name()
                    ))
                })?,
            None => out_buffer.full_region().region,
        };
        let nest = copy_block_nest(&wb_name, &cache, &out_buffer, &region, &[])?;
        self.root_block()?;

        self.insert_nest(at_loop, nest, false)?;
        self.redirect_block(block, &out_buffer, cache)?;
        self.record(TraceStep::new(
            "cache_write",
            vec![
                block.name().into(),
                scope_str.into(),
                at_loop
                    .map(|l| l.var().name().to_string())
                    .unwrap_or_default()
                    .into(),
            ],
        ));
        self.get_block(&wb_name)
    }
}

#[cfg(test)]
#[path = "../tests/support/full_refresh.rs"]
mod full_refresh;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use tir::builder::matmul_func;
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    /// What the recompute-everything refresh makes of `body`. Every
    /// redirect a unit test of this crate performs is compared against it
    /// (see `redirect_block`).
    pub(super) fn fully_refreshed(body: &Stmt) -> Stmt {
        let mut copy = body.clone();
        super::full_refresh::refresh_all_signatures(&mut copy);
        copy
    }

    fn mm() -> tir::PrimFunc {
        mm_n(16)
    }

    fn mm_n(n: i64) -> tir::PrimFunc {
        matmul_func("mm", n, n, n, DataType::float32())
    }

    #[test]
    fn cache_read_full_buffer() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let a = sch.func().param("A").expect("A").clone();
        let copy = sch
            .cache_read(&block, &a, MemScope::Shared, None)
            .expect("cache_read");
        assert_eq!(copy.name(), "A_shared");
        // The consumer now reads the staged copy.
        let br = tir::visit::find_block(&sch.func().body, "C").expect("C");
        assert!(br.block.reads.iter().all(|r| r.buffer.name() != "A"));
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn cache_read_at_loop_stages_tile() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let a = sch.func().param("A").expect("A").clone();
        sch.cache_read(&block, &a, MemScope::Shared, Some(&loops[0]))
            .expect("cache_read");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
        // The staged copy should cover one row (i fixed) of A: extent 1 x 16.
        let copy = tir::visit::find_block(&sch.func().body, "A_shared").expect("copy");
        assert_eq!(copy.block.iter_vars.len(), 2);

        // The relaxation behind that tile, asked directly: a block under a
        // loop `k in 0..4` reading `X` at the given points, relaxed over `k`.
        let x = Buffer::new("X", DataType::float32(), vec![64]);
        let (y, k) = (Var::int("y"), Var::int("k"));
        let (vy_var, vk_var) = (Var::int("vy"), Var::int("vk"));
        let (vy, vk) = (Expr::from(&vy_var), Expr::from(&vk_var));
        let relaxed = |points: Vec<Expr>| {
            let reads = points
                .into_iter()
                .map(|p| BufferRegion::point(x.clone(), vec![p]))
                .collect();
            let block = Block::new(
                "R",
                vec![
                    IterVar::spatial(vy_var.clone(), 16),
                    IterVar::reduce(vk_var.clone(), 4),
                ],
                reads,
                vec![],
                Stmt::seq(vec![]),
            );
            let realize = BlockRealize::new(vec![Expr::from(&y), Expr::from(&k)], block);
            let nest = Stmt::BlockRealize(Box::new(realize)).in_loop(k.clone(), 4);
            let region = required_region(&nest, &x, true, false).expect("X is read");
            (region[0].min.clone(), region[0].extent.as_int())
        };
        // Non-negative inner coefficient: symbolic minimum, constant width.
        assert_eq!(
            relaxed(vec![vy.clone() * 4 + vk.clone()]),
            (Expr::from(&y) * 4, Some(4))
        );
        // Negative inner coefficient (T2D's flipped kernel): zeroing `k`
        // does not give the minimum, so the whole dimension is required.
        assert_eq!(
            relaxed(vec![vy.clone() * 4 + 3 - vk.clone()]),
            (Expr::int(0), Some(64))
        );
        // Two accesses whose symbolic minima differ: the whole dimension.
        assert_eq!(
            relaxed(vec![vy.clone(), vy.clone() + 32]),
            (Expr::int(0), Some(64))
        );
    }

    #[test]
    fn cache_read_requires_reader() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let c = sch.func().param("C").expect("C buf").clone();
        // C (output) is not in the reads of block C (self-read filtered).
        let err = sch
            .cache_read(&block, &c, MemScope::Shared, None)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)));
    }

    #[test]
    fn cache_write_accumulator() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let wb = sch
            .cache_write(&block, MemScope::Local, None)
            .expect("cache_write");
        assert_eq!(wb.name(), "C_local_wb");
        // The compute block now writes C_local.
        let br = tir::visit::find_block(&sch.func().body, "C").expect("C");
        assert_eq!(br.block.writes[0].buffer.name(), "C_local");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn cache_write_at_tile_loop() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        sch.cache_write(&block, MemScope::Local, Some(&loops[1]))
            .expect("cache_write");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    /// Narrowed refresh ≡ full refresh, step by step, on the nest the
    /// tensorized sketches build: a blockized tile whose inner block gets an
    /// accumulator write-back and both operands staged twice at loops
    /// around the outer block, then once more at a loop inside it.
    /// `redirect_block` compares the two refreshes after every redirect.
    #[test]
    fn narrowed_refresh_equals_full_refresh_under_a_blockized_tile() {
        let mut sch = Schedule::new(mm_n(32));
        let inner = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&inner).expect("loops");
        let (i, j) = (
            sch.split(&loops[0], &[-1, 4]).expect("split i"),
            sch.split(&loops[1], &[-1, 4]).expect("split j"),
        );
        let k = sch.split(&loops[2], &[-1, 2, 4]).expect("split k");
        let order = [&i[0], &j[0], &k[0], &k[1], &i[1], &j[1], &k[2]];
        sch.reorder(&order.map(LoopRef::clone)).expect("reorder");
        let outer = sch.blockize(&i[1]).expect("blockize");
        sch.cache_write(&inner, MemScope::Local, Some(&j[0]))
            .expect("accumulator");
        for operand in ["A", "B"] {
            let buf = sch.func().param(operand).expect("operand").clone();
            sch.cache_read(&inner, &buf, MemScope::Shared, Some(&k[0]))
                .expect("shared stage");
            let shared = sch
                .find_buffer(&format!("{operand}_shared"))
                .expect("staged");
            sch.cache_read(&inner, &shared, MemScope::Local, Some(&k[1]))
                .expect("fragment stage");
        }
        let fragment = sch.find_buffer("B_shared_local").expect("fragment");
        sch.cache_read(&inner, &fragment, MemScope::Warp, Some(&j[1]))
            .expect("stage inside the outer block");
        let outer = sch.block_node(&outer).expect("outer block");
        let names = |regions: &[BufferRegion]| -> Vec<String> {
            regions
                .iter()
                .map(|r| r.buffer.name().to_string())
                .collect()
        };
        // First appearance below the outer block: the copy nest staged
        // inside it comes before the compute block.
        assert_eq!(
            names(&outer.block.reads),
            ["B_shared_local", "A_shared_local", "B_shared_local_warp"]
        );
        assert_eq!(
            names(&outer.block.writes),
            ["B_shared_local_warp", "C_local"]
        );
        assert_same_semantics(&mm_n(32), sch.func(), 1, 0.0);
    }

    #[test]
    fn cache_read_then_write_pipeline() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let a = sch.func().param("A").expect("A").clone();
        let b = sch.func().param("B").expect("B").clone();
        sch.cache_read(&block, &a, MemScope::Shared, Some(&loops[0]))
            .expect("stage A");
        sch.cache_read(&block, &b, MemScope::Shared, Some(&loops[0]))
            .expect("stage B");
        sch.cache_write(&block, MemScope::Local, Some(&loops[0]))
            .expect("accumulate locally");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }
}
