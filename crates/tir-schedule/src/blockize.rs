//! Blockization: wrapping a loop subtree into a new (outer) block, the
//! transformation that isolates a tensorizable sub-computation (Fig. 7).

use tir::simplify::simplified;
use tir::visit::{collect_vars_expr, substituted};
use tir::{Block, BlockRealize, Expr, IterKind, IterVar, Stmt, Var, VarMap};

use crate::compute_location::required_region;
use crate::schedule::{stmt_kind, BlockRef, LoopRef, Result, Schedule, ScheduleError};
use crate::trace::TraceStep;

impl Schedule {
    /// Creates a new block isolating the subtree rooted at `loop_ref`.
    ///
    /// The subtree must be a perfect loop nest containing exactly one block
    /// realize, and every binding of that block must be separable as
    /// `outer_part + inner_part` where the inner part (over the loops at or
    /// inside `loop_ref`) is a compact zero-based combination. The inner
    /// block keeps its iterator domains; the new outer block gets one
    /// iterator per inner-block iterator with domain `extent / inner_extent`.
    ///
    /// Returns a reference to the new outer block, named `{block}_o`.
    ///
    /// # Errors
    ///
    /// Fails when the subtree shape or the bindings do not satisfy the
    /// conditions above.
    pub fn blockize(&mut self, loop_ref: &LoopRef) -> Result<BlockRef> {
        // Check on a borrow: collect the inner loop chain and the single
        // block realize, and derive the new bindings.
        let mut inner_dom: Vec<(Var, i64)> = Vec::new();
        let mut current = self.loop_node(loop_ref)?;
        let realize: &BlockRealize = loop {
            let extent = current.extent.as_int().ok_or_else(|| {
                ScheduleError::Precondition("blockize requires constant loop extents".into())
            })?;
            inner_dom.push((current.var.clone(), extent));
            match &current.body {
                Stmt::For(f) => current = f,
                Stmt::BlockRealize(br) => break br,
                other => {
                    return Err(ScheduleError::Precondition(format!(
                        "blockize requires a perfect loop nest over a single \
                         block, found {}",
                        stmt_kind(other)
                    )))
                }
            }
        };
        let inner_vars: Vec<Var> = inner_dom.iter().map(|(v, _)| v.clone()).collect();
        if !realize.predicate.is_const_int(1) {
            return Err(ScheduleError::Precondition(
                "blockize of predicated blocks is not supported; pad first".into(),
            ));
        }
        // Separate each binding into outer + inner parts.
        let zero_inner: VarMap<Expr> = inner_vars
            .iter()
            .map(|v| (v.clone(), Expr::int(0)))
            .collect();
        let dom_map: VarMap<i64> = inner_dom.iter().cloned().collect();
        let mut outer_iter_vars: Vec<IterVar> = Vec::new();
        let mut outer_bindings: Vec<Expr> = Vec::new();
        let mut new_inner_bindings: Vec<Expr> = Vec::new();
        for (iv, value) in realize.block.iter_vars.iter().zip(&realize.iter_values) {
            let outer_part = simplified(substituted(value.clone(), &zero_inner));
            let inner_part = {
                // inner = value - outer_part, but computed by zeroing
                // the outer variables instead (avoids symbolic subtraction).
                let outer_vars: Vec<Var> = collect_vars_expr(value)
                    .into_iter()
                    .filter(|v| !inner_vars.contains(v))
                    .collect();
                let zero_outer: VarMap<Expr> = outer_vars
                    .iter()
                    .map(|v| (v.clone(), Expr::int(0)))
                    .collect();
                simplified(substituted(value.clone(), &zero_outer))
            };
            // Verify separability: value == outer_part + inner_part.
            let recomposed = simplified(outer_part.clone() + inner_part.clone());
            if recomposed != simplified(value.clone()) {
                return Err(ScheduleError::Precondition(format!(
                    "binding {value} is not separable into outer + inner parts"
                )));
            }
            // Inner extent via strict affine detection over inner loops.
            let inner_extent = if inner_part.is_const_int(0) {
                1
            } else {
                tir_arith::iter_map::normalize(&inner_part, &dom_map)
                    .ok()
                    .and_then(|s| s.strict_extent())
                    .ok_or_else(|| {
                        ScheduleError::Precondition(format!(
                            "inner binding part {inner_part} is not a compact \
                             zero-based iterator combination"
                        ))
                    })?
            };
            if iv.extent % inner_extent != 0 {
                return Err(ScheduleError::Precondition(format!(
                    "iterator {} extent {} not divisible by inner extent {}",
                    iv.var.name(),
                    iv.extent,
                    inner_extent
                )));
            }
            let outer_extent = iv.extent / inner_extent;
            let u = Var::int(format!("{}_o", iv.var.name()));
            let outer_binding = if inner_extent == 1 {
                outer_part
            } else {
                simplified(outer_part.floor_div(inner_extent))
            };
            outer_bindings.push(outer_binding);
            new_inner_bindings.push(simplified(Expr::from(&u) * inner_extent + inner_part));
            outer_iter_vars.push(match iv.kind {
                IterKind::Spatial => IterVar::spatial(u, outer_extent),
                IterKind::Reduce => IterVar::reduce(u, outer_extent),
            });
        }
        let outer_name = format!("{}_o", realize.block.name);
        let (inner_reads, inner_writes) =
            (realize.block.reads.clone(), realize.block.writes.clone());

        let name = outer_name.clone();
        self.rewrite_loop(loop_ref, |f: tir::For| {
            // Swap the new bindings into the realize at the bottom of the
            // nest; the loops above it stay as they are.
            let mut inner_stmt = Stmt::For(Box::new(f));
            let mut slot = &mut inner_stmt;
            while let Stmt::For(fr) = slot {
                slot = &mut fr.body;
            }
            if let Stmt::BlockRealize(br) = slot {
                br.iter_values = new_inner_bindings;
            }
            // Outer block signature: relax the inner subtree's accesses.
            let relax = |regions: Vec<tir::BufferRegion>, reads: bool| {
                regions
                    .into_iter()
                    .filter_map(|r| {
                        let region = required_region(&inner_stmt, &r.buffer, reads, !reads)?;
                        Some(tir::BufferRegion::new(r.buffer, region))
                    })
                    .collect()
            };
            let reads = relax(inner_reads, true);
            let writes = relax(inner_writes, false);
            let outer_block = Block::new(name, outer_iter_vars, reads, writes, inner_stmt);
            Stmt::BlockRealize(Box::new(BlockRealize::new(outer_bindings, outer_block)))
        })?;
        self.record(TraceStep::new(
            "blockize",
            vec![loop_ref.var().name().to_string().into()],
        ));
        self.get_block(&outer_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use tir::builder::matmul_func;
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    fn mm(n: i64) -> tir::PrimFunc {
        matmul_func("mm", n, n, n, DataType::float32())
    }

    /// The Fig. 2 flow: tile 64x64x64 matmul by 4x4x4 and isolate the
    /// inner computation as a block.
    fn tiled_for_blockize(n: i64, tile: i64) -> (Schedule, LoopRef) {
        let mut sch = Schedule::new(mm(n));
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let i = sch.split(&loops[0], &[-1, tile]).expect("split i");
        let j = sch.split(&loops[1], &[-1, tile]).expect("split j");
        let k = sch.split(&loops[2], &[-1, tile]).expect("split k");
        sch.reorder(&[
            i[0].clone(),
            j[0].clone(),
            k[0].clone(),
            i[1].clone(),
            j[1].clone(),
            k[1].clone(),
        ])
        .expect("tile reorder");
        (sch, i[1].clone())
    }

    #[test]
    fn blockize_fig7() {
        let (mut sch, inner_i) = tiled_for_blockize(16, 4);
        let outer = sch.blockize(&inner_i).expect("blockize");
        assert_eq!(outer.name(), "C_o");
        // The outer block has 3 iterators of extent 4 (= 16/4).
        let br = tir::visit::find_block(&sch.func().body, "C_o").expect("C_o");
        assert_eq!(br.block.iter_vars.len(), 3);
        assert!(br.block.iter_vars.iter().all(|iv| iv.extent == 4));
        // Reduction kind is preserved on the k iterator.
        assert_eq!(br.block.iter_vars[2].kind, IterKind::Reduce);
        // Inner block still exists, now nested.
        sch.get_block("C").expect("inner C");
        assert_same_semantics(&mm(16), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn blockize_outer_signature_covers_tiles() {
        let (mut sch, inner_i) = tiled_for_blockize(16, 4);
        sch.blockize(&inner_i).expect("blockize");
        let br = tir::visit::find_block(&sch.func().body, "C_o").expect("C_o");
        // Write region of C must be a 4x4 tile.
        let w = &br.block.writes[0];
        assert!(w.region[0].extent.is_const_int(4), "{}", w.region[0].extent);
        assert!(w.region[1].extent.is_const_int(4));
        // Read of A must be a 4x4 tile as well.
        let a_read = br
            .block
            .reads
            .iter()
            .find(|r| r.buffer.name() == "A")
            .expect("A read");
        assert!(a_read.region[0].extent.is_const_int(4));
        assert!(a_read.region[1].extent.is_const_int(4));
    }

    #[test]
    fn blockize_requires_divisible_tiles() {
        // 10x10x10 with tile 4 → predicated partial tiles → reject.
        let mut sch = Schedule::new(mm(10));
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let i = sch.split(&loops[0], &[-1, 4]).expect("split");
        let err = sch.blockize(&i[1]).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
    }

    #[test]
    fn blockize_whole_nest_gives_unit_outer() {
        // Blockizing at the outermost loop: outer block has extent-1 iters.
        let mut sch = Schedule::new(mm(8));
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let outer = sch.blockize(&loops[0]).expect("blockize all");
        let br = tir::visit::find_block(&sch.func().body, outer.name()).expect("outer");
        assert!(br.block.iter_vars.iter().all(|iv| iv.extent == 1));
        assert_same_semantics(&mm(8), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn blockized_outer_loops_remain_schedulable() {
        // After blockize, outer loops can still be transformed without
        // touching the inner block (the paper's core claim).
        let (mut sch, inner_i) = tiled_for_blockize(16, 4);
        sch.blockize(&inner_i).expect("blockize");
        let outer = sch.get_block("C_o").expect("C_o");
        let outer_loops = sch.get_loops(&outer).expect("outer loops");
        assert_eq!(outer_loops.len(), 3);
        sch.reorder(&[outer_loops[1].clone(), outer_loops[0].clone()])
            .expect("reorder outer");
        sch.fuse(&[outer_loops[1].clone(), outer_loops[0].clone()])
            .expect("fuse outer");
        assert_same_semantics(&mm(16), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }
}
