//! Reduction decomposition: transforming between the init-block and
//! two-block representations of a reduction (§3.1 "Reduction Block and
//! Initialization").

use tir::simplify::simplified;
use tir::visit::{expr_any_var, expr_uses_var, subst_stmt, substituted};
use tir::{Block, BlockRealize, Expr, IterKind, IterVar, Stmt, Var, VarMap};

use crate::compute_location::is_identity;
use crate::schedule::{precondition, BlockRef, LoopRef, Result, Schedule, ScheduleError};
use crate::trace::TraceStep;

impl Schedule {
    /// Splits a reduction block into an explicit initialization block
    /// (inserted immediately before `loop_ref`) and an update block (the
    /// original block with its `init` removed).
    ///
    /// `loop_ref` must enclose the block, and every reduction iterator must
    /// bind only to loops at or inside `loop_ref` (otherwise the init would
    /// re-run mid-reduction).
    ///
    /// Returns a reference to the new init block, named `{block}_init`.
    ///
    /// # Errors
    ///
    /// Fails when preconditions do not hold or the block has no init.
    pub fn decompose_reduction(
        &mut self,
        block: &BlockRef,
        loop_ref: &LoopRef,
    ) -> Result<BlockRef> {
        // Gather info about the block realize and the loops between
        // loop_ref and the block.
        let br = self.block_node(block)?;
        let Some(init) = br.block.init.as_deref() else {
            return Err(ScheduleError::Precondition(format!(
                "block {} has no init statement",
                block.name()
            )));
        };
        let all_loops = self.loop_infos(block)?;
        let pivot = all_loops
            .iter()
            .position(|li| &li.var == loop_ref.var())
            .ok_or_else(|| {
                ScheduleError::Precondition(format!(
                    "loop {} does not enclose block {}",
                    loop_ref.var().name(),
                    block.name()
                ))
            })?;
        let outer_vars: Vec<Var> = all_loops[..pivot].iter().map(|li| li.var.clone()).collect();
        let inner: Vec<(Var, i64)> = all_loops[pivot..]
            .iter()
            .map(|li| (li.var.clone(), li.extent))
            .collect();

        // Every reduction binding must live at or inside the pivot loop.
        for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
            if iv.kind == IterKind::Reduce && expr_any_var(value, &mut |v| outer_vars.contains(v)) {
                return Err(ScheduleError::Precondition(format!(
                    "reduction iterator {} binds to a loop outside {}",
                    iv.var.name(),
                    loop_ref.var().name()
                )));
            }
        }

        // Build the init block: spatial iterators only, with inner loop
        // variables in spatial bindings replaced by fresh init loops.
        let mut fresh_loops: Vec<(Var, i64)> = Vec::new();
        let mut var_map: VarMap<Expr> = VarMap::default();
        for (v, extent) in &inner {
            let fresh = Var::int(format!("{}_init", v.name()));
            var_map.insert(v.clone(), Expr::from(&fresh));
            fresh_loops.push((fresh, *extent));
        }
        // Reduce bindings are irrelevant to the init block; spatial only.
        let mut init_iter_vars: Vec<IterVar> = Vec::new();
        let mut init_bindings: Vec<Expr> = Vec::new();
        let mut spatial_map: VarMap<Expr> = VarMap::default();
        for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
            if iv.kind == IterKind::Spatial {
                let fresh = iv.var.fresh_copy();
                spatial_map.insert(iv.var.clone(), Expr::from(&fresh));
                init_iter_vars.push(IterVar::spatial(fresh, iv.extent));
                init_bindings.push(simplified(substituted(value.clone(), &var_map)));
            }
        }
        let mut init_body = init.clone();
        subst_stmt(&mut init_body, &spatial_map);
        let init_writes = br
            .block
            .writes
            .iter()
            .map(|w| tir::BufferRegion {
                buffer: w.buffer.clone(),
                region: w
                    .region
                    .iter()
                    .map(|r| tir::RangeExpr {
                        min: substituted(r.min.clone(), &spatial_map),
                        extent: substituted(r.extent.clone(), &spatial_map),
                    })
                    .collect(),
            })
            .collect();
        // Predicate: original with reduce-related inner vars zeroed.
        let init_predicate = {
            let mut zero_map = var_map.clone();
            // Any remaining inner vars not used spatially become 0.
            for (v, _) in &inner {
                zero_map.entry(v.clone()).or_insert_with(|| Expr::int(0));
            }
            simplified(substituted(br.predicate.clone(), &zero_map))
        };
        let init_name = format!("{}_init", block.name());
        let init_block = Block::new(
            init_name.clone(),
            init_iter_vars,
            vec![],
            init_writes,
            init_body,
        );
        // Only keep fresh loops actually used by the init bindings.
        let kept_loops: Vec<(Var, i64)> = fresh_loops
            .into_iter()
            .filter(|(v, _)| init_bindings.iter().any(|e| expr_uses_var(e, v)))
            .collect();
        let init_nest = Stmt::BlockRealize(Box::new(BlockRealize::with_predicate(
            init_bindings,
            init_predicate,
            init_block,
        )))
        .in_loops(kept_loops);

        // Remove init from the original block.
        self.rewrite_block(block, |mut br: BlockRealize| {
            br.block.init = None;
            Stmt::BlockRealize(Box::new(br))
        })?;
        // Insert the init nest before the pivot loop.
        self.rewrite_loop(loop_ref, |f: tir::For| {
            Stmt::seq(vec![init_nest, Stmt::For(Box::new(f))])
        })?;
        self.record(TraceStep::new(
            "decompose_reduction",
            vec![
                block.name().into(),
                loop_ref.var().name().to_string().into(),
            ],
        ));
        self.get_block(&init_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use tir::builder::matmul_func;
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    fn mm() -> tir::PrimFunc {
        matmul_func("mm", 8, 8, 8, DataType::float32())
    }

    #[test]
    fn decompose_at_reduction_loop() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        // loops = [i, j, k]; decompose at k: init becomes a (j-free) store
        // before the k loop, inside i, j.
        let init = sch
            .decompose_reduction(&block, &loops[2])
            .expect("decompose");
        assert_eq!(init.name(), "C_init");
        // The update block no longer has an init.
        let br = tir::visit::find_block(&sch.func().body, "C").expect("C");
        assert!(br.block.init.is_none());
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn decompose_at_outer_loop() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        // Decompose at j: the init nest re-creates a fresh j loop.
        let init = sch
            .decompose_reduction(&block, &loops[1])
            .expect("decompose");
        let init_loops = sch.get_loops(&init).expect("init loops");
        assert_eq!(init_loops.len(), 2, "i plus the fresh j_init loop");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn decompose_rejects_reduce_outside() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        // Reorder so k is outermost; then decomposing at the innermost
        // loop would leave the reduction binding outside — rejected.
        sch.reorder(&[loops[2].clone(), loops[0].clone(), loops[1].clone()])
            .expect("reorder");
        let new_loops = sch.get_loops(&block).expect("loops");
        let err = sch.decompose_reduction(&block, &new_loops[2]).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
    }

    #[test]
    fn decompose_after_split_of_reduction_loop() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let k_split = sch.split(&loops[2], &[2, 4]).expect("split k");
        let init = sch
            .decompose_reduction(&block, &k_split[0])
            .expect("decompose at ko");
        assert_eq!(init.name(), "C_init");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }
}

impl Schedule {
    /// The inverse of [`Schedule::decompose_reduction`]: dissolves a
    /// standalone initialization block back into its update block's `init`
    /// statement (§3.1: "transformations between the two-block-based
    /// representation and the init-block-based representation").
    ///
    /// The init block must be spatial-only, write exactly the buffer the
    /// update block reduces into, and its store indices must be its own
    /// iterator variables (the shape `decompose_reduction` produces).
    ///
    /// # Errors
    ///
    /// Fails when the blocks do not form a decomposed-reduction pair.
    pub fn merge_reduction(
        &mut self,
        init_block: &BlockRef,
        update_block: &BlockRef,
    ) -> Result<()> {
        let init_br = self.block_node(init_block)?;
        if init_br.block.is_reduction() || init_br.block.init.is_some() {
            return precondition("init block must be spatial-only without its own init");
        }
        let Stmt::Store {
            buffer: init_buf,
            indices: init_idx,
            value: init_value,
        } = &*init_br.block.body
        else {
            return precondition("init block body must be a single store");
        };
        let init_vars = init_br.block.iter_var_handles();
        if !is_identity(init_idx, &init_vars) {
            return precondition("init block must store at its own iterator variables");
        }
        let update_br = self.block_node(update_block)?;
        if init_block == update_block {
            return precondition("init and update must be two blocks");
        }
        if update_br.block.init.is_some() {
            return precondition(format!(
                "update block {} already has an init",
                update_block.name()
            ));
        }
        // The update block must reduce into the same buffer at its
        // spatial iterators.
        let Stmt::Store {
            buffer, indices, ..
        } = &*update_br.block.body
        else {
            return precondition("update block body must be a single store");
        };
        if buffer != init_buf {
            return precondition(format!(
                "init writes {} but the update block reduces into {}",
                init_buf.name(),
                buffer.name()
            ));
        }
        // Map init iterator variables to the update block's store
        // indices positionally.
        if indices.len() != init_vars.len() {
            return precondition("init/update output ranks differ");
        }
        let map: VarMap<Expr> = init_vars
            .iter()
            .cloned()
            .zip(indices.iter().cloned())
            .collect();
        let init_stmt = Stmt::Store {
            buffer: init_buf.clone(),
            indices: indices.clone(),
            value: substituted(init_value.clone(), &map),
        };

        self.take_block(init_block)?;
        self.rewrite_block(update_block, |mut br| {
            br.block.init = Some(Box::new(init_stmt));
            Stmt::BlockRealize(Box::new(br))
        })?;
        self.record(TraceStep::new(
            "merge_reduction",
            vec![init_block.name().into(), update_block.name().into()],
        ));
        Ok(())
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use crate::schedule::Schedule;
    use tir::builder::matmul_func;
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    #[test]
    fn decompose_then_merge_round_trips() {
        let reference = matmul_func("mm", 8, 8, 8, DataType::float32());
        let mut sch = Schedule::new(reference.clone());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let init = sch
            .decompose_reduction(&block, &loops[2])
            .expect("decompose");
        // Merge back.
        sch.merge_reduction(&init, &block).expect("merge");
        assert!(sch.get_block("C_init").is_err(), "init block dissolved");
        let br = tir::visit::find_block(&sch.func().body, "C").expect("C");
        assert!(br.block.init.is_some(), "init restored");
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn merge_rejects_wrong_pairs() {
        let reference = matmul_func("mm", 8, 8, 8, DataType::float32());
        let mut sch = Schedule::new(reference.clone());
        let block = sch.get_block("C").expect("C");
        // Merging C (a reduction with init) as the "init block" must fail
        // and leave the schedule untouched.
        let err = sch.merge_reduction(&block, &block).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
    }

    #[test]
    fn merge_after_outer_decompose() {
        let reference = matmul_func("mm", 16, 16, 16, DataType::float32());
        let mut sch = Schedule::new(reference.clone());
        let block = sch.get_block("C").expect("C");
        let loops = sch.get_loops(&block).expect("loops");
        let init = sch
            .decompose_reduction(&block, &loops[1])
            .expect("decompose at j");
        sch.merge_reduction(&init, &block).expect("merge");
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }
}
