//! Loop transformations: `split`, `fuse`, `reorder` and loop annotations
//! (`parallel`, `vectorize`, `unroll`, `bind`).
//!
//! These mutate the loop nests *outside* blocks and never look inside a
//! block body (Fig. 6 of the paper): bindings are rewritten through
//! variable substitution and predicates are added for partial tiles.

use tir::simplify::simplify_stmt;
use tir::visit::subst_stmt;
use tir::{Expr, For, ForKind, Stmt, ThreadTag, Var, VarMap};

use crate::schedule::{LoopRef, Result, Schedule, ScheduleError};
use crate::trace::TraceStep;

/// Guards everything in `s` with `conjunct`, in place: a block realize by
/// conjoining it onto the predicate, a bare store or evaluate by wrapping it
/// in an `if` — the one place a schedule builds one.
fn add_predicate(s: &mut Stmt, conjunct: &Expr) {
    match s {
        // The predicate guards the whole block, `init` included, and a loop
        // variable cannot occur below the bindings (§3.1): stop here.
        Stmt::BlockRealize(br) => {
            br.predicate = if br.predicate.is_const_int(1) {
                conjunct.clone()
            } else {
                std::mem::replace(&mut br.predicate, Expr::true_()).and(conjunct.clone())
            };
        }
        Stmt::Store { .. } | Stmt::Eval(_) => {
            let guarded = std::mem::replace(s, Stmt::Seq(Vec::new()));
            *s = Stmt::IfThenElse {
                cond: conjunct.clone(),
                then_branch: Box::new(guarded),
                else_branch: None,
            };
        }
        _ => (s.children_mut()).for_each(|child| add_predicate(child, conjunct)),
    }
}

impl Schedule {
    /// Splits a loop into a nest of loops with the given factors
    /// (outermost first). Exactly one factor may be `-1`, meaning "infer
    /// from the extent". When the factor product exceeds the extent, the
    /// inner blocks are guarded with a bounds predicate (partial tiles).
    ///
    /// Returns references to the new loops, outermost first.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing, a factor is invalid, or more than
    /// one factor is `-1`.
    pub fn split(&mut self, loop_ref: &LoopRef, factors: &[i64]) -> Result<Vec<LoopRef>> {
        if factors.len() < 2 {
            return Err(ScheduleError::Precondition(
                "split needs at least two factors".into(),
            ));
        }
        let extent = self.loop_extent(loop_ref)?;
        let inferred = factors.iter().filter(|&&f| f == -1).count();
        if inferred > 1 {
            return Err(ScheduleError::Precondition(
                "at most one split factor may be inferred (-1)".into(),
            ));
        }
        if factors.iter().any(|&f| f == 0 || f < -1) {
            return Err(ScheduleError::Precondition(format!(
                "invalid split factors {factors:?}"
            )));
        }
        let known: i64 = factors.iter().filter(|&&f| f > 0).product();
        let factors: Vec<i64> = factors
            .iter()
            .map(|&f| {
                if f == -1 {
                    (extent + known - 1) / known
                } else {
                    f
                }
            })
            .collect();
        let product: i64 = factors.iter().product();
        if product < extent {
            return Err(ScheduleError::Precondition(format!(
                "split factors {factors:?} (product {product}) do not cover extent {extent}"
            )));
        }

        let base_name = loop_ref.var().name().to_string();
        let new_vars: Vec<Var> = (0..factors.len())
            .map(|k| Var::int(format!("{base_name}_{k}")))
            .collect();
        // v = ((v0 * f1 + v1) * f2 + v2) ...
        let mut value = Expr::from(&new_vars[0]);
        for (var, factor) in new_vars.iter().zip(&factors).skip(1) {
            value = value * *factor + Expr::from(var);
        }
        let needs_guard = product != extent;

        self.rewrite_loop(loop_ref, |f: For| {
            let mut map = VarMap::default();
            map.insert(f.var, value.clone());
            let mut body = f.body;
            subst_stmt(&mut body, &map);
            if needs_guard {
                add_predicate(&mut body, &value.clone().lt(extent));
            }
            let mut stmt = body;
            for (k, (var, factor)) in new_vars.iter().zip(&factors).enumerate().rev() {
                let kind = if k == 0 { f.kind } else { ForKind::Serial };
                stmt = Stmt::For(Box::new(For::with_kind(var.clone(), *factor, kind, stmt)));
            }
            simplify_stmt(&mut stmt);
            stmt
        })?;
        self.record(TraceStep::new(
            "split",
            vec![base_name.into(), factors.clone().into()],
        ));
        Ok(new_vars.into_iter().map(LoopRef).collect())
    }

    /// Fuses a chain of perfectly nested loops (outermost first) into one.
    ///
    /// # Errors
    ///
    /// Fails when the loops are not a perfect nest in the given order.
    pub fn fuse(&mut self, loops: &[LoopRef]) -> Result<LoopRef> {
        if loops.len() < 2 {
            return Err(ScheduleError::Precondition(
                "fuse needs at least two loops".into(),
            ));
        }
        let extents: Vec<i64> = loops
            .iter()
            .map(|l| self.loop_extent(l))
            .collect::<Result<_>>()?;
        let fused_name = loops
            .iter()
            .map(|l| l.var().name().to_string())
            .collect::<Vec<_>>()
            .join("_")
            + "_fused";
        let fused = Var::int(fused_name.clone());
        let total: i64 = extents.iter().product();
        let vars: Vec<Var> = loops.iter().map(|l| l.var().clone()).collect();

        // Check the perfect nest on a borrow; nothing is touched on failure.
        let mut current = self.loop_node(&loops[0])?;
        let mut all_serial = current.kind == ForKind::Serial;
        for l in &loops[1..] {
            match &current.body {
                Stmt::For(f) if &f.var == l.var() => current = f,
                other => {
                    return Err(ScheduleError::Precondition(format!(
                        "loops are not perfectly nested at {}: found {}",
                        l.var().name(),
                        match other {
                            Stmt::For(f) => format!("loop {}", f.var.name()),
                            _ => "non-loop statement".to_string(),
                        }
                    )))
                }
            }
            all_serial &= current.kind == ForKind::Serial;
        }
        if !all_serial {
            return Err(ScheduleError::Precondition(
                "fuse requires serial loops".into(),
            ));
        }
        // l_k = (fused // prod_{j>k} E_j) % E_k  (outermost: no modulo).
        let mut map = VarMap::default();
        let mut div = 1i64;
        for (k, var) in vars.iter().enumerate().rev() {
            let mut e = Expr::from(&fused);
            if div != 1 {
                e = e.floor_div(div);
            }
            if k != 0 {
                e = e.floor_mod(extents[k]);
            }
            map.insert(var.clone(), e);
            div *= extents[k];
        }

        self.rewrite_loop(&loops[0], |outer: For| {
            let mut innermost = outer.body;
            for _ in &loops[1..] {
                if let Stmt::For(f) = innermost {
                    innermost = f.body;
                }
            }
            subst_stmt(&mut innermost, &map);
            let mut stmt = Stmt::For(Box::new(For::serial(fused.clone(), total, innermost)));
            simplify_stmt(&mut stmt);
            stmt
        })?;
        self.record(TraceStep::new(
            "fuse",
            vars.iter().map(|v| v.name().to_string().into()).collect(),
        ));
        Ok(LoopRef(fused))
    }

    /// Reorders loops on one nesting chain. `order` lists the loops in
    /// their desired new order (outermost first); loops on the chain that
    /// are not mentioned keep their positions.
    ///
    /// # Errors
    ///
    /// Fails when the loops do not lie on a single chain of perfectly
    /// nested loops.
    pub fn reorder(&mut self, order: &[LoopRef]) -> Result<()> {
        if order.len() < 2 {
            return Ok(());
        }
        // Find which of the referenced loops is outermost in the function.
        let target_vars: Vec<Var> = order.iter().map(|l| l.var().clone()).collect();
        let names: Vec<String> = target_vars.iter().map(|v| v.name().to_string()).collect();
        // The chain head: the first loop of the body, in pre-order, that is
        // one of the targets.
        let is_target = &mut |s: &Stmt| matches!(s, Stmt::For(f) if target_vars.contains(&f.var));
        let mut current = (self.func.body.find(is_target))
            .and_then(Stmt::as_for)
            .ok_or_else(|| ScheduleError::LoopNotFound(names.join(", ")))?;

        // Walk the chain on a borrow until every target is found.
        let head = LoopRef(current.var.clone());
        let mut chain_vars: Vec<&Var> = Vec::new();
        let mut found = 0usize;
        loop {
            found += usize::from(target_vars.contains(&current.var));
            chain_vars.push(&current.var);
            if found == target_vars.len() {
                break;
            }
            match &current.body {
                Stmt::For(f) => current = f,
                _ => {
                    return Err(ScheduleError::Precondition(format!(
                        "loops {names:?} are not on a single nesting chain"
                    )))
                }
            }
        }
        // Positions of targets get the new order; other loops stay put.
        let mut order_iter = target_vars.iter();
        let sources: Vec<usize> = chain_vars
            .iter()
            .map(|&v| {
                let wanted = if target_vars.contains(v) {
                    order_iter.next().expect("counted above")
                } else {
                    v
                };
                chain_vars
                    .iter()
                    .position(|&c| c == wanted)
                    .expect("target on chain")
            })
            .collect();

        self.rewrite_loop(&head, |outer: For| {
            // Peel the chain off the innermost body, then re-nest it.
            let mut chain: Vec<Option<For>> = Vec::with_capacity(sources.len());
            let mut current = Stmt::For(Box::new(outer));
            for _ in 0..sources.len() {
                if let Stmt::For(mut f) = current {
                    current = std::mem::replace(&mut f.body, Stmt::Seq(Vec::new()));
                    chain.push(Some(*f));
                }
            }
            for &from in sources.iter().rev() {
                let f = chain[from].take().expect("each loop is placed once");
                current = Stmt::For(Box::new(For { body: current, ..f }));
            }
            current
        })?;
        self.record(TraceStep::new(
            "reorder",
            names.into_iter().map(Into::into).collect(),
        ));
        Ok(())
    }

    fn set_loop_kind(
        &mut self,
        loop_ref: &LoopRef,
        kind: ForKind,
        prim: &'static str,
    ) -> Result<()> {
        self.rewrite_loop(loop_ref, |mut f: For| {
            f.kind = kind;
            Stmt::For(Box::new(f))
        })?;
        self.record(TraceStep::new(
            prim,
            vec![loop_ref.var().name().to_string().into()],
        ));
        Ok(())
    }

    /// Marks a loop parallel (CPU threads).
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn parallel(&mut self, loop_ref: &LoopRef) -> Result<()> {
        self.set_loop_kind(loop_ref, ForKind::Parallel, "parallel")
    }

    /// Maps a loop to SIMD lanes.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn vectorize(&mut self, loop_ref: &LoopRef) -> Result<()> {
        self.set_loop_kind(loop_ref, ForKind::Vectorized, "vectorize")
    }

    /// Requests full unrolling of a loop.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn unroll(&mut self, loop_ref: &LoopRef) -> Result<()> {
        self.set_loop_kind(loop_ref, ForKind::Unrolled, "unroll")
    }

    /// Binds a loop to a GPU thread axis.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn bind(&mut self, loop_ref: &LoopRef, tag: ThreadTag) -> Result<()> {
        self.rewrite_loop(loop_ref, |mut f: For| {
            f.kind = ForKind::ThreadBinding(tag);
            Stmt::For(Box::new(f))
        })?;
        self.record(TraceStep::new(
            "bind",
            vec![
                loop_ref.var().name().to_string().into(),
                tag.as_str().into(),
            ],
        ));
        Ok(())
    }

    /// Attaches an annotation to a loop.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn annotate(&mut self, loop_ref: &LoopRef, key: &str, value: tir::AnnValue) -> Result<()> {
        let key_owned = key.to_string();
        let value_copy = value.clone();
        self.rewrite_loop(loop_ref, |mut f: For| {
            f.annotations.insert(key_owned, value);
            Stmt::For(Box::new(f))
        })?;
        self.record(TraceStep::new(
            "annotate",
            vec![
                loop_ref.var().name().to_string().into(),
                key.into(),
                ann_to_arg(&value_copy),
            ],
        ));
        Ok(())
    }
}

/// Encodes an annotation value as a trace argument.
pub(crate) fn ann_to_arg(v: &tir::AnnValue) -> crate::trace::TraceArg {
    match v {
        tir::AnnValue::Int(i) => (*i).into(),
        tir::AnnValue::Str(s) => s.clone().into(),
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
        matmul_func("mm", 16, 16, 16, DataType::float32())
    }

    #[test]
    fn split_preserves_semantics() {
        let reference = mm();
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        let new = sch.split(&loops[0], &[4, 4]).expect("split");
        assert_eq!(new.len(), 2);
        assert_eq!(sch.get_loops(&block).expect("loops").len(), 4);
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
    }

    #[test]
    fn split_with_inferred_factor() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        let new = sch.split(&loops[1], &[-1, 8]).expect("split");
        assert_eq!(sch.loop_extent(&new[0]).expect("extent"), 2);
        assert_eq!(sch.loop_extent(&new[1]).expect("extent"), 8);
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
    }

    #[test]
    fn split_partial_tile_adds_predicate() {
        let reference = matmul_func("mm", 10, 10, 10, DataType::float32());
        let mut sch = Schedule::new(reference.clone());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        sch.split(&loops[0], &[4, 3]).expect("split 10 -> 4x3");
        let text = sch.func().to_string();
        assert!(text.contains("T.where"), "{text}");
        assert_same_semantics(&reference, sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn split_rejects_bad_factors() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        assert!(sch.split(&loops[0], &[4]).is_err());
        assert!(sch.split(&loops[0], &[-1, -1]).is_err());
        assert!(sch.split(&loops[0], &[2, 2]).is_err()); // covers only 4 < 16
        assert!(sch.split(&loops[0], &[0, 4]).is_err());
    }

    #[test]
    fn fuse_preserves_semantics() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        let fused = sch.fuse(&loops[0..2]).expect("fuse");
        assert_eq!(sch.loop_extent(&fused).expect("extent"), 256);
        assert_eq!(sch.get_loops(&block).expect("loops").len(), 2);
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn fuse_requires_perfect_nest() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        // loops[0] and loops[2] are not adjacent.
        let picked = vec![loops[0].clone(), loops[2].clone()];
        assert!(sch.fuse(&picked).is_err());
    }

    #[test]
    fn reorder_preserves_semantics() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        // k, j, i order.
        sch.reorder(&[loops[2].clone(), loops[1].clone(), loops[0].clone()])
            .expect("reorder");
        let new_loops = sch.get_loops(&block).expect("loops");
        assert_eq!(new_loops[0].var(), loops[2].var());
        assert_eq!(new_loops[2].var(), loops[0].var());
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn reorder_partial_keeps_unlisted_positions() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        // Swap only i and k; j stays in the middle.
        sch.reorder(&[loops[2].clone(), loops[0].clone()])
            .expect("reorder");
        let new_loops = sch.get_loops(&block).expect("loops");
        assert_eq!(new_loops[1].var(), loops[1].var());
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
    }

    #[test]
    fn split_then_reorder_then_fuse_pipeline() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        let io = sch.split(&loops[0], &[4, 4]).expect("split i");
        let jo = sch.split(&loops[1], &[4, 4]).expect("split j");
        sch.reorder(&[io[0].clone(), jo[0].clone(), io[1].clone(), jo[1].clone()])
            .expect("tile reorder");
        sch.fuse(&[io[0].clone(), jo[0].clone()]).expect("fuse");
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }

    #[test]
    fn annotations_and_kinds() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        sch.parallel(&loops[0]).expect("parallel");
        sch.vectorize(&loops[1]).expect("vectorize");
        sch.unroll(&loops[2]).expect("unroll");
        sch.annotate(&loops[2], "pragma_test", tir::AnnValue::Int(1))
            .expect("annotate");
        let infos = sch.loop_infos(&block).expect("infos");
        assert_eq!(infos[0].kind, ForKind::Parallel);
        assert_eq!(infos[1].kind, ForKind::Vectorized);
        assert_eq!(infos[2].kind, ForKind::Unrolled);
        // Reduction loop k is loops[2]; parallel i and vectorized j are
        // spatial — validation must still pass, and semantics hold.
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
    }

    #[test]
    fn bind_thread_axes() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        sch.bind(&loops[0], ThreadTag::BlockIdxX).expect("bind bx");
        sch.bind(&loops[1], ThreadTag::ThreadIdxX).expect("bind tx");
        tir_analysis::assert_valid(sch.func());
        assert_same_semantics(&mm(), sch.func(), 1, 0.0);
    }

    #[test]
    fn trace_records_steps() {
        let mut sch = Schedule::new(mm());
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        sch.split(&loops[0], &[4, 4]).expect("split");
        sch.parallel(&loops[1]).expect("parallel");
        let t = sch.trace().to_string();
        assert!(t.contains("split("), "{t}");
        assert!(t.contains("parallel("), "{t}");
    }
}
