//! CPU (ARM) sketch generation rules.
//!
//! * [`CpuTensorSketch`] — auto-tensorize with `sdot`, parallelize the
//!   outer tile loop across cores, and schedule the data-movement blocks.
//! * [`CpuScalarSketch`] — the TVM-without-sdot baseline: parallel outer
//!   spatial loop plus SIMD vectorization of an inner spatial loop.

use tir::{MemScope, PrimFunc};
use tir_schedule::{BlockRef, LoopRef, Schedule, ScheduleError};
use tir_tensorize::{auto_tensorize, TensorIntrin};

use crate::sketch::{Decision, DecisionKind, SketchRule};

/// Parallelizes a standalone block's outermost loop and vectorizes its
/// innermost loop when the extent allows.
pub(crate) fn cpu_flat_schedule(
    sch: &mut Schedule,
    block: &BlockRef,
    vector_width: i64,
) -> Result<(), ScheduleError> {
    let loops = sch.get_loops(block)?;
    if loops.is_empty() {
        return Ok(());
    }
    sch.parallel(&loops[0])?;
    if let [_, .., last] = loops.as_slice() {
        let extent = sch.loop_extent(last)?;
        if extent % vector_width == 0 && extent > vector_width {
            let parts = sch.split(last, &[-1, vector_width])?;
            sch.vectorize(&parts[1])?;
        } else if extent <= vector_width {
            sch.vectorize(last)?;
        }
    }
    Ok(())
}

/// The tensorized CPU sketch (`sdot` on ARM).
pub struct CpuTensorSketch {
    name: String,
    base: Schedule,
    outer_block: BlockRef,
    inner_name: String,
    dm_blocks: Vec<String>,
    input_staging: Vec<String>,
    other_blocks: Vec<String>,
    has_batch: bool,
    x_tiles: i64,
}

impl CpuTensorSketch {
    /// Builds the sketch by auto-tensorizing `block_name` with `intrin`.
    ///
    /// # Errors
    ///
    /// Fails when auto-tensorization fails.
    pub fn new(
        func: &PrimFunc,
        block_name: &str,
        intrin: &TensorIntrin,
    ) -> Result<Self, ScheduleError> {
        let t = auto_tensorize(func, block_name, intrin)?;
        let loops = t.schedule.get_loops(&t.outer_block)?;
        let has_batch = loops.len() == intrin.iters.len() + 1;
        let skip = usize::from(has_batch);
        let x_tiles = t.schedule.loop_extent(&loops[skip])?;
        let mut known: Vec<String> = t.data_movement_blocks.clone();
        known.push(t.outer_block.name().to_string());
        known.push(t.inner_block.name().to_string());
        known.push("root".to_string());
        let other_blocks: Vec<String> = tir::visit::block_names(&t.schedule.func().body)
            .into_iter()
            .filter(|n| !known.contains(n))
            .collect();
        Ok(CpuTensorSketch {
            name: format!("cpu-tensor[{}]", intrin.name),
            base: t.schedule,
            outer_block: t.outer_block,
            inner_name: t.inner_block.name().to_string(),
            dm_blocks: t.data_movement_blocks,
            input_staging: t.input_staging,
            other_blocks,
            has_batch,
            x_tiles,
        })
    }
}

impl SketchRule for CpuTensorSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> Vec<DecisionKind> {
        vec![
            DecisionKind::PerfectTile {
                extent: self.x_tiles,
                parts: 2,
            },
            DecisionKind::Choice {
                options: vec![4, 8, 16],
            },
        ]
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let mut sch = self.base.clone();
        let loops = sch.get_loops(&self.outer_block)?;
        let skip = usize::from(self.has_batch);
        let xs = sch.split(&loops[skip], &decisions[0])?;
        let y_loop = loops[skip + 1].clone();
        // Parallelize [b?, x0] across cores.
        let mut outer: Vec<LoopRef> = loops[..skip].to_vec();
        outer.push(xs[0].clone());
        let par = if outer.len() > 1 {
            sch.fuse(&outer)?
        } else {
            outer[0].clone()
        };
        sch.parallel(&par)?;
        // BLIS-style structure: accumulate the output tile in registers
        // across the k loop, and pack both operand panels so the compute
        // touches DRAM only for compulsory traffic.
        let inner = sch.get_block(self.inner_name.as_str())?;
        let wb = sch.cache_write(&inner, MemScope::Local, Some(&y_loop))?;
        sch.annotate_block(&wb, "auto_copy", tir::AnnValue::Int(1))?;
        let a_name = self.input_staging.first().cloned().unwrap_or_default();
        let b_name = self.input_staging.get(1).cloned().unwrap_or_default();
        let a_t = sch.find_buffer(&a_name).ok_or_else(|| {
            ScheduleError::Precondition(format!("{a_name} staging buffer missing"))
        })?;
        let b_t = sch.find_buffer(&b_name).ok_or_else(|| {
            ScheduleError::Precondition(format!("{b_name} staging buffer missing"))
        })?;
        let a_pack = sch.cache_read(&inner, &a_t, MemScope::Local, Some(&xs[1]))?;
        sch.annotate_block(&a_pack, "auto_copy", tir::AnnValue::Int(1))?;
        let b_pack = sch.cache_read(&inner, &b_t, MemScope::Local, None)?;
        sch.annotate_block(&b_pack, "auto_copy", tir::AnnValue::Int(1))?;
        // Inline the ReIndex stages into the packing copies (§4.2: they are
        // inlined into consumers and do not affect performance).
        for name in &self.dm_blocks {
            if name.ends_with("_reindex") {
                let block = sch.get_block(name)?;
                sch.compute_inline(&block)?;
            }
        }
        // Schedule the remaining data-movement blocks.
        let vw = decisions[1][0];
        for name in self
            .dm_blocks
            .iter()
            .filter(|n| !n.ends_with("_reindex"))
            .cloned()
            .collect::<Vec<_>>()
        {
            let block = sch.get_block(&name)?;
            cpu_flat_schedule(&mut sch, &block, vw)?;
        }
        cpu_flat_schedule(&mut sch, &b_pack, vw)?;
        // Schedule any remaining leaf blocks (padding stages, epilogues).
        for name in &self.other_blocks {
            if let Ok(block) = sch.get_block(name) {
                let _ = cpu_flat_schedule(&mut sch, &block, vw);
            }
        }
        tir_analysis::validate(sch.func())
            .map_err(|e| ScheduleError::Invalid(format!("{}", e[0])))?;
        Ok(sch.into_func())
    }
}

/// The scalar CPU sketch (TVM-like, no `sdot`).
pub struct CpuScalarSketch {
    name: String,
    base: Schedule,
    /// Leaf blocks: (name, spatial loop count, reduce loop count).
    blocks: Vec<(String, usize, usize)>,
}

impl CpuScalarSketch {
    /// Builds the sketch for every leaf block of `func`.
    pub fn new(func: &PrimFunc) -> Self {
        let mut blocks = Vec::new();
        tir::visit::for_each_block_realize(&func.body, &mut |br| {
            if br.block.name == "root" {
                return;
            }
            let spatial = br
                .block
                .iter_vars
                .iter()
                .filter(|iv| iv.kind == tir::IterKind::Spatial)
                .count();
            let reduce = br.block.iter_vars.len() - spatial;
            blocks.push((br.block.name.clone(), spatial, reduce));
        });
        CpuScalarSketch {
            name: "cpu-scalar".to_string(),
            base: Schedule::new(func.clone()),
            blocks,
        }
    }
}

impl SketchRule for CpuScalarSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> Vec<DecisionKind> {
        self.blocks
            .iter()
            .map(|_| DecisionKind::Choice {
                options: vec![4, 8, 16],
            })
            .collect()
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let mut sch = self.base.clone();
        for ((name, n_spatial, n_reduce), d) in self.blocks.iter().zip(decisions) {
            let block = sch.get_block(name)?;
            let loops = sch.get_loops(&block)?;
            if loops.is_empty() {
                continue;
            }
            // Parallelize the fused spatial prefix (all spatial loops except
            // the one reserved for vectorization) across cores.
            let prefix_len = if *n_spatial >= 2 {
                n_spatial - 1
            } else {
                1.min(loops.len())
            };
            let par = if prefix_len > 1 {
                sch.fuse(&loops[..prefix_len])?
            } else {
                loops[0].clone()
            };
            sch.parallel(&par)?;
            // Register accumulator + weight hoisting (what Ansor-style
            // scalar schedules do): the second operand (weights) is staged
            // once; the first operand is streamed from DRAM — no explicit
            // packing, which is the baseline's key inefficiency vs the
            // tensorized pipeline.
            if *n_reduce >= 1 {
                let weight = {
                    let br = tir::visit::find_block(&sch.func().body, name)
                        .ok_or_else(|| ScheduleError::BlockNotFound(name.clone()))?;
                    br.block.reads.get(1).map(|r| r.buffer.clone())
                };
                let _ = sch.cache_write(&block, MemScope::Local, Some(&par));
                if let Some(w) = weight {
                    let _ = sch.cache_read(&block, &w, MemScope::Local, None);
                }
            }
            // Move the last spatial loop innermost (past the reductions)
            // and vectorize it.
            if *n_spatial >= 2 && *n_reduce >= 1 && loops.len() >= n_spatial + n_reduce {
                let last_spatial = loops[n_spatial - 1].clone();
                let mut order: Vec<LoopRef> = loops[*n_spatial..(*n_spatial + *n_reduce)].to_vec();
                order.push(last_spatial.clone());
                sch.reorder(&order)?;
                let extent = sch.loop_extent(&last_spatial)?;
                let vw = d[0];
                if extent % vw == 0 && extent > vw {
                    let parts = sch.split(&last_spatial, &[-1, vw])?;
                    sch.vectorize(&parts[1])?;
                } else if extent <= vw {
                    sch.vectorize(&last_spatial)?;
                }
            }
        }
        tir_analysis::validate(sch.func())
            .map_err(|e| ScheduleError::Invalid(format!("{}", e[0])))?;
        Ok(sch.into_func())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::DataType;
    use tir_exec::{assert_same_semantics, simulate, Machine};
    use tir_rand::rngs::StdRng;
    use tir_rand::SeedableRng;
    use tir_tensorize::builtin_registry;

    fn qmm(n: i64) -> PrimFunc {
        tir_workloads::gmm(n, n, n, DataType::int8(), DataType::int32())
    }

    #[test]
    fn cpu_tensor_sketch_valid_and_fast() {
        let func = qmm(32);
        let reg = builtin_registry();
        let sdot = reg.get("sdot_4x4x4_i8").unwrap();
        let sketch = CpuTensorSketch::new(&func, "C", sdot).expect("sketch");
        let mut rng = StdRng::seed_from_u64(1);
        let machine = Machine::sim_arm();
        let d = sketch.sample(&mut rng);
        let f = sketch.apply(&d).expect("apply");
        assert_same_semantics(&func, &f, 1, 0.0);
        assert!(simulate(&f, &machine) > 0.0);
    }

    #[test]
    fn cpu_tensor_beats_scalar() {
        let func = qmm(64);
        let reg = builtin_registry();
        let sdot = reg.get("sdot_4x4x4_i8").unwrap();
        let tensor = CpuTensorSketch::new(&func, "C", sdot).expect("sketch");
        let scalar = CpuScalarSketch::new(&func);
        let machine = Machine::sim_arm();
        let mut rng = StdRng::seed_from_u64(2);
        let best = |sketch: &dyn SketchRule, rng: &mut StdRng| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..10 {
                let d = sketch.sample(rng);
                if let Ok(f) = sketch.apply(&d) {
                    best = best.min(simulate(&f, &machine));
                }
            }
            best
        };
        let tt = best(&tensor, &mut rng);
        let ts = best(&scalar, &mut rng);
        assert!(tt < ts, "sdot {tt} should beat scalar {ts}");
    }

    #[test]
    fn scalar_sketch_is_semantics_preserving() {
        let func = tir_workloads::c2d(1, 8, 8, 4, 8, 3, 3, 1, DataType::float32());
        let sketch = CpuScalarSketch::new(&func);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let d = sketch.sample(&mut rng);
            let f = sketch.apply(&d).expect("apply");
            assert_same_semantics(&func, &f, 1, 0.0);
        }
    }

    #[test]
    fn vectorized_loops_appear() {
        let func = qmm(64);
        let sketch = CpuScalarSketch::new(&func);
        let mut rng = StdRng::seed_from_u64(4);
        let d = sketch.sample(&mut rng);
        let f = sketch.apply(&d).expect("apply");
        let mut has_vec = false;
        let mut has_par = false;
        fn walk(s: &tir::Stmt, v: &mut bool, p: &mut bool) {
            if let tir::Stmt::For(fr) = s {
                *v |= fr.kind == tir::ForKind::Vectorized;
                *p |= fr.kind == tir::ForKind::Parallel;
            }
            s.children().for_each(|child| walk(child, v, p));
        }
        walk(&f.body, &mut has_vec, &mut has_par);
        assert!(has_par, "parallel loop expected");
        assert!(has_vec, "vectorized loop expected:\n{f}");
    }
}
