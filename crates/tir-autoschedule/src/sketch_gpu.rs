//! GPU sketch generation rules (§4.3).
//!
//! Two structural templates:
//!
//! * [`GpuTensorSketch`] — the paper's tensorized sketch: auto-tensorize,
//!   multi-level tile the outer loops, bind grid/warp axes, stage operands
//!   through shared memory and tensor-core fragments via AutoCopy blocks,
//!   and inline the ReIndex stages into the copies. With `staged = false`
//!   it degrades into the AMOS-like baseline (tensor cores without
//!   first-class data movement: no shared staging, ReIndex stages remain
//!   materialized in global memory, copies are not cooperative).
//! * [`GpuScalarSketch`] — the Ansor/TVM-like scalar sketch: fuse spatial
//!   loops and bind them flat to the grid, leaving reductions serial; no
//!   tensor intrinsics.

use std::collections::HashMap;
use std::sync::Mutex;

use tir::{AnnValue, MemScope, PrimFunc, ThreadTag};
use tir_schedule::{BlockRef, LoopRef, Schedule, ScheduleError};
use tir_tensorize::{auto_tensorize, TensorIntrin, Tensorized};

use crate::sketch::{Decision, DecisionKind, SketchRule};

/// Largest *radix-aligned* cut of a fused loop that is `<= cap`.
///
/// Splitting a loop fused from extents `e_0 x .. x e_n` at factor `t`
/// keeps the re-derived bindings quasi-affine only when `t = r_k * d`
/// where `r_k` is a suffix product of the extents and `d` divides the next
/// extent (the digit boundary condition of the iterator-map algebra).
pub(crate) fn aligned_cut(extents: &[i64], cap: i64) -> i64 {
    aligned_cuts(extents, cap).into_iter().max().unwrap_or(1)
}

/// All radix-aligned cuts of a fused loop up to `cap`.
pub(crate) fn aligned_cuts(extents: &[i64], cap: i64) -> Vec<i64> {
    let mut cuts = vec![1i64];
    let mut radix = 1i64;
    for &e in extents.iter().rev() {
        // `radix * d` only grows with `d`: past the cap nothing is kept.
        let mut d = 1;
        while d <= e && radix * d <= cap {
            if e % d == 0 && !cuts.contains(&(radix * d)) {
                cuts.push(radix * d);
            }
            d += 1;
        }
        radix *= e;
        if radix > cap {
            break;
        }
    }
    #[cfg(test)]
    tests::assert_every_divisor_scan_agrees(extents, cap, &cuts);
    cuts
}

/// Binds a standalone (data-movement or epilogue) block's loops flat to
/// `blockIdx.x`/`threadIdx.x` with the given thread count.
pub(crate) fn gpu_flat_bind(
    sch: &mut Schedule,
    block: &BlockRef,
    threads: i64,
) -> Result<(), ScheduleError> {
    let loops = sch.get_loops(block)?;
    if loops.is_empty() {
        return Ok(());
    }
    let extents: Vec<i64> = loops
        .iter()
        .map(|l| sch.loop_extent(l))
        .collect::<Result<_, _>>()?;
    let fused = if loops.len() > 1 {
        sch.fuse(&loops)?
    } else {
        loops[0].clone()
    };
    let t = aligned_cut(&extents, threads);
    let parts = sch.split(&fused, &[-1, t])?;
    sch.bind(&parts[0], ThreadTag::BlockIdxX)?;
    sch.bind(&parts[1], ThreadTag::ThreadIdxX)?;
    Ok(())
}

/// The tensorized GPU sketch.
pub struct GpuTensorSketch {
    name: String,
    /// The auto-tensorized schedule with the steps no decision reads
    /// already taken (see [`GpuTensorSketch::new`]).
    base: Schedule,
    outer_block: BlockRef,
    inner_block: BlockRef,
    dm_blocks: Vec<String>,
    input_staging: Vec<String>,
    /// The step `new` could not take, when one failed: the position in
    /// `dm_blocks` of the block it failed on, and its error. `apply`
    /// returns the error on reaching that block, where it took the step
    /// itself before `new` did.
    unbound: Option<(usize, ScheduleError)>,
    has_batch: bool,
    tile_extents: Vec<i64>,
    /// Stage operands through shared memory (TensorIR) or not (AMOS-like).
    staged: bool,
}

impl GpuTensorSketch {
    /// Builds the sketch by auto-tensorizing `func`'s block `block_name`
    /// with `intrin`.
    ///
    /// Then it takes, once, the steps of a candidate that no decision
    /// reads: it flat-binds the output write-back, the AMOS-like variant's
    /// ReIndex stages (TensorIR inlines them per candidate instead) and
    /// every other leaf block (fused epilogues, padding stages; a failure
    /// there leaves that block as far as it got, as `apply` always did).
    /// `apply` keeps the steps a decision reads and runs them on the
    /// result. Binding a data-movement block cannot fail on what
    /// [`auto_tensorize`] builds: the block exists and its nest is a
    /// perfect nest of serial loops of constant extent, which `fuse`,
    /// `split` at a radix-aligned cut and `bind` all accept. Should one
    /// fail all the same, the base stays as auto-tensorization left it
    /// and every `apply` returns that error at the point it took the step
    /// itself; the sketch is kept, so the other sketches' share of trials
    /// does not move.
    ///
    /// # Errors
    ///
    /// Fails when auto-tensorization fails.
    pub fn new(
        func: &PrimFunc,
        block_name: &str,
        intrin: &TensorIntrin,
        staged: bool,
    ) -> Result<Self, ScheduleError> {
        Self::from_tensorized(auto_tensorize(func, block_name, intrin)?, intrin, staged)
    }

    /// [`GpuTensorSketch::new`] after auto-tensorization.
    fn from_tensorized(
        t: Tensorized,
        intrin: &TensorIntrin,
        staged: bool,
    ) -> Result<Self, ScheduleError> {
        let loops = t.schedule.get_loops(&t.outer_block)?;
        let tile_extents: Vec<i64> = loops
            .iter()
            .map(|l| t.schedule.loop_extent(l))
            .collect::<Result<_, _>>()?;
        let has_batch = tile_extents.len() == intrin.iters.len() + 1;
        let mut known: Vec<String> = t.data_movement_blocks.clone();
        known.push(t.outer_block.name().to_string());
        known.push(t.inner_block.name().to_string());
        known.push("root".to_string());
        let other_blocks: Vec<String> = tir::visit::block_names(&t.schedule.func().body)
            .into_iter()
            .filter(|n| !known.contains(n))
            .collect();
        // The write-back of the valid output region, and the AMOS-like
        // variant's ReIndex stages, which stay global passes.
        let mut base = t.schedule.clone();
        let unbound = (t.data_movement_blocks.iter().enumerate())
            .filter(|(_, name)| !(staged && name.ends_with("_reindex")))
            .find_map(|(i, name)| {
                let bound = (base.get_block(name)).and_then(|b| gpu_flat_bind(&mut base, &b, 128));
                bound.err().map(|e| (i, e))
            });
        if unbound.is_some() {
            base = t.schedule;
        } else {
            // Flat-bind the remaining leaf blocks so no part of the
            // function runs serially on the host.
            for name in &other_blocks {
                if let Ok(block) = base.get_block(name) {
                    let _ = gpu_flat_bind(&mut base, &block, 128);
                }
            }
        }
        Ok(GpuTensorSketch {
            name: if staged {
                format!("gpu-tensor[{}]", intrin.name)
            } else {
                format!("gpu-tensor-nostage[{}]", intrin.name)
            },
            base,
            outer_block: t.outer_block,
            inner_block: t.inner_block,
            dm_blocks: t.data_movement_blocks,
            input_staging: t.input_staging,
            unbound,
            has_batch,
            tile_extents,
            staged,
        })
    }
}

impl SketchRule for GpuTensorSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> Vec<DecisionKind> {
        let skip = usize::from(self.has_batch);
        // x and y tiles in 3 parts (grid / warps / serial), k in 2 parts.
        vec![
            DecisionKind::PerfectTile {
                extent: self.tile_extents[skip],
                parts: 3,
            },
            DecisionKind::PerfectTile {
                extent: self.tile_extents[skip + 1],
                parts: 3,
            },
            DecisionKind::PerfectTile {
                extent: self.tile_extents[skip + 2],
                parts: 2,
            },
        ]
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let (xd, yd, kd) = (&decisions[0], &decisions[1], &decisions[2]);
        // Warp count must stay within launch limits. A function of the
        // decisions alone, so it is checked before paying for a copy of
        // the base schedule.
        let warps = xd[1] * yd[1];
        if warps > 32 {
            return Err(ScheduleError::Precondition(format!(
                "{warps} warps exceed the launch budget"
            )));
        }
        let mut sch = self.base.clone();
        let loops = sch.get_loops(&self.outer_block)?;
        let skip = usize::from(self.has_batch);
        let xs = sch.split(&loops[skip], xd)?;
        let ys = sch.split(&loops[skip + 1], yd)?;
        let ks = sch.split(&loops[skip + 2], kd)?;
        // Order: [b?] x0 y0 | x1 y1 | k0 k1 | x2 y2.
        let mut order: Vec<LoopRef> = Vec::new();
        order.extend(loops[..skip].iter().cloned());
        order.extend([xs[0].clone(), ys[0].clone()]);
        order.extend([xs[1].clone(), ys[1].clone()]);
        order.extend([ks[0].clone(), ks[1].clone()]);
        order.extend([xs[2].clone(), ys[2].clone()]);
        sch.reorder(&order)?;
        // Grid binding: fuse [b?, x0, y0] -> blockIdx.x.
        let mut grid_loops: Vec<LoopRef> = loops[..skip].to_vec();
        grid_loops.extend([xs[0].clone(), ys[0].clone()]);
        let bid = if grid_loops.len() > 1 {
            sch.fuse(&grid_loops)?
        } else {
            grid_loops[0].clone()
        };
        sch.bind(&bid, ThreadTag::BlockIdxX)?;
        // Warp binding: fuse [x1, y1] -> threadIdx.y.
        let wid = sch.fuse(&[xs[1].clone(), ys[1].clone()])?;
        sch.bind(&wid, ThreadTag::ThreadIdxY)?;

        // Accumulator fragment, written back after the k loops.
        let wb = sch.cache_write(&self.inner_block, MemScope::WmmaAccumulator, Some(&wid))?;
        sch.annotate_block(&wb, "auto_copy", AnnValue::Int(1))?;
        sch.annotate_block(&wb, "tir.cooperative", AnnValue::Int(32))?;

        // Operand staging.
        for (pos, input) in self.input_staging.iter().enumerate() {
            let buf = sch.find_buffer(input).ok_or_else(|| {
                ScheduleError::Precondition(format!("staging buffer {input} missing"))
            })?;
            let frag_scope = if pos == 0 {
                MemScope::WmmaMatrixA
            } else {
                MemScope::WmmaMatrixB
            };
            if self.staged {
                let sh = sch.cache_read(&self.inner_block, &buf, MemScope::Shared, Some(&ks[0]))?;
                sch.annotate_block(&sh, "auto_copy", AnnValue::Int(1))?;
                sch.annotate_block(&sh, "tir.cooperative", AnnValue::Int(warps * 32))?;
                let sh_buf = sch.find_buffer(&format!("{input}_shared")).ok_or_else(|| {
                    ScheduleError::Precondition("shared staging buffer missing".into())
                })?;
                let frag = sch.cache_read(&self.inner_block, &sh_buf, frag_scope, Some(&ks[1]))?;
                sch.annotate_block(&frag, "auto_copy", AnnValue::Int(1))?;
                sch.annotate_block(&frag, "tir.cooperative", AnnValue::Int(32))?;
            } else {
                let frag = sch.cache_read(&self.inner_block, &buf, frag_scope, Some(&ks[1]))?;
                sch.annotate_block(&frag, "tir.cooperative", AnnValue::Int(32))?;
            }
        }

        // Data-movement blocks at function scope: ReIndex stages and the
        // write-back. TensorIR inlines the input ReIndex stages into their
        // consumers (§4.2: "they will be inlined into consumers"); `new`
        // has bound the others.
        for (i, name) in self.dm_blocks.iter().enumerate() {
            if let Some((_, e)) = self.unbound.as_ref().filter(|(at, _)| *at == i) {
                return Err(e.clone());
            }
            if self.staged && name.ends_with("_reindex") {
                let block = sch.get_block(name)?;
                sch.compute_inline(&block)?;
            }
        }
        tir_analysis::validate(sch.func())
            .map_err(|e| ScheduleError::Invalid(format!("{}", e[0])))?;
        Ok(sch.into_func())
    }
}

/// The scalar (Ansor/TVM-like) GPU sketch.
///
/// Many of its decision vectors denote one schedule: the thread count and
/// serial step are cut to radix-aligned factors of the fused extents, and
/// a reduction split that does not divide is dropped.
/// [`GpuScalarSketch::effective`] names what a vector denotes, and `apply`
/// builds from that form alone and keeps the build, so a repeated form is
/// answered from memory with what a fresh build would return: the same
/// program or the same error. A build also keeps, per block that ran
/// staging attempts, the program after them, and a later form that shares
/// the decisions up to that block's thread count and step resumes from
/// it. The memo lives as long as the sketch (one tune, when
/// [`crate::build_sketches`] made it) and holds one entry per distinct form
/// and staged prefix asked for. Callers cannot tell it is there, so a
/// wrapper that forwards `apply` keeps it.
pub struct GpuScalarSketch {
    name: String,
    base: Schedule,
    /// Leaf blocks to schedule, in apply order.
    blocks: Vec<ScalarBlock>,
    /// What builds kept, keyed by a form or one of its prefixes. Two
    /// threads sharing the sketch and asking for a new key at once may both
    /// build it; the first to finish is kept, and the two builds are equal
    /// by construction.
    memo: Mutex<HashMap<Vec<Decision>, Memo>>,
}

/// What [`GpuScalarSketch`]'s memo keeps under a key. A block's state after
/// its staging attempts depends on the form only up to its own thread
/// count and step: on `form[..3 * i + 2]` for block `i`. That length is
/// never a multiple of three, so prefix keys never meet whole forms.
enum Memo {
    /// Under a whole effective form: what `apply` returns for it.
    Built(Result<PrimFunc, ScheduleError>),
    /// Under the prefix of a block that ran staging attempts: the state
    /// after them, before the block's reduction split.
    Staged(Staged),
}

/// A build's state after one block's staging attempts: the program, not
/// the trace of the primitives that made it.
#[derive(Clone)]
struct Staged {
    func: PrimFunc,
    /// The block's first reduction loop, which its `k` split cuts.
    reduce_loop: LoopRef,
    /// `func` is exactly a program a passing staging `validate` accepted.
    validated: bool,
}

/// A block of [`GpuScalarSketch`] and the loop extents its decisions are
/// cut against, read once from the unscheduled function.
struct ScalarBlock {
    name: String,
    /// Its leading spatial loops: the nest `apply` fuses and binds.
    n_spatial: usize,
    /// Its reduction loops, which follow the spatial ones.
    n_reduce: usize,
    /// Extents of the spatial loops and of the first reduction loop (when
    /// there is one), or the error reading them raised.
    extents: Result<(Vec<i64>, Option<i64>), ScheduleError>,
}

impl GpuScalarSketch {
    /// Builds the sketch for every leaf block of `func`.
    pub fn new(func: &PrimFunc) -> Self {
        let base = Schedule::new(func.clone());
        let mut blocks = Vec::new();
        tir::visit::for_each_block_realize(&func.body, &mut |br| {
            if br.block.name == "root" {
                return;
            }
            let n_spatial = br
                .block
                .iter_vars
                .iter()
                .filter(|iv| iv.kind == tir::IterKind::Spatial)
                .count();
            let n_reduce = br.block.iter_vars.len() - n_spatial;
            let extents = || -> Result<_, ScheduleError> {
                let loops = base.get_loops(&base.get_block(&br.block.name)?)?;
                let spatial: Vec<i64> = (loops[..n_spatial.min(loops.len())].iter())
                    .map(|l| base.loop_extent(l))
                    .collect::<Result<_, _>>()?;
                let reduce = match loops.get(n_spatial) {
                    Some(l) if n_reduce > 0 && !spatial.is_empty() => Some(base.loop_extent(l)?),
                    _ => None,
                };
                Ok((spatial, reduce))
            };
            blocks.push(ScalarBlock {
                name: br.block.name.clone(),
                n_spatial,
                n_reduce,
                extents: extents(),
            });
        });
        GpuScalarSketch {
            name: "gpu-scalar".to_string(),
            base,
            blocks,
            memo: Mutex::default(),
        }
    }

    /// Per block, `[threads] [step] [k]` as `apply` uses them: the thread
    /// count and serial step after both cuts of the fused spatial loop are
    /// radix-aligned, and the reduction split factor, or 1 where it does
    /// not divide the first reduction loop. A block `apply` skips (no
    /// spatial loop, or extents that could not be read) reads nothing and
    /// is `[1] [1] [1]`. `None` for a vector not shaped like the space.
    pub fn effective(&self, decisions: &[Decision]) -> Option<Vec<Decision>> {
        if decisions.len() != 3 * self.blocks.len() || decisions.iter().any(Vec::is_empty) {
            return None;
        }
        let per_block = self.blocks.iter().zip(decisions.chunks(3));
        let forms = per_block.flat_map(|(block, d)| {
            let (threads, step, k) = match &block.extents {
                Ok((spatial, reduce)) if !spatial.is_empty() => {
                    // Serial register-tiling step below the thread loop:
                    // both cut points of the three-way split must be
                    // radix-aligned.
                    let step = aligned_cut(spatial, d[1][0]);
                    let outer_cut = aligned_cuts(spatial, step * d[0][0])
                        .into_iter()
                        .filter(|c| c % step == 0)
                        .max()
                        .unwrap_or(step);
                    let k = match *reduce {
                        Some(e) if d[2][0] > 1 && e % d[2][0] == 0 && e > d[2][0] => d[2][0],
                        _ => 1,
                    };
                    ((outer_cut / step).max(1), step, k)
                }
                _ => (1, 1, 1),
            };
            [vec![threads], vec![step], vec![k]]
        });
        Some(forms.collect())
    }

    /// The memo, also after an `apply` panicked holding it.
    fn memo(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<Decision>, Memo>> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds the program of an effective form; reads nothing else. It
    /// resumes from the deepest prefix of `form` a build staged, and stages
    /// the prefixes of the blocks it runs staging attempts for.
    fn build(&self, form: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        // `validated`: the program is exactly one a passing staging
        // `validate` accepted. Every rewrite clears it, a passing
        // `validate` sets it, and a rollback restores it with the backup.
        let (mut sch, mut validated, first) = match self.deepest_staged(form) {
            Some((i, staged)) => {
                let mut sch = Schedule::new(staged.func);
                let mut validated = staged.validated;
                split_reduction(
                    &mut sch,
                    &staged.reduce_loop,
                    form[3 * i + 2][0],
                    &mut validated,
                );
                (sch, validated, i + 1)
            }
            None => (self.base.clone(), false, 0),
        };
        let blocks = self.blocks.iter().zip(form.chunks(3)).enumerate();
        for (i, (b, f)) in blocks.skip(first) {
            let (threads, step, k_factor) = (f[0][0], f[1][0], f[2][0]);
            let (name, n_spatial) = (&b.name, b.n_spatial);
            let block = sch.get_block(name)?;
            let loops = sch.get_loops(&block)?;
            let spatial: Vec<LoopRef> = loops[..n_spatial.min(loops.len())].to_vec();
            if spatial.is_empty() {
                continue;
            }
            let (extents, _) = b.extents.as_ref().map_err(Clone::clone)?;
            debug_assert!(
                (spatial.iter().map(|l| sch.loop_extent(l).ok()))
                    .eq(extents.iter().map(|&e| Some(e))),
                "block {name}: loops moved since the sketch read them"
            );
            let reduce_loops: Vec<LoopRef> = loops
                .get(n_spatial..(n_spatial + b.n_reduce).min(loops.len()))
                .map(<[LoopRef]>::to_vec)
                .unwrap_or_default();
            validated = false;
            let fused = if spatial.len() > 1 {
                sch.fuse(&spatial)?
            } else {
                spatial[0].clone()
            };
            let parts = if step > 1 {
                let p = sch.split(&fused, &[-1, threads, step])?;
                vec![p[0].clone(), p[1].clone()]
            } else {
                sch.split(&fused, &[-1, threads])?
            };
            sch.bind(&parts[0], ThreadTag::BlockIdxX)?;
            sch.bind(&parts[1], ThreadTag::ThreadIdxX)?;
            // Ansor-style register accumulation and cooperative shared
            // staging of the inputs around the reduction loops.
            if !reduce_loops.is_empty() {
                let read_bufs: Vec<tir::Buffer> = {
                    let br = tir::visit::find_block(&sch.func().body, name)
                        .ok_or_else(|| ScheduleError::BlockNotFound(name.clone()))?;
                    br.block.reads.iter().map(|r| r.buffer.clone()).collect()
                };
                // Each staging step is speculative: accesses with negative
                // index coefficients (e.g. T2D's flipped kernel) cannot be
                // staged soundly, so keep a step only if the program still
                // validates.
                let attempt = |sch: &mut Schedule,
                               validated: &mut bool,
                               f: &dyn Fn(&mut Schedule) -> bool| {
                    let backup = (sch.clone(), *validated);
                    if f(sch) && tir_analysis::validate(sch.func()).is_ok() {
                        *validated = true;
                    } else {
                        (*sch, *validated) = backup;
                    }
                };
                attempt(&mut sch, &mut validated, &|s| {
                    s.cache_write(&block, MemScope::Local, Some(&parts[1]))
                        .is_ok()
                });
                for buf in read_bufs {
                    attempt(&mut sch, &mut validated, &|s| match s.cache_read(
                        &block,
                        &buf,
                        MemScope::Shared,
                        Some(&reduce_loops[0]),
                    ) {
                        Ok(copy) => {
                            let _ = s.annotate_block(&copy, "auto_copy", AnnValue::Int(1));
                            let _ =
                                s.annotate_block(&copy, "tir.cooperative", AnnValue::Int(threads));
                            true
                        }
                        Err(_) => false,
                    });
                }
                let staged = Staged {
                    func: sch.func().clone(),
                    reduce_loop: reduce_loops[0].clone(),
                    validated,
                };
                (self.memo().entry(form[..3 * i + 2].to_vec())).or_insert(Memo::Staged(staged));
                // Optional serial two-level reduction split (after staging
                // so the staging loop reference stays valid).
                split_reduction(&mut sch, &reduce_loops[0], k_factor, &mut validated);
            }
        }
        if validated {
            #[cfg(test)]
            tests::assert_skipped_validate_passes(sch.func());
        } else {
            tir_analysis::validate(sch.func())
                .map_err(|e| ScheduleError::Invalid(format!("{}", e[0])))?;
        }
        Ok(sch.into_func())
    }

    /// The deepest block whose prefix of `form` the memo holds staged, and
    /// its state.
    fn deepest_staged(&self, form: &[Decision]) -> Option<(usize, Staged)> {
        let memo = self.memo();
        (0..self.blocks.len())
            .rev()
            .find_map(|i| match memo.get(&form[..3 * i + 2]) {
                Some(Memo::Staged(staged)) => Some((i, staged.clone())),
                _ => None,
            })
    }
}

/// The optional serial two-level split of a block's first reduction loop.
/// A split that fails leaves the program as it was.
fn split_reduction(sch: &mut Schedule, reduce_loop: &LoopRef, k_factor: i64, validated: &mut bool) {
    if k_factor > 1 && sch.split(reduce_loop, &[-1, k_factor]).is_ok() {
        *validated = false;
    }
}

impl SketchRule for GpuScalarSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> Vec<DecisionKind> {
        // Per block: thread count, serial step, and reduction split — the
        // flat scalar space is much larger than the tensorized one, which
        // is exactly the paper's divide-and-conquer argument (§5.2).
        self.blocks
            .iter()
            .flat_map(|_| {
                [
                    DecisionKind::Choice {
                        options: vec![32, 64, 128, 256],
                    },
                    DecisionKind::Choice {
                        options: vec![1, 2, 4, 8],
                    },
                    DecisionKind::Choice {
                        options: vec![1, 2, 4, 8],
                    },
                ]
            })
            .collect()
    }

    /// Builds `decisions`' effective form, once per form (see the type).
    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let form = self.effective(decisions).ok_or_else(|| {
            ScheduleError::Precondition(format!(
                "{} decisions for {} blocks",
                decisions.len(),
                self.blocks.len()
            ))
        })?;
        if let Some(Memo::Built(built)) = self.memo().get(&form) {
            return built.clone();
        }
        let built = self.build(&form);
        match self.memo().entry(form).or_insert(Memo::Built(built)) {
            Memo::Built(built) => built.clone(),
            Memo::Staged(_) => unreachable!("a whole form is never a staged prefix"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::decisions_well_formed;
    use tir::DataType;
    use tir_exec::{assert_same_semantics, simulate, Machine};
    use tir_rand::rngs::StdRng;
    use tir_rand::SeedableRng;
    use tir_tensorize::builtin_registry;

    thread_local! {
        /// `aligned_cuts` results this thread compared against the old scan.
        static CUT_SCANS_COMPARED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// Builds this thread re-validated after they skipped `validate`.
        static SKIPPED_VALIDATES_CHECKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Applies every sketch of both targets to the 40 seeded vectors of
    /// `tests/sketch_apply_golden.rs`, so that every `aligned_cuts` call the
    /// golden corpus makes is checked by [`assert_every_divisor_scan_agrees`].
    #[test]
    fn aligned_cuts_equal_the_full_divisor_scan_on_the_golden_corpus() {
        let reg = builtin_registry();
        let targets = [
            (Machine::sim_gpu(), DataType::float16()),
            (Machine::sim_arm(), DataType::int8()),
        ];
        let (mut vectors, mut scalar_vectors) = (0, 0);
        for (machine, dtype) in &targets {
            for case in tir_workloads::bench_suite(*dtype) {
                let sketches =
                    crate::build_sketches(&case.func, machine, &reg, crate::Strategy::TensorIr);
                for sketch in sketches {
                    for seed in 0..40 {
                        let d = sketch.sample(&mut StdRng::seed_from_u64(seed));
                        let _ = sketch.apply(&d);
                        vectors += 1;
                        scalar_vectors += usize::from(sketch.name() == "gpu-scalar");
                    }
                }
            }
        }
        assert_eq!((vectors, scalar_vectors), (1280, 320));
        // Two cut searches per scheduled scalar block, one per flat bind.
        let scans = CUT_SCANS_COMPARED.with(std::cell::Cell::get);
        assert!(scans >= 320 * 2, "only {scans} cut scans compared");
    }

    /// Called by every `aligned_cuts` of a test build: the bounded divisor
    /// scan kept exactly the cuts the scan of every `d <= e` keeps. The
    /// corpus test above makes it see every extent list and cap the golden
    /// corpus asks for.
    pub(super) fn assert_every_divisor_scan_agrees(extents: &[i64], cap: i64, cuts: &[i64]) {
        let mut want = vec![1i64];
        let mut radix = 1i64;
        for &e in extents.iter().rev() {
            for d in (1..=e).filter(|d| e % d == 0) {
                let cut = radix * d;
                if cut <= cap && !want.contains(&cut) {
                    want.push(cut);
                }
            }
            radix *= e;
            if radix > cap {
                break;
            }
        }
        assert_eq!(cuts, want, "extents {extents:?}, cap {cap}");
        CUT_SCANS_COMPARED.with(|c| c.set(c.get() + 1));
    }

    /// Called by every build that skipped its final `validate` because a
    /// staging attempt's passing `validate` saw exactly that program: the
    /// program validates.
    pub(super) fn assert_skipped_validate_passes(func: &PrimFunc) {
        if let Err(e) = tir_analysis::validate(func) {
            panic!(
                "a build skipped the validate of an invalid program: {}",
                e[0]
            );
        }
        SKIPPED_VALIDATES_CHECKED.with(|c| c.set(c.get() + 1));
    }

    fn mm16(n: i64) -> PrimFunc {
        tir::builder::matmul_func("mm", n, n, n, DataType::float16())
    }

    #[test]
    fn tensor_sketch_produces_valid_fast_programs() {
        let func = mm16(64);
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let sketch = GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch");
        let mut rng = StdRng::seed_from_u64(1);
        let machine = Machine::sim_gpu();
        let mut ok = 0;
        for _ in 0..10 {
            let d = sketch.sample(&mut rng);
            assert!(decisions_well_formed(&sketch.space(), &d));
            match sketch.apply(&d) {
                Ok(f) => {
                    ok += 1;
                    assert_same_semantics(&func, &f, 1, 0.0);
                    let t = simulate(&f, &machine);
                    assert!(t.is_finite() && t > 0.0);
                }
                Err(ScheduleError::Precondition(_)) | Err(ScheduleError::Invalid(_)) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(ok >= 3, "too few valid candidates: {ok}/10");
    }

    #[test]
    fn tensor_sketch_beats_scalar_sketch_on_matmul() {
        let func = mm16(128);
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let tensor = GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch");
        let scalar = GpuScalarSketch::new(&func);
        let mut rng = StdRng::seed_from_u64(2);
        let machine = Machine::sim_gpu();
        let best = |sketch: &dyn SketchRule, rng: &mut StdRng| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..20 {
                let d = sketch.sample(rng);
                if let Ok(f) = sketch.apply(&d) {
                    best = best.min(simulate(&f, &machine));
                }
            }
            best
        };
        let t_tensor = best(&tensor, &mut rng);
        let t_scalar = best(&scalar, &mut rng);
        assert!(
            t_tensor < t_scalar,
            "tensorized {t_tensor} should beat scalar {t_scalar}"
        );
    }

    #[test]
    fn unstaged_amos_like_is_slower_than_staged() {
        // A conv workload: its im2col ReIndex stage is a real data-movement
        // pass, so the AMOS-like variant (no shared staging, materialized
        // layout rewrite) pays measurably more than the staged pipeline.
        let func = tir_workloads::c2d(8, 58, 58, 128, 128, 3, 3, 1, DataType::float16());
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let staged = GpuTensorSketch::new(&func, "C", wmma, true).expect("staged");
        let unstaged = GpuTensorSketch::new(&func, "C", wmma, false).expect("unstaged");
        let machine = Machine::sim_gpu();
        let mut rng = StdRng::seed_from_u64(3);
        let best = |sketch: &GpuTensorSketch, rng: &mut StdRng| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..20 {
                let d = sketch.sample(rng);
                if let Ok(f) = sketch.apply(&d) {
                    best = best.min(simulate(&f, &machine));
                }
            }
            best
        };
        let t_staged = best(&staged, &mut rng);
        let t_unstaged = best(&unstaged, &mut rng);
        assert!(
            t_staged < t_unstaged,
            "staged {t_staged} should beat unstaged {t_unstaged}"
        );
    }

    #[test]
    fn a_repeated_form_is_answered_from_the_memo() {
        // A 16x16 spatial nest holds no more than 32 threads of 8 steps:
        // 256 and 128 requested threads are cut to the same schedule.
        let sketch = GpuScalarSketch::new(&mm16(16));
        let a = vec![vec![256], vec![8], vec![1]];
        let b = vec![vec![128], vec![8], vec![1]];
        let c = vec![vec![32], vec![1], vec![1]];
        let form = sketch.effective(&a);
        assert_eq!(form, Some(vec![vec![32], vec![8], vec![1]]));
        assert_eq!(sketch.effective(&b), form);
        assert_ne!(sketch.effective(&c), form);
        let (fa, fb) = (sketch.apply(&a).expect("a"), sketch.apply(&b).expect("b"));
        assert!(
            std::sync::Arc::ptr_eq(&fa.body, &fb.body),
            "b was built again"
        );
        let built = |sketch: &GpuScalarSketch| {
            (sketch.memo().values())
                .filter(|m| matches!(m, Memo::Built(_)))
                .count()
        };
        assert_eq!(built(&sketch), 1);
        let fc = sketch.apply(&c).expect("c");
        assert!(!std::sync::Arc::ptr_eq(&fa.body, &fc.body));
        assert_eq!(built(&sketch), 2);
    }

    /// The `gpu-scalar` vectors of the golden corpus (seeds 0..40 of every
    /// f16 operator) and of a two-block T2D, each on a sketch warmed first
    /// with its own thread counts and steps under every reduction split
    /// that makes another form: a build that resumes from the staged prefix
    /// equals a fresh sketch's build, stream and text, or fails with its
    /// error.
    #[test]
    fn a_form_resumed_from_a_staged_prefix_equals_a_fresh_build() {
        let reg = builtin_registry();
        let mut funcs: Vec<PrimFunc> = tir_workloads::bench_suite(DataType::float16())
            .into_iter()
            .map(|case| case.func)
            .collect();
        // Two blocks, and a first reduction loop (`kh`) a split of 2 divides.
        funcs.push(tir_workloads::t2d(
            1,
            4,
            4,
            2,
            4,
            4,
            4,
            2,
            DataType::float16(),
        ));
        let (mut vectors, mut resumed) = (0, 0);
        for func in &funcs {
            let sketches =
                crate::build_sketches(func, &Machine::sim_gpu(), &reg, crate::Strategy::TensorIr);
            let sampler = (sketches.iter())
                .find(|s| s.name() == "gpu-scalar")
                .expect("gpu-scalar sketch");
            for seed in 0..40 {
                let d = sampler.sample(&mut StdRng::seed_from_u64(seed));
                let warm = GpuScalarSketch::new(func);
                let form = warm.effective(&d).expect("a vector of the space");
                for shift in 1..4 {
                    let other_k: Vec<Decision> = (d.chunks(3))
                        .flat_map(|b| [b[0].clone(), b[1].clone(), vec![rotate_k(b[2][0], shift)]])
                        .collect();
                    if warm.effective(&other_k).as_ref() != Some(&form) {
                        let _ = warm.apply(&other_k);
                    }
                }
                resumed += usize::from({
                    let memo = warm.memo();
                    (0..warm.blocks.len())
                        .any(|i| matches!(memo.get(&form[..3 * i + 2]), Some(Memo::Staged(_))))
                });
                let (got, want) = (warm.apply(&d), GpuScalarSketch::new(func).apply(&d));
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(
                            tir::structural::structural_stream(&got),
                            tir::structural::structural_stream(&want),
                            "{} seed {seed}: streams differ",
                            func.name
                        );
                        assert_eq!(got.to_string(), want.to_string());
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("{} seed {seed}: {got:?} vs {want:?}", func.name),
                }
                vectors += 1;
            }
        }
        // Every GMM and T2D vector: the other operators' first reduction
        // loops take no split, so their warm-up makes no other form.
        assert_eq!((vectors, resumed), (360, 120));
        let checked = SKIPPED_VALIDATES_CHECKED.with(std::cell::Cell::get);
        assert!(checked > 0, "no build skipped its final validate");
    }

    /// The reduction split option `shift` places after `k` in 1, 2, 4, 8.
    fn rotate_k(k: i64, shift: u32) -> i64 {
        let options = [1, 2, 4, 8];
        let at = options.iter().position(|&o| o == k).expect("a k option");
        options[(at + shift as usize) % options.len()]
    }

    /// A data-movement block `new` cannot bind (a name no block has): the
    /// sketch is kept, its base is auto-tensorization's, and every `apply`
    /// returns the error where it took the step itself: after the steps a
    /// decision reads, so their own errors come first.
    #[test]
    fn a_tensor_sketch_whose_fixed_bind_fails_returns_its_error_from_every_apply() {
        let func = mm16(64);
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let missing = ScheduleError::BlockNotFound("gone_writeback".into());
        for staged in [true, false] {
            let mut t = auto_tensorize(&func, "C", wmma).expect("tensorizes");
            t.data_movement_blocks.push("gone_writeback".into());
            let unbound = tir::structural::structural_stream(t.schedule.func());
            let broken = GpuTensorSketch::from_tensorized(t, wmma, staged).expect("kept");
            assert_eq!(
                tir::structural::structural_stream(broken.base.func()),
                unbound
            );
            let sound = GpuTensorSketch::new(&func, "C", wmma, staged).expect("sketch");
            let mut rng = StdRng::seed_from_u64(5);
            let mut reached = 0;
            for _ in 0..40 {
                let d = sound.sample(&mut rng);
                let got = broken.apply(&d).expect_err("every apply fails").to_string();
                match sound.apply(&d) {
                    Ok(_) => {
                        assert_eq!(got, missing.to_string());
                        reached += 1;
                    }
                    Err(e @ ScheduleError::Precondition(_)) => assert_eq!(got, e.to_string()),
                    Err(_) => {}
                }
            }
            assert!(reached > 0, "no vector reached the failed step");
        }
    }

    #[test]
    fn scalar_sketch_handles_multi_block_funcs() {
        let func = tir_workloads::t2d(1, 4, 4, 2, 4, 3, 3, 2, DataType::float16());
        let sketch = GpuScalarSketch::new(&func);
        let mut rng = StdRng::seed_from_u64(4);
        let d = sketch.sample(&mut rng);
        let f = sketch.apply(&d).expect("apply");
        assert_same_semantics(&func, &f, 1, 0.0);
    }
}
