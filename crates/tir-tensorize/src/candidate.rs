//! Tensorization candidate generation (§4.2) and the `tensorize`
//! primitive.
//!
//! [`auto_tensorize`] drives the paper's Fig. 9 pipeline end to end:
//!
//! 1. extract the einsum and propose an iterator mapping via
//!    characteristic vectors ([`crate::pattern`]);
//! 2. **ReIndex + layout rewrite**: materialize each operand into a staging
//!    buffer whose dimensions are the *fused* iterator groups
//!    (`A_t[fuse(n,h,w), fuse(rh,rw,rc)] = A[g(...)]`), padding every fused
//!    dimension up to a multiple of the intrinsic's size (zero padding is
//!    sound for sum reductions);
//! 3. rebuild the compute block over the canonical (padded) iteration
//!    space, followed by a write-back of the valid output region;
//! 4. tile each canonical loop by the intrinsic dimension and `blockize`
//!    the inner tile;
//! 5. [`tensorize`] the inner block: verify it matches the intrinsic and
//!    mark it opaque with the intrinsic annotation (the scalar body is the
//!    executable implementation; the simulator prices it at intrinsic
//!    throughput).

use tir::simplify::simplified;
use tir::visit::substituted;
use tir::{
    AnnValue, Block, BlockRealize, Buffer, BufferRegion, Expr, IterKind, IterVar, PrimFunc, Stmt,
    Var, VarMap,
};
use tir_schedule::{BlockRef, Schedule, ScheduleError};

use crate::intrin::TensorIntrin;
use crate::pattern::{extract_einsum, propose_mapping, Einsum};

/// Annotation key carrying the tensor-intrinsic name on a tensorized block.
pub const INTRIN_ANNOTATION: &str = "tir.tensor_intrin";

/// Result type of tensorization.
pub type Result<T> = std::result::Result<T, ScheduleError>;

/// Outcome of [`auto_tensorize`].
#[derive(Debug)]
pub struct Tensorized {
    /// The schedule holding the transformed program.
    pub schedule: Schedule,
    /// The outer (schedulable) block produced by blockization.
    pub outer_block: BlockRef,
    /// The inner opaque block bound to the intrinsic.
    pub inner_block: BlockRef,
    /// Fused (padded) canonical extents, one per intrinsic iterator.
    pub padded_extents: Vec<i64>,
    /// Original fused extents before padding.
    pub fused_extents: Vec<i64>,
    /// Names of the data-movement blocks created (reindex + write-back).
    pub data_movement_blocks: Vec<String>,
    /// Names of the input staging (fused-layout) buffers, in operand order.
    pub input_staging: Vec<String>,
    /// Name of the output staging buffer.
    pub output_staging: String,
}

fn round_up(v: i64, to: i64) -> i64 {
    ((v + to - 1) / to) * to
}

/// Builds `fuse(v1, .., vr)` per the paper's formula.
fn fuse_expr(vars: &[Var], extents: &[i64]) -> Expr {
    let mut it = vars.iter().zip(extents);
    let (v0, _) = it.next().expect("nonempty group");
    let mut acc = Expr::from(v0);
    for (v, e) in it {
        acc = acc * *e + Expr::from(v);
    }
    acc
}

struct GroupInfo {
    vars: Vec<Var>,
    extents: Vec<i64>,
    fused_extent: i64,
    padded_extent: i64,
    kind: IterKind,
}

/// Performs the full auto-tensorization pipeline on the named block.
///
/// # Errors
///
/// Fails when the block does not match the intrinsic (see
/// [`crate::pattern::MatchError`]) or a downstream scheduling step fails.
pub fn auto_tensorize(
    func: &PrimFunc,
    block_name: &str,
    intrin: &TensorIntrin,
) -> Result<Tensorized> {
    let mut sch = Schedule::new(func.clone());
    let block_ref = sch.get_block(block_name)?;

    // Step 1: einsum + mapping.
    let (einsum, mapping, block_iter_extents) = {
        let br = tir::visit::find_block(&sch.func().body, block_name)
            .ok_or_else(|| ScheduleError::BlockNotFound(block_name.to_string()))?;
        let einsum = extract_einsum(&br.block)
            .map_err(|e| ScheduleError::Precondition(format!("einsum extraction: {e}")))?;
        let mapping = propose_mapping(&br.block, &einsum, intrin)
            .map_err(|e| ScheduleError::Precondition(format!("iterator mapping: {e}")))?;
        let extents: VarMap<i64> = br
            .block
            .iter_vars
            .iter()
            .map(|iv| (iv.var.clone(), iv.extent))
            .collect();
        (einsum, mapping, extents)
    };

    // Iterators sharing a characteristic vector fuse in block-declaration
    // order, the paper's default fusion order.
    let groups: Vec<GroupInfo> = mapping
        .groups
        .iter()
        .zip(&mapping.group_extents)
        .zip(&intrin.iters)
        .map(|((vars, &fused_extent), ii)| GroupInfo {
            extents: vars.iter().map(|v| block_iter_extents[v]).collect(),
            vars: vars.clone(),
            fused_extent,
            padded_extent: round_up(fused_extent, ii.extent),
            kind: ii.kind,
        })
        .collect();
    let batch = GroupInfo {
        extents: (mapping.batch.iter())
            .map(|v| block_iter_extents[v])
            .collect(),
        vars: mapping.batch.clone(),
        fused_extent: mapping.batch_extent,
        padded_extent: mapping.batch_extent,
        kind: IterKind::Spatial,
    };

    // Step 2/3: rebuild the computation in canonical form.
    let canonical = build_canonical_form(&einsum, intrin, &groups, &batch, block_name)?;
    let compute_name = canonical.compute_name.clone();
    let dm_blocks = canonical.data_movement_blocks.clone();
    let input_staging = canonical.input_staging.clone();
    let output_staging = canonical.output_staging.clone();

    // Replace the original nest with the canonical form.
    let loops = sch.get_loops(&block_ref)?;
    if let Some(outermost) = loops.first() {
        // The nest must contain only the target block.
        let names = sch.blocks_under_loop(outermost)?;
        if names != vec![block_name.to_string()] {
            return Err(ScheduleError::Precondition(format!(
                "tensorize target nest contains other blocks: {names:?}"
            )));
        }
        let stmt = canonical.stmt;
        sch.replace_loop_subtree(outermost, stmt)?;
    } else {
        return Err(ScheduleError::Precondition(
            "target block has no surrounding loops".into(),
        ));
    }
    for buf in canonical.staging_buffers {
        sch.alloc_buffer_at_root(buf)?;
    }

    // Step 4: tile by the intrinsic dims and blockize. The batch loop (if
    // any) is the outermost and is not tiled — it stays outside the
    // intrinsic invocation.
    let compute = sch.get_block(&compute_name)?;
    let loops = sch.get_loops(&compute)?;
    let has_batch = !batch.vars.is_empty();
    let skip = usize::from(has_batch);
    debug_assert_eq!(loops.len(), intrin.iters.len() + skip);
    let mut outers: Vec<_> = loops[..skip].to_vec();
    let mut inners = Vec::new();
    for (l, ii) in loops[skip..].iter().zip(&intrin.iters) {
        let parts = sch.split(l, &[-1, ii.extent])?;
        outers.push(parts[0].clone());
        inners.push(parts[1].clone());
    }
    let order: Vec<_> = outers.iter().chain(inners.iter()).cloned().collect();
    sch.reorder(&order)?;
    let outer_block = sch.blockize(&inners[0])?;

    // Step 5: bind the inner block to the intrinsic.
    let inner_block = sch.get_block(&compute_name)?;
    tensorize(&mut sch, &inner_block, intrin, false)?;

    Ok(Tensorized {
        schedule: sch,
        outer_block,
        inner_block,
        padded_extents: groups.iter().map(|g| g.padded_extent).collect(),
        fused_extents: groups.iter().map(|g| g.fused_extent).collect(),
        data_movement_blocks: dm_blocks,
        input_staging,
        output_staging,
    })
}

struct CanonicalForm {
    stmt: Stmt,
    compute_name: String,
    staging_buffers: Vec<Buffer>,
    data_movement_blocks: Vec<String>,
    input_staging: Vec<String>,
    output_staging: String,
}

/// Builds the staging (ReIndex + layout-rewrite) blocks, the canonical
/// compute block, and the write-back block.
fn build_canonical_form(
    einsum: &Einsum,
    intrin: &TensorIntrin,
    groups: &[GroupInfo],
    batch: &GroupInfo,
    block_name: &str,
) -> Result<CanonicalForm> {
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut staging = Vec::new();
    let mut dm_blocks = Vec::new();
    let has_batch = !batch.vars.is_empty();

    // Resolves the per-dimension group list of one operand: a leading
    // batch dimension (when present) followed by the operand's intrinsic
    // iterator groups.
    let operand_groups = |dims: &[usize]| -> Vec<&GroupInfo> {
        let mut v: Vec<&GroupInfo> = Vec::with_capacity(dims.len() + 1);
        if has_batch {
            v.push(batch);
        }
        v.extend(dims.iter().map(|&d| &groups[d]));
        v
    };

    // Staging buffer per input operand, dims = [batch?] + operand groups.
    let mut input_stage: Vec<Buffer> = Vec::new();
    for (j, (buf, indices)) in einsum.inputs.iter().enumerate() {
        let ogroups = operand_groups(&intrin.input_iters[j]);
        let dims: Vec<i64> = ogroups.iter().map(|g| g.padded_extent).collect();
        let stage = Buffer::new(format!("{}_t", buf.name()), buf.dtype(), dims);
        let nest = reindex_block(
            &format!("{}_reindex", buf.name()),
            buf,
            indices,
            &stage,
            &ogroups,
            false,
        )?;
        dm_blocks.push(format!("{}_reindex", buf.name()));
        stmts.push(nest);
        staging.push(stage.clone());
        input_stage.push(stage);
    }

    // Output staging buffer over [batch?] + output groups.
    let (out_buf, out_indices) = &einsum.output;
    let out_groups = operand_groups(&intrin.output_iters);
    let out_dims: Vec<i64> = out_groups.iter().map(|g| g.padded_extent).collect();
    let out_stage = Buffer::new(format!("{}_t", out_buf.name()), out_buf.dtype(), out_dims);
    staging.push(out_stage.clone());

    // Canonical compute block: iterators [u_b?] + u_d over padded extents.
    let u_batch = Var::int("u_b");
    let l_batch = Var::int("l_b");
    let u_vars: Vec<Var> = intrin
        .iters
        .iter()
        .map(|ii| Var::int(format!("u_{}", ii.name)))
        .collect();
    let loop_vars: Vec<Var> = intrin
        .iters
        .iter()
        .map(|ii| Var::int(format!("l_{}", ii.name)))
        .collect();
    let with_batch = |mut idx: Vec<Expr>| -> Vec<Expr> {
        if has_batch {
            idx.insert(0, Expr::from(&u_batch));
        }
        idx
    };
    let out_idx: Vec<Expr> = with_batch(
        intrin
            .output_iters
            .iter()
            .map(|&d| Expr::from(&u_vars[d]))
            .collect(),
    );
    let mut term: Option<Expr> = None;
    for (j, stage) in input_stage.iter().enumerate() {
        let idx: Vec<Expr> = with_batch(
            intrin.input_iters[j]
                .iter()
                .map(|&d| Expr::from(&u_vars[d]))
                .collect(),
        );
        let mut load = stage.load(idx);
        if let Some(dt) = einsum.input_casts[j] {
            load = load.cast(dt);
        }
        term = Some(match term {
            None => load,
            Some(t) => t * load,
        });
    }
    let term = term.expect("at least one input");
    let body = Stmt::store(
        out_stage.clone(),
        out_idx.clone(),
        out_stage.load(out_idx.clone()) + term,
    );
    let zero = if out_stage.dtype().is_float() {
        Expr::Float(0.0, out_stage.dtype())
    } else {
        Expr::Int(0, out_stage.dtype())
    };
    let init = Stmt::store(out_stage.clone(), out_idx, zero);
    let (reads, writes) = tir::builder::derive_signature(&body, None);
    let reads: Vec<BufferRegion> = reads
        .into_iter()
        .filter(|r| r.buffer != out_stage)
        .collect();
    let compute_name = format!("{block_name}_t");
    let mut iter_vars: Vec<IterVar> = Vec::new();
    let mut realize_bindings: Vec<Expr> = Vec::new();
    let mut compute_loops: Vec<(Var, i64)> = Vec::new();
    if has_batch {
        iter_vars.push(IterVar::spatial(u_batch.clone(), batch.fused_extent));
        realize_bindings.push(Expr::from(&l_batch));
        compute_loops.push((l_batch.clone(), batch.fused_extent));
    }
    for ((v, g), l) in u_vars.iter().zip(groups).zip(&loop_vars) {
        iter_vars.push(match g.kind {
            IterKind::Spatial => IterVar::spatial(v.clone(), g.padded_extent),
            IterKind::Reduce => IterVar::reduce(v.clone(), g.padded_extent),
        });
        realize_bindings.push(Expr::from(l));
        compute_loops.push((l.clone(), g.padded_extent));
    }
    let mut block = Block::new(compute_name.clone(), iter_vars, reads, writes, body);
    block.init = Some(Box::new(init));
    let realize = BlockRealize::new(realize_bindings, block);
    stmts.push(Stmt::BlockRealize(Box::new(realize)).in_loops(compute_loops));

    // Write-back block: C[g0(v)] = C_t[fuse exprs] over the valid region.
    let wb = reindex_block(
        &format!("{}_writeback", out_buf.name()),
        out_buf,
        out_indices,
        &out_stage,
        &out_groups,
        true,
    )?;
    dm_blocks.push(format!("{}_writeback", out_buf.name()));
    stmts.push(wb);

    let input_staging = input_stage.iter().map(|b| b.name().to_string()).collect();
    let output_staging = out_stage.name().to_string();
    Ok(CanonicalForm {
        stmt: Stmt::seq(stmts),
        compute_name,
        staging_buffers: staging,
        data_movement_blocks: dm_blocks,
        input_staging,
        output_staging,
    })
}

/// Builds a ReIndex (layout-rewrite) block between an original buffer and
/// its fused-layout staging buffer.
///
/// When `writeback` is false: `stage[fuse(groups)] = original[g(iters)]`
/// (the ReIndex of §4.2). When true: the reverse copy, reading the staged
/// buffer back into the original layout.
/// Whether a staging buffer is a *pure reshape* of the original operand:
/// no padding, and the operand's indices are exactly the group variables
/// concatenated in order. Such a stage is a strided view in a real
/// backend; the paper notes these ReIndex stages are inlined into
/// consumers and "do not affect the performance", so the cost model treats
/// blocks annotated `tir.reshape_view` as free. The interpreter still
/// executes them (correctness is unaffected).
fn is_pure_reshape(original_indices: &[Expr], operand_groups: &[&GroupInfo]) -> bool {
    if operand_groups
        .iter()
        .any(|g| g.padded_extent != g.fused_extent)
    {
        return false;
    }
    let concat: Vec<&Var> = operand_groups.iter().flat_map(|g| g.vars.iter()).collect();
    if original_indices.len() != concat.len() {
        return false;
    }
    original_indices
        .iter()
        .zip(concat)
        .all(|(e, v)| e.as_var() == Some(v))
}

#[allow(clippy::too_many_arguments)]
fn reindex_block(
    name: &str,
    original: &Buffer,
    original_indices: &[Expr],
    stage: &Buffer,
    operand_groups: &[&GroupInfo],
    writeback: bool,
) -> Result<Stmt> {
    let reshape_view = is_pure_reshape(original_indices, operand_groups);
    if writeback {
        // The write-back copies only the valid region, iterating the
        // original iterator space of the output groups.
        let mut loops: Vec<(Var, i64)> = Vec::new();
        let mut iter_vars: Vec<IterVar> = Vec::new();
        let mut bindings: Vec<Expr> = Vec::new();
        let mut subst: VarMap<Expr> = VarMap::default();
        let mut fused_per_dim: Vec<Expr> = Vec::new();
        for g in operand_groups {
            if g.vars.is_empty() {
                fused_per_dim.push(Expr::int(0));
                continue;
            }
            let mut fresh_group = Vec::new();
            for (v, &e) in g.vars.iter().zip(&g.extents) {
                let lv = Var::int(format!("c_{}", v.name()));
                let bv = Var::int(format!("w_{}", v.name()));
                bindings.push(Expr::from(&lv));
                loops.push((lv, e));
                iter_vars.push(IterVar::spatial(bv.clone(), e));
                subst.insert(v.clone(), Expr::from(&bv));
                fresh_group.push(bv);
            }
            fused_per_dim.push(simplified(fuse_expr(&fresh_group, &g.extents)));
        }
        let orig_idx: Vec<Expr> = original_indices
            .iter()
            .map(|e| substituted(e.clone(), &subst))
            .collect();
        let body = Stmt::store(original.clone(), orig_idx, stage.load(fused_per_dim));
        let (reads, writes) = tir::builder::derive_signature(&body, None);
        let mut block = Block::new(name, iter_vars, reads, writes, body);
        if reshape_view {
            block
                .annotations
                .insert("tir.reshape_view".to_string(), AnnValue::Int(1));
        }
        let realize = BlockRealize::new(bindings, block);
        return Ok(Stmt::BlockRealize(Box::new(realize)).in_loops(loops));
    }

    // The ReIndex stage sweeps the *padded* fused space, decoding the
    // original iterators from each fused coordinate and writing explicit
    // zeros in the pad region (the paper's "necessary padding on the
    // input/output operands"); zero is the sum-reduction identity.
    let mut loops: Vec<(Var, i64)> = Vec::new();
    let mut iter_vars: Vec<IterVar> = Vec::new();
    let mut bindings: Vec<Expr> = Vec::new();
    let mut stage_idx: Vec<Expr> = Vec::new();
    let mut subst: VarMap<Expr> = VarMap::default();
    let mut guard: Option<Expr> = None;
    for (pos, g) in operand_groups.iter().enumerate() {
        let lv = Var::int(format!("c{pos}"));
        let wv = Var::int(format!("w{pos}"));
        bindings.push(Expr::from(&lv));
        loops.push((lv, g.padded_extent));
        iter_vars.push(IterVar::spatial(wv.clone(), g.padded_extent));
        stage_idx.push(Expr::from(&wv));
        // Decode the group members from the fused coordinate.
        let mut stride: i64 = g.extents.iter().product();
        for (v, &e) in g.vars.iter().zip(&g.extents) {
            stride /= e;
            let mut decoded = Expr::from(&wv);
            if stride != 1 {
                decoded = decoded.floor_div(stride);
            }
            decoded = decoded.floor_mod(e);
            subst.insert(v.clone(), simplified(decoded));
        }
        if g.padded_extent != g.fused_extent {
            let cond = Expr::from(&wv).lt(g.fused_extent);
            guard = Some(match guard {
                None => cond,
                Some(gd) => gd.and(cond),
            });
        }
    }
    let orig_idx: Vec<Expr> = original_indices
        .iter()
        .map(|e| simplified(substituted(e.clone(), &subst)))
        .collect();
    let loaded = original.load(orig_idx);
    let zero = if original.dtype().is_float() {
        Expr::Float(0.0, original.dtype())
    } else {
        Expr::Int(0, original.dtype())
    };
    let value = match guard {
        Some(cond) => Expr::select(cond, loaded, zero),
        None => loaded,
    };
    let body = Stmt::store(stage.clone(), stage_idx, value);
    let (reads, writes) = tir::builder::derive_signature(&body, None);
    let mut block = Block::new(name, iter_vars, reads, writes, body);
    if reshape_view {
        block
            .annotations
            .insert("tir.reshape_view".to_string(), AnnValue::Int(1));
    }
    let realize = BlockRealize::new(bindings, block);
    Ok(Stmt::BlockRealize(Box::new(realize)).in_loops(loops))
}

/// Binds a block to a tensor intrinsic: verifies the block's iteration
/// domain and einsum structure match the intrinsic, then marks the block
/// opaque with the [`INTRIN_ANNOTATION`].
///
/// With `check_scopes`, operand memory scopes must also equal the
/// intrinsic's declared scopes (used on fully staged GPU pipelines).
///
/// # Errors
///
/// Fails when the block does not structurally match the intrinsic.
pub fn tensorize(
    sch: &mut Schedule,
    block: &BlockRef,
    intrin: &TensorIntrin,
    check_scopes: bool,
) -> Result<()> {
    // Loops between the block and its nearest enclosing block: the tile
    // iteration space one invocation of the intrinsic covers.
    let tile_loops = sch.loop_infos(block)?;
    let br = tir::visit::find_block(&sch.func().body, block.name())
        .ok_or_else(|| ScheduleError::BlockNotFound(block.name().to_string()))?;
    // Domain check: the per-instance tile extent of each binding (the part
    // swept by the immediately enclosing loops) must equal the intrinsic's
    // iterator extent; kinds must match. After blockization, bindings have
    // the shape `u_outer * tile + inner(loops)`, so zeroing every non-loop
    // variable exposes the inner part.
    let loop_dom: VarMap<i64> = tile_loops
        .iter()
        .map(|li| (li.var.clone(), li.extent))
        .collect();
    // Per-iterator tile extent: the portion of the binding swept by the
    // immediately enclosing loops. Iterators with tile extent 1 are outer
    // (batch-like) and do not take part in the intrinsic invocation.
    let mut nontrivial: Vec<(&tir::IterVar, i64)> = Vec::new();
    for (iv, value) in br.block.iter_vars.iter().zip(&br.iter_values) {
        let zero_outer: VarMap<Expr> = tir::visit::collect_vars_expr(value)
            .into_iter()
            .filter(|v| !loop_dom.contains_key(v))
            .map(|v| (v, Expr::int(0)))
            .collect();
        let inner = simplified(substituted(value.clone(), &zero_outer));
        let tile_extent = if inner.is_const_int(0) {
            1
        } else {
            tir_arith::iter_map::normalize(&inner, &loop_dom)
                .ok()
                .and_then(|s| s.strict_extent())
                .unwrap_or(-1)
        };
        if tile_extent == -1 {
            return Err(ScheduleError::Precondition(format!(
                "binding of iterator {} is not a compact tile",
                iv.var.name()
            )));
        }
        if tile_extent > 1 {
            nontrivial.push((iv, tile_extent));
        }
    }
    if nontrivial.len() != intrin.iters.len() {
        return Err(ScheduleError::Precondition(format!(
            "block {} has {} tiled iterators, intrinsic {} has {}",
            block.name(),
            nontrivial.len(),
            intrin.name,
            intrin.iters.len()
        )));
    }
    for ((iv, tile_extent), ii) in nontrivial.iter().zip(&intrin.iters) {
        if iv.kind != ii.kind || *tile_extent != ii.extent {
            return Err(ScheduleError::Precondition(format!(
                "iterator {} sweeps a {:?} tile of {tile_extent}, intrinsic \
                 iterator {} needs a {:?} tile of {}",
                iv.var.name(),
                iv.kind,
                ii.name,
                ii.kind,
                ii.extent
            )));
        }
    }
    let einsum = extract_einsum(&br.block)
        .map_err(|e| ScheduleError::Precondition(format!("einsum extraction: {e}")))?;
    if einsum.inputs.len() != intrin.input_iters.len() {
        return Err(ScheduleError::Precondition(
            "operand count does not match the intrinsic".into(),
        ));
    }
    if check_scopes {
        for (j, (buf, _)) in einsum.inputs.iter().enumerate() {
            if let Some(required) = &intrin.input_scopes[j] {
                if buf.scope() != required {
                    return Err(ScheduleError::Precondition(format!(
                        "input {} is in scope {}, intrinsic {} requires {}",
                        buf.name(),
                        buf.scope(),
                        intrin.name,
                        required
                    )));
                }
            }
        }
        if let Some(required) = &intrin.output_scope {
            if einsum.output.0.scope() != required {
                return Err(ScheduleError::Precondition(format!(
                    "output {} is in scope {}, intrinsic {} requires {}",
                    einsum.output.0.name(),
                    einsum.output.0.scope(),
                    intrin.name,
                    required
                )));
            }
        }
    }
    let intrin_name = intrin.name.clone();
    let exec_scope = intrin.exec_scope.clone();
    sch.annotate_block(block, INTRIN_ANNOTATION, AnnValue::Str(intrin_name))?;
    sch.annotate_block(block, "tir.opaque", AnnValue::Int(1))?;
    if let Some(scope) = exec_scope {
        sch.annotate_block(block, "tir.exec_scope", AnnValue::Str(scope))?;
    }
    Ok(())
}

/// Finds the first tensorizable (einsum) block of a function, trying the
/// given intrinsic, and returns its name on success.
pub fn find_tensorizable_block(func: &PrimFunc, intrin: &TensorIntrin) -> Option<String> {
    let mut found = None;
    tir::visit::for_each_block_realize(&func.body, &mut |br| {
        if found.is_some() || br.block.name == "root" {
            return;
        }
        if let Ok(einsum) = extract_einsum(&br.block) {
            if propose_mapping(&br.block, &einsum, intrin).is_ok() {
                found = Some(br.block.name.clone());
            }
        }
    });
    found
}

/// One padded region description recorded during candidate generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PadInfo {
    /// Intrinsic iterator index.
    pub dim: usize,
    /// Valid extent before padding.
    pub valid: i64,
    /// Padded extent.
    pub padded: i64,
}

impl Tensorized {
    /// Padding applied per canonical dimension (empty when everything was
    /// already divisible).
    pub fn paddings(&self) -> Vec<PadInfo> {
        self.fused_extents
            .iter()
            .zip(&self.padded_extents)
            .enumerate()
            .filter(|(_, (v, p))| v != p)
            .map(|(dim, (&valid, &padded))| PadInfo { dim, valid, padded })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrin::builtin_registry;
    use tir::builder::{matmul_func, reduce_compute};
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    fn dot4() -> TensorIntrin {
        builtin_registry().get("dot_4x4x4_f32").unwrap().clone()
    }

    #[test]
    fn tensorize_matmul_divisible() {
        let func = matmul_func("mm", 64, 64, 64, DataType::float32());
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize");
        assert_eq!(t.padded_extents, vec![64, 64, 64]);
        assert!(t.paddings().is_empty());
        // The inner block carries the intrinsic annotation and is opaque.
        let br =
            tir::visit::find_block(&t.schedule.func().body, t.inner_block.name()).expect("inner");
        assert!(matches!(
            br.block.annotations.get(INTRIN_ANNOTATION),
            Some(AnnValue::Str(s)) if s == "dot_4x4x4_f32"
        ));
        assert!(br.block.is_opaque());
        // Bit-exact against the untransformed program.
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }

    #[test]
    fn tensorize_matmul_with_padding() {
        // 30x30x30 is not divisible by 4: every canonical dim pads to 32.
        let func = matmul_func("mm", 30, 30, 30, DataType::float32());
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize");
        assert_eq!(t.padded_extents, vec![32, 32, 32]);
        assert_eq!(t.paddings().len(), 3);
        assert_eq!(
            t.paddings()[0],
            PadInfo {
                dim: 0,
                valid: 30,
                padded: 32
            }
        );
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }

    #[test]
    fn tensorize_f16_with_wmma() {
        let func = matmul_func("mm", 32, 32, 32, DataType::float16());
        let reg = builtin_registry();
        let wmma = reg.get("wmma_16x16x16_f16").unwrap();
        let t = auto_tensorize(&func, "C", wmma).expect("tensorize");
        assert_eq!(t.padded_extents, vec![32, 32, 32]);
        // f16 rounding happens identically in both programs.
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        // The warp exec-scope annotation is attached (threading validation
        // of exec scopes applies once the sketch binds threads).
        let br =
            tir::visit::find_block(&t.schedule.func().body, t.inner_block.name()).expect("inner");
        assert!(matches!(
            br.block.annotations.get("tir.exec_scope"),
            Some(AnnValue::Str(s)) if s == "warp"
        ));
    }

    /// 1-D convolution: C[n, w, f] += A[n, w + rw, rc] * B[rw, rc, f].
    /// Exercises ReIndex (A's index `w + rw` is not a bare iterator) and
    /// iterator fusion ((n, w) -> x, (rw, rc) -> k).
    #[test]
    fn tensorize_conv1d_via_reindex() {
        let a = Buffer::new("A", DataType::float32(), vec![2, 11, 4]);
        let b = Buffer::new("B", DataType::float32(), vec![3, 4, 8]);
        let c = Buffer::new("C", DataType::float32(), vec![2, 9, 8]);
        let body = reduce_compute("C", &c, &[3, 4], Expr::f32(0.0), |sp, rd| {
            a.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&sp[1]) + Expr::from(&rd[0]),
                Expr::from(&rd[1]),
            ]) * b.load(vec![
                Expr::from(&rd[0]),
                Expr::from(&rd[1]),
                Expr::from(&sp[2]),
            ])
        });
        let func = PrimFunc::new("conv1d", vec![a, b, c], body);
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize conv");
        // x = fuse(n, w) = 18 -> 20; y = f = 8; k = fuse(rw, rc) = 12.
        assert_eq!(t.fused_extents, vec![18, 8, 12]);
        assert_eq!(t.padded_extents, vec![20, 8, 12]);
        // The reindex stages exist.
        assert!(t.data_movement_blocks.contains(&"A_reindex".to_string()));
        assert!(t.data_movement_blocks.contains(&"C_writeback".to_string()));
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }

    #[test]
    fn tensorize_int8_sdot() {
        let func = matmul_func("qmm", 16, 16, 16, DataType::int8());
        // int8 x int8 -> int32 accumulate: build with explicit casts.
        let a = Buffer::new("A", DataType::int8(), vec![16, 16]);
        let b = Buffer::new("B", DataType::int8(), vec![16, 16]);
        let c = Buffer::new("C", DataType::int32(), vec![16, 16]);
        let body = reduce_compute("C", &c, &[16], Expr::Int(0, DataType::int32()), |sp, rd| {
            a.load(vec![Expr::from(&sp[0]), Expr::from(&rd[0])])
                .cast(DataType::int32())
                * b.load(vec![Expr::from(&rd[0]), Expr::from(&sp[1])])
                    .cast(DataType::int32())
        });
        let func2 = PrimFunc::new("qmm", vec![a, b, c], body);
        let _ = func;
        let reg = builtin_registry();
        let sdot = reg.get("sdot_4x4x4_i8").unwrap();
        let t = auto_tensorize(&func2, "C", sdot).expect("tensorize sdot");
        assert_same_semantics(&func2, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }

    #[test]
    fn rejects_elementwise_block() {
        let b = Buffer::new("B", DataType::float32(), vec![8, 8]);
        let body = tir::builder::compute("B", &b, |_| Expr::f32(1.0));
        let func = PrimFunc::new("ew", vec![b], body);
        let err = auto_tensorize(&func, "B", &dot4()).unwrap_err();
        assert!(matches!(err, ScheduleError::Precondition(_)), "{err}");
    }

    #[test]
    fn find_tensorizable_block_scans() {
        let func = matmul_func("mm", 16, 16, 16, DataType::float32());
        assert_eq!(
            find_tensorizable_block(&func, &dot4()),
            Some("C".to_string())
        );
        let b = Buffer::new("B", DataType::float32(), vec![8]);
        let ew = PrimFunc::new(
            "ew",
            vec![b.clone()],
            tir::builder::compute("B", &b, |_| Expr::f32(1.0)),
        );
        assert_eq!(find_tensorizable_block(&ew, &dot4()), None);
    }

    #[test]
    fn outer_block_remains_schedulable_after_tensorize() {
        let func = matmul_func("mm", 64, 64, 64, DataType::float32());
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize");
        let mut sch = t.schedule;
        let outer_loops = sch.get_loops(&t.outer_block).expect("outer loops");
        assert_eq!(outer_loops.len(), 3);
        // Transform the outer loops without touching the tensorized body.
        let parts = sch.split(&outer_loops[0], &[4, 4]).expect("split outer");
        sch.reorder(&[outer_loops[1].clone(), parts[1].clone()])
            .expect("reorder outer");
        assert_same_semantics(&func, sch.func(), 1, 0.0);
        tir_analysis::assert_valid(sch.func());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::intrin::builtin_registry;
    use tir::builder::reduce_compute;
    use tir::DataType;
    use tir_exec::assert_same_semantics;

    fn dot4() -> TensorIntrin {
        builtin_registry().get("dot_4x4x4_f32").unwrap().clone()
    }

    /// Batch matmul: C[b, i, j] += A[b, i, r] * B[b, r, j]. The batch
    /// iterator appears in every operand and stays as an outer loop.
    #[test]
    fn tensorize_batch_matmul() {
        let a = Buffer::new("A", DataType::float32(), vec![3, 8, 8]);
        let b = Buffer::new("B", DataType::float32(), vec![3, 8, 8]);
        let c = Buffer::new("C", DataType::float32(), vec![3, 8, 8]);
        let body = reduce_compute("C", &c, &[8], Expr::f32(0.0), |sp, rd| {
            a.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&sp[1]),
                Expr::from(&rd[0]),
            ]) * b.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&rd[0]),
                Expr::from(&sp[2]),
            ])
        });
        let func = PrimFunc::new("bmm", vec![a, b, c], body);
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize bmm");
        assert_eq!(t.padded_extents, vec![8, 8, 8]);
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }

    /// Grouped 1-D conv: C[n, w, g, f] += A[n, w + rw, g, ci] *
    /// W[g, rw, ci, f]: g is batch-like.
    #[test]
    fn tensorize_grouped_conv() {
        let a = Buffer::new("A", DataType::float32(), vec![2, 10, 2, 4]);
        let w = Buffer::new("W", DataType::float32(), vec![2, 3, 4, 8]);
        let c = Buffer::new("C", DataType::float32(), vec![2, 8, 2, 8]);
        let body = reduce_compute("C", &c, &[3, 4], Expr::f32(0.0), |sp, rd| {
            a.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&sp[1]) + Expr::from(&rd[0]),
                Expr::from(&sp[2]),
                Expr::from(&rd[1]),
            ]) * w.load(vec![
                Expr::from(&sp[2]),
                Expr::from(&rd[0]),
                Expr::from(&rd[1]),
                Expr::from(&sp[3]),
            ])
        });
        let func = PrimFunc::new("grp", vec![a, w, c], body);
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize grp");
        // x = fuse(n, w) = 16; y = f = 8; k = fuse(rw, ci) = 12; batch g=2.
        assert_eq!(t.fused_extents, vec![16, 8, 12]);
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }

    /// Depthwise 1-D conv: C[n, w, c] += A[n, w + rw, c] * W[rw, c]: the
    /// channel c is batch-like and there is no `y` iterator — the y group
    /// is empty and pads from 1 to 4 (reflecting depthwise's poor tensor-
    /// core utilization).
    #[test]
    fn tensorize_depthwise_pads_empty_dim() {
        let a = Buffer::new("A", DataType::float32(), vec![2, 10, 4]);
        let w = Buffer::new("W", DataType::float32(), vec![3, 4]);
        let c = Buffer::new("C", DataType::float32(), vec![2, 8, 4]);
        let body = reduce_compute("C", &c, &[3], Expr::f32(0.0), |sp, rd| {
            a.load(vec![
                Expr::from(&sp[0]),
                Expr::from(&sp[1]) + Expr::from(&rd[0]),
                Expr::from(&sp[2]),
            ]) * w.load(vec![Expr::from(&rd[0]), Expr::from(&sp[2])])
        });
        let func = PrimFunc::new("dep", vec![a, w, c], body);
        let t = auto_tensorize(&func, "C", &dot4()).expect("tensorize dep");
        // x = fuse(n, w) = 16; y empty -> 1 padded to 4; k = rw = 3 -> 4.
        assert_eq!(t.fused_extents, vec![16, 1, 3]);
        assert_eq!(t.padded_extents, vec![16, 4, 4]);
        assert_same_semantics(&func, t.schedule.func(), 1, 0.0);
        tir_analysis::assert_valid(t.schedule.func());
    }
}
