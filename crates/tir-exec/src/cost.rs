//! Analytic cost simulation of TensorIR programs.
//!
//! [`summarize`] statically walks a program, accumulating executed scalar
//! and vector operations, tensor-intrinsic invocations (from opaque blocks
//! annotated by `tensorize`), and per-scope memory traffic — every count
//! scaled by the product of enclosing loop extents. [`estimate_breakdown`]
//! combines the summary with a [`Machine`] as a roofline:
//! `max(compute_time, memory_time) + launch_overhead`, with compute
//! throughput derated by the exposed parallelism.

use std::collections::BTreeMap;

use tir::visit::ExprVisitor;
use tir::{AnnValue, Expr, ForKind, MemScope, PrimFunc, Stmt};

use crate::machine::{Machine, MachineKind};

/// Static execution summary of a program.
#[derive(Clone, Debug, Default)]
pub struct CostSummary {
    /// Scalar arithmetic operations executed outside vectorized loops.
    pub scalar_ops: f64,
    /// Arithmetic operations executed inside vectorized loops.
    pub vector_ops: f64,
    /// Tensor-intrinsic MACs by intrinsic name. Ordered, like
    /// [`CostSummary::traffic`], so that every float sum over the map adds
    /// in key order: addition order shows in the last bit.
    pub tensor_macs: BTreeMap<String, f64>,
    /// Bytes moved (loads + stores) per memory scope.
    pub traffic: BTreeMap<MemScope, f64>,
    /// Product of `blockIdx` extents (GPU grid size); 1 if none.
    pub grid_size: f64,
    /// Product of `threadIdx` extents (threads per block); 1 if none.
    pub block_threads: f64,
    /// Maximum extent product of CPU `parallel` loops; 1 if none.
    pub cpu_parallelism: f64,
}

struct Walker {
    summary: CostSummary,
    /// Whether any warp-scope tensor intrinsic was seen (implicit lanes).
    warp_intrin: bool,
    /// Product of all enclosing loop extents.
    mult: f64,
    /// Whether we are inside a vectorized loop.
    vectorized: bool,
    /// Running products of thread-binding extents on this path.
    grid: f64,
    threads: f64,
    parallel: f64,
}

/// Counts arithmetic operation nodes in an expression (loads also charge
/// traffic).
struct ExprCost<'a> {
    ops: f64,
    traffic: &'a mut BTreeMap<MemScope, f64>,
    mult: f64,
}

impl ExprVisitor for ExprCost<'_> {
    fn visit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Bin(..) | Expr::Cmp(..) | Expr::Not(_) | Expr::Select { .. } => {
                self.ops += 1.0;
            }
            Expr::Call { .. } => self.ops += 4.0, // transcendental-ish
            Expr::Cast(..) => self.ops += 0.5,
            Expr::Load { buffer, indices } => {
                *self.traffic.entry(buffer.scope().clone()).or_default() +=
                    buffer.dtype().bytes() as f64 * self.mult;
                // Index arithmetic inside the load is addressing, not ALU
                // work; still visit it for nested loads.
                let saved = self.ops;
                for i in indices {
                    self.visit_expr(i);
                }
                self.ops = saved;
                return;
            }
            _ => {}
        }
        self.walk_expr(e);
    }
}

impl Walker {
    /// Charges the loads in `exprs` as traffic and returns their
    /// arithmetic operations, per iteration.
    fn charge_loads<'e>(&mut self, exprs: impl IntoIterator<Item = &'e Expr>) -> f64 {
        let mut c = ExprCost {
            ops: 0.0,
            traffic: &mut self.summary.traffic,
            mult: self.mult,
        };
        for e in exprs {
            c.visit_expr(e);
        }
        c.ops
    }

    fn charge_expr(&mut self, e: &Expr) {
        let ops = self.charge_loads([e]) * self.mult;
        if self.vectorized {
            self.summary.vector_ops += ops;
        } else {
            self.summary.scalar_ops += ops;
        }
    }

    fn charge_store(&mut self, buffer: &tir::Buffer) {
        *self
            .summary
            .traffic
            .entry(buffer.scope().clone())
            .or_default() += buffer.dtype().bytes() as f64 * self.mult;
    }

    fn walk(&mut self, s: &Stmt) {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                // Index arithmetic is hidden by addressing modes / strength
                // reduction on real hardware: charge traffic for any loads
                // inside indices, but no ALU ops.
                self.charge_loads(indices);
                self.charge_expr(value);
                self.charge_store(buffer);
            }
            Stmt::Eval(e) => self.charge_expr(e),
            Stmt::Seq(v) => {
                for st in v {
                    self.walk(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.charge_expr(cond);
                self.walk(then_branch);
                if let Some(e) = else_branch {
                    self.walk(e);
                }
            }
            Stmt::For(f) => {
                let extent = f.extent.as_int().unwrap_or(1).max(1) as f64;
                let saved = (
                    self.mult,
                    self.vectorized,
                    self.grid,
                    self.threads,
                    self.parallel,
                );
                self.mult *= extent;
                match f.kind {
                    ForKind::Vectorized => self.vectorized = true,
                    ForKind::Parallel => self.parallel *= extent,
                    ForKind::ThreadBinding(tag) => match tag {
                        t if t.is_block_idx() => self.grid *= extent,
                        t if t.is_thread_idx() => self.threads *= extent,
                        _ => {}
                    },
                    _ => {}
                }
                self.summary.grid_size = self.summary.grid_size.max(self.grid);
                self.summary.block_threads = self.summary.block_threads.max(self.threads);
                self.summary.cpu_parallelism = self.summary.cpu_parallelism.max(self.parallel);
                self.walk(&f.body);
                (
                    self.mult,
                    self.vectorized,
                    self.grid,
                    self.threads,
                    self.parallel,
                ) = saved;
            }
            Stmt::BlockRealize(br) => {
                // Pure-reshape staging blocks are strided views in a real
                // backend (see tir-tensorize): free.
                if br.block.annotations.contains_key("tir.reshape_view") {
                    return;
                }
                // Cooperative blocks (AutoCopy data movement) distribute
                // their work across the annotated thread-group size even
                // though the IR replicates them idempotently per thread.
                let coop = match br.block.annotations.get("tir.cooperative") {
                    Some(AnnValue::Int(n)) => (*n).max(1) as f64,
                    _ => 1.0,
                };
                let saved_mult = self.mult;
                self.mult /= coop;
                self.walk_block_realize(br);
                self.mult = saved_mult;
            }
        }
    }

    /// Charges one realize: an opaque tensor intrinsic by its signature,
    /// anything else by its init and body. Binding expressions are index
    /// arithmetic: cheap, ignored.
    fn walk_block_realize(&mut self, br: &tir::BlockRealize) {
        if let Some(AnnValue::Str(intrin)) = br.block.annotations.get("tir.tensor_intrin") {
            // One intrinsic invocation per block instance; traffic charged
            // from the block signature regions.
            *self.summary.tensor_macs.entry(intrin.clone()).or_default() +=
                tile_macs(br) * self.mult;
            for region in br.block.reads.iter().chain(&br.block.writes) {
                let elems: f64 = region
                    .region
                    .iter()
                    .map(|r| r.extent.as_int().unwrap_or(1).max(1) as f64)
                    .product();
                *self
                    .summary
                    .traffic
                    .entry(region.buffer.scope().clone())
                    .or_default() += elems * region.buffer.dtype().bytes() as f64 * self.mult;
            }
            if matches!(
                br.block.annotations.get("tir.exec_scope"),
                Some(AnnValue::Str(s)) if s == "warp"
            ) {
                self.warp_intrin = true;
            }
            return; // opaque: do not descend
        }
        if let Some(init) = &br.block.init {
            // Init runs once per reduction sweep: charge it at
            // 1/reduce_extent of the full multiplier.
            let reduce_extent: f64 = br
                .block
                .iter_vars
                .iter()
                .filter(|iv| iv.kind == tir::IterKind::Reduce)
                .map(|iv| iv.extent.max(1) as f64)
                .product();
            let saved = self.mult;
            self.mult /= reduce_extent.max(1.0);
            self.walk(init);
            self.mult = saved;
        }
        self.walk(&br.block.body);
    }
}

/// MACs per instance of a tensorized block, from the extents of its
/// signature regions.
fn tile_macs(br: &tir::BlockRealize) -> f64 {
    // For a tensorized block, the signature's regions describe the tile.
    // A matmul tile has |A| = x*k, |B| = k*y and |C| = x*y, so
    // |A| * |B| * |C| = (x*y*k)^2 and macs = sqrt(|A| * |B| * |C|), exact
    // for matmul-family intrinsics. A block with one read counts it twice.
    let write_elems: f64 = br
        .block
        .writes
        .iter()
        .flat_map(|w| w.region.iter())
        .map(|r| r.extent.as_int().unwrap_or(1).max(1) as f64)
        .product();
    let a_elems: f64 = br
        .block
        .reads
        .first()
        .map(|r| {
            r.region
                .iter()
                .map(|rr| rr.extent.as_int().unwrap_or(1).max(1) as f64)
                .product()
        })
        .unwrap_or(1.0);
    let b_elems: f64 = br
        .block
        .reads
        .get(1)
        .map(|r| {
            r.region
                .iter()
                .map(|rr| rr.extent.as_int().unwrap_or(1).max(1) as f64)
                .product()
        })
        .unwrap_or(a_elems);
    (a_elems * b_elems * write_elems).sqrt()
}

/// Statically summarizes the work a program performs.
pub fn summarize(func: &PrimFunc) -> CostSummary {
    let mut w = Walker {
        summary: CostSummary {
            grid_size: 1.0,
            block_threads: 1.0,
            cpu_parallelism: 1.0,
            ..Default::default()
        },
        warp_intrin: false,
        mult: 1.0,
        vectorized: false,
        grid: 1.0,
        threads: 1.0,
        parallel: 1.0,
    };
    w.walk(&func.body);
    if w.warp_intrin {
        // Warp lanes are implicit around warp-scope tensor intrinsics.
        w.summary.block_threads *= 32.0;
    }
    w.summary
}

/// Which roofline term dominates a candidate's estimated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RooflineBound {
    /// Compute time meets or exceeds memory time.
    Compute,
    /// Memory time exceeds compute time.
    Memory,
}

impl RooflineBound {
    /// Stable lowercase name for reports and counters.
    pub fn name(self) -> &'static str {
        match self {
            RooflineBound::Compute => "compute",
            RooflineBound::Memory => "memory",
        }
    }
}

/// The roofline terms behind one [`simulate`] reading, kept separate
/// so profiling can attribute a candidate to its binding resource.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Time the arithmetic (scalar, vector, and tensor-unit) would take
    /// alone, seconds.
    pub compute_s: f64,
    /// Time the memory traffic would take alone, seconds.
    pub memory_s: f64,
    /// Fixed launch overhead, seconds.
    pub launch_s: f64,
}

impl TimeBreakdown {
    /// The roofline total: `max(compute, memory) + launch`.
    pub fn total(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.launch_s
    }

    /// Which term binds. Ties (including the all-zero summary) count as
    /// compute-bound, matching `max`'s left bias.
    pub fn bound(&self) -> RooflineBound {
        if self.compute_s >= self.memory_s {
            RooflineBound::Compute
        } else {
            RooflineBound::Memory
        }
    }
}

/// Per-term roofline estimate of a summarized program on a machine; its
/// [`TimeBreakdown::total`] is the estimated execution time in seconds.
pub fn estimate_breakdown(summary: &CostSummary, machine: &Machine) -> TimeBreakdown {
    // Effective parallelism.
    let (cores_used, rate_scale) = match machine.kind {
        MachineKind::Gpu => {
            let cores = summary.grid_size.min(machine.num_cores as f64).max(1.0);
            let occupancy = (summary.block_threads / machine.full_rate_threads as f64)
                .min(1.0)
                .max(1.0 / machine.full_rate_threads as f64);
            (cores, occupancy)
        }
        MachineKind::Cpu => {
            let cores = summary
                .cpu_parallelism
                .min(machine.num_cores as f64)
                .max(1.0);
            (cores, 1.0)
        }
    };
    let cycles_per_sec = machine.clock_ghz * 1e9;
    let scalar_rate =
        machine.scalar_macs_per_cycle * 2.0 * cores_used * rate_scale * cycles_per_sec;
    let vector_rate = scalar_rate * machine.vector_lanes as f64;

    let mut compute_time = summary.scalar_ops / scalar_rate + summary.vector_ops / vector_rate;
    for (intrin, macs) in &summary.tensor_macs {
        let per_core = machine
            .tensor_units
            .get(intrin)
            .map(|t| t.macs_per_cycle_per_core)
            // Unknown intrinsic on this machine: it executes as scalar code.
            .unwrap_or(machine.scalar_macs_per_cycle);
        let rate = per_core * cores_used * rate_scale * cycles_per_sec;
        compute_time += macs / rate;
    }

    let mut memory_time = 0.0;
    for (scope, bytes) in &summary.traffic {
        let bw = match scope {
            MemScope::Global => machine.global_bw_gbps * 1e9,
            MemScope::Shared | MemScope::Custom(_) => machine.shared_bw_gbps * 1e9,
            // Registers / fragments: effectively free.
            _ => f64::INFINITY,
        };
        memory_time += bytes / bw;
    }

    TimeBreakdown {
        compute_s: compute_time,
        memory_s: memory_time,
        launch_s: machine.launch_overhead_us * 1e-6,
    }
}

/// Estimated execution time (seconds) of a program on a machine:
/// summarize + roofline total in one call.
pub fn simulate(func: &PrimFunc, machine: &Machine) -> f64 {
    estimate_breakdown(&summarize(func), machine).total()
}

/// Why the analytic simulator could not produce a usable measurement.
///
/// The fallible entry point ([`try_simulate`]) exists for callers that
/// must not let a degenerate roofline reading — `NaN` from a zero-rate
/// machine model, or an infinite time — leak into downstream accounting.
/// The auto-scheduler's measurement harness treats this error as a
/// deterministic per-candidate failure (the candidate is quarantined,
/// never retried).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostError {
    /// The roofline model produced a non-finite or negative time.
    NonFiniteTime,
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::NonFiniteTime => {
                write!(f, "roofline model produced a non-finite or negative time")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// Fallible variant of [`simulate`]: rejects non-finite or negative
/// readings instead of returning them.
///
/// # Errors
///
/// Returns [`CostError::NonFiniteTime`] when the roofline evaluates to
/// `NaN`, an infinity, or a negative number (possible with degenerate
/// machine descriptions, e.g. a zero clock rate).
pub fn try_simulate(func: &PrimFunc, machine: &Machine) -> Result<f64, CostError> {
    let t = simulate(func, machine);
    if t.is_finite() && t >= 0.0 {
        Ok(t)
    } else {
        Err(CostError::NonFiniteTime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn matmul_summary_counts_work() {
        let f = matmul_func("mm", 64, 64, 64, DataType::float32());
        let s = summarize(&f);
        // 64^3 iterations, ~2 arithmetic ops each (mul + add).
        assert!(
            s.scalar_ops >= 2.0 * 64.0 * 64.0 * 64.0 * 0.9,
            "{}",
            s.scalar_ops
        );
        // A and B loads dominate global traffic: >= 2 * 64^3 * 4 bytes.
        let global = s.traffic[&MemScope::Global];
        assert!(global >= 2.0 * 262_144.0 * 4.0 * 0.9, "{global}");
        assert_eq!(s.grid_size, 1.0);
    }

    #[test]
    fn parallelism_speeds_up_cpu() {
        let f = matmul_func("mm", 64, 64, 64, DataType::float32());
        let m = Machine::sim_arm();
        let serial = simulate(&f, &m);
        // Parallelize the outer loop.
        let mut sch_like = f.clone();
        if let Some(Stmt::For(fr)) = sch_like.root_block_mut().map(|root| &mut *root.body) {
            fr.kind = ForKind::Parallel;
        }
        let parallel = simulate(&sch_like, &m);
        assert!(
            parallel < serial,
            "parallel {parallel} should beat serial {serial}"
        );
    }

    #[test]
    fn monotone_in_problem_size() {
        let m = Machine::sim_gpu();
        let small = simulate(&matmul_func("a", 32, 32, 32, DataType::float16()), &m);
        let big = simulate(&matmul_func("b", 128, 128, 128, DataType::float16()), &m);
        assert!(big > small);
    }

    #[test]
    fn launch_overhead_floors_time() {
        let m = Machine::sim_gpu();
        let tiny = simulate(&matmul_func("t", 2, 2, 2, DataType::float16()), &m);
        assert!(tiny >= m.launch_overhead_us * 1e-6);
    }

    #[test]
    fn deterministic() {
        let f = matmul_func("mm", 64, 64, 64, DataType::float16());
        let m = Machine::sim_gpu();
        assert_eq!(simulate(&f, &m), simulate(&f, &m));
    }

    #[test]
    fn breakdown_total_is_bit_identical_to_simulate() {
        for (m, n, k) in [(16, 16, 16), (64, 64, 64), (128, 32, 256)] {
            let f = matmul_func("mm", m, n, k, DataType::float32());
            let s = summarize(&f);
            for machine in [Machine::sim_gpu(), Machine::sim_arm()] {
                let b = estimate_breakdown(&s, &machine);
                assert_eq!(b.total().to_bits(), simulate(&f, &machine).to_bits());
                assert!(b.compute_s >= 0.0 && b.memory_s >= 0.0 && b.launch_s > 0.0);
            }
        }
    }

    #[test]
    fn roofline_bound_tracks_dominant_term() {
        let compute = TimeBreakdown {
            compute_s: 2.0,
            memory_s: 1.0,
            launch_s: 0.0,
        };
        assert_eq!(compute.bound(), RooflineBound::Compute);
        let memory = TimeBreakdown {
            compute_s: 1.0,
            memory_s: 2.0,
            launch_s: 0.0,
        };
        assert_eq!(memory.bound(), RooflineBound::Memory);
        assert_eq!(TimeBreakdown::default().bound(), RooflineBound::Compute);
        assert_eq!(RooflineBound::Memory.name(), "memory");
    }

    #[test]
    fn try_simulate_agrees_with_simulate_on_sane_machines() {
        let f = matmul_func("mm", 64, 64, 64, DataType::float16());
        let m = Machine::sim_gpu();
        assert_eq!(try_simulate(&f, &m), Ok(simulate(&f, &m)));
    }

    #[test]
    fn try_simulate_rejects_degenerate_machines() {
        // Zero DRAM bandwidth makes memory time infinite; a NaN launch
        // overhead poisons the sum. The fallible entry point must catch
        // both instead of returning them.
        let f = matmul_func("mm", 16, 16, 16, DataType::float32());
        let mut m = Machine::sim_gpu();
        m.global_bw_gbps = 0.0;
        assert_eq!(try_simulate(&f, &m), Err(CostError::NonFiniteTime));
        let mut m2 = Machine::sim_gpu();
        m2.launch_overhead_us = f64::NAN;
        assert_eq!(try_simulate(&f, &m2), Err(CostError::NonFiniteTime));
    }
}

#[cfg(test)]
mod annotation_tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    fn annotate_first_block(func: &mut tir::PrimFunc, key: &str, value: tir::AnnValue) {
        // Annotate the first non-root block.
        fn walk(s: &mut Stmt, key: &str, value: &tir::AnnValue) -> bool {
            match s {
                Stmt::BlockRealize(br) if br.block.name != "root" => {
                    br.block.annotations.insert(key.to_string(), value.clone());
                    true
                }
                _ => s.children_mut().any(|child| walk(child, key, value)),
            }
        }
        let root = func.root_block_mut().expect("root block");
        assert!(walk(&mut root.body, key, &value));
    }

    #[test]
    fn cooperative_annotation_divides_cost() {
        let base = matmul_func("mm", 32, 32, 32, DataType::float32());
        let plain = summarize(&base);
        let mut coop = base.clone();
        annotate_first_block(&mut coop, "tir.cooperative", tir::AnnValue::Int(8));
        let divided = summarize(&coop);
        let ratio = plain.scalar_ops / divided.scalar_ops;
        assert!((ratio - 8.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn reshape_view_annotation_is_free() {
        let base = matmul_func("mm", 32, 32, 32, DataType::float32());
        let mut viewed = base.clone();
        annotate_first_block(&mut viewed, "tir.reshape_view", tir::AnnValue::Int(1));
        let s = summarize(&viewed);
        assert_eq!(s.scalar_ops, 0.0);
        assert!(s.traffic.is_empty() || s.traffic.values().all(|v| *v == 0.0));
    }

    #[test]
    fn tensor_intrin_annotation_moves_work_to_tensor_units() {
        // Annotating a block with an intrinsic name makes the walker credit
        // tensor MACs from the signature instead of scalar ops.
        let mut f = matmul_func("mm", 16, 16, 16, DataType::float16());
        annotate_first_block(
            &mut f,
            "tir.tensor_intrin",
            tir::AnnValue::Str("wmma_16x16x16_f16".into()),
        );
        let s = summarize(&f);
        assert_eq!(s.scalar_ops, 0.0, "opaque block not descended");
        assert!(s.tensor_macs.contains_key("wmma_16x16x16_f16"));
    }

    #[test]
    fn unknown_intrinsic_runs_at_scalar_rate() {
        let mut f = matmul_func("mm", 64, 64, 64, DataType::float16());
        annotate_first_block(
            &mut f,
            "tir.tensor_intrin",
            tir::AnnValue::Str("nonexistent_unit".into()),
        );
        let m = Machine::sim_gpu();
        let t = simulate(&f, &m);
        assert!(t.is_finite() && t > 0.0);
    }
}
