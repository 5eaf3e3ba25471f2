//! Compilation strategies: TensorIR and the paper's comparison systems.
//!
//! * [`Strategy::TensorIr`] — the full system: auto-tensorization with
//!   first-class data movement, searched jointly with the scalar sketch.
//! * [`Strategy::Ansor`] — the "TVM" baseline: the same search over scalar
//!   sketches only (no tensor intrinsics), which is what Ansor/TVM
//!   auto-scheduling is.
//! * [`Strategy::Amos`] — tensor intrinsics via direct mapping but with
//!   data movement *not* first-class: no shared staging, layout-rewrite
//!   stages materialized in global memory.
//!
//! Vendor libraries (CUTLASS / TensorRT / ArmComputeLib / PyTorch backends)
//! are modeled as roofline oracles in the benchmark harness: a dedicated
//! engineering team's kernel reaches a fixed, high fraction of machine
//! peak on the operators the library supports.

use tir::PrimFunc;
use tir_exec::machine::{Machine, MachineKind};
use tir_tensorize::{find_tensorizable_block, IntrinRegistry};

use crate::search::{tune_with, TuneOptions, TuneResult};
use crate::sketch::SketchRule;
use crate::sketch_cpu::{CpuScalarSketch, CpuTensorSketch};
use crate::sketch_gpu::{GpuScalarSketch, GpuTensorSketch};

/// A compilation strategy under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// This paper's system.
    TensorIr,
    /// Ansor-like scalar auto-scheduling (the "TVM" bars).
    Ansor,
    /// AMOS-like tensorization without first-class data movement.
    Amos,
}

impl Strategy {
    /// Display label used by the benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::TensorIr => "TensorIR",
            Strategy::Ansor => "TVM(Ansor)",
            Strategy::Amos => "AMOS",
        }
    }

    /// Inverse of [`Strategy::label`]: resolves a stored or wire-level
    /// label back to the strategy. `None` for unknown labels — the
    /// database loader turns that into a typed corruption error, the
    /// server into a protocol rejection.
    pub fn from_label(label: &str) -> Option<Strategy> {
        match label {
            "TensorIR" => Some(Strategy::TensorIr),
            "TVM(Ansor)" => Some(Strategy::Ansor),
            "AMOS" => Some(Strategy::Amos),
            _ => None,
        }
    }
}

/// Builds the sketches a strategy searches over for one workload.
pub fn build_sketches(
    func: &PrimFunc,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
) -> Vec<Box<dyn SketchRule>> {
    let mut sketches: Vec<Box<dyn SketchRule>> = Vec::new();
    let tensorized_allowed = matches!(strategy, Strategy::TensorIr | Strategy::Amos);
    if tensorized_allowed {
        for intrin in intrins.iter() {
            if !machine.tensor_units.contains_key(&intrin.name) {
                continue;
            }
            let Some(block) = find_tensorizable_block(func, intrin) else {
                continue;
            };
            match machine.kind {
                MachineKind::Gpu => {
                    let staged = strategy == Strategy::TensorIr;
                    if let Ok(s) = GpuTensorSketch::new(func, &block, intrin, staged) {
                        sketches.push(Box::new(s));
                    }
                }
                MachineKind::Cpu => {
                    if let Ok(s) = CpuTensorSketch::new(func, &block, intrin) {
                        sketches.push(Box::new(s));
                    }
                }
            }
        }
    }
    // TensorIR and Ansor also search the scalar space; AMOS commits to the
    // tensorized mapping.
    let scalar_allowed = match strategy {
        Strategy::TensorIr | Strategy::Ansor => true,
        Strategy::Amos => sketches.is_empty(),
    };
    if scalar_allowed {
        match machine.kind {
            MachineKind::Gpu => sketches.push(Box::new(GpuScalarSketch::new(func))),
            MachineKind::Cpu => sketches.push(Box::new(CpuScalarSketch::new(func))),
        }
    }
    sketches
}

/// Tunes one workload under a strategy: [`build_sketches`], then one
/// [`tune_with`] over them on the default fault-free simulator backend.
pub fn tune_workload(
    func: &PrimFunc,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
    opts: &TuneOptions,
) -> TuneResult {
    let sketches = build_sketches(func, machine, intrins, strategy);
    let refs: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
    tune_with(&refs, machine, opts, &crate::SimMeasurer)
}

/// Roofline oracle for a vendor library kernel: the kernel reaches
/// `efficiency` of the machine's best compute peak for the data type while
/// moving at least the compulsory bytes.
pub fn oracle_time(
    macs: f64,
    min_bytes: f64,
    peak_macs_per_s: f64,
    efficiency: f64,
    machine: &Machine,
) -> f64 {
    let compute = macs / (peak_macs_per_s * efficiency);
    let memory = min_bytes / (machine.global_bw_gbps * 1e9);
    compute.max(memory) + machine.launch_overhead_us * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    #[test]
    fn strategies_build_expected_sketches() {
        let func = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float16());
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let tir_s = build_sketches(&func, &machine, &reg, Strategy::TensorIr);
        // Tensorized (wmma) + scalar.
        assert!(tir_s.len() >= 2, "{}", tir_s.len());
        let ansor = build_sketches(&func, &machine, &reg, Strategy::Ansor);
        assert_eq!(ansor.len(), 1);
        assert!(ansor[0].name().contains("scalar"));
        let amos = build_sketches(&func, &machine, &reg, Strategy::Amos);
        assert!(amos.iter().any(|s| s.name().contains("nostage")));
    }

    #[test]
    fn f32_matmul_has_no_wmma_sketch() {
        // wmma is f16-only: TensorIR falls back to the synthetic dot
        // intrinsic or scalar.
        let func = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float32());
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let sketches = build_sketches(&func, &machine, &reg, Strategy::TensorIr);
        assert!(sketches.iter().all(|s| !s.name().contains("wmma")));
    }

    #[test]
    fn tune_workload_ranks_strategies() {
        let func = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 24,
            ..Default::default()
        };
        let tir_r = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts);
        let ansor_r = tune_workload(&func, &machine, &reg, Strategy::Ansor, &opts);
        assert!(
            tir_r.best_time < ansor_r.best_time,
            "TensorIR must win on f16 matmul"
        );
    }

    #[test]
    fn oracle_is_roofline_bounded() {
        let machine = Machine::sim_gpu();
        let peak = machine.tensor_peak("wmma_16x16x16_f16").unwrap();
        let t_fast = oracle_time(1e9, 1e6, peak, 0.9, &machine);
        let t_slow = oracle_time(1e9, 1e6, peak, 0.45, &machine);
        assert!(t_slow > t_fast);
        // Memory-bound case.
        let t_mem = oracle_time(1e3, 1e9, peak, 0.9, &machine);
        assert!(t_mem > 1e9 / (machine.global_bw_gbps * 1e9));
    }
}

#[cfg(test)]
mod intrin_selection_tests {
    use super::*;
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    /// With two applicable intrinsics (`sdot` and the 2x faster `smmla`),
    /// the search over both sketches picks the faster unit; on plain
    /// Graviton2 (no `smmla`), the `smmla` sketch is never built.
    #[test]
    fn search_selects_the_fastest_available_intrinsic() {
        let func = tir_workloads::gmm(256, 256, 256, DataType::int8(), DataType::int32());
        let reg = builtin_registry();
        let opts = crate::TuneOptions {
            trials: 24,
            ..Default::default()
        };
        let plain = Machine::sim_arm();
        let v86 = Machine::sim_arm_v86();
        let sketches_plain = build_sketches(&func, &plain, &reg, Strategy::TensorIr);
        assert!(
            !sketches_plain.iter().any(|s| s.name().contains("smmla")),
            "plain ARM must not build smmla sketches"
        );
        let sketches_v86 = build_sketches(&func, &v86, &reg, Strategy::TensorIr);
        assert!(
            sketches_v86.iter().any(|s| s.name().contains("smmla")),
            "v8.6 must build smmla sketches"
        );
        let r_plain = tune_workload(&func, &plain, &reg, Strategy::TensorIr, &opts);
        let r_v86 = tune_workload(&func, &v86, &reg, Strategy::TensorIr, &opts);
        assert!(
            r_v86.best_time < r_plain.best_time,
            "smmla machine should win: {} vs {}",
            r_v86.best_time,
            r_plain.best_time
        );
    }
}

#[cfg(test)]
mod fused_epilogue_tests {
    use super::*;
    use tir::builder::{compute, matmul_func};
    use tir::{Buffer, DataType, Expr, PrimFunc, Stmt};
    use tir_tensorize::builtin_registry;

    /// Matmul followed by a ReLU epilogue in one function: the tensorized
    /// sketch covers the matmul and flat-binds the epilogue; the best
    /// program is bit-exact and beats the scalar-only search.
    #[test]
    fn fused_epilogue_function_is_tuned_end_to_end() {
        let base = matmul_func("mm", 64, 64, 64, DataType::float16());
        let c = base.params[2].clone();
        let d = Buffer::new("D", DataType::float16(), vec![64, 64]);
        let relu = compute("D", &d, |iv| {
            c.load(iv.iter().map(Expr::from).collect())
                .max(Expr::Float(0.0, DataType::float16()))
        });
        let (a, b) = (base.params[0].clone(), base.params[1].clone());
        let root_body = match &*base.body {
            Stmt::BlockRealize(br) => (*br.block.body).clone(),
            _ => unreachable!("root convention"),
        };
        let mut func = PrimFunc::new(
            "matmul_relu",
            vec![a, b, d],
            Stmt::seq(vec![root_body, relu]),
        );
        func.root_block_mut().unwrap().alloc_buffers.push(c);

        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 16,
            ..Default::default()
        };
        let tir_r = tune_workload(&func, &machine, &reg, Strategy::TensorIr, &opts);
        let best = tir_r.best.expect("a tensorized candidate");
        tir_exec::assert_same_semantics(&func, &best, 1, 0.0);
        let ansor_r = tune_workload(&func, &machine, &reg, Strategy::Ansor, &opts);
        assert!(
            tir_r.best_time < ansor_r.best_time,
            "tensorized {} vs scalar {}",
            tir_r.best_time,
            ansor_r.best_time
        );
    }
}
