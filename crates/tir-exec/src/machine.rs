//! Simulated hardware models.
//!
//! An analytic, deterministic roofline model of the paper's two evaluation
//! platforms. The model captures exactly the quantities the paper's results
//! hinge on: the throughput gap between scalar/vector units and tensor
//! intrinsics, the bandwidth hierarchy between global/shared/register
//! storage, and the parallelism exposed by thread bindings. See DESIGN.md
//! §1 for the substitution argument.
//!
//! [`Machine`] is immutable plain data (`Send + Sync`), so tunes running
//! on several threads (the tuning daemon's workers) share one model by
//! reference.

use std::collections::HashMap;

/// Whether a machine schedules work GPU-style (grid/block thread bindings)
/// or CPU-style (parallel loops + vector units).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineKind {
    /// GPU: parallelism comes from `blockIdx`/`threadIdx` bindings.
    Gpu,
    /// CPU: parallelism comes from `parallel` loops and SIMD vectorization.
    Cpu,
}

/// Performance of one tensor intrinsic on a machine.
#[derive(Clone, Copy, Debug)]
pub struct TensorUnitPerf {
    /// Multiply-accumulates per cycle per core when using this intrinsic.
    pub macs_per_cycle_per_core: f64,
}

/// An analytic machine model.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Human-readable name.
    pub name: String,
    /// GPU-style or CPU-style parallelism.
    pub kind: MachineKind,
    /// Number of cores (SMs / CPU cores).
    pub num_cores: i64,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Scalar multiply-accumulates per cycle per core.
    pub scalar_macs_per_cycle: f64,
    /// SIMD lanes usable by vectorized loops.
    pub vector_lanes: i64,
    /// Tensor intrinsics available on this machine, with their throughput.
    pub tensor_units: HashMap<String, TensorUnitPerf>,
    /// Global (DRAM) bandwidth, GB/s.
    pub global_bw_gbps: f64,
    /// Aggregate shared-memory / L1 bandwidth, GB/s.
    pub shared_bw_gbps: f64,
    /// Fixed kernel-launch / loop-spawn overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Threads per core needed to reach full throughput (latency hiding).
    pub full_rate_threads: i64,
}

impl Machine {
    /// An RTX-3080-class GPU with Tensor Cores.
    ///
    /// 68 SMs at 1.71 GHz; 128 FMA lanes per SM for f16 scalar math, a
    /// `wmma` tensor unit at ~8x the scalar MAC rate, 760 GB/s DRAM and
    /// ~12 TB/s aggregate shared-memory bandwidth.
    pub fn sim_gpu() -> Machine {
        let mut tensor_units = HashMap::new();
        tensor_units.insert(
            "wmma_16x16x16_f16".to_string(),
            TensorUnitPerf {
                macs_per_cycle_per_core: 1024.0,
            },
        );
        tensor_units.insert(
            "dot_4x4x4_f32".to_string(),
            TensorUnitPerf {
                macs_per_cycle_per_core: 256.0,
            },
        );
        Machine {
            name: "SimGPU (RTX-3080-class)".to_string(),
            kind: MachineKind::Gpu,
            num_cores: 68,
            clock_ghz: 1.71,
            scalar_macs_per_cycle: 128.0,
            vector_lanes: 1,
            tensor_units,
            global_bw_gbps: 760.0,
            shared_bw_gbps: 12000.0,
            launch_overhead_us: 5.0,
            full_rate_threads: 256,
        }
    }

    /// A Graviton2-class ARM CPU with the `sdot` int8 dot-product
    /// instruction.
    ///
    /// 64 Neoverse-N1 cores at 2.5 GHz; 2 scalar MACs/cycle, 8 effective
    /// int8 SIMD MAC lanes (widening multiply-accumulate), `sdot` at 32
    /// MACs/cycle/core, ~200 GB/s DRAM.
    pub fn sim_arm() -> Machine {
        let mut tensor_units = HashMap::new();
        tensor_units.insert(
            "sdot_4x4x4_i8".to_string(),
            TensorUnitPerf {
                macs_per_cycle_per_core: 32.0,
            },
        );
        Machine {
            name: "SimARM (Graviton2-class)".to_string(),
            kind: MachineKind::Cpu,
            num_cores: 64,
            clock_ghz: 2.5,
            scalar_macs_per_cycle: 2.0,
            vector_lanes: 8,
            tensor_units,
            global_bw_gbps: 200.0,
            shared_bw_gbps: 2000.0, // L1/L2 aggregate
            launch_overhead_us: 2.0,
            full_rate_threads: 1,
        }
    }

    /// A next-generation ARM CPU that additionally supports the
    /// `smmla` int8 matrix instruction at twice the `sdot` rate —
    /// used to demonstrate multi-intrinsic selection in the search.
    pub fn sim_arm_v86() -> Machine {
        let mut m = Self::sim_arm();
        m.name = "SimARMv8.6 (smmla)".to_string();
        m.tensor_units.insert(
            "smmla_2x2x8_i8".to_string(),
            TensorUnitPerf {
                macs_per_cycle_per_core: 64.0,
            },
        );
        m
    }

    /// Peak MAC throughput (MACs/second) of the named tensor unit, if
    /// present.
    pub fn tensor_peak(&self, intrin: &str) -> Option<f64> {
        self.tensor_units
            .get(intrin)
            .map(|t| t.macs_per_cycle_per_core * self.num_cores as f64 * self.clock_ghz * 1e9)
    }

    /// Peak scalar MAC throughput (MACs/second).
    pub fn scalar_peak(&self) -> f64 {
        self.scalar_macs_per_cycle * self.num_cores as f64 * self.clock_ghz * 1e9
    }

    /// Peak vector MAC throughput (MACs/second).
    pub fn vector_peak(&self) -> f64 {
        self.scalar_peak() * self.vector_lanes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_is_shareable_across_threads() {
        // The parallel tuning pipeline borrows one Machine from every
        // worker; this fails to compile if a field ever loses Send+Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Machine>();
        assert_send_sync::<TensorUnitPerf>();
        assert_send_sync::<MachineKind>();
    }

    #[test]
    fn gpu_tensor_core_ratio() {
        let m = Machine::sim_gpu();
        let tc = m.tensor_peak("wmma_16x16x16_f16").expect("wmma");
        assert!(
            tc / m.scalar_peak() >= 4.0,
            "tensor cores must be much faster"
        );
        assert!(m.tensor_peak("sdot_4x4x4_i8").is_none());
    }

    #[test]
    fn arm_sdot_ratio() {
        let m = Machine::sim_arm();
        let sdot = m.tensor_peak("sdot_4x4x4_i8").expect("sdot");
        assert!(sdot / m.scalar_peak() >= 8.0);
        assert!(sdot / m.vector_peak() >= 1.5);
        assert_eq!(m.kind, MachineKind::Cpu);
    }
}
