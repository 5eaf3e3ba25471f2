//! Shared harness utilities for the figure/table reproduction benches.
//!
//! Every `benches/figNN_*.rs` target is a custom-harness binary that runs
//! the corresponding experiment on the simulated machines and prints the
//! same rows/series the paper's figure reports. Absolute numbers come from
//! the analytic simulator (DESIGN.md §1); the claims under reproduction
//! are the *relative* ones — who wins, by roughly what factor, and where
//! the crossovers fall.

pub mod alloc_count;

use tir_autoschedule::{oracle_time, tune_workload, Strategy, TuneOptions, TuneResult};
use tir_exec::machine::Machine;
use tir_tensorize::{builtin_registry, IntrinRegistry};
use tir_workloads::{BenchCase, OpKind};

/// Default measurement budget for single-operator tuning.
pub const SINGLE_OP_TRIALS: usize = 48;
/// Default measurement budget per layer for end-to-end tuning.
pub const E2E_TRIALS: usize = 16;

/// Tunes one benchmark case under a strategy.
pub fn tune_case(
    case: &BenchCase,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
    trials: usize,
) -> TuneResult {
    let opts = TuneOptions {
        trials,
        ..Default::default()
    };
    tune_workload(&case.func, machine, intrins, strategy, &opts)
}

/// Vendor-library efficiency for a single operator: fraction of the tensor
/// peak the library's hand-written kernel reaches, `None` = unsupported.
/// The support matrix follows §5.1: CUTLASS has no DEP/GRP/T2D kernels.
pub fn vendor_efficiency(library: &str, kind: OpKind) -> Option<f64> {
    Some(match (library, kind) {
        ("CUTLASS", OpKind::GMM) => 0.90,
        ("CUTLASS", OpKind::C2D) => 0.72,
        ("CUTLASS", OpKind::C3D) => 0.80,
        ("CUTLASS", OpKind::C1D) => 0.45,
        ("CUTLASS", OpKind::DIL) => 0.40,
        ("CUTLASS", OpKind::DEP | OpKind::GRP | OpKind::T2D) => return None,
        ("TensorRT", OpKind::GMM) => 0.85,
        ("TensorRT", OpKind::C2D) => 0.70,
        ("TensorRT", OpKind::C3D) => 0.75,
        ("TensorRT", OpKind::GRP) => 0.70,
        ("TensorRT", OpKind::C1D) => 0.40,
        ("TensorRT", OpKind::DIL) => 0.35,
        ("TensorRT", OpKind::DEP) => 0.25,
        ("TensorRT", OpKind::T2D) => 0.30,
        ("ArmComputeLib", OpKind::GMM) => 0.95,
        ("ArmComputeLib", OpKind::C2D) => 0.95,
        _ => return None,
    })
}

/// Roofline time of a vendor-library kernel for a case.
pub fn vendor_case_time(
    library: &str,
    case: &BenchCase,
    machine: &Machine,
    tensor_intrin: &str,
) -> Option<f64> {
    let eff = vendor_efficiency(library, case.kind)?;
    let peak = machine
        .tensor_peak(tensor_intrin)
        .unwrap_or_else(|| machine.vector_peak());
    let min_bytes: f64 = case.func.params.iter().map(|p| p.size_bytes() as f64).sum();
    Some(oracle_time(case.macs as f64, min_bytes, peak, eff, machine))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints a fixed-width table with a title line.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .chain([h.len()])
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Formats a relative-speedup cell (e.g. `3.42x`), or `n/a`.
pub fn fmt_speedup(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.2}x"),
        _ => "n/a".to_string(),
    }
}

/// Formats seconds as milliseconds with 3 decimals.
pub fn fmt_ms(t: f64) -> String {
    format!("{:.3}", t * 1e3)
}

/// The default intrinsic registry used by every experiment.
pub fn registry() -> IntrinRegistry {
    builtin_registry()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn vendor_support_matrix() {
        assert!(vendor_efficiency("CUTLASS", OpKind::GMM).is_some());
        assert!(vendor_efficiency("CUTLASS", OpKind::DEP).is_none());
        assert!(vendor_efficiency("CUTLASS", OpKind::T2D).is_none());
        assert!(vendor_efficiency("TensorRT", OpKind::DEP).is_some());
        assert!(vendor_efficiency("ArmComputeLib", OpKind::C2D).is_some());
        assert!(vendor_efficiency("ArmComputeLib", OpKind::T2D).is_none());
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some(2.0)), "2.00x");
        assert_eq!(fmt_speedup(None), "n/a");
    }
}
