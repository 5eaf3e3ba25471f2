//! Shared harness utilities for the benches.
//!
//! `benches/paper_claims.rs` runs the paper's evaluation (Figs. 10–14 and
//! Table 1) on the simulated machines and checks each of its claims as a
//! [`Claim`]. Absolute numbers come from the analytic simulator
//! (DESIGN.md §1); the claims under reproduction are the *relative* ones:
//! who wins, by roughly what factor, and where the crossovers fall.

pub mod alloc_count;

use std::fmt;

use tir_autoschedule::oracle_time;
use tir_exec::machine::Machine;
use tir_workloads::{BenchCase, OpKind};

/// Default measurement budget per layer for end-to-end tuning.
pub const E2E_TRIALS: usize = 16;

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

/// Formats seconds as milliseconds with 3 decimals.
pub fn fmt_ms(t: f64) -> String {
    format!("{:.3}", t * 1e3)
}

/// The verdict a paper claim is expected to reach on this tree.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Every measured value lies in the paper's band.
    Holds,
    /// Some value lies outside it, for the stated reason.
    Deviation(&'static str),
}

/// One claim of the paper's evaluation: the figure cells it reads, the
/// band the paper gives, and the verdict expected. A value is compared
/// unrounded against the closed band `[lo, hi]` (`hi` infinite: no upper
/// end); an unsupported cell is NaN and lies in no band.
#[derive(Debug)]
pub struct Claim {
    pub id: &'static str,
    pub band: (f64, f64),
    pub measured: Vec<f64>,
    pub expect: Expect,
}

impl Claim {
    /// Whether every measured value lies in the band.
    pub fn holds(&self) -> bool {
        let (lo, hi) = self.band;
        self.measured.iter().all(|v| lo <= *v && *v <= hi)
    }

    /// Why the measured verdict is not the expected one; `None` if it is.
    pub fn flipped(&self) -> Option<String> {
        match (self.expect, self.holds()) {
            (Expect::Holds, false) => Some(format!("expected to hold: {self}")),
            (Expect::Deviation(_), true) => Some(format!("expected a deviation: {self}")),
            _ => None,
        }
    }
}

/// `<id> <measured> in [lo, hi]: <verdict>`; several values print as
/// their range.
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = self.measured.iter().copied();
        let (min, max) = (
            values.clone().fold(f64::INFINITY, f64::min),
            values.fold(f64::NEG_INFINITY, f64::max),
        );
        let measured = match self.measured.len() {
            1 => format!("{min:.3}"),
            _ => format!("{min:.3}..{max:.3}"),
        };
        let verdict = match (self.holds(), self.expect) {
            (true, _) => "holds".to_string(),
            (false, Expect::Deviation(why)) => format!("deviation: {why}"),
            (false, Expect::Holds) => "deviation".to_string(),
        };
        let (lo, hi) = self.band;
        write!(f, "{} {measured} in [{lo}, {hi}]: {verdict}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_support_matrix() {
        assert!(vendor_efficiency("CUTLASS", OpKind::GMM).is_some());
        assert!(vendor_efficiency("CUTLASS", OpKind::DEP).is_none());
        assert!(vendor_efficiency("CUTLASS", OpKind::T2D).is_none());
        assert!(vendor_efficiency("TensorRT", OpKind::DEP).is_some());
        assert!(vendor_efficiency("ArmComputeLib", OpKind::C2D).is_some());
        assert!(vendor_efficiency("ArmComputeLib", OpKind::T2D).is_none());
    }

    fn claim(measured: f64, expect: Expect) -> Claim {
        Claim {
            id: "test",
            band: (0.85, 1.05),
            measured: vec![0.9, measured],
            expect,
        }
    }

    #[test]
    fn an_expected_hold_measured_outside_its_band_fails() {
        // Compared unrounded: 1.0524 prints as "105%" and is still above 1.05.
        for measured in [1.0524, 0.8, f64::NAN] {
            let flip = claim(measured, Expect::Holds).flipped();
            assert!(flip.expect("must fail").contains("expected to hold"));
        }
    }

    #[test]
    fn an_expected_deviation_measured_inside_its_band_fails() {
        for measured in [0.85, 1.0, 1.05] {
            let flip = claim(measured, Expect::Deviation("why")).flipped();
            assert!(flip.expect("must fail").contains("expected a deviation"));
        }
    }

    #[test]
    fn a_claim_whose_verdict_matches_passes() {
        assert_eq!(claim(1.05, Expect::Holds).flipped(), None);
        assert_eq!(claim(1.0524, Expect::Deviation("why")).flipped(), None);
        assert_eq!(
            claim(1.0524, Expect::Deviation("why")).to_string(),
            "test 0.900..1.052 in [0.85, 1.05]: deviation: why"
        );
    }
}
