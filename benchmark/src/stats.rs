//! Order statistics and name rules shared by every workload.

/// Median of the samples (mean of the two middle ones for an even count).
/// `NaN` for an empty slice, so a missing measurement can never pass for a
/// number.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (choosing-metrics §1), as a fraction in `(0, 1)`;
/// `None` below twenty samples, where even the median has fewer than ten
/// on each side.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some((n - 10) as f64 / n as f64)
}

/// The `p`-quantile (nearest rank, `0 < p <= 1`) of the samples, or `None`
/// when fewer than ten samples lie beyond it — the rule that keeps a p99.9
/// of 500 requests out of the report.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if !(p > 0.0 && p <= 1.0) || n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of positive values; `NaN` when empty or when any value
/// is not strictly positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Whether two simulated-clock values are the same result. The roofline
/// estimate adds its memory terms in `HashMap` iteration order
/// (`tir_exec::cost::estimate_breakdown`), so the simulated time of one
/// program — and every `best_time` and `tuning_cost_s` built from it — can
/// differ in its last bit between two identical runs. Everything else about
/// a search (programs, counts) is compared exactly; simulated seconds are
/// compared to a relative 1e-12, a thousand times coarser than that jitter
/// and a billion times finer than any change in what a search found.
pub fn same_sim(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 characters of letters, digits, `_`, `.`, `-`. The
/// metric tables are held to this by a unit test.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.`, `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 has exactly ten samples beyond it; p99.9 has one.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..100], 0.95), None);
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_percentile_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        let p = highest_supported_percentile(36_000).expect("enough samples");
        let v: Vec<f64> = (0..36_000).map(f64::from).collect();
        assert!(percentile(&v, p).is_some());
        assert!(p > 0.999);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, -3.0]).is_nan());
    }

    #[test]
    fn simulated_values_compare_to_a_last_bit_tolerance() {
        let t = 2.495729342639422_f64;
        assert!(same_sim(t, f64::from_bits(t.to_bits() + 1)));
        assert!(same_sim(0.0, 0.0) && same_sim(f64::INFINITY, f64::INFINITY));
        assert!(!same_sim(t, t * (1.0 + 1e-9)));
        assert!(!same_sim(t, f64::NAN) && !same_sim(1.0, 0.0));
    }

    #[test]
    fn name_and_unit_rules() {
        for ok in ["wall_s", "tir-serve.warm_p99.9_us", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "sim_us", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "simulated seconds", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
