//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root states the same tables for the driver; a unit test holds the two
//! together.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: what the three phases are and why the workload exists.
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated-clock metrics are a pure function of the seed and must
    /// repeat (to the last bit, see `stats::same_sim`); wall-clock ones only
    /// within `bound`.
    pub deterministic: bool,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Exact counts and shares of counts repeat bit for bit for a seed.
    pub deterministic: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tune_ops",
        why: "A: 8 cold GPU f16 tunes (Fig.10), B: 2 ARM int8 tunes (Fig.13), C: 1 tune with tracing on. Sketch apply, evolutionary loop and GBDT refit do the work; graph, daemon and VM do none.",
    },
    Workload {
        name: "compile_models",
        why: "A: cold compile of ResNet-50 + BERT-large, B: 200 warm recompiles, C: 80 warm evaluations. Many short tunes, so sketch build, fuse_graph, workload_key and db lookups carry a real share.",
    },
    Workload {
        name: "oracles",
        why: "A: optimized VM on 8 programs, B: sanitizer on them, C: static verifier on 200+ candidates and 4 illegal programs. tir-exec and tir-analysis only: a tuner change must leave it flat.",
    },
    Workload {
        name: "serve_session",
        why: "A: 16 cold tune requests (search + journal fsync), B: 2000 warm requests, C: shutdown, restart, 320 queries (replay). Only here do the daemon protocol, dedup and the journal run.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    deterministic: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

/// Every end-to-end metric is reported on every workload (the driver's
/// contract), so the three parts of a repetition carry positional names;
/// what A, B and C are on a workload is in its `why` and in the README.
///
/// A bound is shared by the four workloads and the driver compares runs
/// made with different seeds, so each is about three times the widest
/// run-to-run spread (interquartile distance over the median of ten runs)
/// seen on any workload on the shared two-core box this was written on —
/// 8.5% for the wall-clock metrics, which puts all of them at the 25%
/// the driver allows at most. "Steadiness" in the README has the numbers.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("wall_s", "s", Better::Lower, 0.25, false),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, false),
    e2e("phase_a_ms", "ms", Better::Lower, 0.25, false),
    e2e("phase_b_ms", "ms", Better::Lower, 0.25, false),
    e2e("phase_c_ms", "ms", Better::Lower, 0.25, false),
    e2e("sim_best_geomean_us", "sim_us", Better::Lower, 0.01, true),
    e2e("sim_tuning_cost_s", "sim_s", Better::Lower, 0.20, true),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        deterministic: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        deterministic: true,
    }
}

use Better::{Higher, Lower};

/// Prefix = crate, then module. A metric a workload does not exercise
/// reads 0 there — that zero is the statement "this layer did none of the
/// work".
pub const PER_LAYER: [PerLayer; 55] = [
    // tune_ops (and, through the replayed compile loop, compile_models).
    layer("tir-schedule.apply_us", "us", Lower),
    exact("tir-schedule.apply_calls", "count", Lower),
    exact("tir-schedule.apply_fail_share", "share", Lower),
    layer("tir-autoschedule.sketch.build_us", "us", Lower),
    layer("tir-autoschedule.sketch.propose_us", "us", Lower),
    layer("tir-exec.cost.simulate_us", "us", Lower),
    layer("tir-exec.cost.summarize_us", "us", Lower),
    layer("tir.structural_hash_us", "us", Lower),
    layer("tir-autoschedule.feature.extract_us", "us", Lower),
    layer("tir-autoschedule.cost_model.refit_ms", "ms", Lower),
    layer("tir-autoschedule.cost_model.predict_us", "us", Lower),
    exact("tir-autoschedule.search.cache_hit_share", "share", Higher),
    exact("tir-autoschedule.search.invalid_share", "share", Lower),
    layer("tir-autoschedule.search.unattributed_share", "share", Lower),
    layer("tir-trace.enabled_overhead_share", "share", Lower),
    // compile_models.
    layer("tir-graph.fuse_graph_us", "us", Lower),
    exact("tir-graph.groups", "count", Lower),
    exact("tir-graph.distinct_kernels", "count", Lower),
    layer("tir-autoschedule.database.workload_key_us", "us", Lower),
    layer("tir-autoschedule.database.lookup_us", "us", Lower),
    exact("tir-autoschedule.database.hit_share", "share", Higher),
    layer("tir-autoschedule.search.tune_ms", "ms", Lower),
    layer("tir-graph.unattributed_share", "share", Lower),
    // oracles.
    layer("tir-exec.compile_us", "us", Lower),
    layer("tir-exec.opt.optimize_us", "us", Lower),
    layer("tir-exec.vm.run_ns_per_step", "ns", Lower),
    layer("tir-exec.vm.unopt_ns_per_step", "ns", Lower),
    layer("tir-exec.interp.treewalk_ns_per_step", "ns", Lower),
    exact("tir-exec.opt.instr_before", "count", Lower),
    exact("tir-exec.opt.instr_after", "count", Lower),
    exact("tir-exec.opt.dispatch_reduction_share", "share", Higher),
    layer("tir-exec.vm.sanitize_run_ns_per_step", "ns", Lower),
    layer("tir-analysis.racecheck_us", "us", Lower),
    layer("tir-analysis.bounds_us", "us", Lower),
    layer("tir-analysis.validate_us", "us", Lower),
    exact("tir-analysis.verdict_mismatches", "count", Lower),
    // serve_session.
    layer("tir-serve.cold_p95_ms", "ms", Lower),
    layer("tir-serve.warm_p99_us", "us", Lower),
    layer("tir-serve.warm_p99.9_us", "us", Lower),
    layer("tir-serve.query_p50_us", "us", Lower),
    layer("tir-serve.restart_ms", "ms", Lower),
    layer("tir-serve.cold_overhead_ms", "ms", Lower),
    layer("tir-serve.dedup_join_share", "share", Higher),
    exact("tir-serve.rejected", "count", Lower),
    layer("tir-serve.protocol.encode_us", "us", Lower),
    layer("tir-serve.protocol.decode_us", "us", Lower),
    layer("tir.parser.parse_us", "us", Lower),
    layer("tir.printer.print_us", "us", Lower),
    layer("tir-autoschedule.journal.publish_p50_us", "us", Lower),
    layer("tir-autoschedule.journal.replay_ms", "ms", Lower),
    exact("tir-autoschedule.journal.bytes", "count", Lower),
    // Cost of looking, per workload: traced wall / untraced wall - 1.
    layer("tune_ops.trace_overhead_share", "share", Lower),
    layer("compile_models.trace_overhead_share", "share", Lower),
    layer("oracles.trace_overhead_share", "share", Lower),
    layer("serve_session.trace_overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in WORKLOADS
            .iter()
            .map(|w| (w.name, "s"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("well-formed JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name").as_deref(), Some(w.name));
            assert_eq!(field(j, "why").as_deref(), Some(w.why));
        }
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(j, "better").as_deref(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(j, "better").as_deref(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
        }
        let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
        assert_eq!(paths, [Json::str("benchmark")]);
    }
}
