//! Replays, over what the wrappers captured, the stages of a search that
//! no public interface lets a caller time in place: `structural_hash`,
//! `summarize`, feature extraction, cost-model prediction and the GBDT
//! refit. Each is called exactly as `tune_with` calls it, on the run's own
//! candidates and on its own measured sample sequence.

use std::time::Instant;

use tir::structural::structural_hash;
use tir_autoschedule::feature::features_of_summary;
use tir_autoschedule::{CostModel, TuneOptions};
use tir_exec::cost::summarize;

use crate::harness::Report;
use crate::spans::{totals_by_name, NameTotal, Span};
use crate::stats::mean;
use crate::wrappers::{
    Capture, Counts, SPAN_APPLY, SPAN_BUILD, SPAN_PROPOSE, SPAN_SIMULATE, SPAN_TUNE,
};

/// Mean cost per call of each replayed stage, and what those costs add up
/// to over every traced tune of the run.
#[derive(Default, Debug)]
pub struct Replayed {
    pub hash_us: f64,
    pub summarize_us: f64,
    pub extract_us: f64,
    pub predict_us: f64,
    /// Mean total refit time of one tune (all its searches), ms.
    pub refit_ms_per_tune: f64,
    pub calls: usize,
    /// Estimated nanoseconds the replayed stages took inside all traced
    /// tunes: per-call mean × the number of calls the wrappers counted.
    pub estimated_ns: f64,
}

fn ns_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_nanos() as f64)
}

pub fn replay(cap: &Capture, searches_run: usize) -> Replayed {
    if cap.candidates.is_empty() || cap.tunes == 0 {
        return Replayed::default();
    }
    let (mut hash, mut summ, mut feat) = (Vec::new(), Vec::new(), Vec::new());
    for f in &cap.candidates {
        hash.push(ns_of(|| structural_hash(f)).1);
        let (s, ns) = ns_of(|| summarize(f));
        summ.push(ns);
        feat.push(ns_of(|| features_of_summary(f, &s)).1);
    }

    // The refit is a deterministic function of the sample sequence, so
    // feeding a fresh model the same batches reproduces the same fits.
    let batch = TuneOptions::default().measure_per_generation;
    let (mut refit_ns, mut predict) = (Vec::new(), Vec::new());
    for search in cap.searches.iter().filter(|s| !s.is_empty()) {
        let samples: Vec<(Vec<f64>, f64)> = search
            .iter()
            .map(|(f, t)| (features_of_summary(f, &summarize(f)), -(t.max(1e-12)).ln()))
            .collect();
        let mut model = CostModel::new();
        let mut total = 0.0;
        for chunk in samples.chunks(batch) {
            total += ns_of(|| model.update(chunk.to_vec())).1;
        }
        refit_ns.push(total);
        for (x, _) in &samples {
            predict.push(ns_of(|| model.predict(x)).1);
        }
    }

    let valid = cap.apply_ok as f64;
    let refit_total_ns = mean(&refit_ns) * searches_run as f64;
    let predict_ns = if predict.is_empty() {
        0.0
    } else {
        mean(&predict)
    };
    Replayed {
        hash_us: mean(&hash) / 1e3,
        summarize_us: mean(&summ) / 1e3,
        extract_us: mean(&feat) / 1e3,
        predict_us: predict_ns / 1e3,
        refit_ms_per_tune: if refit_ns.is_empty() {
            0.0
        } else {
            refit_total_ns / cap.tunes as f64 / 1e6
        },
        calls: cap.candidates.len(),
        // Every valid candidate is hashed; summarized, featurized and
        // scored at most once (cache hits skip the middle two, so this
        // slightly over-attributes — by microseconds per candidate).
        estimated_ns: valid * (mean(&hash) + mean(&summ) + mean(&feat) + predict_ns)
            + if refit_ns.is_empty() {
                0.0
            } else {
                refit_total_ns
            },
    }
}

/// Fills in every per-layer metric of the search stack from a traced
/// run's spans and captures — shared by `tune_ops` and `compile_models`,
/// which drive the same search through the same wrappers. `first_rep` are
/// the wrappers' counters after the first traced repetition: counts and
/// shares of counts are reported from that fixed repetition, so they are a
/// pure function of the seed however many repetitions the time allowed.
/// Returns the totals of the tune spans and the nanoseconds of them that
/// neither a door timer nor a replayed stage explains.
pub fn report_search_layers(
    report: &mut Report,
    spans: &[Span],
    cap: &Capture,
    first_rep: Counts,
    searches_run: usize,
) -> (NameTotal, f64) {
    let totals = totals_by_name(spans);
    let replayed = replay(cap, searches_run);
    for (metric, span) in [
        ("tir-schedule.apply_us", SPAN_APPLY),
        ("tir-autoschedule.sketch.build_us", SPAN_BUILD),
        ("tir-autoschedule.sketch.propose_us", SPAN_PROPOSE),
        ("tir-exec.cost.simulate_us", SPAN_SIMULATE),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        report.layer(
            metric,
            t.total_ns as f64 / t.calls.max(1) as f64 / 1e3,
            t.calls as usize,
        );
    }
    let applies = first_rep.apply_ok + first_rep.apply_err;
    report.layer("tir-schedule.apply_calls", applies as f64, 1);
    report.layer(
        "tir-schedule.apply_fail_share",
        first_rep.apply_err as f64 / applies.max(1) as f64,
        applies as usize,
    );
    report.layer(
        "tir-autoschedule.search.cache_hit_share",
        first_rep.cache_hits as f64 / first_rep.trials_measured.max(1) as f64,
        first_rep.trials_measured as usize,
    );
    report.layer(
        "tir-autoschedule.search.invalid_share",
        first_rep.invalid_filtered as f64 / applies.max(1) as f64,
        applies as usize,
    );
    report.layer(
        "tir-exec.cost.summarize_us",
        replayed.summarize_us,
        replayed.calls,
    );
    report.layer("tir.structural_hash_us", replayed.hash_us, replayed.calls);
    report.layer(
        "tir-autoschedule.feature.extract_us",
        replayed.extract_us,
        replayed.calls,
    );
    report.layer(
        "tir-autoschedule.cost_model.refit_ms",
        replayed.refit_ms_per_tune,
        cap.searches.len(),
    );
    report.layer(
        "tir-autoschedule.cost_model.predict_us",
        replayed.predict_us,
        replayed.calls,
    );
    let tune = totals.get(SPAN_TUNE).copied().unwrap_or_default();
    report.layer(
        "tir-autoschedule.search.tune_ms",
        tune.total_ns as f64 / tune.calls.max(1) as f64 / 1e6,
        tune.calls as usize,
    );
    let unattributed_ns = tune.self_ns as f64 - replayed.estimated_ns;
    report.layer(
        "tir-autoschedule.search.unattributed_share",
        unattributed_ns / (tune.total_ns as f64).max(1.0),
        tune.calls as usize,
    );
    (tune, unattributed_ns)
}
