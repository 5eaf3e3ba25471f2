//! # tir-trace — deterministic observability for the tuning pipeline
//!
//! The auto-tuner is a black box between `tune_with` and `TuneResult`
//! without this crate: the paper's evaluation (§5, Table 1) attributes
//! tuning time to phases — sketch generation, evolutionary search,
//! measurement, cost-model refits — and that attribution is the primary
//! lever for search-efficiency work. This crate provides the
//! dependency-free tracing substrate the rest of the workspace threads
//! through its hot layers:
//!
//! * [`Span`] — a named phase record carrying a **deterministic simulated
//!   duration** (`sim_s`, the same quantity charged to `tuning_cost_s`)
//!   and an item count, ordered by a total [`Key`];
//! * counters — named `u64` tallies (cache hits, quarantine drops, verify
//!   rejections, retries, VM instruction mix);
//! * histograms — named distributions bucketed by **binary exponent** of
//!   the observed value, so bucketing never depends on platform `libm`;
//! * [`Collector`] — the thread-safe sink: every record call takes its
//!   lock once, from a tune's one thread or from the daemon's many, and
//!   [`Collector::report`] merges everything deterministically by sorting
//!   spans on their keys — reports are **byte-identical whatever order
//!   the records arrived in**;
//! * [`TraceReport`] / [`TraceReport::write_json`] — the merged report,
//!   written by the workspace's one JSON writer ([`json`], which also
//!   holds the well-formedness checker and the artifacts' `--check` gate).
//!
//! # Determinism contract
//!
//! Everything recorded must be a pure function of the run configuration,
//! never of thread scheduling or wall clock:
//!
//! * span durations are simulated seconds (or zero for pure-CPU phases,
//!   which report item counts instead) — **never** wall-clock;
//! * every span carries a unique [`Key`]; the report sorts by it, so the
//!   order in which threads recorded cannot leak into the output;
//! * counters and histogram buckets are `u64` sums — associative and
//!   commutative, so record order cannot change them;
//! * stream ids are allocated by the (single-threaded) coordinator via
//!   [`Collector::stream`], in deterministic order.
//!
//! # Zero overhead when disabled
//!
//! A [`Collector::disabled`] collector short-circuits every record call
//! on a single branch, and the callers gate on `Option<Arc<Collector>>`
//! being `None` — the disabled path does no allocation, no locking, and
//! no formatting. The `trace_overhead` bench gates this at <1%.

#![warn(missing_docs)]

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use json::{JsonWriter, Layout};

/// Total order of a span within a run.
///
/// `stream` identifies one logical sub-search (a sketch, a model layer),
/// allocated sequentially by the coordinator; `generation` and `slot`
/// locate the span in the search's iteration space; `seq` disambiguates
/// multiple events from one site (e.g. measurement attempts). The merge
/// sorts on the full tuple, so keys must be unique per span for the
/// report to be byte-identical regardless of record order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Logical sub-search id from [`Collector::stream`].
    pub stream: u64,
    /// Generation (or layer index) within the stream.
    pub generation: u64,
    /// Slot within the generation (candidate rank, worker slot); the
    /// coordinator's own per-phase spans use [`Key::COORD`].
    pub slot: u64,
    /// Event sequence number within the slot (attempt counter, phase
    /// index).
    pub seq: u64,
}

impl Key {
    /// Slot value marking coordinator-emitted (not per-candidate) spans.
    pub const COORD: u64 = u64::MAX;

    /// A coordinator span key: `(stream, generation, COORD, seq)`.
    pub fn coord(stream: u64, generation: u64, seq: u64) -> Key {
        Key {
            stream,
            generation,
            slot: Key::COORD,
            seq,
        }
    }
}

/// One recorded span: a named phase with a deterministic simulated
/// duration and an item count.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Phase name, dot-separated by convention (`search.measure`,
    /// `measure.fault.timeout`, `graph.layer.conv1`).
    pub name: String,
    /// Total-order key; unique per span.
    pub key: Key,
    /// Simulated seconds attributed to this span (never wall-clock).
    pub sim_s: f64,
    /// Items processed (candidates, samples, attempts).
    pub items: u64,
}

/// Fixed-structure histogram: counts per binary exponent of the observed
/// value. Bucketing reads the IEEE-754 exponent bits directly, so it is
/// bit-deterministic across platforms (no `libm` involved).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Count per bucket, keyed by unbiased binary exponent: an
    /// observation `v` lands in bucket `e` with `2^e <= v < 2^(e+1)`.
    /// Zero and subnormal observations land in bucket `i32::MIN`;
    /// non-finite observations are dropped.
    pub buckets: BTreeMap<i32, u64>,
    /// Total observations (including dropped non-finite ones).
    pub count: u64,
}

/// Bucket index of one observation: its unbiased binary exponent.
fn bucket_of(value: f64) -> Option<i32> {
    if !value.is_finite() {
        return None;
    }
    let v = value.abs();
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Zero or subnormal: one catch-all underflow bucket.
        return Some(i32::MIN);
    }
    Some(biased - 1023)
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        if let Some(b) = bucket_of(value) {
            *self.buckets.entry(b).or_default() += 1;
        }
    }
}

/// Merged collector state behind the lock.
#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    streams: Vec<(u64, String)>,
}

/// The thread-safe trace sink.
///
/// Every site records directly ([`Collector::span`], [`Collector::count`],
/// [`Collector::observe`]), one lock per event; [`Collector::report`]
/// merges and sorts everything into a deterministic [`TraceReport`].
#[derive(Default)]
pub struct Collector {
    enabled: bool,
    next_stream: AtomicU64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// An enabled collector.
    pub fn new() -> Collector {
        Collector {
            enabled: true,
            next_stream: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A no-op collector: every record call returns on one branch, and
    /// [`Collector::report`] is empty. Exists so the overhead bench can
    /// measure the disabled path against the no-collector baseline.
    pub fn disabled() -> Collector {
        Collector {
            enabled: false,
            next_stream: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates the next stream id and names it in the report's stream
    /// table. Must be called from deterministic (coordinator) code: ids
    /// are handed out in call order.
    pub fn stream(&self, label: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        self.inner
            .lock()
            .expect("trace lock")
            .streams
            .push((id, label.to_string()));
        id
    }

    /// Records one span.
    pub fn span(&self, name: &str, key: Key, sim_s: f64, items: u64) {
        if !self.enabled {
            return;
        }
        self.inner.lock().expect("trace lock").spans.push(Span {
            name: name.to_string(),
            key,
            sim_s,
            items,
        });
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        *self
            .inner
            .lock()
            .expect("trace lock")
            .counters
            .entry(name.to_string())
            .or_default() += n;
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .expect("trace lock")
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Merges everything recorded so far into a deterministic report:
    /// spans sorted by `(key, name)`, counters and histograms by name,
    /// phases aggregated from spans in sorted order.
    pub fn report(&self) -> TraceReport {
        let inner = self.inner.lock().expect("trace lock");
        let mut spans = inner.spans.clone();
        spans.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.name.cmp(&b.name)));
        // Aggregate phases in sorted-span order so the f64 sums are a
        // pure function of the recorded set, not of arrival order.
        let mut phases: BTreeMap<String, Phase> = BTreeMap::new();
        for s in &spans {
            let p = phases.entry(s.name.clone()).or_insert_with(|| Phase {
                name: s.name.clone(),
                sim_s: 0.0,
                items: 0,
                spans: 0,
            });
            p.sim_s += s.sim_s;
            p.items += s.items;
            p.spans += 1;
        }
        let mut streams = inner.streams.clone();
        streams.sort();
        TraceReport {
            spans,
            phases: phases.into_values().collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            streams,
        }
    }
}

/// Aggregated view of all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Span name.
    pub name: String,
    /// Total simulated seconds across spans, summed in key order.
    pub sim_s: f64,
    /// Total items.
    pub items: u64,
    /// Number of spans aggregated.
    pub spans: u64,
}

/// A merged, deterministic snapshot of a [`Collector`].
///
/// Two runs that record the same events — regardless of thread count or
/// record order — produce byte-identical [`TraceReport::to_json`]
/// output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// All spans, sorted by `(key, name)`.
    pub spans: Vec<Span>,
    /// Per-name aggregation of spans, sorted by name.
    pub phases: Vec<Phase>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Stream table: `(id, label)` sorted by id.
    pub streams: Vec<(u64, String)>,
}

impl TraceReport {
    /// Total simulated seconds of all phases whose name starts with
    /// `prefix`, summed in phase (name) order.
    pub fn phase_sim_s(&self, prefix: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .map(|p| p.sim_s)
            .sum()
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The aggregated phase of `name`, if any span carried it.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Writes the report as one [`Layout::Lines`] object: `version`, then
    /// `phases`, `counters`, `histograms`, `streams` and `spans`, one entry
    /// per line, each entry inline.
    pub fn write_json(&self, w: &mut JsonWriter) {
        use Layout::{Inline, Lines};
        w.object(Lines, |w| {
            w.field("version", 1u64);
            w.key("phases").array(Lines, |w| {
                for p in &self.phases {
                    w.object(Inline, |w| {
                        w.field("name", &p.name)
                            .field("sim_s", p.sim_s)
                            .field("items", p.items)
                            .field("spans", p.spans);
                    });
                }
            });
            w.key("counters").object(Lines, |w| {
                for (name, v) in &self.counters {
                    w.field(name, *v);
                }
            });
            w.key("histograms").array(Lines, |w| {
                for (name, h) in &self.histograms {
                    w.object(Inline, |w| {
                        w.field("name", name).field("count", h.count);
                        w.key("buckets").array(Inline, |w| {
                            for (&e, &n) in &h.buckets {
                                w.object(Inline, |w| {
                                    // The zero/subnormal bucket has no exponent.
                                    w.field("exp2", (e != i32::MIN).then_some(e));
                                    w.field("count", n);
                                });
                            }
                        });
                    });
                }
            });
            w.key("streams").array(Lines, |w| {
                for (id, label) in &self.streams {
                    w.object(Inline, |w| {
                        w.field("id", *id).field("label", label);
                    });
                }
            });
            w.key("spans").array(Lines, |w| {
                for s in &self.spans {
                    w.object(Inline, |w| {
                        w.field("name", &s.name)
                            .field("stream", s.key.stream)
                            .field("gen", s.key.generation)
                            .field("slot", s.key.slot)
                            .field("seq", s.key.seq)
                            .field("sim_s", s.sim_s)
                            .field("items", s.items);
                    });
                }
            });
        });
    }

    /// The report as a JSON file's text ([`TraceReport::write_json`] and a
    /// final newline). Deterministic: every collection is sorted.
    pub fn to_json(&self) -> String {
        json::document(|w| self.write_json(w))
    }
}

#[cfg(test)]
mod tests {
    use super::json::is_well_formed_json;
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        c.span("x", Key::default(), 1.0, 1);
        c.count("n", 5);
        c.observe("h", 0.5);
        assert_eq!(c.stream("s"), 0);
        let r = c.report();
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.histograms.is_empty());
    }

    #[test]
    fn report_is_independent_of_arrival_order() {
        let mk = |order: &[usize]| {
            let c = Collector::new();
            let events = [
                ("b", Key::coord(1, 0, 1), 2.0, 3u64),
                ("a", Key::coord(1, 0, 0), 1.0, 1),
                ("a", Key::coord(1, 1, 0), 4.0, 2),
            ];
            for &i in order {
                let (n, k, s, it) = events[i];
                c.span(n, k, s, it);
            }
            c.count("hits", 2);
            c.count("hits", 3);
            c.report().to_json()
        };
        assert_eq!(mk(&[0, 1, 2]), mk(&[2, 1, 0]));
        assert_eq!(mk(&[1, 2, 0]), mk(&[0, 2, 1]));
    }

    #[test]
    fn concurrent_records_are_deterministic() {
        // The daemon's threads record into one collector at once: the
        // report is the one a single thread recording the same events in
        // any order writes.
        let record = |c: &Collector, t: u64, g: u64| {
            c.span("w", Key::coord(1, g, t), 0.125 * g as f64, 1);
            c.count("n", 1);
            c.observe("v", g as f64);
        };
        let concurrent = Collector::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &concurrent;
                s.spawn(move || (0..8).for_each(|g| record(c, t, g)));
            }
        });
        let serial = Collector::new();
        for g in (0..8).rev() {
            (0..4).rev().for_each(|t| record(&serial, t, g));
        }
        assert_eq!(concurrent.report().to_json(), serial.report().to_json());
    }

    #[test]
    fn histogram_buckets_by_binary_exponent() {
        let mut h = Histogram::default();
        h.observe(1.0); // exp 0
        h.observe(1.5); // exp 0
        h.observe(2.0); // exp 1
        h.observe(0.25); // exp -2
        h.observe(0.0); // underflow bucket
        h.observe(f64::NAN); // dropped, still counted
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[&0], 2);
        assert_eq!(h.buckets[&1], 1);
        assert_eq!(h.buckets[&-2], 1);
        assert_eq!(h.buckets[&i32::MIN], 1);
    }

    #[test]
    fn phase_aggregation_and_helpers() {
        let c = Collector::new();
        let s = c.stream("sketch");
        c.span("search.measure", Key::coord(s, 0, 4), 1.0, 8);
        c.span("search.measure", Key::coord(s, 1, 4), 2.0, 8);
        c.span("search.evolve", Key::coord(s, 0, 0), 0.0, 32);
        let r = c.report();
        let m = r.phase("search.measure").expect("phase");
        assert_eq!(m.sim_s, 3.0);
        assert_eq!(m.items, 16);
        assert_eq!(m.spans, 2);
        assert_eq!(r.phase_sim_s("search."), 3.0);
        assert_eq!(r.streams, vec![(1, "sketch".to_string())]);
    }

    #[test]
    fn json_is_well_formed() {
        let c = Collector::new();
        let s = c.stream("a \"quoted\"\nlabel");
        c.span("p.x", Key::coord(s, 0, 0), 0.125, 3);
        c.count("c", 9);
        c.observe("h", 3.5);
        c.observe("h", 0.0);
        let json = c.report().to_json();
        assert!(is_well_formed_json(&json), "{json}");
        // Empty report too.
        assert!(is_well_formed_json(&Collector::new().report().to_json()));
    }

    #[test]
    fn span_order_ties_break_on_name() {
        let c = Collector::new();
        c.span("zz", Key::coord(1, 0, 0), 1.0, 1);
        c.span("aa", Key::coord(1, 0, 0), 2.0, 1);
        let r = c.report();
        assert_eq!(r.spans[0].name, "aa");
        assert_eq!(r.spans[1].name, "zz");
    }
}
