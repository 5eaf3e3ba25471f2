//! In-memory span recording for the traced run (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions; nothing inside the program is edited. A
//! span is (name, start, end, parent, operation id); a layer's *self time*
//! is its duration minus the part its child spans cover. Spans stay in
//! memory and are written to `benchmark/out/<workload>.trace.json` when the
//! run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Operation id: spans of one tune / compile / request share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
    op: u64,
}

/// The span sink. Disabled (the end-to-end run) it records nothing and
/// `enter` returns immediately, so the wrappers can stay in place.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct Guard<'r> {
    rec: &'r Recorder,
    idx: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the span list valid, so a panic elsewhere
        // while the lock was held does not invalidate it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the operation id stamped on the spans opened from now on.
    pub fn set_op(&self, op: u64) {
        if self.enabled {
            self.lock().op = op;
        }
    }

    /// Opens a span nested in the innermost open one. All searches run on
    /// one thread (`num_threads: 1`), so one stack describes the nesting.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: self,
                idx: None,
            };
        }
        let mut st = self.lock();
        let idx = st.spans.len();
        let parent = st.stack.last().copied();
        let op = st.op;
        st.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        st.stack.push(idx);
        // Stamp the start last, so the bookkeeping above stays outside it.
        st.spans[idx].start_ns = self.now_ns();
        Guard {
            rec: self,
            idx: Some(idx),
        }
    }

    /// Records a finished span measured elsewhere (a client thread of the
    /// dedup phase), with an explicit parent.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, parent: Option<usize>) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut st = self.lock();
        let op = st.op;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.lock().stack.last().copied()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let end = self.rec.now_ns();
        let mut st = self.rec.lock();
        st.spans[idx].end_ns = end;
        if st.stack.last() == Some(&idx) {
            st.stack.pop();
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are merged first, so
/// two concurrent children are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            // Clip the child to its parent's interval.
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The trace file: a summary per span name first (what most readers
/// want), then every span as `[name index, start_ns, end_ns, parent, op]`
/// with `parent` −1 for a root.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let totals = totals_by_name(spans);
    let names: Vec<&'static str> = totals.keys().copied().collect();
    let index_of: BTreeMap<&'static str, usize> =
        names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let summary = totals
        .iter()
        .map(|(name, t)| {
            Json::obj(vec![
                ("name", Json::str(*name)),
                ("calls", Json::Num(t.calls as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
            ])
        })
        .collect();
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Num(index_of[s.name] as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                Json::Num(s.op as f64),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "time_unit",
            Json::str("ns since the start of the traced section"),
        ),
        (
            "span_columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        (
            "names",
            Json::Arr(names.into_iter().map(Json::str).collect()),
        ),
        ("summary", Json::Arr(summary)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100
        //   a 10..40
        //     leaf 15..25
        //   b 50..90
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let t = totals_by_name(&spans);
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["a"].total_ns, 30);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        // Two concurrent children (dedup clients) overlap on 30..40, and
        // one overhangs its parent's end.
        let spans = vec![
            span("phase", 0, 100, None),
            span("client", 10, 40, Some(0)),
            span("client", 30, 60, Some(0)),
            span("client", 90, 130, Some(0)),
        ];
        // Covered: 10..60 and 90..100 = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_by_stack_and_disabled_records_nothing() {
        let rec = Recorder::new(true);
        rec.set_op(7);
        {
            let _root = rec.enter("root");
            {
                let _a = rec.enter("a");
            }
            let _b = rec.enter("b");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(rec.current(), None);

        let off = Recorder::new(false);
        {
            let _g = off.enter("x");
        }
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_file_is_json_with_summary_and_rows() {
        let spans = vec![span("root", 0, 10, None), span("a", 2, 5, Some(0))];
        let doc = trace_json("w", 3, &spans);
        let back = Json::parse(&doc.encode()).expect("well-formed");
        assert_eq!(
            back.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            back.get("summary")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
