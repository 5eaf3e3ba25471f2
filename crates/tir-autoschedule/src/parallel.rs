//! Deterministic fork-join parallelism for the candidate-evaluation
//! pipeline.
//!
//! The evolutionary search (§4.4) spends nearly all of its wall-clock time
//! in per-candidate work — sketch instantiation, §3.3 validation, cost
//! summarization, feature extraction, and simulated measurement — all of
//! which are pure functions of one candidate. [`parallel_map`] fans that
//! work out across a pool of scoped worker threads while keeping results
//! indexed by input position, so the coordinator observes *exactly* the
//! same values in the same order regardless of thread count or scheduling.
//! Combined with per-slot RNGs derived from `TuneOptions::seed` (see
//! [`crate::search`]), this makes parallel tuning runs bit-for-bit
//! reproducible.
//!
//! Implemented on `std::thread::scope` with an atomic work queue instead
//! of an external thread-pool dependency: workers pull the next input
//! index, so uneven per-candidate costs (e.g. early construction failures
//! vs. full schedule materialization) still balance across the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::measure::panic_message;

/// Resolves a thread-count request: `0` means "all available cores".
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Applies `f` to every item, fanning out across `num_threads` workers,
/// and returns the results in input order.
///
/// Deterministic by construction: `f` receives `(index, &item)` and its
/// result is stored at `index`, so the output is independent of how work
/// interleaves across threads. Falls back to a serial loop when
/// `num_threads <= 1` or there is at most one item — the serial and
/// parallel paths produce identical results.
pub(crate) fn parallel_map<T, R, F>(items: &[T], num_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_parallel_map(items, num_threads, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(msg) => panic!("parallel_map worker panicked: {msg}"),
        })
        .collect()
}

/// Panic-isolating variant of [`parallel_map`]: each per-item invocation
/// of `f` runs under [`catch_unwind`], so a panicking item yields
/// `Err(panic message)` at its index instead of poisoning the pool and
/// aborting the whole run. All non-panicking items still complete.
///
/// The serial (`num_threads <= 1`) and parallel paths are behaviorally
/// identical, including which items are `Err` — panics are a property of
/// `(index, item)`, not of scheduling.
pub(crate) fn try_parallel_map<T, R, F>(
    items: &[T],
    num_threads: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let guarded =
        |i: usize, item: &T| catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(panic_message);
    let workers = num_threads.min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| guarded(i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<R, String>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let guarded = &guarded;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, guarded(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // Workers cannot themselves panic — every call into user code
            // is wrapped — so a join failure is a harness bug.
            for (i, r) in h.join().expect("queue worker is panic-free") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        // Infallible: the atomic queue hands out every index in
        // [0, items.len()) exactly once, and each worker records a result
        // for every index it takes.
        .map(|r| r.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(&items, threads, |i, &v| {
                assert_eq!(i, v);
                v * 3
            });
            assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let f = |_: usize, &v: &u64| v.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = parallel_map(&items, 1, f);
        let parallel = parallel_map(&items, 6, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(&empty, 4, |_, v| *v).is_empty());
        assert_eq!(parallel_map(&[7], 4, |_, v| *v + 1), vec![8]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn panicking_item_fails_alone() {
        let items: Vec<usize> = (0..20).collect();
        for threads in [1, 4] {
            let out = try_parallel_map(&items, threads, |_, &v| {
                if v == 7 {
                    panic!("candidate {v} exploded");
                }
                v * 2
            });
            assert_eq!(out.len(), 20);
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    let msg = r.as_ref().expect_err("index 7 panicked");
                    assert!(msg.contains("candidate 7 exploded"), "got: {msg}");
                } else {
                    assert_eq!(r.as_ref().expect("survives"), &(i * 2));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "parallel_map worker panicked")]
    fn parallel_map_still_propagates_panics() {
        parallel_map(&[1, 2, 3], 1, |_, &v: &i32| {
            if v == 2 {
                panic!("boom");
            }
            v
        });
    }
}
