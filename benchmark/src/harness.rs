//! What every workload shares: the run's arguments, the repetition clock,
//! operation counting, sample lists, and the process-level measurements.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::probe::SpeedMeter;
use crate::stats::median;

/// One run's arguments (`--workload` is consumed by `main`).
#[derive(Clone, Debug)]
pub struct Args {
    pub seed: u64,
    /// Length of the timed section in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Smoke run: fewer seed variants and repetitions.
    pub quick: bool,
}

/// Operations attempted and failed, with the first few failure messages.
/// A failed operation never aborts the run: the metrics still print, with
/// `correct: false` and a non-zero exit code.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Repeated searches that found the same simulated time as the first
    /// but kept a different program: two candidates tie, and which one the
    /// search keeps hangs on the last bit of their simulated times (see
    /// `stats::same_sim`). Counted and printed, not failures.
    pub ties: u64,
}

impl Checks {
    /// Counts one operation; `what` is only evaluated for a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
        ok
    }

    /// Counts a repeated search that passed its check with another program
    /// text than the first.
    pub fn tie(&mut self, other_text: bool) {
        self.ties += u64::from(other_text);
    }
}

/// Named sample lists (one value per repetition, request or call).
#[derive(Default, Debug)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    pub fn count(&self, name: &str) -> usize {
        self.get(name).len()
    }

    /// Records one repetition's wall-clock and phases, stated at the speed
    /// of the reference machine: `slowdown` is what [`SpeedMeter::lap`]
    /// gave for the repetition. The wall-clock as measured and the
    /// slowdown are kept beside them for the report.
    pub fn push_phases(&mut self, p: Phases, slowdown: f64) {
        self.push("wall_s", p.wall_s / slowdown);
        self.push("phase_a_ms", p.a_s * 1e3 / slowdown);
        self.push("phase_b_ms", p.b_s * 1e3 / slowdown);
        self.push("phase_c_ms", p.c_s * 1e3 / slowdown);
        self.push("measured_wall_s", p.wall_s);
        self.push("machine_slowdown", slowdown);
    }
}

/// Wall-clock of one repetition and of its three phases, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub a_s: f64,
    pub b_s: f64,
    pub c_s: f64,
    pub wall_s: f64,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Every end-to-end metric: (name, value, sample count).
    pub e2e: Vec<(&'static str, f64, usize)>,
    /// A repetition's wall-clock as measured, and the machine's slowdown
    /// it was divided by: (name, unit, value, sample count).
    pub measured: Vec<(&'static str, &'static str, f64, usize)>,
    /// The same measurements in the workload's own terms (trials/s, ns per
    /// step, request latency …): (name, unit, value, sample count). For
    /// the reader and the report file; the driver compares `e2e`.
    pub native: Vec<(&'static str, &'static str, f64, usize)>,
    /// Per-layer metrics the workload exercised; the rest read 0.
    pub layers: BTreeMap<&'static str, (f64, usize)>,
    pub checks: Checks,
    pub reps: usize,
    pub variants: usize,
    pub setup_runs: usize,
    pub spans: Vec<crate::spans::Span>,
}

impl Report {
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.insert(name, (value, samples));
    }

    /// Value and sample count of an end-to-end metric (`NaN`, 0 if the
    /// workload did not report it).
    pub fn e2e_value(&self, name: &str) -> (f64, usize) {
        self.e2e
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((f64::NAN, 0), |(_, v, n)| (*v, *n))
    }

    /// Fills in the end-to-end metrics every workload reports the same
    /// way: medians over set-ups and repetitions (as pushed by
    /// [`Samples::push_phases`]), the geomean of what its searches found
    /// and the mean of what they cost per sweep, compile or session.
    /// `peak_rss_mb` is added by `main`, at exit.
    pub fn set_end_to_end(
        &mut self,
        setup_times: &[f64],
        samples: &Samples,
        sim_best_us: &[f64],
        sim_cost_s: &[f64],
    ) {
        self.setup_runs = setup_times.len();
        self.e2e = vec![("setup_s", median(setup_times), setup_times.len())];
        for name in ["wall_s", "phase_a_ms", "phase_b_ms", "phase_c_ms"] {
            self.e2e
                .push((name, samples.median(name), samples.count(name)));
        }
        let n = samples.count("wall_s");
        self.measured = vec![
            ("measured_wall_s", "s", samples.median("measured_wall_s"), n),
            (
                "machine_slowdown",
                "ratio",
                samples.median("machine_slowdown"),
                n,
            ),
        ];
        self.e2e.push((
            "sim_best_geomean_us",
            crate::stats::geomean(sim_best_us),
            sim_best_us.len(),
        ));
        self.e2e.push((
            "sim_tuning_cost_s",
            crate::stats::mean(sim_cost_s),
            sim_cost_s.len(),
        ));
    }
}

/// Decides whether another repetition fits. A run always completes
/// `min_reps` (one pass over the seed variants, so the simulated-clock
/// metrics are a pure function of the seed), then repeats while the next
/// repetition is more likely than not to end inside the budget.
pub struct RepClock {
    start: Instant,
    budget_s: f64,
    min_reps: usize,
    done: usize,
    longest_s: f64,
}

impl RepClock {
    pub fn new(budget_s: f64, min_reps: usize) -> RepClock {
        RepClock {
            start: Instant::now(),
            budget_s,
            min_reps,
            done: 0,
            longest_s: 0.0,
        }
    }

    pub fn more(&self) -> bool {
        self.done < self.min_reps
            || self.start.elapsed().as_secs_f64() + 0.5 * self.longest_s < self.budget_s
    }

    /// Records a finished repetition of `rep_s` seconds.
    pub fn done(&mut self, rep_s: f64) {
        self.done += 1;
        self.longest_s = self.longest_s.max(rep_s);
    }

    pub fn reps(&self) -> usize {
        self.done
    }
}

/// Times `f` and returns (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs a workload's set-up repeatedly — at least three times, then until
/// the set-ups have taken a second in total or [`MAX_SETUPS`] have run — and
/// returns the last inputs with every set-up time, stated at the speed of
/// the reference machine (the probe runs between set-ups, a quarter of a
/// second apart at least). `setup_s` is the median: a single set-up of a
/// fifth of a millisecond (building and validating ten operators) is two
/// timer-and-cache effects, not a measurement; the median of two thousand
/// repeats to a few percent.
pub fn repeat_setup<I>(mut setup: impl FnMut() -> I) -> (I, Vec<f64>) {
    let mut meter = SpeedMeter::start();
    let mut times = Vec::new();
    // Set-ups since the last probe, as measured.
    let mut lap = Vec::new();
    let mut total = 0.0;
    loop {
        let (inputs, s) = timed(&mut setup);
        lap.push(s);
        total += s;
        let n = times.len() + lap.len();
        let done = n >= MAX_SETUPS || (n >= 3 && total >= 1.0);
        if done || lap.iter().sum::<f64>() >= 0.25 {
            let slowdown = meter.lap();
            times.extend(lap.drain(..).map(|s| s / slowdown));
        }
        if done {
            return (inputs, times);
        }
    }
}

const MAX_SETUPS: usize = 2000;

/// `VmHWM` of this process in MiB (peak resident set), from
/// `/proc/self/status`; `NaN` where that file does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory of this process, relative to the benchmark directory
/// (`main` makes that the working directory, which keeps Unix-socket paths
/// far below their 108-byte limit wherever the checkout lives).
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(format!("out/tmp/{}", std::process::id()))
}

/// First line of a command's standard output, or "unknown". The child has
/// exited by the time this returns.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_and_keep_the_first_messages() {
        let mut c = Checks::default();
        assert!(c.op(true, || unreachable!("not evaluated on success")));
        for i in 0..30 {
            assert!(!c.op(false, || format!("failure {i}")));
        }
        assert_eq!((c.attempted, c.failed, c.notes.len()), (31, 30, 20));
    }

    #[test]
    fn rep_clock_runs_the_minimum_even_with_no_budget() {
        let mut clock = RepClock::new(0.0, 3);
        let mut n = 0;
        while clock.more() {
            clock.done(0.001);
            n += 1;
        }
        assert_eq!((n, clock.reps()), (3, 3));
    }

    #[test]
    fn setup_repeats_until_it_has_enough() {
        let mut calls = 0;
        let (last, times) = repeat_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!(times.len(), MAX_SETUPS);
        assert_eq!(last, MAX_SETUPS);
        // A slow set-up gets its three runs and no more.
        let (_, times) = repeat_setup(|| std::thread::sleep(std::time::Duration::from_millis(400)));
        assert_eq!(times.len(), 3);
    }
}
