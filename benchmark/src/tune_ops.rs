//! Workload `tune_ops`: the paper's unit of work — cold single-operator
//! tunes of the Fig. 10 (GPU, float16) and Fig. 13 (ARM, int8) sets.
//!
//! One repetition is one sweep:
//!
//! * **A** — `tune_workload(.., Strategy::TensorIr, trials 64)` on the
//!   eight `bench_suite(float16)` operators, `Machine::sim_gpu()`;
//! * **B** — the same on GMM and C2D int8, `Machine::sim_arm()`;
//! * **C** — the GPU GMM tune once more with an enabled
//!   `tir_trace::Collector` (the enabled-tracing path ROADMAP item 5 wants
//!   a number for); its result must equal A's.
//!
//! A search's wall-clock depends on its RNG seed by several percent, and
//! the driver compares runs made with *different* workload seeds. So a run
//! cycles through [`VARIANTS`] seed variants (repetition `r` uses variant
//! `r mod VARIANTS`, and within a variant every operator draws its own
//! search seed): each run averages over 70 searches' worth of seeds, the
//! simulated-clock metrics are computed over exactly one full cycle, and a
//! variant's second occurrence must reproduce its first (counts exactly,
//! simulated seconds to their last bit).

use std::sync::Arc;

use tir::{DataType, PrimFunc};
use tir_autoschedule::{tune_workload, Strategy, TuneOptions, TuneResult};
use tir_exec::machine::Machine;
use tir_rand::derive_seed;
use tir_tensorize::{builtin_registry, IntrinRegistry};
use tir_workloads::{bench_suite, OpKind};

use crate::harness::{repeat_setup, timed, Args, Checks, Phases, RepClock, Report, Samples};
use crate::probe::SpeedMeter;
use crate::replay::report_search_layers;
use crate::spans::Recorder;
use crate::stats::same_sim;
use crate::wrappers::{tune_traced, TraceCtx};

/// Seed variants a run cycles through (and the minimum repetitions).
pub const VARIANTS: usize = 7;
const TRIALS: usize = 64;

struct Inputs {
    intrins: IntrinRegistry,
    gpu: Machine,
    arm: Machine,
    /// (label, workload), GPU float16 suite in figure order.
    gpu_ops: Vec<(&'static str, PrimFunc)>,
    arm_ops: Vec<(&'static str, PrimFunc)>,
    /// Index of GMM in `gpu_ops`: the tune phase C repeats with tracing on.
    gmm: usize,
}

fn setup() -> Inputs {
    let gpu_ops: Vec<(&'static str, PrimFunc)> = bench_suite(DataType::float16())
        .into_iter()
        .map(|c| (c.kind.label(), c.func))
        .collect();
    let arm_ops: Vec<(&'static str, PrimFunc)> = bench_suite(DataType::int8())
        .into_iter()
        .filter(|c| matches!(c.kind, OpKind::GMM | OpKind::C2D))
        .map(|c| (c.kind.label(), c.func))
        .collect();
    // Inputs are checked where they enter: an operator the validator
    // rejects would make every tune of it meaningless.
    for (_, func) in gpu_ops.iter().chain(&arm_ops) {
        tir_analysis::assert_valid(func);
    }
    let gmm = gpu_ops
        .iter()
        .position(|(l, _)| *l == "GMM")
        .expect("the suite has a GMM");
    Inputs {
        intrins: builtin_registry(),
        gpu: Machine::sim_gpu(),
        arm: Machine::sim_arm(),
        gpu_ops,
        arm_ops,
        gmm,
    }
}

fn options(seed: u64, variant: usize, op: usize) -> TuneOptions {
    TuneOptions {
        trials: TRIALS,
        num_threads: 1,
        seed: derive_seed(seed, &[variant as u64, op as u64]),
        ..Default::default()
    }
}

/// Everything of a tune's result that must repeat: the counts exactly, the
/// simulated seconds to their last-bit tolerance ([`same_sim`]). The program
/// text is kept too, but where two candidates tie on simulated time that
/// last bit decides which one the search keeps, so another text with the
/// same time is a tie ([`Checks::tie`]), not a failure.
#[derive(Debug)]
struct Fingerprint {
    best: String,
    best_time: f64,
    tuning_cost_s: f64,
    trials_measured: usize,
    cache_hits: usize,
    invalid_filtered: usize,
}

impl Fingerprint {
    fn same(&self, other: &Fingerprint) -> bool {
        same_sim(self.best_time, other.best_time)
            && same_sim(self.tuning_cost_s, other.tuning_cost_s)
            && self.trials_measured == other.trials_measured
            && self.cache_hits == other.cache_hits
            && self.invalid_filtered == other.invalid_filtered
    }
}

fn fingerprint(r: &TuneResult) -> Fingerprint {
    Fingerprint {
        best: r.best.as_ref().map(ToString::to_string).unwrap_or_default(),
        best_time: r.best_time,
        tuning_cost_s: r.tuning_cost_s,
        trials_measured: r.trials_measured,
        cache_hits: r.cache_hits,
        invalid_filtered: r.invalid_filtered,
    }
}

struct Sweep {
    phases: Phases,
    /// Wall-clock of A's GMM tune — what C is compared with.
    gmm_s: f64,
    results: Vec<TuneResult>,
    traced_gmm: TuneResult,
}

/// One sweep. `tune` is `tune_workload` in the end-to-end run and the
/// wrapped equivalent in the traced one.
fn sweep(
    inp: &Inputs,
    seed: u64,
    variant: usize,
    tune: &dyn Fn(&PrimFunc, &Machine, &TuneOptions) -> TuneResult,
) -> Sweep {
    let mut results = Vec::new();
    let mut gmm_s = 0.0;
    let start = std::time::Instant::now();
    let ((), a_s) = timed(|| {
        for (i, (_, func)) in inp.gpu_ops.iter().enumerate() {
            let (r, s) = timed(|| tune(func, &inp.gpu, &options(seed, variant, i)));
            if i == inp.gmm {
                gmm_s = s;
            }
            results.push(r);
        }
    });
    let ((), b_s) = timed(|| {
        for (i, (_, func)) in inp.arm_ops.iter().enumerate() {
            let op = inp.gpu_ops.len() + i;
            results.push(tune(func, &inp.arm, &options(seed, variant, op)));
        }
    });
    let (traced_gmm, c_s) = timed(|| {
        let opts = TuneOptions {
            trace: Some(Arc::new(tir_trace::Collector::new())),
            ..options(seed, variant, inp.gmm)
        };
        tune_workload(
            &inp.gpu_ops[inp.gmm].1,
            &inp.gpu,
            &inp.intrins,
            Strategy::TensorIr,
            &opts,
        )
    });
    Sweep {
        phases: Phases {
            a_s,
            b_s,
            c_s,
            wall_s: start.elapsed().as_secs_f64(),
        },
        gmm_s,
        results,
        traced_gmm,
    }
}

/// Output checks of one sweep; returns its fingerprints.
fn check(
    inp: &Inputs,
    sw: &Sweep,
    reference: Option<&Vec<Fingerprint>>,
    checks: &mut Checks,
) -> Vec<Fingerprint> {
    let labels: Vec<String> = inp
        .gpu_ops
        .iter()
        .map(|(l, _)| format!("gpu/{l}"))
        .chain(inp.arm_ops.iter().map(|(l, _)| format!("arm/{l}")))
        .collect();
    let prints: Vec<Fingerprint> = sw.results.iter().map(fingerprint).collect();
    for (i, (r, label)) in sw.results.iter().zip(&labels).enumerate() {
        // A tune is a failed operation when it found nothing or when the
        // static verifier rejects what it found.
        let verdict = r.best.as_ref().map(tir_analysis::verify_scheduled);
        checks.op(matches!(verdict, Some(Ok(()))), || match verdict {
            None => format!("tune {label}: no best program"),
            Some(v) => format!("tune {label}: best program fails verify_scheduled: {v:?}"),
        });
        if let Some(reference) = reference {
            let same = checks.op(prints[i].same(&reference[i]), || {
                format!("tune {label}: a repeated sweep differs from the first")
            });
            checks.tie(same && prints[i].best != reference[i].best);
        }
    }
    let traced = fingerprint(&sw.traced_gmm);
    let same = checks.op(traced.same(&prints[inp.gmm]), || {
        "tune gpu/GMM: enabling tir-trace changed the search result".to_string()
    });
    checks.tie(same && traced.best != prints[inp.gmm].best);
    prints
}

pub fn run(args: &Args) -> Report {
    let (inp, setup_times) = repeat_setup(setup);
    let variants = if args.quick { 2 } else { VARIANTS };
    let rec = Recorder::new(args.trace);
    let ctx = TraceCtx::new(&rec);
    let plain = |f: &PrimFunc, m: &Machine, o: &TuneOptions| {
        tune_workload(f, m, &inp.intrins, Strategy::TensorIr, o)
    };
    let traced =
        |f: &PrimFunc, m: &Machine, o: &TuneOptions| tune_traced(&ctx, f, m, &inp.intrins, o);

    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut references: Vec<Option<Vec<Fingerprint>>> = (0..variants).map(|_| None).collect();
    let mut first_cycle: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut first_counts = None;
    // The traced run spends 70% of its time on plain/traced sweep pairs
    // and keeps the rest for the replayed stages.
    let (budget, min_reps) = if args.trace {
        (args.seconds * 0.7, 1)
    } else {
        (args.seconds, variants)
    };
    let mut clock = RepClock::new(budget, min_reps);
    let mut meter = SpeedMeter::start();
    while clock.more() {
        let variant = clock.reps() % variants;
        let sw = sweep(&inp, args.seed, variant, &plain);
        let slowdown = meter.lap();
        let prints = check(&inp, &sw, references[variant].as_ref(), &mut checks);
        if references[variant].is_none() {
            first_cycle.push(
                sw.results
                    .iter()
                    .map(|r| (r.best_time, r.tuning_cost_s))
                    .collect(),
            );
            references[variant] = Some(prints);
        }
        let p = sw.phases;
        samples.push_phases(p, slowdown);
        samples.push("enabled_overhead", p.c_s / sw.gmm_s - 1.0);
        let trials: usize = sw.results.iter().map(|r| r.trials_measured).sum();
        samples.push("trials_per_s", trials as f64 / (p.a_s + p.b_s));
        let mut rep_s = p.wall_s;
        if args.trace {
            rec.set_op(clock.reps() as u64);
            let tw = sweep(&inp, args.seed, variant, &traced);
            // The wrappers must not change what the search finds.
            check(&inp, &tw, references[variant].as_ref(), &mut checks);
            samples.push("trace_overhead", tw.phases.wall_s / p.wall_s - 1.0);
            first_counts.get_or_insert_with(|| ctx.capture().counts());
            rep_s += tw.phases.wall_s;
            meter.lap();
        }
        clock.done(rep_s);
    }

    let mut report = Report {
        reps: clock.reps(),
        variants,
        ..Default::default()
    };
    let best_us: Vec<f64> = first_cycle.iter().flatten().map(|(t, _)| t * 1e6).collect();
    let cost: Vec<f64> = first_cycle
        .iter()
        .map(|sweep| sweep.iter().map(|(_, c)| c).sum())
        .collect();
    report.set_end_to_end(&setup_times, &samples, &best_us, &cost);
    let n = samples.count("wall_s");
    report.native = vec![(
        "tune_trials_per_s",
        "1/s",
        samples.median("trials_per_s"),
        n,
    )];
    report.layer(
        "tir-trace.enabled_overhead_share",
        samples.median("enabled_overhead"),
        n,
    );

    if args.trace {
        let spans = rec.spans();
        report_search_layers(
            &mut report,
            &spans,
            &ctx.capture(),
            first_counts.unwrap_or_default(),
            ctx.searches_run(),
        );
        report.layer(
            "tune_ops.trace_overhead_share",
            samples.median("trace_overhead"),
            samples.count("trace_overhead"),
        );
        report.spans = spans;
    }
    report.checks = checks;
    report
}
