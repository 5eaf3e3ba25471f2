//! Workload `compile_models`: whole networks through graph fusion, the
//! fingerprint-keyed tuning database and many short tunes.
//!
//! One repetition, on a fresh `TuningDatabase`:
//!
//! * **A** — `compile_model_with` on ResNet-50 and BERT-large (float16,
//!   16 trials per kernel): cold, every distinct kernel is tuned;
//! * **B** — [`WARM_ROUNDS`] warm recompiles of both on the populated
//!   database: fuse, fingerprint, look up, no search;
//! * **C** — [`EVAL_ROUNDS`] `evaluate_model_with(.., fuse: true)` of both
//!   on the same database (the Fig. 12 latency path).
//!
//! The two networks are the CNN and the transformer ROADMAP item 1 names;
//! all four `gpu_models()` would cost 4.5 s per repetition, too few
//! repetitions per run for a median to be steady. Like `tune_ops`, a run
//! cycles through seed variants ([`VARIANTS`]), because `compile_model_with`
//! hands one search seed to every kernel and a cold compile's wall-clock
//! moves with it.

use tir::IrModule;
use tir_autoschedule::{workload_key, Strategy, TuneOptions, TuningDatabase, TuningRecord};
use tir_exec::machine::Machine;
use tir_graph::{
    bert_large, compile_model_with, evaluate_model_with, fuse_graph, resnet50, ModelSpec,
};
use tir_rand::derive_seed;
use tir_tensorize::{builtin_registry, IntrinRegistry};

use crate::harness::{repeat_setup, timed, Args, Checks, Phases, RepClock, Report, Samples};
use crate::probe::SpeedMeter;
use crate::replay::report_search_layers;
use crate::spans::{totals_by_name, Recorder};
use crate::stats::{geomean, median, same_sim};
use crate::wrappers::{tune_traced, TraceCtx};

pub const VARIANTS: usize = 4;
const TRIALS: usize = 16;
const WARM_ROUNDS: usize = 100;
const EVAL_ROUNDS: usize = 40;

const SPAN_COMPILE: &str = "tir-graph.compile_model";
const SPAN_FUSE: &str = "tir-graph.fuse_graph";
const SPAN_KEY: &str = "tir-autoschedule.database.workload_key";
const SPAN_LOOKUP: &str = "tir-autoschedule.database.lookup";

struct Inputs {
    intrins: IntrinRegistry,
    gpu: Machine,
    models: Vec<ModelSpec>,
}

fn setup() -> Inputs {
    let dt = tir::DataType::float16();
    let models = vec![resnet50(dt), bert_large(dt)];
    // Inputs are checked where they enter: every kernel a network brings
    // must be a valid program before anything is tuned.
    for func in models
        .iter()
        .flat_map(|m| &m.nodes)
        .filter_map(|n| n.func.as_ref())
    {
        tir_analysis::assert_valid(func);
    }
    Inputs {
        intrins: builtin_registry(),
        gpu: Machine::sim_gpu(),
        models,
    }
}

fn options(seed: u64, variant: usize) -> TuneOptions {
    TuneOptions {
        trials: TRIALS,
        num_threads: 1,
        seed: derive_seed(seed, &[variant as u64]),
        ..Default::default()
    }
}

fn kernel_names(module: &IrModule) -> Vec<String> {
    module.functions.keys().cloned().collect()
}

fn module_text(module: &IrModule) -> String {
    module
        .functions
        .values()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// What must repeat for a seed variant: trial counts exactly, simulated
/// seconds to their last-bit tolerance ([`same_sim`]). The fused kernels
/// are where that last bit moves (three memory scopes, summed in `HashMap`
/// order), and where two candidates tie on simulated time it decides which
/// one a search keeps: seeds exist (28 and 29 among 1–30) on which a
/// repeated cold compile keeps another program of the same latency. So the
/// module text is compared too, but a difference there with everything
/// else equal is a tie ([`Checks::tie`]), not a failure.
#[derive(Debug)]
struct Fingerprint {
    modules: Vec<String>,
    kernels: Vec<Vec<String>>,
    trials: Vec<usize>,
    tuning_cost_s: Vec<f64>,
    latency_s: Vec<f64>,
}

impl Fingerprint {
    fn same(&self, other: &Fingerprint) -> bool {
        self.trials == other.trials
            && self.kernels == other.kernels
            && same_sims(&self.tuning_cost_s, &other.tuning_cost_s)
            && same_sims(&self.latency_s, &other.latency_s)
    }
}

fn same_sims(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_sim(*x, *y))
}

struct Rep {
    phases: Phases,
    /// Median wall-clock of one warm round (both networks), ms.
    warm_round_ms: f64,
    print: Fingerprint,
    kernels: usize,
}

fn repetition(inp: &Inputs, opts: &TuneOptions, checks: &mut Checks) -> Rep {
    let start = std::time::Instant::now();
    let mut db = TuningDatabase::new();
    let compile = |db: &mut TuningDatabase, m: &ModelSpec| {
        compile_model_with(m, &inp.gpu, &inp.intrins, Strategy::TensorIr, opts, db)
    };

    let (cold, a_s) = timed(|| {
        inp.models
            .iter()
            .map(|m| compile(&mut db, m))
            .collect::<Vec<_>>()
    });
    let mut print = Fingerprint {
        modules: Vec::new(),
        kernels: Vec::new(),
        trials: Vec::new(),
        tuning_cost_s: Vec::new(),
        latency_s: Vec::new(),
    };
    for (m, c) in inp.models.iter().zip(&cold) {
        match c {
            Ok(c) => {
                checks.op(c.trials > 0 && !c.module.functions.is_empty(), || {
                    format!("cold compile of {} tuned nothing", m.name)
                });
                print.modules.push(module_text(&c.module));
                print.kernels.push(kernel_names(&c.module));
                print.trials.push(c.trials);
                print.tuning_cost_s.push(c.tuning_cost_s);
            }
            Err(e) => {
                checks.op(false, || format!("cold compile of {} failed: {e}", m.name));
                print.modules.push(String::new());
                print.kernels.push(Vec::new());
                print.trials.push(0);
                print.tuning_cost_s.push(0.0);
            }
        }
    }
    let kernels = db.len();

    // Warm recompiles. Each call is timed on its own so the output check
    // between calls stays outside the measurement. Every warm module is
    // checked for measuring nothing and for its function names; the first
    // and last round are also compared with the cold module text (printing
    // a module costs as much as recompiling it warm).
    let mut b_s = 0.0;
    let mut rounds = Vec::new();
    for round in 0..WARM_ROUNDS {
        let mut round_s = 0.0;
        for (i, m) in inp.models.iter().enumerate() {
            let (warm, s) = timed(|| compile(&mut db, m));
            round_s += s;
            let full = round == 0 || round + 1 == WARM_ROUNDS;
            let ok = match (&warm, &cold[i]) {
                (Ok(w), Ok(c)) => {
                    w.trials == 0
                        && w.tuning_cost_s == 0.0
                        && w.module.functions.keys().eq(c.module.functions.keys())
                        && (!full || module_text(&w.module) == print.modules[i])
                }
                _ => false,
            };
            checks.op(ok, || {
                format!(
                    "warm recompile {round} of {} measured something or changed the module",
                    m.name
                )
            });
        }
        b_s += round_s;
        rounds.push(round_s * 1e3);
    }

    let mut c_s = 0.0;
    for round in 0..EVAL_ROUNDS {
        for (i, m) in inp.models.iter().enumerate() {
            let (r, s) = timed(|| {
                evaluate_model_with(
                    m,
                    &inp.gpu,
                    &inp.intrins,
                    Strategy::TensorIr,
                    opts,
                    &mut db,
                    true,
                )
            });
            c_s += s;
            match r {
                Ok(r) => {
                    // A group that has a kernel but no tuned program falls
                    // back to a scalar estimate and carries no breakdown.
                    let kernelless = r.per_group.iter().filter(|g| g.breakdown.is_none()).count();
                    checks.op(r.trials == 0 && kernelless == 0, || {
                        format!(
                            "evaluation of {}: {} trials on a populated database, {kernelless} groups without a kernel",
                            m.name, r.trials
                        )
                    });
                    if round == 0 {
                        print.latency_s.push(r.latency_s);
                    } else {
                        // Every round sums the same stored records.
                        checks.op(print.latency_s.get(i) == Some(&r.latency_s), || {
                            format!("evaluation of {}: latency changed between rounds", m.name)
                        });
                    }
                }
                Err(e) => {
                    checks.op(false, || format!("evaluation of {} failed: {e}", m.name));
                }
            }
        }
    }
    Rep {
        phases: Phases {
            a_s,
            b_s,
            c_s,
            wall_s: start.elapsed().as_secs_f64(),
        },
        warm_round_ms: median(&rounds),
        print,
        kernels,
    }
}

/// `compile_model_with`'s group loop, replayed over the same public calls
/// (`fuse_graph`, `workload_key`, `TuningDatabase::lookup`, a tune through
/// `build_sketches` + `tune_multi_with`, `TuningDatabase::insert`) with a
/// span around each. Returns the module it built, how many trials it
/// measured and what they cost in simulated seconds; the caller checks
/// them against the real function's.
fn compile_replayed(
    ctx: &TraceCtx<'_>,
    inp: &Inputs,
    model: &ModelSpec,
    opts: &TuneOptions,
    db: &mut TuningDatabase,
) -> (IrModule, usize, f64) {
    let _root = ctx.rec.enter(SPAN_COMPILE);
    let groups = {
        let _span = ctx.rec.enter(SPAN_FUSE);
        fuse_graph(model)
    };
    let mut module = IrModule::new();
    let mut seen = std::collections::HashSet::new();
    let mut trials = 0;
    let mut tuning_cost_s = 0.0;
    for g in groups {
        let Some(func) = &g.func else { continue };
        if !seen.insert(g.name.clone()) {
            continue;
        }
        let key = {
            let _span = ctx.rec.enter(SPAN_KEY);
            workload_key(func)
        };
        let hit = {
            let _span = ctx.rec.enter(SPAN_LOOKUP);
            db.lookup(&inp.gpu.name, Strategy::TensorIr, &key)
                .filter(|rec| opts.trials <= rec.budget)
                .map(|rec| rec.best.clone())
        };
        let best = hit.or_else(|| {
            let r = tune_traced(ctx, func, &inp.gpu, &inp.intrins, opts);
            trials += r.trials_measured + r.wasted_measurements;
            tuning_cost_s += r.tuning_cost_s;
            let best = r.best?;
            db.insert(
                &inp.gpu.name,
                Strategy::TensorIr,
                key,
                TuningRecord {
                    best: best.clone(),
                    best_time: r.best_time,
                    trials: r.trials_measured,
                    budget: opts.trials,
                    tuning_cost_s: r.tuning_cost_s,
                },
            );
            Some(best)
        });
        let mut best = best.unwrap_or_else(|| func.clone());
        best.name = g.name.clone();
        module.add(best);
    }
    (module, trials, tuning_cost_s)
}

pub fn run(args: &Args) -> Report {
    let (inp, setup_times) = repeat_setup(setup);
    let variants = if args.quick { 1 } else { VARIANTS };
    let rec = Recorder::new(args.trace);
    let ctx = TraceCtx::new(&rec);

    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut references: Vec<Option<Fingerprint>> = (0..variants).map(|_| None).collect();
    let mut kernels = 0;
    let mut groups = 0;
    let mut hit_counts = (0usize, 0usize);
    let mut first_counts = None;
    let (budget, min_reps) = if args.trace {
        (args.seconds * 0.7, 1)
    } else {
        (args.seconds, variants)
    };
    let mut clock = RepClock::new(budget, min_reps);
    let mut meter = SpeedMeter::start();
    while clock.more() {
        let variant = clock.reps() % variants;
        let opts = options(args.seed, variant);
        let rep = repetition(&inp, &opts, &mut checks);
        let slowdown = meter.lap();
        kernels = rep.kernels;
        samples.push_phases(rep.phases, slowdown);
        samples.push("warm_round_ms", rep.warm_round_ms);
        let mut rep_s = rep.phases.wall_s;

        if args.trace {
            rec.set_op(clock.reps() as u64);
            let mut db = TuningDatabase::new();
            let mut cold_s = 0.0;
            let mut replayed = Vec::new();
            groups = 0;
            for (i, m) in inp.models.iter().enumerate() {
                let ((module, trials, cost), s) =
                    timed(|| compile_replayed(&ctx, &inp, m, &opts, &mut db));
                cold_s += s;
                groups += fuse_graph(m).len();
                // A search of its own, so held to what a repeated compile
                // is held to: counts, simulated cost, the kernels' names.
                let text = module_text(&module);
                let same = checks.op(
                    trials == rep.print.trials[i]
                        && same_sim(cost, rep.print.tuning_cost_s[i])
                        && kernel_names(&module) == rep.print.kernels[i],
                    || {
                        format!(
                            "the replayed compile loop of {} differs from compile_model_with",
                            m.name
                        )
                    },
                );
                checks.tie(same && text != rep.print.modules[i]);
                replayed.push(text);
            }
            // A second pass over the populated database: the lookup-hit
            // path, which the warm recompiles of phase B take.
            for (i, m) in inp.models.iter().enumerate() {
                let ((module, trials, _), s) =
                    timed(|| compile_replayed(&ctx, &inp, m, &opts, &mut db));
                samples.push("replayed_warm_ms", s * 1e3);
                checks.op(module_text(&module) == replayed[i] && trials == 0, || {
                    format!(
                        "the replayed warm compile of {} differs from the cold one",
                        m.name
                    )
                });
            }
            hit_counts = (db.hits(), db.misses());
            samples.push("trace_overhead", cold_s / rep.phases.a_s - 1.0);
            first_counts.get_or_insert_with(|| ctx.capture().counts());
            rep_s += cold_s;
            meter.lap();
        }

        match &references[variant] {
            None => references[variant] = Some(rep.print),
            Some(first) => {
                let same = checks.op(first.same(&rep.print), || {
                    format!(
                        "a repeated cold compile (seed variant {variant}) differs from the first: \
                         trials {:?} vs {:?}, tuning cost {}, latency {}",
                        first.trials,
                        rep.print.trials,
                        if same_sims(&first.tuning_cost_s, &rep.print.tuning_cost_s) {
                            "same"
                        } else {
                            "DIFFERS"
                        },
                        if same_sims(&first.latency_s, &rep.print.latency_s) {
                            "same"
                        } else {
                            "DIFFERS"
                        },
                    )
                });
                checks.tie(same && first.modules != rep.print.modules);
            }
        }
        clock.done(rep_s);
    }

    let mut report = Report {
        reps: clock.reps(),
        variants,
        ..Default::default()
    };
    let cycle: Vec<&Fingerprint> = references.iter().flatten().collect();
    let latency_us: Vec<f64> = cycle
        .iter()
        .flat_map(|p| p.latency_s.iter().map(|t| t * 1e6))
        .collect();
    let cost: Vec<f64> = cycle.iter().map(|p| p.tuning_cost_s.iter().sum()).collect();
    report.set_end_to_end(&setup_times, &samples, &latency_us, &cost);
    let n = samples.count("wall_s");
    report.native = vec![
        ("compile_cold_s", "s", samples.median("phase_a_ms") / 1e3, n),
        (
            "compile_warm_ms",
            "ms",
            samples.median("warm_round_ms"),
            n * WARM_ROUNDS,
        ),
        (
            "sim_model_latency_ms",
            "sim_ms",
            geomean(&latency_us) / 1e3,
            latency_us.len(),
        ),
    ];

    if args.trace {
        let spans = rec.spans();
        let (_, tune_unattributed_ns) = report_search_layers(
            &mut report,
            &spans,
            &ctx.capture(),
            first_counts.unwrap_or_default(),
            ctx.searches_run(),
        );
        let totals = totals_by_name(&spans);
        for (metric, span) in [
            ("tir-graph.fuse_graph_us", SPAN_FUSE),
            ("tir-autoschedule.database.workload_key_us", SPAN_KEY),
            ("tir-autoschedule.database.lookup_us", SPAN_LOOKUP),
        ] {
            let t = totals.get(span).copied().unwrap_or_default();
            report.layer(
                metric,
                t.total_ns as f64 / t.calls.max(1) as f64 / 1e3,
                t.calls as usize,
            );
        }
        report.layer("tir-graph.groups", groups as f64, 1);
        report.layer("tir-graph.distinct_kernels", kernels as f64, 1);
        report.layer(
            "tir-autoschedule.database.hit_share",
            hit_counts.0 as f64 / (hit_counts.0 + hit_counts.1).max(1) as f64,
            hit_counts.0 + hit_counts.1,
        );
        // The compile loop's own share: what is left of the root spans once
        // fusion, fingerprinting, lookups and tunes are taken out, plus
        // what the tunes themselves could not attribute.
        let root = totals.get(SPAN_COMPILE).copied().unwrap_or_default();
        report.layer(
            "tir-graph.unattributed_share",
            (root.self_ns as f64 + tune_unattributed_ns.max(0.0)) / (root.total_ns as f64).max(1.0),
            root.calls as usize,
        );
        report.layer(
            "compile_models.trace_overhead_share",
            samples.median("trace_overhead"),
            samples.count("trace_overhead"),
        );
        report.spans = spans;
    }
    report.checks = checks;
    report
}
