//! Workload `oracles`: the three correctness oracles of ROADMAP aim 3 —
//! the optimized bytecode VM, the sanitizing VM and the static verifier —
//! with the tree-walker and hand-written expectations as the references.
//!
//! The program set:
//!
//! * five unscheduled operators (gmm 64³ f32 and f16, c2d, dep, c1d) —
//!   the `interp_vm` families at shapes of 130k–390k steps, so the
//!   tree-walker references cost about a second of set-up, not six;
//! * three tuned best programs at reduced shapes (GPU wmma gmm, GPU c2d,
//!   ARM sdot gmm), tuned once in set-up with the workload seed;
//! * [`CANDIDATES`] seeded sketch candidates at the full Fig. 10/13 shapes
//!   for the verifier (never executed), all expected legal;
//! * four hand-built illegal programs, each expected to be rejected with a
//!   named error variant.
//!
//! One repetition: **A** [`VM_PASSES`] passes of `run_with(ExecBackend::Vm)`
//! over the eight executables (compile and optimize included, as
//! `Interpreter::run` pays them); **B** one pass of `run_sanitized`
//! (unoptimized bytecode with shadow memory); **C** [`VERIFY_PASSES`] passes
//! of `verify_scheduled` over every candidate and illegal program. No search runs in the timed
//! section: a tuner change must leave this workload flat.

use std::time::Instant;

use tir::{Buffer, DataType, Expr, ForKind, MemScope, PrimFunc, Stmt, ThreadTag, Var};
use tir_analysis::{check_bounds, check_races, check_scopes, validate, ValidationError};
use tir_autoschedule::{build_sketches, tune_workload, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_exec::{
    compile, optimize, run_sanitized, run_with, ExecBackend, InstrMixProfile, RunOutcome, Tensor,
};
use tir_rand::rngs::StdRng;
use tir_rand::{derive_seed, SeedableRng};
use tir_schedule::Schedule;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, ops, OpKind};

use crate::harness::{repeat_setup, timed, Args, Checks, Phases, RepClock, Report, Samples};
use crate::probe::SpeedMeter;
use crate::spans::Recorder;
use crate::stats::{geomean, mean, median};

const CANDIDATES: usize = 200;
const VM_PASSES: usize = 2;
const VERIFY_PASSES: usize = 2;
const SETUP_TRIALS: usize = 32;

const SPAN_VM: &str = "tir-exec.run_with_vm";
const SPAN_SANITIZE: &str = "tir-exec.run_sanitized";
const SPAN_VERIFY: &str = "tir-analysis.verify_scheduled";

/// A program the oracles execute, with its inputs and the tree-walker's
/// answer.
struct Executable {
    name: &'static str,
    func: PrimFunc,
    args: Vec<Tensor>,
    reference: RunOutcome,
    treewalk_s: f64,
}

/// Which error a hand-built illegal program must be rejected with.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Legal,
    ReductionRace,
    OutOfBounds,
    ScopeViolation,
    CooperativeFetch,
}

impl Expect {
    fn matches(self, verdict: &Result<(), Vec<ValidationError>>) -> bool {
        let has =
            |f: fn(&ValidationError) -> bool| verdict.as_ref().is_err_and(|es| es.iter().any(f));
        match self {
            Expect::Legal => verdict.is_ok(),
            Expect::ReductionRace => has(|e| {
                matches!(
                    e,
                    ValidationError::ReductionOnParallelLoop { .. }
                        | ValidationError::WriteRace { .. }
                )
            }),
            Expect::OutOfBounds => has(|e| matches!(e, ValidationError::OutOfBounds { .. })),
            Expect::ScopeViolation => has(|e| matches!(e, ValidationError::ScopeViolation { .. })),
            Expect::CooperativeFetch => {
                has(|e| matches!(e, ValidationError::CooperativeFetch { .. }))
            }
        }
    }
}

struct Inputs {
    executables: Vec<Executable>,
    /// Programs for the static verifier with the verdict each must get.
    verifier_set: Vec<(String, PrimFunc, Expect)>,
    /// best_time and tuning_cost_s of the set-up tunes (simulated clock).
    tuned: Vec<(f64, f64)>,
    setup_failures: Vec<String>,
}

fn seeded_args(func: &PrimFunc, seed: u64) -> Vec<Tensor> {
    let n = func.params.len();
    func.params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i + 1 == n {
                Tensor::zeros(p.dtype(), p.shape())
            } else {
                Tensor::random(p.dtype(), p.shape(), derive_seed(seed, &[i as u64]))
            }
        })
        .collect()
}

/// The four illegal programs, built the way the repo's own differential
/// tests build theirs (schedule primitives with the verify gate off, or
/// raw IR), each with the error it must draw.
fn illegal_programs() -> Vec<(String, PrimFunc, Expect)> {
    let f32_ = DataType::float32();
    let mut out = Vec::new();

    // 1. The reduction loop of a matmul made parallel: every iteration of
    //    k read-modify-writes the same C[i, j].
    let mut sch = Schedule::new(tir::builder::matmul_func("mm", 16, 16, 16, f32_));
    sch.set_auto_verify(false);
    let block = sch.get_block("C").expect("matmul block");
    let loops = sch.get_loops(&block).expect("matmul loops");
    sch.parallel(&loops[2]).expect("parallel on the k loop");
    out.push((
        "illegal/parallel-reduction".to_string(),
        sch.into_func(),
        Expect::ReductionRace,
    ));

    // 2. A store that walks one past the end of its buffer.
    let o = Buffer::new("O", f32_, vec![16]);
    let i = Var::int("i");
    let body = Stmt::store(o.clone(), vec![Expr::from(&i) + 1], Expr::f32(1.0)).in_loop(i, 16);
    out.push((
        "illegal/index-out-of-range".to_string(),
        PrimFunc::new("oob", vec![o], body),
        Expect::OutOfBounds,
    ));

    // 3. A shared-memory buffer written under one blockIdx loop and read
    //    outside it.
    let s = Buffer::with_scope("S", f32_, vec![8], MemScope::Shared);
    let o = Buffer::new("O", f32_, vec![8]);
    let (b, i) = (Var::int("b"), Var::int("i"));
    let write = Stmt::For(Box::new(tir::For::with_kind(
        b.clone(),
        8,
        ForKind::ThreadBinding(ThreadTag::BlockIdxX),
        Stmt::store(s.clone(), vec![Expr::from(&b)], Expr::f32(1.0)),
    )));
    let read = Stmt::store(
        o.clone(),
        vec![Expr::from(&i)],
        s.load(vec![Expr::from(&i)]),
    )
    .in_loop(i, 8);
    let mut f = PrimFunc::new("shared_escape", vec![o], Stmt::seq(vec![write, read]));
    f.root_block_mut()
        .expect("root block")
        .alloc_buffers
        .push(s);
    out.push((
        "illegal/shared-across-blockidx".to_string(),
        f,
        Expect::ScopeViolation,
    ));

    // 4. A shared-buffer producer under a threadIdx loop it does not
    //    consume, without the cooperative annotation.
    let shared = Buffer::with_scope("S", f32_, vec![8], MemScope::Shared);
    let a = Buffer::new("A", f32_, vec![8]);
    let (t, ax, v) = (Var::int("t"), Var::int("ax"), Var::int("v"));
    let block = tir::Block::new(
        "S_copy",
        vec![tir::IterVar::spatial(v.clone(), 8)],
        vec![tir::BufferRegion::point(a.clone(), vec![Expr::from(&v)])],
        vec![tir::BufferRegion::point(
            shared.clone(),
            vec![Expr::from(&v)],
        )],
        Stmt::store(
            shared.clone(),
            vec![Expr::from(&v)],
            a.load(vec![Expr::from(&v)]),
        ),
    );
    let realize = tir::BlockRealize::new(vec![Expr::from(&ax)], block);
    let inner = Stmt::BlockRealize(Box::new(realize)).in_loop(ax, 8);
    let thread_loop = Stmt::For(Box::new(tir::For::with_kind(
        t,
        32,
        ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
        inner,
    )));
    let mut f = PrimFunc::new("uncovered_fetch", vec![a], thread_loop);
    f.root_block_mut()
        .expect("root block")
        .alloc_buffers
        .push(shared);
    out.push((
        "illegal/uncovered-cooperative-fetch".to_string(),
        f,
        Expect::CooperativeFetch,
    ));
    out
}

fn setup(seed: u64) -> Inputs {
    let (f32_, f16, i8_, i32_) = (
        DataType::float32(),
        DataType::float16(),
        DataType::int8(),
        DataType::int32(),
    );
    let intrins = builtin_registry();
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let mut failures = Vec::new();

    let mut programs: Vec<(&'static str, PrimFunc)> = vec![
        ("gmm_64_f32", ops::gmm(64, 64, 64, f32_, f32_)),
        ("gmm_64_f16", ops::gmm(64, 64, 64, f16, f16)),
        (
            "c2d_10x10x16_f32",
            ops::c2d(1, 10, 10, 16, 16, 3, 3, 1, f32_),
        ),
        ("dep_32x32x16_f32", ops::dep(1, 32, 32, 16, 3, 3, 1, f32_)),
        ("c1d_34x32_f32", ops::c1d(2, 34, 32, 32, 3, 1, f32_)),
    ];
    let mut tuned = Vec::new();
    for (i, (name, func, machine)) in [
        ("tuned_gpu_gmm_64_f16", ops::gmm(64, 64, 64, f16, f16), &gpu),
        (
            "tuned_gpu_c2d_10x10x16_f16",
            ops::c2d(1, 10, 10, 16, 16, 3, 3, 1, f16),
            &gpu,
        ),
        ("tuned_arm_gmm_64_i8", ops::gmm(64, 64, 64, i8_, i32_), &arm),
    ]
    .into_iter()
    .enumerate()
    {
        let opts = TuneOptions {
            trials: SETUP_TRIALS,
            num_threads: 1,
            seed: derive_seed(seed, &[100 + i as u64]),
            ..Default::default()
        };
        let r = tune_workload(&func, machine, &intrins, Strategy::TensorIr, &opts);
        tuned.push((r.best_time, r.tuning_cost_s));
        match r.best {
            Some(best) => programs.push((name, best)),
            None => failures.push(format!("set-up tune {name} found no program")),
        }
    }

    let executables = programs
        .into_iter()
        .enumerate()
        .filter_map(|(i, (name, func))| {
            let args = seeded_args(&func, derive_seed(seed, &[200 + i as u64]));
            let (reference, treewalk_s) =
                timed(|| run_with(&func, args.clone(), ExecBackend::TreeWalk, None));
            match reference {
                Ok(reference) => Some(Executable {
                    name,
                    func,
                    args,
                    reference,
                    treewalk_s,
                }),
                Err(e) => {
                    failures.push(format!("tree-walker failed on {name}: {e}"));
                    None
                }
            }
        })
        .collect();

    // Verifier candidates: for every Fig. 10/13 operator, seeded random
    // decision vectors through every sketch the strategy builds, keeping
    // the ones that materialize. A sketch's output is legal by
    // construction — that, not the verifier, is the expectation.
    let cases: Vec<(String, PrimFunc, &Machine)> = bench_suite(f16)
        .into_iter()
        .map(|c| (format!("gpu/{}", c.kind.label()), c.func, &gpu))
        .chain(
            bench_suite(i8_)
                .into_iter()
                .filter(|c| matches!(c.kind, OpKind::GMM | OpKind::C2D))
                .map(|c| (format!("arm/{}", c.kind.label()), c.func, &arm)),
        )
        .collect();
    let per_case = CANDIDATES.div_ceil(cases.len());
    let mut verifier_set = Vec::new();
    for (ci, (label, func, machine)) in cases.iter().enumerate() {
        let sketches = build_sketches(func, machine, &intrins, Strategy::TensorIr);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[300 + ci as u64]));
        let mut kept = 0;
        // Bounded: a sketch whose every sample fails must not hang set-up.
        for attempt in 0..per_case * 8 {
            if kept == per_case {
                break;
            }
            let sketch = &sketches[attempt % sketches.len()];
            if let Ok(f) = sketch.apply(&sketch.sample(&mut rng)) {
                verifier_set.push((format!("{label}#{kept}"), f, Expect::Legal));
                kept += 1;
            }
        }
        if kept < per_case {
            failures.push(format!("only {kept} of {per_case} candidates for {label}"));
        }
    }
    verifier_set.extend(illegal_programs());

    Inputs {
        executables,
        verifier_set,
        tuned,
        setup_failures: failures,
    }
}

/// One executed oracle call checked against the tree-walker: same outputs
/// bit for bit, same step count.
fn agrees(outcome: &Result<RunOutcome, tir_exec::ExecError>, reference: &RunOutcome) -> bool {
    matches!(outcome, Ok(o) if o.steps == reference.steps && o.outputs == reference.outputs)
}

fn repetition(inp: &Inputs, rec: &Recorder, checks: &mut Checks, samples: &mut Samples) -> Phases {
    let start = Instant::now();
    let mut a_s = 0.0;
    let mut vm_ns = vec![Vec::new(); inp.executables.len()];
    for _ in 0..VM_PASSES {
        for (i, e) in inp.executables.iter().enumerate() {
            let args = e.args.clone();
            let (out, s) = {
                let _span = rec.enter(SPAN_VM);
                timed(|| run_with(&e.func, args, ExecBackend::Vm, None))
            };
            a_s += s;
            vm_ns[i].push(s * 1e9 / e.reference.steps as f64);
            checks.op(agrees(&out, &e.reference), || {
                format!("VM disagrees with the tree-walker on {}", e.name)
            });
        }
    }
    let mut b_s = 0.0;
    let mut san_ns = Vec::new();
    for e in &inp.executables {
        let args = e.args.clone();
        let (out, s) = {
            let _span = rec.enter(SPAN_SANITIZE);
            timed(|| run_sanitized(&e.func, args, None))
        };
        b_s += s;
        san_ns.push(s * 1e9 / e.reference.steps as f64);
        checks.op(agrees(&out, &e.reference), || match &out {
            Err(err) => format!("sanitizer reports {err} on the legal program {}", e.name),
            Ok(_) => format!("sanitized run disagrees with the tree-walker on {}", e.name),
        });
    }
    let mut c_s = 0.0;
    for _ in 0..VERIFY_PASSES {
        for (label, func, expect) in &inp.verifier_set {
            let (verdict, s) = {
                let _span = rec.enter(SPAN_VERIFY);
                timed(|| tir_analysis::verify_scheduled(func))
            };
            c_s += s;
            checks.op(expect.matches(&verdict), || {
                format!("verifier verdict on {label}: expected {expect:?}, got {verdict:?}")
            });
        }
    }
    let per_exe: Vec<f64> = vm_ns.iter().map(|v| median(v)).collect();
    samples.push("vm_ns_per_step", geomean(&per_exe));
    samples.push("sanitize_ns_per_step", geomean(&san_ns));
    samples.push(
        "verify_us",
        c_s * 1e6 / (VERIFY_PASSES * inp.verifier_set.len()).max(1) as f64,
    );
    Phases {
        a_s,
        b_s,
        c_s,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Per-layer decomposition on pre-built programs: what `run_with` and
/// `run_sanitized` are made of (compile, optimize, run), the instruction
/// counts before and after the optimizer, and the verifier's three passes
/// one by one.
fn decompose(inp: &Inputs, rec: &Recorder, report: &mut Report, rounds: usize) {
    let (mut compile_us, mut optimize_us) = (Vec::new(), Vec::new());
    let (mut run_ns, mut unopt_ns, mut san_ns, mut tw_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut instr_before, mut instr_after) = (0usize, 0usize);
    let (mut dispatched_before, mut dispatched_after) = (0u64, 0u64);
    for e in &inp.executables {
        tw_ns.push(e.treewalk_s * 1e9 / e.reference.steps as f64);
        let Ok(unopt) = compile(&e.func) else {
            continue;
        };
        let opt = optimize(unopt.clone());
        instr_before += unopt.len();
        instr_after += opt.len();
        let (mut before, mut after) = (InstrMixProfile::new(), InstrMixProfile::new());
        let _ = unopt.run_profiled(e.args.clone(), u64::MAX, &mut before);
        let _ = opt.run_profiled(e.args.clone(), u64::MAX, &mut after);
        dispatched_before += before.total();
        dispatched_after += after.total();
        let steps = e.reference.steps as f64;
        let (mut run, mut slow, mut san) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rounds {
            let (prog, s) = {
                let _span = rec.enter("tir-exec.compile");
                timed(|| compile(&e.func))
            };
            compile_us.push(s * 1e6);
            if let Ok(prog) = prog {
                let _span = rec.enter("tir-exec.opt.optimize");
                optimize_us.push(timed(|| optimize(prog)).1 * 1e6);
            }
            {
                let _span = rec.enter("tir-exec.vm.run");
                run.push(timed(|| opt.run_with_fuel(e.args.clone(), u64::MAX)).1 * 1e9 / steps);
            }
            {
                let _span = rec.enter("tir-exec.vm.run_unopt");
                slow.push(timed(|| unopt.run_with_fuel(e.args.clone(), u64::MAX)).1 * 1e9 / steps);
            }
            let _span = rec.enter("tir-exec.vm.run_sanitized");
            san.push(timed(|| unopt.run_sanitized(e.args.clone(), u64::MAX)).1 * 1e9 / steps);
        }
        run_ns.push(median(&run));
        unopt_ns.push(median(&slow));
        san_ns.push(median(&san));
    }
    let n = inp.executables.len();
    report.layer("tir-exec.compile_us", mean(&compile_us), compile_us.len());
    report.layer(
        "tir-exec.opt.optimize_us",
        mean(&optimize_us),
        optimize_us.len(),
    );
    report.layer("tir-exec.vm.run_ns_per_step", geomean(&run_ns), n * rounds);
    report.layer(
        "tir-exec.vm.unopt_ns_per_step",
        geomean(&unopt_ns),
        n * rounds,
    );
    report.layer("tir-exec.interp.treewalk_ns_per_step", geomean(&tw_ns), n);
    report.layer(
        "tir-exec.vm.sanitize_run_ns_per_step",
        geomean(&san_ns),
        n * rounds,
    );
    report.layer("tir-exec.opt.instr_before", instr_before as f64, n);
    report.layer("tir-exec.opt.instr_after", instr_after as f64, n);
    report.layer(
        "tir-exec.opt.dispatch_reduction_share",
        1.0 - dispatched_after as f64 / (dispatched_before as f64).max(1.0),
        n,
    );

    let (mut races, mut bounds, mut valid) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    for (_, func, expect) in &inp.verifier_set {
        let mut errors = {
            let _span = rec.enter("tir-analysis.validate");
            let (r, s) = timed(|| validate(func));
            valid.push(s * 1e6);
            r.err().unwrap_or_default()
        };
        {
            let _span = rec.enter("tir-analysis.check_bounds");
            let (r, s) = timed(|| check_bounds(func));
            bounds.push(s * 1e6);
            errors.extend(r);
        }
        {
            let _span = rec.enter("tir-analysis.racecheck");
            let (r, s) = timed(|| {
                let mut r = check_races(func);
                r.extend(check_scopes(func));
                r
            });
            races.push(s * 1e6);
            errors.extend(r);
        }
        let verdict = if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        };
        if !expect.matches(&verdict) {
            mismatches += 1;
        }
    }
    let m = inp.verifier_set.len();
    report.layer("tir-analysis.racecheck_us", mean(&races), m);
    report.layer("tir-analysis.bounds_us", mean(&bounds), m);
    report.layer("tir-analysis.validate_us", mean(&valid), m);
    report.layer("tir-analysis.verdict_mismatches", mismatches as f64, m);
}

pub fn run(args: &Args) -> Report {
    let (inp, setup_times) = repeat_setup(|| setup(args.seed));
    let rec = Recorder::new(args.trace);
    let off = Recorder::new(false);
    let mut checks = Checks::default();
    for failure in &inp.setup_failures {
        checks.op(false, || failure.clone());
    }
    let mut samples = Samples::default();
    let budget = if args.trace {
        args.seconds * 0.7
    } else {
        args.seconds
    };
    let mut clock = RepClock::new(budget, 1);
    let mut meter = SpeedMeter::start();
    while clock.more() {
        let rep = repetition(&inp, &off, &mut checks, &mut samples);
        samples.push_phases(rep, meter.lap());
        let mut rep_s = rep.wall_s;
        if args.trace {
            rec.set_op(clock.reps() as u64);
            let mut scratch = Samples::default();
            let traced = repetition(&inp, &rec, &mut checks, &mut scratch);
            samples.push("trace_overhead", traced.wall_s / rep.wall_s - 1.0);
            rep_s += traced.wall_s;
            meter.lap();
        }
        clock.done(rep_s);
    }

    let mut report = Report {
        reps: clock.reps(),
        variants: 1,
        ..Default::default()
    };
    let best_us: Vec<f64> = inp.tuned.iter().map(|(t, _)| t * 1e6).collect();
    let cost: f64 = inp.tuned.iter().map(|(_, c)| c).sum();
    report.set_end_to_end(&setup_times, &samples, &best_us, &[cost]);
    let n = samples.count("wall_s");
    report.native = vec![
        (
            "vm_ns_per_step",
            "ns",
            samples.median("vm_ns_per_step"),
            n * VM_PASSES,
        ),
        (
            "sanitize_ns_per_step",
            "ns",
            samples.median("sanitize_ns_per_step"),
            n,
        ),
        (
            "verify_us_per_program",
            "us",
            samples.median("verify_us"),
            n * VERIFY_PASSES * inp.verifier_set.len(),
        ),
    ];
    if args.trace {
        decompose(&inp, &rec, &mut report, if args.quick { 2 } else { 5 });
        report.layer(
            "oracles.trace_overhead_share",
            samples.median("trace_overhead"),
            samples.count("trace_overhead"),
        );
        report.spans = rec.spans();
    }
    report.checks = checks;
    report
}
