//! Tree-walk interpreter vs the compiler's bytecode vs optimized bytecode
//! vs the sanitizer: execution throughput per workload.
//!
//! Runs each workload to completion on all four executors (VM times
//! include bytecode compilation — and optimization, for `vm_opt` and
//! `vm_sanitized` — matching what `Interpreter::run` pays per call),
//! reports ns per interpreter step (one store/eval), and emits
//! `BENCH_interp.json` with the per-workload numbers plus the dispatched
//! instruction mix before/after optimization, so CI can track both
//! speedups.
//!
//! Five rows are unscheduled operators; three are *scheduled* programs —
//! the first candidate a tensorized sketch materializes from a fixed seed,
//! no tune — because nearly everything the VM executes in this repo has
//! been through schedule primitives (affine iterator bindings, staged
//! copies, nested blocks).
//!
//! With `--check` the bench becomes a CI gate on the gmm/c2d/c1d workloads
//! and the scheduled ones: the optimizer must at least halve the
//! instructions dispatched (`mix_after` total ≤ half the `mix_before`
//! total, a count that repeats exactly), no row's `mix_after` total may
//! rise above its `MIX_AFTER_CEILING` (recorded once a lane loop ran to
//! its end in one dispatch), the three scheduled rows together must
//! dispatch at most 60% of what they did before the compiler proved `//`
//! and `%` from loop extents and copy nests ran as lanes, the optimized
//! VM must be ≥2x
//! faster per step than the tree-walker, and on gmm/c2d/c1d the
//! tree-walker must cost at most 3.5x the compiler's bytecode per step
//! (the reference every differential check pays for; it read 5.2–5.9x
//! before it keyed by id). On the same rows `run_sanitized` must cost at
//! most 1.5x `vm_opt` per step (it read 1.3–2.9x when every access
//! updated shadow memory). Each of these three ratios is gated on the
//! median of its per-round ratios ([`median_ratio`]), not on the ratio of
//! two medians, so a round the machine ran slow weighs on both executors
//! it compares. The emitted JSON must be well-formed. Exits non-zero on
//! any violation.

use std::process::ExitCode;
use std::time::Instant;

use tir::DataType;
use tir_autoschedule::{build_sketches, Strategy};
use tir_exec::machine::Machine;
use tir_exec::{
    compile, compile_optimized, run_sanitized, run_with, ExecBackend, InstrMixProfile, Tensor,
};

/// Runs the compiler's bytecode, unoptimized, as `run_with` runs a backend.
fn run_unoptimized(func: &tir::PrimFunc, args: Vec<Tensor>) -> tir_exec::RunOutcome {
    let prog = compile(func).expect("compile");
    prog.run_with_fuel(args, u64::MAX).expect("vm")
}
use tir_rand::{rngs::StdRng, SeedableRng};
use tir_tensorize::builtin_registry;
use tir_trace::json::{self, JsonWriter, Layout};
use tir_workloads::ops;

/// Every row's `mix_after` total once every lane loop ran to its end in
/// one dispatch; a count that repeats exactly, so none may rise.
const MIX_AFTER_CEILING: [(&str, u64); 8] = [
    ("gmm_64x64x64_f32", 16_513),
    ("gmm_64x64x64_f16", 16_513),
    ("c2d_18x18x32_f32", 360_995),
    ("dep_32x32x16_f32", 203_463),
    ("c1d_64x64_f32", 229_897),
    ("sched_gpu_wmma_gmm_64_f16", 156_568),
    ("sched_gpu_wmma_c2d_10x10x16_f16", 527_104),
    ("sched_arm_sdot_gmm_64_i8", 310_615),
];

/// The three scheduled rows' `mix_after` total before the compiler proved
/// `//` and `%` from loop extents and copy nests ran as lanes.
const SCHED_MIX_BEFORE_PROOFS: u64 = 2_216_593;

struct Row {
    name: &'static str,
    steps: u64,
    tw_ns_per_step: f64,
    vm_ns_per_step: f64,
    opt_ns_per_step: f64,
    san_ns_per_step: f64,
    /// The gated ratios, each the median of its per-round ratios:
    /// tree-walk over `vm`, tree-walk over `vm_opt`, sanitizer over
    /// `vm_opt`.
    tw_over_vm: f64,
    tw_over_opt: f64,
    san_over_opt: f64,
    /// Dispatched `(mnemonic, count)` histogram of the unoptimized program.
    mix_before: Vec<(&'static str, u64)>,
    /// Same histogram after the optimizer pipeline.
    mix_after: Vec<(&'static str, u64)>,
}

/// Wall-time (ns) of `reps` rounds of each executor, `[executor][round]`,
/// run round-robin so a drift in the machine's speed reaches all of them
/// alike (the gates compare them within one row).
fn rounds_ns<const N: usize>(reps: usize, mut runs: [&mut dyn FnMut(); N]) -> [Vec<f64>; N] {
    let mut samples = [(); N].map(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (run, samples) in runs.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            run();
            samples.push(t.elapsed().as_nanos() as f64);
        }
    }
    samples
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// The median over rounds of `num[round] / den[round]`: two executors are
/// compared within each round, which the machine ran at one speed.
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    median(num.iter().zip(den).map(|(n, d)| n / d).collect())
}

fn bench_case(name: &'static str, func: &tir::PrimFunc) -> Row {
    let args: Vec<Tensor> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i + 1 == func.params.len() {
                Tensor::zeros(p.dtype(), p.shape())
            } else {
                Tensor::random(p.dtype(), p.shape(), 42 + i as u64)
            }
        })
        .collect();
    // One verification pass: bit-exact outputs across all four
    // executors, and the step count that normalizes the timings.
    let tw = run_with(func, args.clone(), ExecBackend::TreeWalk, None).expect("tree-walk");
    let vm = run_unoptimized(func, args.clone());
    let opt = run_with(func, args.clone(), ExecBackend::Vm, None).expect("vm_opt");
    let san = run_sanitized(func, args.clone(), None).expect("vm_sanitized");
    assert_eq!(tw.outputs, vm.outputs, "vm diverges on {name}");
    assert_eq!(tw.outputs, opt.outputs, "vm_opt diverges on {name}");
    assert_eq!(tw.outputs, san.outputs, "vm_sanitized diverges on {name}");
    assert_eq!(tw.steps, vm.steps, "vm step count diverges on {name}");
    assert_eq!(tw.steps, opt.steps, "vm_opt step count diverges on {name}");
    assert_eq!(tw.steps, san.steps, "vm_sanitized steps diverge on {name}");
    let steps = tw.steps;

    // Dispatched-instruction mix before/after optimization (one profiled
    // run each; profiling is monomorphized out of the timed runs below).
    let mut mix_before = InstrMixProfile::new();
    compile(func)
        .expect("compile")
        .run_profiled(args.clone(), u64::MAX, &mut mix_before)
        .expect("profiled run");
    let mut mix_after = InstrMixProfile::new();
    compile_optimized(func)
        .expect("compile_optimized")
        .run_profiled(args.clone(), u64::MAX, &mut mix_after)
        .expect("profiled opt run");

    let [tw_ns, vm_ns, opt_ns, san_ns] = rounds_ns(
        5,
        [
            &mut || {
                let out = run_with(func, args.clone(), ExecBackend::TreeWalk, None);
                std::hint::black_box(out.expect("tree-walk"));
            },
            &mut || {
                std::hint::black_box(run_unoptimized(func, args.clone()));
            },
            &mut || {
                let out = run_with(func, args.clone(), ExecBackend::Vm, None);
                std::hint::black_box(out.expect("vm_opt"));
            },
            &mut || {
                let out = run_sanitized(func, args.clone(), None);
                std::hint::black_box(out.expect("vm_sanitized"));
            },
        ],
    );
    Row {
        name,
        steps,
        tw_over_vm: median_ratio(&tw_ns, &vm_ns),
        tw_over_opt: median_ratio(&tw_ns, &opt_ns),
        san_over_opt: median_ratio(&san_ns, &opt_ns),
        tw_ns_per_step: median(tw_ns) / steps as f64,
        vm_ns_per_step: median(vm_ns) / steps as f64,
        opt_ns_per_step: median(opt_ns) / steps as f64,
        san_ns_per_step: median(san_ns) / steps as f64,
        mix_before: mix_before.mix(),
        mix_after: mix_after.mix(),
    }
}

/// A scheduled version of `func` without a tune: the first candidate its
/// tensorized sketch (wmma on the GPU, `sdot` on ARM) materializes from
/// decision vectors sampled with a fixed seed.
fn scheduled(func: &tir::PrimFunc, machine: &Machine) -> tir::PrimFunc {
    let sketches = build_sketches(func, machine, &builtin_registry(), Strategy::TensorIr);
    let tensorized = sketches.first().expect("a tensorized sketch");
    let mut rng = StdRng::seed_from_u64(0x5c4ed);
    (0..64)
        .find_map(|_| tensorized.apply(&tensorized.sample(&mut rng)).ok())
        .expect("no sampled candidate materializes")
}

/// A dispatched-instruction mix as one inline JSON object.
fn write_mix(w: &mut JsonWriter, mix: &[(&'static str, u64)]) {
    w.object(Layout::Inline, |w| {
        for (mnemonic, count) in mix {
            w.field(mnemonic, *count);
        }
    });
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let f32_ = DataType::float32();
    let f16 = DataType::float16();
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let cases: Vec<(&'static str, tir::PrimFunc)> = vec![
        ("gmm_64x64x64_f32", ops::gmm(64, 64, 64, f32_, f32_)),
        ("gmm_64x64x64_f16", ops::gmm(64, 64, 64, f16, f16)),
        (
            "c2d_18x18x32_f32",
            ops::c2d(1, 18, 18, 32, 32, 3, 3, 1, f32_),
        ),
        ("dep_32x32x16_f32", ops::dep(1, 32, 32, 16, 3, 3, 1, f32_)),
        ("c1d_64x64_f32", ops::c1d(4, 66, 64, 64, 3, 1, f32_)),
        (
            "sched_gpu_wmma_gmm_64_f16",
            scheduled(&ops::gmm(64, 64, 64, f16, f16), &gpu),
        ),
        (
            "sched_gpu_wmma_c2d_10x10x16_f16",
            scheduled(&ops::c2d(1, 10, 10, 16, 16, 3, 3, 1, f16), &gpu),
        ),
        (
            "sched_arm_sdot_gmm_64_i8",
            scheduled(
                &ops::gmm(64, 64, 64, DataType::int8(), DataType::int32()),
                &arm,
            ),
        ),
    ];

    println!(
        "Interpreter backends: tree-walk vs VM vs optimized VM vs sanitizer (release, per-step cost)"
    );
    println!(
        "{:<32} {:>10} {:>14} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "workload",
        "steps",
        "tree-walk ns",
        "vm ns",
        "vm_opt ns",
        "san ns",
        "vm/opt",
        "tw/vm",
        "san/opt"
    );
    let mut rows = Vec::new();
    for (name, func) in &cases {
        let row = bench_case(name, func);
        println!(
            "{:<32} {:>10} {:>14.1} {:>10.1} {:>10.1} {:>10.1} {:>7.2}x {:>7.2}x {:>7.2}x",
            row.name,
            row.steps,
            row.tw_ns_per_step,
            row.vm_ns_per_step,
            row.opt_ns_per_step,
            row.san_ns_per_step,
            row.vm_ns_per_step / row.opt_ns_per_step,
            row.tw_over_vm,
            row.san_over_opt,
        );
        rows.push(row);
    }

    let text = json::document(|w| {
        w.object(Layout::Lines, |w| {
            w.field("benchmark", "interp_vm")
                .field("unit", "ns_per_step");
            w.key("workloads").array(Layout::Lines, |w| {
                for r in &rows {
                    w.object(Layout::Inline, |w| {
                        w.field("name", r.name)
                            .field("steps", r.steps)
                            .field("tree_walk", r.tw_ns_per_step)
                            .field("vm", r.vm_ns_per_step)
                            .field("vm_opt", r.opt_ns_per_step)
                            .field("vm_sanitized", r.san_ns_per_step)
                            .field("speedup", r.tw_ns_per_step / r.vm_ns_per_step)
                            .field("speedup_opt", r.tw_ns_per_step / r.opt_ns_per_step)
                            .field("opt_over_vm", r.vm_ns_per_step / r.opt_ns_per_step)
                            .key("mix_before");
                        write_mix(w, &r.mix_before);
                        w.key("mix_after");
                        write_mix(w, &r.mix_after);
                    });
                }
            });
        });
    });

    let failures = check.then(|| {
        let mut failures = Vec::new();
        // The acceptance gate covers the named MAC-shaped workloads and
        // the scheduled programs; `dep` rides along in the report unchecked.
        let named = |r: &Row, prefixes: &[&str]| prefixes.iter().any(|p| r.name.starts_with(p));
        let total = |mix: &[(&str, u64)]| mix.iter().map(|(_, c)| c).sum::<u64>();
        let ceiling = |name: &str| {
            let row = MIX_AFTER_CEILING.iter().find(|(n, _)| *n == name);
            row.map(|&(_, c)| c).expect("every row has a ceiling")
        };
        let sched = rows.iter().filter(|r| named(r, &["sched"]));
        let sched_after: u64 = sched.map(|r| total(&r.mix_after)).sum();
        if 10 * sched_after > 6 * SCHED_MIX_BEFORE_PROOFS {
            failures.push(format!(
                "the scheduled rows dispatch {sched_after} instructions (need <= 60% of \
                 {SCHED_MIX_BEFORE_PROOFS})"
            ));
        }
        for r in &rows {
            if total(&r.mix_after) > ceiling(r.name) {
                failures.push(format!(
                    "{}: the optimizer dispatches {} instructions, above {}",
                    r.name,
                    total(&r.mix_after),
                    ceiling(r.name)
                ));
            }
            let (tw_over_opt, tw_over_vm) = (r.tw_over_opt, r.tw_over_vm);
            let (before, after) = (total(&r.mix_before), total(&r.mix_after));
            if named(r, &["gmm", "c2d", "c1d", "sched"]) && 2 * after > before {
                failures.push(format!(
                    "{}: the optimizer dispatches {after} of {before} instructions (need <= half)",
                    r.name
                ));
            }
            if named(r, &["gmm", "c2d", "c1d", "sched"]) && tw_over_opt < 2.0 {
                failures.push(format!(
                    "{}: vm_opt only {tw_over_opt:.2}x over tree-walk (need >= 2x)",
                    r.name
                ));
            }
            let san_over_opt = r.san_over_opt;
            if named(r, &["gmm", "c2d", "c1d", "sched"]) && san_over_opt > 1.5 {
                failures.push(format!(
                    "{}: the sanitizer costs {san_over_opt:.2}x vm_opt per step (need <= 1.5x)",
                    r.name
                ));
            }
            if named(r, &["gmm", "c2d", "c1d"]) && tw_over_vm > 3.5 {
                failures.push(format!(
                    "{}: tree-walk costs {tw_over_vm:.2}x vm per step (need <= 3.5x)",
                    r.name
                ));
            }
        }
        failures
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    json::gate("interp_vm", path, &text, failures)
}
