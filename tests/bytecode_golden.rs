//! Golden bytecode listings: the gate for any change to `tir-exec`'s
//! compiler, optimizer, VM or disassembler (`compile.rs`, `opt.rs`,
//! `vm.rs`, `disasm.rs`).
//!
//! `tests/golden/bytecode_listings.txt` holds one line per program: a
//! label, then for `compile` and for `optimize` the op count and the FNV-1a
//! of the disassembly *body* — every line after the `program … (…)` header,
//! so a header field can come or go without moving a line.
//!
//! Programs: every program of `tests/corpus/mod.rs`; every `Ok` program of
//! the 1 280 `sketch_apply` vectors (TensorIR sketches, 40 seeds) plus six
//! seeded vectors of every Ansor and AMOS sketch, on the float16 `sim_gpu`
//! and int8 `sim_arm` operator suites; the fused groups of the GPU
//! (float16) and ARM (int8) networks; and the eight programs of the
//! `interp_vm` bench.
//!
//! `census` asserts what the compiler and the optimizer never emit on
//! this corpus and prints, per mnemonic, how many programs emit it
//! (`cargo test --test bytecode_golden -- --nocapture`).
//! `equal_hashes_are_equal_programs` is a collision census of
//! `structural_hash` on the same programs.
//!
//! Regenerate (only when lowering or optimization is *meant* to change)
//! with `cargo test --test bytecode_golden -- --ignored`.

mod corpus;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

use corpus::golden::{self, fnv1a};

use tir::structural::{func_structural_eq, structural_hash};
use tir::{DataType, PrimFunc};
use tir_autoschedule::{build_sketches, Strategy};
use tir_exec::machine::Machine;
use tir_exec::{compile, optimize, Program};
use tir_graph::{arm_models, fuse_graph, gpu_models};
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, ops};

const GOLDEN: &str = include_str!("golden/bytecode_listings.txt");

/// The first candidate the first (tensorized) sketch of `func`
/// materializes from the `interp_vm` bench's fixed seed.
fn scheduled(func: &PrimFunc, machine: &Machine) -> PrimFunc {
    let sketches = build_sketches(func, machine, &builtin_registry(), Strategy::TensorIr);
    let tensorized = sketches.first().expect("a tensorized sketch");
    let mut rng = StdRng::seed_from_u64(0x5c4ed);
    (0..64)
        .find_map(|_| tensorized.apply(&tensorized.sample(&mut rng)).ok())
        .expect("no sampled candidate materializes")
}

/// Every program of the suite, labelled, built once per test binary.
fn programs() -> &'static [(String, PrimFunc)] {
    static PROGRAMS: OnceLock<Vec<(String, PrimFunc)>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let mut out: Vec<(String, PrimFunc)> = Vec::new();
        for (n, (func, _)) in corpus::workload_families().into_iter().enumerate() {
            out.push((format!("family {n} {}", func.name), func));
        }
        for (case, func) in corpus::random_pipelines(112).into_iter().enumerate() {
            out.push((format!("variant {case}"), func));
        }
        for (v, func) in corpus::gpu_pipelines().into_iter().enumerate() {
            out.push((format!("gpu variant {v}"), func));
        }
        for (label, func, _) in corpus::illegal_mutants() {
            out.push((format!("mutant {label}"), func));
        }
        let reg = builtin_registry();
        let targets = [
            ("sim_gpu", Machine::sim_gpu(), DataType::float16()),
            ("sim_arm", Machine::sim_arm(), DataType::int8()),
        ];
        for (machine_name, machine, dtype) in &targets {
            for case in bench_suite(*dtype) {
                let kind = case.kind.label();
                for (strategy, seeds) in [
                    (Strategy::TensorIr, 40),
                    (Strategy::Ansor, 6),
                    (Strategy::Amos, 6),
                ] {
                    for sketch in build_sketches(&case.func, machine, &reg, strategy) {
                        for seed in 0..seeds {
                            let decisions = sketch.sample(&mut StdRng::seed_from_u64(seed));
                            if let Ok(func) = sketch.apply(&decisions) {
                                let (s, name) = (strategy.label(), sketch.name());
                                let label = format!("{machine_name} {kind} {s} {name} {seed}");
                                out.push((label, func));
                            }
                        }
                    }
                }
            }
        }
        for model in gpu_models().into_iter().chain(arm_models()) {
            for (g, group) in fuse_graph(&model).into_iter().enumerate() {
                if let Some(func) = group.func {
                    out.push((format!("{} group {g} {}", model.name, group.name), func));
                }
            }
        }
        let (f32_, f16, i8_) = (DataType::float32(), DataType::float16(), DataType::int8());
        let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
        let interp_vm = [
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
                scheduled(&ops::gmm(64, 64, 64, i8_, DataType::int32()), &arm),
            ),
        ];
        for (name, func) in interp_vm {
            out.push((format!("interp_vm {name}"), func));
        }
        out
    })
}

/// A program's listing without its header line.
fn body(prog: &Program) -> String {
    let listing = prog.to_string();
    let (_, body) = listing.split_once('\n').expect("a header line");
    body.to_string()
}

/// The mnemonic of every instruction line of a listing body (the side
/// tables after the instructions are skipped).
fn mnemonics(body: &str) -> impl Iterator<Item = &str> {
    body.lines().filter_map(|line| {
        let (pc, rest) = line.trim_start().split_once(": ")?;
        pc.parse::<usize>().ok()?;
        rest.split_whitespace().next()
    })
}

/// The body kind (`mac`, `fill` or `copy`) of every `mac_lanes` line of
/// a listing body.
fn lane_bodies(body: &str) -> impl Iterator<Item = &str> {
    body.lines().filter_map(|line| {
        let (_, lanes) = line.split_once(": mac_lanes ")?;
        let kind = lanes.split_whitespace().nth(2)?;
        Some(kind.trim_end_matches(|c: char| c.is_ascii_digit()))
    })
}

/// What `compile` and `optimize` make of one program: the op count and
/// the listing body of each.
struct Listing {
    label: &'static str,
    compiled: (usize, String),
    optimized: (usize, String),
}

fn listings() -> &'static [Listing] {
    static LISTINGS: OnceLock<Vec<Listing>> = OnceLock::new();
    LISTINGS.get_or_init(|| {
        programs()
            .iter()
            .map(|(label, func)| {
                let prog = compile(func).unwrap_or_else(|e| panic!("{label}: {e}"));
                let compiled = (prog.len(), body(&prog));
                let prog = optimize(prog);
                Listing {
                    label,
                    compiled,
                    optimized: (prog.len(), body(&prog)),
                }
            })
            .collect()
    })
}

/// Collision census of `structural_hash`, the FNV-1a fold of a program's
/// structural stream, on every program in one pass: programs of one hash
/// have the stream of the first of them (`func_structural_eq` compares
/// streams), so no two different programs of the corpus collide; and
/// programs that print alike have one stream, so hash alike.
#[test]
fn equal_hashes_are_equal_programs() {
    let mut by_hash: HashMap<u64, &PrimFunc> = HashMap::new();
    let mut by_text: HashMap<String, u64> = HashMap::new();
    for (label, func) in programs() {
        let hash = structural_hash(func);
        let first = *by_hash.entry(hash).or_insert(func);
        assert!(
            func_structural_eq(first, func),
            "{label}: {hash:016x} is the hash of a different program"
        );
        let printed = *by_text.entry(func.to_string()).or_insert(hash);
        assert_eq!(
            printed, hash,
            "{label}: printed like a program hashed apart"
        );
    }
    let (n, distinct) = (programs().len(), by_hash.len());
    assert!(
        distinct < n,
        "{distinct} hashes of {n} programs: none repeats"
    );
}

fn golden_text() -> String {
    let mut out = String::new();
    for l in listings() {
        assert!(!l.label.contains('|'), "{}", l.label);
        let ((plain_len, plain), (opt_len, opt)) = (&l.compiled, &l.optimized);
        out.push_str(&format!(
            "{} | compile {plain_len} {:016x} | optimize {opt_len} {:016x}\n",
            l.label,
            fnv1a(plain.bytes()),
            fnv1a(opt.bytes())
        ));
    }
    out
}

#[test]
fn listings_match_golden() {
    let now = golden_text();
    golden::assert_matches_golden(GOLDEN, &now, "programs' bytecode listings");
    let n = now.lines().count();
    assert!(n >= 500, "{n} programs: the file would not notice a change");
}

/// The ops `compile` and `optimize` never emit on this corpus, and per
/// mnemonic how many programs emit it before and after optimization;
/// `mac_lanes` is counted per lane body as well (`mac_lanes copy`).
#[test]
fn census() {
    let mut emitted: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for l in listings() {
        let plain: BTreeSet<&str> = mnemonics(&l.compiled.1).collect();
        let opt: BTreeSet<&str> = mnemonics(&l.optimized.1).collect();
        let lanes: BTreeSet<&str> = lane_bodies(&l.optimized.1).collect();
        for kind in lanes {
            let m = ["mac_lanes mac", "mac_lanes fill", "mac_lanes copy"]
                .into_iter()
                .find(|m| m.ends_with(kind))
                .unwrap_or_else(|| panic!("{}: lane body {kind}", l.label));
            emitted.entry(m).or_default().1 += 1;
        }
        assert!(
            !plain.contains("hoist_set"),
            "{}: compile emits hoist_set",
            l.label
        );
        for never in ["load_cast", "fused_acc"] {
            assert!(!opt.contains(never), "{}: optimize emits {never}", l.label);
        }
        for m in plain {
            emitted.entry(m).or_default().0 += 1;
        }
        for m in opt {
            emitted.entry(m).or_default().1 += 1;
        }
    }
    let copies = emitted.get("mac_lanes copy").map_or(0, |c| c.1);
    assert!(copies > 0, "no program optimizes to a copy lane");
    println!("{} programs", listings().len());
    println!("{:<28} {:>8} {:>9}", "op", "compile", "optimize");
    for (m, (plain, opt)) in &emitted {
        println!("{m:<28} {plain:>8} {opt:>9}");
    }
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/bytecode_listings.txt"
    );
    golden::rewrite(path, &golden_text());
}
