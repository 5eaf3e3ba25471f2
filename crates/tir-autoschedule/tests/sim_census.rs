//! The price census: what the simulator charges every candidate the golden
//! sketch-apply corpus builds, the quantity a search over those candidates
//! can find differences in.
//!
//! The corpus is the one of `sketch_apply_golden.rs`: every sketch
//! `build_sketches` yields on the bench-suite families (float16 on
//! `sim_gpu`, int8 on `sim_arm`, `Strategy::TensorIr`) and 40 seeded
//! decision vectors each, 1 280 in all. `tests/golden/sim_census.txt` has
//! one `== ` line per sketch — `valid` (the `Ok` candidates), `distinct
//! times` (distinct `TimeBreakdown::total` bits, which is what
//! `simulate` returns) and `distinct breakdowns` — and under it one line
//! per `Ok` candidate: its seed, the `TimeBreakdown` bits (compute,
//! memory, launch), the `RooflineBound`, and every `CostSummary` field.
//! It records; it asserts nothing about how many times a sketch has.
//!
//! Regenerate (only when the simulator or a sketch is meant to change)
//! with `cargo test -p tir-autoschedule --test sim_census -- --ignored`.

#[path = "../../../tests/corpus/golden.rs"]
mod golden;

use std::collections::BTreeSet;
use std::fmt::Write;

use tir::DataType;
use tir_autoschedule::{build_sketches, Strategy};
use tir_exec::cost::{estimate_breakdown, simulate, summarize, CostSummary};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_rand::SeedableRng;
use tir_tensorize::builtin_registry;
use tir_workloads::bench_suite;

const VECTORS_PER_SKETCH: u64 = 40;
const GOLDEN: &str = include_str!("golden/sim_census.txt");

/// A `CostSummary` as `key=value` fields; every float prints as the
/// shortest decimal that reads back to its bits.
fn summary_fields(s: &CostSummary) -> String {
    let tensor: Vec<String> = (s.tensor_macs.iter())
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    let traffic: Vec<String> = (s.traffic.iter())
        .map(|(k, v)| format!("{k:?}:{v}"))
        .collect();
    format!(
        "scalar={} vector={} tensor=[{}] traffic=[{}] grid={} threads={} parallel={}",
        s.scalar_ops,
        s.vector_ops,
        tensor.join(","),
        traffic.join(","),
        s.grid_size,
        s.block_threads,
        s.cpu_parallelism
    )
}

fn census() -> String {
    let reg = builtin_registry();
    let targets = [
        ("sim_gpu", Machine::sim_gpu(), DataType::float16()),
        ("sim_arm", Machine::sim_arm(), DataType::int8()),
    ];
    let mut out = String::new();
    for (machine_name, machine, dtype) in &targets {
        for case in bench_suite(*dtype) {
            for sketch in build_sketches(&case.func, machine, &reg, Strategy::TensorIr) {
                let (mut body, mut times, mut breakdowns) =
                    (String::new(), BTreeSet::new(), BTreeSet::new());
                for seed in 0..VECTORS_PER_SKETCH {
                    let decisions = sketch.sample(&mut StdRng::seed_from_u64(seed));
                    let Ok(f) = sketch.apply(&decisions) else {
                        continue;
                    };
                    let summary = summarize(&f);
                    let b = estimate_breakdown(&summary, machine);
                    assert_eq!(b.total().to_bits(), simulate(&f, machine).to_bits());
                    let bits = [b.compute_s, b.memory_s, b.launch_s].map(f64::to_bits);
                    times.insert(b.total().to_bits());
                    breakdowns.insert(bits);
                    let [c, m, l] = bits;
                    let (bound, fields) = (b.bound().name(), summary_fields(&summary));
                    writeln!(body, "{seed} {c:016x} {m:016x} {l:016x} {bound} {fields}").unwrap();
                }
                writeln!(
                    out,
                    "== {machine_name} {} {}: valid {}, distinct times {}, distinct breakdowns {}",
                    case.kind.label(),
                    sketch.name(),
                    body.lines().count(),
                    times.len(),
                    breakdowns.len()
                )
                .unwrap();
                out.push_str(&body);
            }
        }
    }
    out
}

#[test]
fn census_matches_golden() {
    golden::assert_matches_golden(GOLDEN, &census(), "census lines");
}

/// Every `== ` line of the committed file states what the candidate lines
/// under it hold: their count, their distinct totals
/// (`max(compute, memory) + launch`, as `TimeBreakdown::total` adds) and
/// their distinct breakdowns.
#[test]
fn summary_lines_agree_with_the_body() {
    let mut sketches = 0;
    let mut candidates = 0;
    let mut sections = GOLDEN.split("== ").skip(1).peekable();
    assert!(sections.peek().is_some(), "the census is empty");
    for section in sections {
        let (header, body) = section.split_once('\n').expect("a header line");
        let (mut times, mut breakdowns) = (BTreeSet::new(), BTreeSet::new());
        for line in body.lines() {
            let bits: Vec<u64> = (line.split(' ').skip(1).take(3))
                .map(|h| u64::from_str_radix(h, 16).expect("hex bits"))
                .collect();
            let [c, m, l] = [bits[0], bits[1], bits[2]].map(f64::from_bits);
            times.insert((c.max(m) + l).to_bits());
            breakdowns.insert(bits);
        }
        let stated = format!(
            ": valid {}, distinct times {}, distinct breakdowns {}",
            body.lines().count(),
            times.len(),
            breakdowns.len()
        );
        assert!(header.ends_with(&stated), "{header} (body says {stated})");
        sketches += 1;
        candidates += body.lines().count();
    }
    assert_eq!(
        GOLDEN.lines().count(),
        sketches + candidates,
        "every line is a header or a candidate"
    );
    assert_eq!(
        sketches as u64 * VECTORS_PER_SKETCH,
        1_280,
        "the corpus size"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_census.txt");
    golden::rewrite(path, &census());
}
