//! Golden parse outcomes: the gate for any change to `tir::parser`.
//!
//! `tests/golden/parse_outcomes.txt` holds one line per input text: a
//! label, then either the FNV-1a hash of `parse_func(text).to_string()` —
//! the tree the parser built, as the printer shows it — or `err <line>
//! <message>`, the `ParseError` word for word. The file was written by the
//! per-line `Vec<char>` lexer this parser replaced; that lexer is not kept
//! beside it, so this file is the oracle.
//!
//! Well-formed inputs: every program of `tests/corpus/mod.rs`, every `Ok`
//! program of the 1 280 `sketch_apply` vectors, the best programs of
//! 16-trial wmma and sdot tunes (what the daemon's journal replays), and
//! the fused groups of the four networks. Malformed inputs are derived from
//! a subset of those (`SUBSET`, a seeded draw kept by label): the text cut at every line, a token deleted, a
//! token swapped for another, a tab for an indent, a 2-space indent, an
//! unterminated string, multi-byte UTF-8 in the middle of an expression —
//! plus a handful of hand-written texts for the lexer's corners (CRLF,
//! comments, exponents, integer overflow, `==` after a subscript).
//! `byte_level_mutations_never_panic` covers what a fixed file cannot: 12 000
//! seeded byte-level mutants, none of which may panic.
//!
//! Regenerate (only when the grammar or a message is *meant* to change)
//! with `cargo test --test parse_golden -- --ignored`.

mod corpus;

use std::sync::OnceLock;

use corpus::golden::{self, fnv1a};

use tir::parser::parse_func;
use tir::DataType;
use tir_autoschedule::{build_sketches, tune_workload, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_graph::{fuse_graph, gpu_models};
use tir_rand::rngs::StdRng;
use tir_rand::{RngExt, SeedableRng};
use tir_tensorize::builtin_registry;
use tir_workloads::{bench_suite, OpKind};

const GOLDEN: &str = include_str!("golden/parse_outcomes.txt");

/// What a golden line says after its label.
fn outcome(text: &str) -> String {
    match parse_func(text) {
        Ok(func) => format!("{:016x}", fnv1a(func.to_string().bytes())),
        Err(e) => format!("err {} {}", e.line, e.message.replace('\n', "\\n")),
    }
}

/// The two targets of the single-operator suite, as `sketch_apply_golden`
/// and `tune_golden` name them.
fn targets() -> [(&'static str, Machine, DataType); 2] {
    [
        ("sim_gpu", Machine::sim_gpu(), DataType::float16()),
        ("sim_arm", Machine::sim_arm(), DataType::int8()),
    ]
}

/// The well-formed texts, labelled, built once per test binary.
fn well_formed() -> &'static [(String, String)] {
    static TEXTS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let mut out: Vec<(String, String)> = Vec::new();
        let mut add = |label: String, func: &tir::PrimFunc| out.push((label, func.to_string()));
        for (n, (func, _)) in corpus::workload_families().into_iter().enumerate() {
            add(format!("family {n} {}", func.name), &func);
        }
        for (case, func) in corpus::random_pipelines(112).into_iter().enumerate() {
            add(format!("variant {case}"), &func);
        }
        for (v, func) in corpus::gpu_pipelines().into_iter().enumerate() {
            add(format!("gpu variant {v}"), &func);
        }
        for (label, func, _) in corpus::illegal_mutants() {
            add(format!("mutant {label}"), &func);
        }
        let reg = builtin_registry();
        for (machine_name, machine, dtype) in &targets() {
            for case in bench_suite(*dtype) {
                let kind = case.kind.label();
                for sketch in build_sketches(&case.func, machine, &reg, Strategy::TensorIr) {
                    for seed in 0..40 {
                        let decisions = sketch.sample(&mut StdRng::seed_from_u64(seed));
                        if let Ok(func) = sketch.apply(&decisions) {
                            let name = sketch.name();
                            add(format!("{machine_name} {kind} {name} {seed}"), &func);
                        }
                    }
                }
                // The rows of `tune_golden`: all of Fig. 10, GMM and C2D of
                // Fig. 13.
                let tuned =
                    *dtype == DataType::float16() || matches!(case.kind, OpKind::GMM | OpKind::C2D);
                if tuned {
                    let opts = TuneOptions {
                        trials: 16,
                        seed: 1,
                        num_threads: 1,
                        ..Default::default()
                    };
                    let r = tune_workload(&case.func, machine, &reg, Strategy::TensorIr, &opts);
                    let best = r.best.expect("a 16-trial tune finds a program");
                    add(format!("{machine_name} {kind} tuned best"), &best);
                }
            }
        }
        for model in gpu_models() {
            let groups = fuse_graph(&model);
            for (g, group) in groups.iter().enumerate() {
                if let Some(func) = &group.func {
                    add(format!("{} group {g} {}", model.name, group.name), func);
                }
            }
        }
        out
    })
}

/// Byte ranges of the tokens of `text`: a run of identifier characters, a
/// quoted string, or one other non-blank character. Deliberately not the
/// parser's lexer.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        } else if word(bytes[i]) {
            while i < bytes.len() && word(bytes[i]) {
                i += 1;
            }
        } else if bytes[i] == b'"' {
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\n' {
                i += 1;
            }
            i = (i + 1).min(bytes.len());
        } else {
            i += 1;
        }
        spans.push((start, i));
    }
    spans
}

fn replace_span(text: &str, (start, end): (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &text[..start], &text[end..])
}

fn with_line(lines: &[&str], k: usize, line: String) -> String {
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    out[k] = line;
    out.join("\n") + "\n"
}

/// Malformed variants of one well-formed text.
fn variants(label: &str, text: &str, rng: &mut StdRng, out: &mut Vec<(String, String)>) {
    let lines: Vec<&str> = text.lines().collect();
    for k in 0..lines.len() {
        let cut: String = lines[..k].iter().flat_map(|l| [l, "\n"]).collect();
        out.push((format!("{label} :: cut at line {k}"), cut));
    }
    let spans = token_spans(text);
    for _ in 0..8 {
        let at = rng.random_range(0..spans.len());
        out.push((
            format!("{label} :: token {at} deleted"),
            replace_span(text, spans[at], ""),
        ));
        let (at, from) = (
            rng.random_range(0..spans.len()),
            rng.random_range(0..spans.len()),
        );
        let (s, e) = spans[from];
        out.push((
            format!("{label} :: token {at} becomes token {from}"),
            replace_span(text, spans[at], &text[s..e]),
        ));
    }
    let indented: Vec<usize> = (0..lines.len())
        .filter(|&k| lines[k].starts_with("    "))
        .collect();
    let quoted: Vec<usize> = (0..lines.len())
        .filter(|&k| lines[k].contains('"'))
        .collect();
    for _ in 0..3 {
        let k = indented[rng.random_range(0..indented.len())];
        out.push((
            format!("{label} :: line {k} one tab for four spaces"),
            with_line(&lines, k, lines[k].replacen("    ", "\t", 1)),
        ));
        let body = lines[k].trim_start();
        let tabs = "\t".repeat((lines[k].len() - body.len()) / 4);
        out.push((
            format!("{label} :: line {k} indented with tabs"),
            with_line(&lines, k, format!("{tabs}{body}")),
        ));
        out.push((
            format!("{label} :: line {k} two more spaces"),
            with_line(&lines, k, format!("  {}", lines[k])),
        ));
        let k = quoted[rng.random_range(0..quoted.len())];
        let last = lines[k].rfind('"').expect("filtered on it");
        out.push((
            format!("{label} :: line {k} unterminated string"),
            with_line(&lines, k, replace_span(lines[k], (last, last + 1), "")),
        ));
        // Multi-byte UTF-8 after a token: a letter the lexer must refuse,
        // and two blanks it must skip.
        let (_, at) = spans[rng.random_range(0..spans.len())];
        for (what, ch) in [
            ("é", "é"),
            ("no-break space", "\u{a0}"),
            ("em space", "\u{2003}"),
        ] {
            out.push((
                format!("{label} :: {what} at byte {at}"),
                replace_span(text, (at, at), ch),
            ));
        }
    }
    // And inside a string literal, where anything goes.
    let k = quoted[0];
    let last = lines[k].rfind('"').expect("filtered on it");
    out.push((
        format!("{label} :: line {k} arrow inside a string"),
        with_line(&lines, k, replace_span(lines[k], (last, last), "→")),
    ));
}

/// Texts for the corners of the lexer and of statement dispatch that no
/// printed program reaches.
fn hand_written() -> Vec<(String, String)> {
    let head = "@T.prim_func\ndef f(A: T.Buffer((8), \"float32\"), B: T.Buffer((8), \"int32\")):\n";
    let body = |lines: &str| format!("{head}    for i in range(8):\n{lines}");
    let cases: Vec<(&str, String)> = vec![
        ("empty", String::new()),
        ("blank lines only", "\n   \n\t\n".to_string()),
        ("decorator only", "@T.prim_func\n".to_string()),
        ("no decorator", head.lines().nth(1).expect("def line").to_string() + "\n    pass\n"),
        ("no def", "@T.prim_func\nfor i in range(8):\n    pass\n".to_string()),
        ("def without a name", "def (A: T.Buffer((8), \"float32\")):\n    pass\n".to_string()),
        ("unknown parameter dtype", "def f(A: T.Buffer((8), \"quad\")):\n    pass\n".to_string()),
        ("crlf line ends", body("        A[i] = 1.0\n").replace('\n', "\r\n")),
        ("trailing blanks and a comment", body("        A[i] = 1.0   # set\n    # done\n")),
        ("comment line at a shallower indent", body("        A[i] = 1.0\n# note\n        A[i] = 2.0\n")),
        ("exponent float", body("        A[i] = 1.5e-3 + 2E4 + 7e+2\n")),
        ("exponent without digits is a name", body("        A[i] = 2e\n")),
        ("float with a dtype suffix", body("        A[i] = 1.5'float16' + 2.0\"float64\"\n")),
        ("float with a suffix that is no dtype", body("        A[i] = 1.5'float17'\n")),
        ("integer followed by a dot", body("        A[i] = 1.\n")),
        ("integer overflow", body("        B[i] = 99999999999999999999\n")),
        ("huge float", body("        A[i] = 1.5e999\n")),
        ("single-quoted string", body("        A[i] = T.cast(B[i], 'float32')\n")),
        ("equality after a subscript reads as a store", body("        A[i] == 1.0\n")),
        ("bare expression", body("        T.evaluate_me(A[i], i + 1)\n")),
        ("unknown character", body("        A[i] = 1.0 ? 2.0\n")),
        ("unknown variable", body("        A[i] = j\n")),
        ("unknown buffer", body("        C[i] = 1.0\n")),
        ("unknown buffer in a load", body("        A[i] = C[i]\n")),
        ("missing bracket", body("        A[i = 1.0\n")),
        ("dangling operator", body("        A[i] = 1.0 +\n")),
        ("negations", body("        B[i] = -(-3) - -i + (0 - -2)\n        A[i] = -1.5\n")),
        ("boolean operators", body("        if not (i < 4 and i != 2 or i >= 7) and True or false:\n            A[i] = 1.0\n")),
        ("true division", body("        A[i] = A[i] / 2.0 // 1.0 % 3.0\n")),
        ("min max select arity", body("        A[i] = T.min(A[i])\n")),
        ("select arity", body("        A[i] = T.select(i < 4, A[i])\n")),
        ("cast without a dtype", body("        A[i] = T.cast(B[i], i)\n")),
        ("cast to an unknown dtype", body("        A[i] = T.cast(B[i], \"quad\")\n")),
        ("call without arguments", body("        A[i] = T.zero()\n")),
        ("else without if", body("        else:\n            A[i] = 1.0\n")),
        ("deeper indent", body("            A[i] = 1.0\n")),
        ("three-space indent", body("       A[i] = 1.0\n")),
        ("loop kinds", format!("{head}    for i in T.parallel(2):\n        for j in T.vectorized(2):\n            for k in T.unroll(2):\n                A[i * 4 + j * 2 + k] = 1.0\n")),
        ("unknown loop kind", format!("{head}    for i in T.serial(8):\n        A[i] = 1.0\n")),
        ("thread binding without a tag", format!("{head}    for i in T.thread_binding(8):\n        A[i] = 1.0\n")),
        ("thread binding with an unknown tag", format!("{head}    for i in T.thread_binding(8, thread=\"warp.x\"):\n        A[i] = 1.0\n")),
        ("loop variable count", format!("{head}    for i, j in T.grid(8):\n        A[i] = 1.0\n")),
        ("loop header without in", format!("{head}    for i range(8):\n        A[i] = 1.0\n")),
        ("loop header with a number", format!("{head}    for 3 in range(8):\n        A[i] = 1.0\n")),
        ("loop annotations", body("        # annotation: pragma = \"unroll\"\n        # annotation: depth = 2\n        # annotation: broken\n        A[i] = 1.0\n")),
        ("block", body("        with T.block(\"b\"):\n            v = T.axis.spatial(8, i)\n            T.where(i < 8)\n            T.reads(B[v], A[0:v + 1])\n            T.writes(A[v])\n            T.block_attr({\"k\": 3})\n            S = T.alloc_buffer((8), \"float32\", scope=\"shared\")\n            with T.init():\n                A[v] = 0.0\n            A[v] = A[v] + T.cast(B[v], \"float32\")\n")),
        ("block name is not a string", body("        with T.block(b):\n            A[i] = 1.0\n")),
        ("axis extent is not an integer", body("        with T.block(\"b\"):\n            v = T.axis.spatial(i, i)\n            A[v] = 1.0\n")),
        ("region of an unknown buffer", body("        with T.block(\"b\"):\n            T.reads(C[i])\n            A[i] = 1.0\n")),
        ("region without a bracket", body("        with T.block(\"b\"):\n            T.reads(A)\n            A[i] = 1.0\n")),
        ("region with a stray token", body("        with T.block(\"b\"):\n            T.reads(A[i; 2])\n            A[i] = 1.0\n")),
        ("alloc_buffer without a dtype", format!("{head}    S = T.alloc_buffer((8))\n    for i in range(8):\n        S[i] = 1.0\n")),
        ("alloc_buffer with an unknown dtype", format!("{head}    S = T.alloc_buffer((8), \"quad\")\n    for i in range(8):\n        S[i] = 1.0\n")),
        ("root alloc_buffer", format!("{head}    S = T.alloc_buffer((8, 2), \"float16\", scope=\"local\")\n    for i in range(8):\n        S[i, 0] = 1.0\n")),
    ];
    cases
        .into_iter()
        .map(|(label, text)| (format!("hand-written: {label}"), text))
        .collect()
}

/// Programs whose malformed variants go in the file: the 24 that a draw of
/// `SUBSET_SEED` chose from the corpus when the file was recorded, kept by
/// label so that the corpus can grow or shrink without redrawing them, and
/// the tuned wmma and sdot GMMs.
const SUBSET: [&str; 24] = [
    "variant 94",
    "sim_arm DEP cpu-tensor[sdot_4x4x4_i8] 39",
    "sim_gpu GMM gpu-tensor[wmma_16x16x16_f16] 34",
    "sim_arm GRP cpu-tensor[sdot_4x4x4_i8] 7",
    "sim_gpu GRP gpu-scalar 2",
    "sim_arm C1D cpu-tensor[sdot_4x4x4_i8] 37",
    "sim_arm C3D cpu-scalar 28",
    "variant 79",
    "sim_arm DIL cpu-tensor[sdot_4x4x4_i8] 4",
    "sim_gpu T2D gpu-scalar 12",
    "sim_arm C3D cpu-scalar 13",
    "sim_arm T2D cpu-tensor[sdot_4x4x4_i8] 16",
    "sim_arm C2D cpu-tensor[sdot_4x4x4_i8] 13",
    "sim_arm C3D cpu-tensor[sdot_4x4x4_i8] 33",
    "sim_gpu GMM gpu-scalar 37",
    "sim_arm C2D cpu-scalar 22",
    "sim_arm GMM cpu-scalar 5",
    "variant 2",
    "variant 83",
    "sim_arm C2D cpu-scalar 8",
    "variant 24",
    "sim_arm DIL cpu-scalar 2",
    "sim_arm DEP cpu-tensor[sdot_4x4x4_i8] 37",
    "sim_arm C1D cpu-scalar 19",
];
const SUBSET_SEED: u64 = 0x9a45e;

fn inputs() -> Vec<(String, String)> {
    let good = well_formed();
    let mut out = good.to_vec();
    let by_label = |want: &str| {
        (good.iter().position(|(label, _)| label == want))
            .unwrap_or_else(|| panic!("no program {want}"))
    };
    let mut picks: Vec<usize> = SUBSET.iter().map(|label| by_label(label)).collect();
    picks.extend((0..good.len()).filter(|&i| good[i].0.ends_with("GMM tuned best")));
    // The variants are drawn from the stream that follows the subset's
    // draws, one `u64` each.
    let mut rng = StdRng::seed_from_u64(SUBSET_SEED);
    for _ in SUBSET {
        rng.next_u64();
    }
    for i in picks {
        let (label, text) = &good[i];
        variants(label, text, &mut rng, &mut out);
    }
    out.extend(hand_written());
    out
}

fn golden_text() -> String {
    let mut out = String::new();
    for (label, text) in inputs() {
        assert!(!label.contains('|'), "{label}");
        out.push_str(&format!("{label} | {}\n", outcome(&text)));
    }
    out
}

#[test]
fn parse_outcomes_match_golden() {
    golden::assert_matches_golden(GOLDEN, &golden_text(), "texts' parse outcomes");
    let errors = GOLDEN.lines().filter(|l| l.contains(" | err ")).count();
    let parsed = GOLDEN.lines().count() - errors;
    let messages: std::collections::HashSet<&str> = GOLDEN
        .lines()
        .filter_map(|l| l.split_once(" | err ").map(|(_, e)| e))
        .filter_map(|e| e.split_once(' ').map(|(_, message)| message))
        .map(|m| m.split([':', '"', '\'', '{']).next().unwrap_or(m))
        .collect();
    println!(
        "{parsed} parsed, {errors} errors, {} kinds of message",
        messages.len()
    );
    assert!(
        parsed > 1_500 && errors > 500 && messages.len() >= 30,
        "{parsed} parsed, {errors} errors, {} kinds of message: the file would not notice a \
         change",
        messages.len()
    );
}

/// Every well-formed text of the corpus parses to a well-formed program
/// (`tir::well_formed`), and printing what was parsed gives the text back:
/// the hash in the file is the hash of the input.
#[test]
fn well_formed_texts_reprint_as_themselves() {
    for (label, text) in well_formed() {
        let func = parse_func(text).unwrap_or_else(|e| panic!("{label}: {e}\n{text}"));
        assert_eq!(tir::well_formed(&func), Ok(()), "{label}");
        assert_eq!(&func.to_string(), text, "{label}");
    }
}

/// Hostile text is answered, not died on: no byte-level damage to a
/// well-formed text makes `parse_func` panic (a panic here fails the test).
/// The per-line lexer's parser indexed token slices unchecked — `T.reads`
/// alone on a line, a `thread` keyword at the end of a loop header — and
/// trusted a region's rank.
#[test]
fn byte_level_mutations_never_panic() {
    const MUTANTS: usize = 12_000;
    // Bytes that matter to the lexer, the line splitter and UTF-8.
    const SPICE: &[u8] = b" \t\n\r#\"'()[]{},:=<>!@+-*/%._019eETx\xc3\xa9\xe2\x80\x83\xff";
    let good = well_formed();
    let mut rng = StdRng::seed_from_u64(0xf022);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..MUTANTS {
        let mut bytes = good[rng.random_range(0..good.len())].1.clone().into_bytes();
        for _ in 0..rng.random_range(1..4usize) {
            let at = rng.random_range(0..bytes.len());
            let spice = SPICE[rng.random_range(0..SPICE.len())];
            match rng.random_range(0..5u8) {
                0 => bytes[at] = spice,
                1 => bytes.insert(at, spice),
                2 => drop(bytes.remove(at)),
                3 => {
                    // Drop a span: often the tail of a line or a whole line.
                    let end = (at + rng.random_range(1..40usize)).min(bytes.len());
                    bytes.drain(at..end);
                }
                _ => {
                    let end = (at + rng.random_range(1..40usize)).min(bytes.len());
                    let span = bytes[at..end].to_vec();
                    let to = rng.random_range(0..bytes.len());
                    bytes.splice(to..to, span);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        match parse_func(&String::from_utf8_lossy(&bytes)) {
            Ok(_) => parsed += 1,
            Err(_) => refused += 1,
        }
    }
    println!("{parsed} mutants parsed, {refused} refused");
    assert!(parsed > MUTANTS / 20 && refused > MUTANTS / 4);
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/parse_outcomes.txt"
    );
    golden::rewrite(path, &golden_text());
}
