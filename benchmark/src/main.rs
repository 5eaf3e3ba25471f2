//! The repo benchmark: four workloads, two clocks (simulated seconds and
//! wall-clock seconds of our own code), and per-layer attribution measured
//! from outside the program. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One process per workload. Everything above the last line of standard
//! output is for the reader; the last line is the one JSON object the
//! driver parses: `correct`, `attempted`, `failed`, `metrics`.

mod compile_models;
mod harness;
mod json;
mod metrics;
mod oracles;
mod probe;
mod replay;
mod selfcheck;
mod serve_session;
mod spans;
mod stats;
mod tune_ops;
mod wrappers;

use std::process::ExitCode;

use harness::{Args, Report};
use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: tensorir-benchmark --workload <tune_ops|compile_models|oracles|serve_session> \
[--seed <u64>] [--seconds <n>] [--trace <0|1> | --traced] [--quick]\n       tensorir-benchmark --selfcheck [--seed <u64>]";

/// Default length of the timed section; `BENCHMARK.json` passes the same
/// number as `--seconds`.
const DEFAULT_SECONDS: f64 = 24.0;
/// `--quick`: a smoke run, not a measurement.
pub const QUICK_SECONDS: f64 = 3.0;

struct Cli {
    workload: Option<String>,
    selfcheck: bool,
    args: Args,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        selfcheck: false,
        args: Args {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => {
                cli.args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned 64-bit integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => cli.args.trace = true,
            "--quick" => cli.args.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.args.seconds = seconds.unwrap_or(if cli.args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if !cli.selfcheck {
        let w = cli.workload.as_deref().ok_or("--workload is required")?;
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(cli)
}

/// Makes `benchmark/` the working directory: the checkout's if the process
/// was started from a checkout root, else the one this binary was built in.
fn enter_benchmark_dir() -> std::io::Result<()> {
    let here = std::path::Path::new("benchmark");
    let dir = if here.join("Cargo.toml").is_file() {
        here
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
    };
    std::env::set_current_dir(dir)?;
    std::fs::create_dir_all("out")
}

pub fn run_workload(name: &str, args: &Args) -> Report {
    match name {
        "tune_ops" => tune_ops::run(args),
        "compile_models" => compile_models::run(args),
        "oracles" => oracles::run(args),
        "serve_session" => serve_session::run(args),
        other => unreachable!("workload `{other}` was validated by parse_cli"),
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The driver's line: with tracing off every end-to-end metric, with
/// tracing on every per-layer metric.
pub fn result_line(report: &Report, trace: bool) -> Json {
    let metrics: Vec<(String, Json)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = report.layers.get(m.name).map_or(0.0, |(v, _)| *v);
                (m.name.to_string(), metric_json(value, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let (value, _) = report.e2e_value(m.name);
                (m.name.to_string(), metric_json(value, m.unit))
            })
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(report.checks.failed == 0)),
        ("attempted", Json::Num(report.checks.attempted as f64)),
        ("failed", Json::Num(report.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The full report of a run: every metric with unit, value and sample
/// count, plus where and on what it was measured.
fn report_json(workload: &str, args: &Args, report: &Report) -> Json {
    let row = |name: &str, unit: &str, value: f64, samples: usize, note: String| {
        Json::obj(vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("value", Json::Num(value)),
            ("samples", Json::Num(samples as f64)),
            ("note", Json::Str(note)),
        ])
    };
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            let (value, n) = report.e2e_value(m.name);
            let note = format!(
                "{} is better, bound {:.0}%",
                m.better.as_str(),
                m.bound * 100.0
            );
            row(m.name, m.unit, value, n, note)
        })
        .collect();
    let native = report
        .measured
        .iter()
        .chain(&report.native)
        .map(|(name, unit, value, n)| row(name, unit, *value, *n, String::new()))
        .collect();
    let layers = PER_LAYER
        .iter()
        .filter_map(|m| {
            let note = format!("{} is better", m.better.as_str());
            report
                .layers
                .get(m.name)
                .map(|(v, n)| row(m.name, m.unit, *v, *n, note))
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("repetitions", Json::Num(report.reps as f64)),
        ("seed_variants", Json::Num(report.variants as f64)),
        ("setup_runs", Json::Num(report.setup_runs as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::str(harness::command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(harness::command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("attempted", Json::Num(report.checks.attempted as f64)),
        ("failed", Json::Num(report.checks.failed as f64)),
        ("ties", Json::Num(report.checks.ties as f64)),
        (
            "failures",
            Json::Arr(report.checks.notes.iter().map(Json::str).collect()),
        ),
        ("end_to_end", Json::Arr(e2e)),
        ("native", Json::Arr(native)),
        ("per_layer", Json::Arr(layers)),
    ])
}

fn print_table(report: &Json) {
    for section in ["end_to_end", "native", "per_layer"] {
        let rows = report.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        if rows.is_empty() {
            continue;
        }
        println!("{section}:");
        for r in rows {
            println!(
                "  {:<46} {:>16.6} {:<8} n={:<6} {}",
                r.get("name").and_then(Json::as_str).unwrap_or("?"),
                r.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                r.get("unit").and_then(Json::as_str).unwrap_or("?"),
                r.get("samples").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("note").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("tensorir-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = enter_benchmark_dir() {
        eprintln!("tensorir-benchmark: cannot enter the benchmark directory: {e}");
        return ExitCode::from(2);
    }
    if cli.selfcheck {
        return selfcheck::run(cli.args.seed);
    }
    let workload = cli.workload.as_deref().expect("validated by parse_cli");
    let args = &cli.args;
    println!(
        "tensorir-benchmark: workload {workload}, seed {}, {} s, tracing {}",
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("  {}", w.why);
    }

    let mut report = run_workload(workload, args);
    let _ = std::fs::remove_dir_all(harness::scratch_dir());
    // The process's high-water mark, read once everything has run.
    report.e2e.push(("peak_rss_mb", harness::peak_rss_mib(), 1));

    let full = report_json(workload, args, &report);
    print_table(&full);
    for note in &report.checks.notes {
        println!("FAILED: {note}");
    }
    if report.checks.ties > 0 {
        println!(
            "ties: {} repeated searches kept another program of the same simulated time",
            report.checks.ties
        );
    }
    let mode = if args.trace { "traced" } else { "e2e" };
    let write = |path: String, doc: &Json| {
        if let Err(e) = std::fs::write(&path, doc.encode() + "\n") {
            eprintln!("tensorir-benchmark: cannot write benchmark/{path}: {e}");
        } else {
            println!("wrote benchmark/{path}");
        }
    };
    write(format!("out/{workload}.{mode}.report.json"), &full);
    if args.trace {
        write(
            format!("out/{workload}.trace.json"),
            &spans::trace_json(workload, args.seed, &report.spans),
        );
    }
    println!("{}", result_line(&report, args.trace).encode());
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse_cli(&argv("--workload oracles --seed 7 --seconds 24 --trace 1")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("oracles"));
        assert_eq!(cli.args.seed, 7);
        assert_eq!(cli.args.seconds, 24.0);
        assert!(cli.args.trace && !cli.args.quick);
        let cli = parse_cli(&argv("--workload tune_ops --traced --quick")).unwrap();
        assert!(cli.args.trace && cli.args.quick);
        assert_eq!(cli.args.seconds, QUICK_SECONDS);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload tune_ops --seed -1",
            "--workload tune_ops --trace 2",
            "--workload tune_ops --seconds 0",
            "--workload tune_ops --frobnicate",
            "--workload",
        ] {
            assert!(parse_cli(&argv(bad)).is_err(), "{bad}");
        }
        assert!(parse_cli(&argv("--selfcheck")).is_ok());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut report = Report::default();
        report.e2e.push(("wall_s", 1.25, 3));
        report.e2e.push(("peak_rss_mb", 12.5, 1));
        report.layer("tir-schedule.apply_us", 800.5, 10);
        for (trace, want) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = result_line(&report, trace);
            let back = Json::parse(&line.encode()).unwrap();
            let keys: Vec<&str> = back
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                back.get("metrics").and_then(Json::as_obj).unwrap().len(),
                want
            );
        }
        let line = result_line(&report, false);
        let rss = line
            .get("metrics")
            .and_then(|m| m.get("peak_rss_mb"))
            .unwrap();
        assert_eq!(rss.get("value").and_then(Json::as_f64), Some(12.5));
        assert_eq!(rss.get("unit").and_then(Json::as_str), Some("MiB"));
    }
}
