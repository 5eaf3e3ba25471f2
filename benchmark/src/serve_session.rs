//! Workload `serve_session`: the tuning daemon, its wire protocol and the
//! write-ahead journal, driven the way an operator's script would — an
//! in-process `Server::start(ServeConfig::new(sock, db))` with its default
//! configuration and one closed-loop `Client` (the next request is sent
//! when the previous reply has arrived).
//!
//! One repetition is one full session on a fresh directory:
//!
//! * **A** — [`COLD`] distinct gmm/c2d shapes (drawn from the workload
//!   seed) tuned cold at 16 trials: search + journal append + fsync each;
//! * **B** — [`WARM`] warm `tune` requests cycling those shapes: parse,
//!   fingerprint, look up, print;
//! * **C** — `shutdown`, restart on the same files (journal/snapshot
//!   recovery), then [`QUERY_ROUNDS`] `query` rounds over the shapes;
//! * then, outside the three phases but inside `wall_s`, [`DEDUP`] fresh
//!   shapes each requested by two clients at once (in-flight dedup).
//!
//! Every reply is checked: cold ones against a bare `tune_workload` of the
//! same payload (traced run) and against the first session's reply; warm,
//! restart and dedup ones against the cold reply, bit for bit.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tir::parser::parse_func;
use tir::DataType;
use tir_autoschedule::{
    tune_workload, workload_key, DiskIo, JournaledDb, Strategy, TuneOptions, TuningRecord,
};
use tir_exec::machine::Machine;
use tir_rand::rngs::StdRng;
use tir_rand::{RngExt, SeedableRng};
use tir_serve::client::{Client, TuneReply};
use tir_serve::protocol::{Request, Response, Source, DEFAULT_MAX_PAYLOAD};
use tir_serve::server::{ServeConfig, Server};
use tir_tensorize::builtin_registry;
use tir_workloads::ops;

use crate::harness::{
    repeat_setup, scratch_dir, timed, Args, Checks, Phases, RepClock, Report, Samples,
};
use crate::probe::SpeedMeter;
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, mean, median, percentile, same_sim};

const COLD: usize = 16;
const WARM: usize = 2000;
/// Query rounds over the shapes after the restart.
const QUERY_ROUNDS: usize = 20;
const DEDUP: usize = 4;
const TRIALS: usize = 16;
const MACHINE: &str = "gpu";
const STRATEGY: &str = "tensorir";

struct Inputs {
    /// Program text of the shapes of phases A–C.
    shapes: Vec<String>,
    /// Fresh shapes of the dedup phase.
    dedup: Vec<String>,
}

/// Draws `COLD + DEDUP` distinct shapes from the seed: matrix multiplies
/// with each dimension in {32 … 128} and 3×3 convolutions over small
/// feature maps, float16 — programs of the size the daemon's own smoke
/// test sends.
fn setup(seed: u64, dir: &Path) -> Inputs {
    let f16 = DataType::float16();
    let dims = [32i64, 48, 64, 96, 128];
    let mut pool = Vec::new();
    for m in dims {
        for n in dims {
            for k in dims {
                pool.push((0u8, [m, n, k]));
            }
        }
    }
    for h in [10i64, 14, 18] {
        for ci in [16i64, 32, 64] {
            for co in [16i64, 32, 64] {
                pool.push((1u8, [h, ci, co]));
            }
        }
    }
    // Seeded partial Fisher–Yates: the first COLD + DEDUP picks.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut texts = Vec::new();
    for i in 0..COLD + DEDUP {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
        let (kind, [a, b, c]) = pool[i];
        let func = match kind {
            0 => ops::gmm(a, b, c, f16, DataType::float32()),
            _ => ops::c2d(1, a, a, b, c, 3, 3, 1, f16),
        };
        texts.push(func.to_string());
    }
    let dedup = texts.split_off(COLD);

    // First daemon start: bind, answer a ping, shut down.
    let (sock, db) = session_paths(dir);
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("daemon starts");
    let mut client = Client::connect(&sock).expect("client connects");
    client.ping().expect("daemon answers a ping");
    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();
    Inputs {
        shapes: texts,
        dedup,
    }
}

fn session_paths(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).expect("scratch directory");
    (dir.join("s"), dir.join("db"))
}

/// What of a reply must be identical wherever the answer came from: one
/// stored record, carried over the wire as IEEE-754 bits.
fn same_answer(a: &TuneReply, b: &TuneReply) -> bool {
    a.best_time.to_bits() == b.best_time.to_bits() && a.func_text == b.func_text
}

/// Whether two *separate searches* of one payload found the same thing:
/// trial counts exactly, simulated seconds to their last-bit tolerance
/// (see [`same_sim`]). Another program text with the same simulated time is
/// a tie ([`Checks::tie`]), which the caller counts.
fn same_search(a: &TuneReply, best_time: f64, trials: usize, cost: f64) -> bool {
    a.trials == trials && same_sim(a.best_time, best_time) && same_sim(a.tuning_cost_s, cost)
}

fn is_free_warm(r: &TuneReply, cold: &TuneReply) -> bool {
    r.source == Source::Warm && r.trials == 0 && r.tuning_cost_s == 0.0 && same_answer(r, cold)
}

struct Session {
    phases: Phases,
    cold: Vec<TuneReply>,
    restart_ms: f64,
    dedup_joins: f64,
    rejected: f64,
}

/// Extracts `"key": N` from the server's flat stats JSON.
fn counter(stats: &str, key: &str) -> f64 {
    crate::json::Json::parse(stats)
        .ok()
        .and_then(|j| j.get(key).and_then(crate::json::Json::as_f64))
        .unwrap_or(f64::NAN)
}

fn session(
    inp: &Inputs,
    dir: &Path,
    rec: &Recorder,
    checks: &mut Checks,
    samples: &mut Samples,
) -> Option<Session> {
    let _root = rec.enter("tir-serve.session");
    let start = Instant::now();
    let (sock, db) = session_paths(dir);
    // A reply that cannot be had at all (daemon would not start, the
    // connection dropped) fails the operation and ends this session.
    macro_rules! must {
        ($what:expr, $e:expr) => {
            match $e {
                Ok(v) => v,
                Err(e) => {
                    checks.op(false, || format!("{}: {e}", $what));
                    return None;
                }
            }
        };
    }
    let server = {
        let _span = rec.enter("tir-serve.start");
        must!("daemon start", Server::start(ServeConfig::new(&sock, &db)))
    };
    let mut client = must!("connect", Client::connect(&sock));

    // A: cold tunes.
    let mut a_s = 0.0;
    let mut cold = Vec::new();
    for text in &inp.shapes {
        let (reply, s) = {
            let _span = rec.enter("tir-serve.cold_request");
            timed(|| client.tune(MACHINE, STRATEGY, TRIALS, 5, text))
        };
        a_s += s;
        samples.push("cold_ms", s * 1e3);
        let reply = must!("cold tune request", reply);
        checks.op(reply.source == Source::Tuned && reply.trials > 0, || {
            format!(
                "cold request answered {:?} with {} trials",
                reply.source, reply.trials
            )
        });
        cold.push(reply);
    }

    // B: warm requests, cycling the shapes.
    let mut b_s = 0.0;
    for i in 0..WARM {
        let at = i % inp.shapes.len();
        let (reply, s) = {
            let _span = rec.enter("tir-serve.warm_request");
            timed(|| client.tune(MACHINE, STRATEGY, TRIALS, 5, &inp.shapes[at]))
        };
        b_s += s;
        samples.push("warm_us", s * 1e6);
        let reply = must!("warm tune request", reply);
        checks.op(is_free_warm(&reply, &cold[at]), || {
            format!("warm reply {i} is not a free, bit-identical copy of the cold one")
        });
    }

    // C: shutdown, restart on the same files, one query per shape.
    let c_start = Instant::now();
    let server = {
        let _span = rec.enter("tir-serve.restart");
        must!("shutdown", client.shutdown());
        server.join();
        must!(
            "daemon restart",
            Server::start(ServeConfig::new(&sock, &db))
        )
    };
    let mut client = must!("reconnect", Client::connect(&sock));
    let mut restart_ms = f64::NAN;
    for i in 0..QUERY_ROUNDS * inp.shapes.len() {
        let at = i % inp.shapes.len();
        let (reply, s) = {
            let _span = rec.enter("tir-serve.query");
            timed(|| client.query(MACHINE, STRATEGY, &inp.shapes[at]))
        };
        if i == 0 {
            restart_ms = c_start.elapsed().as_secs_f64() * 1e3;
        }
        samples.push("query_us", s * 1e6);
        let reply = must!("query after restart", reply);
        checks.op(
            reply.as_ref().is_some_and(|r| is_free_warm(r, &cold[at])),
            || {
                format!(
                    "query {i} after restart is not a free, bit-identical copy of the cold reply"
                )
            },
        );
    }
    let c_s = c_start.elapsed().as_secs_f64();

    // Dedup: two clients ask for the same fresh shape at the same moment.
    let parent = rec.current();
    for text in &inp.dedup {
        let barrier = Arc::new(Barrier::new(2));
        let pair: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = barrier.clone();
                    let sock = &sock;
                    scope.spawn(move || {
                        let mut c = Client::connect(sock).map_err(|e| e.to_string())?;
                        barrier.wait();
                        let t = Instant::now();
                        let r = c
                            .tune(MACHINE, STRATEGY, TRIALS, 5, text)
                            .map_err(|e| e.to_string());
                        Ok::<_, String>((r?, t, Instant::now()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect()
        });
        let mut replies = Vec::new();
        for r in pair {
            let (reply, t0, t1) = must!("dedup tune request", r);
            rec.record("tir-serve.dedup_request", t0, t1, parent);
            replies.push(reply);
        }
        let tuned = replies.iter().filter(|r| r.source == Source::Tuned).count();
        checks.op(tuned == 1 && same_answer(&replies[0], &replies[1]), || {
            format!("dedup pair: {tuned} searches ran, or the two replies differ")
        });
    }
    let stats = must!("stats", client.stats());
    must!("final shutdown", client.shutdown());
    server.join();
    Some(Session {
        phases: Phases {
            a_s,
            b_s,
            c_s,
            wall_s: start.elapsed().as_secs_f64(),
        },
        cold,
        restart_ms,
        dedup_joins: counter(&stats, "dedup_joins"),
        rejected: counter(&stats, "rejected"),
    })
}

/// The value at percentile `p`, or at the highest percentile that still
/// has ten samples beyond it when `p` does not.
fn percentile_or_highest(samples: &[f64], p: f64) -> (f64, usize) {
    let value = percentile(samples, p).or_else(|| {
        highest_supported_percentile(samples.len()).and_then(|q| percentile(samples, q))
    });
    (value.unwrap_or(0.0), samples.len())
}

/// Per-layer pieces of a request, measured on the session's own payloads:
/// the codec on in-memory buffers, parser and printer, a bare tune, and
/// the journal on a scratch file.
fn decompose(
    inp: &Inputs,
    cold: &[TuneReply],
    dir: &Path,
    report: &mut Report,
    checks: &mut Checks,
) {
    let ns_of = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    let (mut encode, mut decode, mut parse, mut print, mut bare_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let gpu = Machine::sim_gpu();
    let registry = builtin_registry();
    let mut records = Vec::new();
    for (text, reply) in inp.shapes.iter().zip(cold) {
        let request = Request::Tune {
            machine: MACHINE.to_string(),
            strategy: STRATEGY.to_string(),
            trials: TRIALS,
            priority: 5,
            func_text: text.clone(),
        };
        let response = Response::Result {
            source: reply.source,
            best_time: reply.best_time,
            trials: reply.trials,
            tuning_cost_s: reply.tuning_cost_s,
            func_text: reply.func_text.clone(),
        };
        for _ in 0..20 {
            let (mut req_wire, mut resp_wire) = (Vec::new(), Vec::new());
            encode.push(ns_of(&mut || {
                request.write(&mut req_wire).expect("in-memory write");
                response.write(&mut resp_wire).expect("in-memory write");
            }));
            decode.push(ns_of(&mut || {
                let req = Request::read(&mut req_wire.as_slice(), DEFAULT_MAX_PAYLOAD);
                let resp = Response::read(&mut resp_wire.as_slice());
                std::hint::black_box((&req, &resp));
            }));
            let mut func = None;
            parse.push(ns_of(&mut || func = parse_func(text).ok()));
            if let Some(func) = &func {
                print.push(ns_of(&mut || {
                    std::hint::black_box(func.to_string());
                }));
            }
        }
        // The search the daemon ran for this request, without the daemon:
        // same payload, same options (`ServeConfig::new`: seed 42, one
        // thread). Its answer must be the daemon's.
        let Ok(func) = parse_func(text) else { continue };
        let opts = TuneOptions {
            trials: TRIALS,
            num_threads: 1,
            seed: 42,
            ..Default::default()
        };
        let (r, s) = timed(|| tune_workload(&func, &gpu, &registry, Strategy::TensorIr, &opts));
        bare_ms.push(s * 1e3);
        let best = r.best.as_ref().map(ToString::to_string).unwrap_or_default();
        let same = checks.op(
            r.best.is_some() && same_search(reply, r.best_time, r.trials_measured, r.tuning_cost_s),
            || {
                "the daemon's cold reply differs from a bare tune_workload of its payload"
                    .to_string()
            },
        );
        checks.tie(same && best != reply.func_text);
        if let Some(best) = r.best {
            records.push((
                workload_key(&func),
                TuningRecord {
                    best,
                    best_time: r.best_time,
                    trials: r.trials_measured,
                    budget: TRIALS,
                    tuning_cost_s: r.tuning_cost_s,
                },
            ));
        }
    }
    report.layer(
        "tir-serve.protocol.encode_us",
        mean(&encode) / 1e3,
        encode.len(),
    );
    report.layer(
        "tir-serve.protocol.decode_us",
        mean(&decode) / 1e3,
        decode.len(),
    );
    report.layer("tir.parser.parse_us", mean(&parse) / 1e3, parse.len());
    report.layer("tir.printer.print_us", mean(&print) / 1e3, print.len());
    let cold_ms = report
        .native
        .iter()
        .find(|(n, ..)| *n == "serve_cold_ms")
        .map_or(f64::NAN, |(_, _, v, _)| *v);
    report.layer(
        "tir-serve.cold_overhead_ms",
        cold_ms - median(&bare_ms),
        bare_ms.len(),
    );

    // The journal alone: publish the session's records with real disk
    // I/O, then reopen (replay).
    if let Err(e) = std::fs::create_dir_all(dir) {
        checks.op(false, || format!("cannot create {}: {e}", dir.display()));
    }
    let path = dir.join("journal-probe.db");
    let mut publish_us = Vec::new();
    let mut bytes = 0;
    if let Ok((mut store, _)) = JournaledDb::open(Box::new(DiskIo::new()), &path) {
        for (key, record) in &records {
            let (out, s) =
                timed(|| store.publish(&gpu.name, Strategy::TensorIr, key.clone(), record.clone()));
            checks.op(out.is_ok(), || "journal publish failed".to_string());
            publish_us.push(s * 1e6);
        }
        bytes = store.journal_bytes();
    }
    let (reopened, s) = timed(|| JournaledDb::open(Box::new(DiskIo::new()), &path));
    checks.op(
        reopened.is_ok_and(|(store, rep)| {
            store.db().len() == records.len() && rep.journal_replayed == records.len()
        }),
        || "journal replay lost records".to_string(),
    );
    report.layer(
        "tir-autoschedule.journal.publish_p50_us",
        median(&publish_us),
        publish_us.len(),
    );
    report.layer("tir-autoschedule.journal.replay_ms", s * 1e3, 1);
    report.layer("tir-autoschedule.journal.bytes", bytes as f64, 1);
}

pub fn run(args: &Args) -> Report {
    let root = scratch_dir();
    let mut setups = 0;
    let (inp, setup_times) = repeat_setup(|| {
        setups += 1;
        setup(args.seed, &root.join(format!("u{setups}")))
    });
    let rec = Recorder::new(args.trace);
    let off = Recorder::new(false);
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut first: Option<Vec<TuneReply>> = None;
    let (mut restart, mut joins, mut rejected) = (Vec::new(), Vec::new(), 0.0);
    let budget = if args.trace {
        args.seconds * 0.8
    } else {
        args.seconds
    };
    let mut clock = RepClock::new(budget, 1);
    let mut dirs = 0;
    let mut fresh_dir = || {
        dirs += 1;
        root.join(format!("r{dirs}"))
    };
    let mut meter = SpeedMeter::start();
    while clock.more() {
        let Some(s) = session(&inp, &fresh_dir(), &off, &mut checks, &mut samples) else {
            break;
        };
        samples.push_phases(s.phases, meter.lap());
        restart.push(s.restart_ms);
        joins.push(s.dedup_joins);
        rejected = f64::max(rejected, s.rejected);
        let mut rep_s = s.phases.wall_s;
        match &first {
            None => first = Some(s.cold),
            Some(first) => {
                let same = first.len() == s.cold.len()
                    && first
                        .iter()
                        .zip(&s.cold)
                        .all(|(a, b)| same_search(a, b.best_time, b.trials, b.tuning_cost_s));
                checks.op(same, || {
                    "a repeated session's cold replies differ from the first's".to_string()
                });
                let other_text = first
                    .iter()
                    .zip(&s.cold)
                    .any(|(a, b)| a.func_text != b.func_text);
                checks.tie(same && other_text);
            }
        }
        if args.trace {
            rec.set_op(clock.reps() as u64);
            let mut scratch = Samples::default();
            if let Some(t) = session(&inp, &fresh_dir(), &rec, &mut checks, &mut scratch) {
                samples.push("trace_overhead", t.phases.wall_s / s.phases.wall_s - 1.0);
                rep_s += t.phases.wall_s;
            }
            meter.lap();
        }
        clock.done(rep_s);
    }

    let mut report = Report {
        reps: clock.reps(),
        variants: 1,
        ..Default::default()
    };
    let cold = first.unwrap_or_default();
    let best_us: Vec<f64> = cold.iter().map(|r| r.best_time * 1e6).collect();
    let cost: f64 = cold.iter().map(|r| r.tuning_cost_s).sum();
    report.set_end_to_end(&setup_times, &samples, &best_us, &[cost]);
    let n = samples.count("wall_s");
    report.native = vec![
        (
            "serve_cold_ms",
            "ms",
            samples.median("cold_ms"),
            samples.count("cold_ms"),
        ),
        (
            "serve_warm_us",
            "us",
            samples.median("warm_us"),
            samples.count("warm_us"),
        ),
    ];
    if args.trace {
        let (v, k) = percentile_or_highest(samples.get("cold_ms"), 0.95);
        report.layer("tir-serve.cold_p95_ms", v, k);
        let (v, k) = percentile_or_highest(samples.get("warm_us"), 0.99);
        report.layer("tir-serve.warm_p99_us", v, k);
        let (v, k) = percentile_or_highest(samples.get("warm_us"), 0.999);
        report.layer("tir-serve.warm_p99.9_us", v, k);
        report.layer(
            "tir-serve.query_p50_us",
            samples.median("query_us"),
            samples.count("query_us"),
        );
        report.layer("tir-serve.restart_ms", median(&restart), restart.len());
        report.layer(
            "tir-serve.dedup_join_share",
            mean(&joins) / DEDUP as f64,
            joins.len() * DEDUP,
        );
        report.layer("tir-serve.rejected", rejected, n);
        decompose(&inp, &cold, &root.join("probe"), &mut report, &mut checks);
        report.layer(
            "serve_session.trace_overhead_share",
            samples.median("trace_overhead"),
            samples.count("trace_overhead"),
        );
        report.spans = rec.spans();
    }
    report.checks = checks;
    report
}
