//! `serve-smoke` — a scripted end-to-end session against an in-process
//! daemon, producing `BENCH_serve.json`.
//!
//! The script exercises every service path and asserts its contract:
//!
//! 1. ping, query-miss on a fresh database;
//! 2. one cold tune (latency measured);
//! 3. a burst of warm queries (latency distribution measured) — each
//!    must be bit-identical to the cold tune's answer with
//!    `trials: 0`, `tuning_cost_s: 0.0`;
//! 4. N concurrent clients tuning one fresh fingerprint — exactly one
//!    may report `tuned`; the rest join in flight (`dedup`) or arrive
//!    after completion (`warm`), all bit-identical;
//! 5. a budget upgrade — answered warm immediately, re-tuned in the
//!    background (completion observed via `stats`);
//! 6. graceful shutdown (timed from the `shutdown` request to `join`
//!    returning), then a **restart on the same database file** — the
//!    previously tuned fingerprint must answer warm from disk,
//!    bit-identical, with zero trials and zero cost (timed from
//!    `Server::start` to the answer);
//! 7. a publish-latency microbenchmark on a 4000-record database:
//!    the journal's O(1) append vs the pre-journal full-snapshot
//!    rewrite, p50 of each.
//!
//! With `--check` the emitted report is additionally validated (the CI
//! gate): well-formed JSON, every `serve.*` lifecycle phase present,
//! the headline counters consistent with the script, and the journal
//! publish at least 10x faster than the rewrite publish.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use tir::DataType;
use tir_autoschedule::{
    journal_path_for, DiskIo, JournalIo, JournaledDb, Strategy, TuningDatabase, TuningRecord,
};
use tir_serve::client::{stats_field, Client, TuneReply};
use tir_serve::protocol::Source;
use tir_serve::server::{ServeConfig, Server};
use tir_trace::json::{self, Layout};
use tir_trace::TraceReport;
use tir_workloads::ops;

const WARM_QUERIES: usize = 50;
const DEDUP_CLIENTS: usize = 8;
/// Size of the pre-seeded database the publish microbenchmark runs on.
/// (1000 until a rewrite stopped re-printing every stored program: the
/// rewrite is still O(records), at a quarter of the cost per record.)
const PUBLISH_DB_RECORDS: usize = 4000;
/// Publishes timed per flavor in the microbenchmark.
const PUBLISH_SAMPLES: usize = 32;
/// `--check` gate: a journal append on a [`PUBLISH_DB_RECORDS`]-record
/// database must beat the pre-journal full rewrite by at least this
/// factor (the rewrite is O(records), the append O(1)).
const PUBLISH_SPEEDUP_GATE: f64 = 10.0;

struct Config {
    out: String,
    trials: usize,
    check: bool,
}

fn usage() -> ! {
    eprintln!("usage: serve-smoke [--out PATH] [--trials N] [--check]");
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        out: "BENCH_serve.json".to_string(),
        trials: 12,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => cfg.out = args.next().unwrap_or_else(|| usage()),
            "--trials" => {
                cfg.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--check" => cfg.check = true,
            _ => usage(),
        }
    }
    cfg
}

fn fail(msg: &str) -> ! {
    eprintln!("serve-smoke: FAILED: {msg}");
    std::process::exit(1)
}

fn assert_warm(reply: &TuneReply, against: &TuneReply, what: &str) {
    if reply.source != Source::Warm {
        fail(&format!(
            "{what}: expected a warm answer, got {:?}",
            reply.source
        ));
    }
    if reply.trials != 0 || reply.tuning_cost_s != 0.0 {
        fail(&format!(
            "{what}: warm answer must cost nothing, got trials {} cost {}",
            reply.trials, reply.tuning_cost_s
        ));
    }
    if reply.func_text != against.func_text
        || reply.best_time.to_bits() != against.best_time.to_bits()
    {
        fail(&format!(
            "{what}: warm answer is not bit-identical to the tuned one"
        ));
    }
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-serve-smoke-{pid}.sock"));
    let db = dir.join(format!("tir-serve-smoke-{pid}.db"));
    let _ = std::fs::remove_file(&db); // the session must start cold

    let func = ops::gmm(64, 64, 64, DataType::float16(), DataType::float32());
    let text = func.to_string();
    let func2 = ops::gmm(48, 48, 48, DataType::float16(), DataType::float32());
    let text2 = func2.to_string();

    println!("serve-smoke: starting daemon on {}", sock.display());
    let server =
        Server::start(ServeConfig::new(&sock, &db)).unwrap_or_else(|e| fail(&e.to_string()));
    let mut c = Client::connect(&sock).unwrap_or_else(|e| fail(&e.to_string()));

    // 1. Liveness and a miss on the fresh database.
    c.ping().unwrap_or_else(|e| fail(&e.to_string()));
    match c.query("gpu", "tensorir", &text) {
        Ok(None) => {}
        Ok(Some(_)) => fail("fresh database answered a query"),
        Err(e) => fail(&e.to_string()),
    }

    // 2. Cold tune.
    let t0 = Instant::now();
    let cold = c
        .tune("gpu", "tensorir", cfg.trials, 5, &text)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let cold_latency_s = t0.elapsed().as_secs_f64();
    if cold.source != Source::Tuned {
        fail(&format!("cold tune answered {:?}", cold.source));
    }
    println!(
        "serve-smoke: cold tune in {cold_latency_s:.3}s wall ({} trials, best {} s)",
        cold.trials, cold.best_time
    );

    // 3. Warm burst: queries and a same-budget tune, all free and
    // bit-identical.
    let mut warm_lat = Vec::with_capacity(WARM_QUERIES);
    for i in 0..WARM_QUERIES {
        let t = Instant::now();
        let reply = match c.query("gpu", "tensorir", &text) {
            Ok(Some(r)) => r,
            Ok(None) => fail(&format!("warm query {i} missed")),
            Err(e) => fail(&e.to_string()),
        };
        warm_lat.push(t.elapsed().as_secs_f64());
        assert_warm(&reply, &cold, &format!("warm query {i}"));
    }
    warm_lat.sort_by(f64::total_cmp);
    let warm_tune = c
        .tune("gpu", "tensorir", cfg.trials, 5, &text)
        .unwrap_or_else(|e| fail(&e.to_string()));
    assert_warm(&warm_tune, &cold, "same-budget re-tune");
    println!(
        "serve-smoke: {WARM_QUERIES} warm queries, latency min/p50/max {}/{}/{} s",
        warm_lat[0],
        warm_lat[WARM_QUERIES / 2],
        warm_lat[WARM_QUERIES - 1],
    );

    // 4. Concurrent dedup on a fresh fingerprint: exactly one search.
    let replies: Vec<TuneReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DEDUP_CLIENTS)
            .map(|_| {
                let sock = &sock;
                let text2 = &text2;
                scope.spawn(move || {
                    let mut c = Client::connect(sock).unwrap_or_else(|e| fail(&e.to_string()));
                    c.tune("gpu", "tensorir", 10, 5, text2)
                        .unwrap_or_else(|e| fail(&e.to_string()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let tuned = replies.iter().filter(|r| r.source == Source::Tuned).count();
    let dedup = replies.iter().filter(|r| r.source == Source::Dedup).count();
    let warm = replies.iter().filter(|r| r.source == Source::Warm).count();
    if tuned != 1 {
        fail(&format!(
            "{DEDUP_CLIENTS} concurrent clients caused {tuned} searches (expected exactly 1)"
        ));
    }
    for (i, r) in replies.iter().enumerate() {
        if r.func_text != replies[0].func_text
            || r.best_time.to_bits() != replies[0].best_time.to_bits()
        {
            fail(&format!("concurrent client {i} got a different answer"));
        }
    }
    println!(
        "serve-smoke: dedup: {DEDUP_CLIENTS} clients -> 1 tuned, {dedup} dedup joins, {warm} warm"
    );

    // 5. Budget upgrade: warm now, re-tuned in the background.
    let upgrade = c
        .tune("gpu", "tensorir", cfg.trials * 2, 5, &text)
        .unwrap_or_else(|e| fail(&e.to_string()));
    assert_warm(&upgrade, &cold, "budget-upgrade request");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = c.stats().unwrap_or_else(|e| fail(&e.to_string()));
        let done = stats_field(&stats, "background_done");
        if done.unwrap_or_else(|| fail(&format!("stats has no background_done: {stats}"))) >= 1 {
            break;
        }
        if Instant::now() > deadline {
            fail("background re-tune did not finish within 60s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // The upgraded record (possibly improved, never regressed) is the
    // reference for the restart check.
    let upgraded = match c.query("gpu", "tensorir", &text) {
        Ok(Some(r)) => r,
        _ => fail("query after background re-tune missed"),
    };
    if upgraded.best_time > cold.best_time {
        fail("background re-tune regressed the stored record");
    }
    println!(
        "serve-smoke: budget upgrade re-tuned in background, best {} s",
        upgraded.best_time
    );

    // 6. Shutdown, restart on the same database, warm from disk.
    let stats = c.stats().unwrap_or_else(|e| fail(&e.to_string()));
    println!("serve-smoke: stats {stats}");
    let t = Instant::now();
    c.shutdown().unwrap_or_else(|e| fail(&e.to_string()));
    let report = server.join();
    let shutdown_join_s = t.elapsed().as_secs_f64();
    println!("serve-smoke: shutdown + join in {shutdown_join_s:.6}s");

    // What an operator waits for after a restart: start, connect, answer.
    let t = Instant::now();
    let server2 =
        Server::start(ServeConfig::new(&sock, &db)).unwrap_or_else(|e| fail(&e.to_string()));
    let mut c2 = Client::connect(&sock).unwrap_or_else(|e| fail(&e.to_string()));
    let restart_reply = c2
        .tune("gpu", "tensorir", cfg.trials, 5, &text)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let restart_latency_s = t.elapsed().as_secs_f64();
    assert_warm(&restart_reply, &upgraded, "restarted daemon");
    c2.shutdown().unwrap_or_else(|e| fail(&e.to_string()));
    server2.join();
    println!(
        "serve-smoke: restart served the tuned record warm from disk in {restart_latency_s:.6}s"
    );

    // 7. Publish-latency microbenchmark: O(1) journal append vs the
    // pre-journal full-snapshot rewrite, both on a 1k-record database.
    let (journal_p50_s, rewrite_p50_s, publish_speedup) = publish_latency_bench();
    println!(
        "serve-smoke: publish on {PUBLISH_DB_RECORDS} records: journal append p50 \
         {journal_p50_s}s, full rewrite p50 {rewrite_p50_s}s ({publish_speedup:.1}x)"
    );

    // The report: the session's numbers, then the daemon's trace.
    let text_out = json::document(|w| {
        w.object(Layout::Lines, |w| {
            w.field("trials", cfg.trials)
                .field("cold_latency_s", cold_latency_s)
                .field("warm_queries", warm_lat.len())
                .field("warm_latency_s_min", warm_lat[0])
                .field("warm_latency_s_p50", warm_lat[warm_lat.len() / 2])
                .field("warm_latency_s_max", warm_lat[warm_lat.len() - 1])
                .field("dedup_clients", DEDUP_CLIENTS)
                .field("dedup_tuned", tuned)
                .field("dedup_joined", dedup)
                .field("dedup_warm", warm)
                .field("dedup_searches_saved", DEDUP_CLIENTS - tuned)
                .field("shutdown_join_s", shutdown_join_s)
                .field("restart_warm_latency_s", restart_latency_s)
                .field("publish_db_records", PUBLISH_DB_RECORDS)
                .field("publish_samples", PUBLISH_SAMPLES)
                .field("publish_journal_p50_s", journal_p50_s)
                .field("publish_rewrite_p50_s", rewrite_p50_s)
                .field("publish_speedup", publish_speedup)
                .key("trace");
            report.write_json(w);
        });
    });
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(journal_path_for(&db));
    let failures = cfg
        .check
        .then(|| check_report(&text_out, publish_speedup, &report));
    json::gate("serve-smoke", &cfg.out, &text_out, failures)
}

/// Times [`PUBLISH_SAMPLES`] publishes against a pre-seeded
/// [`PUBLISH_DB_RECORDS`]-record database, once through the journal
/// (O(1) append + fsync) and once through the pre-journal path (full
/// snapshot rewrite per publish). Returns `(journal_p50_s,
/// rewrite_p50_s, speedup)`.
fn publish_latency_bench() -> (f64, f64, f64) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let snap = dir.join(format!("tir-smoke-publish-{pid}.db"));
    let journal = journal_path_for(&snap);
    let rewrite = dir.join(format!("tir-smoke-rewrite-{pid}.db"));
    for p in [&snap, &journal, &rewrite] {
        let _ = std::fs::remove_file(p);
    }

    let record = TuningRecord {
        best: ops::gmm(32, 32, 32, DataType::float16(), DataType::float32()),
        best_time: 1.25e-4,
        trials: 16,
        budget: 16,
        tuning_cost_s: 0.25,
    };
    let mut seed = TuningDatabase::new();
    for i in 0..PUBLISH_DB_RECORDS {
        seed.insert(
            "gpu",
            Strategy::TensorIr,
            format!("bench-{i:04}"),
            record.clone(),
        );
    }
    DiskIo
        .replace(&snap, seed.encode().as_bytes())
        .unwrap_or_else(|e| fail(&format!("seeding the bench database: {e}")));

    // Journal flavor: publish is an O(1) append + fsync regardless of
    // database size. Compaction is pushed out of the way so the timer
    // sees pure appends.
    let (mut jdb, _) = JournaledDb::open(Box::new(DiskIo), &snap)
        .unwrap_or_else(|e| fail(&format!("opening the bench database: {e}")));
    jdb.compact_threshold = usize::MAX;
    let mut journal_lat = Vec::with_capacity(PUBLISH_SAMPLES);
    for s in 0..PUBLISH_SAMPLES {
        let key = format!("bench-extra-{s:04}");
        let rec = record.clone();
        let t = Instant::now();
        jdb.publish("gpu", Strategy::TensorIr, key, rec)
            .unwrap_or_else(|e| fail(&format!("journal publish: {e}")));
        journal_lat.push(t.elapsed().as_secs_f64());
    }

    // Rewrite flavor: what every publish cost before the journal —
    // re-encode and atomically rewrite the whole snapshot.
    let mut rewrite_lat = Vec::with_capacity(PUBLISH_SAMPLES);
    for s in 0..PUBLISH_SAMPLES {
        seed.insert(
            "gpu",
            Strategy::TensorIr,
            format!("bench-extra-{s:04}"),
            record.clone(),
        );
        let t = Instant::now();
        DiskIo
            .replace(&rewrite, seed.encode().as_bytes())
            .unwrap_or_else(|e| fail(&format!("rewrite publish: {e}")));
        rewrite_lat.push(t.elapsed().as_secs_f64());
    }

    for p in [&snap, &journal, &rewrite] {
        let _ = std::fs::remove_file(p);
    }
    journal_lat.sort_by(f64::total_cmp);
    rewrite_lat.sort_by(f64::total_cmp);
    let journal_p50 = journal_lat[PUBLISH_SAMPLES / 2];
    let rewrite_p50 = rewrite_lat[PUBLISH_SAMPLES / 2];
    (journal_p50, rewrite_p50, rewrite_p50 / journal_p50)
}

/// The CI gate (well-formedness is [`json::gate`]'s): the trace must
/// carry every request-lifecycle phase and headline counter, and a journal
/// publish must beat the full-rewrite publish by the gate factor.
fn check_report(text: &str, publish_speedup: f64, report: &TraceReport) -> Vec<String> {
    let mut errors = Vec::new();
    for key in [
        "\"cold_latency_s\"",
        "\"warm_latency_s_p50\"",
        "\"dedup_searches_saved\"",
        "\"shutdown_join_s\"",
        "\"restart_warm_latency_s\"",
        "\"publish_journal_p50_s\"",
        "\"publish_rewrite_p50_s\"",
        "\"publish_speedup\"",
        "\"trace\"",
    ] {
        if !text.contains(key) {
            errors.push(format!("missing required key {key}"));
        }
    }
    for phase in [
        "serve.admission",
        "serve.db_lookup",
        "serve.queue_wait",
        "serve.tune",
        "serve.respond",
    ] {
        if report.phase(phase).is_none() {
            errors.push(format!("missing lifecycle phase {phase}"));
        }
    }
    if report.counter("serve.cold_tunes") < 1 {
        errors.push("no cold tune was traced".to_string());
    }
    if report.counter("serve.warm_hits") < WARM_QUERIES as u64 {
        errors.push("warm hits were not traced".to_string());
    }
    if report.counter("serve.background_done") < 1 {
        errors.push("background re-tune was not traced".to_string());
    }
    if publish_speedup < PUBLISH_SPEEDUP_GATE {
        errors.push(format!(
            "journal publish is only {publish_speedup:.1}x faster than the full rewrite \
             on {PUBLISH_DB_RECORDS} records (gate: {PUBLISH_SPEEDUP_GATE}x)"
        ));
    }
    errors
}
