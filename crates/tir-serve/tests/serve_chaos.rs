//! Deterministic chaos harness for the daemon.
//!
//! Two failure domains, both driven by seeded injection so every run
//! replays bit-identically:
//!
//! * **Storage crashes** — the daemon runs against
//!   [`IoProfile::Fault`], which simulates a power loss at every named
//!   crash point in the publish/compaction path (and *inside* appends to
//!   the database file, leaving short-written, bit-flipped fragments). A fresh
//!   daemon is then started on the same files through the real
//!   [`IoProfile::Disk`] backend, and the harness asserts the
//!   durability invariant: every tune that was **acknowledged** before
//!   the crash is served warm and bit-identical after restart, no
//!   partial record survives, and torn tails salvage instead of failing
//!   startup.
//! * **Socket chaos** — clients that die mid-request, trickle one byte
//!   at a time, or never finish their payload. One bad connection must
//!   never wedge the daemon or starve well-behaved clients.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tir::DataType;
use tir_autoschedule::journal::{COMPACT_CRASH_POINTS, PUBLISH_CRASH_POINTS};
use tir_autoschedule::{FaultSpec, IoProfile};
use tir_serve::client::{stats_field, Client, TuneReply};
use tir_serve::protocol::Source;
use tir_serve::server::{ServeConfig, Server};
use tir_workloads::ops;

fn tmp_paths(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-chaos-{name}-{pid}.sock"));
    let db = dir.join(format!("tir-chaos-{name}-{pid}.db"));
    for p in [&sock, &db] {
        let _ = std::fs::remove_file(p);
    }
    (sock, db)
}

/// Distinct small workloads so each tune publishes a distinct record.
fn workloads() -> Vec<String> {
    [(32, 32, 32), (32, 32, 48), (32, 48, 32), (48, 32, 32)]
        .into_iter()
        .map(|(m, n, k)| ops::gmm(m, n, k, DataType::float16(), DataType::float32()).to_string())
        .collect()
}

const TRIALS: usize = 3;

/// Runs a faulted daemon, tuning workloads until the injected crash
/// surfaces (as a failed request or a dead daemon). Returns the tunes
/// that were **acknowledged** — the client saw `Ok` — before the crash.
fn run_until_crash(cfg: ServeConfig, texts: &[String]) -> Vec<(String, TuneReply)> {
    let server = Server::start(cfg).expect("faulted daemon must still boot");
    let sock = server.socket_path().to_path_buf();
    let mut acked = Vec::new();
    for text in texts {
        // No redial: after the simulated crash the daemon is shutting
        // down, and retry loops would only slow the harness.
        let reply = Client::connect_with(&sock, tir_serve::ReconnectPolicy::none())
            .ok()
            .and_then(|mut c| c.tune("gpu", "tensorir", TRIALS, 5, text).ok());
        match reply {
            Some(r) => {
                assert_eq!(r.source, Source::Tuned);
                acked.push((text.clone(), r));
            }
            None => break,
        }
    }
    server.request_shutdown();
    server.join(); // final compaction fails against crashed storage; fine
    acked
}

/// Restarts on the real disk backend and asserts the durability
/// invariant for `acked`.
fn assert_recovered(scenario: &str, sock: &PathBuf, db: &PathBuf, acked: &[(String, TuneReply)]) {
    let server = Server::start(ServeConfig::new(sock, db))
        .unwrap_or_else(|e| panic!("{scenario}: post-crash restart failed: {e}"));
    let mut c = Client::connect(sock).expect("connect after restart");

    // Every acknowledged tune is served warm, bit-identically.
    for (text, before) in acked {
        let after = c
            .query("gpu", "tensorir", text)
            .unwrap_or_else(|e| panic!("{scenario}: query failed: {e}"))
            .unwrap_or_else(|| panic!("{scenario}: acknowledged record lost in the crash"));
        assert_eq!(after.source, Source::Warm, "{scenario}");
        assert_eq!(
            after.func_text, before.func_text,
            "{scenario}: program drifted"
        );
        assert_eq!(
            after.best_time.to_bits(),
            before.best_time.to_bits(),
            "{scenario}: best_time not bit-identical"
        );
    }

    // No partial record: the only records on disk are the acked ones,
    // plus at most one durable-but-unacknowledged tune (fsync completed
    // but the crash hit before the client heard back — a real power
    // loss produces exactly the same window).
    let stats = c.stats().expect("stats");
    let records = stats_field(&stats, "records").expect("records");
    assert!(
        records == acked.len() as u64 || records == acked.len() as u64 + 1,
        "{scenario}: expected {} (+0/+1) records after recovery, found {records} in {stats}",
        acked.len()
    );
    assert_eq!(
        stats_field(&stats, "db_degraded").expect("db_degraded"),
        0,
        "{scenario}: recovered daemon must not be degraded"
    );

    let mut c = Client::connect(sock).expect("connect");
    c.shutdown().expect("shutdown");
    server.join();
}

fn chaos_cfg(sock: &PathBuf, db: &PathBuf, spec: FaultSpec) -> ServeConfig {
    let mut cfg = ServeConfig::new(sock, db);
    cfg.workers = 1; // serialize publishes so crash-op schedules are exact
    cfg.io_profile = IoProfile::Fault(spec);
    cfg
}

#[test]
fn crash_at_every_publish_point_preserves_acknowledged_tunes() {
    let texts = workloads();
    for point in PUBLISH_CRASH_POINTS {
        for occurrence in [0usize, 1] {
            let scenario = format!("{point}#{occurrence}");
            let (sock, db) = tmp_paths(&format!("pub-{}-{occurrence}", point.replace('.', "-")));
            let spec = FaultSpec::crash_at(point, occurrence, 0xC805 + occurrence as u64);
            let acked = run_until_crash(chaos_cfg(&sock, &db, spec), &texts);
            assert!(
                acked.len() < texts.len(),
                "{scenario}: the injected crash must fire"
            );
            assert_recovered(&scenario, &sock, &db, &acked);
            let _ = std::fs::remove_file(&db);
        }
    }
}

#[test]
fn crash_inside_journal_appends_salvages_torn_tails() {
    let texts = workloads();
    // Appends land on even op indices (each publish is append, fsync).
    for (append_op, seed) in [(0u64, 11u64), (2, 12), (4, 13), (4, 14)] {
        let scenario = format!("append-op{append_op}-seed{seed}");
        let (sock, db) = tmp_paths(&format!("tear-{append_op}-{seed}"));
        let spec = FaultSpec {
            seed,
            crash_in_append: Some(append_op),
            ..FaultSpec::default()
        };
        let acked = run_until_crash(chaos_cfg(&sock, &db, spec), &texts);
        assert_eq!(
            acked.len() as u64,
            append_op / 2,
            "{scenario}: every publish before the torn append was acknowledged"
        );
        // The torn tail (short write, possibly bit-flipped) must
        // salvage on restart — never DbError::Corrupt.
        assert_recovered(&scenario, &sock, &db, &acked);
        let _ = std::fs::remove_file(&db);
    }
    // The same on a compacted file: with every publish compacting, a
    // publish is append, fsync, replace, so op 3 tears the entry appended
    // to the file the first publish's compaction wrote.
    for seed in [21u64, 22, 23] {
        let scenario = format!("append-after-compaction-seed{seed}");
        let (sock, db) = tmp_paths(&format!("tear-compacted-{seed}"));
        let spec = FaultSpec {
            seed,
            crash_in_append: Some(3),
            ..FaultSpec::default()
        };
        let mut cfg = chaos_cfg(&sock, &db, spec);
        cfg.journal_compact_bytes = 1;
        let acked = run_until_crash(cfg, &texts);
        assert_eq!(
            acked.len(),
            1,
            "{scenario}: the first publish was acknowledged"
        );
        assert_recovered(&scenario, &sock, &db, &acked);
        let _ = std::fs::remove_file(&db);
    }
}

#[test]
fn crash_at_every_compaction_point_preserves_acknowledged_tunes() {
    let texts = workloads();
    for point in COMPACT_CRASH_POINTS {
        let scenario = format!("{point}#0");
        let (sock, db) = tmp_paths(&format!("compact-{}", point.replace('.', "-")));
        let mut cfg = chaos_cfg(&sock, &db, FaultSpec::crash_at(point, 0, 0xF01D));
        cfg.journal_compact_bytes = 1; // first publish triggers compaction
        let acked = run_until_crash(cfg, &texts);
        // The record that triggered the compaction was journaled and
        // fsynced before the compaction began, so it is acknowledged
        // even though the compaction crashed — and it must survive.
        assert!(!acked.is_empty(), "{scenario}: first publish is pre-crash");
        assert_recovered(&scenario, &sock, &db, &acked);
        let _ = std::fs::remove_file(&db);
    }
}

#[test]
fn transient_save_failures_degrade_visibly_then_recover() {
    let texts = workloads();
    let (sock, db) = tmp_paths("degraded");
    // Storage is down for exactly the first 6 mutating ops: all three
    // publish attempts of the first tune (each one append + one
    // repair-truncate) fail, then storage comes back.
    let mut cfg = chaos_cfg(
        &sock,
        &db,
        FaultSpec {
            fail_first_ops: 6,
            ..FaultSpec::default()
        },
    );
    cfg.save_retries = 3;
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(&sock).expect("connect");

    // The tune itself still succeeds — the result is valid, only its
    // durability is degraded — and the degradation is *visible*.
    let first = c
        .tune("gpu", "tensorir", TRIALS, 5, &texts[0])
        .expect("tune");
    assert_eq!(first.source, Source::Tuned);
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats_field(&stats, "db_degraded").expect("db_degraded"),
        1,
        "degradation must be visible: {stats}"
    );
    assert_eq!(
        stats_field(&stats, "db_save_failures").expect("db_save_failures"),
        3,
        "every failed attempt counted"
    );

    // Storage is back: the next publish forces a compaction that folds
    // the memory-only record to disk and clears the degraded state.
    let second = c
        .tune("gpu", "tensorir", TRIALS, 5, &texts[1])
        .expect("tune");
    assert_eq!(second.source, Source::Tuned);
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats_field(&stats, "db_degraded").expect("db_degraded"),
        0,
        "compaction clears degradation: {stats}"
    );

    c.shutdown().expect("shutdown");
    server.join();

    // Both records — including the one that was memory-only for a
    // while — survive a restart on the real backend.
    assert_recovered(
        "degraded-recovery",
        &sock,
        &db,
        &[(texts[0].clone(), first), (texts[1].clone(), second)],
    );
    let _ = std::fs::remove_file(&db);
}

#[test]
fn failing_publish_backs_off_without_holding_up_other_requests() {
    let texts = workloads();
    let (sock, db) = tmp_paths("backoff");
    // Storage is down for the first 10 mutating ops: five publish attempts
    // of the tune (one append + one repair-truncate each) fail and the
    // sixth succeeds, the worker backing off 10 + 20 + 40 + 80 + 160 ms in
    // between.
    let mut cfg = chaos_cfg(
        &sock,
        &db,
        FaultSpec {
            fail_first_ops: 10,
            ..FaultSpec::default()
        },
    );
    cfg.save_retries = 6;
    let server = Server::start(cfg).expect("start");
    let tuner = {
        let (sock, text) = (sock.clone(), texts[0].clone());
        std::thread::spawn(move || {
            let mut c = Client::connect(&sock).expect("connect");
            c.tune("gpu", "tensorir", TRIALS, 5, &text).expect("tune")
        })
    };

    // Wait until the retry sequence has begun, then ask about another
    // fingerprint. `stats` and `query` both take the database lock — the
    // lock the worker used to hold, asleep, until its last attempt — so
    // being answered at all while the tune is still in flight is the
    // property. No deadline tighter than the backoff itself is involved.
    let mut c = Client::connect(&sock).expect("connect");
    while stats_field(&c.stats().expect("stats"), "db_save_failures").expect("db_save_failures")
        == 0
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let other = c.query("gpu", "tensorir", &texts[1]).expect("query");
    assert!(other.is_none(), "nothing tuned for the other fingerprint");
    let stats = c.stats().expect("stats");
    assert_eq!(
        (
            stats_field(&stats, "inflight").expect("inflight"),
            stats_field(&stats, "cold_tunes").expect("cold_tunes")
        ),
        (1, 0),
        "the query was held until the failing publish finished retrying: {stats}"
    );
    // Nor is the failing request's own record visible before it is durable.
    let early = c.query("gpu", "tensorir", &texts[0]).expect("query");
    let stats = c.stats().expect("stats");
    assert!(
        early.is_none() || stats_field(&stats, "inflight").expect("inflight") == 0,
        "a record was served between two failed publish attempts: {stats}"
    );

    let reply = tuner.join().expect("tuner thread");
    assert_eq!(reply.source, Source::Tuned);
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats_field(&stats, "db_save_failures").expect("db_save_failures"),
        5,
        "{stats}"
    );
    assert_eq!(
        stats_field(&stats, "db_degraded").expect("db_degraded"),
        0,
        "the sixth attempt made the record durable: {stats}"
    );
    c.shutdown().expect("shutdown");
    server.join();
    assert_recovered("publish-backoff", &sock, &db, &[(texts[0].clone(), reply)]);
    let _ = std::fs::remove_file(&db);
}

// ---------------------------------------------------------------------
// Socket-level chaos.
// ---------------------------------------------------------------------

/// Reads until EOF or timeout; returns what arrived.
fn drain(stream: &mut UnixStream) -> Vec<u8> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    buf
}

#[test]
fn socket_chaos_never_wedges_the_daemon() {
    let (sock, db) = tmp_paths("socket");
    let mut cfg = ServeConfig::new(&sock, &db);
    cfg.workers = 1;
    let server = Server::start(cfg).expect("start");

    // 1. Client killed mid-request: header promises 1000 payload bytes,
    //    connection dies after 10. The daemon must drop the connection
    //    (bounded stall), not wait forever.
    {
        let mut s = UnixStream::connect(&sock).expect("connect raw");
        s.write_all(b"tune gpu tensorir 8 5 1000\ndef f(")
            .expect("partial write");
        drop(s); // killed
    }

    // 2. One-byte slow-loris that never completes its payload, held
    //    open while well-behaved clients are served.
    let loris_sock = sock.clone();
    let loris = std::thread::spawn(move || {
        let mut s = UnixStream::connect(&loris_sock).expect("connect loris");
        for b in b"tune gpu tensorir 8 5 400\nx" {
            if s.write_all(&[*b]).is_err() {
                break; // daemon dropped us: acceptable, documented
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        // Stall forever (until the daemon's bounded mid-message timeout
        // drops the connection).
        let _ = drain(&mut s);
    });

    // Well-behaved clients are unaffected while both bad connections
    // are in flight: pings answer promptly and a tune completes.
    let mut c = Client::connect(&sock).expect("connect");
    for _ in 0..5 {
        let t = Instant::now();
        c.ping().expect("ping while chaos in flight");
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "ping starved by a bad connection"
        );
    }
    let text = workloads().remove(0);
    let reply = c.tune("gpu", "tensorir", TRIALS, 5, &text).expect("tune");
    assert_eq!(reply.source, Source::Tuned);

    // 3. A slow but *complete* request is answered: one byte at a time
    //    is a valid way to speak the protocol.
    {
        let mut s = UnixStream::connect(&sock).expect("connect raw");
        for b in b"ping\n" {
            s.write_all(&[*b]).expect("write byte");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut resp = [0u8; 5];
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_exact(&mut resp).expect("read pong");
        assert_eq!(&resp, b"pong\n");
    }

    // 4. Textual garbage gets a typed reject; undecodable (non-UTF-8)
    //    bytes get the documented connection close. Neither panics.
    {
        let mut s = UnixStream::connect(&sock).expect("connect raw");
        s.write_all(b"frobnicate the database\n")
            .expect("write garbage");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let got = drain(&mut s);
        assert!(
            got.starts_with(b"err "),
            "garbage should be answered with a typed reject, got {:?}",
            String::from_utf8_lossy(&got)
        );
    }
    {
        let mut s = UnixStream::connect(&sock).expect("connect raw");
        s.write_all(b"\x00\xff\xfe not a utf-8 header\n")
            .expect("write bytes");
        let _ = s.shutdown(std::net::Shutdown::Write);
        assert!(
            drain(&mut s).is_empty(),
            "non-UTF-8 headers are answered by closing the connection"
        );
    }

    loris.join().expect("loris thread");

    // The daemon survived all of it and still shuts down cleanly.
    let mut c = Client::connect(&sock).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stats_field(&stats, "db_degraded").expect("db_degraded"), 0);
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}
