//! Concurrency and crash-recovery contracts of the serve daemon:
//! N concurrent identical requests cost exactly one search, a
//! killed-and-restarted daemon answers from disk, warm and bit-identical,
//! and shutdown wakes every thread blocked on a socket at once.

use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tir::DataType;
use tir_serve::client::{Client, ClientError, ReconnectPolicy};
use tir_serve::protocol::{RejectCode, Request, Response, Source};
use tir_serve::server::{ServeConfig, Server};
use tir_workloads::ops;

/// Unique socket/db paths per test so parallel test threads don't
/// collide.
fn tmp_paths(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-serve-test-{name}-{pid}.sock"));
    let db = dir.join(format!("tir-serve-test-{name}-{pid}.db"));
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_file(&db);
    (sock, db)
}

fn gmm_text() -> String {
    ops::gmm(32, 32, 32, DataType::float16(), DataType::float32()).to_string()
}

#[test]
fn concurrent_same_fingerprint_tunes_once() {
    let (sock, db) = tmp_paths("dedup");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let text = gmm_text();

    const CLIENTS: usize = 6;
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let sock = &sock;
                let text = &text;
                scope.spawn(move || {
                    let mut c = Client::connect(sock).expect("connect");
                    c.tune("gpu", "tensorir", 8, 5, text).expect("tune")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    let tuned = replies.iter().filter(|r| r.source == Source::Tuned).count();
    assert_eq!(
        tuned, 1,
        "{CLIENTS} concurrent identical requests must run exactly one search"
    );
    for r in &replies {
        assert_eq!(
            r.func_text, replies[0].func_text,
            "answers must be identical"
        );
        assert_eq!(
            r.best_time.to_bits(),
            replies[0].best_time.to_bits(),
            "best_time must be bit-identical"
        );
    }

    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

/// `C = A + B` over 64 × 64 elements of `dtype`, as a client sends it.
fn add_text(dtype: DataType) -> String {
    let [a, b, c] = ["A", "B", "C"].map(|n| tir::Buffer::new(n, dtype, vec![64, 64]));
    let body = tir::builder::compute("C", &c, |v| {
        let at = || v.iter().map(tir::Expr::from).collect();
        a.load(at()) + b.load(at())
    });
    tir::PrimFunc::new("add", vec![a, b, c], body).to_string()
}

/// Regression: two programs that differ only in a dtype are two
/// workloads. The key used to rename dtype strings like names, so the
/// second joined the first's search (or was served its record).
#[test]
fn concurrent_tunes_that_differ_only_in_dtype_run_two_searches() {
    let (sock, db) = tmp_paths("dtype-dedup");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let texts = [add_text(DataType::float16()), add_text(DataType::float32())];
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = texts
            .iter()
            .map(|text| {
                let sock = &sock;
                scope.spawn(move || {
                    let mut c = Client::connect(sock).expect("connect");
                    c.tune("gpu", "tensorir", 8, 5, text).expect("tune")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    for (reply, dtype) in replies.iter().zip(["float16", "float32"]) {
        assert_eq!(reply.source, Source::Tuned, "{dtype}: no search of its own");
        assert!(reply.func_text.contains(dtype), "{dtype}: another program");
    }

    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

/// Regression: a query for a workload that differs from a tuned one only
/// in its dtype misses instead of answering with the tuned program.
#[test]
fn a_query_for_another_dtype_misses() {
    let (sock, db) = tmp_paths("dtype-query");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut c = Client::connect(&sock).expect("connect");
    let f16 = add_text(DataType::float16());
    let cold = c.tune("gpu", "tensorir", 8, 5, &f16).expect("tune");
    assert_eq!(cold.source, Source::Tuned);
    assert!(c.query("gpu", "tensorir", &f16).expect("query").is_some());
    let f32 = add_text(DataType::float32());
    assert!(c.query("gpu", "tensorir", &f32).expect("query").is_none());
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn restart_serves_warm_from_disk() {
    let (sock, db) = tmp_paths("restart");
    let text = gmm_text();

    // First daemon lifetime: tune, then shut down (persisting to disk).
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut c = Client::connect(&sock).expect("connect");
    let cold = c.tune("gpu", "tensorir", 8, 5, &text).expect("tune");
    assert_eq!(cold.source, Source::Tuned);
    c.shutdown().expect("shutdown");
    server.join();
    assert!(db.exists(), "database must persist across daemon lifetimes");

    // Second lifetime on the same database: warm, free, bit-identical.
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("restart");
    let mut c = Client::connect(&sock).expect("connect");
    let warm = c.tune("gpu", "tensorir", 8, 5, &text).expect("tune");
    assert_eq!(warm.source, Source::Warm, "restart must answer from disk");
    assert_eq!(warm.trials, 0, "warm answer must consume no trials");
    assert_eq!(warm.tuning_cost_s, 0.0, "warm answer must cost nothing");
    assert_eq!(
        warm.func_text, cold.func_text,
        "program must round-trip the disk"
    );
    assert_eq!(
        warm.best_time.to_bits(),
        cold.best_time.to_bits(),
        "best_time must be bit-identical after restart"
    );
    let queried = c
        .query("gpu", "tensorir", &text)
        .expect("query")
        .expect("record present");
    assert_eq!(queried.func_text, cold.func_text);
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn invalid_requests_are_rejected_with_reasons() {
    let (sock, db) = tmp_paths("reject");
    let mut cfg = ServeConfig::new(&sock, &db);
    cfg.queue_capacity = 0; // every cold tune must bounce
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(&sock).expect("connect");
    let text = gmm_text();

    let code_of = |r: Result<_, ClientError>| match r {
        Err(ClientError::Rejected { code, .. }) => code,
        other => panic!("expected a rejection, got {other:?}"),
    };
    assert_eq!(
        code_of(c.tune("tpu", "tensorir", 8, 5, &text)),
        RejectCode::UnknownMachine
    );
    assert_eq!(
        code_of(c.tune("gpu", "autotvm", 8, 5, &text)),
        RejectCode::UnknownStrategy
    );
    assert_eq!(
        code_of(c.tune("gpu", "tensorir", 8, 5, "not a program")),
        RejectCode::ParseError
    );
    assert_eq!(
        code_of(c.tune("gpu", "tensorir", 0, 5, &text)),
        RejectCode::BadRequest
    );
    assert_eq!(
        code_of(c.tune("gpu", "tensorir", 8, 5, &text)),
        RejectCode::QueueFull,
        "capacity-0 queue must reject with a reason, not hang"
    );
    // Semantic rejections never poison the connection.
    c.ping().expect("connection still usable");

    // A protocol-level rejection (raised while reading the message)
    // answers with its reason and then closes the connection. Disable
    // the client's auto-redial so the close is observable.
    let mut c2 = Client::connect_with(&sock, ReconnectPolicy::none()).expect("connect");
    assert_eq!(
        code_of(c2.tune("gpu", "tensorir", 8, 12, &text)),
        RejectCode::BadPriority
    );
    assert!(
        c2.ping().is_err(),
        "connection closes after a protocol-level reject"
    );

    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn oversized_payload_is_rejected() {
    let (sock, db) = tmp_paths("payload");
    let mut cfg = ServeConfig::new(&sock, &db);
    cfg.max_payload = 64;
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(&sock).expect("connect");
    match c.tune("gpu", "tensorir", 8, 5, &gmm_text()) {
        Err(ClientError::Rejected {
            code: RejectCode::PayloadTooLarge,
            ..
        }) => {}
        other => panic!("expected payload_too_large, got {other:?}"),
    }
    // Oversized payloads are protocol-level: the connection closed.
    let mut c = Client::connect(&sock).expect("reconnect");
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

/// The daemon writes a message in one piece but never assumed it reads one
/// that way: a request dribbling in byte by byte is answered like any other,
/// and one that stops half way is dropped after the daemon's two-second
/// mid-message stall bound instead of pinning its thread (and shutdown)
/// forever.
#[test]
fn a_request_in_one_byte_writes_is_answered_and_a_stalled_one_is_dropped() {
    let (sock, db) = tmp_paths("trickle");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut wire = Vec::new();
    Request::Query {
        machine: "gpu".into(),
        strategy: "tensorir".into(),
        func_text: gmm_text(),
    }
    .write(&mut wire)
    .expect("in-memory write");

    let mut conn = UnixStream::connect(&sock).expect("connect");
    for (i, byte) in wire.iter().enumerate() {
        conn.write_all(std::slice::from_ref(byte)).expect("write");
        if i % 8 == 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let reply = Response::read(&mut reader).expect("no I/O error");
    assert_eq!(reply, Some(Ok(Response::Miss)), "nothing was tuned");
    // The same connection, whole messages again.
    Request::Ping.write(&mut conn).expect("write");
    let reply = Response::read(&mut reader).expect("no I/O error");
    assert_eq!(reply, Some(Ok(Response::Pong)));

    // Half a message, then silence.
    conn.write_all(&wire[..wire.len() / 2]).expect("write");
    let t = Instant::now();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut rest = Vec::new();
    let n = reader
        .read_to_end(&mut rest)
        .expect("closed, not timed out");
    let waited = t.elapsed();
    assert_eq!(n, 0, "a stalled request is not answered: {rest:?}");
    assert!(
        waited >= Duration::from_millis(1500) && waited < Duration::from_secs(6),
        "the connection was dropped after {waited:?}, not after the two-second stall bound"
    );

    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

/// Joins `server` on a helper thread and fails the test if `join` has not
/// returned within five seconds: the daemon blocks in `accept` and `read`,
/// so a thread shutdown fails to wake hangs instead of polling its way
/// out, and that must fail the test rather than stall the suite. Returns
/// how long `join` took.
fn join_within_five_seconds(server: Server) -> Duration {
    let t = Instant::now();
    let (joined, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = joined.send(());
    });
    done.recv_timeout(Duration::from_secs(5))
        .expect("Server::join did not return within 5 s: shutdown left a thread blocked");
    t.elapsed()
}

/// Shutdown waits for no timer: idle connections and one that stopped half
/// way through a request are woken at once, not after an idle poll or the
/// two-second mid-message stall bound.
#[test]
fn shutdown_returns_at_once_with_idle_clients_and_a_half_written_request() {
    let (sock, db) = tmp_paths("prompt-shutdown");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let idle: Vec<Client> = (0..8)
        .map(|_| {
            let mut c = Client::connect_with(&sock, ReconnectPolicy::none()).expect("connect");
            c.ping().expect("ping");
            c
        })
        .collect();
    let mut wire = Vec::new();
    Request::Query {
        machine: "gpu".into(),
        strategy: "tensorir".into(),
        func_text: gmm_text(),
    }
    .write(&mut wire)
    .expect("in-memory write");
    let mut half = UnixStream::connect(&sock).expect("connect");
    Request::Ping.write(&mut half).expect("write");
    let mut reader = BufReader::new(half.try_clone().expect("clone"));
    assert_eq!(
        Response::read(&mut reader).expect("no I/O error"),
        Some(Ok(Response::Pong))
    );
    half.write_all(&wire[..wire.len() / 2]).expect("write");

    let t = Instant::now();
    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    join_within_five_seconds(server);
    let waited = t.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "shutdown + join took {waited:?} with 8 idle clients and a half-written request"
    );
    drop(idle);
    let _ = std::fs::remove_file(&db);
}

/// `request_shutdown` with no client connected wakes the blocked `accept`.
#[test]
fn request_shutdown_with_no_client_ends_join() {
    let (sock, db) = tmp_paths("no-client-shutdown");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    server.request_shutdown();
    join_within_five_seconds(server);
    assert!(!sock.exists(), "join removes the socket file");
    let _ = std::fs::remove_file(&db);
}

/// Once shutdown has begun a new connection is refused, or reads end of
/// file; it is never left waiting for a reply.
#[test]
fn a_connect_after_shutdown_began_is_refused_or_reads_eof() {
    let (sock, db) = tmp_paths("late-connect");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    server.request_shutdown();
    if let Ok(mut conn) = UnixStream::connect(&sock) {
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // The write may fail already: the daemon never reads it.
        let _ = Request::Ping.write(&mut conn);
        let mut rest = Vec::new();
        match conn.read_to_end(&mut rest) {
            Ok(n) => assert_eq!(n, 0, "a late connection was answered: {rest:?}"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "a late connection was left waiting: {e}"
            ),
        }
    }
    join_within_five_seconds(server);
    let _ = std::fs::remove_file(&db);
}
