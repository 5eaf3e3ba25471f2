//! Client-side robustness: per-request deadlines against a stalled
//! server, and transparent reconnection across a daemon restart.

use std::io::Read;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tir::DataType;
use tir_serve::client::{Client, ClientError, ReconnectPolicy};
use tir_serve::protocol::{RejectCode, Source};
use tir_serve::server::{ServeConfig, Server};
use tir_workloads::ops;

fn tmp_paths(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-client-{name}-{pid}.sock"));
    let db = dir.join(format!("tir-client-{name}-{pid}.db"));
    for p in [&sock, &db] {
        let _ = std::fs::remove_file(p);
    }
    (sock, db)
}

fn gmm_text() -> String {
    ops::gmm(32, 32, 32, DataType::float16(), DataType::float32()).to_string()
}

#[test]
fn deadline_against_a_stalled_server_is_a_typed_timeout() {
    let (sock, _db) = tmp_paths("stall");
    // A deliberately stalled "server": accepts, reads the request, and
    // never answers.
    let listener = UnixListener::bind(&sock).expect("bind");
    let stall = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut sink = [0u8; 4096];
        // Keep the connection open (reading whatever arrives) until the
        // client gives up and drops it.
        while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
    });

    let mut c = Client::connect(&sock).expect("connect");
    c.set_deadline(Some(Duration::from_millis(150)));
    let t = Instant::now();
    match c.ping() {
        Err(ClientError::Timeout { after }) => {
            assert_eq!(after, Duration::from_millis(150));
        }
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    let waited = t.elapsed();
    assert!(
        waited >= Duration::from_millis(150),
        "gave up before the deadline ({waited:?})"
    );
    assert!(
        waited < Duration::from_secs(5),
        "timeout did not bound the wait ({waited:?})"
    );
    drop(c);
    stall.join().expect("stall thread");
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn client_reconnects_across_a_daemon_restart() {
    let (sock, db) = tmp_paths("reconnect");
    let text = gmm_text();

    // First daemon lifetime: the client tunes, then the daemon goes
    // away entirely.
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut c = Client::connect_with(
        &sock,
        ReconnectPolicy {
            max_retries: 20, // ride out the restart gap below
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(100),
        },
    )
    .expect("connect");
    let cold = c.tune("gpu", "tensorir", 4, 5, &text).expect("tune");
    assert_eq!(cold.source, Source::Tuned);
    server.request_shutdown();
    server.join();

    // Restart the daemon concurrently with the client's next request:
    // the client's old connection is dead, so it must redial (with
    // backoff) and replay — and the replay lands warm.
    let restarter = {
        let (sock, db) = (sock.clone(), db.clone());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            Server::start(ServeConfig::new(&sock, &db)).expect("restart")
        })
    };
    let warm = c
        .query("gpu", "tensorir", &text)
        .expect("query must survive the restart via reconnect")
        .expect("record persisted");
    assert_eq!(warm.source, Source::Warm);
    assert_eq!(warm.func_text, cold.func_text);
    assert_eq!(warm.best_time.to_bits(), cold.best_time.to_bits());

    let server = restarter.join().expect("restarter");
    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn no_reconnect_policy_fails_fast() {
    let (sock, _db) = tmp_paths("norc");
    // Nothing is listening: the initial dial fails immediately for both
    // policies (reconnection governs established clients, not dialing).
    assert!(matches!(
        Client::connect_with(&sock, ReconnectPolicy::none()),
        Err(ClientError::Io(_))
    ));
    assert!(matches!(Client::connect(&sock), Err(ClientError::Io(_))));
}

/// 100 000 open parentheses inside a store: 200 KB, well under the 1 MiB
/// payload cap. The expression parser used to recurse once per parenthesis,
/// overflow the connection thread's stack and take the whole process down —
/// this test included, since the daemon runs inside it (`catch_unwind` does
/// not catch a stack overflow). Now the text is a parse error like any
/// other, and the connection that sent it goes on to be served.
#[test]
fn over_deep_nesting_is_a_parse_error_and_the_daemon_lives() {
    let (sock, db) = tmp_paths("deep");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut c = Client::connect_with(&sock, ReconnectPolicy::none()).expect("connect");
    let text = gmm_text();
    let cold = c.tune("gpu", "tensorir", 4, 5, &text).expect("tune");

    let n = 100_000;
    for hostile in [
        format!("{}1.0{}", "(".repeat(n), ")".repeat(n)),
        format!("{}1.0", "-".repeat(n)),
        format!("1.0{}", " + 1.0".repeat(n)),
    ] {
        let payload = format!(
            "@T.prim_func\ndef f(A: T.Buffer((8), \"float32\")):\n    for i in range(8):\n        A[i] = {hostile}\n"
        );
        match c.tune("gpu", "tensorir", 4, 5, &payload) {
            Err(ClientError::Rejected { code, message }) => {
                assert_eq!(code, RejectCode::ParseError);
                assert!(message.contains("nested deeper than"), "{message}");
            }
            other => panic!("expected a parse_error rejection, got {other:?}"),
        }
    }
    // Same daemon, same connection (no redial allowed): a pong and a warm
    // hit.
    c.ping().expect("the daemon is alive");
    let warm = c.tune("gpu", "tensorir", 4, 5, &text).expect("warm hit");
    assert_eq!(warm.source, Source::Warm);
    assert_eq!(warm.func_text, cold.func_text);

    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}

/// Text that parses to a program that is not well-formed — here a loop
/// variable read after its loop — has no meaning to tune: it is answered
/// `parse_error` (the daemon used to accept it and tune it), and the
/// connection that sent it goes on to be served.
#[test]
fn a_malformed_program_is_a_parse_error_and_the_connection_lives() {
    let (sock, db) = tmp_paths("malformed");
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut c = Client::connect_with(&sock, ReconnectPolicy::none()).expect("connect");
    let text = gmm_text();
    let cold = c.tune("gpu", "tensorir", 4, 5, &text).expect("tune");

    let payload = "@T.prim_func\ndef f(A: T.Buffer((8), \"float32\")):\n    for i in range(8):\n        A[i] = 1.0\n    A[i] = 2.0\n";
    match c.tune("gpu", "tensorir", 4, 5, payload) {
        Err(ClientError::Rejected { code, message }) => {
            assert_eq!(code, RejectCode::ParseError);
            assert!(
                message.contains("variable i is read where it is not bound"),
                "{message}"
            );
        }
        other => panic!("expected a parse_error rejection, got {other:?}"),
    }
    c.ping().expect("the daemon is alive");
    let warm = c.tune("gpu", "tensorir", 4, 5, &text).expect("warm hit");
    assert_eq!(warm.source, Source::Warm);
    assert_eq!(warm.func_text, cold.func_text);

    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}
