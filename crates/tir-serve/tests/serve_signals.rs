//! Signal-driven shutdown of the real `tir-serve` binary: SIGTERM and
//! SIGINT must both take the graceful drain-and-persist path, so the
//! next daemon lifetime answers warm and bit-identical.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tir::DataType;
use tir_serve::client::Client;
use tir_serve::protocol::Source;
use tir_workloads::ops;

/// POSIX signal numbers and `kill(2)` from the platform C library —
/// the test tree, like the daemon, carries no `libc` crate.
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn tmp_paths(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-signals-{name}-{pid}.sock"));
    let db = dir.join(format!("tir-signals-{name}-{pid}.db"));
    for p in [&sock, &db] {
        let _ = std::fs::remove_file(p);
    }
    (sock, db)
}

// Every returned Child is reaped by `signal_and_reap`; the lint cannot
// see across the function boundary.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(sock: &PathBuf, db: &PathBuf) -> Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tir-serve"))
        .arg("--socket")
        .arg(sock)
        .arg("--db")
        .arg(db)
        .arg("--workers")
        .arg("1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tir-serve");
    // The daemon is up once the socket exists and answers a ping.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if sock.exists() {
            if let Ok(mut c) = Client::connect(sock) {
                if c.ping().is_ok() {
                    return child;
                }
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon did not come up within 30s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn signal_and_reap(mut child: Child, sig: i32) {
    let rc = unsafe { kill(child.id() as i32, sig) };
    assert_eq!(rc, 0, "kill(2) failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(
                    status.success(),
                    "daemon must exit cleanly on signal {sig}, got {status}"
                );
                return;
            }
            None => {
                assert!(
                    Instant::now() < deadline,
                    "daemon did not exit within 30s of signal {sig}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn sigterm_and_sigint_drain_persist_and_restart_warm() {
    let (sock, db) = tmp_paths("term");
    let text = ops::gmm(32, 32, 32, DataType::float16(), DataType::float32()).to_string();

    // Lifetime 1: tune, then SIGTERM (what systemd/Kubernetes send).
    let child = spawn_daemon(&sock, &db);
    let mut c = Client::connect(&sock).expect("connect");
    let cold = c.tune("gpu", "tensorir", 4, 5, &text).expect("tune");
    assert_eq!(cold.source, Source::Tuned);
    drop(c);
    signal_and_reap(child, SIGTERM);
    assert!(
        !sock.exists(),
        "graceful signal exit must remove the socket"
    );
    assert!(db.exists(), "graceful signal exit must persist the db");

    // Lifetime 2: the record survived; stop this one with SIGINT
    // (ctrl-C at a terminal) — same graceful path.
    let child = spawn_daemon(&sock, &db);
    let mut c = Client::connect(&sock).expect("reconnect");
    let warm = c
        .query("gpu", "tensorir", &text)
        .expect("query")
        .expect("record persisted across SIGTERM");
    assert_eq!(warm.source, Source::Warm);
    assert_eq!(warm.func_text, cold.func_text);
    assert_eq!(warm.best_time.to_bits(), cold.best_time.to_bits());
    drop(c);
    signal_and_reap(child, SIGINT);
    assert!(!sock.exists());

    let _ = std::fs::remove_file(&db);
}
