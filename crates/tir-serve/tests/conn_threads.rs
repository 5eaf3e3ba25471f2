//! The daemon joins a finished connection's thread while it runs, so the
//! thread's stack is unmapped then and not at shutdown. The test counts the
//! whole process's memory mappings, so it has a test binary of its own.

use std::path::Path;

use tir_serve::client::{Client, ReconnectPolicy};
use tir_serve::server::{ServeConfig, Server};

fn mappings() -> i64 {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
    maps.lines().count() as i64
}

/// Connects, pings and hangs up.
fn one_shot(sock: &Path) {
    let mut c = Client::connect_with(sock, ReconnectPolicy::none()).expect("connect");
    c.ping().expect("ping");
}

#[test]
fn one_shot_clients_leave_no_thread_stacks_mapped() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-serve-conn-threads-{pid}.sock"));
    let db = dir.join(format!("tir-serve-conn-threads-{pid}.db"));
    let _ = std::fs::remove_file(&db);
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    for _ in 0..10 {
        one_shot(&sock);
    }
    let before = mappings();
    for _ in 0..200 {
        one_shot(&sock);
    }
    // Its `accept` joins the threads of the connections before it.
    one_shot(&sock);
    let grown = mappings() - before;
    assert!(
        grown < 40,
        "200 one-shot clients grew the process by {grown} mappings: \
         finished connection threads keep their stacks"
    );
    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}
