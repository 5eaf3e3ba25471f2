//! `tir-serve` — the tuning daemon's command-line entry point.
//!
//! Binds a Unix socket, loads (or creates) the persistent tuning
//! database, and serves tune/query requests until a client sends
//! `shutdown` — or until the process receives SIGTERM/SIGINT, which an
//! orchestrator (systemd, Kubernetes, ctrl-C) uses to stop it: the
//! daemon drains its queue, compacts the database, and exits cleanly,
//! so the next start serves everything warm. See `docs/OPERATIONS.md`
//! for the operational guide.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tir_serve::server::{ServeConfig, Server};

/// Set by the signal handler; polled by `main`.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// POSIX signal numbers (no `libc` crate in the tree; these values are
/// fixed by the Linux/BSD ABIs this daemon targets).
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// `signal(2)` from the platform C library. `handler` is either a
    /// function pointer or the special constants 0/1 (DFL/IGN).
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The actual handler: async-signal-safe by construction — it only
/// stores to an atomic. Draining and persisting happen on the main
/// thread, which polls [`SIGNALED`].
extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // SAFETY: `on_signal` is async-signal-safe (a single atomic store),
    // and `signal(2)` with a valid function pointer is well-defined for
    // SIGINT/SIGTERM.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: tir-serve --socket PATH --db PATH [--workers N] [--capacity N] \
         [--max-payload BYTES] [--seed N] [--trace-out PATH]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut socket = None;
    let mut db = None;
    let mut trace_out: Option<String> = None;
    let mut cfg_workers = None;
    let mut cfg_capacity = None;
    let mut cfg_max_payload = None;
    let mut cfg_seed = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            "--db" => db = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--workers" => cfg_workers = Some(num(&mut args)),
            "--capacity" => cfg_capacity = Some(num(&mut args)),
            "--max-payload" => cfg_max_payload = Some(num(&mut args)),
            "--seed" => cfg_seed = Some(num(&mut args) as u64),
            _ => usage(),
        }
    }
    let (Some(socket), Some(db)) = (socket, db) else {
        usage()
    };

    let mut cfg = ServeConfig::new(&socket, &db);
    if let Some(v) = cfg_workers {
        cfg.workers = v;
    }
    if let Some(v) = cfg_capacity {
        cfg.queue_capacity = v;
    }
    if let Some(v) = cfg_max_payload {
        cfg.max_payload = v;
    }
    if let Some(v) = cfg_seed {
        cfg.seed = v;
    }

    install_signal_handlers();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tir-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tir-serve: listening on {socket} (db {db})");

    // Wait for either a client `shutdown` or a termination signal; both
    // end in the same graceful drain-and-persist path.
    while !server.is_shutting_down() && !SIGNALED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    if SIGNALED.load(Ordering::SeqCst) {
        eprintln!("tir-serve: termination signal received; draining and persisting");
        server.request_shutdown();
    }
    let report = server.join();
    println!(
        "tir-serve: shut down ({} warm hits, {} cold tunes, {} dedup joins)",
        report.counter("serve.warm_hits"),
        report.counter("serve.cold_tunes"),
        report.counter("serve.dedup_joins"),
    );
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("tir-serve: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("tir-serve: trace written to {path}");
    }
    ExitCode::SUCCESS
}
