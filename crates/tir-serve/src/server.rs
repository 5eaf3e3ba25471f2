//! The tuning daemon: a Unix-socket server multiplexing concurrent
//! tune/query requests onto a shared persistent, journaled tuning
//! database ([`JournaledDb`]).
//!
//! # Request lifecycle
//!
//! ```text
//! client ──► admission ──► db lookup ──┬─► warm hit ───────────────► respond
//!            (validate,                ├─► budget upgrade ─► warm ─► respond
//!             reject)                  │        └─► background re-tune job
//!                                      └─► miss ─► in-flight? ─► join (dedup)
//!                                                     └─► enqueue ─► worker
//!                                                          tunes, journals,
//!                                                          publishes ─► respond
//! ```
//!
//! Every phase emits a `serve.*` span into the server's
//! [`tir_trace::Collector`]; unlike the `search.*` spans (which carry
//! deterministic simulated seconds), `serve.*` spans carry **wall-clock
//! seconds** — the daemon's latency is a property of the machine it runs
//! on, not of the simulation, and the spans exist to attribute it.
//!
//! # Concurrency invariants
//!
//! * Lock order is `inflight` before `queue`; the database lock is
//!   never held together with either, the socket registry lock with
//!   none.
//! * The database lock covers map probes, reference-count clones and one
//!   journal append at a time — never a walk of a program, a pretty-print,
//!   a deep program copy or a sleep: workload keys and journal entries are
//!   built before it is taken, replies are printed after it is released,
//!   and a publish that has to retry re-acquires it per attempt, backing
//!   off outside it.
//! * A worker publishes a finished job in the order: journal append +
//!   fsync + database insert (one critical section; a failed attempt
//!   inserts nothing) → remove from `inflight` → set the job's
//!   result and notify. A request arriving between any two of those
//!   steps therefore either sees the record in the database (warm hit)
//!   or finds the job still in flight (dedup join) — it can never
//!   re-tune a finished fingerprint.
//! * Workers drain the queue completely before exiting on shutdown, so
//!   every admitted request is answered.
//!
//! # Connections and shutdown
//!
//! No thread polls. The accept loop blocks in `accept`, each connection's
//! thread blocks in `read`, each idle worker on the queue's condvar. A
//! connection's socket has one read timeout for its life, the two-second
//! bound on a stall between fragments of one message (`MSG_STALL`);
//! between messages that timeout only makes the idle wait wait again.
//!
//! `begin_shutdown` is the one way shutdown starts (a client's
//! `shutdown`, [`Server::request_shutdown`], a simulated storage crash)
//! and the only writer of the flag. It sets the flag, wakes the idle
//! workers, and closes the *read* side of the listener and of every open
//! connection: the blocked `accept` fails, later `connect`s are refused,
//! and a blocked `read` returns end-of-file once the bytes already
//! received have been read, so a request sent before shutdown began is
//! still read and answered `shutting_down` or served. Write sides stay
//! open: the requester of `shutdown` gets `bye`, and requests in flight
//! get their replies while the workers drain the queue. The accept loop
//! registers a connection and checks the flag under the lock
//! `begin_shutdown` takes, so a connection accepted as shutdown begins is
//! either closed by it or dropped unserved.
//!
//! Each connection has a named thread (`tir-serve-conn`) that the accept
//! loop joins after the connection has ended, at the next `accept`, so a
//! finished thread's stack is unmapped while the daemon runs instead of at
//! shutdown. A thread that cannot be started costs its one connection,
//! logged and counted on `serve.conn_spawn_failures`.
//!
//! # Durability invariant
//!
//! The database is a [`JournaledDb`]: each publish appends one fsynced
//! entry to a write-ahead journal (O(1) in the database size), and the
//! requester is notified only **after** that append+fsync returned. So
//! *acknowledged ⇒ durable*: a crash at any instant loses at most tunes
//! that no client was told succeeded. A publish whose journal append
//! fails transiently is retried ([`ServeConfig::save_retries`] attempts
//! with doubling backoff); if all attempts fail, the record is kept in
//! memory, the failure is counted on `serve.db_save_failures`, and the
//! stats response reports `db_degraded: 1` until a later compaction
//! folds the memory state into the snapshot — degradation is never
//! silent. See `docs/OPERATIONS.md` for the recovery runbook.

use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

use tir::parser::parse_func;
use tir::PrimFunc;
use tir_autoschedule::{
    tune_workload, workload_key, DbError, FaultIo, IoProfile, JournalEntry, JournaledDb, Strategy,
    TuneOptions, TuningRecord, WarmStart,
};
use tir_exec::Machine;
use tir_tensorize::builtin_registry;
use tir_trace::json::{JsonWriter, Layout};
use tir_trace::{Collector, Key, TraceReport};

use crate::protocol::{RejectCode, Request, Response, Source};

/// Phase sequence numbers used in span [`Key`]s, so one request's spans
/// sort in lifecycle order under its request id.
const PH_ADMISSION: u64 = 0;
const PH_DB_LOOKUP: u64 = 1;
const PH_QUEUE_WAIT: u64 = 2;
const PH_TUNE: u64 = 3;
const PH_RESPOND: u64 = 4;

/// How long a connection may stall in the middle of one message before
/// the server drops it: the socket's read timeout, set once per
/// connection. Between messages a timeout only restarts the idle wait.
const MSG_STALL: Duration = Duration::from_secs(2);

/// Daemon configuration. Construct with [`ServeConfig::new`] and adjust
/// fields as needed.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Path of the Unix socket to listen on. A stale socket file at
    /// this path is removed on startup.
    pub socket_path: PathBuf,
    /// Path of the persistent tuning database. Missing is fine (the
    /// daemon starts empty); an existing-but-corrupt file is a startup
    /// error, never silent data loss.
    pub db_path: PathBuf,
    /// Admission bound: tune requests beyond this many queued jobs are
    /// rejected with [`RejectCode::QueueFull`].
    pub queue_capacity: usize,
    /// Tuning worker threads (each runs one search at a time).
    pub workers: usize,
    /// Maximum request payload (program text) in bytes; larger requests
    /// are rejected with [`RejectCode::PayloadTooLarge`].
    pub max_payload: usize,
    /// Search seed. All tunes served by one daemon use one seed, so
    /// equal requests produce bit-identical results.
    pub seed: u64,
    /// Storage backend for the journaled database: [`IoProfile::Disk`]
    /// in production, [`IoProfile::Fault`] under the chaos harness.
    pub io_profile: IoProfile,
    /// Journal size (bytes) past which a publish folds the journal into
    /// the snapshot inline ([`JournaledDb::compact_threshold`]).
    pub journal_compact_bytes: usize,
    /// Attempts for one publish's journal append before the daemon
    /// gives up, keeps the record memory-only, and reports itself
    /// degraded. Backoff doubles between attempts from 10 ms.
    pub save_retries: usize,
}

impl ServeConfig {
    /// A configuration with the default queue capacity (64), worker
    /// count (2), payload cap (1 MiB), and seed 42.
    pub fn new(socket_path: impl AsRef<Path>, db_path: impl AsRef<Path>) -> ServeConfig {
        ServeConfig {
            socket_path: socket_path.as_ref().to_path_buf(),
            db_path: db_path.as_ref().to_path_buf(),
            queue_capacity: 64,
            workers: 2,
            max_payload: crate::protocol::DEFAULT_MAX_PAYLOAD,
            seed: 42,
            io_profile: IoProfile::Disk,
            journal_compact_bytes: JournaledDb::DEFAULT_COMPACT_THRESHOLD,
            save_retries: 3,
        }
    }
}

/// Why [`Server::start`] failed.
#[derive(Debug)]
pub enum StartError {
    /// The database file exists but cannot be loaded (I/O failure or
    /// detected corruption). The daemon refuses to start rather than
    /// silently discard tuned records.
    Db(DbError),
    /// Socket setup failed (bind, stale-socket removal, a handle on the
    /// listener), or a daemon thread could not be started.
    Io(std::io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Db(e) => write!(f, "cannot open tuning database: {e}"),
            StartError::Io(e) => write!(f, "cannot set up server socket: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// A lock guard, whether or not a thread panicked while holding the lock:
/// the one way this module takes a lock or wakes from a condvar wait.
/// `std` marks a mutex poisoned when a holder panics, and refusing the
/// guard from then on would turn one panic into a daemon that fails every
/// later request. The queue, the in-flight table, the socket registry and
/// a job's result slot are each changed by one push, pop, insert, remove
/// or store, so a panic cannot leave them half-changed; the database's
/// durable state is its journal, which a restart replays.
fn unpoisoned<G>(acquired: LockResult<G>) -> G {
    acquired.unwrap_or_else(PoisonError::into_inner)
}

/// Identifies one tunable unit: `(machine name, strategy label,
/// workload key)` — the same triple the database is keyed by.
type JobKey = (String, &'static str, String);

/// A finished tune's reply data, shared verbatim with every joiner.
#[derive(Clone)]
struct Tuned {
    best_time: f64,
    trials: usize,
    tuning_cost_s: f64,
    func_text: String,
}

/// One queued tuning job. Requesters block on `done`/`cv`; the worker
/// that pops the job publishes exactly once.
struct Job {
    machine: Machine,
    strategy: Strategy,
    fingerprint: String,
    func: PrimFunc,
    trials: usize,
    rid: u64,
    /// The record a background (budget-upgrade) re-tune starts from;
    /// `None` for a cold tune.
    warm: Option<WarmStart>,
    enqueued_at: Instant,
    done: Mutex<Option<Result<Tuned, String>>>,
    cv: Condvar,
}

impl Job {
    fn key(&self) -> JobKey {
        (
            self.machine.name.clone(),
            self.strategy.label(),
            self.fingerprint.clone(),
        )
    }

    /// Blocks until the worker publishes this job's result.
    fn wait(&self) -> Result<Tuned, String> {
        let mut g = unpoisoned(self.done.lock());
        while g.is_none() {
            g = unpoisoned(self.cv.wait(g));
        }
        g.clone().expect("checked above")
    }
}

/// Priority-queue entry: higher priority first, FIFO within a priority.
struct QueueEntry {
    priority: u8,
    seq: u64,
    job: Arc<Job>,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for QueueEntry {}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    cfg: ServeConfig,
    db: Mutex<JournaledDb>,
    inflight: Mutex<HashMap<JobKey, Arc<Job>>>,
    queue: Mutex<BinaryHeap<QueueEntry>>,
    queue_cv: Condvar,
    /// Written only by [`begin_shutdown`].
    shutdown: AtomicBool,
    sockets: Mutex<Sockets>,
    collector: Collector,
    trace_stream: u64,
    rid: AtomicU64,
    job_seq: AtomicU64,
}

/// The sockets whose read sides [`begin_shutdown`] closes to wake the
/// threads blocked on them.
struct Sockets {
    /// The listening socket, as a stream only to call `shutdown` on it.
    listener: UnixStream,
    /// Open connections by id; each thread removes its own when it ends.
    conns: HashMap<u64, Arc<UnixStream>>,
    next_id: u64,
}

/// A connection's entry in [`Sockets::conns`], removed when its thread
/// ends, by return or by panic, so the registry never holds a finished
/// connection's socket open.
struct Registered {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for Registered {
    fn drop(&mut self) {
        unpoisoned(self.shared.sockets.lock())
            .conns
            .remove(&self.id);
    }
}

/// Begins shutdown; calling it again is harmless. Sets the flag, wakes
/// the idle workers, and closes the read side of the listener and of
/// every open connection, so a blocked `accept` fails and a blocked read
/// returns end-of-file after the bytes already received. Write sides stay
/// open, so every request already read is still answered.
fn begin_shutdown(shared: &Shared) {
    {
        // Under the queue lock, so no worker is between its flag check
        // and its wait when the notification goes out.
        let _queue = unpoisoned(shared.queue.lock());
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
    }
    let sockets = unpoisoned(shared.sockets.lock());
    // A socket whose peer has already gone has nothing to wake: ignored.
    let _ = sockets.listener.shutdown(Shutdown::Read);
    for conn in sockets.conns.values() {
        let _ = conn.shutdown(Shutdown::Read);
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`Server::join`] (after a client sent `shutdown`, or after
/// [`Server::request_shutdown`]) to stop and collect the trace report.
pub struct Server {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the daemon: loads (or creates) the database, binds the
    /// socket, and spawns the worker pool and accept loop.
    ///
    /// # Errors
    ///
    /// [`StartError::Db`] when the database file exists but cannot be
    /// loaded; [`StartError::Io`] when socket setup fails.
    pub fn start(cfg: ServeConfig) -> Result<Server, StartError> {
        let (mut db, recovery) =
            JournaledDb::open(cfg.io_profile.build(), &cfg.db_path).map_err(StartError::Db)?;
        db.compact_threshold = cfg.journal_compact_bytes;
        match std::fs::remove_file(&cfg.socket_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StartError::Io(e)),
        }
        let listener = UnixListener::bind(&cfg.socket_path).map_err(StartError::Io)?;
        // `shutdown(2)` is a method of `UnixStream` alone; on this handle it
        // closes the listener's read side, which wakes a blocked `accept`.
        let listener_handle = listener
            .try_clone()
            .map(|l| UnixStream::from(OwnedFd::from(l)))
            .map_err(StartError::Io)?;

        let collector = Collector::new();
        let trace_stream = collector.stream("serve");
        collector.count("serve.journal_replayed", recovery.journal_replayed as u64);
        collector.count(
            "serve.journal_salvaged_bytes",
            recovery.salvaged_bytes as u64,
        );
        if recovery.salvaged() {
            eprintln!(
                "tir-serve: recovered from a torn journal tail ({} bytes truncated, {} entries replayed)",
                recovery.salvaged_bytes, recovery.journal_replayed
            );
        }
        let shared = Arc::new(Shared {
            cfg,
            db: Mutex::new(db),
            inflight: Mutex::new(HashMap::new()),
            queue: Mutex::new(BinaryHeap::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            sockets: Mutex::new(Sockets {
                listener: listener_handle,
                conns: HashMap::new(),
                next_id: 0,
            }),
            collector,
            trace_stream,
            rid: AtomicU64::new(0),
            job_seq: AtomicU64::new(0),
        });

        let mut workers = Vec::new();
        let accept = (|| {
            for _ in 0..shared.cfg.workers.max(1) {
                let sh = shared.clone();
                workers.push(
                    Builder::new()
                        .name("tir-serve-worker".into())
                        .spawn(move || worker_loop(&sh))?,
                );
            }
            let sh = shared.clone();
            Builder::new()
                .name("tir-serve-accept".into())
                .spawn(move || accept_loop(&sh, listener))
        })();
        match accept {
            Ok(accept) => Ok(Server {
                shared,
                accept,
                workers,
            }),
            Err(e) => {
                // No daemon without all its threads: stop those started.
                begin_shutdown(&shared);
                for w in workers {
                    let _ = w.join();
                }
                let _ = std::fs::remove_file(&shared.cfg.socket_path);
                Err(StartError::Io(e))
            }
        }
    }

    /// The socket path clients should connect to.
    pub fn socket_path(&self) -> &Path {
        &self.shared.cfg.socket_path
    }

    /// Requests shutdown without a client connection: stops accepting,
    /// lets workers drain the queue. Follow with [`Server::join`].
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Whether shutdown has been requested (by a client's `shutdown`,
    /// by [`Server::request_shutdown`], or internally after a fatal
    /// storage failure). Lets an embedding binary poll for signal-driven
    /// shutdown instead of blocking in [`Server::join`].
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon has shut down (a client sent `shutdown`
    /// or [`Server::request_shutdown`] was called), persists the final
    /// database state (including hit/miss counters), removes the socket
    /// file, and returns the merged trace report.
    pub fn join(self) -> TraceReport {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        {
            // Fold the journal (and any degraded memory-only records)
            // into the snapshot; also persists the hit/miss counters.
            let mut db = unpoisoned(self.shared.db.lock());
            if let Err(e) = db.compact() {
                eprintln!("tir-serve: final database compaction failed: {e}");
            }
        }
        let _ = std::fs::remove_file(&self.shared.cfg.socket_path);
        self.shared.collector.report()
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // `begin_shutdown` closed the listener's read side.
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(e) => {
                eprintln!("tir-serve: accept failed: {e}");
                break;
            }
        };
        // A thread that has ended keeps its stack mapped until joined.
        for ended in conns.extract_if(.., |h| h.is_finished()) {
            let _ = ended.join();
        }
        conns.extend(spawn_conn(shared, stream));
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Registers an accepted connection and starts its thread. The connection
/// is dropped unserved when shutdown has begun (the flag is checked under
/// the lock [`begin_shutdown`] takes, so no connection escapes both) or
/// when no thread can be started.
fn spawn_conn(shared: &Arc<Shared>, stream: UnixStream) -> Option<JoinHandle<()>> {
    let stream = Arc::new(stream);
    let id = {
        let mut sockets = unpoisoned(shared.sockets.lock());
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let id = sockets.next_id;
        sockets.next_id += 1;
        sockets.conns.insert(id, stream.clone());
        id
    };
    let registered = Registered {
        shared: shared.clone(),
        id,
    };
    // On failure the closure is dropped, and with it the registration.
    let spawned = Builder::new().name("tir-serve-conn".into()).spawn(move || {
        // An I/O error just drops this one connection.
        let _ = handle_conn(&registered.shared, &stream);
    });
    match spawned {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("tir-serve: cannot start a connection thread, connection dropped: {e}");
            shared.collector.count("serve.conn_spawn_failures", 1);
            None
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: &UnixStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(MSG_STALL))?;
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    loop {
        // Idle wait for the next request; shutdown ends it with EOF.
        match reader.fill_buf() {
            Ok([]) => return Ok(()),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
        // A message has started: a stall longer than `MSG_STALL` between
        // two of its fragments fails the read and drops the connection.
        let Some(msg) = Request::read(&mut reader, shared.cfg.max_payload)? else {
            return Ok(());
        };

        let rid = shared.rid.fetch_add(1, Ordering::Relaxed);
        let (resp, last) = match msg {
            Ok(Request::Shutdown) => {
                begin_shutdown(shared);
                (Response::Bye, true)
            }
            Ok(req) => (handle_request(shared, req, rid), false),
            // A reject raised while *reading* the message (bad header,
            // oversized payload) may leave unconsumed payload bytes on
            // the stream; the only safe resync is to answer and close.
            // Semantic rejections (unknown machine, full queue, …) are
            // raised after full consumption and keep the connection.
            Err((code, message)) => (Response::Rejected { code, message }, true),
        };
        if let Response::Rejected { code, .. } = &resp {
            shared
                .collector
                .count(&format!("serve.reject.{}", code.as_str()), 1);
        }
        let t = Instant::now();
        resp.write(&mut writer)?;
        writer.flush()?;
        shared.collector.span(
            "serve.respond",
            Key::coord(shared.trace_stream, rid, PH_RESPOND),
            t.elapsed().as_secs_f64(),
            1,
        );
        if last {
            return Ok(());
        }
    }
}

fn handle_request(shared: &Arc<Shared>, req: Request, rid: u64) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::Bye, // handled by the caller
        Request::Stats => Response::Stats {
            json: stats_json(shared),
        },
        Request::Query {
            machine,
            strategy,
            func_text,
        } => handle_query(shared, rid, &machine, &strategy, &func_text),
        Request::Tune {
            machine,
            strategy,
            trials,
            priority,
            func_text,
        } => handle_tune(
            shared, rid, &machine, &strategy, trials, priority, &func_text,
        ),
    }
}

fn resolve_machine(name: &str) -> Option<Machine> {
    match name {
        "gpu" => Some(Machine::sim_gpu()),
        "arm" => Some(Machine::sim_arm()),
        "arm-v86" => Some(Machine::sim_arm_v86()),
        _ => None,
    }
}

fn resolve_strategy(name: &str) -> Option<Strategy> {
    match name {
        "tensorir" => Some(Strategy::TensorIr),
        "ansor" => Some(Strategy::Ansor),
        "amos" => Some(Strategy::Amos),
        _ => None,
    }
}

/// Validation shared by tune and query: machine, strategy, program; then
/// the program's workload key, computed here, outside the database lock.
/// Emits the `serve.admission` span whether or not admission succeeds.
fn admit(
    shared: &Shared,
    rid: u64,
    machine: &str,
    strategy: &str,
    func_text: &str,
) -> Result<(Machine, Strategy, PrimFunc, String), Response> {
    let t = Instant::now();
    let out = match (resolve_machine(machine), resolve_strategy(strategy)) {
        (None, _) => Err(Response::Rejected {
            code: RejectCode::UnknownMachine,
            message: format!("unknown machine `{machine}` (expected gpu, arm, or arm-v86)"),
        }),
        (_, None) => Err(Response::Rejected {
            code: RejectCode::UnknownStrategy,
            message: format!("unknown strategy `{strategy}` (expected tensorir, ansor, or amos)"),
        }),
        (Some(m), Some(s)) => match parse_func(func_text) {
            Ok(f) => {
                let key = workload_key(&f);
                Ok((m, s, f, key))
            }
            Err(e) => Err(Response::Rejected {
                code: RejectCode::ParseError,
                message: format!("program does not parse: {e}"),
            }),
        },
    };
    shared.collector.span(
        "serve.admission",
        Key::coord(shared.trace_stream, rid, PH_ADMISSION),
        t.elapsed().as_secs_f64(),
        1,
    );
    out
}

/// The reply text of a warm hit: the text the database had in hand under
/// the lock, else printed now that the lock is released.
fn reply_text(best: &PrimFunc, text: Option<Arc<str>>) -> String {
    text.map_or_else(|| best.to_string(), |t| t.to_string())
}

fn handle_query(
    shared: &Arc<Shared>,
    rid: u64,
    machine: &str,
    strategy: &str,
    func_text: &str,
) -> Response {
    let t_req = Instant::now();
    let (m, s, _func, key) = match admit(shared, rid, machine, strategy, func_text) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let t = Instant::now();
    let hit = {
        let db = unpoisoned(shared.db.lock());
        let text = db.db().best_text(&m.name, s, &key);
        db.db()
            .peek(&m.name, s, &key)
            .map(|rec| (rec.best.clone(), rec.best_time, text))
    };
    shared.collector.span(
        "serve.db_lookup",
        Key::coord(shared.trace_stream, rid, PH_DB_LOOKUP),
        t.elapsed().as_secs_f64(),
        1,
    );
    match hit {
        Some((best, best_time, text)) => {
            let text = reply_text(&best, text);
            shared.collector.count("serve.warm_hits", 1);
            shared
                .collector
                .observe("serve.latency.warm_s", t_req.elapsed().as_secs_f64());
            Response::Result {
                source: Source::Warm,
                best_time,
                trials: 0,
                tuning_cost_s: 0.0,
                func_text: text,
            }
        }
        None => Response::Miss,
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_tune(
    shared: &Arc<Shared>,
    rid: u64,
    machine: &str,
    strategy: &str,
    trials: usize,
    priority: u8,
    func_text: &str,
) -> Response {
    if trials == 0 {
        return Response::Rejected {
            code: RejectCode::BadRequest,
            message: "trials must be at least 1".to_string(),
        };
    }
    let t_req = Instant::now();
    let (m, s, func, key) = match admit(shared, rid, machine, strategy, func_text) {
        Ok(v) => v,
        Err(resp) => return resp,
    };

    // Database lookup (counts a hit or a miss on the shared counters).
    let t = Instant::now();
    let hit = {
        let mut db = unpoisoned(shared.db.lock());
        let text = db.db().best_text(&m.name, s, &key);
        db.db_mut()
            .lookup(&m.name, s, &key)
            .map(|rec| (rec.budget, rec.best.clone(), rec.best_time, text))
    };
    shared.collector.span(
        "serve.db_lookup",
        Key::coord(shared.trace_stream, rid, PH_DB_LOOKUP),
        t.elapsed().as_secs_f64(),
        1,
    );

    if let Some((budget, best, best_time, text)) = hit {
        let text = reply_text(&best, text);
        if trials > budget {
            // Budget upgrade: answer warm now, re-tune in the background
            // warm-started from the stored best (the record can only
            // improve, never regress).
            enqueue_background(
                shared,
                &m,
                s,
                &key,
                &func,
                trials,
                WarmStart { best, best_time },
            );
        }
        shared.collector.count("serve.warm_hits", 1);
        shared
            .collector
            .observe("serve.latency.warm_s", t_req.elapsed().as_secs_f64());
        return Response::Result {
            source: Source::Warm,
            best_time,
            trials: 0,
            tuning_cost_s: 0.0,
            func_text: text,
        };
    }

    // Cold path: join an identical in-flight tune, or enqueue our own.
    enum Path {
        Owner(Arc<Job>),
        Joiner(Arc<Job>),
        Reject(Response),
    }
    let key3: JobKey = (m.name.clone(), s.label(), key.clone());
    let path = {
        let mut inflight = unpoisoned(shared.inflight.lock());
        if let Some(job) = inflight.get(&key3) {
            Path::Joiner(job.clone())
        } else {
            let mut queue = unpoisoned(shared.queue.lock());
            if shared.shutdown.load(Ordering::SeqCst) {
                Path::Reject(Response::Rejected {
                    code: RejectCode::ShuttingDown,
                    message: "server is shutting down; tuning work is no longer accepted"
                        .to_string(),
                })
            } else if queue.len() >= shared.cfg.queue_capacity {
                Path::Reject(Response::Rejected {
                    code: RejectCode::QueueFull,
                    message: format!(
                        "job queue at capacity ({} pending); retry later",
                        shared.cfg.queue_capacity
                    ),
                })
            } else {
                let job = Arc::new(Job {
                    machine: m,
                    strategy: s,
                    fingerprint: key,
                    func,
                    trials,
                    rid,
                    warm: None,
                    enqueued_at: Instant::now(),
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                inflight.insert(key3, job.clone());
                queue.push(QueueEntry {
                    priority,
                    seq: shared.job_seq.fetch_add(1, Ordering::Relaxed),
                    job: job.clone(),
                });
                shared.queue_cv.notify_one();
                Path::Owner(job)
            }
        }
    };

    match path {
        Path::Reject(resp) => resp,
        Path::Owner(job) => match job.wait() {
            Ok(tuned) => {
                shared.collector.count("serve.cold_tunes", 1);
                shared
                    .collector
                    .observe("serve.latency.cold_s", t_req.elapsed().as_secs_f64());
                Response::Result {
                    source: Source::Tuned,
                    best_time: tuned.best_time,
                    trials: tuned.trials,
                    tuning_cost_s: tuned.tuning_cost_s,
                    func_text: tuned.func_text,
                }
            }
            Err(message) => Response::Rejected {
                code: RejectCode::Internal,
                message,
            },
        },
        Path::Joiner(job) => match job.wait() {
            Ok(tuned) => {
                shared.collector.count("serve.dedup_joins", 1);
                Response::Result {
                    source: Source::Dedup,
                    best_time: tuned.best_time,
                    trials: tuned.trials,
                    tuning_cost_s: tuned.tuning_cost_s,
                    func_text: tuned.func_text,
                }
            }
            Err(message) => Response::Rejected {
                code: RejectCode::Internal,
                message,
            },
        },
    }
}

/// Enqueues a background (budget-upgrade) re-tune: lowest priority, no
/// waiting requester. Skipped when the fingerprint is already in
/// flight; dropped (and counted) when the queue is full.
fn enqueue_background(
    shared: &Arc<Shared>,
    machine: &Machine,
    strategy: Strategy,
    fingerprint: &str,
    func: &PrimFunc,
    trials: usize,
    warm: WarmStart,
) {
    let key3: JobKey = (
        machine.name.clone(),
        strategy.label(),
        fingerprint.to_string(),
    );
    let mut inflight = unpoisoned(shared.inflight.lock());
    if inflight.contains_key(&key3) {
        shared.collector.count("serve.background_skipped", 1);
        return;
    }
    let mut queue = unpoisoned(shared.queue.lock());
    if shared.shutdown.load(Ordering::SeqCst) || queue.len() >= shared.cfg.queue_capacity {
        shared.collector.count("serve.background_dropped", 1);
        return;
    }
    let rid = shared.rid.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        machine: machine.clone(),
        strategy,
        fingerprint: fingerprint.to_string(),
        func: func.clone(),
        trials,
        rid,
        warm: Some(warm),
        enqueued_at: Instant::now(),
        done: Mutex::new(None),
        cv: Condvar::new(),
    });
    inflight.insert(key3, job.clone());
    queue.push(QueueEntry {
        priority: 0,
        seq: shared.job_seq.fetch_add(1, Ordering::Relaxed),
        job,
    });
    shared.queue_cv.notify_one();
    shared.collector.count("serve.background_retunes", 1);
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Pop the highest-priority job; on shutdown, drain the queue
        // completely before exiting so no admitted requester is stranded.
        let job = {
            let mut queue = unpoisoned(shared.queue.lock());
            loop {
                if let Some(entry) = queue.pop() {
                    break Some(entry.job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = unpoisoned(shared.queue_cv.wait(queue));
            }
        };
        let Some(job) = job else { return };

        shared.collector.span(
            "serve.queue_wait",
            Key::coord(shared.trace_stream, job.rid, PH_QUEUE_WAIT),
            job.enqueued_at.elapsed().as_secs_f64(),
            1,
        );

        let t = Instant::now();
        let opts = TuneOptions {
            trials: job.trials,
            seed: shared.cfg.seed,
            warm_start: job.warm.clone(),
            ..TuneOptions::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let registry = builtin_registry();
            tune_workload(&job.func, &job.machine, &registry, job.strategy, &opts)
        }));
        shared.collector.span(
            "serve.tune",
            Key::coord(shared.trace_stream, job.rid, PH_TUNE),
            t.elapsed().as_secs_f64(),
            job.trials as u64,
        );

        let done = match outcome {
            Err(_) => Err("tuning worker panicked; the request was not retried".to_string()),
            Ok(result) => match TuningRecord::of_tune(&result, job.trials) {
                None => Err("search produced no valid program".to_string()),
                Some(record) => {
                    // Persist BEFORE removing from inflight (see the
                    // module docs' publication-order invariant), and
                    // BEFORE notifying the requester (the durability
                    // invariant: acknowledged ⇒ journaled + fsynced).
                    // The entry is built — the program printed, once —
                    // before the database lock is taken.
                    let entry = JournalEntry::new(
                        &job.machine.name,
                        job.strategy,
                        job.fingerprint.clone(),
                        record,
                    );
                    publish_with_retries(shared, &entry).map(|()| Tuned {
                        best_time: result.best_time,
                        trials: result.trials_measured,
                        tuning_cost_s: result.tuning_cost_s,
                        func_text: entry.best_text().to_string(),
                    })
                }
            },
        };
        if job.warm.is_some() {
            shared.collector.count("serve.background_done", 1);
        }
        unpoisoned(shared.inflight.lock()).remove(&job.key());
        *unpoisoned(job.done.lock()) = Some(done);
        job.cv.notify_all();
    }
}

/// Base backoff between publish retry attempts; doubles per attempt.
const SAVE_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Publishes one finished tune durably, with bounded retries.
///
/// * Success: the record is journaled + fsynced; the caller may
///   acknowledge the requester.
/// * Transient storage failure: retried up to
///   [`ServeConfig::save_retries`] times with doubling backoff, each
///   failure counted on `serve.db_save_failures`. If every attempt
///   fails the record stays in memory (still served warm by this
///   process), the daemon reports `db_degraded` in its stats, and the
///   requester is still answered — the tuning result itself is valid.
///   The next successful publish or the shutdown compaction folds the
///   record to disk.
/// * Simulated crash (chaos harness only — [`FaultIo`] never lets a
///   "dead" process touch storage again): the daemon treats itself as
///   crashed, fails the request, and initiates shutdown, so no client
///   ever gets an acknowledgement a real power loss would not have
///   produced.
fn publish_with_retries(shared: &Arc<Shared>, entry: &JournalEntry) -> Result<(), String> {
    let attempts = shared.cfg.save_retries.max(1);
    let mut backoff = SAVE_RETRY_BACKOFF;
    for attempt in 1..=attempts {
        // The lock is held for this one attempt only: requests for other
        // fingerprints are served while a failing disk is backed off from,
        // and requests for this one still find the job in flight (a failed
        // attempt leaves the record out of memory).
        let outcome = unpoisoned(shared.db.lock()).try_publish(entry);
        let Err(e) = outcome else { return Ok(()) };
        shared.collector.count("serve.db_save_failures", 1);
        if let DbError::Io(io) = &e {
            if FaultIo::is_crash_error(io) {
                begin_shutdown(shared);
                return Err(format!("database crashed during publish: {e}"));
            }
        }
        if attempt == attempts {
            eprintln!(
                "tir-serve: database publish failed after {attempts} attempts: {e} \
                 (record kept in memory; db degraded until the next compaction)"
            );
            let mut db = unpoisoned(shared.db.lock());
            db.keep_unjournaled(entry);
            return Ok(());
        }
        std::thread::sleep(backoff);
        backoff *= 2;
    }
    unreachable!("loop returns on success, crash, or final attempt")
}

/// The `stats` reply: one inline JSON object of live counters, keyed and
/// ordered as the metrics table of `docs/OPERATIONS.md`.
fn stats_json(shared: &Shared) -> String {
    let (records, db_hits, db_misses, journal_bytes, compactions, degraded) = {
        let db = unpoisoned(shared.db.lock());
        (
            db.db().len(),
            db.db().hits(),
            db.db().misses(),
            db.journal_bytes(),
            db.compactions(),
            db.unjournaled() > 0,
        )
    };
    let queue_depth = unpoisoned(shared.queue.lock()).len();
    let inflight = unpoisoned(shared.inflight.lock()).len();
    let report = shared.collector.report();
    let rejected: u64 = report
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.reject."))
        .map(|(_, v)| v)
        .sum();
    let mut w = JsonWriter::default();
    w.object(Layout::Inline, |w| {
        w.field("records", records)
            .field("db_hits", db_hits)
            .field("db_misses", db_misses)
            .field("queue_depth", queue_depth)
            .field("inflight", inflight)
            .field("warm_hits", report.counter("serve.warm_hits"))
            .field("cold_tunes", report.counter("serve.cold_tunes"))
            .field("dedup_joins", report.counter("serve.dedup_joins"))
            .field(
                "background_retunes",
                report.counter("serve.background_retunes"),
            )
            .field("background_done", report.counter("serve.background_done"))
            .field("rejected", rejected)
            .field("journal_bytes", journal_bytes)
            .field("compactions", compactions)
            .field("db_degraded", u64::from(degraded))
            .field("db_save_failures", report.counter("serve.db_save_failures"));
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(priority: u8, seq: u64) -> QueueEntry {
        QueueEntry {
            priority,
            seq,
            job: Arc::new(Job {
                machine: Machine::sim_gpu(),
                strategy: Strategy::TensorIr,
                fingerprint: String::new(),
                func: tir::builder::matmul_func("m", 16, 16, 16, tir::DataType::float32()),
                trials: 1,
                rid: seq,
                warm: None,
                enqueued_at: Instant::now(),
                done: Mutex::new(None),
                cv: Condvar::new(),
            }),
        }
    }

    /// A panic while holding the database lock poisons it. The daemon keeps
    /// answering: `stats`, `query` and a warm `tune` on a live connection,
    /// then a clean shutdown that compacts the database.
    #[test]
    fn a_panic_under_the_database_lock_does_not_stop_the_daemon() {
        use crate::client::{Client, ReconnectPolicy};
        use crate::protocol::Source;

        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let sock = dir.join(format!("tir-serve-poison-{pid}.sock"));
        let db = dir.join(format!("tir-serve-poison-{pid}.db"));
        let _ = std::fs::remove_file(&db);
        let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
        let text = tir_workloads::ops::gmm(
            16,
            16,
            16,
            tir::DataType::float16(),
            tir::DataType::float32(),
        )
        .to_string();
        let mut client = Client::connect_with(&sock, ReconnectPolicy::none()).expect("connect");
        let cold = client
            .tune("gpu", "tensorir", 2, 5, &text)
            .expect("cold tune");
        assert_eq!(cold.source, Source::Tuned);

        let shared = server.shared.clone();
        let panicked = std::thread::spawn(move || {
            let _db = shared.db.lock().expect("not yet poisoned");
            panic!("a request panics while it holds the database lock");
        })
        .join();
        assert!(panicked.is_err() && server.shared.db.is_poisoned());

        let stats = client.stats().expect("stats after the panic");
        assert_eq!(
            crate::client::stats_field(&stats, "records"),
            Some(1),
            "{stats}"
        );
        let hit = client
            .query("gpu", "tensorir", &text)
            .expect("query after the panic");
        assert_eq!(hit.expect("a stored record").func_text, cold.func_text);
        let warm = client
            .tune("gpu", "tensorir", 2, 5, &text)
            .expect("warm tune after the panic");
        assert_eq!((warm.source, warm.trials), (Source::Warm, 0));
        assert_eq!(warm.best_time.to_bits(), cold.best_time.to_bits());
        client.shutdown().expect("shutdown");
        server.join();
        let _ = std::fs::remove_file(tir_autoschedule::journal_path_for(&db));
        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        for (p, s) in [(1u8, 0u64), (9, 1), (1, 2), (9, 3), (0, 4)] {
            heap.push(entry(p, s));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.job.rid)).collect();
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
    }
}
