//! A blocking client for the daemon's wire protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time;
//! for concurrent requests, open one client per thread (the daemon
//! deduplicates identical in-flight tunes server-side, so N clients
//! tuning the same workload cost one search).
//!
//! # Robustness
//!
//! The client mirrors the measurement harness's `measure_with_retries`
//! semantics on the wire:
//!
//! * **Reconnect with capped backoff** — when the connection drops (the
//!   daemon restarted, a stale socket), the client transparently
//!   redials and replays the request, up to
//!   [`ReconnectPolicy::max_retries`] times with doubling, capped
//!   backoff. Replay is safe because every request is idempotent: a
//!   re-sent tune lands warm or joins the in-flight search.
//! * **Per-request deadline** — [`Client::set_deadline`] bounds every
//!   socket read while awaiting a response; a server that stalls longer
//!   than the deadline yields a typed [`ClientError::Timeout`], which
//!   is *not* retried (the caller decides whether the work is still
//!   worth waiting for).

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::protocol::{RejectCode, Request, Response, Source};

/// The integer `key` of a `stats` reply (the daemon's flat JSON object of
/// counters, keyed as `docs/OPERATIONS.md` tabulates them), or `None`
/// when the reply has no such key.
pub fn stats_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
    json[at..at + digits].parse().ok()
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or was dropped mid-message (after
    /// exhausting [`ReconnectPolicy::max_retries`] redials).
    Io(std::io::Error),
    /// The server's bytes were not a well-formed response (version skew
    /// or a protocol bug).
    Protocol(String),
    /// The server did not answer within the configured
    /// [`Client::set_deadline`]. The connection is dropped (a late
    /// answer must not be misread as the reply to the *next* request);
    /// the next call redials.
    Timeout {
        /// The deadline that expired.
        after: Duration,
    },
    /// The server refused the request; `code` says why (see the
    /// troubleshooting table in `docs/OPERATIONS.md`).
    Rejected {
        /// Machine-readable rejection reason.
        code: RejectCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Timeout { after } => {
                write!(f, "no response within {:.3}s", after.as_secs_f64())
            }
            ClientError::Rejected { code, message } => {
                write!(f, "rejected ({}): {message}", code.as_str())
            }
        }
    }
}

/// Redial policy for dropped connections, mirroring the measurement
/// harness's `RetryPolicy` (doubling backoff with a cap).
#[derive(Clone, Debug)]
pub struct ReconnectPolicy {
    /// Redials attempted per request after the first failure; `0`
    /// disables reconnection.
    pub max_retries: u32,
    /// Delay before the first redial; doubles per retry.
    pub backoff_base: Duration,
    /// Cap on a single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl ReconnectPolicy {
    /// No reconnection: the first connection failure surfaces as
    /// [`ClientError::Io`]. Useful in tests that assert on connection
    /// lifecycle, and for callers that manage redialing themselves.
    pub fn none() -> ReconnectPolicy {
        ReconnectPolicy {
            max_retries: 0,
            ..ReconnectPolicy::default()
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A tuned program as served by the daemon. `best_time` and
/// `tuning_cost_s` are transported as IEEE-754 bits, so they are
/// bit-identical to the server's (and the database's) values.
#[derive(Clone, Debug)]
pub struct TuneReply {
    /// Where the answer came from: [`Source::Warm`] (database, zero
    /// cost), [`Source::Tuned`] (a search ran), or [`Source::Dedup`]
    /// (joined an identical in-flight search).
    pub source: Source,
    /// Simulated execution time of the best program, seconds.
    pub best_time: f64,
    /// Trials this request paid for (0 on warm hits).
    pub trials: usize,
    /// Tuning cost this request paid for, seconds (0.0 on warm hits).
    pub tuning_cost_s: f64,
    /// The best program's text (TVMScript dialect).
    pub func_text: String,
}

/// A blocking connection to a `tir-serve` daemon.
///
/// # Examples
///
/// Start an in-process daemon, probe it, and shut it down:
///
/// ```
/// use tir::DataType;
/// use tir_serve::client::Client;
/// use tir_serve::server::{ServeConfig, Server};
/// use tir_workloads::ops;
///
/// let dir = std::env::temp_dir();
/// let sock = dir.join(format!("tir-serve-doc-{}.sock", std::process::id()));
/// let db = dir.join(format!("tir-serve-doc-{}.db", std::process::id()));
/// let server = Server::start(ServeConfig::new(&sock, &db)).unwrap();
///
/// let mut client = Client::connect(&sock).unwrap();
/// client.ping().unwrap();
///
/// // Nothing tuned yet: a query is a miss, never an implicit tune.
/// let gmm = ops::gmm(32, 32, 32, DataType::float16(), DataType::float32());
/// let reply = client.query("gpu", "tensorir", &gmm.to_string()).unwrap();
/// assert!(reply.is_none());
///
/// client.shutdown().unwrap();
/// server.join();
/// # let _ = std::fs::remove_file(&db);
/// ```
pub struct Client {
    socket_path: PathBuf,
    conn: Option<Conn>,
    policy: ReconnectPolicy,
    deadline: Option<Duration>,
}

/// One live dialed connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects, with `deadline` as the socket's read timeout.
    fn dial(socket_path: &Path, deadline: Option<Duration>) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket_path)?;
        stream.set_read_timeout(deadline)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Client {
    /// Connects to the daemon listening on `socket_path`, with the
    /// default [`ReconnectPolicy`] and no deadline.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket does not exist or refuses
    /// the connection (is the daemon running? see `docs/OPERATIONS.md`).
    pub fn connect(socket_path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::connect_with(socket_path, ReconnectPolicy::default())
    }

    /// Connects with an explicit redial policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the initial dial fails (the policy
    /// governs *re*connection of an established client, not the first
    /// dial — failing fast here keeps "daemon not running" obvious).
    pub fn connect_with(
        socket_path: impl AsRef<Path>,
        policy: ReconnectPolicy,
    ) -> Result<Client, ClientError> {
        let socket_path = socket_path.as_ref().to_path_buf();
        let conn = Conn::dial(&socket_path, None)?;
        Ok(Client {
            socket_path,
            conn: Some(conn),
            policy,
            deadline: None,
        })
    }

    /// Bounds every subsequent request: if the server stalls longer
    /// than `deadline` while this client awaits its response, the call
    /// fails with [`ClientError::Timeout`]. `None` (the default) waits
    /// indefinitely — cold tunes legitimately take a while.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        // A connection that refuses the new timeout is dropped; the next
        // call redials with it.
        if let Some(conn) = &self.conn {
            if conn.reader.get_ref().set_read_timeout(deadline).is_err() {
                self.conn = None;
            }
        }
    }

    /// Sends one request and reads one response, redialing dropped
    /// connections per the [`ReconnectPolicy`] and mapping server
    /// rejections to [`ClientError::Rejected`].
    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut backoff = self.policy.backoff_base;
        let mut retries = 0u32;
        loop {
            match self.try_roundtrip(req) {
                // Only connection-level failures are worth a redial;
                // timeouts, rejections, and protocol skew are not cured
                // by reconnecting (and a timed-out tune may still be
                // running server-side — the caller decides).
                Err(ClientError::Io(_)) if retries < self.policy.max_retries => {
                    retries += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.policy.backoff_cap);
                }
                other => return other,
            }
        }
    }

    /// One attempt: dial if disconnected, write, await the response.
    /// Any failure other than a semantic rejection leaves the stream in
    /// an unknown state, so the connection is dropped (the next attempt
    /// redials).
    fn try_roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let out = (|| {
            if self.conn.is_none() {
                self.conn = Some(Conn::dial(&self.socket_path, self.deadline)?);
            }
            let conn = self.conn.as_mut().expect("dialed above");
            req.write(&mut conn.writer)?;
            conn.writer.flush()?;
            match Response::read(&mut conn.reader) {
                Err(e) => match self.deadline {
                    Some(after) if is_timeout(&e) => Err(ClientError::Timeout { after }),
                    _ => Err(ClientError::Io(e)),
                },
                // EOF mid-request means the daemon went away: an I/O
                // condition (retryable), not protocol skew.
                Ok(None) => Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))),
                Ok(Some(Err(msg))) => Err(ClientError::Protocol(msg)),
                Ok(Some(Ok(Response::Rejected { code, message }))) => {
                    Err(ClientError::Rejected { code, message })
                }
                Ok(Some(Ok(resp))) => Ok(resp),
            }
        })();
        if !matches!(&out, Ok(_) | Err(ClientError::Rejected { .. })) {
            self.conn = None;
        }
        out
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connection failure or a non-`pong` answer.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Tunes `func_text` for `machine` under `strategy` with a budget of
    /// `trials`, at `priority` (0–9, higher served first). Already-tuned
    /// workloads answer warm (zero cost) without searching; a larger
    /// budget than the stored one triggers a background re-tune.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with the server's reason (full queue,
    /// unknown machine/strategy, unparseable program, …), or a
    /// connection/protocol error.
    pub fn tune(
        &mut self,
        machine: &str,
        strategy: &str,
        trials: usize,
        priority: u8,
        func_text: &str,
    ) -> Result<TuneReply, ClientError> {
        let req = Request::Tune {
            machine: machine.to_string(),
            strategy: strategy.to_string(),
            trials,
            priority,
            func_text: func_text.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Result {
                source,
                best_time,
                trials,
                tuning_cost_s,
                func_text,
            } => Ok(TuneReply {
                source,
                best_time,
                trials,
                tuning_cost_s,
                func_text,
            }),
            other => Err(unexpected("result", &other)),
        }
    }

    /// Probes the database without ever tuning: `Ok(None)` when the
    /// workload has no stored record.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] for invalid machine/strategy/program,
    /// or a connection/protocol error.
    pub fn query(
        &mut self,
        machine: &str,
        strategy: &str,
        func_text: &str,
    ) -> Result<Option<TuneReply>, ClientError> {
        let req = Request::Query {
            machine: machine.to_string(),
            strategy: strategy.to_string(),
            func_text: func_text.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::Miss => Ok(None),
            Response::Result {
                source,
                best_time,
                trials,
                tuning_cost_s,
                func_text,
            } => Ok(Some(TuneReply {
                source,
                best_time,
                trials,
                tuning_cost_s,
                func_text,
            })),
            other => Err(unexpected("result or miss", &other)),
        }
    }

    /// Fetches the server's counters as a JSON string.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connection or protocol failure.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the daemon to shut down gracefully: it stops accepting
    /// work, drains already-queued jobs, persists the database, and
    /// exits.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connection or protocol failure.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("bye", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
