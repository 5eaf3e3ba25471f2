//! # tir-serve — tuning as a service
//!
//! The paper's auto-scheduler (§4.4) amortizes its search cost across
//! users: once an operator has been tuned for a machine, *nobody* should
//! pay that search again. This crate is the amortization vehicle — a
//! long-lived daemon that owns the persistent
//! [`tir_autoschedule::TuningDatabase`] and serves tune/query requests
//! from many concurrent clients over a local Unix socket:
//!
//! * [`protocol`] — the line-delimited wire protocol: requests,
//!   responses, rejection codes, with `f64`s carried as IEEE-754 bits so
//!   results are **bit-exact** over the wire;
//! * [`server`] — the daemon: admission control (bounded queue,
//!   reject-with-reason), a priority job queue drained by a worker pool,
//!   in-flight deduplication (the second requester of a fingerprint
//!   blocks on the first's result instead of re-tuning), warm answers
//!   straight from the database, and background re-tuning on budget
//!   upgrades — all with [`tir_trace`] spans on every request phase;
//! * [`client`] — a blocking client for the protocol, used by the
//!   `serve-smoke` benchmark, the integration tests, and operators'
//!   scripts.
//!
//! The database is a [`tir_autoschedule::JournaledDb`], one append-only
//! file: each publish appends one checksummed, fsynced entry (O(1) in the
//! database size), and a compaction on shutdown rewrites the file as one
//! entry per record, atomically. A request is acknowledged
//! only after its record is fsynced, so a killed and restarted daemon —
//! even one killed mid-append — answers every previously acknowledged
//! fingerprint from disk, warm, bit-identically, with zero additional
//! trials. The chaos harness (`tests/serve_chaos.rs`) enforces exactly
//! that at every injected crash point.
//!
//! Operational documentation — running the daemon, the database file's
//! guarantees, metrics interpretation, and a troubleshooting table for
//! every rejection reason — lives in `docs/OPERATIONS.md` at the
//! repository root.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ReconnectPolicy, TuneReply};
pub use protocol::{RejectCode, Request, Response, Source};
pub use server::{ServeConfig, Server, StartError};
