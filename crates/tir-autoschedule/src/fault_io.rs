//! Fault-injectable storage I/O for every file the tuner persists: the
//! tuning database's one append-only file ([`crate::journal`]) and the
//! tune checkpoint ([`crate::checkpoint`]).
//!
//! Both must stay consistent across crashes — a property that cannot be
//! tested by waiting for real power failures. This module abstracts the
//! handful of storage operations they perform behind the [`JournalIo`]
//! trait, with two implementations:
//!
//! * [`DiskIo`] — the production implementation: plain `std::fs`
//!   appends, `fsync`, atomic replace (write-temp + fsync + rename), and
//!   no-op crash points.
//! * [`FaultIo`] — a deterministic chaos implementation mirroring the
//!   measurement harness's `FaultInjector` (PR 3): every fault draw is a
//!   **pure function of `(seed, op index)`**, so a failing chaos run
//!   replays bit-identically from its seed. It injects short writes,
//!   torn records (a bit flip in the surviving tail), lost fsyncs
//!   (appended-but-unsynced bytes vanish at the crash), transient I/O
//!   errors, and **named crash points** — designated instants in the
//!   publish, compaction and checkpoint paths at which a simulated crash
//!   can be scheduled.
//!
//! # The crash model
//!
//! [`FaultIo`] models the kernel page cache explicitly: every tracked
//! file has *content* (what reads observe) and a *durable length* (what
//! survives a crash). `append` grows content; `fsync` advances the
//! durable length to the end; a simulated crash rewrites the real file
//! on disk to exactly the durable prefix — plus, when the crash happened
//! *inside* an append, a seeded partial fragment of that append
//! (optionally bit-flipped). After the crash every operation fails with
//! [`FaultIo::is_crash_error`]-recognizable errors, so the "process" can
//! do no further I/O, and a freshly started daemon reading the same
//! paths through [`DiskIo`] sees precisely what a real post-crash boot
//! would see.
//!
//! Atomic replace is modeled as atomic *and* durable (its contract is
//! write-temp + fsync + rename); directory-entry loss is deliberately
//! out of scope. Truncation is likewise modeled as immediately durable:
//! it only ever cuts a torn or unacknowledged tail, so no acknowledged
//! byte depends on its ordering.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use tir_rand::rngs::StdRng;
use tir_rand::{derive_seed, RngExt, SeedableRng};

/// The storage operations the database and the checkpoint perform, in the
/// order durability reasoning cares about. Every mutating call advances the
/// implementation's *op index*, the coordinate fault draws are keyed on.
pub trait JournalIo: Send {
    /// Reads the full contents of `path`; `Ok(None)` when it does not
    /// exist.
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>>;

    /// Appends `bytes` to `path`, creating the file if missing. The
    /// bytes are *not* durable until [`JournalIo::fsync`] succeeds.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Durably flushes all previous appends to `path`.
    fn fsync(&mut self, path: &Path) -> io::Result<()>;

    /// Atomically replaces `path` with `bytes` (write-temp + fsync +
    /// rename): afterwards the file holds either its old contents or
    /// exactly `bytes`, never a mix.
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `path` to its first `len` bytes: a torn tail's salvage, a
    /// failed append's repair, a checkpoint's cut back to its own log.
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;

    /// A named crash point. [`DiskIo`] ignores it; [`FaultIo`] crashes
    /// here when its spec schedules this `(name, occurrence)`.
    fn crash_point(&mut self, name: &str) -> io::Result<()>;
}

/// The production storage backend: plain filesystem operations, no-op
/// crash points.
#[derive(Debug, Default)]
pub struct DiskIo;

impl DiskIo {
    /// A fresh disk backend.
    pub fn new() -> DiskIo {
        DiskIo
    }
}

impl JournalIo for DiskIo {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)?
            .sync_all()
    }

    /// The bytes land in a sibling temp file first (`<path>.<ext>.tmp`),
    /// are fsynced, and only then renamed over `path`: on POSIX
    /// filesystems the rename is atomic, so a process killed at any
    /// instant leaves the complete old file or the complete new one. A
    /// failure may leave the temp file behind, never a touched `path`.
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut ext = path.extension().unwrap_or_default().to_os_string();
        ext.push(".tmp");
        let tmp = path.with_extension(ext);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn crash_point(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }
}

/// What [`FaultIo`] should break, and when. All draws are pure functions
/// of `(seed, op index)` — mirroring `FaultPlan` in [`crate::measure`] —
/// so any chaos outcome replays bit-identically from its spec.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Crash at the `n`-th hit (0-based) of the named crash point.
    pub crash_at_point: Option<(String, usize)>,
    /// Crash *inside* the append with this op index: a seeded prefix of
    /// the appended bytes survives (short write), optionally with one
    /// bit flipped (torn record).
    pub crash_in_append: Option<u64>,
    /// Probability that a mutating op fails with a transient I/O error
    /// (no crash; the file is untouched). Drawn per op index.
    pub fail_rate: f64,
    /// Mutating ops with index below this always fail transiently —
    /// a deterministic "storage down, then back" episode.
    pub fail_first_ops: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0x10_FA_17,
            crash_at_point: None,
            crash_in_append: None,
            fail_rate: 0.0,
            fail_first_ops: 0,
        }
    }
}

impl FaultSpec {
    /// A spec that crashes at occurrence `occurrence` of crash point
    /// `name`, with damage draws seeded by `seed`.
    pub fn crash_at(name: &str, occurrence: usize, seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            crash_at_point: Some((name.to_string(), occurrence)),
            ..Default::default()
        }
    }
}

/// Which concrete backend a daemon should build — `tir_serve::server::ServeConfig`
/// and tests pick declaratively so configurations stay `Clone`.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum IoProfile {
    /// Production: [`DiskIo`].
    #[default]
    Disk,
    /// Chaos: [`FaultIo`] with the given spec.
    Fault(FaultSpec),
}

impl IoProfile {
    /// Builds the backend this profile describes.
    pub fn build(&self) -> Box<dyn JournalIo> {
        match self {
            IoProfile::Disk => Box::new(DiskIo::new()),
            IoProfile::Fault(spec) => Box::new(FaultIo::new(spec.clone())),
        }
    }
}

/// Shadow state of one file: `content` is what reads observe (the page
/// cache view); only the first `durable_len` bytes survive a crash.
#[derive(Debug, Default, Clone)]
struct FileState {
    content: Vec<u8>,
    durable_len: usize,
}

/// Deterministic fault-injecting storage. See the module docs for the
/// crash model; see [`FaultSpec`] for the dials.
///
/// Writes pass through to the real filesystem (so a clean run leaves
/// the same files [`DiskIo`] would), but a simulated crash rewrites
/// each tracked file to its durable prefix — what a real machine would
/// find after power loss — and makes every later operation fail.
#[derive(Debug)]
pub struct FaultIo {
    spec: FaultSpec,
    op: u64,
    crashed: bool,
    point_hits: HashMap<String, usize>,
    files: HashMap<PathBuf, FileState>,
}

/// Marker prefix of every error a simulated crash produces.
const CRASH_MSG: &str = "simulated crash";

impl FaultIo {
    /// A fault backend driven by `spec`.
    pub fn new(spec: FaultSpec) -> FaultIo {
        FaultIo {
            spec,
            op: 0,
            crashed: false,
            point_hits: HashMap::new(),
            files: HashMap::new(),
        }
    }

    /// Whether the simulated crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Mutating ops performed so far (the op-index clock).
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Whether `e` is the error a simulated crash produces (as opposed
    /// to an injected *transient* failure, which is retryable).
    pub fn is_crash_error(e: &io::Error) -> bool {
        e.to_string().starts_with(CRASH_MSG)
    }

    fn crash_error() -> io::Error {
        io::Error::other(CRASH_MSG.to_string())
    }

    /// Pure per-op fault stream: `(seed, op)` and nothing else.
    fn rng_for(&self, op: u64) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.spec.seed, &[0x10, op]))
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op;
        self.op += 1;
        op
    }

    /// Injected transient failure for this op index?
    fn transient_failure(&self, op: u64) -> bool {
        if op < self.spec.fail_first_ops {
            return true;
        }
        self.spec.fail_rate > 0.0 && self.rng_for(op).random_f64() < self.spec.fail_rate
    }

    /// Loads the shadow state of `path`, reading the real file on first
    /// touch (its current bytes are considered durable: they were there
    /// before this process "booted").
    fn state(&mut self, path: &Path) -> io::Result<&mut FileState> {
        if !self.files.contains_key(path) {
            let content = match std::fs::read(path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let durable_len = content.len();
            self.files.insert(
                path.to_path_buf(),
                FileState {
                    content,
                    durable_len,
                },
            );
        }
        Ok(self.files.get_mut(path).expect("inserted above"))
    }

    /// Fires the simulated crash: every tracked file on the real
    /// filesystem is rewritten to its durable prefix (the appending file
    /// may carry `fragment` — the short-written, possibly bit-flipped
    /// tail of the in-flight append).
    fn crash(&mut self, appending: Option<(&Path, Vec<u8>)>) -> io::Error {
        self.crashed = true;
        for (path, st) in &self.files {
            let mut surviving = st.content[..st.durable_len].to_vec();
            if let Some((ap, fragment)) = &appending {
                if *ap == *path {
                    surviving.extend_from_slice(fragment);
                }
            }
            if surviving.is_empty() && !path.exists() {
                continue;
            }
            // Failing to materialize the crash state would invalidate
            // the harness, not the system under test.
            std::fs::write(path, &surviving).expect("chaos harness: materialize crash state");
        }
        Self::crash_error()
    }
}

impl JournalIo for FaultIo {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        if let Some(st) = self.files.get(path) {
            return Ok(Some(st.content.clone()));
        }
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        let op = self.next_op();
        if self.transient_failure(op) {
            return Err(io::Error::other(format!(
                "injected transient append failure (op {op})"
            )));
        }
        if self.spec.crash_in_append == Some(op) {
            // Short write: a seeded prefix of the append survives, and
            // with probability 1/2 one bit of that prefix is flipped (a
            // torn record). Pure in (seed, op).
            let mut rng = self.rng_for(op);
            let surviving = rng.random_range(0..bytes.len() + 1);
            let mut fragment = bytes[..surviving].to_vec();
            if !fragment.is_empty() && rng.random_f64() < 0.5 {
                let at = rng.random_range(0..fragment.len());
                let bit = rng.random_range(0u64..8) as u8;
                fragment[at] ^= 1 << bit;
            }
            self.state(path)?; // track the file before materializing
            return Err(self.crash(Some((path, fragment))));
        }
        let st = self.state(path)?;
        st.content.extend_from_slice(bytes);
        let content = st.content.clone();
        std::fs::write(path, content)?;
        Ok(())
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        let op = self.next_op();
        if self.transient_failure(op) {
            return Err(io::Error::other(format!(
                "injected transient fsync failure (op {op})"
            )));
        }
        let st = self.state(path)?;
        st.durable_len = st.content.len();
        Ok(())
    }

    fn replace(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        let op = self.next_op();
        if self.transient_failure(op) {
            return Err(io::Error::other(format!(
                "injected transient replace failure (op {op})"
            )));
        }
        let st = self.state(path)?;
        st.content = bytes.to_vec();
        st.durable_len = bytes.len();
        std::fs::write(path, bytes)?;
        Ok(())
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        let op = self.next_op();
        if self.transient_failure(op) {
            return Err(io::Error::other(format!(
                "injected transient truncate failure (op {op})"
            )));
        }
        let st = self.state(path)?;
        st.content.truncate(len as usize);
        st.durable_len = st.durable_len.min(len as usize);
        let content = st.content.clone();
        std::fs::write(path, content)?;
        Ok(())
    }

    fn crash_point(&mut self, name: &str) -> io::Result<()> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        let hits = self.point_hits.entry(name.to_string()).or_insert(0);
        let hit = *hits;
        *hits += 1;
        if let Some((want, occurrence)) = &self.spec.crash_at_point {
            if want == name && *occurrence == hit {
                return Err(self.crash(None));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-fault-io-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("f")
    }

    #[test]
    fn disk_io_append_fsync_read_roundtrip() {
        let path = tmpfile("disk");
        let _ = std::fs::remove_file(&path);
        let mut io = DiskIo::new();
        assert!(io.read(&path).unwrap().is_none());
        io.append(&path, b"hello ").unwrap();
        io.append(&path, b"world").unwrap();
        io.fsync(&path).unwrap();
        assert_eq!(io.read(&path).unwrap().unwrap(), b"hello world");
        io.truncate(&path, 5).unwrap();
        assert_eq!(io.read(&path).unwrap().unwrap(), b"hello");
        io.replace(&path, b"bye").unwrap();
        assert_eq!(io.read(&path).unwrap().unwrap(), b"bye");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsynced_appends_are_lost_at_crash() {
        let path = tmpfile("lost-fsync");
        let _ = std::fs::remove_file(&path);
        let mut io = FaultIo::new(FaultSpec::crash_at("p", 0, 7));
        io.append(&path, b"durable|").unwrap();
        io.fsync(&path).unwrap();
        io.append(&path, b"volatile").unwrap(); // never fsynced
        assert_eq!(io.read(&path).unwrap().unwrap(), b"durable|volatile");
        let err = io.crash_point("p").unwrap_err();
        assert!(FaultIo::is_crash_error(&err));
        assert!(io.crashed());
        // The real file holds exactly the durable prefix.
        assert_eq!(std::fs::read(&path).unwrap(), b"durable|");
        // The "process" can do no further I/O.
        assert!(io.append(&path, b"x").is_err());
        assert!(io.read(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_in_append_leaves_a_seeded_fragment_deterministically() {
        for seed in 0..16u64 {
            let path = tmpfile("short-write");
            let _ = std::fs::remove_file(&path);
            let run = |path: &Path| {
                let mut io = FaultIo::new(FaultSpec {
                    seed,
                    crash_in_append: Some(2),
                    ..Default::default()
                });
                io.append(path, b"AAAA").unwrap();
                io.fsync(path).unwrap();
                let err = io.append(path, b"BBBBBBBB").unwrap_err();
                assert!(FaultIo::is_crash_error(&err));
                std::fs::read(path).unwrap()
            };
            let first = run(&path);
            let _ = std::fs::remove_file(&path);
            let second = run(&path);
            assert_eq!(first, second, "seed {seed}: crash damage must replay");
            assert!(first.starts_with(b"AAAA"), "durable prefix survives");
            assert!(first.len() <= b"AAAA".len() + b"BBBBBBBB".len());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn crash_points_fire_on_the_scheduled_occurrence_only() {
        let path = tmpfile("points");
        let _ = std::fs::remove_file(&path);
        let mut io = FaultIo::new(FaultSpec::crash_at("publish.post_fsync", 2, 1));
        io.crash_point("publish.post_fsync").unwrap(); // hit 0
        io.crash_point("other.point").unwrap();
        io.crash_point("publish.post_fsync").unwrap(); // hit 1
        let err = io.crash_point("publish.post_fsync").unwrap_err(); // hit 2
        assert!(FaultIo::is_crash_error(&err));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_failures_do_not_crash_and_are_retryable() {
        let path = tmpfile("transient");
        let _ = std::fs::remove_file(&path);
        let mut io = FaultIo::new(FaultSpec {
            fail_first_ops: 2,
            ..Default::default()
        });
        let e1 = io.append(&path, b"x").unwrap_err();
        assert!(!FaultIo::is_crash_error(&e1));
        assert!(!io.crashed());
        let e2 = io.append(&path, b"x").unwrap_err();
        assert!(!FaultIo::is_crash_error(&e2));
        // Third attempt (op 2) succeeds; nothing was written by the
        // failed ones.
        io.append(&path, b"x").unwrap();
        io.fsync(&path).unwrap();
        assert_eq!(io.read(&path).unwrap().unwrap(), b"x");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fail_rate_draws_are_pure_in_seed_and_op() {
        let a = FaultIo::new(FaultSpec {
            seed: 9,
            fail_rate: 0.5,
            ..Default::default()
        });
        let b = FaultIo::new(FaultSpec {
            seed: 9,
            fail_rate: 0.5,
            ..Default::default()
        });
        for op in 0..64 {
            assert_eq!(a.transient_failure(op), b.transient_failure(op));
        }
    }
}
