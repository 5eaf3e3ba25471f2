//! Crash-consistent write-ahead journal for the tuning database.
//!
//! The tuning database is the fleet's durable asset: once an operator is
//! tuned, every later request is answered warm from disk. Persisting it
//! by rewriting the whole file per publish is O(db) *and* fragile — any
//! damage used to be a fatal [`DbError::Corrupt`]. This module replaces
//! rewrite-per-publish with the classic write-ahead-journal shape:
//!
//! * the **snapshot** (`tir-tuning-database v2`, the existing format)
//!   holds the database as of the last compaction, written atomically;
//! * the **journal** (`<db path>.journal`, format
//!   `tir-tuning-db-journal v2`) is append-only: each published record
//!   becomes one length-prefixed, checksummed entry reusing the
//!   snapshot's hex-bit `record` encoding — an O(1) append + fsync per
//!   publish, regardless of database size;
//! * **recovery** loads the snapshot, then replays the journal's valid
//!   prefix. Tail-only damage (a torn final entry — the signature of a
//!   crash mid-append) is *salvaged*: the torn tail is truncated and
//!   every complete entry is kept. Damage in the middle of the journal
//!   — which no crash of ours can produce — stays a typed
//!   [`DbError::Corrupt`] with the byte offset;
//! * **compaction** folds journal + memory state into a fresh snapshot
//!   (atomic replace) and resets the journal — on shutdown, and inline
//!   once the journal grows past [`JournaledDb::compact_threshold`].
//!   Replay is idempotent (entries are keyed inserts), so a crash
//!   between the snapshot write and the journal reset merely replays
//!   records the snapshot already has.
//!
//! # The durability invariant
//!
//! [`JournaledDb::publish`] returns `Ok` only after the entry is
//! appended **and fsynced**; the daemon acknowledges a tune to its
//! client only after `publish` returns. Therefore *acknowledged ⇒
//! durable*: a crash at any instant loses at most records that were
//! never acknowledged. The chaos harness (`tir-serve`'s
//! `serve_chaos.rs`) enumerates every named crash point and asserts
//! exactly this, bit-identically.
//!
//! All storage goes through [`crate::fault_io::JournalIo`], so the same
//! code path runs in production (against [`crate::fault_io::DiskIo`])
//! and under deterministic chaos (against
//! [`crate::fault_io::FaultIo`]).
//!
//! # Journal entry framing
//!
//! ```text
//! tir-tuning-db-journal v2\n
//! entry <payload-bytes> <fnv1a64-hex>\n
//! record <machine_len> <strategy_len> <key_len> <best_len> <best_time> <trials> <budget> <cost>\n
//! <machine>\n<strategy>\n<key>\n<best program>\n
//! entry …
//! ```
//!
//! The FNV-1a checksum covers the payload bytes, so a bit flip anywhere
//! in an entry is detected, and the length prefix makes the valid
//! prefix of a torn journal decidable without trusting damaged bytes.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::baseline::Strategy;
use crate::database::{
    bad_header, decode_record, encode_record, Cursor, DbError, TuningDatabase, TuningRecord,
};
use crate::fault_io::JournalIo;

/// Magic + version header of the journal file; bump on any change.
pub const JOURNAL_HEADER: &str = "tir-tuning-db-journal v2";

/// Named crash points in the publish path, in order. The chaos harness
/// enumerates these; [`crate::fault_io::FaultIo`] can crash at any of
/// them (plus *inside* the append itself, via
/// [`crate::fault_io::FaultSpec::crash_in_append`]).
pub const PUBLISH_CRASH_POINTS: &[&str] =
    &["publish.begin", "publish.pre_fsync", "publish.post_fsync"];

/// Named crash points in the compaction path, in order.
pub const COMPACT_CRASH_POINTS: &[&str] = &["compact.begin", "compact.pre_truncate", "compact.end"];

/// Named crash points in a tune checkpoint's append of one generation
/// ([`crate::checkpoint`]), in order.
pub const CHECKPOINT_CRASH_POINTS: &[&str] = &["checkpoint.pre_fsync", "checkpoint.post_fsync"];

/// FNV-1a 64-bit: dependency-free, stable, good enough to detect any
/// single- or few-bit corruption in an entry payload.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Derives the journal path that rides alongside a snapshot path:
/// `tuning.db` → `tuning.db.journal`.
pub fn journal_path_for(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// What recovery found and did. Returned by [`JournaledDb::open`] so
/// the daemon can log (and its stats can expose) exactly how the store
/// came back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records loaded from the snapshot.
    pub snapshot_records: usize,
    /// Journal entries replayed on top of the snapshot.
    pub journal_replayed: usize,
    /// Bytes of torn journal tail truncated (0 on a clean boot).
    pub salvaged_bytes: usize,
    /// Valid journal bytes retained after recovery.
    pub journal_bytes: usize,
}

impl RecoveryReport {
    /// Whether recovery had to salvage a torn tail.
    pub fn salvaged(&self) -> bool {
        self.salvaged_bytes > 0
    }
}

/// Outcome of one [`JournaledDb::publish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Bytes appended to the journal for this record.
    pub appended_bytes: usize,
    /// Whether this publish tripped the size threshold and compacted.
    pub compacted: bool,
}

/// One record framed for the journal. Building it prints the program and
/// checksums the payload — all of a publish that grows with the program —
/// and needs nothing from the store, so a caller sharing the store behind
/// a lock builds the entry first and holds the lock only for
/// [`JournaledDb::try_publish`].
pub struct JournalEntry {
    machine: String,
    strategy: Strategy,
    key: String,
    record: TuningRecord,
    best_text: Arc<str>,
    /// `entry <len> <fnv1a64>\n<record block>`: the bytes appended.
    framed: String,
}

impl JournalEntry {
    /// Frames `record` for `(machine, strategy, key)`.
    pub fn new(machine: &str, strategy: Strategy, key: String, record: TuningRecord) -> Self {
        let best_text: Arc<str> = record.best.to_string().into();
        let payload = encode_record(machine, strategy.label(), &key, &record, &best_text);
        let mut framed = String::with_capacity(payload.len() + 32);
        frame_into(&mut framed, &payload);
        JournalEntry {
            machine: machine.to_string(),
            strategy,
            key,
            record,
            best_text,
            framed,
        }
    }

    /// The printed text of the record's best program, as journaled.
    pub fn best_text(&self) -> &Arc<str> {
        &self.best_text
    }
}

/// The persistent tuning database: an in-memory [`TuningDatabase`]
/// backed by a snapshot file plus a write-ahead journal, all I/O
/// indirected through a [`JournalIo`] so crash consistency is testable.
pub struct JournaledDb {
    db: TuningDatabase,
    io: Box<dyn JournalIo>,
    snapshot_path: PathBuf,
    journal_path: PathBuf,
    /// Current journal length in bytes (0 when absent/reset).
    journal_bytes: usize,
    /// Journal size past which a publish folds into the snapshot.
    pub compact_threshold: usize,
    /// Compactions performed over this store's lifetime.
    compactions: usize,
    /// Threshold compactions that failed transiently (the journal keeps
    /// growing; durability is unaffected).
    compact_failures: usize,
    /// Records whose journal append failed and that therefore live only
    /// in memory — the degraded state. Cleared by a successful compact.
    unjournaled: usize,
}

impl JournaledDb {
    /// Default [`JournaledDb::compact_threshold`]: 256 KiB of journal.
    pub const DEFAULT_COMPACT_THRESHOLD: usize = 256 * 1024;

    /// Opens (or creates) the store at `db_path`, running crash
    /// recovery: load the snapshot, replay the journal's valid prefix,
    /// salvage a torn tail.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on storage failure; [`DbError::Corrupt`] when
    /// the snapshot is damaged anywhere, or the journal is damaged
    /// *before* its final entry (tail-only damage is salvaged, not an
    /// error).
    pub fn open(
        mut io: Box<dyn JournalIo>,
        db_path: &Path,
    ) -> Result<(JournaledDb, RecoveryReport), DbError> {
        let snapshot_path = db_path.to_path_buf();
        let journal_path = journal_path_for(db_path);
        // The snapshot is written atomically, so damage there is real
        // external corruption: strict, never salvaged.
        let db = match io.read(&snapshot_path)? {
            None => TuningDatabase::new(),
            Some(bytes) => match String::from_utf8(bytes) {
                Ok(text) => TuningDatabase::decode(&text)?,
                Err(e) => {
                    return Err(DbError::Corrupt {
                        offset: e.utf8_error().valid_up_to(),
                        reason: "snapshot is not valid UTF-8".to_string(),
                    })
                }
            },
        };
        let mut store = JournaledDb {
            db,
            io,
            snapshot_path,
            journal_path,
            journal_bytes: 0,
            compact_threshold: Self::DEFAULT_COMPACT_THRESHOLD,
            compactions: 0,
            compact_failures: 0,
            unjournaled: 0,
        };
        let mut report = RecoveryReport {
            snapshot_records: store.db.len(),
            ..Default::default()
        };
        if let Some(bytes) = store.io.read(&store.journal_path)? {
            let (replayed, valid_len) = replay(&mut store.db, &bytes)?;
            report.journal_replayed = replayed;
            report.salvaged_bytes = bytes.len() - valid_len;
            report.journal_bytes = valid_len;
            if report.salvaged_bytes > 0 {
                // Drop the torn tail so the next append starts at a
                // record boundary.
                store.io.truncate(&store.journal_path, valid_len as u64)?;
            }
            store.journal_bytes = valid_len;
        }
        Ok((store, report))
    }

    /// The in-memory database (lookups, counters, iteration).
    pub fn db(&self) -> &TuningDatabase {
        &self.db
    }

    /// Mutable access to the in-memory database. Inserts made here are
    /// **not** journaled — use [`JournaledDb::publish`] for durable
    /// writes; this is the degraded keep-it-in-memory path and the
    /// counter-bumping lookup path.
    pub fn db_mut(&mut self) -> &mut TuningDatabase {
        &mut self.db
    }

    /// Current journal size in bytes.
    pub fn journal_bytes(&self) -> usize {
        self.journal_bytes
    }

    /// Compactions performed by this store instance.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Threshold compactions that failed transiently.
    pub fn compact_failures(&self) -> usize {
        self.compact_failures
    }

    /// Records held only in memory because their journal append failed
    /// — the degraded state operators alarm on. Cleared to zero by the
    /// first successful [`JournaledDb::compact`].
    pub fn unjournaled(&self) -> usize {
        self.unjournaled
    }

    /// Publishes one record durably: appends one journal entry, fsyncs,
    /// and inserts it in memory — O(1) in the database size. On `Ok`, the
    /// record survives any crash. The append tripping
    /// [`JournaledDb::compact_threshold`] also folds the journal into
    /// the snapshot (a transient compaction failure is *not* a publish
    /// failure — the record is already durable; it is counted in
    /// [`JournaledDb::compact_failures`]).
    ///
    /// On `Err`, the record is still present in memory but **not
    /// durable**: the caller owns the retry policy (publish is
    /// idempotent — a duplicate entry replays as a keyed re-insert) and
    /// the store counts it in [`JournaledDb::unjournaled`] until a
    /// compaction succeeds. A caller that must not show a record before it
    /// is durable — or that shares the store behind a lock and wants the
    /// encoding done outside it — drives the same steps itself:
    /// [`JournalEntry::new`], [`JournaledDb::try_publish`] per attempt,
    /// [`JournaledDb::keep_unjournaled`] on giving up.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] when the append or fsync failed; the journal is
    /// best-effort repaired (truncated back to the last good boundary)
    /// so a *later* publish cannot leave damage mid-file.
    pub fn publish(
        &mut self,
        machine: &str,
        strategy: Strategy,
        key: String,
        record: TuningRecord,
    ) -> Result<PublishOutcome, DbError> {
        let entry = JournalEntry::new(machine, strategy, key, record);
        let outcome = self.try_publish(&entry);
        if outcome.is_err() {
            self.keep_unjournaled(&entry);
        }
        outcome
    }

    /// One attempt at making `entry` durable: append, fsync, and only then
    /// insert the record in memory (and compact, as [`JournaledDb::publish`]
    /// describes). A failed append leaves memory untouched, so nobody is
    /// served a record that a crash could still lose; the attempt can be
    /// repeated with the same entry.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] when the append or fsync failed, or when the store
    /// was degraded and the compaction that would have cleared it failed
    /// too (this record is then journaled and in memory; older ones are
    /// still memory-only).
    pub fn try_publish(&mut self, entry: &JournalEntry) -> Result<PublishOutcome, DbError> {
        let appended_bytes = self.append_durably(&entry.framed)?;
        self.insert_entry(entry);
        // A previously degraded record becomes durable with the rest of
        // the memory state once a compaction folds it into the snapshot;
        // force one on the next opportunity.
        let over_threshold = self.journal_bytes > self.compact_threshold;
        let mut compacted = false;
        if over_threshold || self.unjournaled > 0 {
            match self.compact() {
                Ok(()) => compacted = true,
                Err(_) if self.unjournaled == 0 => self.compact_failures += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(PublishOutcome {
            appended_bytes,
            compacted,
        })
    }

    /// Gives up on journaling `entry`: the record is kept in memory only
    /// and counted in [`JournaledDb::unjournaled`] — the degraded state —
    /// until a compaction folds it into the snapshot.
    pub fn keep_unjournaled(&mut self, entry: &JournalEntry) {
        self.insert_entry(entry);
        self.unjournaled += 1;
    }

    fn insert_entry(&mut self, entry: &JournalEntry) {
        self.db.store(
            &entry.machine,
            entry.strategy,
            &entry.key,
            entry.record.clone(),
            Some(entry.best_text.clone()),
        );
    }

    /// Appends `entry` (with the journal header first when the journal
    /// is empty) and fsyncs; returns bytes appended. On failure the
    /// journal is repaired back to `journal_bytes` best-effort.
    fn append_durably(&mut self, entry: &str) -> Result<usize, DbError> {
        let io = &mut self.io;
        let mut run = || -> io::Result<usize> {
            io.crash_point("publish.begin")?;
            let mut bytes = Vec::with_capacity(entry.len() + 32);
            if self.journal_bytes == 0 {
                bytes.extend_from_slice(JOURNAL_HEADER.as_bytes());
                bytes.push(b'\n');
            }
            bytes.extend_from_slice(entry.as_bytes());
            io.append(&self.journal_path, &bytes)?;
            io.crash_point("publish.pre_fsync")?;
            io.fsync(&self.journal_path)?;
            io.crash_point("publish.post_fsync")?;
            Ok(bytes.len())
        };
        match run() {
            Ok(n) => {
                self.journal_bytes += n;
                Ok(n)
            }
            Err(e) => {
                // A failed append may have left a partial entry behind;
                // cutting back to the last good boundary keeps any
                // damage tail-only (and recovery salvages tails).
                let _ = self
                    .io
                    .truncate(&self.journal_path, self.journal_bytes as u64);
                Err(DbError::Io(e))
            }
        }
    }

    /// Folds the journal into the snapshot: writes the full database
    /// atomically, then resets the journal to empty. Also persists the
    /// hit/miss counters (journal entries do not carry them). Clears
    /// the degraded [`JournaledDb::unjournaled`] state — after a
    /// successful compact, everything in memory is on disk.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on storage failure. The order (snapshot first,
    /// journal reset second, replay idempotent) means a crash anywhere
    /// inside loses nothing.
    pub fn compact(&mut self) -> Result<(), DbError> {
        self.io.crash_point("compact.begin")?;
        let snapshot = self.db.encode();
        self.io.replace(&self.snapshot_path, snapshot.as_bytes())?;
        self.io.crash_point("compact.pre_truncate")?;
        if self.journal_bytes > 0 {
            self.io.truncate(&self.journal_path, 0)?;
        }
        self.journal_bytes = 0;
        self.compactions += 1;
        self.unjournaled = 0;
        self.io.crash_point("compact.end")?;
        Ok(())
    }
}

/// Replays journal `bytes` into `db`. Returns `(entries replayed,
/// valid prefix length)`; a torn tail shortens the valid prefix, while
/// mid-file damage is a [`DbError::Corrupt`] at its byte offset.
fn replay(db: &mut TuningDatabase, bytes: &[u8]) -> Result<(usize, usize), DbError> {
    read_frames("journal", JOURNAL_HEADER, bytes, |payload, _| {
        let mut cursor = Cursor {
            text: payload,
            pos: 0,
        };
        let decoded = decode_record(&mut cursor).map_err(|e| format!("entry payload: {e}"))?;
        if !cursor.at_end() {
            return Err("trailing bytes inside entry payload".to_string());
        }
        decoded.insert_into(db);
        Ok(())
    })
}

/// Appends `payload` to `out` as one entry: `entry <len> <fnv1a64>\n<payload>`.
pub(crate) fn frame_into(out: &mut String, payload: &str) {
    let sum = fnv1a(payload.as_bytes());
    let _ = writeln!(out, "entry {} {sum:016x}", payload.len());
    out.push_str(payload);
}

/// Reads a framed file — the `header` line, then [`frame`]d entries —
/// handing each whole entry's payload and exclusive end offset to
/// `decode` in order. Returns `(entries decoded, valid prefix length)`.
///
/// A crash mid-append can only damage the last entry, so damage there — a
/// torn entry, a checksum mismatch, a payload `decode` refuses — ends the
/// valid prefix before it, as does a file torn inside its header line. A
/// torn entry whose length digits took a bit flip ends before the end of
/// the file, so a damaged frame with nothing entry-like after it is a torn
/// tail too. Any other damage is a [`DbError::Corrupt`] naming `file` and
/// the offset of the damaged entry: salvaging it would silently drop the
/// entries after it.
pub(crate) fn read_frames<'a>(
    file: &str,
    header: &str,
    bytes: &'a [u8],
    mut decode: impl FnMut(&'a str, usize) -> Result<(), String>,
) -> Result<(usize, usize), DbError> {
    let header_line = format!("{header}\n");
    if !bytes.starts_with(header_line.as_bytes()) {
        if header_line.as_bytes().starts_with(bytes) {
            return Ok((0, 0));
        }
        let found = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        return Err(bad_header(file, &String::from_utf8_lossy(found), header));
    }
    let corrupt = |pos, reason| DbError::Corrupt {
        offset: pos,
        reason: format!("{file}: {reason}"),
    };
    let (mut pos, mut decoded) = (header_line.len(), 0);
    while pos < bytes.len() {
        match framed_at(bytes, pos) {
            Ok((payload, end)) => match decode(payload, end) {
                Ok(()) => {
                    decoded += 1;
                    pos = end;
                }
                Err(_) if end == bytes.len() => break,
                Err(reason) => return Err(corrupt(pos, reason)),
            },
            Err((Some(end), _)) if end == bytes.len() => break,
            // The damaged entry's extent is not to be trusted: only when
            // nothing entry-like follows is this a torn tail.
            Err((_, reason)) => {
                if bytes[pos..].windows(7).skip(1).any(|w| w == b"\nentry ") {
                    let reason = format!("{reason} (valid entries follow the damage)");
                    return Err(corrupt(pos, reason));
                }
                break;
            }
        }
    }
    Ok((decoded, pos))
}

/// The payload and exclusive end offset of the entry at `pos`. A failure
/// carries the entry's end offset when its frame is whole (its bytes are
/// damaged) and `None` when its extent cannot be trusted.
fn framed_at(bytes: &[u8], pos: usize) -> Result<(&str, usize), (Option<usize>, String)> {
    let rest = &bytes[pos..];
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return Err((None, "entry header truncated at end of file".to_string()));
    };
    let fields = std::str::from_utf8(&rest[..nl]).ok().and_then(|header| {
        let (len, sum) = header.strip_prefix("entry ")?.split_once(' ')?;
        Some((
            len.parse::<usize>().ok()?,
            u64::from_str_radix(sum, 16).ok()?,
        ))
    });
    let Some((len, want_sum)) = fields else {
        return Err((None, "expected `entry <len> <checksum>` header".to_string()));
    };
    let end = (nl + 1).checked_add(len).filter(|&end| end <= rest.len());
    let Some(end) = end else {
        return Err((
            None,
            format!("{len}-byte entry payload runs past end of file"),
        ));
    };
    let payload = &rest[nl + 1..end];
    let got_sum = fnv1a(payload);
    if got_sum != want_sum {
        let reason = format!("entry checksum mismatch (want {want_sum:016x}, got {got_sum:016x})");
        return Err((Some(pos + end), reason));
    }
    let payload = std::str::from_utf8(payload).map_err(|_| {
        (
            Some(pos + end),
            "entry payload is not valid UTF-8".to_string(),
        )
    })?;
    Ok((payload, pos + end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::workload_key;
    use crate::fault_io::{DiskIo, FaultIo, FaultSpec};
    use tir::DataType;

    fn tmpdb(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("tuning.db")
    }

    fn record(n: usize) -> (String, TuningRecord) {
        let func = tir::builder::matmul_func("mm", 16 << (n % 3), 16, 16, DataType::float32());
        let key = format!("{}#{n}", workload_key(&func));
        (
            key,
            TuningRecord {
                best: func,
                best_time: 1e-5 * (n as f64 + 1.0),
                trials: n,
                budget: n + 4,
                tuning_cost_s: 0.25 * n as f64,
            },
        )
    }

    fn publish_n(store: &mut JournaledDb, n: usize) {
        for i in 0..n {
            let (key, rec) = record(i);
            store
                .publish("SimGPU", Strategy::TensorIr, key, rec)
                .unwrap();
        }
    }

    #[test]
    fn publish_then_reopen_replays_bit_identically() {
        let path = tmpdb("roundtrip");
        let (mut store, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(rep, RecoveryReport::default());
        publish_n(&mut store, 5);
        let want = store.db().encode();
        assert!(store.journal_bytes() > 0, "publishes journal, not snapshot");
        assert!(!path.exists(), "no compaction ran: no snapshot yet");
        drop(store); // no clean shutdown — the journal alone must carry it
        let (reopened, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(rep.journal_replayed, 5);
        assert_eq!(rep.salvaged_bytes, 0);
        assert_eq!(reopened.db().encode(), want);
    }

    #[test]
    fn compaction_folds_journal_into_snapshot() {
        let path = tmpdb("compact");
        let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        publish_n(&mut store, 4);
        let want = store.db().encode();
        store.compact().unwrap();
        assert_eq!(store.journal_bytes(), 0);
        assert_eq!(store.compactions(), 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        // Journal resets; the next publish starts a fresh one.
        let (key, rec) = record(9);
        store
            .publish("SimGPU", Strategy::TensorIr, key, rec)
            .unwrap();
        assert!(store.journal_bytes() > 0);
        let want = store.db().encode();
        drop(store);
        let (reopened, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(rep.snapshot_records, 4);
        assert_eq!(rep.journal_replayed, 1);
        assert_eq!(reopened.db().encode(), want);
    }

    #[test]
    fn threshold_compaction_fires_inline() {
        let path = tmpdb("threshold");
        let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        store.compact_threshold = 1; // every publish beyond the first folds
        publish_n(&mut store, 3);
        assert!(store.compactions() >= 2);
        assert!(path.exists());
    }

    #[test]
    fn torn_tail_is_salvaged_not_fatal() {
        let path = tmpdb("torn-tail");
        let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        publish_n(&mut store, 3);
        let jpath = journal_path_for(&path);
        let intact = store.journal_bytes();
        let (key, rec) = record(7);
        store
            .publish("SimGPU", Strategy::TensorIr, key, rec)
            .unwrap();
        drop(store);
        // Tear the final entry at every possible cut length.
        let full = std::fs::read(&jpath).unwrap();
        for cut in intact + 1..full.len() {
            std::fs::write(&jpath, &full[..cut]).unwrap();
            let (reopened, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
            assert_eq!(rep.journal_replayed, 3, "cut at {cut}");
            assert_eq!(rep.salvaged_bytes, cut - intact, "cut at {cut}");
            assert_eq!(reopened.db().len(), 3);
            // Salvage truncated the tail: a second open is clean.
            drop(reopened);
            let (_, rep2) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
            assert_eq!(rep2.salvaged_bytes, 0, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_final_entry_is_salvaged() {
        let path = tmpdb("flip-tail");
        let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        publish_n(&mut store, 2);
        let jpath = journal_path_for(&path);
        let boundary = {
            // Reconstruct where entry 2 starts: publish once more and
            // note the growth.
            store.journal_bytes()
        };
        let (key, rec) = record(5);
        store
            .publish("SimGPU", Strategy::TensorIr, key, rec)
            .unwrap();
        drop(store);
        let intact = std::fs::read(&jpath).unwrap();
        let mut bytes = intact.clone();
        // Flip a bit inside the final entry's payload.
        let at = boundary + (bytes.len() - boundary) / 2;
        bytes[at] ^= 0x10;
        std::fs::write(&jpath, &bytes).unwrap();
        let (reopened, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(rep.journal_replayed, 2);
        assert!(
            rep.salvaged(),
            "checksum failure on the last entry salvages"
        );
        assert_eq!(reopened.db().len(), 2);
        drop(reopened);
        // A flip that lowers the final entry's length digits ends the
        // entry, damaged, before the file ends: still a torn tail.
        let last = std::str::from_utf8(&intact[boundary..]).unwrap();
        let (header, payload) = last.split_once('\n').unwrap();
        let shortened = format!("entry {} ", payload.len() - 1);
        let shortened = last.replacen(&format!("entry {} ", payload.len()), &shortened, 1);
        assert_ne!(shortened, last, "{header}");
        let mut bytes = intact[..boundary].to_vec();
        bytes.extend_from_slice(shortened.as_bytes());
        std::fs::write(&jpath, &bytes).unwrap();
        let (reopened, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(rep.journal_replayed, 2);
        assert_eq!(rep.salvaged_bytes, shortened.len());
        assert_eq!(reopened.db().len(), 2);
    }

    #[test]
    fn mid_file_damage_stays_a_typed_corrupt_with_offset() {
        let path = tmpdb("mid-file");
        let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        let first_end = {
            let (key, rec) = record(0);
            store
                .publish("SimGPU", Strategy::TensorIr, key, rec)
                .unwrap();
            store.journal_bytes()
        };
        publish_n(&mut store, 3);
        let jpath = journal_path_for(&path);
        drop(store);
        let mut bytes = std::fs::read(&jpath).unwrap();
        let header_len = JOURNAL_HEADER.len() + 1;
        // Flip a bit inside the FIRST entry: later entries are intact,
        // so salvage would silently lose them — must be Corrupt.
        bytes[header_len + (first_end - header_len) / 2] ^= 0x04;
        std::fs::write(&jpath, &bytes).unwrap();
        match JournaledDb::open(Box::new(DiskIo::new()), &path) {
            Err(DbError::Corrupt { offset, reason }) => {
                assert_eq!(offset, header_len, "offset points at the damaged entry");
                assert!(
                    reason.contains("journal"),
                    "reason names the journal: {reason}"
                );
            }
            Ok(_) => panic!("mid-file damage must not salvage"),
            Err(e) => panic!("wrong error: {e}"),
        }
    }

    #[test]
    fn journal_torn_inside_its_header_salvages_to_empty() {
        let path = tmpdb("torn-header");
        let jpath = journal_path_for(&path);
        std::fs::write(&jpath, &JOURNAL_HEADER.as_bytes()[..7]).unwrap();
        let (store, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(store.db().len(), 0);
        assert_eq!(rep.salvaged_bytes, 7);
    }

    #[test]
    fn alien_journal_file_is_corrupt() {
        let path = tmpdb("alien");
        let jpath = journal_path_for(&path);
        std::fs::write(&jpath, "not a journal at all\n").unwrap();
        assert!(matches!(
            JournaledDb::open(Box::new(DiskIo::new()), &path),
            Err(DbError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn crash_at_every_publish_crash_point_loses_nothing_acknowledged() {
        for point in PUBLISH_CRASH_POINTS {
            for occurrence in 0..3usize {
                let path = tmpdb(&format!("pub-{}-{occurrence}", point.replace('.', "-")));
                let spec = FaultSpec::crash_at(point, occurrence, 0xC4A5);
                let (mut store, _) =
                    JournaledDb::open(Box::new(FaultIo::new(spec)), &path).unwrap();
                let mut acked: Vec<String> = Vec::new();
                let mut crashed = false;
                for i in 0..4 {
                    let (key, rec) = record(i);
                    match store.publish("SimGPU", Strategy::TensorIr, key.clone(), rec) {
                        Ok(_) => acked.push(key),
                        Err(_) => {
                            crashed = true;
                            break;
                        }
                    }
                }
                assert!(crashed, "{point}#{occurrence}: the crash must fire");
                drop(store);
                let (reopened, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path)
                    .unwrap_or_else(|e| panic!("{point}#{occurrence}: recovery failed: {e}"));
                for key in &acked {
                    assert!(
                        reopened
                            .db()
                            .peek("SimGPU", Strategy::TensorIr, key)
                            .is_some(),
                        "{point}#{occurrence}: acknowledged record lost"
                    );
                }
                // Recovery already truncated any torn tail: reopening is
                // clean and replays the same state.
                let want = reopened.db().encode();
                drop(reopened);
                let (again, rep2) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
                assert_eq!(rep2.salvaged_bytes, 0, "{point}#{occurrence}");
                assert_eq!(again.db().encode(), want, "{point}#{occurrence}");
                let _ = rep;
            }
        }
    }

    #[test]
    fn crash_inside_every_append_salvages_the_acknowledged_prefix() {
        // Crash inside each of the first four appends, over several
        // damage seeds: whatever fragment (short write, bit flip) the
        // crash leaves, recovery must keep exactly the acknowledged
        // records. Appends land on even op indices — each publish is
        // one append (even) then one fsync (odd) on FaultIo's op clock.
        for op in [0u64, 2, 4, 6] {
            for seed in [1u64, 2, 3, 4, 5] {
                let path = tmpdb(&format!("append-{op}-{seed}"));
                let spec = FaultSpec {
                    seed,
                    crash_in_append: Some(op),
                    ..Default::default()
                };
                let (mut store, _) =
                    JournaledDb::open(Box::new(FaultIo::new(spec)), &path).unwrap();
                let mut acked: Vec<String> = Vec::new();
                for i in 0..6 {
                    let (key, rec) = record(i);
                    match store.publish("SimGPU", Strategy::TensorIr, key.clone(), rec) {
                        Ok(_) => acked.push(key),
                        Err(_) => break,
                    }
                }
                assert!(acked.len() < 6, "append {op} seed {seed}: crash must fire");
                drop(store);
                let (reopened, _) = JournaledDb::open(Box::new(DiskIo::new()), &path)
                    .unwrap_or_else(|e| panic!("append {op} seed {seed}: recovery failed: {e}"));
                assert_eq!(
                    reopened.db().len(),
                    acked.len(),
                    "append {op} seed {seed}: exactly the acknowledged records survive"
                );
            }
        }
    }

    #[test]
    fn crash_at_every_compaction_crash_point_loses_nothing() {
        for point in COMPACT_CRASH_POINTS {
            let path = tmpdb(&format!("compact-{}", point.replace('.', "-")));
            let spec = FaultSpec::crash_at(point, 0, 0xF01D);
            let (mut store, _) = JournaledDb::open(Box::new(FaultIo::new(spec)), &path).unwrap();
            publish_n(&mut store, 4);
            let want = store.db().encode();
            let err = store.compact().expect_err("crash must fire");
            assert!(matches!(err, DbError::Io(_)));
            drop(store);
            let (reopened, _) = JournaledDb::open(Box::new(DiskIo::new()), &path)
                .unwrap_or_else(|e| panic!("{point}: recovery failed: {e}"));
            assert_eq!(
                reopened.db().encode(),
                want,
                "{point}: records must survive"
            );
        }
    }

    #[test]
    fn transient_append_failure_degrades_then_compaction_recovers() {
        let path = tmpdb("degraded");
        let spec = FaultSpec {
            fail_first_ops: 2, // first append AND its repair-truncate fail
            ..Default::default()
        };
        let (mut store, _) = JournaledDb::open(Box::new(FaultIo::new(spec)), &path).unwrap();
        let (key, rec) = record(0);
        let err = store
            .publish("SimGPU", Strategy::TensorIr, key.clone(), rec)
            .expect_err("injected failure");
        assert!(matches!(err, DbError::Io(_)));
        assert_eq!(store.unjournaled(), 1, "record is memory-only: degraded");
        assert!(store
            .db()
            .peek("SimGPU", Strategy::TensorIr, &key)
            .is_some());
        // The next successful publish forces a compaction, which folds
        // the degraded record into the snapshot and clears the state.
        let (key2, rec2) = record(1);
        let outcome = store
            .publish("SimGPU", Strategy::TensorIr, key2, rec2)
            .unwrap();
        assert!(outcome.compacted, "degraded state forces a compaction");
        assert_eq!(store.unjournaled(), 0);
        let want = store.db().encode();
        drop(store);
        let (reopened, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).unwrap();
        assert_eq!(reopened.db().encode(), want, "both records durable");
    }
}
