//! Tuning database: persistent cached search records keyed by workload.
//!
//! §5.2 of the paper: "TensorIR can eliminate search time further by
//! caching historical cost models and search records. So no search is
//! needed to build a model for an operator already tuned." A database
//! lookup replaces the whole evolutionary search when an identical
//! workload (same computation, shapes, and dtypes — names and variable
//! identities ignored) has been tuned before.
//!
//! The database lives in memory; [`crate::journal::JournaledDb`] persists
//! it as one append-only file of framed, checksummed entries, through
//! [`crate::fault_io::JournalIo`]. Each entry holds one record in this
//! module's hand-rolled, line-oriented text form (`encode_record`):
//! every `f64` is stored as the hex of its IEEE-754 bits (round-trips are
//! bit-exact, including infinities), and variable-length payloads
//! (machine names, workload keys, program text) are byte-length-prefixed.
//! Any corruption is reported as a typed [`DbError`] — never a panic,
//! never a silently empty database.
//!
//! # Wire-level guarantees
//!
//! * A file written by [`TuningDatabase::encode`] (what a compaction
//!   writes) reads back with every record and key bit-identical, and
//!   `encode` sorts records, so the encoded form itself is canonical:
//!   equal databases encode to equal bytes.
//! * Programs are stored as their printed text and re-parsed on load;
//!   the printer/parser round-trip is byte-exact for every program the
//!   tuner can produce (property-tested in `crates/tir`).
//! * Hit/miss counters live in memory only: they count one process's
//!   lookups.
//!
//! # Identity
//!
//! A record's identity is `(machine, strategy, workload key)`, the key
//! being [`workload_key`] of the workload: the lowercase hex of its
//! structural stream ([`tir::structural::structural_hex`]), one encoder
//! walk. Two workloads share a record exactly when
//! [`tir::structural::func_structural_eq`] holds, so no workload can be
//! served another's record: there is nothing to collide. The key is what
//! the database file, the wire protocol and the `&str`-keyed API
//! (`lookup`, `peek`, `insert`) carry, and its meaning is part of the
//! format: the header says `v2`. A `v1` file was keyed by the printed
//! program with every word renamed, dtypes included, so its records cannot
//! be re-keyed; it is refused with both headers named.
//!
//! The printer drops an integer literal's type, so a program holding, say,
//! an `int8` literal parses back with an `int32` one and a new key: the
//! same workload keyed in process and keyed from its text misses once and
//! is tuned again — never served a wrong program.
//!
//! ```
//! use tir_autoschedule::database::TuningDatabase;
//!
//! let db = TuningDatabase::new();
//! assert_eq!(db.encode(), "tir-tuning-db-journal v2\n");
//! assert!(db.is_empty());
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use tir::parser::parse_func;
use tir::structural::structural_hex;
use tir::PrimFunc;
use tir_exec::machine::Machine;
use tir_tensorize::IntrinRegistry;

use crate::baseline::{tune_workload, Strategy};
use crate::journal::{frame_into, JOURNAL_HEADER};
use crate::search::{TuneOptions, TuneResult, WarmStart};

/// The key a workload's records are stored under: the lowercase hex of its
/// structural stream, so two workloads share a key exactly when
/// [`tir::structural::func_structural_eq`] holds — names and variable
/// identities ignored; shapes, dtypes, literals and structure kept.
///
/// ```
/// use tir::DataType;
/// use tir_autoschedule::workload_key;
///
/// // Alpha-equivalent workloads (different names, same computation)
/// // share a key; a different shape or dtype must not.
/// let a = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float16());
/// let b = tir::builder::matmul_func("renamed", 64, 64, 64, DataType::float16());
/// let c = tir::builder::matmul_func("mm", 64, 64, 32, DataType::float16());
/// let d = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float32());
/// assert_eq!(workload_key(&a), workload_key(&b));
/// assert_ne!(workload_key(&a), workload_key(&c));
/// assert_ne!(workload_key(&a), workload_key(&d));
/// ```
pub fn workload_key(func: &PrimFunc) -> String {
    structural_hex(func)
}

/// One cached tuning outcome.
#[derive(Clone, Debug)]
pub struct TuningRecord {
    /// The best program found.
    pub best: PrimFunc,
    /// Its simulated time.
    pub best_time: f64,
    /// Trials actually measured when it was tuned.
    pub trials: usize,
    /// The trial *budget* (`TuneOptions::trials`) the record was tuned
    /// with. A later request with a larger budget than this triggers a
    /// re-tune (warm-started from `best`, so it can only improve).
    pub budget: usize,
    /// Tuning cost paid when it was first tuned (seconds).
    pub tuning_cost_s: f64,
}

impl TuningRecord {
    /// The record of a tune run with a trial budget of `budget`; `None`
    /// when the search found no valid program.
    pub fn of_tune(result: &TuneResult, budget: usize) -> Option<TuningRecord> {
        Some(TuningRecord {
            best: result.best.clone()?,
            best_time: result.best_time,
            trials: result.trials_measured,
            budget,
            tuning_cost_s: result.tuning_cost_s,
        })
    }
}

/// Why a database file could not be loaded.
///
/// Corruption is always reported, never masked: a truncated or
/// bit-flipped file yields [`DbError::Corrupt`] (with the byte offset
/// and a reason), not a panic and not a silently empty database.
#[derive(Debug)]
pub enum DbError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file exists but does not hold a valid database: damaged
    /// before its last entry, of another format or version, or holding an
    /// unknown strategy label or a stored program that no longer parses.
    Corrupt {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "database io error: {e}"),
            DbError::Corrupt { offset, reason } => {
                write!(f, "corrupt database at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            DbError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> DbError {
        DbError::Io(e)
    }
}

/// The error for a database file whose first line is `found`, not
/// `expected`: a file of another format version (whose keys cannot be
/// re-keyed) or not a database file at all.
pub(crate) fn bad_header(file: &str, found: &str, expected: &str) -> DbError {
    DbError::Corrupt {
        offset: 0,
        reason: format!(
            "{file} header is `{found:.64}`, expected `{expected}`; \
             its records cannot be read: move the file aside to start empty"
        ),
    }
}

/// Byte-offset cursor over one entry's payload; every failure carries the
/// offset it happened at.
pub(crate) struct Cursor<'a> {
    pub(crate) text: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn corrupt(&self, reason: impl Into<String>) -> DbError {
        DbError::Corrupt {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// Consumes up to (and including) the next newline, returning the
    /// line without it.
    pub(crate) fn line(&mut self) -> Result<&'a str, DbError> {
        let rest = &self.text[self.pos..];
        match rest.find('\n') {
            Some(n) => {
                let line = &rest[..n];
                self.pos += n + 1;
                Ok(line)
            }
            None => Err(self.corrupt("unexpected end of file (missing newline)")),
        }
    }

    /// Consumes exactly `n` bytes followed by a newline.
    pub(crate) fn blob(&mut self, n: usize) -> Result<&'a str, DbError> {
        let end = self.pos.checked_add(n).filter(|&e| e < self.text.len());
        let Some(end) = end else {
            return Err(self.corrupt(format!("truncated: {n}-byte payload runs past end of file")));
        };
        let Some(blob) = self.text.get(self.pos..end) else {
            return Err(self.corrupt("payload length splits a UTF-8 character"));
        };
        if self.text.as_bytes()[end] != b'\n' {
            return Err(self.corrupt("payload not terminated by newline (bad length prefix?)"));
        }
        self.pos = end + 1;
        Ok(blob)
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }
}

/// Encodes one record in the canonical `record …` block form: a header
/// line with length prefixes and hex-bit floats, followed by four
/// byte-length-prefixed blobs, the last being `best` — the printed text of
/// `rec.best`, which the caller has in hand or prints once. The payload of
/// every entry of the database file, whether a publish appended it or
/// [`TuningDatabase::encode`] wrote it.
pub(crate) fn encode_record(
    machine: &str,
    strategy: &str,
    key: &str,
    rec: &TuningRecord,
    best: &str,
) -> String {
    let mut out = format!(
        "record {} {} {} {} {} {} {} {}\n",
        machine.len(),
        strategy.len(),
        key.len(),
        best.len(),
        hex_f64(rec.best_time),
        rec.trials,
        rec.budget,
        hex_f64(rec.tuning_cost_s),
    );
    for blob in [machine, strategy, key, best] {
        out.push_str(blob);
        out.push('\n');
    }
    out
}

/// One decoded `record …` block, borrowing its blobs from the input: the
/// record plus the program text it was parsed from, which
/// [`Decoded::insert_into`] keeps beside it.
pub(crate) struct Decoded<'a> {
    machine: &'a str,
    strategy: Strategy,
    key: &'a str,
    record: TuningRecord,
    best_text: &'a str,
}

impl Decoded<'_> {
    pub(crate) fn insert_into(self, db: &mut TuningDatabase) {
        let text = Some(self.best_text.into());
        db.store(self.machine, self.strategy, self.key, self.record, text);
    }
}

/// Decodes one `record …` block at the cursor (inverse of
/// [`encode_record`]). Failures carry the cursor's byte offset.
pub(crate) fn decode_record<'a>(c: &mut Cursor<'a>) -> Result<Decoded<'a>, DbError> {
    let header = c.line()?;
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() != 9 || toks[0] != "record" {
        return Err(c.corrupt("malformed `record` header line"));
    }
    let len_of = |i: usize, name: &str| -> Result<usize, DbError> {
        toks[i]
            .parse()
            .map_err(|_| c.corrupt(format!("bad record field `{name}`")))
    };
    let machine_len = len_of(1, "machine_len")?;
    let strategy_len = len_of(2, "strategy_len")?;
    let key_len = len_of(3, "key_len")?;
    let best_len = len_of(4, "best_len")?;
    let best_time = parse_hex_f64(toks[5]).ok_or_else(|| c.corrupt("bad best_time bits"))?;
    let trials = len_of(6, "trials")?;
    let budget = len_of(7, "budget")?;
    let tuning_cost_s =
        parse_hex_f64(toks[8]).ok_or_else(|| c.corrupt("bad tuning_cost_s bits"))?;
    let machine = c.blob(machine_len)?;
    let strategy_label = c.blob(strategy_len)?;
    let strategy = Strategy::from_label(strategy_label)
        .ok_or_else(|| c.corrupt(format!("unknown strategy label `{strategy_label}`")))?;
    let key = c.blob(key_len)?;
    let best_text = c.blob(best_len)?;
    let best = parse_func(best_text)
        .map_err(|e| c.corrupt(format!("stored program does not parse: {e}")))?;
    Ok(Decoded {
        machine,
        strategy,
        key,
        record: TuningRecord {
            best,
            best_time,
            trials,
            budget,
            tuning_cost_s,
        },
        best_text,
    })
}

/// An `f64` as the 16 hex digits of its IEEE-754 bits: how every text
/// format of the tuning stack (database, journal, checkpoint, wire
/// protocol) stores floats, so round-trips are bit-exact.
pub fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`hex_f64`]; `None` when `tok` is not a hex `u64`.
pub fn parse_hex_f64(tok: &str) -> Option<f64> {
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

/// One stored record: where it was tuned, what was found, and — once
/// anyone needed it — the printed text of the best program. The text lives
/// and dies with the record (replacing the record drops it), so a stored
/// program is printed at most once however often it is served, journaled
/// or compacted.
#[derive(Debug)]
struct Stored {
    machine: String,
    strategy: Strategy,
    record: TuningRecord,
    best_text: OnceLock<Arc<str>>,
}

impl Stored {
    fn is_for(&self, machine: &str, strategy: Strategy) -> bool {
        self.strategy == strategy && self.machine == machine
    }

    fn best_text(&self) -> &Arc<str> {
        self.best_text
            .get_or_init(|| self.record.best.to_string().into())
    }
}

/// A database of tuning records keyed by
/// `(machine, strategy, workload key)` (see the module docs for the
/// on-disk format and the identity).
#[derive(Default, Debug)]
pub struct TuningDatabase {
    /// Workload key → the records of that workload, one per (machine,
    /// strategy) it was tuned for: a handful at most, scanned in place.
    records: HashMap<Box<str>, Vec<Stored>>,
    len: usize,
    hits: usize,
    misses: usize,
}

fn find<'a>(
    records: &'a HashMap<Box<str>, Vec<Stored>>,
    machine: &str,
    strategy: Strategy,
    key: &str,
) -> Option<&'a Stored> {
    records
        .get(key)?
        .iter()
        .find(|s| s.is_for(machine, strategy))
}

impl TuningDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cache hits served so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of lookups that found nothing (each normally followed by a
    /// tune + [`TuningDatabase::insert`]).
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up a record without touching the hit/miss counters — the
    /// read-only probe the server's `query` request uses.
    pub fn peek(&self, machine: &str, strategy: Strategy, key: &str) -> Option<&TuningRecord> {
        find(&self.records, machine, strategy, key).map(|s| &s.record)
    }

    /// Looks up a record, counting a hit or a miss.
    pub fn lookup(
        &mut self,
        machine: &str,
        strategy: Strategy,
        key: &str,
    ) -> Option<&TuningRecord> {
        let found = find(&self.records, machine, strategy, key);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found.map(|s| &s.record)
    }

    /// The printed text of a stored record's best program, if the database
    /// has it in hand (it was read from, or already written to, an entry
    /// of the database file). Never prints: a caller holding the
    /// database behind a lock prints a `None` itself, outside it.
    pub fn best_text(&self, machine: &str, strategy: Strategy, key: &str) -> Option<Arc<str>> {
        find(&self.records, machine, strategy, key)?
            .best_text
            .get()
            .cloned()
    }

    /// Inserts (or replaces) a record.
    pub fn insert(&mut self, machine: &str, strategy: Strategy, key: String, record: TuningRecord) {
        self.store(machine, strategy, &key, record, None);
    }

    /// [`TuningDatabase::insert`] for callers that already hold the printed
    /// text of `record.best` (the decoder, the journal).
    pub(crate) fn store(
        &mut self,
        machine: &str,
        strategy: Strategy,
        key: &str,
        record: TuningRecord,
        best_text: Option<Arc<str>>,
    ) {
        let stored = Stored {
            machine: machine.to_string(),
            strategy,
            record,
            best_text: best_text.map(OnceLock::from).unwrap_or_default(),
        };
        let Some(slots) = self.records.get_mut(key) else {
            self.records.insert(key.into(), vec![stored]);
            self.len += 1;
            return;
        };
        match slots.iter_mut().find(|s| s.is_for(machine, strategy)) {
            Some(slot) => *slot = stored,
            None => {
                slots.push(stored);
                self.len += 1;
            }
        }
    }

    /// Iterates over all records as `(machine, strategy, text key, record)`,
    /// in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Strategy, &str, &TuningRecord)> {
        self.stored()
            .map(|(key, s)| (s.machine.as_str(), s.strategy, key, &s.record))
    }

    fn stored(&self) -> impl Iterator<Item = (&str, &Stored)> {
        self.records
            .iter()
            .flat_map(|(key, slots)| slots.iter().map(move |s| (&**key, s)))
    }

    /// Tunes `func` unless an alpha-equivalent workload was tuned before,
    /// in which case the cached record is returned with zero tuning cost
    /// (the paper's "no search is needed for an operator already tuned").
    ///
    /// A hit whose stored trial *budget* is smaller than `opts.trials`
    /// is a **budget upgrade**: the workload is re-tuned with the larger
    /// budget, warm-started from the stored best (so the record can only
    /// improve), and the record is replaced. Upgrades count as misses —
    /// a search ran.
    ///
    /// A warm hit costs one key walk ([`workload_key`]), one probe and a
    /// reference-count increment: the returned `best` shares its body with
    /// the stored record.
    pub fn tune_cached(
        &mut self,
        func: &PrimFunc,
        machine: &Machine,
        intrins: &IntrinRegistry,
        strategy: Strategy,
        opts: &TuneOptions,
    ) -> TuneResult {
        let key = workload_key(func);
        let hit = self
            .lookup(&machine.name, strategy, &key)
            .map(|rec| (rec.budget, rec.best.clone(), rec.best_time));
        let warm = match hit {
            Some((budget, best, best_time)) if opts.trials <= budget => {
                return TuneResult {
                    best: Some(best),
                    best_time,
                    history: vec![best_time],
                    ..Default::default()
                };
            }
            Some((_, best, best_time)) => {
                // Budget upgrade: re-tune from the stored best. The
                // lookup above counted a hit; re-balance to a miss,
                // because a search is about to run.
                self.hits -= 1;
                self.misses += 1;
                Some(WarmStart { best, best_time })
            }
            None => None,
        };
        let opts = TuneOptions {
            warm_start: warm,
            ..opts.clone()
        };
        let result = tune_workload(func, machine, intrins, strategy, &opts);
        if let Some(record) = TuningRecord::of_tune(&result, opts.trials) {
            self.store(&machine.name, strategy, &key, record, None);
        }
        result
    }

    /// The database as a compacted file: the header line, then one
    /// framed entry per record, sorted by (machine, strategy,
    /// key), so equal databases encode to equal bytes. What
    /// [`crate::journal::JournaledDb::compact`] writes; hit/miss counters
    /// are not stored.
    pub fn encode(&self) -> String {
        let mut rows: Vec<(&str, &str, &str, &Stored)> = self
            .stored()
            .map(|(key, s)| (s.machine.as_str(), s.strategy.label(), key, s))
            .collect();
        rows.sort_by_key(|&(machine, strategy, key, _)| (machine, strategy, key));
        let mut out = format!("{JOURNAL_HEADER}\n");
        for (machine, strategy, key, s) in rows {
            let payload = encode_record(machine, strategy, key, &s.record, s.best_text());
            frame_into(&mut out, &payload);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    #[test]
    fn alpha_equivalent_workloads_share_a_key() {
        // Two independently constructed matmuls (different Var/Buffer
        // identities) must collide; a different shape must not.
        let a = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float16());
        let b = tir::builder::matmul_func("other_name", 64, 64, 64, DataType::float16());
        let c = tir::builder::matmul_func("mm", 64, 64, 32, DataType::float16());
        let d = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float32());
        assert_eq!(workload_key(&a), workload_key(&b));
        assert_ne!(workload_key(&a), workload_key(&c));
        assert_ne!(workload_key(&a), workload_key(&d));
    }

    #[test]
    fn uniformly_scaled_shapes_get_distinct_keys() {
        // Regression: literals used to alpha-rename like identifiers, so a
        // uniform scaling (every 128 -> 256) produced the identical
        // fingerprint and the database served the wrong cached kernel.
        let dt = DataType::float16();
        let acc = DataType::float32();
        let small = tir_workloads::gmm(128, 128, 128, dt, acc);
        let big = tir_workloads::gmm(256, 256, 256, dt, acc);
        assert_ne!(workload_key(&small), workload_key(&big));
        // Alpha-equivalence still holds for genuinely identical workloads.
        let again = tir_workloads::gmm(128, 128, 128, dt, acc);
        assert_eq!(workload_key(&small), workload_key(&again));
    }

    /// A database holding one (untuned) record for `func`.
    fn holding(func: &PrimFunc) -> TuningDatabase {
        let mut db = TuningDatabase::new();
        let record = TuningRecord {
            best: func.clone(),
            best_time: 1e-5,
            trials: 1,
            budget: 1,
            tuning_cost_s: 0.0,
        };
        db.insert("SimGPU", Strategy::TensorIr, workload_key(func), record);
        db
    }

    #[test]
    fn float_literals_are_semantic() {
        use tir::{Buffer, Expr, Stmt, Var};
        let scale = |name: &str, buf: &str, c: f32| {
            let b = Buffer::new(buf, DataType::float32(), vec![8]);
            let i = Var::int("i");
            let body = Stmt::store(
                b.clone(),
                vec![Expr::from(&i)],
                b.load(vec![Expr::from(&i)]) * Expr::f32(c),
            )
            .in_loop(i, 8);
            tir::PrimFunc::new(name, vec![b], body)
        };
        // Same constant under different names: one key. Different
        // constant: a different key.
        assert_eq!(
            workload_key(&scale("f", "B", 2.5)),
            workload_key(&scale("g", "C", 2.5))
        );
        assert_ne!(
            workload_key(&scale("f", "B", 2.5)),
            workload_key(&scale("f", "B", 0.5))
        );
    }

    /// `C = A + B` over 64 × 64 elements of `dtype`.
    fn add(dtype: DataType) -> PrimFunc {
        let [a, b, c] = ["A", "B", "C"].map(|n| tir::Buffer::new(n, dtype, vec![64, 64]));
        let body = tir::builder::compute("C", &c, |v| {
            let at = || v.iter().map(tir::Expr::from).collect();
            a.load(at()) + b.load(at())
        });
        PrimFunc::new("add", vec![a, b, c], body)
    }

    /// Regression: the printed key renamed dtype strings like names, so a
    /// workload that differed from a tuned one only in its dtype was served
    /// the tuned one's program at zero trials.
    #[test]
    fn workloads_that_differ_only_in_dtype_are_each_tuned() {
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 8,
            ..Default::default()
        };
        let mm = |dt| tir::builder::matmul_func("mm", 64, 64, 64, dt);
        let pairs = [
            (
                Machine::sim_arm(),
                mm(DataType::int8()),
                mm(DataType::int32()),
            ),
            (
                Machine::sim_gpu(),
                add(DataType::float16()),
                add(DataType::float32()),
            ),
        ];
        for (machine, first, second) in pairs {
            let mut db = TuningDatabase::new();
            db.tune_cached(&first, &machine, &reg, Strategy::TensorIr, &opts);
            let r = db.tune_cached(&second, &machine, &reg, Strategy::TensorIr, &opts);
            let dtype = second.params[2].dtype();
            assert!(
                r.trials_measured > 0,
                "{} {dtype:?}: served warm",
                second.name
            );
            assert_eq!((db.hits(), db.misses(), db.len()), (0, 2, 2));
            let best = r.best.expect("tuned");
            assert_eq!(best.params[2].dtype(), dtype);
        }
    }

    #[test]
    fn warm_hit_shares_the_stored_body() {
        let mut db = TuningDatabase::new();
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 8,
            ..Default::default()
        };
        let f = tir_workloads::gmm(32, 32, 32, DataType::float16(), DataType::float32());
        db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &opts);
        let hit = db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &opts);
        let stored = db
            .peek(&machine.name, Strategy::TensorIr, &workload_key(&f))
            .expect("stored");
        let served = hit.best.expect("served");
        assert!(Arc::ptr_eq(&served.body, &stored.best.body), "no copy");
    }

    #[test]
    fn stored_text_lives_and_dies_with_the_record() {
        let dt = DataType::float16();
        let f = tir_workloads::gmm(32, 32, 32, dt, dt);
        let key = workload_key(&f);
        let db = holding(&f);
        let peek_text = |db: &TuningDatabase| db.best_text("SimGPU", Strategy::TensorIr, &key);
        assert_eq!(peek_text(&db), None, "nothing printed yet");
        let encoded = db.encode();
        assert_eq!(peek_text(&db).as_deref(), Some(&*f.to_string()), "kept");
        // A database read from its file has every text in hand; a replaced
        // record starts over.
        let dir = std::env::temp_dir().join(format!("tir-db-text-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuning.db");
        std::fs::write(&path, &encoded).unwrap();
        let (mut store, _) =
            crate::journal::JournaledDb::open(Box::new(crate::fault_io::DiskIo), &path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let decoded = store.db_mut();
        assert_eq!(peek_text(decoded).as_deref(), Some(&*f.to_string()));
        let other = tir_workloads::gmm(32, 32, 64, dt, dt);
        let replacement = TuningRecord {
            best: other.clone(),
            ..decoded
                .peek("SimGPU", Strategy::TensorIr, &key)
                .unwrap()
                .clone()
        };
        decoded.insert("SimGPU", Strategy::TensorIr, key.clone(), replacement);
        assert_eq!(peek_text(decoded), None, "dropped with the old record");
        assert!(decoded.encode().contains(&other.to_string()));
    }

    #[test]
    fn shape_distinct_workloads_do_not_share_records() {
        // End-to-end regression for the fingerprint collision: two
        // alpha-equivalent but shape-distinct funcs must be tuned
        // separately, not served from one record.
        let mut db = TuningDatabase::new();
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 8,
            ..Default::default()
        };
        let dt = DataType::float16();
        let acc = DataType::float32();
        let small = tir_workloads::gmm(32, 32, 32, dt, acc);
        let big = tir_workloads::gmm(64, 64, 64, dt, acc);
        let r_small = db.tune_cached(&small, &machine, &reg, Strategy::TensorIr, &opts);
        let r_big = db.tune_cached(&big, &machine, &reg, Strategy::TensorIr, &opts);
        assert_eq!(db.misses(), 2, "each shape must be tuned");
        assert_eq!(db.hits(), 0);
        assert_eq!(db.len(), 2);
        assert!(r_small.tuning_cost_s > 0.0 && r_big.tuning_cost_s > 0.0);
        assert_ne!(
            r_small.best_time, r_big.best_time,
            "a 64^3 gmm cannot be as fast as a 32^3 gmm"
        );
    }

    #[test]
    fn miss_then_tune_counts_exactly_one_miss() {
        let mut db = TuningDatabase::new();
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 8,
            ..Default::default()
        };
        assert_eq!((db.hits(), db.misses()), (0, 0));
        let f = tir::builder::matmul_func("mm", 32, 32, 32, DataType::float16());
        db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &opts);
        // The miss-then-tune-then-insert path must count one miss, not one
        // per lookup plus one on insert.
        assert_eq!((db.hits(), db.misses()), (0, 1));
        assert_eq!(db.len(), 1);
        db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &opts);
        assert_eq!((db.hits(), db.misses()), (1, 1));
        db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &opts);
        assert_eq!((db.hits(), db.misses()), (2, 1));
        assert_eq!(db.len(), 1, "hits never insert duplicate records");
    }

    #[test]
    fn second_tuning_is_free() {
        let mut db = TuningDatabase::new();
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 12,
            ..Default::default()
        };
        let f1 = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
        let first = db.tune_cached(&f1, &machine, &reg, Strategy::TensorIr, &opts);
        assert!(first.tuning_cost_s > 0.0);
        assert_eq!(db.misses(), 1);

        // A fresh, alpha-equivalent function: cache hit, zero cost, same
        // result.
        let f2 = tir::builder::matmul_func("mm2", 128, 128, 128, DataType::float16());
        let second = db.tune_cached(&f2, &machine, &reg, Strategy::TensorIr, &opts);
        assert_eq!(db.hits(), 1);
        assert_eq!(second.tuning_cost_s, 0.0);
        assert_eq!(second.trials_measured, 0);
        assert_eq!(second.best_time, first.best_time);
    }

    #[test]
    fn different_machines_do_not_share_records() {
        let mut db = TuningDatabase::new();
        let reg = builtin_registry();
        let opts = TuneOptions {
            trials: 8,
            ..Default::default()
        };
        let f = tir_workloads::gmm(64, 64, 64, DataType::int8(), DataType::int32());
        db.tune_cached(&f, &Machine::sim_arm(), &reg, Strategy::TensorIr, &opts);
        db.tune_cached(&f, &Machine::sim_gpu(), &reg, Strategy::TensorIr, &opts);
        assert_eq!(db.misses(), 2);
        assert_eq!(db.hits(), 0);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn budget_upgrade_retunes_and_never_regresses() {
        let mut db = TuningDatabase::new();
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let small = TuneOptions {
            trials: 8,
            ..Default::default()
        };
        let f = tir::builder::matmul_func("mm", 128, 128, 128, DataType::float16());
        let first = db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &small);
        assert_eq!((db.hits(), db.misses()), (0, 1));

        // Same budget: free hit.
        db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &small);
        assert_eq!((db.hits(), db.misses()), (1, 1));

        // Larger budget: a re-tune runs (counted as a miss), warm-started
        // from the stored best, so the result can only improve.
        let big = TuneOptions {
            trials: 24,
            ..Default::default()
        };
        let upgraded = db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &big);
        assert_eq!((db.hits(), db.misses()), (1, 2));
        assert!(upgraded.tuning_cost_s > 0.0, "upgrade must actually search");
        assert!(
            upgraded.best_time <= first.best_time,
            "warm start floors the result"
        );
        let key = workload_key(&f);
        let rec = db.peek(&machine.name, Strategy::TensorIr, &key).unwrap();
        assert_eq!(rec.budget, 24, "stored budget tracks the largest request");

        // The larger budget is now stored: the same request is a free hit.
        let again = db.tune_cached(&f, &machine, &reg, Strategy::TensorIr, &big);
        assert_eq!((db.hits(), db.misses()), (2, 2));
        assert_eq!(again.tuning_cost_s, 0.0);
        assert_eq!(again.best_time, upgraded.best_time);
    }
}
