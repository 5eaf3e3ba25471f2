//! Tuning database: persistent cached search records keyed by workload
//! fingerprint.
//!
//! §5.2 of the paper: "TensorIR can eliminate search time further by
//! caching historical cost models and search records. So no search is
//! needed to build a model for an operator already tuned." A database
//! lookup replaces the whole evolutionary search when an identical
//! workload (same computation, shapes, and dtypes — names and variable
//! identities ignored) has been tuned before.
//!
//! The database lives in memory and can be persisted to disk in a
//! hand-rolled, line-oriented text format that reuses the discipline of
//! [`crate::checkpoint`]: every `f64` is stored as the hex of its
//! IEEE-754 bits (round-trips are bit-exact, including infinities),
//! variable-length payloads (machine names, workload fingerprints,
//! program text) are byte-length-prefixed, the file ends with an `end`
//! sentinel so truncation is detected, and writes go through
//! [`crate::checkpoint::atomic_write`] (temp file + rename) so a crash
//! mid-save can never leave a torn file behind. Any corruption is
//! reported as a typed [`DbError`] — never a panic, never a silently
//! empty database.
//!
//! # Wire-level guarantees
//!
//! * `decode(encode(db))` reproduces records, counters, and fingerprints
//!   bit-identically ([`TuningDatabase::encode`] sorts records, so the
//!   encoded form itself is canonical: equal databases encode to equal
//!   bytes).
//! * Programs are stored as their printed text and re-parsed on load;
//!   the printer/parser round-trip is byte-exact for every program the
//!   tuner can produce (property-tested in `crates/tir`).
//!
//! ```
//! use tir_autoschedule::database::TuningDatabase;
//!
//! let db = TuningDatabase::new();
//! let encoded = db.encode();
//! let decoded = TuningDatabase::decode(&encoded).expect("well-formed");
//! assert_eq!(decoded.encode(), encoded);
//! assert!(decoded.is_empty());
//! ```

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use tir::parser::parse_func;
use tir::PrimFunc;
use tir_exec::machine::Machine;
use tir_tensorize::IntrinRegistry;

use crate::baseline::{tune_workload, Strategy};
use crate::checkpoint::atomic_write;
use crate::search::{TuneOptions, TuneResult, WarmStart};

/// Magic + version header of the on-disk format; bump on any change.
const HEADER: &str = "tir-tuning-database v1";

/// Computes a structural fingerprint of a workload: the printed program
/// with variable/buffer *names* replaced by first-occurrence indices, so
/// alpha-equivalent workloads share a key. Numeric literals are kept
/// verbatim — shapes, strides, and constants distinguish workloads.
///
/// ```
/// use tir::DataType;
/// use tir_autoschedule::workload_key;
///
/// // Alpha-equivalent workloads (different names, same computation)
/// // share a fingerprint; a different shape must not.
/// let a = tir::builder::matmul_func("mm", 64, 64, 64, DataType::float16());
/// let b = tir::builder::matmul_func("renamed", 64, 64, 64, DataType::float16());
/// let c = tir::builder::matmul_func("mm", 64, 64, 32, DataType::float16());
/// assert_eq!(workload_key(&a), workload_key(&b));
/// assert_ne!(workload_key(&a), workload_key(&c));
/// ```
pub fn workload_key(func: &PrimFunc) -> String {
    let text = func.to_string();
    // Tokenize identifiers and renumber them in order of first occurrence.
    let mut map: HashMap<String, String> = HashMap::new();
    let mut out = String::with_capacity(text.len());
    let mut ident = String::new();
    let flush = |ident: &mut String, out: &mut String, map: &mut HashMap<String, String>| {
        if ident.is_empty() {
            return;
        }
        // Keep dialect keywords stable; rename everything else.
        const KEYWORDS: &[&str] = &[
            "def", "for", "in", "if", "else", "with", "range", "pass", "and", "or", "not",
            "thread", "true", "false", "True", "False",
        ];
        // Numeric literals (shapes, strides, constants) are semantic:
        // renaming them would let `gmm(128,…)` and `gmm(256,…)` collide on
        // one fingerprint. Anything starting with an ASCII digit is a
        // literal — identifiers can't start with a digit.
        let is_literal = ident.chars().next().is_some_and(|c| c.is_ascii_digit());
        let is_dialect = ident.starts_with("T.") || KEYWORDS.contains(&ident.as_str());
        if is_dialect || is_literal {
            out.push_str(ident);
        } else {
            let n = map.len();
            let id = map.entry(ident.clone()).or_insert_with(|| format!("x{n}"));
            out.push_str(id);
        }
        ident.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
            ident.push(c);
        } else {
            flush(&mut ident, &mut out, &mut map);
            out.push(c);
        }
    }
    flush(&mut ident, &mut out, &mut map);
    out
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

/// Why a database file could not be loaded.
///
/// Corruption is always reported, never masked: a truncated or
/// bit-flipped file yields [`DbError::Corrupt`] (with the byte offset
/// and a reason), not a panic and not a silently empty database.
#[derive(Debug)]
pub enum DbError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file exists but does not hold a valid database: truncated,
    /// bit-flipped, trailing garbage, an unknown strategy label, or a
    /// stored program that no longer parses.
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

/// Byte-offset cursor over the encoded text; every failure carries the
/// offset it happened at. Shared with the journal decoder in
/// [`crate::journal`], which rebases the offsets into the journal file.
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
/// byte-length-prefixed blobs. Used verbatim by both the snapshot
/// ([`TuningDatabase::encode`]) and the write-ahead journal
/// ([`crate::journal`]) — one codec, two containers.
pub(crate) fn encode_record(
    machine: &str,
    strategy: &str,
    key: &str,
    rec: &TuningRecord,
) -> String {
    let best = rec.best.to_string();
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
    for blob in [machine, strategy, key, best.as_str()] {
        out.push_str(blob);
        out.push('\n');
    }
    out
}

/// Decodes one `record …` block at the cursor (inverse of
/// [`encode_record`]). Failures carry the cursor's byte offset.
pub(crate) fn decode_record(
    c: &mut Cursor,
) -> Result<(String, Strategy, String, TuningRecord), DbError> {
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
    let machine = c.blob(machine_len)?.to_string();
    let strategy_label = c.blob(strategy_len)?;
    let strategy = Strategy::from_label(strategy_label)
        .ok_or_else(|| c.corrupt(format!("unknown strategy label `{strategy_label}`")))?;
    let key = c.blob(key_len)?.to_string();
    let best_text = c.blob(best_len)?;
    let best = parse_func(best_text)
        .map_err(|e| c.corrupt(format!("stored program does not parse: {e}")))?;
    Ok((
        machine,
        strategy,
        key,
        TuningRecord {
            best,
            best_time,
            trials,
            budget,
            tuning_cost_s,
        },
    ))
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

/// A database of tuning records keyed by
/// `(machine, strategy, workload fingerprint)`, with optional on-disk
/// persistence (see the module docs for the format guarantees).
#[derive(Default, Debug)]
pub struct TuningDatabase {
    records: HashMap<(String, &'static str, String), TuningRecord>,
    hits: usize,
    misses: usize,
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
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a record without touching the hit/miss counters — the
    /// read-only probe the server's `query` request uses.
    pub fn peek(&self, machine: &str, strategy: Strategy, key: &str) -> Option<&TuningRecord> {
        self.records
            .get(&(machine.to_string(), strategy.label(), key.to_string()))
    }

    /// Looks up a record, counting a hit or a miss.
    pub fn lookup(
        &mut self,
        machine: &str,
        strategy: Strategy,
        key: &str,
    ) -> Option<&TuningRecord> {
        let k = (machine.to_string(), strategy.label(), key.to_string());
        if self.records.contains_key(&k) {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.records.get(&k)
    }

    /// Inserts (or replaces) a record.
    pub fn insert(&mut self, machine: &str, strategy: Strategy, key: String, record: TuningRecord) {
        self.records
            .insert((machine.to_string(), strategy.label(), key), record);
    }

    /// Iterates over all records as
    /// `((machine, strategy label, fingerprint), record)`, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, &'static str, String), &TuningRecord)> {
        self.records.iter()
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
        if let Some(best) = &result.best {
            self.insert(
                &machine.name,
                strategy,
                key,
                TuningRecord {
                    best: best.clone(),
                    best_time: result.best_time,
                    trials: result.trials_measured,
                    budget: opts.trials,
                    tuning_cost_s: result.tuning_cost_s,
                },
            );
        }
        result
    }

    /// Encodes the database to its canonical textual form: records
    /// sorted by key, so equal databases encode to equal bytes.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("counters {} {}\n", self.hits, self.misses));
        let mut keys: Vec<&(String, &'static str, String)> = self.records.keys().collect();
        keys.sort();
        out.push_str(&format!("records {}\n", keys.len()));
        for k in keys {
            let (machine, strategy, key) = k;
            out.push_str(&encode_record(machine, strategy, key, &self.records[k]));
        }
        out.push_str("end\n");
        out
    }

    /// Decodes a database from its textual form.
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on any malformation: wrong header,
    /// truncation, bad counts, an unknown strategy label, trailing
    /// garbage, or a stored program that fails to parse.
    pub fn decode(text: &str) -> Result<Self, DbError> {
        let mut c = Cursor { text, pos: 0 };
        if c.line()? != HEADER {
            return Err(DbError::Corrupt {
                offset: 0,
                reason: format!("bad header (expected `{HEADER}`)"),
            });
        }
        let mut db = TuningDatabase::new();
        let counters = c.line()?;
        let mut toks = counters.split_whitespace();
        if toks.next() != Some("counters") {
            return Err(c.corrupt("expected `counters` line"));
        }
        db.hits = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| c.corrupt("bad hits counter"))?;
        db.misses = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| c.corrupt("bad misses counter"))?;
        let records = c.line()?;
        let mut toks = records.split_whitespace();
        if toks.next() != Some("records") {
            return Err(c.corrupt("expected `records` line"));
        }
        let n: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| c.corrupt("bad record count"))?;
        for _ in 0..n {
            let (machine, strategy, key, record) = decode_record(&mut c)?;
            db.insert(&machine, strategy, key, record);
        }
        if c.line()? != "end" {
            return Err(c.corrupt("missing `end` sentinel (truncated file?)"));
        }
        if !c.at_end() {
            return Err(c.corrupt("trailing garbage after `end` sentinel"));
        }
        Ok(db)
    }

    /// Persists the database atomically (temp file + rename, fsync'd):
    /// a crash mid-save leaves either the complete previous file or the
    /// complete new one, never a torn mix.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem failure.
    ///
    /// ```
    /// use tir_autoschedule::database::TuningDatabase;
    ///
    /// let dir = std::env::temp_dir().join(format!("tir-db-doc-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("tuning.db");
    ///
    /// let db = TuningDatabase::new();
    /// db.save(&path).expect("save");
    /// let reloaded = TuningDatabase::open(&path).expect("open");
    /// assert_eq!(reloaded.encode(), db.encode());
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        atomic_write(path, self.encode().as_bytes())?;
        Ok(())
    }

    /// Loads a database from `path`.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if the file cannot be read (including when it
    /// does not exist — use [`TuningDatabase::open`] to treat a missing
    /// file as empty), [`DbError::Corrupt`] if it is malformed.
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let text = std::fs::read_to_string(path)?;
        Self::decode(&text)
    }

    /// Opens a database: loads `path` if it exists, returns an empty
    /// database if it does not. A file that exists but is corrupt is
    /// still an error — silent data loss is never acceptable.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on read failure other than not-found,
    /// [`DbError::Corrupt`] on malformation.
    pub fn open(path: &Path) -> Result<Self, DbError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::decode(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(DbError::Io(e)),
        }
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
