//! Persistence contract of the on-disk tuning database, one file of framed
//! entries: a file written by `JournaledDb::compact` and read back by
//! `JournaledDb::open` holds every record bit for bit; a torn last entry
//! is salvaged (the signature of a crash mid-append), any earlier damage
//! is a typed error — never a panic, never a silently empty database; and
//! a store compacts on the bytes it appended, not on the file's length.

use std::path::{Path, PathBuf};

use tir::DataType;
use tir_autoschedule::{
    DbError, DiskIo, JournaledDb, Strategy, TuneOptions, TuningDatabase, TuningRecord,
};
use tir_exec::Machine;
use tir_tensorize::builtin_registry;
use tir_workloads::ops;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tir-db-test-{name}-{}.db", std::process::id()))
}

fn open(path: &Path) -> Result<JournaledDb, DbError> {
    JournaledDb::open(Box::new(DiskIo), path).map(|(store, _)| store)
}

/// A database with two tuned workloads (one GPU f16, one ARM int8) and
/// non-trivial hit/miss counters, compacted into the file at `path`: the
/// store, whose in-memory database is the one written.
fn populated_db(path: &Path) -> JournaledDb {
    let _ = std::fs::remove_file(path);
    let (mut store, _) = JournaledDb::open(Box::new(DiskIo), path).expect("open");
    let registry = builtin_registry();
    let db = store.db_mut();
    let opts = TuneOptions {
        trials: 8,
        num_threads: 1,
        ..TuneOptions::default()
    };
    let gpu = Machine::sim_gpu();
    let gmm_gpu = ops::gmm(32, 32, 32, DataType::float16(), DataType::float32());
    db.tune_cached(&gmm_gpu, &gpu, &registry, Strategy::TensorIr, &opts);
    let arm = Machine::sim_arm();
    let gmm_arm = ops::gmm(32, 32, 32, DataType::int8(), DataType::int32());
    db.tune_cached(&gmm_arm, &arm, &registry, Strategy::TensorIr, &opts);
    // Two extra lookups so hits (2) and misses (2) are both non-zero.
    db.tune_cached(&gmm_gpu, &gpu, &registry, Strategy::TensorIr, &opts);
    db.tune_cached(&gmm_arm, &arm, &registry, Strategy::TensorIr, &opts);
    assert_eq!((db.hits(), db.misses()), (2, 2));
    store.compact().expect("compact");
    store
}

/// Where each entry of a database file ends, in order.
fn entry_ends(bytes: &[u8]) -> Vec<usize> {
    let line_end = |at: usize| at + bytes[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut ends = Vec::new();
    let mut at = line_end(0);
    while at < bytes.len() {
        let payload = line_end(at);
        let line = std::str::from_utf8(&bytes[at..payload]).unwrap();
        at = payload + line.split(' ').nth(1).unwrap().parse::<usize>().unwrap();
        ends.push(at);
    }
    ends
}

#[test]
fn compact_open_round_trip_is_bit_identical() {
    let path = tmp_path("roundtrip");
    let store = populated_db(&path);
    let db = store.db();
    let loaded = open(&path).expect("open");
    let loaded = loaded.db();

    // Counters count one store's lifetime: a fresh one starts at zero.
    assert_eq!((loaded.hits(), loaded.misses()), (0, 0));
    assert_eq!(loaded.len(), db.len());

    // Every record survives bit-for-bit: fingerprint keys, program
    // text, and the IEEE-754 bits of both floats.
    for (machine, strategy, key, rec) in db.iter() {
        let got = loaded
            .peek(machine, strategy, key)
            .unwrap_or_else(|| panic!("record {machine}/{strategy:?}/{key} lost in round trip"));
        assert_eq!(got.best.to_string(), rec.best.to_string());
        assert_eq!(got.best_time.to_bits(), rec.best_time.to_bits());
        assert_eq!(got.trials, rec.trials);
        assert_eq!(got.budget, rec.budget);
        assert_eq!(got.tuning_cost_s.to_bits(), rec.tuning_cost_s.to_bits());
    }

    // The canonical encodings agree byte-for-byte, which also pins the
    // fingerprints themselves.
    assert_eq!(loaded.encode(), db.encode());
    let _ = std::fs::remove_file(&path);
}

/// A compacted file cut anywhere inside entry k + 1 loads the k entries
/// before it and reports the cut-off bytes, as a torn append would.
#[test]
fn a_cut_inside_an_entry_of_a_compacted_file_keeps_the_entries_before_it() {
    let path = tmp_path("cut");
    populated_db(&path);
    let bytes = std::fs::read(&path).expect("read back");
    let ends = entry_ends(&bytes);
    assert_eq!(ends.len(), 2);
    let header = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let starts: Vec<usize> = std::iter::once(header)
        .chain(ends.iter().copied())
        .collect();
    for k in 0..ends.len() {
        let (start, end) = (starts[k], ends[k]);
        for cut in [start + 1, (start + end) / 2, end - 1] {
            std::fs::write(&path, &bytes[..cut]).expect("write cut file");
            let (store, rep) = JournaledDb::open(Box::new(DiskIo), &path)
                .unwrap_or_else(|e| panic!("cut at {cut} inside entry {}: {e}", k + 1));
            assert_eq!(rep.journal_replayed, k, "cut at {cut}");
            assert_eq!(rep.salvaged_bytes, cut - start, "cut at {cut}");
            assert_eq!(store.db().len(), k, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, start);
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Damage before the last entry cannot be a torn append: salvaging it
/// would drop the entries after it, so it is a typed error at the damaged
/// entry's offset, and the file is left as it was.
#[test]
fn damage_before_the_last_entry_is_a_typed_error_with_its_offset() {
    let path = tmp_path("corrupt");
    populated_db(&path);
    let bytes = std::fs::read(&path).expect("read back");
    let header = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let first_end = entry_ends(&bytes)[0];
    for at in [header + 2, (header + first_end) / 2, first_end - 2] {
        let mut broken = bytes.clone();
        broken[at] ^= 0x01;
        std::fs::write(&path, &broken).expect("write damaged file");
        match open(&path) {
            Err(DbError::Corrupt { offset, reason }) => {
                assert_eq!(offset, header, "byte {at}: {reason}");
                assert!(reason.starts_with("database: "), "byte {at}: {reason}");
            }
            Ok(_) => panic!("damage at byte {at} loaded silently"),
            Err(e) => panic!("damage at byte {at} gave the wrong error kind: {e}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), broken, "left as it was");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_missing_file_opens_empty_and_a_corrupt_one_is_refused() {
    let path = tmp_path("missing");
    let _ = std::fs::remove_file(&path);
    // A missing file starts empty (first daemon start), but a corrupt
    // existing file is still refused.
    let store = open(&path).expect("open missing");
    assert!(store.db().is_empty());
    std::fs::write(&path, "not a database\n").expect("write garbage");
    match open(&path) {
        Err(DbError::Corrupt { .. }) => {}
        Err(e) => panic!("open of a corrupt file gave the wrong error: {e}"),
        Ok(_) => panic!("open of a corrupt file succeeded silently"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A record whose entry is about 8 KiB: a long key makes a file larger
/// than the compaction threshold out of few programs.
fn big_record(i: usize) -> (String, TuningRecord) {
    let key = format!("{i:04}-{}", "k".repeat(8 << 10));
    let record = TuningRecord {
        best: tir::builder::matmul_func("mm", 16, 16, 16, DataType::float32()),
        best_time: 1e-5,
        trials: 4,
        budget: 4,
        tuning_cost_s: 0.5,
    };
    (key, record)
}

/// A store reopened on a file larger than the compaction threshold appends
/// without compacting until it has itself appended more than the threshold;
/// `journal_bytes` counts those bytes, never the file's length.
#[test]
fn a_reopened_large_file_compacts_on_bytes_appended_since_the_open() {
    let path = tmp_path("threshold");
    let _ = std::fs::remove_file(&path);
    let threshold = JournaledDb::DEFAULT_COMPACT_THRESHOLD;
    let mut seed = TuningDatabase::new();
    for i in 0..40 {
        let (key, record) = big_record(i);
        seed.insert("SimGPU", Strategy::TensorIr, key, record);
    }
    let (mut store, _) = JournaledDb::open(Box::new(DiskIo), &path).expect("open");
    *store.db_mut() = seed;
    store.compact().expect("compact");
    drop(store);
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(file_len > threshold, "{file_len} bytes");

    let (mut store, rep) = JournaledDb::open(Box::new(DiskIo), &path).expect("reopen");
    assert_eq!(
        (rep.journal_replayed, store.compact_threshold),
        (40, threshold)
    );
    assert_eq!(store.journal_bytes(), 0, "nothing appended since the open");
    let mut appended = 0;
    for i in 40.. {
        let (key, record) = big_record(i);
        let outcome = store
            .publish("SimGPU", Strategy::TensorIr, key, record)
            .expect("publish");
        appended += outcome.appended_bytes;
        if appended <= threshold {
            assert!(!outcome.compacted, "compacted after {appended} bytes");
            assert_eq!(store.journal_bytes(), appended);
            let grown = std::fs::metadata(&path).unwrap().len() as usize;
            assert_eq!(grown, file_len + appended, "appended, not rewritten");
        } else {
            assert!(outcome.compacted, "{appended} bytes appended");
            assert_eq!((store.journal_bytes(), store.compactions()), (0, 1));
            assert_eq!(store.db().len(), i + 1);
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
}
