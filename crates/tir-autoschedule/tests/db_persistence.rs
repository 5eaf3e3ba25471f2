//! Persistence contract of the on-disk tuning database: a snapshot written
//! by `JournaledDb::compact` and read back by `JournaledDb::open` is
//! bit-identical (counters, records, fingerprints, every float), and damage
//! to the file is a typed error — never a panic, never a silently empty
//! database.

use std::path::{Path, PathBuf};

use tir::DataType;
use tir_autoschedule::{DbError, DiskIo, JournaledDb, Strategy, TuneOptions};
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
/// non-trivial hit/miss counters, compacted into a snapshot at `path`: the
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
    // Two extra lookups so hits (2) and misses (2) are both non-zero
    // and unequal to the record count's default relationship.
    db.tune_cached(&gmm_gpu, &gpu, &registry, Strategy::TensorIr, &opts);
    db.tune_cached(&gmm_arm, &arm, &registry, Strategy::TensorIr, &opts);
    store.compact().expect("compact");
    store
}

#[test]
fn compact_open_round_trip_is_bit_identical() {
    let path = tmp_path("roundtrip");
    let store = populated_db(&path);
    let db = store.db();
    let loaded = open(&path).expect("open");
    let loaded = loaded.db();

    // Counters survive.
    assert_eq!(loaded.hits(), db.hits());
    assert_eq!(loaded.misses(), db.misses());
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

#[test]
fn truncated_file_is_a_typed_error() {
    let path = tmp_path("truncated");
    populated_db(&path);
    let text = std::fs::read_to_string(&path).expect("read back");

    // Chop the file at several points, including mid-record and just
    // before the `end` sentinel: every truncation must be detected.
    for cut in [text.len() / 4, text.len() / 2, text.len() - 4] {
        let mut broken = text[..cut].to_string();
        // Keep the cut on a UTF-8 boundary (the format is ASCII except
        // for program text, so this only matters mid-payload).
        while !text.is_char_boundary(broken.len()) {
            broken.pop();
        }
        std::fs::write(&path, &broken).expect("write truncated");
        match open(&path) {
            Err(DbError::Corrupt { .. }) => {}
            Ok(store) => panic!(
                "truncation at {cut} silently loaded {} records",
                store.db().len()
            ),
            Err(e) => panic!("truncation at {cut} gave the wrong error kind: {e}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_fields_are_typed_errors_with_offsets() {
    let path = tmp_path("corrupt");
    populated_db(&path);
    let text = std::fs::read_to_string(&path).expect("read back");

    // A wrong header, a garbled counter, and a record count that
    // overstates the payload.
    let cases = [
        text.replacen("tir-tuning-database v2", "tir-tuning-database v9", 1),
        text.replacen("counters", "confetti", 1),
        text.replacen("records 2", "records 7", 1),
    ];
    for (i, broken) in cases.iter().enumerate() {
        std::fs::write(&path, broken).expect("write corrupted");
        match open(&path) {
            Err(DbError::Corrupt { reason, .. }) => {
                assert!(!reason.is_empty(), "case {i}: reason must be populated");
            }
            Ok(_) => panic!("case {i}: corruption loaded silently"),
            Err(e) => panic!("case {i}: wrong error kind: {e}"),
        }
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
