//! Golden bytes of the two on-disk database codecs: the snapshot
//! (`TuningDatabase::encode`) and the write-ahead journal
//! (`JournaledDb::publish`). Both store every `f64` as the hex of its
//! bits and land on disk through the atomic write-temp + fsync + rename;
//! the files under `tests/golden/` were recorded on the commit *before*
//! those two helpers were merged into one implementation each, so a
//! byte of drift in either codec fails here.
//!
//! Regenerate (only when a format is *meant* to change, together with its
//! version header) with
//! `cargo test -p tir-autoschedule --test codec_golden -- --ignored`.

use std::path::PathBuf;

use tir::DataType;
use tir_autoschedule::{
    journal_path_for, DbError, DiskIo, JournaledDb, Strategy, TuningDatabase, TuningRecord,
};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Three records that exercise every field of the record codec: all three
/// strategies, two machines, a key with spaces, and floats whose bits
/// matter (a subnormal, an infinity, a negative zero).
fn records() -> Vec<(&'static str, Strategy, String, TuningRecord)> {
    let mm = |n| tir::builder::matmul_func("mm", n, n, n, DataType::float16());
    vec![
        (
            "SimGPU (RTX-3080-class)",
            Strategy::TensorIr,
            "mm 16x16x16 f16".to_string(),
            TuningRecord {
                best: mm(16),
                best_time: 1.25e-4,
                trials: 64,
                budget: 64,
                tuning_cost_s: 12.0625,
            },
        ),
        (
            "SimGPU (RTX-3080-class)",
            Strategy::Ansor,
            "mm-32".to_string(),
            TuningRecord {
                best: mm(32),
                best_time: f64::from_bits(1),
                trials: 0,
                budget: 16,
                tuning_cost_s: -0.0,
            },
        ),
        (
            "SimARM",
            Strategy::Amos,
            "k".to_string(),
            TuningRecord {
                best: mm(8),
                best_time: f64::INFINITY,
                trials: 7,
                budget: 8,
                tuning_cost_s: 0.1,
            },
        ),
    ]
}

fn snapshot() -> String {
    let mut db = TuningDatabase::new();
    for (machine, strategy, key, record) in records() {
        db.insert(machine, strategy, key, record);
    }
    db.encode()
}

/// Snapshot-less store with the three records published in order: the
/// bytes of its journal, and the snapshot a compaction then writes (which
/// goes through `DiskIo::replace`).
fn journal_then_compacted_snapshot() -> (Vec<u8>, Vec<u8>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("codec-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let db_path = dir.join("tuning.db");
    let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &db_path).expect("open");
    for (machine, strategy, key, record) in records() {
        store
            .publish(machine, strategy, key, record)
            .expect("publish");
    }
    let journal = std::fs::read(journal_path_for(&db_path)).expect("journal written");
    store.compact().expect("compact");
    let compacted = std::fs::read(&db_path).expect("snapshot written");
    let _ = std::fs::remove_dir_all(&dir);
    (journal, compacted)
}

#[test]
fn db_snapshot_matches_golden_and_roundtrips() {
    let golden = std::fs::read_to_string(format!("{GOLDEN_DIR}/db_snapshot.txt")).expect("golden");
    assert_eq!(snapshot(), golden);
    let decoded = TuningDatabase::decode(&golden).expect("golden decodes");
    assert_eq!(decoded.encode(), golden, "decode → encode must be identity");
}

#[test]
fn journal_of_three_entries_matches_golden() {
    let golden = std::fs::read(format!("{GOLDEN_DIR}/journal_3_entries.bin")).expect("golden");
    let (journal, compacted) = journal_then_compacted_snapshot();
    assert_eq!(journal, golden);
    // The compacted snapshot is the same database.
    assert_eq!(String::from_utf8(compacted).expect("utf-8"), snapshot());
}

#[test]
fn saved_snapshot_is_the_encoded_bytes() {
    // `JournaledDb::compact` writes the snapshot through `DiskIo::replace`:
    // the encoded bytes, and no temp file left behind.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("codec-golden-save");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("tuning.db");
    let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).expect("open");
    *store.db_mut() = TuningDatabase::decode(&snapshot()).expect("decodes");
    store.compact().expect("compact");
    assert_eq!(std::fs::read_to_string(&path).expect("read"), snapshot());
    assert!(
        !dir.join("tuning.db.tmp").exists(),
        "temp file must be renamed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `v1` file keyed its records by the printed program with every word
/// renamed, dtypes included, so they cannot be re-keyed: `JournaledDb::open`
/// refuses a `v1` snapshot and a `v1` journal, naming the header it found
/// and the one it expected, and says what to do.
#[test]
fn v1_snapshots_and_journals_are_refused_by_name() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("codec-golden-v1");
    let db_path = dir.join("tuning.db");
    let v1 = |golden: &str, header: &str| {
        let bytes = std::fs::read(format!("{GOLDEN_DIR}/{golden}")).expect("golden");
        let (first, rest) = bytes.split_at(header.len());
        assert_eq!(first, header.as_bytes());
        [&header.as_bytes()[..header.len() - 1], b"1", rest].concat()
    };
    let cases = [
        (
            db_path.clone(),
            v1("db_snapshot.txt", "tir-tuning-database v2"),
            "snapshot header is `tir-tuning-database v1`, expected `tir-tuning-database v2`",
        ),
        (
            journal_path_for(&db_path),
            v1("journal_3_entries.bin", "tir-tuning-db-journal v2"),
            "journal header is `tir-tuning-db-journal v1`, expected `tir-tuning-db-journal v2`",
        ),
    ];
    for (path, bytes, names) in cases {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        std::fs::write(&path, bytes).expect("write v1 file");
        match JournaledDb::open(Box::new(DiskIo::new()), &db_path) {
            Err(DbError::Corrupt { offset: 0, reason }) => {
                assert!(reason.contains(names), "{reason}");
                assert!(reason.contains("move the file aside"), "{reason}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a v1 file was opened: {}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "rewrites the golden files"]
fn regenerate_golden() {
    std::fs::write(format!("{GOLDEN_DIR}/db_snapshot.txt"), snapshot()).expect("write snapshot");
    let (journal, _) = journal_then_compacted_snapshot();
    std::fs::write(format!("{GOLDEN_DIR}/journal_3_entries.bin"), journal).expect("write journal");
}
