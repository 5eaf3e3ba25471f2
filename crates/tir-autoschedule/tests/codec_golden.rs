//! Golden bytes of the tuning database's one on-disk format: a header line,
//! then one framed, checksummed `record` entry per record. A store that
//! publishes three records appends three entries to a fresh file
//! (`JournaledDb::publish`); a compaction rewrites the file as the same
//! entries sorted by (machine, strategy, key) (`TuningDatabase::encode`,
//! through the atomic write-temp + fsync + rename). Every `f64` is stored
//! as the hex of its bits. `tests/golden/journal_3_entries.bin` was
//! recorded when the appended entries still went to a second file beside a
//! snapshot, so a byte of drift in the entry codec fails here.
//!
//! Regenerate (only when the format is *meant* to change, together with
//! its version header) with
//! `cargo test -p tir-autoschedule --test codec_golden -- --ignored`.

use std::path::PathBuf;

use tir::DataType;
use tir_autoschedule::{DbError, DiskIo, JournaledDb, Strategy, TuningDatabase, TuningRecord};

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

/// A fresh directory of the test's own, and the database path in it.
fn tmp_db(tag: &str) -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("codec-golden-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("tuning.db");
    (dir, path)
}

/// A fresh store, in a directory tagged `tag`, with the three records
/// published in order: the file's bytes, then the bytes a compaction
/// leaves.
fn published_then_compacted(tag: &str) -> (Vec<u8>, Vec<u8>) {
    let (dir, path) = tmp_db(tag);
    let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).expect("open");
    for (machine, strategy, key, record) in records() {
        store
            .publish(machine, strategy, key, record)
            .expect("publish");
    }
    let published = std::fs::read(&path).expect("file written");
    store.compact().expect("compact");
    let compacted = std::fs::read(&path).expect("file rewritten");
    let _ = std::fs::remove_dir_all(&dir);
    (published, compacted)
}

/// The header line and the entries of a database file, each entry with its
/// `entry <len> <sum>` line.
fn entries(bytes: &[u8]) -> (&[u8], Vec<&[u8]>) {
    let line_end = |at: usize| at + bytes[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let header_end = line_end(0);
    let mut out = Vec::new();
    let mut at = header_end;
    while at < bytes.len() {
        let payload = line_end(at);
        let line = std::str::from_utf8(&bytes[at..payload]).unwrap();
        let len: usize = line.split(' ').nth(1).unwrap().parse().unwrap();
        out.push(&bytes[at..payload + len]);
        at = payload + len;
    }
    (&bytes[..header_end], out)
}

/// `(machine, strategy, key)` of one entry: the first three blobs of its
/// `record` block.
fn identity(entry: &[u8]) -> (&str, &str, &str) {
    let text = std::str::from_utf8(entry).unwrap();
    let mut lines = text.lines().skip(2);
    let mut next = || lines.next().unwrap();
    (next(), next(), next())
}

#[test]
fn journal_of_three_entries_matches_golden() {
    let golden = std::fs::read(format!("{GOLDEN_DIR}/journal_3_entries.bin")).expect("golden");
    let (published, _) = published_then_compacted("golden");
    assert_eq!(published, golden);
}

/// A compaction writes the same header and the same three entries, sorted
/// by (machine, strategy, key), and they read back as the same database.
#[test]
fn compacted_file_is_the_published_entries_sorted() {
    let (published, compacted) = published_then_compacted("sorted");
    let (header, mut want) = entries(&published);
    want.sort_by(|a, b| identity(a).cmp(&identity(b)));
    assert_eq!(entries(&compacted), (header, want));
    let mut db = TuningDatabase::new();
    for (machine, strategy, key, record) in records() {
        db.insert(machine, strategy, key, record);
    }
    assert_eq!(compacted, db.encode().as_bytes());

    let (dir, path) = tmp_db("reopen");
    std::fs::write(&path, &compacted).expect("write");
    let (store, rep) = JournaledDb::open(Box::new(DiskIo::new()), &path).expect("open");
    assert_eq!((rep.journal_replayed, rep.salvaged_bytes), (3, 0));
    assert_eq!(store.db().encode().as_bytes(), compacted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_writes_the_encoded_bytes_and_no_temp_file() {
    let (dir, path) = tmp_db("save");
    let (mut store, _) = JournaledDb::open(Box::new(DiskIo::new()), &path).expect("open");
    for (machine, strategy, key, record) in records() {
        store.db_mut().insert(machine, strategy, key, record);
    }
    store.compact().expect("compact");
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        store.db().encode()
    );
    assert!(
        !dir.join("tuning.db.tmp").exists(),
        "temp file must be renamed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Files this build cannot read are refused by name, with what to do,
/// never opened as an empty database: a `v1` snapshot or journal (keyed by
/// the printed program with every word renamed, dtypes included, so their
/// records cannot be re-keyed), a `v2` snapshot of the two-file layout,
/// and a journal of that layout left beside the path, which may hold
/// acknowledged records.
#[test]
fn old_files_are_refused_by_name() {
    let (dir, path) = tmp_db("old");
    let journal = std::fs::read(format!("{GOLDEN_DIR}/journal_3_entries.bin")).expect("golden");
    let v1_journal = [b"tir-tuning-db-journal v1", &journal[24..]].concat();
    let snapshot = |version: &str| {
        format!("tir-tuning-database {version}\ncounters 0 0\nrecords 0\nend\n").into_bytes()
    };
    let expected = "expected `tir-tuning-db-journal v2`";
    let cases = [
        (
            path.clone(),
            snapshot("v1"),
            "database header is `tir-tuning-database v1`",
        ),
        (
            path.clone(),
            snapshot("v2"),
            "database header is `tir-tuning-database v2`",
        ),
        (
            path.clone(),
            v1_journal,
            "database header is `tir-tuning-db-journal v1`",
        ),
        (
            dir.join("tuning.db.journal"),
            journal,
            "tuning.db.journal is the journal of a `tir-tuning-database v2` snapshot",
        ),
    ];
    for (file, bytes, names) in cases {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        std::fs::write(&file, bytes).expect("write old file");
        match JournaledDb::open(Box::new(DiskIo::new()), &path) {
            Err(DbError::Corrupt { offset: 0, reason }) => {
                assert!(reason.contains(names), "{reason}");
                let leftover = file != path;
                assert!(leftover || reason.contains(expected), "{reason}");
                assert!(reason.contains("move the file aside"), "{reason}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("an old file was opened: {}", file.display()),
        }
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "nothing written"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_golden() {
    let (published, _) = published_then_compacted("regenerate");
    std::fs::write(format!("{GOLDEN_DIR}/journal_3_entries.bin"), published)
        .expect("write journal");
}
