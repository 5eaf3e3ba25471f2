//! The golden-file harness every golden suite shares: one hash, one
//! comparison and one rewrite. A suite writes its whole golden text as a
//! `String`, compares it here with the committed file, and rewrites that
//! file from an `#[ignore]`d test run with `-- --ignored`.
//!
//! The root suites reach this file as `corpus::golden`; the suites of
//! `crates/tir-autoschedule` and `workload_identity` include it with
//! `#[path]`.

// `workload_identity` pins hashes, not a golden file.
#![allow(dead_code)]

/// 64-bit FNV-1a of a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts that `now` is the golden text line for line. A failure names
/// the first 10 lines that differ (each under the nearest `== ` header
/// above it, if the file has headers) and how many differ in all; the two
/// texts must also have equally many lines.
pub fn assert_matches_golden(golden: &str, now: &str, what: &str) {
    let mut header = "";
    let mut mismatches = Vec::new();
    for (want, got) in golden.lines().zip(now.lines()) {
        if want.starts_with("== ") {
            header = want;
        }
        if want != got {
            let context = if header.is_empty() {
                String::new()
            } else {
                format!("  {header}\n")
            };
            mismatches.push(format!("{context}  want {want}\n   got {got}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} {what} differ from the golden file:\n{}",
        mismatches.len(),
        golden.lines().count(),
        mismatches[..mismatches.len().min(10)].join("\n")
    );
    assert_eq!(
        golden.lines().count(),
        now.lines().count(),
        "the golden file and this run have different line counts"
    );
}

/// Rewrites the golden file at `path` with `text` — what a suite's
/// `#[ignore]`d `regenerate_golden` test does, run with `-- --ignored`
/// only when its outcomes are *meant* to change.
pub fn rewrite(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}
