//! Source gate: the daemon takes every lock through one poison-tolerant
//! helper, `unpoisoned` in `crates/tir-serve/src/server.rs`. A lock taken
//! with `.lock().expect(..)` (or `.unwrap()`) panics once any holder has
//! panicked, so one bad request would take every later one down with it.
//! The same holds for a condvar's `.wait(..)`. This test reads the daemon's
//! sources — above each file's first `#[cfg(test)]` — and refuses those
//! spellings, on one line or split over several.

use std::path::{Path, PathBuf};

/// The code of a source file up to its first test module, comments out and
/// all whitespace removed, so a call chain split over lines reads as one.
fn code(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("readable source file");
    (text.lines())
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| line.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

/// Every `.rs` file under `dir`, sorted.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn every_daemon_lock_goes_through_the_poison_tolerant_helper() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/tir-serve/src");
    let files = sources(&src);
    assert!(files.len() >= 5, "{files:?}");
    let mut offenders = Vec::new();
    let mut acquisitions = 0;
    for path in &files {
        let code = code(path);
        let file = path.strip_prefix(&src).expect("under src").display();
        for banned in [".lock().expect(", ".lock().unwrap("] {
            offenders.extend(code.matches(banned).map(|_| format!("{file}: {banned}")));
        }
        for (at, _) in code.match_indices(".wait(") {
            if refuses_poison(&code[at + ".wait".len()..]) {
                offenders.push(format!("{file}: .wait(..).expect("));
            }
        }
        acquisitions += code.matches("unpoisoned(").count();
    }
    assert!(
        offenders.is_empty(),
        "take the lock with `unpoisoned(m.lock())` and wait with \
         `unpoisoned(cv.wait(guard))` (crates/tir-serve/src/server.rs): {offenders:?}"
    );
    assert!(
        acquisitions > 0,
        "no `unpoisoned(` call: did the helper move?"
    );
}

/// Whether the call whose parenthesised arguments open `rest` is followed
/// by `.expect(` or `.unwrap(`.
fn refuses_poison(rest: &str) -> bool {
    let mut depth = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => {
                let after = &rest[i + 1..];
                return after.starts_with(".expect(") || after.starts_with(".unwrap(");
            }
            ')' => depth -= 1,
            _ => {}
        }
    }
    false
}
