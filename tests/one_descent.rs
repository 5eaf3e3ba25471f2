//! Source gate: which statements are a statement's children is written
//! down once, in `tir::Stmt::children`. `tir-schedule` and the lookups of
//! `tir::visit` used to spell it out by hand fifteen times, and the copies
//! did not agree (some skipped a block's `init`, one skipped both branches
//! of an `if`). A descent has to name `Stmt::IfThenElse` and its
//! `else_branch` to take an `if`'s children by hand, so this test reads the
//! sources — above each file's first `#[cfg(test)]` — and counts those two.

use std::path::Path;

/// The code of a source file: up to its first test module, comments out.
fn code(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("readable source file");
    (text.lines())
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| format!("{line}\n"))
        .collect()
}

const INSTEAD: &str = "write the descent over `Stmt::children` / `children_mut` / `find` \
    (crates/tir/src/stmt.rs); one that must stop at a block says so with \
    `if let Stmt::BlockRealize(..) = s { ..; return }` above the loop";

#[test]
fn no_hand_written_descent_in_tir_schedule_or_tir_visit() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut schedule_sources: Vec<_> = std::fs::read_dir(crates.join("tir-schedule/src"))
        .expect("tir-schedule sources")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    schedule_sources.sort();
    assert!(schedule_sources.len() >= 9, "{schedule_sources:?}");

    let mut named = Vec::new();
    for path in &schedule_sources {
        let code = code(path);
        let file = path.file_name().expect("file name").to_string_lossy();
        for word in ["Stmt::IfThenElse", "else_branch"] {
            named.extend(std::iter::repeat_n(
                format!("{file}: {word}"),
                code.matches(word).count(),
            ));
        }
    }
    // `add_predicate` guards a bare store with an `if`: the one construction.
    assert_eq!(
        named,
        [
            "loop_transform.rs: Stmt::IfThenElse",
            "loop_transform.rs: else_branch"
        ],
        "tir-schedule names an `if`'s parts outside `add_predicate`: {INSTEAD}"
    );
    let transform = code(&crates.join("tir-schedule/src/loop_transform.rs"));
    let add_predicate = (transform.split("\nfn add_predicate(").nth(1))
        .and_then(|rest| rest.split("\n}\n").next())
        .expect("fn add_predicate");
    assert!(
        add_predicate.contains("Stmt::IfThenElse") && add_predicate.contains("else_branch"),
        "the `if` tir-schedule builds is no longer built by `add_predicate`: {INSTEAD}"
    );

    // The two `walk_stmt` defaults interleave a node's expressions with its
    // children and route blocks through `visit_block` / `mutate_block`.
    let visit = code(&crates.join("tir/src/visit.rs"));
    assert_eq!(
        visit.matches("Stmt::IfThenElse").count(),
        2,
        "tir::visit destructures an `if` outside its two `walk_stmt` defaults: {INSTEAD}"
    );
    assert_eq!(visit.matches("fn walk_stmt(").count(), 2);
}
