//! The `stats` reply is wire bytes other programs parse: a flat JSON object
//! whose keys are exactly the rows of `docs/OPERATIONS.md`'s metrics table,
//! in that order, each an integer, written `{"key": N, "key": N}`.

use tir::DataType;
use tir_serve::client::{stats_field, Client};
use tir_serve::server::{ServeConfig, Server};
use tir_trace::json::is_well_formed_json;
use tir_workloads::ops;

/// The keys of the metrics table in `docs/OPERATIONS.md`, in order; a row
/// naming two keys (`` `a` / `b` ``) gives both.
fn documented_keys() -> Vec<String> {
    let doc = include_str!("../../../docs/OPERATIONS.md");
    let table = doc
        .split("| Key | Meaning |\n|---|---|\n")
        .nth(1)
        .expect("the metrics table");
    table
        .lines()
        .take_while(|line| line.starts_with('|'))
        .flat_map(|row| row.split('|').nth(1).expect("a key cell").split('/'))
        .map(|key| key.trim().trim_matches('`').to_string())
        .collect()
}

#[test]
fn stats_reply_has_the_documented_keys_in_order() {
    let keys = documented_keys();
    assert_eq!(keys.len(), 15, "{keys:?}");

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sock = dir.join(format!("tir-serve-test-stats-{pid}.sock"));
    let db = dir.join(format!("tir-serve-test-stats-{pid}.db"));
    let _ = std::fs::remove_file(&db);
    let server = Server::start(ServeConfig::new(&sock, &db)).expect("start");
    let mut c = Client::connect(&sock).expect("connect");
    let text = ops::gmm(32, 32, 32, DataType::float16(), DataType::float32()).to_string();
    c.tune("gpu", "tensorir", 4, 5, &text).expect("cold tune");
    c.query("gpu", "tensorir", &text).expect("warm query");

    let stats = c.stats().expect("stats");
    assert!(is_well_formed_json(&stats), "{stats}");
    let members: Vec<String> = keys
        .iter()
        .map(|key| {
            let value = stats_field(&stats, key).unwrap_or_else(|| panic!("no {key} in {stats}"));
            format!("\"{key}\": {value}")
        })
        .collect();
    assert_eq!(stats, format!("{{{}}}", members.join(", ")));
    assert_eq!(stats_field(&stats, "records"), Some(1), "{stats}");
    assert_eq!(stats_field(&stats, "cold_tunes"), Some(1), "{stats}");
    assert_eq!(stats_field(&stats, "warm_hits"), Some(1), "{stats}");
    assert_eq!(stats_field(&stats, "no_such_key"), None);

    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&db);
}
