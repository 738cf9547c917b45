//! `bench section NAME`, driven from outside as the perf run drives it:
//! the child prints only its section's JSON, and a name outside the
//! section table is a usage error.

use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("run the bench binary")
}

#[test]
fn a_section_prints_only_its_json_map() {
    let out = bench(&["section", "run_2h_1GiB_60C_trefp0.618", "--smoke"]);
    assert!(out.status.success(), "{:?}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let serde_json::Value::Map(entries) = value else { panic!("not a map: {text}") };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["single_thread_ms", "parallel_ms"]);
    assert!(entries.iter().all(|(_, v)| matches!(v, serde_json::Value::F64(_))), "{text}");
}

#[test]
fn an_unknown_section_is_a_usage_error() {
    let out = bench(&["section", "no_such_section"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage: bench section <run_2h_1GiB_50C|"), "{stderr}");
}
