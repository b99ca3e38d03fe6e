//! The benchmark's own tests: every workload at `--tiny` size, on two
//! seeds, untraced and traced. Each run must pass its correctness checks
//! and print exactly the metrics `BENCHMARK.json` declares, with their
//! units; two runs on one seed must agree on the fingerprint and on
//! `mean_accuracy`.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn declared() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ekya-perfbench")).args(args).output().expect("benchmark runs")
}

/// Runs one tiny workload; returns the result object and the
/// `# <workload> …` information line.
fn run_tiny(workload: &str, seed: u64, trace: u8) -> (Value, String) {
    let seed = seed.to_string();
    let trace = trace.to_string();
    let args =
        ["--workload", workload, "--seed", &seed, "--seconds", "2", "--trace", &trace, "--tiny"];
    let out = run(&args);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let info = stdout.lines().find(|l| l.starts_with('#')).expect("an information line");
    (serde_json::from_str(last).expect("result line is JSON"), info.to_string())
}

fn check_metrics(result: &Value, declared: &[Value], context: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{context}: not correct");
    assert_eq!(result.get("failed"), Some(&Value::I64(0)), "{context}: failures");
    assert!(
        matches!(result.get("attempted"), Some(Value::I64(n)) if *n >= 1),
        "{context}: nothing attempted"
    );
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("{context}: no metrics object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|m| text(m, "name")).collect();
    assert_eq!(names, want, "{context}: metric set");
    for m in declared {
        let got = result.get("metrics").and_then(|ms| ms.get(text(m, "name"))).expect("present");
        assert_eq!(text(got, "unit"), text(m, "unit"), "{context}: unit of {}", text(m, "name"));
        assert!(
            matches!(got.get("value"), Some(Value::F64(v)) if v.is_finite()),
            "{context}: value of {} is {:?}",
            text(m, "name"),
            got.get("value")
        );
    }
}

/// The `key=value` field of an information line.
fn field<'a>(info: &'a str, key: &str) -> &'a str {
    info.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key} in {info}"))
}

/// Every workload the benchmark runs. `serve_fleet` is not in
/// `BENCHMARK.json` (see the README) but must keep working.
const WORKLOADS: [&str; 3] = ["serve_retrain", "serve_fleet", "sim_grid"];

#[test]
fn every_workload_prints_the_declared_metrics_on_two_seeds() {
    let spec = declared();
    let end_to_end = list(&spec, "end_to_end");
    let per_layer = list(&spec, "per_layer");
    for w in list(&spec, "workloads") {
        assert!(WORKLOADS.contains(&text(w, "name")), "unknown workload {w:?}");
    }
    for name in WORKLOADS {
        for seed in [1, 2] {
            let (untraced, info) = run_tiny(name, seed, 0);
            check_metrics(&untraced, end_to_end, &format!("{name} seed {seed} untraced"));
            let (traced, _) = run_tiny(name, seed, 1);
            check_metrics(&traced, per_layer, &format!("{name} seed {seed} traced"));
            if seed == 1 {
                let (_, again) = run_tiny(name, seed, 0);
                assert_eq!(field(&info, "fingerprint"), field(&again, "fingerprint"), "{name}");
                assert_eq!(field(&info, "mean_accuracy"), field(&again, "mean_accuracy"), "{name}");
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&[][..], &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]]
    {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
