//! A short run of each workload prints every metric `BENCHMARK.json`
//! names, with its unit, and no failed operation.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |item: &str, key: &str| -> String {
        let at = item
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} in {item}"));
        let rest = &item[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string ends");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_prints(line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let comma = rest.find(',').expect("value ends");
        let value: f64 = rest[..comma]
            .parse()
            .unwrap_or_else(|_| panic!("{name} is a number"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest[comma..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} carries unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 6);
    assert!(per_layer.len() > 20);
    for workload in ["sql_feedback", "sql_durable_churn", "tcp_serve"] {
        assert_prints(&run(workload, "0"), &end_to_end);
        assert_prints(&run(workload, "1"), &per_layer);
    }
}

#[test]
fn rejects_an_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
