//! Self-checks of the benchmark binary. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// Exit code and `(name, value, unit)` of every metric on the result line.
struct Outcome {
    success: bool,
    line: String,
    metrics: Vec<(String, f64, String)>,
}

fn perfbench(args: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().unwrap_or_default().to_string();
    Outcome {
        success: out.status.success(),
        metrics: parse_metrics(&line),
        line,
    }
}

/// Parses `"name": {"value": v, "unit": "u"}` entries of the result line.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut rest = &line[start + "\"metrics\": {".len()..];
    let mut out = Vec::new();
    while let Some(q) = rest.find('"') {
        let body = &rest[q + 1..];
        let name_end = body.find('"').expect("closing quote");
        let name = &body[..name_end];
        let after = &body[name_end..];
        let v0 = after.find("\"value\": ").expect("value") + "\"value\": ".len();
        let v1 = v0 + after[v0..].find(',').expect("comma");
        let u0 = v1 + after[v1..].find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
        let u1 = u0 + after[u0..].find('"').expect("unit quote");
        out.push((
            name.to_string(),
            after[v0..v1].parse().expect("numeric value"),
            after[u0..u1].to_string(),
        ));
        rest = &after[u1 + 1..];
        if rest.starts_with("}}") {
            break;
        }
        rest = &rest[1..];
    }
    out
}

fn integer_field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat).expect("field present") + pat.len();
    let digits: String = line[i..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("integer field")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// Metric names of one section of BENCHMARK.json (`end_to_end` or
/// `per_layer`), in file order.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = start + text[start..].find(']').expect("section ends");
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn a_wrong_expected_output_counts_as_failed_and_exits_non_zero() {
    let args = [
        "--workload",
        "executors",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let good = perfbench(&args);
    assert!(good.success, "{}", good.line);
    assert_eq!(integer_field(&good.line, "failed"), 0);

    let mut wrong = args.to_vec();
    wrong.push("--wrong-expectation");
    let bad = perfbench(&wrong);
    assert!(!bad.success, "a wrong expectation must fail the run");
    assert!(bad.line.contains("\"correct\": false"), "{}", bad.line);
    let (failed, attempted) = (
        integer_field(&bad.line, "failed"),
        integer_field(&bad.line, "attempted"),
    );
    assert!(failed > 0 && failed <= attempted, "{}", bad.line);
}

#[test]
fn emitted_names_are_legal_and_match_the_declaration() {
    let plain = perfbench(&[
        "--workload",
        "executors",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let traced = perfbench(&[
        "--workload",
        "executors",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(
        plain.success && traced.success,
        "{}\n{}",
        plain.line,
        traced.line
    );
    for (outcome, section) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
        let names: Vec<String> = outcome.metrics.iter().map(|m| m.0.clone()).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert!(outcome.metrics.iter().all(|m| valid_unit(&m.2)));
        assert_eq!(
            names,
            declared(section),
            "{section} names differ from BENCHMARK.json"
        );
    }
}

#[test]
fn layer_self_times_and_other_sum_to_the_traced_wall() {
    let traced = perfbench(&[
        "--workload",
        "executors",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(traced.success, "{}", traced.line);
    let get = |name: &str| traced.metrics.iter().find(|m| m.0 == name).expect(name).1;
    let self_ms: f64 = traced
        .metrics
        .iter()
        .filter(|m| m.0.ends_with(".self_ms"))
        .map(|m| m.1)
        .sum();
    let wall_ms = get("trace.wall_ms");
    assert!(
        (self_ms - wall_ms).abs() <= 1e-6 * wall_ms,
        "{self_ms} vs {wall_ms}"
    );
    assert!(get("other.self_ms") >= 0.0);
    assert!(get("cluster.event.calls") > 0.0 && get("cluster.recovery.attempts") > 0.0);
}
