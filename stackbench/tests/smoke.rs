//! Runs every workload at a tiny size, untraced and traced, and checks that
//! each run exits 0, prints every metric `BENCHMARK.json` lists for its
//! mode — as a `name value unit` line and in the final JSON — and fails no
//! operation.

use std::process::Command;

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no `{key}`"));
    let section = &text[start..];
    // The section ends at the next top-level key.
    let end = section.find("\n  \"").unwrap_or(section.len());
    let names: Vec<String> = section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect();
    assert!(!names.is_empty(), "`{key}` lists no metrics");
    names
}

fn smoke(workload: &str) {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
            .args(["--workload", workload, "--seed", "1", "--seconds", "0.02", "--trace", trace])
            .output()
            .expect("spawn stackbench");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        assert!(
            out.status.success(),
            "{workload} --trace {trace} exited {}:\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let result = stdout.lines().last().expect("a result line");
        assert!(result.contains("\"correct\": true"), "{result}");
        assert!(result.contains("\"failed\": 0,"), "{result}");
        for name in listed(key) {
            assert!(
                result.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} --trace {trace}: `{name}` missing from {result}"
            );
            assert!(
                stdout.lines().any(|l| l.split_whitespace().next() == Some(name.as_str())),
                "{workload} --trace {trace}: no `{name} value unit` line"
            );
        }
    }
}

#[test]
fn sweep() {
    smoke("sweep");
}

#[test]
fn ndjson() {
    smoke("ndjson");
}

#[test]
fn service() {
    smoke("service");
}

#[test]
fn guarded() {
    smoke("guarded");
}
