//! `validate_schema` — check telemetry artifacts against the documented
//! schemas (DESIGN.md).
//!
//! ```text
//! validate_schema [--report <BENCH_*.json>]... [--fault-log <log.ndjson>]...
//!                 [--sched <BENCH_sched.json>]...
//!                 [--quanta-compare <a.json> <b.json>]...
//! ```
//!
//! Validates each `--report` against `enerj-campaign/5`, each `--fault-log`
//! against the NDJSON fault-event schema, and each `--sched` against the
//! `enerj-sched/1` budget-scheduling report schema (including the
//! scheduler's own bit-identity verdict and the exact integer budget
//! arithmetic). `--quanta-compare` checks that two campaign reports carry
//! *identical* integer energy totals (`energy_quanta` and
//! `recovery_energy_overhead_quanta`), compared as parsed 128-bit integers
//! ([`Json::Int`] keeps literals lossless), so values above 2^53 cannot be
//! blurred by f64 parsing — the CI smoke script runs the same campaign
//! at two thread counts and requires the totals to match exactly. Exit
//! code 0 when everything conforms, 1 on the first violation.

use std::process::ExitCode;

use enerj_bench::json::Json;
use enerj_bench::validate::{validate_campaign_report, validate_fault_log, validate_sched_report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("validate_schema: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Compares the top-level field `key` of two parsed reports for exact
/// integer equality: the field must be an integer or an object whose
/// values are integers (the `energy_quanta` breakdown), and every integer
/// is compared at full 128-bit precision.
fn compare_exact_field(a: &Json, b: &Json, key: &str) -> Result<(), String> {
    let va = a.get(key).ok_or_else(|| format!("first report: missing `{key}`"))?;
    let vb = b.get(key).ok_or_else(|| format!("second report: missing `{key}`"))?;
    match (va, vb) {
        (Json::Obj(_), Json::Obj(_)) => {
            let fa = va.as_object().expect("matched object");
            let fb = vb.as_object().expect("matched object");
            let keys_a: Vec<&str> = fa.iter().map(|(k, _)| k.as_str()).collect();
            let keys_b: Vec<&str> = fb.iter().map(|(k, _)| k.as_str()).collect();
            if keys_a != keys_b {
                return Err(format!("`{key}` field sets differ: {keys_a:?} vs {keys_b:?}"));
            }
            for (k, inner_a) in fa {
                let inner_b = vb.get(k).expect("key sets match");
                compare_exact_int(inner_a, inner_b, &format!("{key}.{k}"))?;
            }
            Ok(())
        }
        _ => compare_exact_int(va, vb, key),
    }
}

/// Exact comparison of two integer leaves. Non-integers (fractions,
/// exponents, or values outside i128) are a validation error, not a lossy
/// fallback: quanta that can't be parsed exactly can't be compared.
fn compare_exact_int(a: &Json, b: &Json, what: &str) -> Result<(), String> {
    let xa = a.as_i128().ok_or_else(|| format!("`{what}` is not an exact integer: {a:?}"))?;
    let xb = b.as_i128().ok_or_else(|| format!("`{what}` is not an exact integer: {b:?}"))?;
    if xa != xb {
        return Err(format!("`{what}` differs: {xa} vs {xb}"));
    }
    Ok(())
}

fn compare_quanta(path_a: &str, path_b: &str) -> Result<(), String> {
    let text_a = std::fs::read_to_string(path_a).map_err(|e| format!("{path_a}: {e}"))?;
    let text_b = std::fs::read_to_string(path_b).map_err(|e| format!("{path_b}: {e}"))?;
    let a = Json::parse(text_a.trim()).map_err(|e| format!("{path_a}: {e}"))?;
    let b = Json::parse(text_b.trim()).map_err(|e| format!("{path_b}: {e}"))?;
    for key in ["energy_quanta", "recovery_energy_overhead_quanta"] {
        compare_exact_field(&a, &b, key).map_err(|e| format!("{path_a} vs {path_b}: {e}"))?;
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let mut checked = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => {
                let path = it.next().ok_or("--report needs a path")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let parsed = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
                let trials =
                    validate_campaign_report(&parsed).map_err(|e| format!("{path}: {e}"))?;
                println!("{path}: OK (enerj-campaign/5, {trials} trials)");
                checked += 1;
            }
            "--fault-log" => {
                let path = it.next().ok_or("--fault-log needs a path")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let events = validate_fault_log(&text).map_err(|e| format!("{path}: {e}"))?;
                println!("{path}: OK ({events} fault events)");
                checked += 1;
            }
            "--sched" => {
                let path = it.next().ok_or("--sched needs a path")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let parsed = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
                let rows = validate_sched_report(&parsed).map_err(|e| format!("{path}: {e}"))?;
                println!("{path}: OK (enerj-sched/1, {rows} baseline rows)");
                checked += 1;
            }
            "--quanta-compare" => {
                let a = it.next().ok_or("--quanta-compare needs two paths")?;
                let b = it.next().ok_or("--quanta-compare needs two paths")?;
                compare_quanta(a, b)?;
                println!("{a} == {b}: OK (energy quanta exactly equal)");
                checked += 1;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: validate_schema \
                     [--report <path>]... [--fault-log <path>]... \
                     [--sched <path>]... [--quanta-compare <a> <b>]..."
                ))
            }
        }
    }
    if checked == 0 {
        return Err("nothing to validate; pass --report, --fault-log, \
                    --sched and/or --quanta-compare"
            .to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{compare_exact_field, Json};

    #[test]
    fn quanta_comparison_is_exact_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 are the classic f64 collision: a parser that
        // rounds through f64 would call these reports identical.
        let a = Json::parse(
            r#"{"energy_quanta":{"total":9007199254740992,"baseline_total":9007199254740992},
                "recovery_energy_overhead_quanta":0}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"energy_quanta":{"total":9007199254740993,"baseline_total":9007199254740992},
                "recovery_energy_overhead_quanta":0}"#,
        )
        .unwrap();
        let err = compare_exact_field(&a, &b, "energy_quanta").unwrap_err();
        assert!(err.contains("9007199254740992 vs 9007199254740993"), "{err}");
        assert!(compare_exact_field(&a, &a, "energy_quanta").is_ok());
        assert!(compare_exact_field(&a, &b, "recovery_energy_overhead_quanta").is_ok());
    }

    #[test]
    fn non_integer_quanta_are_an_error_not_a_fallback() {
        let a = Json::parse(r#"{"q":1.5}"#).unwrap();
        let b = Json::parse(r#"{"q":1.5}"#).unwrap();
        let err = compare_exact_field(&a, &b, "q").unwrap_err();
        assert!(err.contains("not an exact integer"), "{err}");
        // Differing field sets in the breakdown object are drift, too.
        let a = Json::parse(r#"{"q":{"total":1}}"#).unwrap();
        let b = Json::parse(r#"{"q":{"grand_total":1}}"#).unwrap();
        assert!(compare_exact_field(&a, &b, "q").unwrap_err().contains("field sets"));
    }
}
