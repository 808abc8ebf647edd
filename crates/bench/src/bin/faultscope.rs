//! `faultscope` — per-app, per-unit fault breakdowns from telemetry
//! artifacts.
//!
//! ```text
//! faultscope <results/BENCH_*.json | faults.ndjson> [--label L] [--bits] [--causes]
//! ```
//!
//! Reads either a campaign report (`enerj-campaign/5` JSON, aggregating
//! each trial's `fault_counts`) or an NDJSON fault log
//! (counting events), auto-detected, and prints one row per application
//! with a column per fault kind. Cells are injection counts with each
//! unit's share of the app's total; `--bits` switches to flipped-bit
//! totals — the honest "where did my error come from" measure. `--label L`
//! restricts to one campaign label (a level or strategy name).
//!
//! `--causes` switches to the recovery view (reports only): one row per
//! app × label with the trial count, how many trials needed recovery, how
//! many stayed degraded, the failure-cause mix (panics, watchdog
//! op-budget trips, failed output checks, QoS threshold breaches), and the
//! exact retry energy overhead in integer quanta.
//!
//! This is the observability counterpart to `fig5`: instead of "FFT
//! degrades at Medium", it answers "FFT's faults are 90% SRAM read
//! upsets" — or, with `--causes`, "FFT's retries are mostly QoS breaches".

use std::collections::BTreeMap;
use std::process::ExitCode;

use enerj_bench::json::Json;
use enerj_bench::render_table;
use enerj_hw::trace::FaultKind;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("faultscope: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: faultscope <BENCH_report.json | fault_log.ndjson> [--label L] [--bits] [--causes]"
        .to_owned()
}

/// injections and bits flipped, per (app, kind).
type Breakdown = BTreeMap<String, [(u64, u64); FaultKind::ALL.len()]>;

fn run(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut label = None;
    let mut bits = false;
    let mut causes = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => label = Some(it.next().ok_or("--label needs a value")?.clone()),
            "--bits" => bits = true,
            "--causes" => causes = true,
            other if !other.starts_with("--") => path = Some(other.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    let path = path.ok_or_else(usage)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;

    if causes {
        if !looks_like_report(&text) {
            return Err("--causes needs a campaign report (fault logs carry no \
                        recovery telemetry)"
                .to_owned());
        }
        return print_causes(&parse_report(&text)?, label.as_deref());
    }

    let (breakdown, source) = if looks_like_report(&text) {
        (from_report(&parse_report(&text)?, label.as_deref())?, "campaign report")
    } else {
        (from_ndjson(&text, label.as_deref())?, "fault log")
    };

    if breakdown.is_empty() {
        println!(
            "no faults recorded{}",
            match &label {
                Some(l) => format!(" for label `{l}`"),
                None => String::new(),
            }
        );
        return Ok(());
    }

    let measure = if bits { "bits flipped" } else { "injections" };
    let mut headers = vec!["Application"];
    let kind_names: Vec<String> = FaultKind::ALL.iter().map(|k| k.to_string()).collect();
    headers.extend(kind_names.iter().map(String::as_str));
    headers.push("total");

    let mut rows = Vec::new();
    for (app, counts) in &breakdown {
        let total: u64 = counts.iter().map(|&(inj, b)| if bits { b } else { inj }).sum();
        let mut row = vec![app.clone()];
        for &(inj, b) in counts {
            let n = if bits { b } else { inj };
            if n == 0 {
                row.push("-".to_owned());
            } else {
                row.push(format!("{n} ({:.0}%)", 100.0 * n as f64 / total.max(1) as f64));
            }
        }
        row.push(total.to_string());
        rows.push(row);
    }
    println!(
        "Fault breakdown by unit ({measure}, from {source}{})",
        match &label {
            Some(l) => format!(", label `{l}`"),
            None => String::new(),
        }
    );
    println!();
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

/// A campaign report is a single JSON object with a `schema` field; an
/// NDJSON log is one object per line with no `schema`.
fn looks_like_report(text: &str) -> bool {
    text.trim_start().starts_with('{')
        && Json::parse(text.trim())
            .ok()
            .is_some_and(|v| v.get("schema").and_then(Json::as_str).is_some())
}

/// The one report schema every bench binary writes.
const SCHEMA: &str = "enerj-campaign/5";

/// Parses a campaign report, accepting exactly [`SCHEMA`].
fn parse_report(text: &str) -> Result<Json, String> {
    let report = Json::parse(text.trim()).map_err(|e| format!("report: {e}"))?;
    let schema = report.get("schema").and_then(Json::as_str).ok_or("report: missing `schema`")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}`; re-run the bench binary to produce an {SCHEMA} report"
        ));
    }
    Ok(report)
}

fn from_report(report: &Json, label: Option<&str>) -> Result<Breakdown, String> {
    let trials = report.get("trials").and_then(Json::as_array).ok_or("report: missing `trials`")?;
    let mut breakdown = Breakdown::new();
    for trial in trials {
        let app = trial.get("app").and_then(Json::as_str).ok_or("trial: missing `app`")?;
        if let Some(want) = label {
            if trial.get("label").and_then(Json::as_str) != Some(want) {
                continue;
            }
        }
        let counts = trial.get("fault_counts").ok_or("trial: missing `fault_counts`")?;
        let entry = breakdown.entry(app.to_owned()).or_default();
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            if let Some(kc) = counts.get(&kind.to_string()) {
                let inj = kc.get("injections").and_then(Json::as_u128).unwrap_or(0);
                let b = kc.get("bits_flipped").and_then(Json::as_u128).unwrap_or(0);
                entry[i].0 += u64::try_from(inj).unwrap_or(u64::MAX);
                entry[i].1 += u64::try_from(b).unwrap_or(u64::MAX);
            }
        }
    }
    Ok(breakdown)
}

/// The stable failure-cause categories reports use as `failure_causes`
/// prefixes (see `enerj_apps::recovery::FailureCause`).
const CAUSE_CATEGORIES: [&str; 4] = ["panic", "op-budget", "check", "qos"];

/// Per app × label: `[trials, recovered, degraded, per-category counts...]`.
type CauseRows = BTreeMap<(String, String), [u64; 3 + CAUSE_CATEGORIES.len()]>;

/// Per app × label: summed retry overhead quanta.
type OverheadQuanta = BTreeMap<(String, String), u128>;

/// Accumulates the recovery view from a parsed report.
///
/// Outcomes come from the authoritative recorded fields, not inference:
/// `recovered_at_level` marks a trial recovered, and a trial is *degraded*
/// exactly when it failed (non-empty `failure_causes`) and no rung's
/// output was accepted (`recovered_at_level` null). The attempt ledger is
/// cross-checked — every failed attempt records one cause, so a recovered
/// trial must carry `attempts - 1` causes and a degraded one exactly
/// `attempts` — and any mismatch is a validation error rather than a
/// silently misclassified row. Overhead quanta are summed as exact
/// integers ([`Json::as_u128`]), never through f64.
fn causes_rows(report: &Json, label: Option<&str>) -> Result<(CauseRows, OverheadQuanta), String> {
    let trials = report.get("trials").and_then(Json::as_array).ok_or("report: missing `trials`")?;
    let mut rows = CauseRows::new();
    let mut overhead_quanta = OverheadQuanta::new();
    for (i, trial) in trials.iter().enumerate() {
        let app = trial.get("app").and_then(Json::as_str).ok_or("trial: missing `app`")?;
        let trial_label =
            trial.get("label").and_then(Json::as_str).ok_or("trial: missing `label`")?;
        if let Some(want) = label {
            if trial_label != want {
                continue;
            }
        }
        let causes = trial
            .get("failure_causes")
            .and_then(Json::as_array)
            .ok_or("trial: missing `failure_causes`")?;
        let attempts = trial
            .get("attempts")
            .and_then(Json::as_u128)
            .ok_or_else(|| format!("trial {i}: `attempts` must be a non-negative integer"))?;
        let recovered = trial.get("recovered_at_level").and_then(Json::as_str).is_some();
        let degraded = !recovered && !causes.is_empty();
        // Each failed attempt records exactly one cause: recovered trials
        // spent their last attempt on the accepted output, degraded ones
        // failed every attempt.
        let expect = causes.len() as u128 + u128::from(recovered);
        if (recovered || degraded) && expect != attempts {
            return Err(format!(
                "trial {i} ({app}/{trial_label}): {} failure causes and \
                 recovered_at_level {} are inconsistent with {attempts} attempts",
                causes.len(),
                if recovered { "set" } else { "null" },
            ));
        }
        let entry = rows.entry((app.to_owned(), trial_label.to_owned())).or_default();
        entry[0] += 1;
        entry[1] += u64::from(recovered);
        entry[2] += u64::from(degraded);
        for cause in causes {
            let cause = cause.as_str().unwrap_or("");
            for (j, cat) in CAUSE_CATEGORIES.iter().enumerate() {
                if cause.starts_with(&format!("{cat}:")) {
                    entry[3 + j] += 1;
                }
            }
        }
        let q = trial.get("recovery_energy_overhead_quanta").and_then(Json::as_u128);
        let q = q.ok_or_else(|| {
            format!("trial {i}: `recovery_energy_overhead_quanta` must be a non-negative integer")
        })?;
        *overhead_quanta.entry((app.to_owned(), trial_label.to_owned())).or_default() += q;
    }
    Ok((rows, overhead_quanta))
}

/// Prints the recovery view: per app × label, the trial count, recovery
/// outcomes, the failure-cause mix, and the exact retry energy overhead
/// (integer quanta).
fn print_causes(report: &Json, label: Option<&str>) -> Result<(), String> {
    let (rows, overhead_quanta) = causes_rows(report, label)?;
    if rows.is_empty() {
        println!(
            "no trials{}",
            match &label {
                Some(l) => format!(" for label `{l}`"),
                None => String::new(),
            }
        );
        return Ok(());
    }
    let mut headers = vec!["Application", "Label", "trials", "recovered", "degraded"];
    headers.extend(CAUSE_CATEGORIES);
    headers.push("overhead quanta");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|((app, lbl), counts)| {
            let mut row = vec![app.clone(), lbl.clone()];
            row.extend(counts.iter().map(|n| if *n == 0 { "-".to_owned() } else { n.to_string() }));
            // `trials` reads better as a number even when zero can't occur.
            row[2] = counts[0].to_string();
            let q = overhead_quanta.get(&(app.clone(), lbl.clone())).copied().unwrap_or(0);
            row.push(if q == 0 { "-".to_owned() } else { q.to_string() });
            row
        })
        .collect();
    println!("Recovery outcomes and failure causes by app and label");
    println!();
    println!("{}", render_table(&headers, &table_rows));
    Ok(())
}

fn from_ndjson(text: &str, label: Option<&str>) -> Result<Breakdown, String> {
    let mut breakdown = Breakdown::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let event = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let app = event
            .get("app")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing `app`", lineno + 1))?;
        if let Some(want) = label {
            if event.get("label").and_then(Json::as_str) != Some(want) {
                continue;
            }
        }
        let unit = event
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing `unit`", lineno + 1))?;
        let kind = FaultKind::from_name(unit)
            .ok_or_else(|| format!("line {}: unknown unit `{unit}`", lineno + 1))?;
        let b = event.get("bits_flipped").and_then(Json::as_u128).unwrap_or(0);
        let entry = breakdown.entry(app.to_owned()).or_default();
        entry[kind.index()].0 += 1;
        entry[kind.index()].1 += u64::try_from(b).unwrap_or(u64::MAX);
    }
    Ok(breakdown)
}

#[cfg(test)]
mod tests {
    use super::{causes_rows, parse_report, Json};

    #[test]
    fn both_views_accept_exactly_the_current_schema() {
        assert!(parse_report(r#"{"schema":"enerj-campaign/5","trials":[]}"#).is_ok());
        for old in ["enerj-campaign/1", "enerj-campaign/4", "enerj-campaign/6", "other"] {
            let text = format!(r#"{{"schema":"{old}","trials":[]}}"#);
            let err = parse_report(&text).unwrap_err();
            assert!(err.contains(&format!("unsupported schema `{old}`")), "{err}");
        }
    }

    /// A minimal `/5` trial list exercising every recovery outcome: a
    /// clean first-try pass, a trial recovered at a rung, and a degraded
    /// trial whose final attempt also failed.
    fn golden_report() -> Json {
        Json::parse(
            r#"{"schema":"enerj-campaign/5","trials":[
              {"app":"FFT","label":"Mild","attempts":1,"recovered_at_level":null,
               "failure_causes":[],"recovery_energy_overhead_quanta":0},
              {"app":"FFT","label":"Mild","attempts":2,"recovered_at_level":"Precise",
               "failure_causes":["qos: error 0.5 > threshold 0.1"],
               "recovery_energy_overhead_quanta":9007199254740993},
              {"app":"FFT","label":"Mild","attempts":2,"recovered_at_level":null,
               "failure_causes":["panic: index out of bounds","check: non-finite"],
               "recovery_energy_overhead_quanta":1}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn outcomes_come_from_recorded_fields_not_cause_counts() {
        let (rows, overhead) = causes_rows(&golden_report(), None).unwrap();
        let key = ("FFT".to_owned(), "Mild".to_owned());
        let counts = rows[&key];
        assert_eq!(counts[0], 3, "trials");
        assert_eq!(counts[1], 1, "recovered: only the trial with recovered_at_level set");
        assert_eq!(counts[2], 1, "degraded: failed causes with recovered_at_level null");
        // Category mix: one panic, one check, one qos.
        assert_eq!(&counts[3..], &[1, 0, 1, 1]);
        // Overhead sums exactly, beyond f64 precision (2^53 + 1 survives).
        assert_eq!(overhead[&key], 9_007_199_254_740_993 + 1);
    }

    #[test]
    fn inconsistent_attempt_ledger_is_a_validation_error() {
        // A recovered trial must carry attempts - 1 causes; two causes in
        // two attempts means the final attempt failed, which contradicts
        // recovered_at_level being set.
        let bad = Json::parse(
            r#"{"schema":"enerj-campaign/5","trials":[
              {"app":"FFT","label":"Mild","attempts":2,"recovered_at_level":"Precise",
               "failure_causes":["qos: a","qos: b"],
               "recovery_energy_overhead_quanta":0}
            ]}"#,
        )
        .unwrap();
        let err = causes_rows(&bad, None).unwrap_err();
        assert!(err.contains("inconsistent with 2 attempts"), "{err}");
        // The converse: a degraded trial (no recovery) claiming more
        // attempts than it has causes lost an attempt's record somewhere.
        let bad = Json::parse(
            r#"{"schema":"enerj-campaign/5","trials":[
              {"app":"FFT","label":"Mild","attempts":3,"recovered_at_level":null,
               "failure_causes":["qos: a","qos: b"],
               "recovery_energy_overhead_quanta":0}
            ]}"#,
        )
        .unwrap();
        assert!(causes_rows(&bad, None).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn fractional_overhead_quanta_are_rejected() {
        let bad = Json::parse(
            r#"{"schema":"enerj-campaign/5","trials":[
              {"app":"FFT","label":"Mild","attempts":1,"recovered_at_level":null,
               "failure_causes":[],"recovery_energy_overhead_quanta":1.5}
            ]}"#,
        )
        .unwrap();
        let err = causes_rows(&bad, None).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
    }
}
