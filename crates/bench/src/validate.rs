//! Schema validation for the telemetry artifacts.
//!
//! Checks `results/BENCH_*.json` campaign reports against the
//! `enerj-campaign/5` schema, `enerj-sched/1` budget-scheduling reports,
//! and NDJSON fault logs against the fault-event schema, all as documented
//! in DESIGN.md. Used by the `validate_schema` binary (and the CI smoke
//! script) to catch emitter drift.

use crate::json::Json;
use enerj_hw::trace::FaultKind;

/// Top-level keys every `enerj-campaign/5` report must carry.
const REPORT_KEYS: [&str; 12] = [
    "schema",
    "threads",
    "wall_seconds",
    "mean_error",
    "panics",
    "recovered",
    "budget_quanta",
    "budget_met",
    "recovery_energy_overhead_quanta",
    "energy_quanta",
    "merged_stats",
    "fault_totals",
];

/// Keys every trial object must carry.
const TRIAL_KEYS: [&str; 16] = [
    "index",
    "app",
    "label",
    "seed",
    "error",
    "wall_seconds",
    "panic",
    "attempts",
    "recovered_at_level",
    "scheduled_level",
    "failure_causes",
    "recovery_energy_overhead",
    "recovery_energy_overhead_quanta",
    "stats",
    "energy",
    "energy_quanta",
];

/// Integer-quanta pool keys inside every `stats`/`merged_stats` object.
const STATS_QUANTA_KEYS: [&str; 4] =
    ["sram_approx_quanta", "sram_precise_quanta", "dram_approx_quanta", "dram_precise_quanta"];

/// Keys every `energy_quanta` breakdown object must carry.
const ENERGY_QUANTA_KEYS: [&str; 8] = [
    "instructions",
    "baseline_instructions",
    "sram",
    "baseline_sram",
    "dram",
    "baseline_dram",
    "total",
    "baseline_total",
];

/// Keys every NDJSON fault-log line must carry.
const EVENT_KEYS: [&str; 8] =
    ["trial", "app", "label", "seed", "time", "unit", "width", "bits_flipped"];

fn require_number(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what}: missing or non-numeric `{key}`"))
}

/// Checks that `obj[key]` is a non-negative integer energy-quanta count
/// and returns it exactly.
///
/// The parser keeps integer literals lossless ([`Json::Int`]), so this is
/// an exact 128-bit check — quanta above 2^53, where f64 rounds, are
/// compared faithfully. A fractional, negative, or absurdly large value is
/// emitter drift.
fn require_quanta(obj: &Json, key: &str, what: &str) -> Result<u128, String> {
    let v = obj.get(key).ok_or_else(|| format!("{what}: missing `{key}`"))?;
    v.as_u128().ok_or_else(|| format!("{what}: `{key}` must be a non-negative integer ({v:?})"))
}

/// Checks the four per-(memory × precision) quanta pools of a stats object.
fn validate_stats_quanta(stats: &Json, what: &str) -> Result<(), String> {
    for key in STATS_QUANTA_KEYS {
        require_quanta(stats, key, what)?;
    }
    Ok(())
}

/// Checks an `energy_quanta` breakdown: all eight fields present,
/// non-negative integers, with scaled never exceeding its baseline. The
/// comparison is exact 128-bit integer arithmetic.
fn validate_energy_quanta(quanta: &Json, what: &str) -> Result<(), String> {
    for key in ENERGY_QUANTA_KEYS {
        require_quanta(quanta, key, what)?;
    }
    for (scaled, baseline) in [
        ("instructions", "baseline_instructions"),
        ("sram", "baseline_sram"),
        ("dram", "baseline_dram"),
        ("total", "baseline_total"),
    ] {
        let s = require_quanta(quanta, scaled, what)?;
        let b = require_quanta(quanta, baseline, what)?;
        if s > b {
            return Err(format!("{what}: `{scaled}` {s} exceeds `{baseline}` {b}"));
        }
    }
    Ok(())
}

/// Checks that `counters` is a per-kind counter object: one entry per
/// [`FaultKind`], each with non-negative integer `injections` and
/// `bits_flipped`.
fn validate_counters(counters: &Json, what: &str) -> Result<(), String> {
    let fields =
        counters.as_object().ok_or_else(|| format!("{what}: counters must be an object"))?;
    if fields.len() != FaultKind::ALL.len() {
        return Err(format!(
            "{what}: expected {} fault kinds, found {}",
            FaultKind::ALL.len(),
            fields.len()
        ));
    }
    for kind in FaultKind::ALL {
        let name = kind.to_string();
        let entry = counters.get(&name).ok_or_else(|| format!("{what}: missing kind `{name}`"))?;
        for key in ["injections", "bits_flipped"] {
            require_quanta(entry, key, &format!("{what}.{name}"))?;
        }
    }
    Ok(())
}

/// The scheduler's precision-level vocabulary: the only strings a
/// `scheduled_level` field (or an `enerj-sched/1` level) may carry.
const SCHED_LEVELS: [&str; 4] = ["Precise", "Mild", "Medium", "Aggressive"];

/// Checks an optional scheduler field: `null` (unscheduled campaigns) or a
/// value `check` accepts.
fn require_nullable(
    obj: &Json,
    key: &str,
    what: &str,
    check: impl FnOnce(&Json) -> Result<(), String>,
) -> Result<(), String> {
    match obj.get(key) {
        None => Err(format!("{what}: missing `{key}`")),
        Some(Json::Null) => Ok(()),
        Some(v) => check(v),
    }
}

/// Validates a parsed `enerj-campaign/5` report. Returns the trial count.
pub fn validate_campaign_report(report: &Json) -> Result<usize, String> {
    let schema =
        report.get("schema").and_then(Json::as_str).ok_or("report: missing `schema` string")?;
    if schema != "enerj-campaign/5" {
        return Err(format!("report: schema `{schema}`, expected `enerj-campaign/5`"));
    }
    for key in REPORT_KEYS {
        if report.get(key).is_none() {
            return Err(format!("report: missing top-level `{key}`"));
        }
    }
    validate_counters(report.get("fault_totals").expect("checked above"), "fault_totals")?;
    require_quanta(report, "recovery_energy_overhead_quanta", "report")?;
    require_nullable(report, "budget_quanta", "report", |v| {
        v.as_u128().map(drop).ok_or_else(|| {
            format!("report: `budget_quanta` must be null or a non-negative integer ({v:?})")
        })
    })?;
    require_nullable(report, "budget_met", "report", |v| match v {
        Json::Bool(_) => Ok(()),
        other => Err(format!("report: `budget_met` must be null or a boolean ({other:?})")),
    })?;
    // A budget verdict without a budget (or vice versa) is emitter drift.
    let has_budget = !matches!(report.get("budget_quanta"), Some(Json::Null));
    let has_verdict = !matches!(report.get("budget_met"), Some(Json::Null));
    if has_budget != has_verdict {
        return Err("report: `budget_quanta` and `budget_met` must be null together".to_owned());
    }
    validate_stats_quanta(report.get("merged_stats").expect("checked above"), "merged_stats")?;
    validate_energy_quanta(report.get("energy_quanta").expect("checked above"), "energy_quanta")?;
    let trials =
        report.get("trials").and_then(Json::as_array).ok_or("report: `trials` must be an array")?;
    for (i, trial) in trials.iter().enumerate() {
        let what = format!("trials[{i}]");
        for key in TRIAL_KEYS {
            if trial.get(key).is_none() {
                return Err(format!("{what}: missing `{key}`"));
            }
        }
        let counts =
            trial.get("fault_counts").ok_or_else(|| format!("{what}: missing `fault_counts`"))?;
        validate_counters(counts, &format!("{what}.fault_counts"))?;
        let err = require_number(trial, "error", &what)?;
        if !(0.0..=1.0).contains(&err) {
            return Err(format!("{what}: error {err} outside [0, 1]"));
        }
        let attempts = require_number(trial, "attempts", &what)?;
        if attempts < 1.0 || attempts.fract() != 0.0 {
            return Err(format!("{what}: attempts {attempts} not a positive integer"));
        }
        let causes = trial
            .get("failure_causes")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{what}: `failure_causes` must be an array"))?;
        // N attempts can reject at most N causes (equality only when even
        // the last rung failed).
        if causes.len() as f64 > attempts {
            return Err(format!("{what}: {} failure causes for {attempts} attempts", causes.len()));
        }
        for (j, cause) in causes.iter().enumerate() {
            if cause.as_str().is_none() {
                return Err(format!("{what}: failure_causes[{j}] must be a string"));
            }
        }
        require_nullable(trial, "scheduled_level", &what, |v| match v.as_str() {
            Some(level) if SCHED_LEVELS.contains(&level) => Ok(()),
            Some(level) => Err(format!("{what}: unknown scheduled_level `{level}`")),
            None => Err(format!("{what}: `scheduled_level` must be null or a string")),
        })?;
        let overhead = require_number(trial, "recovery_energy_overhead", &what)?;
        if overhead < 0.0 {
            return Err(format!("{what}: negative recovery_energy_overhead {overhead}"));
        }
        require_quanta(trial, "recovery_energy_overhead_quanta", &what)?;
        let stats = trial.get("stats").expect("checked above");
        validate_stats_quanta(stats, &format!("{what}.stats"))?;
        let quanta = trial.get("energy_quanta").expect("checked above");
        validate_energy_quanta(quanta, &format!("{what}.energy_quanta"))?;
    }
    Ok(trials.len())
}

/// Top-level keys every `enerj-sched/1` report must carry.
const SCHED_REPORT_KEYS: [&str; 10] = [
    "schema",
    "quick",
    "meter",
    "budget_pct",
    "trials",
    "epoch_len",
    "precise_cost_quanta",
    "budget_quanta",
    "identical",
    "scheduled",
];

/// Keys the `enerj-sched/1` scheduled section must carry.
const SCHED_SCHEDULED_KEYS: [&str; 6] =
    ["spent_quanta", "budget_met", "mean_error", "qos", "implausible", "level_counts"];

/// Keys every `enerj-sched/1` baseline row must carry.
const SCHED_BASELINE_KEYS: [&str; 5] =
    ["level", "spent_quanta", "mean_error", "qos", "fits_budget"];

fn require_error_and_qos(obj: &Json, what: &str) -> Result<(), String> {
    let err = require_number(obj, "mean_error", what)?;
    if !(0.0..=1.0).contains(&err) {
        return Err(format!("{what}: mean_error {err} outside [0, 1]"));
    }
    let qos = require_number(obj, "qos", what)?;
    if !(0.0..=1.0).contains(&qos) {
        return Err(format!("{what}: qos {qos} outside [0, 1]"));
    }
    if (qos - (1.0 - err)).abs() > 1e-9 {
        return Err(format!("{what}: qos {qos} inconsistent with mean_error {err}"));
    }
    Ok(())
}

/// Validates a parsed `enerj-sched/1` budget-scheduling report (the
/// `schedbench` binary's output). Checks schema, the binary's own
/// bit-identity verdict, exact integer-quanta budget arithmetic (the
/// recorded verdict must equal `spent <= budget`), the scheduled level
/// census, and every static baseline row — it does *not* gate on absolute
/// QoS, so the CI smoke script catches emitter drift without pinning
/// workload-dependent numbers. Returns the baseline-row count.
pub fn validate_sched_report(report: &Json) -> Result<usize, String> {
    let schema =
        report.get("schema").and_then(Json::as_str).ok_or("report: missing `schema` string")?;
    if schema != "enerj-sched/1" {
        return Err(format!("report: schema `{schema}`, expected `enerj-sched/1`"));
    }
    for key in SCHED_REPORT_KEYS {
        if report.get(key).is_none() {
            return Err(format!("report: missing top-level `{key}`"));
        }
    }
    let meter =
        report.get("meter").and_then(Json::as_str).ok_or("report: `meter` must be a string")?;
    if !["total", "sram"].contains(&meter) {
        return Err(format!("report: unknown meter `{meter}`"));
    }
    match report.get("identical") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            return Err(
                "report: `identical` is false — scheduled campaigns diverged across thread counts"
                    .to_owned(),
            )
        }
        _ => return Err("report: missing boolean `identical`".to_owned()),
    }
    let trials = require_quanta(report, "trials", "report")?;
    if trials == 0 {
        return Err("report: `trials` must be positive".to_owned());
    }
    require_quanta(report, "epoch_len", "report")?;
    let precise_cost = require_quanta(report, "precise_cost_quanta", "report")?;
    let budget = require_quanta(report, "budget_quanta", "report")?;
    let pct = require_quanta(report, "budget_pct", "report")?;
    if budget != precise_cost * pct / 100 {
        return Err(format!(
            "report: budget_quanta {budget} is not {pct}% of precise_cost_quanta {precise_cost}"
        ));
    }
    let scheduled = report.get("scheduled").expect("checked above");
    for key in SCHED_SCHEDULED_KEYS {
        if scheduled.get(key).is_none() {
            return Err(format!("scheduled: missing `{key}`"));
        }
    }
    let spent = require_quanta(scheduled, "spent_quanta", "scheduled")?;
    let met = match scheduled.get("budget_met") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("scheduled: `budget_met` must be a boolean".to_owned()),
    };
    // The verdict is defined as the invariant — exact integer arithmetic.
    if met != (spent <= budget) {
        return Err(format!(
            "scheduled: budget_met {met} inconsistent with spent {spent} vs budget {budget}"
        ));
    }
    require_error_and_qos(scheduled, "scheduled")?;
    require_quanta(scheduled, "implausible", "scheduled")?;
    let counts = scheduled
        .get("level_counts")
        .and_then(Json::as_object)
        .ok_or("scheduled: `level_counts` must be an object")?;
    if counts.len() != SCHED_LEVELS.len() {
        return Err(format!(
            "scheduled: expected {} level counts, found {}",
            SCHED_LEVELS.len(),
            counts.len()
        ));
    }
    let mut census = 0u128;
    for level in SCHED_LEVELS {
        census += require_quanta(
            scheduled.get("level_counts").expect("checked above"),
            level,
            "scheduled.level_counts",
        )?;
    }
    if census != trials {
        return Err(format!("scheduled: level counts sum to {census}, expected {trials} trials"));
    }
    let baselines = report
        .get("baselines")
        .and_then(Json::as_array)
        .ok_or("report: `baselines` must be an array")?;
    if baselines.is_empty() {
        return Err("report: `baselines` is empty".to_owned());
    }
    for (i, row) in baselines.iter().enumerate() {
        let what = format!("baselines[{i}]");
        for key in SCHED_BASELINE_KEYS {
            if row.get(key).is_none() {
                return Err(format!("{what}: missing `{key}`"));
            }
        }
        let level = row
            .get("level")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{what}: `level` must be a string"))?;
        if !SCHED_LEVELS.contains(&level) {
            return Err(format!("{what}: unknown level `{level}`"));
        }
        let spent = require_quanta(row, "spent_quanta", &what)?;
        let fits = match row.get("fits_budget") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("{what}: `fits_budget` must be a boolean")),
        };
        if fits != (spent <= budget) {
            return Err(format!(
                "{what}: fits_budget {fits} inconsistent with spent {spent} vs budget {budget}"
            ));
        }
        require_error_and_qos(row, &what)?;
    }
    Ok(baselines.len())
}

/// Validates one NDJSON fault-log line (already parsed).
pub fn validate_fault_event(event: &Json, what: &str) -> Result<(), String> {
    for key in EVENT_KEYS {
        if event.get(key).is_none() {
            return Err(format!("{what}: missing `{key}`"));
        }
    }
    let unit = event
        .get("unit")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: `unit` must be a string"))?;
    if FaultKind::from_name(unit).is_none() {
        return Err(format!("{what}: unknown unit `{unit}`"));
    }
    let width = require_number(event, "width", what)?;
    if !(1.0..=64.0).contains(&width) || width.fract() != 0.0 {
        return Err(format!("{what}: width {width} not an integer in 1..=64"));
    }
    let bits = require_number(event, "bits_flipped", what)?;
    if bits < 0.0 || bits > width || bits.fract() != 0.0 {
        return Err(format!("{what}: bits_flipped {bits} not an integer in 0..=width"));
    }
    let time = require_number(event, "time", what)?;
    if time < 0.0 {
        return Err(format!("{what}: negative time {time}"));
    }
    Ok(())
}

/// Validates a whole NDJSON fault log. Returns the event count. An empty
/// log (no lines) is valid — campaigns that inject no faults emit one.
pub fn validate_fault_log(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let what = format!("line {}", lineno + 1);
        let event = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        validate_fault_event(&event, &what)?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_apps::trials::{CampaignOptions, CampaignReport, TrialSpec};
    use enerj_hw::config::{HwConfig, Level};
    use std::sync::Arc;

    fn aggressive_campaign() -> CampaignReport {
        let app = enerj_apps::all_apps().remove(2); // MonteCarlo
        let reference = Arc::new(enerj_apps::harness::reference(&app).output);
        let specs: Vec<TrialSpec> = (0..3)
            .map(|i| {
                TrialSpec::scored(
                    &app,
                    "Aggressive",
                    HwConfig::for_level(Level::Aggressive),
                    enerj_apps::harness::FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
            })
            .collect();
        let opts = CampaignOptions { threads: 1, log_events: true, ..CampaignOptions::default() };
        CampaignReport::collect(specs.as_slice(), &opts)
    }

    #[test]
    fn real_report_and_log_validate() {
        let report = aggressive_campaign();
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(validate_campaign_report(&parsed), Ok(3));
        let events = validate_fault_log(&report.fault_log_ndjson()).unwrap();
        assert_eq!(events as u64, report.summary.fault_totals.total_injections());
    }

    #[test]
    fn rejects_wrong_schema_and_missing_keys() {
        for old in ["enerj-campaign/1", "enerj-campaign/2", "enerj-campaign/3", "enerj-campaign/4"]
        {
            let v = Json::parse(&format!(r#"{{"schema":"{old}"}}"#)).unwrap();
            assert!(validate_campaign_report(&v).unwrap_err().contains("schema"));
        }
        let v = Json::parse(r#"{"schema":"enerj-campaign/5","threads":1}"#).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("missing top-level"));
    }

    #[test]
    fn rejects_malformed_scheduler_fields() {
        let good = aggressive_campaign().to_json();
        // Unscheduled campaigns carry null budget fields; a verdict without
        // a budget is drift.
        let verdict_only = good.replacen("\"budget_met\":null", "\"budget_met\":true", 1);
        let v = Json::parse(&verdict_only).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("null together"));
        // Fractional budgets are not integer quanta.
        let fractional = good.replacen("\"budget_quanta\":null", "\"budget_quanta\":0.5", 1);
        let v = Json::parse(&fractional).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("budget_quanta"));
        // The per-trial rung vocabulary is closed.
        let bad_level =
            good.replacen("\"scheduled_level\":null", "\"scheduled_level\":\"Chaos\"", 1);
        let v = Json::parse(&bad_level).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("scheduled_level"));
        // A scheduled campaign with consistent fields passes.
        let scheduled = good
            .replacen("\"budget_quanta\":null", "\"budget_quanta\":999999999999", 1)
            .replacen("\"budget_met\":null", "\"budget_met\":true", 1)
            .replace("\"scheduled_level\":null", "\"scheduled_level\":\"Mild\"");
        let v = Json::parse(&scheduled).unwrap();
        assert_eq!(validate_campaign_report(&v), Ok(3));
    }

    #[test]
    fn rejects_malformed_recovery_fields() {
        let good = aggressive_campaign().to_json();
        let zero_attempts = good.replace("\"attempts\":1", "\"attempts\":0");
        let v = Json::parse(&zero_attempts).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("attempts"));
        let too_many_causes =
            good.replace("\"failure_causes\":[]", "\"failure_causes\":[\"qos: a\",\"qos: b\"]");
        let v = Json::parse(&too_many_causes).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("failure causes"));
        let negative_overhead =
            good.replace("\"recovery_energy_overhead\":0,", "\"recovery_energy_overhead\":-0.5,");
        let v = Json::parse(&negative_overhead).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("recovery_energy_overhead"));
    }

    #[test]
    fn rejects_malformed_quanta_fields() {
        let good = aggressive_campaign().to_json();
        // Fractional quanta: energy is an integer count, not a float.
        let fractional = good.replacen("\"baseline_total\":", "\"baseline_total\":0.5,\"_x\":", 1);
        let v = Json::parse(&fractional).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("non-negative integer"));
        // Negative overhead quanta.
        let negative = good.replacen(
            "\"recovery_energy_overhead_quanta\":",
            "\"recovery_energy_overhead_quanta\":-1,\"_x\":",
            1,
        );
        let v = Json::parse(&negative).unwrap();
        assert!(validate_campaign_report(&v)
            .unwrap_err()
            .contains("recovery_energy_overhead_quanta"));
        // Scaled energy above its own baseline is an accounting bug.
        let inverted =
            good.replacen("\"baseline_instructions\":", "\"baseline_instructions\":0,\"_x\":", 1);
        let v = Json::parse(&inverted).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn recovery_campaign_report_validates() {
        use enerj_apps::recovery::{chaos_config, Policy};
        let app = enerj_apps::all_apps().remove(2); // MonteCarlo
        let reference = Arc::new(enerj_apps::harness::reference(&app).output);
        let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
        let specs: Vec<TrialSpec> = (0..3)
            .map(|i| {
                TrialSpec::scored(
                    &app,
                    "chaos",
                    chaos_config(50.0),
                    enerj_apps::harness::FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
                .with_recovery(policy.clone())
            })
            .collect();
        let report = CampaignReport::collect(specs.as_slice(), &CampaignOptions::with_threads(1));
        assert!(report.summary.recovered > 0, "threshold 0 under chaos must escalate");
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(validate_campaign_report(&parsed), Ok(3));
    }

    const SCHED_OK: &str = r#"{
        "schema": "enerj-sched/1", "quick": true, "meter": "sram",
        "budget_pct": 60, "trials": 24, "epoch_len": 3,
        "precise_cost_quanta": 1000000000000,
        "budget_quanta": 600000000000,
        "identical": true,
        "scheduled": {
            "spent_quanta": 587500000000, "budget_met": true,
            "mean_error": 0.03125, "qos": 0.96875, "implausible": 1,
            "level_counts": {"Precise": 6, "Mild": 9, "Medium": 6, "Aggressive": 3}
        },
        "baselines": [
            {"level": "Precise", "spent_quanta": 1000000000000,
             "mean_error": 0.0, "qos": 1.0, "fits_budget": false},
            {"level": "Mild", "spent_quanta": 489000000000,
             "mean_error": 0.0625, "qos": 0.9375, "fits_budget": true}
        ]
    }"#;

    #[test]
    fn sched_report_validates() {
        let v = Json::parse(SCHED_OK).unwrap();
        assert_eq!(validate_sched_report(&v), Ok(2));
    }

    #[test]
    fn sched_validator_matches_the_real_serializer() {
        // The synthetic SCHED_OK above mirrors `sched::SchedReport`; make
        // sure the actual serializer round-trips through the validator too.
        use crate::sched::{BaselineRow, SchedReport, ScheduledRow};
        use enerj_apps::scheduler::SchedLevel;
        use enerj_hw::energy::QuantaMeter;
        use enerj_hw::quanta::EnergyQuanta;
        let report = SchedReport {
            quick: false,
            meter: QuantaMeter::Sram,
            budget_pct: 60,
            trials: 10,
            epoch_len: 1,
            precise_cost_quanta: EnergyQuanta::new(500),
            budget_quanta: EnergyQuanta::new(300),
            identical: true,
            scheduled: ScheduledRow {
                spent_quanta: EnergyQuanta::new(299),
                budget_met: true,
                mean_error: 0.25,
                qos: 0.75,
                implausible: 0,
                level_counts: [1, 2, 3, 4],
            },
            baselines: vec![BaselineRow {
                level: SchedLevel::Aggressive,
                spent_quanta: EnergyQuanta::new(200),
                mean_error: 0.5,
                qos: 0.5,
                fits_budget: true,
            }],
        };
        let v = Json::parse(&report.to_json()).unwrap();
        assert_eq!(validate_sched_report(&v), Ok(1));
    }

    #[test]
    fn sched_rejects_drifted_reports() {
        let wrong_schema = SCHED_OK.replace("enerj-sched/1", "enerj-sched/0");
        let v = Json::parse(&wrong_schema).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("schema"));

        let diverged = SCHED_OK.replace("\"identical\": true", "\"identical\": false");
        let v = Json::parse(&diverged).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("diverged"));

        // A dishonest verdict: claims met while spent > budget.
        let dishonest =
            SCHED_OK.replace("\"spent_quanta\": 587500000000", "\"spent_quanta\": 600000000001");
        let v = Json::parse(&dishonest).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("inconsistent"));

        // The budget must be exactly pct% of the precise cost.
        let wrong_budget =
            SCHED_OK.replace("\"budget_quanta\": 600000000000", "\"budget_quanta\": 600000000001");
        let v = Json::parse(&wrong_budget).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("not 60%"));

        // The level census must cover every trial.
        let short_census = SCHED_OK.replace("\"Mild\": 9", "\"Mild\": 8");
        let v = Json::parse(&short_census).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("sum to"));

        let bad_meter = SCHED_OK.replace("\"meter\": \"sram\"", "\"meter\": \"joules\"");
        let v = Json::parse(&bad_meter).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("unknown meter"));

        let bad_level = SCHED_OK.replace("\"level\": \"Mild\"", "\"level\": \"Extreme\"");
        let v = Json::parse(&bad_level).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("unknown level"));

        // A baseline's fits_budget must match its own spend.
        let wrong_fit = SCHED_OK
            .replace("\"qos\": 1.0, \"fits_budget\": false", "\"qos\": 1.0, \"fits_budget\": true");
        let v = Json::parse(&wrong_fit).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("fits_budget"));

        // QoS must be 1 - mean_error.
        let wrong_qos = SCHED_OK.replace("\"qos\": 0.96875", "\"qos\": 0.9");
        let v = Json::parse(&wrong_qos).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn sched_accepts_real_bench_output() {
        // Shape-check the committed capture, when present.
        let path = crate::bench_report_path("sched");
        if let Ok(text) = std::fs::read_to_string(path) {
            let v = Json::parse(&text).unwrap();
            assert!(validate_sched_report(&v).unwrap() >= 1);
        }
    }

    #[test]
    fn rejects_bad_fault_log_lines() {
        assert!(validate_fault_log("not json\n").is_err());
        let missing = r#"{"trial":0,"app":"X","label":"L","seed":1,"time":0.0,"unit":"int-timing","width":64}"#;
        assert!(validate_fault_log(missing).unwrap_err().contains("bits_flipped"));
        let bad_unit = r#"{"trial":0,"app":"X","label":"L","seed":1,"time":0.0,"unit":"warp-core","width":64,"bits_flipped":1}"#;
        assert!(validate_fault_log(bad_unit).unwrap_err().contains("unknown unit"));
        let bits_over_width = r#"{"trial":0,"app":"X","label":"L","seed":1,"time":0.0,"unit":"int-timing","width":8,"bits_flipped":9}"#;
        assert!(validate_fault_log(bits_over_width).is_err());
        assert_eq!(validate_fault_log(""), Ok(0));
    }
}
