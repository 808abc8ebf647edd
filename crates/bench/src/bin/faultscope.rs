//! `faultscope` — per-app, per-unit fault breakdowns from telemetry
//! artifacts.
//!
//! ```text
//! faultscope <results/BENCH_*.json | faults.ndjson> [--label L] [--bits] [--causes]
//! ```
//!
//! Reads either a campaign report (`enerj-campaign/7` JSON, aggregating
//! each trial's `fault_counts`, where a kind the record omits counted zero)
//! or an NDJSON fault log
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
//! Both inputs go through the readers beside their writers
//! (`CampaignReport::from_json`, `read_fault_log`), so a report or log
//! with a missing count, an inconsistent attempt ledger or any byte the
//! writer would not emit is refused with the field's path instead of
//! being tabulated.
//!
//! This is the observability counterpart to `fig5`: instead of "FFT
//! degrades at Medium", it answers "FFT's faults are 90% SRAM read
//! upsets" — or, with `--causes`, "FFT's retries are mostly QoS breaches".

use std::collections::BTreeMap;
use std::process::ExitCode;

use enerj_apps::trials::{read_fault_log, CampaignReport, FaultLogLine};
use enerj_bench::render_table;
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::telemetry::KindCount;
use enerj_hw::trace::FaultKind;
use enerj_hw::FaultCounters;

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

/// Per-kind fault counters, per app.
type Breakdown = BTreeMap<&'static str, FaultCounters>;

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
        print_causes(&read_report(&text)?, label.as_deref());
        return Ok(());
    }

    let (breakdown, source) = if looks_like_report(&text) {
        (from_report(&read_report(&text)?, label.as_deref()), "campaign report")
    } else {
        let events = read_fault_log(&text).map_err(|e| format!("fault log: {e}"))?;
        (from_log(&events, label.as_deref()), "fault log")
    };

    if breakdown.is_empty() {
        println!("no faults recorded{}", label_note(" for ", label.as_deref()));
        return Ok(());
    }

    let measure = if bits { "bits flipped" } else { "injections" };
    let mut headers = vec!["Application"];
    let kind_names: Vec<String> = FaultKind::ALL.iter().map(|k| k.to_string()).collect();
    headers.extend(kind_names.iter().map(String::as_str));
    headers.push("total");

    let mut rows = Vec::new();
    for (app, counters) in &breakdown {
        let measured = |c: KindCount| if bits { c.bits_flipped } else { c.injections };
        let total: u64 = counters.per_kind().map(|(_, c)| measured(c)).sum();
        let mut row = vec![app.to_string()];
        for (_, count) in counters.per_kind() {
            let n = measured(count);
            if n == 0 {
                row.push("-".to_owned());
            } else {
                row.push(format!("{n} ({:.0}%)", 100.0 * n as f64 / total.max(1) as f64));
            }
        }
        row.push(total.to_string());
        rows.push(row);
    }
    let note = label_note(", ", label.as_deref());
    println!("Fault breakdown by unit ({measure}, from {source}{note})");
    println!();
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

/// A campaign report opens with its `schema` field; a fault-log line
/// opens with its trial index.
fn looks_like_report(text: &str) -> bool {
    text.starts_with("{\"schema\":")
}

fn read_report(text: &str) -> Result<CampaignReport, String> {
    CampaignReport::from_json(text).map_err(|e| format!("report: {e}"))
}

/// `prefix` and the `--label` selection, or nothing without one.
fn label_note(prefix: &str, label: Option<&str>) -> String {
    label.map(|l| format!("{prefix}label `{l}`")).unwrap_or_default()
}

/// Whether a trial or event belongs to the `--label` selection.
fn selected(label: Option<&str>, trial_label: &str) -> bool {
    label.is_none_or(|want| want == trial_label)
}

fn from_report(report: &CampaignReport, label: Option<&str>) -> Breakdown {
    let mut breakdown = Breakdown::new();
    for trial in report.trials.iter().filter(|t| selected(label, &t.label)) {
        breakdown.entry(trial.app).or_default().merge(&trial.fault_counts);
    }
    breakdown
}

fn from_log(events: &[FaultLogLine], label: Option<&str>) -> Breakdown {
    let mut breakdown = Breakdown::new();
    for (_, app, trial_label, _, event) in events {
        if selected(label, trial_label) {
            breakdown.entry(*app).or_default().record(event.kind, event.bits_flipped);
        }
    }
    breakdown
}

/// The stable failure-cause categories reports use as `failure_causes`
/// prefixes (see `enerj_apps::recovery::FailureCause`).
const CAUSE_CATEGORIES: [&str; 4] = ["panic", "op-budget", "check", "qos"];

/// Per app × label: `[trials, recovered, degraded, per-category counts...]`
/// and the summed retry overhead quanta.
type CauseRows<'a> =
    BTreeMap<(&'a str, &'a str), ([u64; 3 + CAUSE_CATEGORIES.len()], EnergyQuanta)>;

/// Accumulates the recovery view from a report.
///
/// Outcomes come from the authoritative recorded fields, not inference:
/// `recovered_at_level` marks a trial recovered, and a trial is *degraded*
/// exactly when it failed (non-empty `failure_causes`) and no rung's
/// output was accepted. The reader has already checked the attempt ledger
/// against these fields. Overhead quanta are summed as exact integers.
fn causes_rows<'a>(report: &'a CampaignReport, label: Option<&str>) -> CauseRows<'a> {
    let mut rows = CauseRows::new();
    for trial in report.trials.iter().filter(|t| selected(label, &t.label)) {
        let degraded = !trial.recovered() && !trial.failure_causes.is_empty();
        let (counts, overhead) = rows.entry((trial.app, trial.label.as_str())).or_default();
        counts[0] += 1;
        counts[1] += u64::from(trial.recovered());
        counts[2] += u64::from(degraded);
        for cause in &trial.failure_causes {
            for (j, cat) in CAUSE_CATEGORIES.iter().enumerate() {
                if cause.starts_with(&format!("{cat}:")) {
                    counts[3 + j] += 1;
                }
            }
        }
        *overhead += trial.recovery_energy_overhead_quanta;
    }
    rows
}

/// Prints the recovery view: per app × label, the trial count, recovery
/// outcomes, the failure-cause mix, and the exact retry energy overhead
/// (integer quanta).
fn print_causes(report: &CampaignReport, label: Option<&str>) {
    let rows = causes_rows(report, label);
    if rows.is_empty() {
        println!("no trials{}", label_note(" for ", label));
        return;
    }
    let mut headers = vec!["Application", "Label", "trials", "recovered", "degraded"];
    headers.extend(CAUSE_CATEGORIES);
    headers.push("overhead quanta");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|((app, lbl), (counts, overhead))| {
            let mut row = vec![app.to_string(), lbl.to_string()];
            row.extend(counts.iter().map(|n| if *n == 0 { "-".to_owned() } else { n.to_string() }));
            // `trials` reads better as a number even when zero can't occur.
            row[2] = counts[0].to_string();
            row.push(if overhead.is_zero() { "-".to_owned() } else { overhead.to_string() });
            row
        })
        .collect();
    println!("Recovery outcomes and failure causes by app and label");
    println!();
    println!("{}", render_table(&headers, &table_rows));
}

#[cfg(test)]
mod tests {
    use super::{causes_rows, from_report, looks_like_report, read_report, CampaignReport};
    use enerj_apps::trials::{CampaignOptions, TrialResult, TrialSpec};
    use enerj_hw::config::ApproxParams;
    use enerj_hw::quanta::EnergyQuanta;
    use enerj_hw::stats::Stats;
    use enerj_hw::telemetry::KindCount;
    use enerj_hw::trace::FaultKind;
    use std::time::Duration;

    /// A writer-rendered report of MonteCarlo reference trials, each
    /// given the recovery fields in `ledgers`: `(attempts,
    /// recovered_at_level, failure_causes, overhead quanta)`. The overhead
    /// is charged as precise DRAM storage, so the trial's statistics and
    /// energy include it.
    fn report(ledgers: &[(u32, Option<&str>, &[&str], u128)]) -> String {
        let app = enerj_apps::app("MonteCarlo").expect("registered");
        let base = CampaignReport::collect(
            &[TrialSpec::reference(&app)][..],
            &CampaignOptions::with_threads(1),
        );
        let trials = ledgers
            .iter()
            .enumerate()
            .map(|(index, &(attempts, rung, causes, overhead))| {
                let overhead = EnergyQuanta::new(overhead);
                let extra = Stats { dram_precise_quanta: overhead, ..Stats::new() };
                let mut stats = base.trials[0].stats;
                stats.merge(&extra);
                let mut energy_quanta = base.trials[0].energy_quanta;
                energy_quanta
                    .merge(&enerj_hw::energy::energy_quanta(&extra, &ApproxParams::PRECISE));
                TrialResult {
                    index,
                    label: "Mild".to_owned(),
                    attempts,
                    recovered_at_level: rung.map(str::to_owned),
                    failure_causes: causes.iter().map(|c| c.to_string()).collect(),
                    recovery_energy_overhead_quanta: overhead,
                    stats,
                    energy_quanta,
                    ..base.trials[0].clone()
                }
            })
            .collect();
        CampaignReport::from_trials(trials, Duration::ZERO, 1).to_json()
    }

    #[test]
    fn both_views_accept_exactly_the_current_schema() {
        let text = report(&[(1, None, &[], 0)]);
        assert!(looks_like_report(&text));
        assert!(read_report(&text).is_ok());
        for old in ["enerj-campaign/1", "enerj-campaign/6", "enerj-campaign/8", "other"] {
            let text = text.replacen("enerj-campaign/7", old, 1);
            assert!(looks_like_report(&text));
            let err = read_report(&text).unwrap_err();
            assert!(
                err.contains(&format!("schema: `{old}`, expected `enerj-campaign/7`")),
                "{err}"
            );
        }
        assert!(!looks_like_report("{\"trial\":0,\"app\":\"FFT\"}\n"));
    }

    /// Every recovery outcome: a clean first-try pass, a trial recovered
    /// at a rung, and a degraded trial whose final attempt also failed.
    #[test]
    fn outcomes_come_from_recorded_fields_not_cause_counts() {
        let text = report(&[
            (1, None, &[], 0),
            (2, Some("Precise"), &["qos: error 0.5 > threshold 0.1"], 9_007_199_254_740_993),
            (2, None, &["panic: index out of bounds", "check: non-finite"], 1),
        ]);
        let report = read_report(&text).unwrap();
        let rows = causes_rows(&report, None);
        let (counts, overhead) = rows[&("MonteCarlo", "Mild")];
        assert_eq!(counts[0], 3, "trials");
        assert_eq!(counts[1], 1, "recovered: only the trial with recovered_at_level set");
        assert_eq!(counts[2], 1, "degraded: failed causes with recovered_at_level null");
        // Category mix: one panic, one check, one qos.
        assert_eq!(&counts[3..], &[1, 0, 1, 1]);
        // Overhead sums exactly, beyond f64 precision (2^53 + 1 survives).
        assert_eq!(overhead, EnergyQuanta::new(9_007_199_254_740_993 + 1));
        assert!(causes_rows(&report, Some("Medium")).is_empty());
    }

    #[test]
    fn inconsistent_attempt_ledger_is_a_validation_error() {
        // A recovered trial must carry attempts - 1 causes; two causes in
        // two attempts means the final attempt failed, which contradicts
        // recovered_at_level being set.
        let text = report(&[(2, Some("Precise"), &["qos: a", "qos: b"], 0)]);
        let err = read_report(&text).unwrap_err();
        assert!(err.contains("trials[0].attempts: 2 attempts are inconsistent"), "{err}");
        // The converse: a degraded trial (no recovery) claiming more
        // attempts than it has causes lost an attempt's record somewhere.
        let text = report(&[(3, None, &["qos: a", "qos: b"], 0)]);
        assert!(read_report(&text).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn fractional_overhead_quanta_are_rejected() {
        let text = report(&[(1, None, &[], 9_007_199_254_740_993)]);
        let field = "\"recovery_energy_overhead_quanta\":";
        let exact = format!("{field}9007199254740993");
        // The field appears twice: the trial's overhead and the total.
        assert_eq!(text.matches(&exact).count(), 2);
        let err = read_report(&text.replace(&exact, &format!("{field}1.5"))).unwrap_err();
        assert!(
            err.starts_with("report: trials[0].") && err.contains("not an exact u128"),
            "{err}"
        );
    }

    /// A trial's record omits each kind with both counts 0; the breakdown
    /// counts it as zero.
    #[test]
    fn absent_fault_kinds_count_as_zero() {
        let clean = read_report(&report(&[(1, None, &[], 0)])).unwrap().trials.remove(0);
        let mut faulty = TrialResult { index: 1, ..clean.clone() };
        faulty.fault_counts.record(FaultKind::FpTiming, 3);
        let text = CampaignReport::from_trials(vec![clean, faulty], Duration::ZERO, 1).to_json();
        assert!(text.contains("\"fault_counts\":{}},"), "the clean trial has no kind");
        let one = "\"fault_counts\":{\"fp-timing\":{\"injections\":1,\"bits_flipped\":3}}}";
        assert!(text.contains(one), "the faulty trial has only its one kind");
        let breakdown = from_report(&read_report(&text).unwrap(), None);
        for (kind, count) in breakdown["MonteCarlo"].per_kind() {
            let expected = match kind {
                FaultKind::FpTiming => KindCount { injections: 1, bits_flipped: 3 },
                _ => KindCount::default(),
            };
            assert_eq!(count, expected, "{kind}");
        }
    }
}
