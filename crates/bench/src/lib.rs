//! # enerj-bench: the evaluation harness
//!
//! Binaries that regenerate every table and figure of the EnerJ paper's
//! evaluation (PLDI 2011, section 6):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — language constructs and their renderings |
//! | `table2` | Table 2 — approximation strategies and savings |
//! | `table3` | Table 3 — applications, QoS metrics, annotation density |
//! | `fig3` | Figure 3 — proportion of approximate storage and computation |
//! | `fig4` | Figure 4 — estimated CPU/memory energy per configuration |
//! | `fig5` | Figure 5 — output error at three levels (mean of N runs) |
//! | `ablation` | section 6.2 — per-strategy isolation and FU error modes |
//! | `tuning` | section 6.2 extension — offline per-app QoS tuning |
//!
//! Each binary accepts `--runs N` where sampling applies and prints
//! fixed-width text tables; pass `--threads N` to bound the trial
//! campaign's worker count (default: all available cores). Campaign-backed
//! binaries also drop a machine-readable `results/BENCH_<name>.json`
//! campaign report (schema `enerj-campaign/7`, the only machine-readable
//! output: every number goes through its one writer) on every run, and
//! accept the telemetry flags
//! `--trace` (live progress + per-unit fault totals on stderr) and
//! `--fault-log <path>` (structured NDJSON fault-event stream). The
//! `faultscope` binary renders per-app, per-unit fault breakdowns from
//! either artifact, and `validate_schema` checks them. Both read every
//! artifact through the one reader beside its writer:
//! `enerj_apps::trials::CampaignReport::from_json` and `read_fault_log`
//! for campaign reports and fault logs, [`sched::SchedReport::from_json`]
//! for the `schedbench` report (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod sched;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use enerj_apps::trials::CampaignReport;

use cli::Options;

/// Where a binary's campaign report lands: `results/BENCH_<name>.json`,
/// relative to the working directory (run from the repository root, that
/// is the committed capture).
pub fn bench_report_path(name: &str) -> PathBuf {
    PathBuf::from(format!("results/BENCH_{name}.json"))
}

/// Writes `text` to `path`, creating parent directories as needed.
///
/// # Errors
///
/// The failed step's error, its message naming the file:
/// `could not write <path>: <cause>`.
pub fn write_output(path: &Path, text: &str) -> io::Result<()> {
    let write = || {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, text)
    };
    write()
        .map_err(|e| io::Error::new(e.kind(), format!("could not write {}: {e}", path.display())))
}

/// The exit status of a binary whose last step was `written`: success, or
/// failure after `warning: could not write <path>: <cause>` on stderr.
pub fn exit_status(written: io::Result<()>) -> ExitCode {
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("warning: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes a campaign report to [`bench_report_path`] and prints where it
/// went (on stderr, so stdout carries only the text tables).
fn write_bench_report(name: &str, report: &CampaignReport) -> io::Result<()> {
    let path = bench_report_path(name);
    write_output(&path, &(report.to_json() + "\n"))?;
    eprintln!(
        "campaign report: {} trials, {} panics, {:.2}s on {} threads -> {}",
        report.trials.len(),
        report.summary.panics,
        report.summary.wall.as_secs_f64(),
        report.summary.threads,
        path.display()
    );
    Ok(())
}

/// Standard campaign epilogue: `--trace` prints the per-unit fault totals
/// on stderr, then the `results/BENCH_<name>.json` report is written and
/// `--fault-log` writes the NDJSON event stream. A write that fails ends
/// the epilogue with a failing exit status ([`exit_status`]).
pub fn finish_campaign(name: &str, report: &CampaignReport, opts: &Options) -> ExitCode {
    if opts.trace {
        eprintln!("fault totals: {}", report.summary.fault_totals);
    }
    exit_status(write_bench_report(name, report).and_then(|()| match &opts.fault_log {
        Some(path) => write_fault_log_to(path, report),
        None => Ok(()),
    }))
}

/// Writes a report's NDJSON fault log to `path`, reporting on stderr.
fn write_fault_log_to(path: &str, report: &CampaignReport) -> io::Result<()> {
    let events: usize = report.trials.iter().map(|t| t.events.len()).sum();
    write_output(Path::new(path), &report.fault_log_ndjson())?;
    eprintln!("fault log: {events} event(s) -> {path}");
    Ok(())
}

/// Renders a fixed-width text table: a header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(rule_len));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a small error value with three decimals.
pub fn err3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_paths_land_in_results() {
        let p = bench_report_path("fig5");
        assert!(p.ends_with("results/BENCH_fig5.json"), "{}", p.display());
    }

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // Columns align: "value" and "1" start at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].chars().nth(col), Some('1'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(err3(0.0456), "0.046");
    }
}
