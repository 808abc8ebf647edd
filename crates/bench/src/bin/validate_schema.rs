//! `validate_schema` — check telemetry artifacts against the documented
//! schemas (DESIGN.md).
//!
//! ```text
//! validate_schema [--report <BENCH_*.json>]... [--fault-log <log.ndjson>]...
//!                 [--sched <BENCH_sched.json>]...
//! ```
//!
//! Each artifact goes through the one reader beside its writer, which
//! rebuilds the writer's typed value, checks its invariants and requires
//! the writer to render that value back to the file's bytes:
//! `--report` through `CampaignReport::from_json` (`enerj-campaign/6`),
//! `--fault-log` through `read_fault_log`, and `--sched` through
//! `SchedReport::from_json` (`enerj-sched/1`, including the scheduler's own
//! bit-identity verdict and the exact integer budget arithmetic). Exit
//! code 0 when everything conforms, 1 on the first violation.

use std::process::ExitCode;

use enerj_apps::trials::{read_fault_log, CampaignReport, ReadError};
use enerj_bench::sched::SchedReport;

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

/// Reads the file at `path` with `read`, prefixing any error with the path.
fn read_file<T>(path: &str, read: impl FnOnce(&str) -> Result<T, ReadError>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut checked = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => {
                let path = it.next().ok_or("--report needs a path")?;
                let report = read_file(path, CampaignReport::from_json)?;
                println!("{path}: OK (enerj-campaign/6, {} trials)", report.trials.len());
            }
            "--fault-log" => {
                let path = it.next().ok_or("--fault-log needs a path")?;
                let events = read_file(path, read_fault_log)?;
                println!("{path}: OK ({} fault events)", events.len());
            }
            "--sched" => {
                let path = it.next().ok_or("--sched needs a path")?;
                let report = read_file(path, SchedReport::from_json)?;
                println!("{path}: OK (enerj-sched/1, {} baseline rows)", report.baselines.len());
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: validate_schema \
                     [--report <path>]... [--fault-log <path>]... \
                     [--sched <path>]..."
                ))
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("nothing to validate; pass --report, --fault-log and/or --sched".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::CampaignReport;
    use enerj_apps::trials::{CampaignOptions, TrialSpec};
    use enerj_hw::config::ApproxParams;
    use enerj_hw::energy::{energy_quanta, EnergyQuantaBreakdown};
    use enerj_hw::quanta::EnergyQuanta;
    use enerj_hw::stats::Stats;
    use std::time::Duration;

    /// A writer-rendered one-trial report whose trial spent `total` scaled
    /// instruction quanta (of a baseline past `2^53 + 1`: `2^35` precise
    /// integer ops).
    fn report(total: u128) -> String {
        let app = enerj_apps::app("MonteCarlo").expect("registered");
        let mut trial = CampaignReport::collect(
            &[TrialSpec::reference(&app)][..],
            &CampaignOptions::with_threads(1),
        )
        .trials
        .remove(0);
        trial.stats = Stats { int_precise_ops: 1 << 35, ..Stats::new() };
        let total = EnergyQuanta::new(total);
        trial.energy_quanta = EnergyQuantaBreakdown {
            instructions: total,
            total,
            ..energy_quanta(&trial.stats, &ApproxParams::PRECISE)
        };
        CampaignReport::from_trials(vec![trial], Duration::ZERO, 1).to_json()
    }

    #[test]
    fn non_integer_quanta_are_an_error_not_a_fallback() {
        let text = report(1 << 53);
        let rejects = |from: &str, to: &str, expect: &str| {
            let err = CampaignReport::from_json(&text.replace(from, to)).unwrap_err().to_string();
            assert!(err.contains(expect), "{err}");
        };
        let instructions = "\"instructions\":9007199254740992";
        rejects(instructions, "\"instructions\":1.5", "instructions: not an exact u128");
        // Differing field sets in the breakdown are drift, too.
        rejects("\"sram\":", "\"grand_sram\":", "sram: missing");
        rejects("\"baseline_total\":", "\"grand_total\":", "not the writer's rendering");
        rejects("\"baseline_total\":", "\"x\":0,\"baseline_total\":", "not the writer's rendering");
    }
}
