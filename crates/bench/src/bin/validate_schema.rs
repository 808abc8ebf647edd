//! `validate_schema` — check telemetry artifacts against the documented
//! schemas (DESIGN.md).
//!
//! ```text
//! validate_schema [--report <BENCH_*.json>]... [--fault-log <log.ndjson>]...
//!                 [--sched <BENCH_sched.json>]...
//!                 [--quanta-compare <a.json> <b.json>]...
//! ```
//!
//! Each artifact goes through the one reader beside its writer, which
//! rebuilds the writer's typed value, checks its invariants and requires
//! the writer to render that value back to the file's bytes:
//! `--report` through `CampaignReport::from_json` (`enerj-campaign/5`),
//! `--fault-log` through `read_fault_log`, and `--sched` through
//! `SchedReport::from_json` (`enerj-sched/1`, including the scheduler's own
//! bit-identity verdict and the exact integer budget arithmetic).
//! `--quanta-compare` reads two campaign reports and requires their
//! campaign energy quanta and recovery overhead quanta to be equal as
//! exact 128-bit integers — the CI smoke script runs the same campaign at
//! two thread counts and requires exactly that. Exit code 0 when everything
//! conforms, 1 on the first violation.

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

/// Requires two campaign reports to carry identical integer energy totals.
fn compare_quanta(a: &CampaignReport, b: &CampaignReport) -> Result<(), String> {
    let totals =
        |r: &CampaignReport| (r.summary.energy_quanta, r.summary.recovery_energy_overhead_quanta);
    if totals(a) != totals(b) {
        return Err(format!("energy quanta differ: {:?} vs {:?}", totals(a), totals(b)));
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
                let report = read_file(path, CampaignReport::from_json)?;
                println!("{path}: OK (enerj-campaign/5, {} trials)", report.trials.len());
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
            "--quanta-compare" => {
                let a = it.next().ok_or("--quanta-compare needs two paths")?;
                let b = it.next().ok_or("--quanta-compare needs two paths")?;
                let (ra, rb) = (
                    read_file(a, CampaignReport::from_json)?,
                    read_file(b, CampaignReport::from_json)?,
                );
                compare_quanta(&ra, &rb).map_err(|e| format!("{a} vs {b}: {e}"))?;
                println!("{a} == {b}: OK (energy quanta exactly equal)");
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: validate_schema \
                     [--report <path>]... [--fault-log <path>]... \
                     [--sched <path>]... [--quanta-compare <a> <b>]..."
                ))
            }
        }
        checked += 1;
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
    use super::{compare_quanta, CampaignReport};
    use enerj_apps::trials::{CampaignOptions, TrialSpec};
    use enerj_hw::quanta::EnergyQuanta;
    use std::time::Duration;

    /// A writer-rendered one-trial report whose trial spent `total` scaled
    /// quanta (of `2^53 + 1` baseline) and `overhead` retry quanta.
    fn report(total: u128, overhead: u128) -> String {
        let app = enerj_apps::app("MonteCarlo").expect("registered");
        let mut trial = CampaignReport::collect(
            &[TrialSpec::reference(&app)][..],
            &CampaignOptions::with_threads(1),
        )
        .trials
        .remove(0);
        trial.energy_quanta.total = EnergyQuanta::new(total);
        trial.energy_quanta.baseline_total = EnergyQuanta::new((1 << 53) + 1);
        trial.recovery_energy_overhead_quanta = EnergyQuanta::new(overhead);
        CampaignReport::from_trials(vec![trial], Duration::ZERO, 1).to_json()
    }

    #[test]
    fn quanta_comparison_is_exact_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 are the classic f64 collision: a reader that
        // rounds through f64 would call these reports identical.
        let read = |text: &str| CampaignReport::from_json(text).unwrap();
        let a = read(&report(1 << 53, 0));
        let err = compare_quanta(&a, &read(&report((1 << 53) + 1, 0))).unwrap_err();
        assert!(err.contains("9007199254740992") && err.contains("9007199254740993"), "{err}");
        assert!(compare_quanta(&a, &a).is_ok());
        assert!(compare_quanta(&a, &read(&report(1 << 53, (1 << 53) + 1))).is_err());
    }

    #[test]
    fn non_integer_quanta_are_an_error_not_a_fallback() {
        let text = report(1 << 53, 0);
        let rejects = |from: &str, to: &str, expect: &str| {
            let err = CampaignReport::from_json(&text.replace(from, to)).unwrap_err().to_string();
            assert!(err.contains(expect), "{err}");
        };
        rejects("\"total\":9007199254740992", "\"total\":1.5", "total: not an exact u128");
        // Differing field sets in the breakdown are drift, too.
        rejects("\"baseline_total\":", "\"grand_total\":", "baseline_total: missing");
        rejects("\"baseline_total\":", "\"x\":0,\"baseline_total\":", "not the writer's rendering");
    }
}
