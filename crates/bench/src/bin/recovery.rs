//! `recovery` — the graceful-degradation benchmark: all nine apps under a
//! chaos-amplified Aggressive configuration, with and without the
//! QoS-guarded recovery ladder.
//!
//! For every app the same `--runs` chaos seeds are run twice: once
//! *unguarded* (the paper's protocol — whatever comes out is scored, a
//! crash is worst case) and once *guarded* by
//! [`Policy::standard()`](enerj_apps::recovery::Policy::standard) —
//! watchdog, reference-free output check, QoS threshold 0.1, and the
//! Mild → Precise escalation ladder. Both halves land in one
//! `enerj-campaign/7` report (`results/BENCH_recovery.json`, labels
//! `unguarded` / `guarded`), so `faultscope --causes` can break the
//! retries down afterwards.
//!
//! The table reports, per app: how many unguarded trials fail the 0.1
//! error line, how many guarded trials still do (the Precise rung is a
//! guaranteed backstop, so this should be zero), how many trials escalated,
//! and the recovery energy overhead — the price of the retries, which is
//! *charged* to the guarded trials' energy, never hidden: the share of the
//! guarded trials' scaled energy quanta spent on rejected attempts. `--amplify X`
//! scales the chaos fault rates (default 40x Aggressive).

use std::process::ExitCode;

use enerj_apps::all_apps;
use enerj_apps::harness::FAULT_SEED_BASE;
use enerj_apps::recovery::{chaos_config, Policy};
use enerj_apps::trials::{CampaignReport, Grid, TrialSpec};
use enerj_bench::cli::{self, Options};
use enerj_bench::{finish_campaign, render_table};
use enerj_hw::quanta::{ratio, EnergyQuanta};

/// Trials with error below this are "acceptable" — the same 0.1 line the
/// standard policy's QoS threshold enforces.
const ACCEPTABLE_ERROR: f64 = 0.1;

fn main() -> ExitCode {
    let (opts, amplify) = Options::from_env_with(10, &["--amplify X"], cli::amplify);
    let chaos = chaos_config(amplify);
    let apps = all_apps();

    // One campaign, both halves: unguarded first, then guarded with the
    // same seeds, so the comparison is seed-for-seed.
    let half =
        |label: &str| Grid::new(&apps, vec![(label.to_owned(), chaos)], opts.runs, FAULT_SEED_BASE);
    let guarded = half("guarded");
    let specs: Vec<TrialSpec> = half("unguarded")
        .specs()
        .chain(guarded.specs().map(|s| s.with_recovery(Policy::standard())))
        .collect();
    let report = CampaignReport::collect(specs.as_slice(), &opts.campaign_options());

    let mut rows = Vec::new();
    let mut failing_total = 0usize;
    let mut rescued_total = 0usize;
    for app in &apps {
        let name = app.meta.name;
        let unguarded_fail =
            report.trials_for(name, "unguarded").filter(|t| t.error >= ACCEPTABLE_ERROR).count();
        let guarded_fail =
            report.trials_for(name, "guarded").filter(|t| t.error >= ACCEPTABLE_ERROR).count();
        let escalated = report.trials_for(name, "guarded").filter(|t| t.attempts > 1).count();
        let recovered = report.trials_for(name, "guarded").filter(|t| t.recovered()).count();
        let overhead: EnergyQuanta =
            report.trials_for(name, "guarded").map(|t| t.recovery_energy_overhead_quanta).sum();
        let guarded_energy: EnergyQuanta =
            report.trials_for(name, "guarded").map(|t| t.energy_quanta.total).sum();
        let retry_share =
            if guarded_energy.is_zero() { 0.0 } else { ratio(overhead, guarded_energy) };
        failing_total += unguarded_fail;
        rescued_total += unguarded_fail.saturating_sub(guarded_fail);
        rows.push(vec![
            name.to_owned(),
            format!("{unguarded_fail}/{}", opts.runs),
            format!("{guarded_fail}/{}", opts.runs),
            escalated.to_string(),
            recovered.to_string(),
            format!("{:.1}%", 100.0 * retry_share),
        ]);
    }

    println!(
        "Recovery under chaos ({amplify}x Aggressive fault rates, {} seeds per app)",
        opts.runs
    );
    println!();
    println!(
        "{}",
        render_table(
            &[
                "Application",
                "fail (plain)",
                "fail (guarded)",
                "escalated",
                "recovered",
                "retry energy"
            ],
            &rows,
        )
    );
    println!(
        "fail = trials with output error >= {ACCEPTABLE_ERROR}; retry energy = share of \
         guarded energy spent on rejected attempts."
    );
    let rate = if failing_total == 0 {
        100.0
    } else {
        100.0 * rescued_total as f64 / failing_total as f64
    };
    println!(
        "{rescued_total}/{failing_total} failing trials brought under the \
         {ACCEPTABLE_ERROR} line by the ladder ({rate:.0}%)."
    );
    finish_campaign("recovery", &report, &opts)
}
