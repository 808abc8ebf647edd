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
//! `enerj-campaign/5` report (`results/BENCH_recovery.json`, labels
//! `unguarded` / `guarded`), so `faultscope --causes` can break the
//! retries down afterwards.
//!
//! The table reports, per app: how many unguarded trials fail the 0.1
//! error line, how many guarded trials still do (the Precise rung is a
//! guaranteed backstop, so this should be zero), how many trials escalated,
//! and the recovery energy overhead — the price of the retries, which is
//! *charged* to the guarded trials' energy, never hidden. `--amplify X`
//! scales the chaos fault rates (default 40x Aggressive).

use std::sync::Arc;

use enerj_apps::all_apps;
use enerj_apps::recovery::{chaos_config, Policy};
use enerj_apps::trials::{CampaignReport, TrialSpec};
use enerj_bench::cli::Options;
use enerj_bench::{finish_campaign, render_table};
use enerj_hw::config::HwConfig;

/// Trials with error below this are "acceptable" — the same 0.1 line the
/// standard policy's QoS threshold enforces.
const ACCEPTABLE_ERROR: f64 = 0.1;

fn main() {
    let opts = Options::from_env(10, &["--amplify X"]);
    let amplify =
        opts.value("--amplify").map_or(40.0, |v| v.parse().expect("--amplify needs a number"));
    let chaos: HwConfig = chaos_config(amplify);
    let apps = all_apps();

    // One campaign, both halves: unguarded first, then guarded with the
    // same seeds, so the comparison is seed-for-seed.
    let mut specs = Vec::new();
    let mut references = Vec::new();
    for app in &apps {
        let reference = Arc::new(enerj_apps::harness::reference(app).output);
        references.push(Arc::clone(&reference));
        for i in 0..opts.runs {
            specs.push(TrialSpec::scored(
                app,
                "unguarded",
                chaos,
                enerj_apps::harness::FAULT_SEED_BASE ^ i,
                Arc::clone(&reference),
            ));
        }
    }
    for (app, reference) in apps.iter().zip(&references) {
        for i in 0..opts.runs {
            specs.push(
                TrialSpec::scored(
                    app,
                    "guarded",
                    chaos,
                    enerj_apps::harness::FAULT_SEED_BASE ^ i,
                    Arc::clone(reference),
                )
                .with_recovery(Policy::standard()),
            );
        }
    }
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
        let overhead: f64 =
            report.trials_for(name, "guarded").map(|t| t.recovery_energy_overhead).sum();
        let guarded_energy: f64 = report.trials_for(name, "guarded").map(|t| t.energy.total).sum();
        failing_total += unguarded_fail;
        rescued_total += unguarded_fail.saturating_sub(guarded_fail);
        rows.push(vec![
            name.to_owned(),
            format!("{unguarded_fail}/{}", opts.runs),
            format!("{guarded_fail}/{}", opts.runs),
            escalated.to_string(),
            recovered.to_string(),
            format!("{:.1}%", 100.0 * overhead / guarded_energy.max(f64::MIN_POSITIVE)),
        ]);
        if opts.json {
            println!(
                "{{\"app\":\"{name}\",\"amplify\":{amplify},\"runs\":{},\
                 \"unguarded_failing\":{unguarded_fail},\"guarded_failing\":{guarded_fail},\
                 \"escalated\":{escalated},\"recovered\":{recovered},\
                 \"recovery_energy_overhead\":{overhead:.6}}}",
                opts.runs,
            );
        }
    }

    if !opts.json {
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
    }
    finish_campaign("recovery", &report, &opts);
}
