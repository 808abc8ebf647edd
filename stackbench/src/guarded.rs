//! `guarded`: the nine-app round-robin scheduler workload (app order
//! permuted by the seed) under a 60% SRAM budget with the standard recovery
//! ladder, via `run_scheduled_streamed` on two threads. It uses the engine
//! differently from `sweep`: claims block in `ScheduledSource::spec` until
//! the prefix before them has drained, and recovery retries multiply the
//! work per trial — so an engine change that helps `ndjson` but costs
//! scheduled campaigns shows up here.

use std::io;

use enerj_apps::all_apps;
use enerj_apps::recovery::Policy;
use enerj_apps::scheduler::{
    profile_workload, run_scheduled_streamed, Controller, SchedOutcome, ScheduledSource,
    SchedulerConfig, SchedulerSink, Workload,
};
use enerj_apps::trials::{CampaignOptions, CampaignSummary, TrialResult, TrialSink};
use enerj_hw::energy::QuantaMeter;
use enerj_hw::quanta::{ratio, EnergyQuanta};

use crate::{peak_rss_mb, probe, timed, References, Report, Run, SampleSink, ROUNDS, THREADS};

/// Runs per app per second of `--seconds`.
const RUNS_PER_SECOND: f64 = 530.0;

/// The budget, as a share of the all-Precise metered cost.
const BUDGET_PCT: u128 = 60;

/// Profiling runs per (app, rung) — part of the set-up.
const PROFILE_RUNS: u64 = 5;

const METER: QuantaMeter = QuantaMeter::Sram;

/// Sums each drained trial's metered spend and keeps the sample.
#[derive(Default)]
struct SpendSink {
    spent: EnergyQuanta,
    sample: SampleSink,
}

impl TrialSink for SpendSink {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        self.spent += METER.spent(&trial.energy_quanta);
        self.sample.accept(trial)
    }
}

pub fn run(run: &Run, report: &mut Report) -> io::Result<()> {
    // Each round is the same scheduled campaign, so every round's outcome
    // must be bit-identical.
    let runs = (run.size(RUNS_PER_SECOND, 4 * ROUNDS) / ROUNDS) as u64;
    let opts = CampaignOptions::with_threads(THREADS);
    let (workload, profiles, cfg) = run.setup(report, || {
        let mut apps = all_apps();
        run.rng(0).shuffle(&mut apps);
        let workload = Workload::new(apps, runs);
        let profiles = profile_workload(&workload, METER, PROFILE_RUNS, &opts);
        // The Precise rung injects no faults, so its profiled per-trial cost
        // is exact and the all-Precise cost is that times the runs.
        let precise: u128 = profiles.iter().map(|p| p.cost[0].get()).sum::<u128>() * runs as u128;
        let cfg = SchedulerConfig {
            budget: EnergyQuanta::new(precise * BUDGET_PCT / 100),
            meter: METER,
            epoch: 0,
            recovery: Some(Policy::standard()),
        };
        Ok((workload, profiles, cfg))
    })?;
    let refs = References::new(&workload.apps, workload.references.clone());

    let mut first: Option<SchedOutcome> = None;
    let mut kept = Vec::new();
    let phase = run.rounds(&refs, |r, p| {
        let mut spend = SpendSink::default();
        let summary = if p.traced() {
            // `run_scheduled_streamed`, composed from its public parts so the
            // source and sink can be wrapped: the timed source sees every
            // claim wait, the timed sink the scheduler's fold.
            let controller = Controller::new(&workload, &profiles, &cfg);
            let scheduled = ScheduledSource::new(&workload, &controller);
            let (summary, wall) =
                p.campaign(&scheduled, &opts, &mut SchedulerSink::new(&mut spend, &controller))?;
            p.pass.add(&summary, wall);
            kept = std::mem::take(&mut spend.sample.kept);
            summary
        } else {
            let mut sink = p.pass.recorder(&mut spend);
            let (outcome, wall) =
                timed(|| run_scheduled_streamed(&workload, &profiles, &cfg, &opts, &mut sink));
            let outcome = outcome?;
            p.pass.add(&outcome.summary, wall);
            // Retries in the last epoch can overshoot the budget (an outcome,
            // like a panic); the verdict must say so exactly.
            report.check(
                spend.spent == outcome.spent
                    && outcome.budget_met == (outcome.spent <= outcome.budget),
                || {
                    format!(
                        "per-trial spend sums to {}; the scheduler says {} of {} (met: {})",
                        spend.spent, outcome.spent, outcome.budget, outcome.budget_met
                    )
                },
            );
            first.get_or_insert(outcome).summary.clone()
        };
        let o = first.as_ref().expect("round 0 runs its untraced pass first");
        report.check(spend.spent == o.spent && same(o, &summary), || {
            format!("round {r} (traced: {}) diverged from the first round", p.traced())
        });
        Ok(())
    })?;
    let outcome = first.expect("at least one round");
    let (pass, traced) = (&phase.untraced, &phase.traced);
    report.ops += (pass.trials + traced.trials) as u64;
    report.set("peak_rss_mb", peak_rss_mb(None)?, "MB");
    phase.report(report);

    if run.trace {
        phase.trace.report(report);
        traced.report_overhead(pass, report);
        report.set("sched.budget_spent_frac", ratio(outcome.spent, outcome.budget), "fraction");
        probe::sink_sample(&run.work, &kept, report)?;
        let commits = probe::sample_commits(&kept);
        probe::finish(run, "{\"workload\":\"guarded\"}", &commits, report)?;
    }
    Ok(())
}

/// Bit-identical outcome of two runs of the scheduled campaign.
fn same(outcome: &SchedOutcome, summary: &CampaignSummary) -> bool {
    let s = &outcome.summary;
    s.trials == summary.trials
        && s.mean_error.to_bits() == summary.mean_error.to_bits()
        && s.energy_quanta == summary.energy_quanta
}
