//! Integration and property tests for the online significance-aware
//! scheduler: controller decisions must be a pure function of
//! `(spec index, drained-prefix state)` — bit-identical campaigns at any
//! thread count, chunk size, and telemetry setting — the budget verdict
//! must be honest, raising the budget must never lower aggregate QoS on
//! the same seeds, and the edge cases (zero budget, slack budget,
//! single-trial campaigns, recovery spend spikes) must all hold.

use std::sync::{Arc, OnceLock};

use enerj_apps::recovery::Policy;
use enerj_apps::scheduler::{
    profile_workload, run_scheduled, run_scheduled_streamed, AppProfile, SchedLevel, SchedOutcome,
    SchedulerConfig, Workload,
};
use enerj_apps::trials::{read_fault_log, CampaignOptions, CampaignReport, TrialResult, VecSink};
use enerj_apps::App;
use enerj_hw::energy::QuantaMeter;
use enerj_hw::quanta::EnergyQuanta;
use proptest::prelude::*;

fn apps(names: &[&str]) -> Vec<App> {
    names.iter().map(|n| enerj_apps::app(n).expect("registered")).collect()
}

/// Everything the matrix tests share, computed once: a mixed workload, its
/// tuner-stream profiles, the exact all-Precise metered cost, and the
/// serial scheduled baseline at the headline 60% budget.
struct Fixture {
    workload: Workload,
    profiles: Vec<AppProfile>,
    precise_cost: EnergyQuanta,
    budget: EnergyQuanta,
    baseline: (CampaignReport, SchedOutcome),
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Three apps, eight runs each: 24 trials, epoch length 3 — enough
        // epochs for the controller to adapt mid-campaign.
        let workload = Workload::new(apps(&["FFT", "MonteCarlo", "SOR"]), 8);
        let opts = CampaignOptions::with_threads(2);
        let profiles = profile_workload(&workload, QuantaMeter::Sram, 2, &opts);
        let precise =
            CampaignReport::collect(workload.static_specs(SchedLevel::Precise).as_slice(), &opts);
        let precise_cost = QuantaMeter::Sram.spent(&precise.summary.energy_quanta);
        let budget = EnergyQuanta::new(precise_cost.get() * 60 / 100);
        let opts = CampaignOptions { threads: 1, log_events: true, ..CampaignOptions::default() };
        let baseline = run_scheduled(&workload, &profiles, &SchedulerConfig::new(budget), &opts);
        Fixture { workload, profiles, precise_cost, budget, baseline }
    })
}

/// Budget as a percentage of the fixture's exact all-Precise metered cost.
fn pct_budget(pct: u128) -> EnergyQuanta {
    EnergyQuanta::new(fixture().precise_cost.get() * pct / 100)
}

/// Asserts two scheduled runs are bit-identical: every per-trial field
/// including the controller's level assignment, and every outcome
/// aggregate.
fn assert_identical(
    base_trials: &[TrialResult],
    base: &SchedOutcome,
    trials: &[TrialResult],
    outcome: &SchedOutcome,
    what: &str,
) {
    assert_eq!(trials.len(), base_trials.len(), "{what}: trial count");
    for (s, b) in trials.iter().zip(base_trials) {
        let where_ = format!("{what}: trial {}", b.index);
        assert_eq!(s.index, b.index, "{where_}: index");
        assert_eq!(s.seed, b.seed, "{where_}: seed");
        assert_eq!(s.scheduled_level, b.scheduled_level, "{where_}: scheduled level");
        assert_eq!(s.label, b.label, "{where_}: label");
        assert_eq!(s.error.to_bits(), b.error.to_bits(), "{where_}: error");
        assert_eq!(s.stats, b.stats, "{where_}: stats");
        assert_eq!(s.energy_quanta, b.energy_quanta, "{where_}: quanta");
        assert_eq!(s.fault_counts, b.fault_counts, "{where_}: fault counts");
        assert_eq!(s.panic, b.panic, "{where_}: panic");
        assert_eq!(s.attempts, b.attempts, "{where_}: attempts");
        assert_eq!(s.recovered_at_level, b.recovered_at_level, "{where_}: recovery rung");
    }
    assert_eq!(outcome.spent, base.spent, "{what}: metered spend");
    assert_eq!(outcome.budget_met, base.budget_met, "{what}: budget verdict");
    assert_eq!(outcome.level_counts, base.level_counts, "{what}: level census");
    assert_eq!(outcome.implausible, base.implausible, "{what}: implausible count");
    assert_eq!(
        outcome.summary.mean_error.to_bits(),
        base.summary.mean_error.to_bits(),
        "{what}: mean error"
    );
    assert_eq!(outcome.summary.merged_stats, base.summary.merged_stats, "{what}: merged stats");
    assert_eq!(outcome.summary.energy_quanta, base.summary.energy_quanta, "{what}: quanta totals");
}

/// The headline determinism property: scheduled campaigns are
/// bit-identical at any thread count × chunk size × telemetry setting.
#[test]
fn scheduled_campaign_is_bit_identical_across_threads_chunks_and_telemetry() {
    let fx = fixture();
    let (base_report, base_outcome) = &fx.baseline;
    let cfg = SchedulerConfig::new(fx.budget);
    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 3, 64] {
            for log_events in [false, true] {
                let opts =
                    CampaignOptions { threads, chunk, log_events, ..CampaignOptions::default() };
                let mut sink = VecSink::default();
                let outcome =
                    run_scheduled_streamed(&fx.workload, &fx.profiles, &cfg, &opts, &mut sink)
                        .expect("the in-memory sink cannot fail");
                let what = format!("{threads} threads, chunk {chunk}, telemetry {log_events}");
                assert_identical(&base_report.trials, base_outcome, &sink.trials, &outcome, &what);
            }
        }
    }
}

/// The headline budget property at the acceptance point: 60% of the exact
/// all-Precise metered cost is held, and the campaign actually uses the
/// ladder (neither all-Precise nor a degenerate all-Aggressive collapse).
#[test]
fn sixty_percent_budget_is_met_with_a_mixed_assignment() {
    let fx = fixture();
    let (report, outcome) = &fx.baseline;
    assert!(outcome.budget_met, "spent {} of budget {}", outcome.spent, outcome.budget);
    assert!(outcome.spent <= fx.budget);
    assert_eq!(report.budget_quanta, Some(fx.budget));
    assert_eq!(report.budget_met, Some(true));
    assert_eq!(report.trials.len(), fx.workload.len(), "campaign ran to completion");
    let census: [u64; 4] = outcome.level_counts.iter().fold([0; 4], |mut acc, c| {
        for (a, n) in acc.iter_mut().zip(c) {
            *a += n;
        }
        acc
    });
    assert!(census.iter().skip(1).any(|&n| n > 0), "something was degraded: {census:?}");
    assert!(outcome.qos() > 0.5, "aggregate QoS collapsed: {}", outcome.qos());
    for t in &report.trials {
        let name = t.scheduled_level.as_deref().expect("every scheduled trial carries its rung");
        assert!(SchedLevel::from_name(name).is_some(), "unknown rung {name:?}");
        assert_eq!(t.label, name, "the rung is the trial's label");
    }
    // The report and its fault log read back through the readers.
    let json = report.to_json();
    assert_eq!(CampaignReport::from_json(&json).expect("the report reads back").to_json(), json);
    let events = read_fault_log(&report.fault_log_ndjson()).expect("the fault log reads back");
    assert_eq!(events.len() as u64, report.summary.fault_totals.total_injections());
    assert!(!events.is_empty());
}

/// Monotonicity: on the same seeds, raising the budget never lowers
/// aggregate QoS; and the budget invariant holds at every point of the
/// ladder. Deterministic campaigns make this a fixed, repeatable sweep.
#[test]
fn raising_the_budget_never_lowers_qos() {
    let fx = fixture();
    let opts = CampaignOptions::with_threads(2);
    let mut last_qos: Option<f64> = None;
    for pct in [0u128, 25, 50, 75, 100, 120] {
        let budget = pct_budget(pct);
        let (report, outcome) =
            run_scheduled(&fx.workload, &fx.profiles, &SchedulerConfig::new(budget), &opts);
        assert_eq!(report.trials.len(), fx.workload.len(), "{pct}%: completes");
        assert_eq!(
            outcome.budget_met,
            outcome.spent <= budget,
            "{pct}%: verdict is exactly the invariant"
        );
        let qos = outcome.qos();
        if let Some(prev) = last_qos {
            assert!(qos >= prev, "{pct}%: QoS {qos} fell below the previous rung's {prev}");
        }
        last_qos = Some(qos);
    }
}

/// Zero budget: everything is degraded to Aggressive, and the campaign
/// still runs to completion with an honest (false) verdict.
#[test]
fn zero_budget_degrades_everything_and_completes() {
    let fx = fixture();
    let (report, outcome) = run_scheduled(
        &fx.workload,
        &fx.profiles,
        &SchedulerConfig::new(EnergyQuanta::ZERO),
        &CampaignOptions::with_threads(4),
    );
    assert_eq!(report.trials.len(), fx.workload.len(), "zero budget still completes");
    assert!(!outcome.budget_met, "nothing fits in a zero budget");
    for (a, census) in outcome.level_counts.iter().enumerate() {
        assert_eq!(census[0] + census[1] + census[2], 0, "app {a}: nothing above Aggressive");
        assert_eq!(census[3], fx.workload.runs, "app {a}: every trial at Aggressive");
    }
    for t in &report.trials {
        assert_eq!(t.scheduled_level.as_deref(), Some("Aggressive"));
    }
}

/// A budget above the all-Precise cost: the scheduler never degrades, and
/// the precise rung reproduces every reference bit-for-bit (zero error).
#[test]
fn slack_budget_never_degrades() {
    let fx = fixture();
    let (report, outcome) = run_scheduled(
        &fx.workload,
        &fx.profiles,
        &SchedulerConfig::new(pct_budget(120)),
        &CampaignOptions::with_threads(4),
    );
    assert!(outcome.budget_met);
    for (a, census) in outcome.level_counts.iter().enumerate() {
        assert_eq!(census[0], fx.workload.runs, "app {a}: every trial Precise");
    }
    assert_eq!(outcome.summary.mean_error, 0.0, "the precise rung is exact");
    assert_eq!(outcome.summary.panics, 0);
    assert!(report.trials.iter().all(|t| t.scheduled_level.as_deref() == Some("Precise")));
}

/// Single-trial campaigns: the controller's epoch machinery degenerates
/// cleanly to one epoch of one trial at both budget extremes.
#[test]
fn single_trial_campaigns_schedule_sanely() {
    let workload = Workload::new(apps(&["MonteCarlo"]), 1);
    let opts = CampaignOptions::with_threads(2);
    let profiles = profile_workload(&workload, QuantaMeter::Sram, 1, &opts);

    let (report, outcome) =
        run_scheduled(&workload, &profiles, &SchedulerConfig::new(EnergyQuanta::ZERO), &opts);
    assert_eq!(report.trials.len(), 1);
    assert_eq!(report.trials[0].scheduled_level.as_deref(), Some("Aggressive"));
    assert!(!outcome.budget_met);
    assert_eq!(outcome.epoch_len, 1);

    let (report, outcome) = run_scheduled(
        &workload,
        &profiles,
        &SchedulerConfig::new(EnergyQuanta::new(u128::MAX / 2)),
        &opts,
    );
    assert_eq!(report.trials[0].scheduled_level.as_deref(), Some("Precise"));
    assert_eq!(report.trials[0].error, 0.0);
    assert!(outcome.budget_met);
}

/// Recovery inside a scheduled campaign: the PR 5 ladder still rescues
/// individual QoS failures, its spend spikes (a degraded trial accepted at
/// the Precise rung costs near-baseline) flow into the controller's
/// observed costs, and the whole thing stays bit-identical across thread
/// counts.
#[test]
fn recovery_spend_spikes_stay_deterministic_and_on_budget() {
    // MonteCarlo under heavy degradation fails its tightened plausibility
    // check often enough to exercise the ladder.
    let workload = Workload::new(apps(&["MonteCarlo", "FFT"]), 8);
    let opts = CampaignOptions::with_threads(1);
    let profiles = profile_workload(&workload, QuantaMeter::Sram, 2, &opts);
    let precise =
        CampaignReport::collect(workload.static_specs(SchedLevel::Precise).as_slice(), &opts);
    let budget =
        EnergyQuanta::new(QuantaMeter::Sram.spent(&precise.summary.energy_quanta).get() / 2);
    let cfg = SchedulerConfig {
        budget,
        meter: QuantaMeter::Sram,
        epoch: 0,
        recovery: Some(Policy::standard()),
    };
    let (base_report, base_outcome) = {
        let mut sink = VecSink::default();
        let outcome = run_scheduled_streamed(&workload, &profiles, &cfg, &opts, &mut sink)
            .expect("the in-memory sink cannot fail");
        (sink.trials, outcome)
    };
    assert_eq!(base_report.len(), workload.len(), "recovery campaign completes");
    assert_eq!(
        base_outcome.budget_met,
        base_outcome.spent <= budget,
        "the verdict stays honest under retry spend"
    );
    for threads in [2usize, 4] {
        let opts = CampaignOptions::with_threads(threads);
        let mut sink = VecSink::default();
        let outcome = run_scheduled_streamed(&workload, &profiles, &cfg, &opts, &mut sink)
            .expect("the in-memory sink cannot fail");
        assert_identical(
            &base_report,
            &base_outcome,
            &sink.trials,
            &outcome,
            &format!("recovery, {threads} threads"),
        );
    }
}

/// The scheduler accepts a total-energy budget too: the meter is generic,
/// and the DRAM-dominated total still leaves headroom for the verdict
/// machinery to work (Table 2's DRAM savings are small, so the feasible
/// floor is high — the reason the headline meters SRAM).
#[test]
fn total_meter_schedules_against_total_quanta() {
    let fx = fixture();
    let opts = CampaignOptions::with_threads(2);
    let profiles = profile_workload(&fx.workload, QuantaMeter::Total, 2, &opts);
    let precise =
        CampaignReport::collect(fx.workload.static_specs(SchedLevel::Precise).as_slice(), &opts);
    let total_cost = QuantaMeter::Total.spent(&precise.summary.energy_quanta);
    let budget = EnergyQuanta::new(total_cost.get() * 90 / 100);
    let cfg = SchedulerConfig { budget, meter: QuantaMeter::Total, epoch: 0, recovery: None };
    let (report, outcome) = run_scheduled(&fx.workload, &profiles, &cfg, &opts);
    assert_eq!(report.trials.len(), fx.workload.len());
    assert_eq!(outcome.meter, QuantaMeter::Total);
    assert_eq!(outcome.budget_met, outcome.spent <= budget);
    assert!(outcome.budget_met, "90% of total cost is feasible (floor ≈ 80.5%)");
}

/// An all-Precise reference for the scalar-estimator path: with generous
/// budget the MonteCarlo outputs all cluster at the reference π estimate,
/// and nothing is flagged implausible.
#[test]
fn precise_scalar_outputs_are_never_flagged() {
    let workload = Workload::new(apps(&["MonteCarlo"]), 12);
    let opts = CampaignOptions::with_threads(2);
    let profiles = profile_workload(&workload, QuantaMeter::Sram, 1, &opts);
    let (_, outcome) = run_scheduled(
        &workload,
        &profiles,
        &SchedulerConfig::new(EnergyQuanta::new(u128::MAX / 2)),
        &opts,
    );
    assert_eq!(outcome.implausible, 0, "reference outputs are plausible by definition");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corner of the determinism matrix: any (threads, chunk)
    /// pair reproduces the serial baseline bit-for-bit.
    #[test]
    fn random_thread_chunk_pairs_match_the_serial_baseline(
        threads in 1usize..9,
        chunk in 0usize..65,
    ) {
        let fx = fixture();
        let (base_report, base_outcome) = &fx.baseline;
        let opts = CampaignOptions { threads, chunk, ..CampaignOptions::default() };
        let mut sink = VecSink::default();
        let outcome = run_scheduled_streamed(
            &fx.workload,
            &fx.profiles,
            &SchedulerConfig::new(fx.budget),
            &opts,
            &mut sink,
        ).expect("the in-memory sink cannot fail");
        assert_identical(
            &base_report.trials,
            base_outcome,
            &sink.trials,
            &outcome,
            &format!("{threads} threads, chunk {chunk}"),
        );
    }

    /// The budget invariant as a property: for any budget, the verdict is
    /// exactly `spent <= budget` and the campaign always completes.
    #[test]
    fn budget_verdict_is_exactly_the_invariant(pct in 0u64..131) {
        let fx = fixture();
        let budget = pct_budget(u128::from(pct));
        let (report, outcome) = run_scheduled(
            &fx.workload,
            &fx.profiles,
            &SchedulerConfig::new(budget),
            &CampaignOptions::with_threads(3),
        );
        prop_assert_eq!(report.trials.len(), fx.workload.len());
        prop_assert_eq!(outcome.budget_met, outcome.spent <= budget);
        prop_assert_eq!(report.budget_quanta, Some(budget));
        prop_assert_eq!(report.budget_met, Some(outcome.budget_met));
    }
}

/// `Arc` references in the workload are shared, not re-measured: building
/// the same workload twice yields bit-identical references (determinism of
/// the profiling substrate itself).
#[test]
fn workload_references_are_deterministic() {
    let a = Workload::new(apps(&["FFT", "MonteCarlo"]), 1);
    let b = Workload::new(apps(&["FFT", "MonteCarlo"]), 1);
    for (x, y) in a.references.iter().zip(&b.references) {
        assert_eq!(Arc::as_ref(x), Arc::as_ref(y));
    }
}
