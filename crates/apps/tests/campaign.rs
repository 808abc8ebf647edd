//! Integration tests for the parallel trial-campaign subsystem: the
//! parallel runner must be bit-identical to the serial loop it replaced,
//! and a panicking trial must be contained instead of killing the
//! campaign.

use std::sync::Arc;

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::meta::AppMeta;
use enerj_apps::qos::{output_error, Output, QosMetric};
use enerj_apps::trials::{run_level_campaign, CampaignOptions, CampaignReport, Grid, TrialSpec};
use enerj_apps::App;
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::stats::Stats;

fn app(name: &str) -> App {
    enerj_apps::app(name).expect("registered")
}

fn run(specs: &[TrialSpec], threads: usize) -> CampaignReport {
    CampaignReport::collect(specs, &CampaignOptions::with_threads(threads))
}

/// The specs of the Figure 5 protocol for one app: `runs` seeds per level.
fn level_specs(app: &App, levels: &[Level], runs: u64) -> Vec<TrialSpec> {
    Grid::levels(std::slice::from_ref(app), levels, runs, FAULT_SEED_BASE).specs().collect()
}

/// The pre-campaign serial loop, hand-rolled: one `measure_with` +
/// `output_error` per spec, stats merged in order.
fn serial_baseline(specs: &[TrialSpec]) -> (Vec<f64>, Vec<Stats>, Stats) {
    let mut errors = Vec::new();
    let mut stats = Vec::new();
    let mut merged = Stats::new();
    for spec in specs {
        let m = harness::measure_with_telemetry(&spec.app, spec.cfg, spec.seed, false);
        let err = match &spec.reference {
            Some(r) => output_error(spec.app.meta.metric, r, &m.output),
            None => 0.0,
        };
        errors.push(err);
        stats.push(m.stats);
        merged.merge(&m.stats);
    }
    (errors, stats, merged)
}

#[test]
fn parallel_campaign_is_bit_identical_to_the_serial_loop() {
    for name in ["FFT", "MonteCarlo", "jMonkeyEngine"] {
        let app = app(name);
        let specs = level_specs(&app, &[Level::Mild, Level::Aggressive], 3);
        let (serial_errors, serial_stats, serial_merged) = serial_baseline(&specs);
        for threads in [1, 4] {
            let report = run(&specs, threads);
            assert_eq!(report.trials.len(), specs.len(), "{name}");
            for (t, (se, ss)) in report.trials.iter().zip(serial_errors.iter().zip(&serial_stats)) {
                assert_eq!(
                    t.error.to_bits(),
                    se.to_bits(),
                    "{name}: trial {} error differs at {threads} threads",
                    t.index
                );
                assert_eq!(
                    t.stats, *ss,
                    "{name}: trial {} stats differ at {threads} threads",
                    t.index
                );
            }
            assert_eq!(
                report.summary.merged_stats, serial_merged,
                "{name}: merged stats differ at {threads} threads"
            );
        }
    }
}

/// The SciMark kernels now run their inner loops on the batched
/// whole-slice API (see DESIGN.md "Batched kernels"); a campaign over them
/// must stay a deterministic function of `(config, seed, program)` — the
/// same trial-by-trial bits at every thread count and with fault telemetry
/// on or off, energy quanta included.
///
/// Workload inputs come from a per-thread cache that outlives a campaign,
/// so the baseline runs on a fresh thread whose cache starts cold. The
/// 1-thread runs below reuse the caller thread's cache, warmed by
/// `harness::reference` and by every run before them; the multi-thread
/// runs start cold workers.
#[test]
fn batched_app_campaigns_are_bit_identical_across_threads_and_telemetry() {
    let mut specs = Vec::new();
    for name in ["FFT", "SOR", "LU"] {
        specs.extend(level_specs(&app(name), &[Level::Mild, Level::Aggressive], 2));
    }
    let baseline = std::thread::scope(|s| s.spawn(|| run(&specs, 1)).join().expect("baseline"));
    for threads in [1, 2, 4, 8] {
        for log_events in [false, true] {
            let report = CampaignReport::collect(
                specs.as_slice(),
                &CampaignOptions { threads, log_events, ..CampaignOptions::default() },
            );
            assert_eq!(report.trials.len(), baseline.trials.len());
            for (t, b) in report.trials.iter().zip(&baseline.trials) {
                let what = format!(
                    "{}/{} trial {} at {threads} threads, telemetry {log_events}",
                    t.app, t.label, t.index
                );
                assert_eq!(t.error.to_bits(), b.error.to_bits(), "{what}: error");
                assert_eq!(t.stats, b.stats, "{what}: stats");
                assert_eq!(t.energy_quanta, b.energy_quanta, "{what}: quanta");
                assert_eq!(t.fault_counts, b.fault_counts, "{what}: fault counts");
            }
            assert_eq!(report.summary.merged_stats, baseline.summary.merged_stats);
            assert_eq!(report.summary.energy_quanta, baseline.summary.energy_quanta);
        }
    }
}

#[test]
fn level_campaign_matches_per_level_serial_means() {
    let apps = [app("SOR"), app("MonteCarlo")];
    let report = run_level_campaign(&apps, &Level::ALL, 2, &CampaignOptions::with_threads(4));
    for a in &apps {
        let reference = harness::reference(a).output;
        for level in Level::ALL {
            // The pre-campaign serial protocol, summed in run order.
            let mut total = 0.0;
            for i in 0..2u64 {
                let m = harness::measure_with_telemetry(
                    a,
                    HwConfig::for_level(level),
                    FAULT_SEED_BASE ^ i,
                    false,
                );
                total += output_error(a.meta.metric, &reference, &m.output);
            }
            let serial = total / 2.0;
            let parallel = report.mean_error_for(a.meta.name, &level.to_string());
            assert_eq!(serial.to_bits(), parallel.to_bits(), "{} at {level}", a.meta.name);
        }
    }
}

fn panicking_run() -> Output {
    panic!("endorsed index perturbed out of bounds");
}

fn panicking_app() -> App {
    App {
        meta: AppMeta {
            name: "Panicker",
            description: "test-only app whose every run crashes",
            metric: QosMetric::MeanEntryDiff,
            source: "",
        },
        run: panicking_run,
        check: enerj_apps::no_check,
    }
}

#[test]
fn panicking_trial_is_contained_and_scored_worst_case() {
    let good = app("MonteCarlo");
    let reference = Arc::new(harness::reference(&good).output);
    let bad_reference = Arc::new(Output::Values(vec![0.0]));
    let mut specs = vec![
        TrialSpec::scored(
            &good,
            "Medium",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE,
            Arc::clone(&reference),
        ),
        TrialSpec::scored(
            &panicking_app(),
            "Medium",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE ^ 1,
            Arc::clone(&bad_reference),
        ),
        TrialSpec::scored(
            &good,
            "Medium",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE ^ 2,
            Arc::clone(&reference),
        ),
    ];
    // The campaign must complete at every thread count, one included.
    for threads in [1, 3] {
        let report = run(&specs, threads);
        assert_eq!(report.trials.len(), 3);
        assert_eq!(report.summary.panics, 1);
        let crashed = &report.trials[1];
        assert!(crashed.panicked());
        assert_eq!(crashed.error, 1.0, "crash scores worst-case QoS");
        assert_eq!(crashed.app, "Panicker");
        assert!(
            crashed.panic.as_deref().unwrap().contains("out of bounds"),
            "panic message recorded: {:?}",
            crashed.panic
        );
        // Crashed trials claim no savings and contribute no stats: their
        // zero quanta project to exactly the precise baseline.
        let e = crashed.energy_quanta.normalized();
        assert_eq!([e.instructions, e.sram, e.dram, e.total], [1.0; 4]);
        assert_eq!(crashed.stats, Stats::new());
        let good_stats = {
            let mut merged = Stats::new();
            merged.merge(&report.trials[0].stats);
            merged.merge(&report.trials[2].stats);
            merged
        };
        assert_eq!(report.summary.merged_stats, good_stats);
        // The healthy trials are unaffected by their crashed neighbor.
        assert!(!report.trials[0].panicked());
        assert!(!report.trials[2].panicked());
        // JSON report records the panic.
        let json = report.to_json();
        assert!(json.contains("\"panics\":1"));
        assert!(json.contains("out of bounds"));
    }
    // Also contained when the panicking trial is last (a worker's final
    // pull) and when every trial panics.
    specs.rotate_left(1);
    let report = run(&specs, 2);
    assert_eq!(report.summary.panics, 1);
    let all_bad: Vec<TrialSpec> = (0..4)
        .map(|i| {
            TrialSpec::scored(
                &panicking_app(),
                "Medium",
                HwConfig::for_level(Level::Medium),
                FAULT_SEED_BASE ^ i,
                Arc::clone(&bad_reference),
            )
        })
        .collect();
    let report = run(&all_bad, 2);
    assert_eq!(report.summary.panics, 4);
    assert_eq!(report.summary.mean_error, 1.0);
    assert_eq!(report.summary.merged_stats, Stats::new());
}
