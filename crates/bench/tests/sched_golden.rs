//! Golden-file lock on the `enerj-sched/1` serialization: the budget
//! experiment report `schedbench` writes must stay byte-stable, the same
//! way the `enerj-campaign/7` report is locked in
//! `crates/apps/tests/telemetry.rs`.

use std::path::PathBuf;

use enerj_apps::scheduler::SchedLevel;
use enerj_bench::sched::{BaselineRow, SchedReport, ScheduledRow};
use enerj_hw::energy::QuantaMeter;
use enerj_hw::quanta::EnergyQuanta;

/// A fully synthetic report with fixed values, exercising every branch of
/// the serializer: a met budget, a flagged scalar, and baselines on both
/// sides of the budget line.
fn synthetic_report() -> SchedReport {
    SchedReport {
        quick: true,
        meter: QuantaMeter::Sram,
        budget_pct: 60,
        epoch_len: 3,
        precise_cost_quanta: EnergyQuanta::new(1_000_000_000_000),
        identical: true,
        scheduled: ScheduledRow {
            spent_quanta: EnergyQuanta::new(587_500_000_000),
            mean_error: 0.03125,
            implausible: 1,
            level_counts: [6, 9, 6, 3],
        },
        baselines: vec![
            BaselineRow {
                level: SchedLevel::Precise,
                spent_quanta: EnergyQuanta::new(1_000_000_000_000),
                mean_error: 0.0,
            },
            BaselineRow {
                level: SchedLevel::Mild,
                spent_quanta: EnergyQuanta::new(489_000_000_000),
                mean_error: 0.0625,
            },
            BaselineRow {
                level: SchedLevel::Medium,
                spent_quanta: EnergyQuanta::new(416_000_000_000),
                mean_error: 0.125,
            },
            BaselineRow {
                level: SchedLevel::Aggressive,
                spent_quanta: EnergyQuanta::new(345_000_000_000),
                mean_error: 0.25,
            },
        ],
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

#[test]
fn sched_report_json_matches_the_v1_golden() {
    let json = synthetic_report().to_json();
    assert!(json.starts_with("{\"schema\":\"enerj-sched/1\""));
    enerj_pins::check(golden_path("sched_v1.json"), &(json + "\n"));
}

#[test]
fn the_golden_fixture_passes_its_own_validator() {
    let golden = std::fs::read_to_string(golden_path("sched_v1.json")).expect("golden present");
    let report = SchedReport::from_json(&golden).expect("the golden reads back");
    assert_eq!(report.baselines.len(), 4);
    assert_eq!(report.to_json() + "\n", golden);
}
