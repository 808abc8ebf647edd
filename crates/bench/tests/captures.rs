//! Every committed `results/BENCH_*.json` capture reads back through its
//! writer's reader and re-renders to the same bytes, and the binaries that
//! write no report regenerate their text captures byte for byte. The tests
//! only read `results/`, so running them leaves the tree as it was.

use std::process::Command;

use enerj_apps::trials::CampaignReport;
use enerj_bench::sched::SchedReport;
use enerj_bench::{bench_report_path, results_dir};

/// The `enerj-campaign/6` reports the bench binaries write.
const CAMPAIGN_REPORTS: [&str; 7] =
    ["fig3", "fig4", "fig5", "table3", "ablation", "ablation_error_modes", "recovery"];

#[test]
fn every_committed_capture_round_trips_through_its_reader() {
    let mut committed: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .filter_map(|entry| entry.expect("readable entry").file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed.sort();
    let mut expected: Vec<String> =
        CAMPAIGN_REPORTS.iter().chain(&["sched"]).map(|n| format!("BENCH_{n}.json")).collect();
    expected.sort();
    assert_eq!(committed, expected, "the set of committed captures changed");

    let read = |name: &str| {
        let path = bench_report_path(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    for name in CAMPAIGN_REPORTS {
        let text = read(name);
        let report = CampaignReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!report.trials.is_empty(), "{name}: no trials");
        assert_eq!(report.to_json() + "\n", text, "{name}");
    }
    let text = read("sched");
    let report = SchedReport::from_json(&text).unwrap_or_else(|e| panic!("sched: {e}"));
    assert_eq!(report.to_json() + "\n", text, "sched");
}

/// Runs a bench binary that writes no report and compares its stdout with
/// its committed text capture.
fn regenerates(bin: &str, capture: &str) {
    let out = Command::new(bin).output().unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{bin}: {}", String::from_utf8_lossy(&out.stderr));
    let path = results_dir().join(capture);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(String::from_utf8_lossy(&out.stdout), committed, "{capture}");
}

#[test]
fn table2_and_tuning_regenerate_their_text_captures() {
    regenerates(env!("CARGO_BIN_EXE_table2"), "table2.txt");
    regenerates(env!("CARGO_BIN_EXE_tuning"), "tuning.txt");
}
