//! Every committed `results/BENCH_*.json` capture reads back through its
//! writer's reader and re-renders to the same bytes. The test only reads,
//! so running it leaves the tree as it was.

use enerj_apps::trials::CampaignReport;
use enerj_bench::sched::SchedReport;
use enerj_bench::{bench_report_path, results_dir};

/// The `enerj-campaign/5` reports the bench binaries write.
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
