//! Every committed `results/` capture regenerates from its command.
//!
//! Each capture test runs one command of `results/README.md` through
//! `CARGO_BIN_EXE_*`, in a fresh directory holding an empty `results/`, so
//! the report it writes lands there and never in the tree. Its stdout must
//! equal the committed text capture and its report the committed report,
//! both with `wall_seconds` and `threads` masked; before it is pinned, the
//! report must read back through its typed reader and re-render to the
//! same bytes. A campaign report's command runs at the thread count its
//! committed report does not record, so the pin also checks that the
//! thread count changes no other byte.
//! `BLESS=1 cargo test` re-records whatever differs.

use std::path::Path;
use std::process::Command;

use enerj_apps::trials::CampaignReport;
use enerj_bench::sched::SchedReport;

/// The `enerj-campaign/7` reports the bench binaries write.
const CAMPAIGN_REPORTS: [&str; 7] =
    ["fig3", "fig4", "fig5", "table3", "ablation", "ablation_error_modes", "recovery"];

/// The committed capture `name`, empty when there is none yet.
fn committed(name: &str) -> String {
    std::fs::read_to_string(enerj_pins::capture(name)).unwrap_or_default()
}

/// Pins `actual` to the committed capture `name`, masked.
fn pin(name: &str, actual: &str) {
    if enerj_pins::mask(&committed(name)) != enerj_pins::mask(actual) {
        enerj_pins::check(enerj_pins::capture(name), actual);
    }
}

/// Reads the freshly written report `name` through its typed reader and
/// requires the reader's re-rendering to reproduce it byte for byte.
fn round_trips(name: &str, written: &str) {
    let rendered = if name == "BENCH_sched.json" {
        SchedReport::from_json(written).unwrap_or_else(|e| panic!("{name}: {e}")).to_json()
    } else {
        let report = CampaignReport::from_json(written).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!report.trials.is_empty(), "{name}: no trials");
        report.to_json()
    };
    assert_eq!(rendered + "\n", written, "{name} does not round-trip through its reader");
}

/// Runs `exe args` and pins its stdout to the text capture `text` and the
/// report it writes to `report`.
fn regenerates(exe: &str, args: &[&str], text: Option<&str>, report: Option<&str>) {
    let mut args = args.to_vec();
    if let Some(report) = report {
        let recorded = committed(report);
        if recorded.contains("\"threads\":") {
            let other = if recorded.contains("\"threads\":1,") { "2" } else { "1" };
            args.extend(["--threads", other]);
        }
    }
    let key = text.or(report).expect("something to pin");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("captures").join(key);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).expect("a scratch results/");
    let out = Command::new(exe)
        .args(&args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"));
    assert!(out.status.success(), "{exe} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    if let Some(text) = text {
        pin(text, &String::from_utf8_lossy(&out.stdout));
    }
    if let Some(report) = report {
        let written = std::fs::read_to_string(dir.join("results").join(report))
            .unwrap_or_else(|e| panic!("{exe} wrote no {report}: {e}"));
        round_trips(report, &written);
        pin(report, &written);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table2_and_tuning_regenerate_their_text_captures() {
    regenerates(env!("CARGO_BIN_EXE_table2"), &[], Some("table2.txt"), None);
    regenerates(env!("CARGO_BIN_EXE_tuning"), &[], Some("tuning.txt"), None);
}

#[test]
fn table3_fig3_and_fig4_regenerate() {
    for (exe, name) in [
        (env!("CARGO_BIN_EXE_table3"), "table3"),
        (env!("CARGO_BIN_EXE_fig3"), "fig3"),
        (env!("CARGO_BIN_EXE_fig4"), "fig4"),
    ] {
        regenerates(exe, &[], Some(&format!("{name}.txt")), Some(&format!("BENCH_{name}.json")));
    }
}

#[test]
fn fig5_regenerates_its_text_capture_and_its_report() {
    let exe = env!("CARGO_BIN_EXE_fig5");
    regenerates(exe, &["--runs", "20"], Some("fig5.txt"), None);
    regenerates(exe, &["--runs", "3"], None, Some("BENCH_fig5.json"));
}

#[test]
fn ablation_regenerates() {
    let args = ["--runs", "10"];
    regenerates(
        env!("CARGO_BIN_EXE_ablation"),
        &args,
        Some("ablation.txt"),
        Some("BENCH_ablation.json"),
    );
}

#[test]
fn ablation_error_modes_regenerate() {
    let args = ["--error-modes", "--runs", "10"];
    let report = Some("BENCH_ablation_error_modes.json");
    regenerates(env!("CARGO_BIN_EXE_ablation"), &args, Some("ablation_modes.txt"), report);
}

#[test]
fn recovery_regenerates() {
    let args = ["--runs", "10", "--amplify", "40"];
    regenerates(
        env!("CARGO_BIN_EXE_recovery"),
        &args,
        Some("recovery.txt"),
        Some("BENCH_recovery.json"),
    );
}

#[test]
fn schedbench_regenerates_its_report() {
    regenerates(
        env!("CARGO_BIN_EXE_schedbench"),
        &["--threads", "2"],
        None,
        Some("BENCH_sched.json"),
    );
}

/// A report that cannot be written fails the run: `results` is a plain
/// file, so `results/BENCH_fig5.json` has no directory to land in.
#[test]
fn an_unwritable_report_fails_the_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("captures").join("unwritable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a scratch dir");
    std::fs::write(dir.join("results"), "not a directory").expect("a plain file");
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--runs", "1"])
        .current_dir(&dir)
        .output()
        .expect("fig5 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "fig5 exited 0 without its report: {stderr}");
    assert!(stderr.contains("warning: could not write results/BENCH_fig5.json: "), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every committed report has a capture test above; each of those reads
/// its freshly written report through its typed reader before pinning it.
#[test]
fn the_committed_reports_are_the_pinned_set() {
    let mut names: Vec<String> = std::fs::read_dir(enerj_pins::capture(""))
        .expect("results/ exists")
        .filter_map(|entry| entry.expect("readable entry").file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    let mut expected: Vec<String> =
        CAMPAIGN_REPORTS.iter().chain(&["sched"]).map(|n| format!("BENCH_{n}.json")).collect();
    expected.sort();
    assert_eq!(names, expected, "the set of committed captures changed");
}
