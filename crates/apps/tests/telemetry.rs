//! Integration tests for the fault-telemetry layer: telemetry must never
//! change campaign outcomes, the `enerj-campaign/7` serialization must stay
//! byte-stable (golden files), and the evaluation, tuner and recovery-retry
//! seed spaces must be provably pairwise disjoint.

use std::path::PathBuf;
use std::time::Duration;

use enerj_apps::harness::{FAULT_SEED_BASE, TUNER_SEED_BASE};
use enerj_apps::trials::{
    read_fault_log, trial_json, write_trial_json, CampaignOptions, CampaignReport, Grid,
    NdjsonSink, ReadErrorKind, TrialResult, TrialSink, TrialSpec,
};
use enerj_apps::App;
use enerj_hw::config::Level;
use enerj_hw::energy::EnergyQuantaBreakdown;
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::trace::{FaultEvent, FaultKind};
use enerj_hw::FaultCounters;
use proptest::prelude::*;

fn app(name: &str) -> App {
    enerj_apps::app(name).expect("registered")
}

fn aggressive_specs(names: &[&str], runs: u64) -> Vec<TrialSpec> {
    let apps: Vec<App> = names.iter().map(|&n| app(n)).collect();
    Grid::levels(&apps, &[Level::Aggressive], runs, FAULT_SEED_BASE).specs().collect()
}

#[test]
fn telemetry_on_is_bit_identical_to_telemetry_off() {
    let specs = aggressive_specs(&["FFT", "MonteCarlo"], 3);
    let off = CampaignReport::collect(
        specs.as_slice(),
        &CampaignOptions { threads: 2, log_events: false, ..CampaignOptions::default() },
    );
    let on = CampaignReport::collect(
        specs.as_slice(),
        &CampaignOptions { threads: 2, log_events: true, ..CampaignOptions::default() },
    );
    assert_eq!(off.trials.len(), on.trials.len());
    for (a, b) in off.trials.iter().zip(&on.trials) {
        assert_eq!(a.error.to_bits(), b.error.to_bits(), "trial {} error", a.index);
        assert_eq!(a.stats, b.stats, "trial {} stats", a.index);
        assert_eq!(a.energy_quanta, b.energy_quanta, "trial {} energy", a.index);
        assert_eq!(a.fault_counts, b.fault_counts, "trial {} counters", a.index);
        // The log is the only difference: absent when off, and when on it
        // accounts for exactly the faults the counters saw.
        assert!(a.events.is_empty());
        assert_eq!(b.events.len() as u64, b.fault_counts.total_injections());
        let bits: u64 = b.events.iter().map(|e| u64::from(e.bits_flipped)).sum();
        assert_eq!(bits, b.fault_counts.total_bits_flipped());
    }
    assert_eq!(off.summary.merged_stats, on.summary.merged_stats);
    assert_eq!(off.summary.fault_totals, on.summary.fault_totals);
    assert!(on.summary.fault_totals.total_injections() > 0, "aggressive trials inject faults");
}

/// A fully synthetic report with fixed durations, exercising every branch
/// of the serializer (panicked trial, escaped strings, per-kind counters).
fn synthetic_report() -> CampaignReport {
    let mut stats = Stats::new();
    stats.int_approx_ops = 10;
    stats.int_precise_ops = 20;
    stats.fp_approx_ops = 7;
    stats.sram_approx_quanta = EnergyQuanta::new(12_000_000);
    stats.sram_precise_quanta = EnergyQuanta::new(2_000_000);

    let mut counts = FaultCounters::new();
    counts.record(FaultKind::SramReadUpset, 1);
    counts.record(FaultKind::IntTiming, 2);
    counts.record(FaultKind::IntTiming, 3);

    let healthy = TrialResult {
        index: 0,
        app: "FFT",
        label: "Aggressive".to_owned(),
        seed: 42,
        error: 0.125,
        output: None,
        stats,
        wall: Duration::from_micros(500_000),
        panic: None,
        fault_counts: counts,
        events: vec![
            FaultEvent { kind: FaultKind::SramReadUpset, time: 0.5, width: 64, bits_flipped: 1 },
            FaultEvent { kind: FaultKind::IntTiming, time: 1.25, width: 32, bits_flipped: 2 },
        ],
        attempts: 2,
        recovered_at_level: Some("Precise".to_owned()),
        scheduled_level: Some("Mild".to_owned()),
        failure_causes: vec!["qos: error 0.5000 > threshold 0.1".to_owned()],
        recovery_energy_overhead_quanta: EnergyQuanta::new(1_234_500),
        energy_quanta: EnergyQuantaBreakdown {
            instructions: EnergyQuanta::new(8_000_000),
            // (30 int ops · 37 + 7 FP ops · 40) · 10^4, as the stats give.
            baseline_instructions: EnergyQuanta::new(13_900_000),
            sram: EnergyQuanta::new(126_000_000_000),
            baseline_sram: EnergyQuanta::new(140_000_000_000),
            dram: EnergyQuanta::ZERO,
            baseline_dram: EnergyQuanta::ZERO,
            total: EnergyQuanta::new(126_008_000_000),
            baseline_total: EnergyQuanta::new(140_013_900_000),
        },
    };
    let crashed = TrialResult {
        index: 1,
        app: "Panicker",
        label: "Medium".to_owned(),
        seed: 43,
        error: 1.0,
        output: None,
        stats: Stats::new(),
        wall: Duration::from_micros(1_000),
        panic: Some("index \"7\" out of bounds\n".to_owned()),
        fault_counts: FaultCounters::new(),
        events: Vec::new(),
        attempts: 1,
        recovered_at_level: None,
        scheduled_level: None,
        failure_causes: vec!["panic: index \"7\" out of bounds\n".to_owned()],
        recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
        energy_quanta: EnergyQuantaBreakdown::ZERO,
    };
    CampaignReport {
        budget_quanta: Some(EnergyQuanta::new(130_000_000_000)),
        budget_met: Some(true),
        ..CampaignReport::from_trials(vec![healthy, crashed], Duration::from_micros(1_250_000), 3)
    }
}

/// A writer golden under `tests/golden/`. A change to one is a schema
/// change: bump the schema tag and document it in DESIGN.md before
/// re-blessing.
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

#[test]
fn campaign_report_json_matches_the_v7_golden() {
    let json = synthetic_report().to_json();
    assert!(json.starts_with("{\"schema\":\"enerj-campaign/7\""));
    assert!(json.contains("\"budget_quanta\":130000000000"));
    assert!(json.contains("\"budget_met\":true"));
    // The crashed trial's unset level is omitted, not `null`.
    assert_eq!(json.matches("\"scheduled_level\":").count(), 1);
    assert!(json.contains("\"scheduled_level\":\"Mild\""));
    enerj_pins::check(golden_path("campaign_v7.json"), &(json + "\n"));
}

#[test]
fn fault_log_ndjson_matches_the_v2_golden() {
    enerj_pins::check(golden_path("fault_log_v2.ndjson"), &synthetic_report().fault_log_ndjson());
}

/// The goldens pin the writer, not a readable report: the crashed trial
/// runs `Panicker`, a test-only app the registry does not know. Under a
/// registered name, every other byte of the golden reads back.
#[test]
fn the_v7_golden_names_an_unregistered_app() {
    let golden = std::fs::read_to_string(golden_path("campaign_v7.json")).expect("golden present");
    let err = CampaignReport::from_json(&golden).unwrap_err();
    assert_eq!(
        (err.path.as_str(), err.kind),
        ("trials[1].app", ReadErrorKind::UnknownApp("Panicker".to_owned()))
    );
    let registered = golden.replace("\"Panicker\"", "\"LU\"");
    let report = CampaignReport::from_json(&registered).expect("the rest of the golden reads back");
    assert_eq!(report.to_json() + "\n", registered);
    let log = std::fs::read_to_string(golden_path("fault_log_v2.ndjson")).expect("golden present");
    let events = read_fault_log(&log).expect("the fault-log golden reads back");
    assert_eq!(events.len(), 2);
}

/// `NdjsonSink` renders every record into one reused line buffer: a short
/// record after a long one must not carry the long one's tail.
#[test]
fn ndjson_sink_reuses_its_line_buffer_without_stale_bytes() {
    let [healthy, crashed] = <[TrialResult; 2]>::try_from(synthetic_report().trials).unwrap();
    let long = TrialResult { label: "L".repeat(2_000), ..healthy };
    let short = TrialResult { app: "A", label: String::new(), panic: None, ..crashed };
    let trials = [long.clone(), short, TrialResult { index: 2, ..long }];
    assert!(trial_json(&trials[1]).len() < trial_json(&trials[0]).len() / 2);

    let mut sink = NdjsonSink::new(Vec::new());
    for t in &trials {
        sink.accept(t.clone()).expect("Vec<u8> writes cannot fail");
    }
    let expected: String = trials.iter().map(|t| trial_json(t) + "\n").collect();
    assert_eq!(String::from_utf8(sink.into_inner()).expect("UTF-8"), expected);
}

/// 400 distinct trials whose lines fill several of `NdjsonSink`'s 64 KiB
/// blocks, so a lost or repeated block shows; and their NDJSON stream.
fn multi_block_stream() -> (Vec<TrialResult>, String) {
    let healthy = synthetic_report().trials.swap_remove(0);
    let trials: Vec<TrialResult> = (0..400)
        .map(|i| TrialResult { index: i, label: "L".repeat(i % 700), ..healthy.clone() })
        .collect();
    let stream: String = trials.iter().map(|t| trial_json(t) + "\n").collect();
    assert!(stream.len() > 4 * 64 * 1024, "{} bytes", stream.len());
    (trials, stream)
}

/// A sink dropped without `flush` hands its pending block to the writer,
/// as a dropped `BufWriter` does.
#[test]
fn ndjson_sink_dropped_without_flush_delivers_every_line() {
    let (trials, stream) = multi_block_stream();
    let mut out = Vec::new();
    let mut sink = NdjsonSink::new(&mut out);
    for t in &trials {
        sink.accept(t.clone()).expect("Vec<u8> writes cannot fail");
    }
    drop(sink);
    assert_eq!(String::from_utf8(out).expect("UTF-8"), stream);
}

/// Forwards only `accept`: the engine's `flush` never reaches the
/// `NdjsonSink` inside.
struct AcceptOnly(NdjsonSink<Vec<u8>>);

impl TrialSink for AcceptOnly {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        self.0.accept(trial)
    }
}

/// `into_inner` hands over the pending block, so a wrapper that never
/// forwards `flush` still gets the whole stream back.
#[test]
fn ndjson_sink_into_inner_delivers_the_unflushed_tail() {
    let (trials, stream) = multi_block_stream();
    let (mut direct, mut wrapped) =
        (NdjsonSink::new(Vec::new()), AcceptOnly(NdjsonSink::new(Vec::new())));
    for t in &trials {
        direct.accept(t.clone()).expect("Vec<u8> writes cannot fail");
        wrapped.accept(t.clone()).expect("Vec<u8> writes cannot fail");
    }
    direct.flush().expect("Vec<u8> flushes cannot fail");
    wrapped.flush().expect("the default flush does nothing");
    let wrapped = wrapped.0.into_inner();
    assert_eq!(wrapped, direct.into_inner());
    assert_eq!(String::from_utf8(wrapped).expect("UTF-8"), stream);
}

#[test]
fn write_trial_json_appends_after_the_existing_text() {
    let t = &synthetic_report().trials[0];
    let mut out = String::from("[\"prefix\",");
    write_trial_json(&mut out, t);
    assert_eq!(out, format!("[\"prefix\",{}", trial_json(t)));
}

/// The edge values the record writer special-cases, against literal text.
#[test]
fn trial_record_renders_edge_values_literally() {
    let crashed = synthetic_report().trials.swap_remove(1);
    let big = EnergyQuanta::new(u128::from(u64::MAX) + 1);
    let t = TrialResult {
        panic: Some("\u{1}".to_owned()),
        error: f64::NAN,
        energy_quanta: EnergyQuantaBreakdown { dram: big, ..EnergyQuantaBreakdown::ZERO },
        failure_causes: Vec::new(),
        ..crashed
    };
    let line = trial_json(&t);
    // NaN clamps to 1.0, rendered as `{}` renders it; members at their
    // default are omitted, and a trial with no fault has no kind.
    for fragment in [
        "\"seed\":43,\"error\":1,\"wall_seconds\":0.001000,\"panic\":\"\\u0001\",",
        "\"panic\":\"\\u0001\",\"attempts\":1,\"stats\":{",
        "\"dram\":18446744073709551616},\"fault_counts\":{}}",
    ] {
        assert!(line.contains(fragment), "{fragment} missing from {line}");
    }

    let causes = vec!["qos".to_owned(), "a \"b\"\n".to_owned(), String::new()];
    let line = trial_json(&TrialResult { failure_causes: causes, ..t });
    assert!(line.contains("\"failure_causes\":[\"qos\",\"a \\\"b\\\"\\n\",\"\"],"), "{line}");
}

#[test]
fn seed_bases_partition_the_seed_space() {
    // The top two bits identify the stream: evaluation seeds have `00`,
    // tuner seeds `10`, recovery-retry seeds `01` — see
    // `harness::TUNER_SEED_BASE` and `recovery::RETRY_SEED_BASE`.
    assert_eq!(FAULT_SEED_BASE >> 62, 0b00);
    assert_eq!(TUNER_SEED_BASE >> 62, 0b10);
    assert_eq!(enerj_apps::recovery::RETRY_SEED_BASE >> 62, 0b01);
    assert_eq!(TUNER_SEED_BASE & !(1 << 63), FAULT_SEED_BASE);
}

proptest! {
    /// No evaluation seed ever equals a tuner seed, for any (trial, run)
    /// index pair either campaign could plausibly use.
    #[test]
    fn tuner_and_evaluation_seeds_never_collide(
        i in 0u64..(1 << 63),
        r in 0u64..(1 << 63),
    ) {
        prop_assert_ne!(FAULT_SEED_BASE ^ i, TUNER_SEED_BASE ^ r);
    }

    /// Recovery-retry seeds never collide with the evaluation or tuner
    /// streams: retries always carry the top-bit pattern `01`, which no
    /// plausible evaluation index (below 2^62) or tuner index can produce.
    /// A retry therefore never replays a fault sequence any scored or
    /// profiling run has seen.
    #[test]
    fn retry_seeds_never_collide_with_other_streams(
        trial in 0u64..(1 << 62),
        attempt in 1u32..8,
        i in 0u64..(1 << 62),
        r in 0u64..(1 << 62),
    ) {
        let retry = enerj_apps::recovery::retry_seed(FAULT_SEED_BASE ^ trial, attempt);
        prop_assert_eq!(retry >> 62, 0b01);
        prop_assert_ne!(retry, FAULT_SEED_BASE ^ i);
        prop_assert_ne!(retry, TUNER_SEED_BASE ^ r);
    }
}
