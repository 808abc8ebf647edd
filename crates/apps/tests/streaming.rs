//! Integration tests for the streaming campaign engine: a lazily-sourced,
//! sink-streamed campaign must be bit-identical to a one-thread in-memory
//! run — trial by trial and in every aggregate — for any thread count,
//! chunk size, sink, and telemetry setting, recovery ladders included.
//! The engine is a throughput optimization; it is allowed to change
//! nothing else.

use std::io;
use std::time::{Duration, Instant};

use enerj_apps::harness::FAULT_SEED_BASE;
use enerj_apps::recovery::{chaos_config, Policy};
use enerj_apps::trials::{
    run_campaign_streamed, trial_json, CampaignOptions, CampaignReport, CampaignSummary, Grid,
    NdjsonSink, SpecFn, TrialResult, TrialSink, TrialSpec, VecSink,
};
use enerj_apps::App;
use enerj_hw::config::Level;
use enerj_hw::energy::EnergyQuantaBreakdown;
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::FaultCounters;
use proptest::prelude::*;

fn app(name: &str) -> App {
    enerj_apps::app(name).expect("registered")
}

/// A small mixed campaign: two apps, two fault levels, an odd trial count
/// so no chunk size divides it evenly.
fn mixed_specs() -> Vec<TrialSpec> {
    let apps = [app("FFT"), app("MonteCarlo")];
    let grid = Grid::levels(&apps, &[Level::Mild, Level::Aggressive], 3, FAULT_SEED_BASE);
    grid.specs().take(11).collect()
}

/// Asserts the streamed run reproduced the in-memory report exactly:
/// every per-trial bit and every aggregate.
fn assert_matches_report(
    report: &CampaignReport,
    streamed: &[enerj_apps::trials::TrialResult],
    summary: &CampaignSummary,
    what: &str,
) {
    assert_eq!(streamed.len(), report.trials.len(), "{what}: trial count");
    for (s, b) in streamed.iter().zip(&report.trials) {
        let where_ = format!("{what}: trial {}", b.index);
        assert_eq!(s.index, b.index, "{where_}: index");
        assert_eq!(s.seed, b.seed, "{where_}: seed");
        assert_eq!(s.label, b.label, "{where_}: label");
        assert_eq!(s.error.to_bits(), b.error.to_bits(), "{where_}: error");
        assert_eq!(s.stats, b.stats, "{where_}: stats");
        assert_eq!(s.energy_quanta, b.energy_quanta, "{where_}: quanta");
        assert_eq!(s.fault_counts, b.fault_counts, "{where_}: fault counts");
        assert_eq!(s.panic, b.panic, "{where_}: panic");
        assert_eq!(s.attempts, b.attempts, "{where_}: attempts");
        assert_eq!(s.recovered_at_level, b.recovered_at_level, "{where_}: recovery rung");
        assert_eq!(
            s.recovery_energy_overhead_quanta, b.recovery_energy_overhead_quanta,
            "{where_}: recovery overhead"
        );
    }
    let base = &report.summary;
    assert_eq!(summary.trials, base.trials, "{what}: summary count");
    assert_eq!(
        summary.mean_error.to_bits(),
        base.mean_error.to_bits(),
        "{what}: summary mean error"
    );
    assert_eq!(summary.panics, base.panics, "{what}: summary panics");
    assert_eq!(summary.recovered, base.recovered, "{what}: summary recovered");
    assert_eq!(summary.merged_stats, base.merged_stats, "{what}: summary stats");
    assert_eq!(summary.energy_quanta, base.energy_quanta, "{what}: summary quanta");
    assert_eq!(summary.fault_totals, base.fault_totals, "{what}: summary faults");
    assert_eq!(
        summary.recovery_energy_overhead_quanta, base.recovery_energy_overhead_quanta,
        "{what}: summary overhead"
    );
    assert!(
        summary.peak_buffered <= summary.buffer_capacity,
        "{what}: window {}/{} leaked past its bound",
        summary.peak_buffered,
        summary.buffer_capacity
    );
}

/// The drain-folded summary equals a post-hoc fold of the report's own
/// trials: the f64 error sum in index order, the stats of non-panicked
/// trials merged in order, and the integer totals.
fn assert_summary_folds_trials(report: &CampaignReport) {
    let (mut error_sum, mut stats, mut quanta, mut faults, mut overhead) = (
        0.0f64,
        Stats::new(),
        EnergyQuantaBreakdown::ZERO,
        FaultCounters::new(),
        EnergyQuanta::ZERO,
    );
    for t in &report.trials {
        error_sum += t.error;
        if !t.panicked() {
            stats.merge(&t.stats);
        }
        quanta.merge(&t.energy_quanta);
        faults.merge(&t.fault_counts);
        overhead += t.recovery_energy_overhead_quanta;
    }
    let s = &report.summary;
    let n = report.trials.len();
    assert_eq!(s.trials, n);
    assert_eq!(s.mean_error.to_bits(), (error_sum / n as f64).to_bits(), "mean error");
    assert_eq!(s.panics, report.trials.iter().filter(|t| t.panicked()).count());
    assert_eq!(s.recovered, report.trials.iter().filter(|t| t.recovered()).count());
    assert_eq!(s.merged_stats, stats);
    assert_eq!(s.energy_quanta, quanta);
    assert_eq!(s.fault_totals, faults);
    assert_eq!(s.recovery_energy_overhead_quanta, overhead);
}

fn run_serial(specs: &[TrialSpec]) -> CampaignReport {
    let report = CampaignReport::collect(specs, &CampaignOptions::with_threads(1));
    assert_summary_folds_trials(&report);
    report
}

#[test]
fn streamed_campaign_is_bit_identical_to_in_memory_runner() {
    let specs = mixed_specs();
    let baseline = run_serial(&specs);
    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 16, 256] {
            for log_events in [false, true] {
                let source = SpecFn::new(specs.len(), |i| specs[i].clone());
                let opts =
                    CampaignOptions { threads, chunk, log_events, ..CampaignOptions::default() };
                let mut sink = VecSink::default();
                let summary = run_campaign_streamed(&source, &opts, &mut sink)
                    .expect("the in-memory sink cannot fail");
                let what = format!("{threads} threads, chunk {chunk}, telemetry {log_events}");
                assert_matches_report(&baseline, &sink.trials, &summary, &what);
            }
        }
    }
}

/// Recovery campaigns exercise the whole ladder inside a worker — retry
/// seeds, escalation, overhead quanta — and must stream identically too.
#[test]
fn streamed_recovery_campaign_is_bit_identical() {
    let arms = vec![("chaos".to_owned(), chaos_config(50.0))];
    let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
    let grid = Grid::new(&[app("MonteCarlo")], arms, 5, FAULT_SEED_BASE);
    let specs: Vec<TrialSpec> = grid.specs().map(|s| s.with_recovery(policy.clone())).collect();
    let baseline = run_serial(&specs);
    assert!(baseline.summary.recovered > 0, "threshold 0 under chaos must escalate");
    for threads in [1usize, 4] {
        for chunk in [1usize, 256] {
            let source = SpecFn::new(specs.len(), |i| specs[i].clone());
            let opts = CampaignOptions { threads, chunk, ..CampaignOptions::default() };
            let mut sink = VecSink::default();
            let summary = run_campaign_streamed(&source, &opts, &mut sink)
                .expect("the in-memory sink cannot fail");
            let what = format!("recovery at {threads} threads, chunk {chunk}");
            assert_matches_report(&baseline, &sink.trials, &summary, &what);
        }
    }
}

/// Blanks the one field of a trial's JSON line that is not a function of
/// its spec: the wall-clock measurement.
fn mask_wall(line: &str) -> String {
    let start = line.find("\"wall_seconds\":").expect("trial JSON carries wall_seconds");
    let rest = &line[start..];
    let end = start + rest.find(',').expect("wall_seconds is not the last field");
    format!("{}\"wall_seconds\":W{}", &line[..start], &line[end..])
}

/// The NDJSON sink must receive exactly the serialization the in-memory
/// report would produce for each trial, in index order.
#[test]
fn ndjson_sink_emits_trial_json_in_index_order() {
    let specs = mixed_specs();
    let baseline = run_serial(&specs);
    let source = SpecFn::new(specs.len(), |i| specs[i].clone());
    let opts = CampaignOptions { threads: 4, chunk: 2, ..CampaignOptions::default() };
    let mut sink = NdjsonSink::new(Vec::<u8>::new());
    let summary =
        run_campaign_streamed(&source, &opts, &mut sink).expect("Vec<u8> writes cannot fail");
    let text = String::from_utf8(sink.into_inner()).expect("NDJSON is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), baseline.trials.len());
    assert_eq!(summary.trials, baseline.trials.len());
    for (line, trial) in lines.iter().zip(&baseline.trials) {
        assert_eq!(mask_wall(line), mask_wall(&trial_json(trial)), "trial {}", trial.index);
    }
}

/// A worker that dies mid-chunk (a panicking [`SpecFn`] — a harness bug,
/// not an app fault; app panics are contained per trial) must poison the
/// reorder window so the campaign panics promptly. Before the poison flag
/// existed this deadlocked: the other workers blocked forever in `push`,
/// waiting for window slots the dead worker would never fill.
#[test]
fn dying_worker_poisons_the_reorder_window_instead_of_hanging() {
    let specs = mixed_specs();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // 64 trials, chunk 1, 4 workers: the window holds 8, so with
        // index 5 never delivered the survivors *will* block at index 13
        // and beyond — the exact shape that used to hang.
        let source = SpecFn::new(64, |i| {
            assert!(i != 5, "synthetic SpecSource failure");
            specs[i % specs.len()].clone()
        });
        let opts = CampaignOptions { threads: 4, chunk: 1, ..CampaignOptions::default() };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = VecSink::default();
            let _ = run_campaign_streamed(&source, &opts, &mut sink);
        }));
        let _ = tx.send(outcome.is_err());
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("campaign hung: the reorder window was never poisoned");
    assert!(panicked, "a dying worker must propagate as a campaign panic, not a clean return");
}

/// On trial 0's `accept`, waits (up to 10 s) for two more `spec` requests
/// than had been made when the call began, and records how many it saw.
struct WaitingSink {
    requested: std::sync::mpsc::Receiver<usize>,
    seen_during_accept: Option<usize>,
}

impl TrialSink for WaitingSink {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        if trial.index == 0 {
            while self.requested.try_recv().is_ok() {}
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut seen = 0;
            while seen < 2 {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.requested.recv_timeout(left) {
                    Ok(_) => seen += 1,
                    Err(_) => break,
                }
            }
            self.seen_during_accept = Some(seen);
        }
        Ok(())
    }
}

/// The sink runs outside the reorder window's lock: while one worker is
/// inside `accept`, the other keeps requesting specs and running trials.
/// With the sink called under the lock, the other worker could request at
/// most one more spec before its `push` blocked on the held lock.
#[test]
fn sink_work_does_not_block_other_workers() {
    let specs = mixed_specs();
    let (tx, rx) = std::sync::mpsc::channel();
    // 2 threads × chunk 4: the window holds 16, so the worker that is not
    // serving can run well past trial 0 before backpressure stops it.
    let source = SpecFn::new(32, |i| {
        let _ = tx.send(i);
        specs[i % specs.len()].clone()
    });
    let opts = CampaignOptions { threads: 2, chunk: 4, ..CampaignOptions::default() };
    let mut sink = WaitingSink { requested: rx, seen_during_accept: None };
    let summary = run_campaign_streamed(&source, &opts, &mut sink).expect("sink never fails");
    assert_eq!(summary.trials, 32);
    assert_eq!(
        sink.seen_during_accept,
        Some(2),
        "the other worker stalled while trial 0 was being sunk"
    );
}

/// Panics in `accept` of trial `panic_at`.
struct PanickingSink {
    panic_at: usize,
}

impl TrialSink for PanickingSink {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        assert!(trial.index != self.panic_at, "synthetic sink failure");
        Ok(())
    }
}

/// A sink that panics kills the worker serving the drain while it holds
/// the drain: the campaign must panic promptly instead of leaving the other
/// workers waiting for a server that never returns.
#[test]
fn panicking_sink_ends_the_campaign_promptly() {
    for threads in [2usize, 4] {
        let specs = mixed_specs();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // 64 trials, chunk 1: the window holds 2 × threads, so the
            // survivors run into backpressure soon after trial 5.
            let source = SpecFn::new(64, |i| specs[i % specs.len()].clone());
            let opts = CampaignOptions { threads, chunk: 1, ..CampaignOptions::default() };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = run_campaign_streamed(&source, &opts, &mut PanickingSink { panic_at: 5 });
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{threads} threads: campaign hung after the sink panicked"));
        assert!(panicked, "{threads} threads: a sink panic must propagate as a campaign panic");
    }
}

/// An [`NdjsonSink`] that yields the thread in every `accept`, so the
/// serving worker loses the CPU mid-batch and the hand-off between servers
/// happens under contention.
struct YieldingSink(NdjsonSink<Vec<u8>>);

impl TrialSink for YieldingSink {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        std::thread::yield_now();
        self.0.accept(trial)
    }
}

/// Runs `specs` into a [`YieldingSink`]; returns the wall-masked NDJSON
/// lines and the summary.
fn yielding_run(
    specs: &[TrialSpec],
    threads: usize,
    chunk: usize,
) -> (Vec<String>, CampaignSummary) {
    let source = SpecFn::new(specs.len(), |i| specs[i].clone());
    let opts = CampaignOptions { threads, chunk, ..CampaignOptions::default() };
    let mut sink = YieldingSink(NdjsonSink::new(Vec::new()));
    let summary =
        run_campaign_streamed(&source, &opts, &mut sink).expect("Vec<u8> writes cannot fail");
    let text = String::from_utf8(sink.0.into_inner()).expect("NDJSON is UTF-8");
    (text.lines().map(mask_wall).collect(), summary)
}

/// Serving hand-offs under contention change nothing: the NDJSON stream,
/// the mean-error bits and the quanta equal the one-thread run at every
/// thread count and chunk size, and the window stays within its bound.
#[test]
fn streams_are_bit_identical_under_hand_off_contention() {
    let specs: Vec<TrialSpec> = mixed_specs().into_iter().cycle().take(40).collect();
    let (base_lines, base) = yielding_run(&specs, 1, 1);
    assert_eq!(base_lines.len(), specs.len());
    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 3, 64] {
            let what = format!("{threads} threads, chunk {chunk}");
            let (lines, summary) = yielding_run(&specs, threads, chunk);
            assert_eq!(lines, base_lines, "{what}: NDJSON stream");
            assert_eq!(
                summary.mean_error.to_bits(),
                base.mean_error.to_bits(),
                "{what}: mean error"
            );
            assert_eq!(summary.energy_quanta, base.energy_quanta, "{what}: quanta");
            assert!(
                summary.peak_buffered <= summary.buffer_capacity,
                "{what}: window {}/{} leaked past its bound",
                summary.peak_buffered,
                summary.buffer_capacity
            );
            if threads == 1 {
                assert_eq!(
                    summary.peak_buffered, 1,
                    "{what}: one worker delivers each push at once"
                );
            }
        }
    }
}

/// A sink that can fail on `accept` (after `fail_accept_at` successes) or
/// on the final `flush`.
struct FailingSink {
    accepted: usize,
    fail_accept_at: Option<usize>,
    fail_flush: bool,
}

impl TrialSink for FailingSink {
    fn accept(&mut self, _trial: TrialResult) -> io::Result<()> {
        if Some(self.accepted) == self.fail_accept_at {
            return Err(io::Error::other("disk full"));
        }
        self.accepted += 1;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.fail_flush {
            return Err(io::Error::other("flush failed"));
        }
        Ok(())
    }
}

/// Sink failures — on a mid-campaign `accept` or on the final `flush` —
/// surface as the campaign's `io::Result` with one worker (inline) and
/// with several. The engine never swallows a sink error, and an accept
/// error stops deliveries without stopping the campaign.
#[test]
fn sink_errors_surface_as_the_campaign_result() {
    let specs = mixed_specs();
    for threads in [1usize, 4] {
        let opts = CampaignOptions { threads, chunk: 2, ..CampaignOptions::default() };

        let source = SpecFn::new(specs.len(), |i| specs[i].clone());
        let mut sink = FailingSink { accepted: 0, fail_accept_at: Some(3), fail_flush: false };
        let err = run_campaign_streamed(&source, &opts, &mut sink)
            .expect_err("accept failure must surface");
        assert_eq!(err.to_string(), "disk full", "{threads} threads");
        assert_eq!(sink.accepted, 3, "{threads} threads: the first failure stops deliveries");

        let source = SpecFn::new(specs.len(), |i| specs[i].clone());
        let mut sink = FailingSink { accepted: 0, fail_accept_at: None, fail_flush: true };
        let err = run_campaign_streamed(&source, &opts, &mut sink)
            .expect_err("flush failure must surface");
        assert_eq!(err.to_string(), "flush failed", "{threads} threads");
        assert_eq!(
            sink.accepted,
            specs.len(),
            "{threads} threads: every trial was delivered before the flush failed"
        );
    }
}

/// A writer that buffers fine but cannot flush — the tail-loss shape
/// `NdjsonSink::flush` exists to catch.
struct FlushlessWriter(Vec<u8>);

impl io::Write for FlushlessWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Err(io::Error::other("device gone at flush"))
    }
}

/// [`NdjsonSink`] forwards its writer's flush failure as the campaign
/// result: a buffered stream that cannot flush its tail fails loudly
/// instead of reporting success over silently truncated output.
#[test]
fn ndjson_sink_flush_failure_fails_the_campaign() {
    let specs = mixed_specs();
    let source = SpecFn::new(specs.len(), |i| specs[i].clone());
    let opts = CampaignOptions { threads: 2, chunk: 2, ..CampaignOptions::default() };
    let mut sink = NdjsonSink::new(FlushlessWriter(Vec::new()));
    let err =
        run_campaign_streamed(&source, &opts, &mut sink).expect_err("flush error must surface");
    assert_eq!(err.to_string(), "device gone at flush");
    // Every line was still written before the flush failed.
    let text = String::from_utf8(sink.into_inner().0).expect("NDJSON is UTF-8");
    assert_eq!(text.lines().count(), specs.len());
}

/// Splits `0..len` into the chunked claim order `workers` round-robin
/// workers would produce, then folds each worker's subtotal first — the
/// per-worker reduction shape — and finally merges worker subtotals in a
/// seed-shuffled order.
fn chunked_shuffled_sum(
    values: &[u128],
    chunk: usize,
    workers: usize,
    mut seed: u64,
) -> EnergyQuanta {
    let mut per_worker = vec![EnergyQuanta::ZERO; workers];
    for (c, slice) in values.chunks(chunk).enumerate() {
        for &v in slice {
            per_worker[c % workers] += EnergyQuanta::new(v);
        }
    }
    // Fisher–Yates on the worker subtotals with a tiny LCG: the merge
    // order the condvar wakeups happen to produce is arbitrary.
    for i in (1..per_worker.len()).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        per_worker.swap(i, j);
    }
    let mut total = EnergyQuanta::ZERO;
    for sub in per_worker {
        total += sub;
    }
    total
}

proptest! {
    /// Energy quanta totals are order-independent by construction: any
    /// per-worker chunked reduction, merged in any order, equals the
    /// strict index-order fold the drain point performs. (This is the
    /// property that lets the engine fold totals at the drain without
    /// waiting for stragglers; the f64 error mean is order-sensitive and
    /// is therefore *only* ever folded in index order.)
    #[test]
    fn shuffled_per_worker_quanta_reduction_matches_index_order(
        raw in prop::collection::vec(any::<u64>(), 1..80),
        chunk in 1usize..20,
        workers in 1usize..9,
        seed: u64,
    ) {
        let values: Vec<u128> = raw.iter().map(|&v| u128::from(v)).collect();
        let mut index_order = EnergyQuanta::ZERO;
        for &v in &values {
            index_order += EnergyQuanta::new(v);
        }
        let shuffled = chunked_shuffled_sum(&values, chunk, workers, seed);
        prop_assert_eq!(index_order, shuffled);
    }
}
