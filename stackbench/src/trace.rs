//! Tracing: timing wrappers around the engine's two public extension points
//! (`SpecSource`, `TrialSink`), and the per-layer metrics derived from them
//! and from what the engine already returns (`TrialResult`,
//! `CampaignSummary`). Spans are summed in memory and reduced once the
//! traced campaigns end; nothing here changes a trial's inputs or outcome.

use std::borrow::Cow;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use enerj_apps::trials::{CampaignSummary, SpecSource, TrialResult, TrialSink, TrialSpec};
use enerj_hw::OpKind;

use crate::{References, Report, SAMPLE_EVERY};

/// The `q`-quantile of `values` by nearest rank (0 for an empty set).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times every `spec` call of the wrapped source — for a scheduled source
/// that includes the wait for the epoch's table.
pub struct TimedSource<'a, S: ?Sized> {
    inner: &'a S,
    spec_ns: AtomicU64,
}

impl<'a, S: SpecSource + ?Sized> TimedSource<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        TimedSource { inner, spec_ns: AtomicU64::new(0) }
    }
}

impl<S: SpecSource + ?Sized> SpecSource for TimedSource<'_, S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn spec(&self, index: usize) -> Cow<'_, TrialSpec> {
        let start = Instant::now();
        let mut spec = self.inner.spec(index);
        self.spec_ns.fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
        // The sampled trials keep their output so the sink can time QoS
        // scoring; keeping an output never changes a trial.
        if index.is_multiple_of(SAMPLE_EVERY) && !spec.keep_output {
            spec.to_mut().keep_output = true;
        }
        spec
    }
}

/// Per-layer counters summed over one or more traced campaigns.
#[derive(Default)]
pub struct Trace {
    walls_ns: Vec<u64>,
    ops: u64,
    faults: u64,
    attempts: u64,
    panics: u64,
    energy: u128,
    overhead: u128,
    score_ns: u64,
    scored: u64,
    accept_ns: u64,
    spec_ns: u64,
    /// Σ threads × campaign wall.
    thread_ns: f64,
    reorder_peak: usize,
    reorder_capacity: usize,
}

impl Trace {
    /// Folds in a finished campaign's source timing and engine summary.
    pub fn end_campaign<S: SpecSource + ?Sized>(
        &mut self,
        source: &TimedSource<'_, S>,
        summary: &CampaignSummary,
    ) {
        self.spec_ns += source.spec_ns.load(Ordering::Relaxed);
        self.thread_ns += summary.threads as f64 * summary.wall.as_nanos() as f64;
        self.reorder_peak = self.reorder_peak.max(summary.peak_buffered);
        self.reorder_capacity = self.reorder_capacity.max(summary.buffer_capacity);
    }

    /// Reports the `hw` counts and the `trial`, `engine`, `sched` (claim
    /// wait) and `recovery` metrics.
    pub fn report(&self, report: &mut Report) {
        let trials = self.walls_ns.len().max(1) as f64;
        let trial_ns: u64 = self.walls_ns.iter().sum();
        let mut walls_us: Vec<f64> = self.walls_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let thread_ns = self.thread_ns.max(1.0);
        let busy_ns = trial_ns as f64 + self.spec_ns as f64 + self.accept_ns as f64;
        report.set("hw.ops_per_trial", self.ops as f64 / trials, "op/trial");
        report.set("hw.faults_per_trial", self.faults as f64 / trials, "fault/trial");
        report.set("trial.run_us.p50", quantile(&mut walls_us, 0.5), "us");
        report.set("trial.run_us.p90", quantile(&mut walls_us, 0.9), "us");
        report.set("trial.ns_per_op", trial_ns as f64 / self.ops.max(1) as f64, "ns");
        report.set("trial.score_us", self.score_ns as f64 / 1e3 / self.scored.max(1) as f64, "us");
        report.set("trial.panics", self.panics as f64, "count");
        report.set("engine.spec_us_per_trial", self.spec_ns as f64 / 1e3 / trials, "us");
        report.set("engine.accept_us_per_trial", self.accept_ns as f64 / 1e3 / trials, "us");
        report.set("engine.overhead_us_per_trial", (thread_ns - busy_ns) / 1e3 / trials, "us");
        report.set("engine.busy_share", trial_ns as f64 / thread_ns, "fraction");
        report.set("engine.reorder_peak", self.reorder_peak as f64, "count");
        report.set("engine.reorder_capacity", self.reorder_capacity as f64, "count");
        report.set("sched.claim_wait_share", self.spec_ns as f64 / thread_ns, "fraction");
        // No budget unless the workload holds one and reports its share.
        report.set("sched.budget_spent_frac", 0.0, "fraction");
        report.set("recovery.attempts_per_trial", self.attempts as f64 / trials, "attempt/trial");
        report.set(
            "recovery.useful_ratio",
            self.walls_ns.len() as f64 / self.attempts.max(1) as f64,
            "fraction",
        );
        report.set(
            "recovery.overhead_quanta_frac",
            self.overhead as f64 / self.energy.max(1) as f64,
            "fraction",
        );
    }

    /// Reports the `sink` metrics of the traced campaigns, whose sink wrote
    /// through the [`TimedWriter`]s summed in `writes`.
    pub fn report_sink(&self, writes: &SinkTrace, report: &mut Report) {
        writes.report(self.accept_ns, self.walls_ns.len(), report);
    }
}

/// Records what each trial reports about itself (wall, ops, faults,
/// attempts), times QoS scoring on the sampled trials, and times the wrapped
/// sink's `accept` — the engine's drain-side work.
pub struct TimedSink<'a> {
    inner: &'a mut dyn TrialSink,
    references: &'a References,
    trace: &'a mut Trace,
}

impl<'a> TimedSink<'a> {
    pub fn new(
        inner: &'a mut dyn TrialSink,
        references: &'a References,
        trace: &'a mut Trace,
    ) -> Self {
        TimedSink { inner, references, trace }
    }
}

impl TrialSink for TimedSink<'_> {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        let t = &mut *self.trace;
        t.walls_ns.push(nanos(trial.wall));
        t.ops += trial.stats.total_ops(OpKind::Int) + trial.stats.total_ops(OpKind::Fp);
        t.faults += trial.fault_counts.total_injections();
        t.attempts += u64::from(trial.attempts);
        t.panics += u64::from(trial.panicked());
        t.energy += trial.energy_quanta.total.get();
        t.overhead += trial.recovery_energy_overhead_quanta.get();
        if trial.index.is_multiple_of(SAMPLE_EVERY) {
            if let Some(output) = &trial.output {
                let start = Instant::now();
                if black_box(self.references.score(trial.app, output)).is_some() {
                    t.score_ns += nanos(start.elapsed());
                    t.scored += 1;
                }
            }
        }
        let start = Instant::now();
        let result = self.inner.accept(trial);
        self.trace.accept_ns += nanos(start.elapsed());
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Times the `write` calls of the writer it wraps and counts their bytes.
/// Given to a sink in place of its writer (`NdjsonSink::new(TimedWriter::
/// new(out))`), it splits the sink's timed `accept` into the write and,
/// as the rest, serialization — measured on the sink itself.
#[derive(Default)]
pub struct TimedWriter<W> {
    inner: W,
    write_ns: u64,
    bytes: u64,
}

impl<W> TimedWriter<W> {
    pub fn new(inner: W) -> Self {
        TimedWriter { inner, write_ns: 0, bytes: 0 }
    }
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let written = self.inner.write(buf);
        self.write_ns += nanos(start.elapsed());
        if let Ok(n) = written {
            self.bytes += n as u64;
        }
        written
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The writes of one or more [`TimedWriter`]s.
#[derive(Default)]
pub struct SinkTrace {
    write_ns: u64,
    bytes: u64,
}

impl SinkTrace {
    pub fn add<W>(&mut self, writer: &TimedWriter<W>) {
        self.write_ns += writer.write_ns;
        self.bytes += writer.bytes;
    }

    /// Reports the `sink` metrics of `lines` accepts that took `accept_ns`
    /// in all and wrote through the writers added here.
    pub fn report(&self, accept_ns: u64, lines: usize, report: &mut Report) {
        let lines = lines.max(1) as f64;
        let serialize_ns = accept_ns.saturating_sub(self.write_ns);
        report.set("sink.serialize_us_per_trial", serialize_ns as f64 / 1e3 / lines, "us");
        report.set("sink.write_us_per_trial", self.write_ns as f64 / 1e3 / lines, "us");
        report.set("sink.bytes_per_trial", self.bytes as f64 / lines, "B");
    }
}
