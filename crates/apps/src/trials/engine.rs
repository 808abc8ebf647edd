//! The streaming campaign engine: chunked work stealing over a
//! [`SpecSource`], crash-isolated trials, and the bounded reorder window
//! that drains results to a [`TrialSink`] in index order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use super::{SpecSource, TrialResult, TrialSink, TrialSpec, VecSink};
use crate::harness;
use crate::qos::output_error;
use crate::recovery;
use enerj_hw::energy::EnergyQuantaBreakdown;
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::FaultCounters;

/// The default worker count: the machine's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How to run a campaign: worker count, chunking, telemetry switches.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads (`0` means the machine's available parallelism).
    pub threads: usize,
    /// Collect the structured fault log on every trial (the per-kind
    /// counters are always collected). Never changes trial outcomes.
    pub log_events: bool,
    /// Print live progress (trials done, panics, ETA) on stderr.
    pub progress: bool,
    /// Trial indices a worker claims per work-stealing grab (`0` = auto:
    /// sized so each worker claims ~8 chunks, clamped to `1..=64`). Purely
    /// a throughput/memory knob — every trial is a pure function of its
    /// spec, so chunking can never change outcomes or aggregates.
    pub chunk: usize,
}

impl CampaignOptions {
    /// Options with an explicit thread count and telemetry off.
    pub fn with_threads(threads: usize) -> Self {
        CampaignOptions { threads, ..CampaignOptions::default() }
    }
}

/// Live progress meter shared across workers, updated once per *chunk* so
/// the shared counters never contend in the per-trial hot path. Printing
/// is throttled to ~20 updates per campaign and never touches trial state.
struct Progress {
    enabled: bool,
    total: usize,
    every: usize,
    done: AtomicUsize,
    panics: AtomicUsize,
    start: Instant,
}

impl Progress {
    fn new(total: usize, enabled: bool, start: Instant) -> Self {
        Progress {
            enabled,
            total,
            every: (total / 20).max(1),
            done: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
            start,
        }
    }

    /// Records a finished chunk of `done_now` trials, `panics_now` of which
    /// panicked. With progress disabled this is a branch and nothing else.
    fn tick_chunk(&self, done_now: usize, panics_now: usize) {
        if !self.enabled || done_now == 0 {
            return;
        }
        if panics_now > 0 {
            self.panics.fetch_add(panics_now, Ordering::Relaxed);
        }
        let done = self.done.fetch_add(done_now, Ordering::Relaxed) + done_now;
        let before = done - done_now;
        // Print when the chunk crossed a reporting boundary (or finished).
        if done / self.every == before / self.every && done != self.total {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = if done == 0 { 0.0 } else { elapsed / done as f64 * (self.total - done) as f64 };
        eprintln!(
            "campaign: {done}/{} trials, {} panic(s), ETA {eta:.1}s",
            self.total,
            self.panics.load(Ordering::Relaxed),
        );
    }
}

/// Runs one trial, catching panics from fault-corrupted executions. A
/// recovery-enabled spec runs under its policy's protocol, which already
/// contains app panics and watchdog trips per attempt — there the
/// `catch_unwind` only guards against harness bugs (a panicking checker or
/// QoS metric). Either way a caught panic scores as [`TrialResult::crashed`].
fn run_trial(index: usize, spec: &TrialSpec, log_events: bool) -> TrialResult {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut trial = TrialResult::new(index, spec);
        match &spec.recovery {
            None => {
                let m = harness::measure_with_telemetry(&spec.app, spec.cfg, spec.seed, log_events);
                let output = trial.charge(m);
                if let Some(reference) = &spec.reference {
                    trial.error = output_error(spec.app.meta.metric, reference, &output);
                }
                trial.output = spec.keep_output.then_some(output);
            }
            Some(policy) => recovery::run_with_recovery(&mut trial, spec, policy, log_events),
        }
        trial
    }));
    let wall = start.elapsed();
    match outcome {
        Ok(trial) => TrialResult { wall, ..trial },
        Err(payload) => {
            TrialResult::crashed(index, spec, wall, enerj_core::panic_message(payload.as_ref()))
        }
    }
}

/// A campaign's aggregate outcome, accumulated at the reorder buffer's
/// drain point in strict index order — bit-identical to post-hoc
/// aggregation over the trial vector, at O(1) memory. This is the only
/// place campaign totals are computed; a
/// [`CampaignReport`](super::CampaignReport) carries it.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Trials run.
    pub trials: usize,
    /// Mean output error, summed in trial-index order (0.0 when empty).
    pub mean_error: f64,
    /// Trials that panicked.
    pub panics: usize,
    /// Trials whose accepted output came from an escalation rung.
    pub recovered: usize,
    /// Statistics of all non-panicked trials, merged in trial order.
    pub merged_stats: Stats,
    /// Exact energy totals over every trial.
    pub energy_quanta: EnergyQuantaBreakdown,
    /// Per-kind fault counters merged over all trials.
    pub fault_totals: FaultCounters,
    /// Total energy charged to rejected recovery attempts, in exact quanta.
    pub recovery_energy_overhead_quanta: EnergyQuanta,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Chunk size used (after auto-resolution). Not in the report: 0 when
    /// read back by [`CampaignReport::from_json`](super::CampaignReport::from_json),
    /// as are the two fields below.
    pub chunk: usize,
    /// High-water mark of undelivered results — parked in the reorder
    /// window or in the serving worker's batch — counting the one being
    /// inserted: 1 at one thread, where every push lands on the drain
    /// cursor and is delivered at once (0 only for a campaign that ran no
    /// trial). Always ≤ `buffer_capacity`, since backpressure admits only
    /// indices below `delivered + buffer_capacity`.
    pub peak_buffered: usize,
    /// The reorder buffer's capacity bound: `2 × threads × chunk`.
    pub buffer_capacity: usize,
}

/// Running totals, folded at the drain point in index order.
pub(super) struct Totals {
    error_sum: f64,
    count: usize,
    panics: usize,
    recovered: usize,
    merged_stats: Stats,
    energy: EnergyQuantaBreakdown,
    faults: FaultCounters,
    overhead: EnergyQuanta,
}

impl Totals {
    pub(super) fn new() -> Self {
        Totals {
            error_sum: 0.0,
            count: 0,
            panics: 0,
            recovered: 0,
            merged_stats: Stats::new(),
            energy: EnergyQuantaBreakdown::ZERO,
            faults: FaultCounters::new(),
            overhead: EnergyQuanta::ZERO,
        }
    }

    /// Folds one trial in. Callers guarantee index order; the f64 error sum
    /// is the only order-sensitive total (the quanta are associative).
    pub(super) fn accept(&mut self, t: &TrialResult) {
        self.error_sum += t.error;
        self.count += 1;
        if t.panicked() {
            self.panics += 1;
        } else {
            self.merged_stats.merge(&t.stats);
        }
        if t.recovered() {
            self.recovered += 1;
        }
        self.energy.merge(&t.energy_quanta);
        self.faults.merge(&t.fault_counts);
        self.overhead += t.recovery_energy_overhead_quanta;
    }

    pub(super) fn into_summary(
        self,
        wall: Duration,
        threads: usize,
        chunk: usize,
        peak_buffered: usize,
        buffer_capacity: usize,
    ) -> CampaignSummary {
        CampaignSummary {
            trials: self.count,
            mean_error: if self.count == 0 { 0.0 } else { self.error_sum / self.count as f64 },
            panics: self.panics,
            recovered: self.recovered,
            merged_stats: self.merged_stats,
            energy_quanta: self.energy,
            fault_totals: self.faults,
            recovery_energy_overhead_quanta: self.overhead,
            wall,
            threads,
            chunk,
            peak_buffered,
            buffer_capacity,
        }
    }
}

/// The chunk size a campaign actually runs with: explicit when nonzero,
/// otherwise sized so each worker claims ~8 chunks (decent balance without
/// per-trial claiming), clamped to `1..=64`. Deterministic in (len,
/// threads) — though chunking never affects outcomes anyway.
fn resolve_chunk(requested: usize, len: usize, threads: usize) -> usize {
    if requested != 0 {
        requested
    } else {
        (len / (threads * 8).max(1)).clamp(1, 64)
    }
}

/// The bounded reorder window between workers and the sink.
///
/// Workers insert completed trials at their index. The sink is fed *in
/// index order* by one worker at a time, the **server**, and never under
/// the window lock, so the other workers keep inserting and running trials
/// while it serializes and writes:
///
/// * An insert that extends the filled prefix (the ready results at the
///   front of the window) while nobody serves becomes the server. An
///   insert that finds a server running returns at once; the server picks
///   its result up on its next pass.
/// * The server loops: it takes at most `chunk` ready results out of the
///   window, releases the window lock, folds [`Totals`] and calls the sink
///   for each in index order (under the drain lock, which only the server
///   takes), then re-locks the window, advances `delivered` and wakes any
///   blocked inserter. It stops when the prefix is empty.
/// * An insert whose index is at least `capacity` ahead of `delivered`
///   blocks (backpressure), which is what bounds peak result memory to
///   O(threads × chunk).
///
/// Deadlock-free because of one invariant, kept under the window lock:
/// *a non-empty filled prefix (ready slots, or results the server has taken
/// but not yet delivered) implies someone is serving.* The server waits on
/// nothing but the two locks, and never holds one while taking the other.
/// Consider the lowest index not yet inserted, `g`. Everything below it is
/// in the filled prefix or delivered, so the server delivers up to `g` and
/// wakes `g`'s owner if backpressure blocked it. The owner inserts its
/// chunk in order, so `g` is its next index; if it is the server, it stops
/// serving once the prefix up to its own gap `g` is delivered; and a
/// [`ScheduledSource`](crate::scheduler::ScheduledSource) may block its
/// `spec(g)` only until trials strictly below `g` reach the sink — which
/// the server guarantees. So `g` is always inserted, and by induction every
/// trial is.
///
/// That argument assumes every worker survives to publish its claimed
/// slots. A worker that dies *between* claiming a chunk and pushing all of
/// its indices (a panicking [`SpecSource`], a panicking sink, a harness bug
/// — app panics are already contained per trial) would leave a permanent
/// gap or a server that never returns, wedging every other worker in
/// [`push`](Self::push) forever. Each worker therefore holds a
/// [`PoisonOnUnwind`] guard that flags the window dead
/// ([`poison`](Self::poison)) as the dying thread unwinds: blocked
/// inserters wake, observe the flag, and panic with a diagnostic instead of
/// blocking — the campaign fails fast and the original panic propagates
/// through the thread scope.
struct Reorder<'a> {
    window: Mutex<Window>,
    space: Condvar,
    drain: Mutex<Drain<'a>>,
    capacity: usize,
    chunk: usize,
}

/// The reorder window's shared state: everything workers touch on insert.
struct Window {
    /// Slots for indices `head ..`; `None` = still running.
    slots: VecDeque<Option<TrialResult>>,
    /// Index of `slots[0]`; `head - delivered` results are with the server.
    head: usize,
    /// Ready results at the front of `slots`: the end of the filled prefix
    /// is `head + ready`.
    ready: usize,
    /// Trials the sink has received; backpressure counts from here.
    delivered: usize,
    /// A worker is feeding the sink (the invariant above).
    serving: bool,
    /// The server's batch, parked here between passes so it is allocated
    /// once per campaign.
    batch: Vec<TrialResult>,
    /// Workers blocked on backpressure; the server notifies only if any.
    waiting: usize,
    /// Undelivered results, and the campaign-wide high-water mark.
    buffered: usize,
    peak: usize,
    /// A worker died before publishing its claimed slots; the drain can
    /// never complete. Set via [`Reorder::poison`], observed by every
    /// blocked or arriving [`Reorder::push`].
    poisoned: bool,
}

/// The drain side, taken only by the serving worker.
struct Drain<'a> {
    totals: Totals,
    sink: &'a mut dyn TrialSink,
    sink_error: Option<std::io::Error>,
}

impl Reorder<'_> {
    fn new(sink: &mut dyn TrialSink, capacity: usize, chunk: usize) -> Reorder<'_> {
        Reorder {
            window: Mutex::new(Window {
                slots: VecDeque::new(),
                head: 0,
                ready: 0,
                delivered: 0,
                serving: false,
                batch: Vec::new(),
                waiting: 0,
                buffered: 0,
                peak: 0,
                poisoned: false,
            }),
            space: Condvar::new(),
            drain: Mutex::new(Drain { totals: Totals::new(), sink, sink_error: None }),
            capacity,
            chunk,
        }
    }

    /// Marks the window dead after a worker failed to complete its claimed
    /// indices, and wakes every blocked inserter so the drain errors out
    /// instead of waiting forever on slots that will never fill. Tolerates
    /// a poisoned mutex: the flag must get through even when the dying
    /// worker panicked while another thread held the lock.
    fn poison(&self) {
        match self.window.lock() {
            Ok(mut g) => g.poisoned = true,
            Err(mut e) => e.get_mut().poisoned = true,
        }
        self.space.notify_all();
    }

    fn push(&self, index: usize, result: TrialResult) {
        let mut w = self.window.lock().expect("unpoisoned reorder window");
        while !w.poisoned && index >= w.delivered + self.capacity {
            w.waiting += 1;
            w = self.space.wait(w).expect("unpoisoned reorder window");
            w.waiting -= 1;
        }
        assert!(
            !w.poisoned,
            "campaign worker died before completing its chunk; \
             reorder window poisoned to unblock the drain"
        );
        let offset = index - w.head;
        if w.slots.len() <= offset {
            w.slots.resize_with(offset + 1, || None);
        }
        debug_assert!(w.slots[offset].is_none(), "trial {index} inserted twice");
        w.slots[offset] = Some(result);
        w.buffered += 1;
        w.peak = w.peak.max(w.buffered);
        if offset != w.ready {
            return;
        }
        while matches!(w.slots.get(w.ready), Some(Some(_))) {
            w.ready += 1;
        }
        if w.serving {
            return;
        }
        w.serving = true;
        loop {
            let n = w.ready.min(self.chunk);
            let mut batch = std::mem::take(&mut w.batch);
            batch.extend(w.slots.drain(..n).map(|s| s.expect("prefix slots are ready")));
            w.ready -= n;
            w.head += n;
            drop(w);
            self.deliver(&mut batch);
            w = self.window.lock().expect("unpoisoned reorder window");
            w.batch = batch;
            w.delivered += n;
            w.buffered -= n;
            if w.waiting > 0 {
                self.space.notify_all();
            }
            if w.ready == 0 {
                w.serving = false;
                return;
            }
        }
    }

    /// Folds and sinks `batch` in index order, leaving it empty. Only the
    /// server calls this, outside the window lock.
    fn deliver(&self, batch: &mut Vec<TrialResult>) {
        let mut d = self.drain.lock().expect("unpoisoned reorder drain");
        let d = &mut *d;
        for t in batch.drain(..) {
            d.totals.accept(&t);
            if d.sink_error.is_none() {
                if let Err(e) = d.sink.accept(t) {
                    d.sink_error = Some(e);
                }
            }
        }
    }
}

/// Poisons the reorder window if a worker unwinds before completing its
/// claimed chunk — a harness-level failure (e.g. a panicking
/// [`SpecSource`]; app panics are contained per trial and never reach
/// here), which would otherwise leave the other workers blocked forever on
/// the dead worker's undelivered slots.
struct PoisonOnUnwind<'a, 'b>(&'a Reorder<'b>);

impl Drop for PoisonOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Runs `campaign` into a [`VecSink`] and returns the collected trials with
/// the campaign's own result — the one place the in-memory sink's
/// infallibility is relied on.
pub(crate) fn collect_in_memory<T>(
    campaign: impl FnOnce(&mut dyn TrialSink) -> std::io::Result<T>,
) -> (Vec<TrialResult>, T) {
    let mut sink = VecSink::default();
    let outcome = campaign(&mut sink).expect("the in-memory sink cannot fail");
    (sink.trials, outcome)
}

/// The streaming campaign engine: runs every trial of `source`, drains
/// completed results in index order to `sink`, and returns the aggregate
/// [`CampaignSummary`].
///
/// The sink is called by one worker at a time — whichever worker found the
/// drain idle when it completed the next trial in line — in batches of at
/// most `chunk` results and outside the reorder window's lock, so the other
/// workers keep running trials while it serializes and writes. With one
/// thread every call happens on the caller's thread.
///
/// Peak result memory is bounded by the reorder window (`2 × threads ×
/// chunk` undelivered results), independent of campaign length. All
/// outcomes and aggregates are bit-identical for any thread count, chunk
/// size and sink — each trial is a pure function of its spec, and
/// aggregation happens in index order at the drain point.
///
/// # Errors
///
/// Returns the first error the sink reported. The campaign still runs to
/// completion (every trial executes and aggregates), but trials after the
/// error are not delivered to the sink.
pub fn run_campaign_streamed<S: SpecSource + ?Sized>(
    source: &S,
    opts: &CampaignOptions,
    sink: &mut dyn TrialSink,
) -> std::io::Result<CampaignSummary> {
    let start = Instant::now();
    let len = source.len();
    let threads = if opts.threads == 0 { default_threads() } else { opts.threads };
    let threads = threads.min(len).max(1);
    let chunk = resolve_chunk(opts.chunk, len, threads);
    let capacity = threads.saturating_mul(chunk).saturating_mul(2).max(chunk + 1);
    let progress = Progress::new(len, opts.progress, start);
    let log_events = opts.log_events;

    let reorder = Reorder::new(sink, capacity, chunk);
    let next = AtomicUsize::new(0);
    let worker = || {
        // If this worker dies mid-chunk (harness bug), poison the window so
        // the other workers fail fast instead of waiting forever on slots
        // that will never fill.
        let _poison_guard = PoisonOnUnwind(&reorder);
        loop {
            // One atomic op claims a whole chunk of indices.
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= len {
                break;
            }
            let hi = (lo + chunk).min(len);
            let mut panics = 0usize;
            for i in lo..hi {
                let r = run_trial(i, &source.spec(i), log_events);
                if r.panicked() {
                    panics += 1;
                }
                reorder.push(i, r);
            }
            progress.tick_chunk(hi - lo, panics);
        }
    };
    if threads == 1 {
        // A lone worker runs on the caller's thread. Its every push lands on
        // the drain cursor, so it never blocks and serves its own result.
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let window = reorder.window.into_inner().expect("unpoisoned reorder window");
    debug_assert!(window.delivered == len, "every trial must have drained");
    let mut drain = reorder.drain.into_inner().expect("unpoisoned reorder drain");
    if drain.sink_error.is_none() {
        if let Err(e) = drain.sink.flush() {
            drain.sink_error = Some(e);
        }
    }
    match drain.sink_error {
        Some(e) => Err(e),
        None => {
            Ok(drain.totals.into_summary(start.elapsed(), threads, chunk, window.peak, capacity))
        }
    }
}
