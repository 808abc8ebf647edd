//! Parallel, crash-isolated trial campaigns.
//!
//! Every figure in the paper's evaluation is a *campaign*: a batch of
//! independent simulated runs, each fully determined by an application, a
//! hardware configuration and a fault seed. One engine runs every such
//! batch ([`run_campaign_streamed`]) with two guarantees the naive serial
//! loops could not give:
//!
//! * **Determinism.** Each trial's seed is fixed up front in its
//!   [`TrialSpec`], every trial builds its own [`Runtime`](enerj_core::Runtime)
//!   (fault PRNG state is per-run, never shared), and aggregation happens
//!   in trial-index order at the drain point. Results are therefore
//!   bit-identical for any thread count, one thread included.
//! * **Crash isolation.** A fault-injected run can panic — an endorsed
//!   index goes out of bounds, a corrupted loop bound overflows. The paper
//!   treats a crashed run as producing worst-case output, so each trial
//!   body runs under [`catch_unwind`]; a panic scores output error 1.0,
//!   contributes nothing to the merged statistics, and is recorded in the
//!   trial's [`panic`](TrialResult::panic) field instead of killing the
//!   campaign.
//!
//! A spec may also carry a [`recovery::Policy`]: the trial then runs under
//! the watchdog/check/retry protocol of the [`recovery`] module, its
//! energy and statistics summed over every attempt, with the attempt
//! count, escalation outcome and failure causes recorded on the
//! [`TrialResult`]. Recovery uses per-trial fixed retry seeds, so
//! recovery-enabled campaigns keep the bit-identical-at-any-thread-count
//! guarantee.
//!
//! The engine is built for million-trial scale:
//!
//! * **Lazy specs.** A campaign's trials come from a [`SpecSource`] — an
//!   indexed generator ([`SpecFn`]) or a plain slice — so protocol-level
//!   campaigns ([`run_level_campaign`], the tuner) never materialize a
//!   spec vector; spec memory is O(1) per worker.
//! * **Chunked work stealing.** Workers claim contiguous blocks of trial
//!   indices with one atomic op per chunk ([`CampaignOptions::chunk`],
//!   default auto) instead of one per trial.
//! * **Bounded-memory result streaming.** Completed [`TrialResult`]s pass
//!   through a reorder buffer that drains them *in index order* to a
//!   pluggable [`TrialSink`] — an in-memory vector ([`VecSink`], behind
//!   [`CampaignReport::collect`]), an NDJSON writer ([`NdjsonSink`]) or
//!   nothing at all ([`NullSink`]) for campaign-scale runs — so peak result
//!   memory is O(threads × chunk) instead of O(trials). The
//!   [`CampaignSummary`] aggregates accumulate at the drain point, in index
//!   order, which keeps every total bit-identical at any thread count;
//!   exact integer [`EnergyQuanta`] totals would be order-independent
//!   anyway.
//!
//! A [`CampaignReport`] is the in-memory view: every [`TrialResult`] (errors,
//! [`Stats`], [`EnergyBreakdown`]s and exact [`EnergyQuantaBreakdown`]s,
//! fault telemetry — [`FaultCounters`] plus opt-in structured
//! [`FaultEvent`] logs — and wall-clock times) next to the drain's
//! [`CampaignSummary`]. It serializes to JSON (`schema: "enerj-campaign/5"`)
//! for the bench binaries' `results/BENCH_*.json` reports, and its fault log
//! exports as NDJSON via [`CampaignReport::write_fault_log`]. Campaigns can
//! also report live progress (trials done, panics, ETA) on stderr; progress
//! updates are batched per chunk so the meter never contends in the trial
//! hot path.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::harness::{self, FAULT_SEED_BASE};
use crate::qos::{output_error, Output};
use crate::recovery;
use crate::App;
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::{EnergyBreakdown, EnergyQuantaBreakdown};
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::trace::FaultEvent;
use enerj_hw::FaultCounters;

/// One fully determined trial: an app, a hardware configuration, a seed.
#[derive(Clone)]
pub struct TrialSpec {
    /// The application to run.
    pub app: App,
    /// Free-form grouping label (typically the level or strategy name).
    pub label: String,
    /// Hardware configuration for this run.
    pub cfg: HwConfig,
    /// Fault seed (the serial loops use `FAULT_SEED_BASE ^ i`).
    pub seed: u64,
    /// Reference output to score against; `None` records error 0.0 and is
    /// how reference-collection campaigns are expressed.
    pub reference: Option<Arc<Output>>,
    /// Keep the trial's output in the result (reference campaigns need it;
    /// large fault campaigns usually don't).
    pub keep_output: bool,
    /// When set, the trial runs under QoS-guarded recovery: watchdog,
    /// reference-free output check, QoS threshold, and the policy's
    /// precision-escalation ladder on failure (see [`recovery`]).
    pub recovery: Option<recovery::Policy>,
    /// The precision level an online scheduler assigned this trial, when
    /// the spec was rewritten at claim time (see
    /// [`scheduler`](crate::scheduler)); copied verbatim onto the
    /// [`TrialResult`] and into the `/5` report. `None` for statically
    /// configured campaigns.
    pub scheduled_level: Option<String>,
}

impl TrialSpec {
    /// A fault-injection trial scored against `reference`.
    pub fn scored(
        app: &App,
        label: impl Into<String>,
        cfg: HwConfig,
        seed: u64,
        reference: Arc<Output>,
    ) -> Self {
        TrialSpec {
            app: app.clone(),
            label: label.into(),
            cfg,
            seed,
            reference: Some(reference),
            keep_output: false,
            recovery: None,
            scheduled_level: None,
        }
    }

    /// A reference (fault-free) trial that keeps its output.
    pub fn reference(app: &App) -> Self {
        TrialSpec {
            app: app.clone(),
            label: "reference".to_owned(),
            cfg: harness::reference_config(),
            seed: 0,
            reference: None,
            keep_output: true,
            recovery: None,
            scheduled_level: None,
        }
    }

    /// Runs this trial under `policy`'s recovery protocol.
    pub fn with_recovery(mut self, policy: recovery::Policy) -> Self {
        self.recovery = Some(policy);
        self
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Position in the campaign's spec list (aggregation order).
    pub index: usize,
    /// Application name.
    pub app: &'static str,
    /// The spec's grouping label.
    pub label: String,
    /// The fault seed used.
    pub seed: u64,
    /// Output error in `[0, 1]` against the spec's reference (0.0 when the
    /// spec had none; 1.0 when the trial panicked).
    pub error: f64,
    /// The trial's output, when the spec asked to keep it.
    pub output: Option<Output>,
    /// Operation and storage statistics (zeroed for panicked trials).
    pub stats: Stats,
    /// Normalized energy (pinned to the precise baseline, 1.0, for
    /// panicked trials — a crashed run saves nothing we can claim).
    pub energy: EnergyBreakdown,
    /// Exact integer energy (zeroed for panicked trials, matching their
    /// zeroed [`stats`](Self::stats)): scaled and baseline quanta per
    /// component. Campaign totals built from this field are bit-identical
    /// for any merge order or thread count.
    pub energy_quanta: EnergyQuantaBreakdown,
    /// Wall-clock time of this trial.
    pub wall: Duration,
    /// The panic payload, when the trial crashed.
    pub panic: Option<String>,
    /// Per-kind fault counters (zeroed for panicked trials, whose machine
    /// state is unrecoverable).
    pub fault_counts: FaultCounters,
    /// Structured fault events, when the campaign ran with
    /// [`CampaignOptions::log_events`] (empty otherwise, and for panicked
    /// trials).
    pub events: Vec<FaultEvent>,
    /// Executions this trial took: 1 without recovery (or when the first
    /// attempt passed), one extra per escalation rung tried.
    pub attempts: u32,
    /// The ladder rung whose output was accepted, when recovery was needed
    /// and succeeded (`None` for unrecovered or never-failed trials).
    pub recovered_at_level: Option<String>,
    /// Why each failed attempt was rejected, in attempt order (rendered
    /// [`recovery::FailureCause`]s; for plain trials, the panic cause when
    /// the trial crashed).
    pub failure_causes: Vec<String>,
    /// Energy charged to attempts whose output was *not* accepted — the
    /// price of recovery, already included in [`energy`](Self::energy).
    pub recovery_energy_overhead: f64,
    /// The same overhead in exact quanta, already included in
    /// [`energy_quanta`](Self::energy_quanta): the accounting identity
    /// `accepted-attempt energy + overhead == energy_quanta.total` holds
    /// exactly.
    pub recovery_energy_overhead_quanta: EnergyQuanta,
    /// The precision level the online scheduler assigned this trial
    /// (`None` for statically configured campaigns): copied from
    /// [`TrialSpec::scheduled_level`], preserved even when the trial
    /// panicked.
    pub scheduled_level: Option<String>,
}

impl TrialResult {
    /// A crashed trial, scored by the paper's protocol: a crashed run
    /// delivers worst-case quality (error 1.0) and claims no savings over
    /// the precise baseline (energy 1.0). Its statistics, quanta and fault
    /// telemetry are zeroed — the machine state is unrecoverable.
    fn crashed(index: usize, spec: &TrialSpec, wall: Duration, msg: String) -> Self {
        TrialResult {
            index,
            app: spec.app.meta.name,
            label: spec.label.clone(),
            seed: spec.seed,
            error: 1.0,
            output: None,
            stats: Stats::new(),
            energy: EnergyBreakdown { instructions: 1.0, sram: 1.0, dram: 1.0, total: 1.0 },
            energy_quanta: EnergyQuantaBreakdown::ZERO,
            wall,
            failure_causes: vec![format!("panic: {msg}")],
            panic: Some(msg),
            fault_counts: FaultCounters::new(),
            events: Vec::new(),
            attempts: 1,
            recovered_at_level: None,
            recovery_energy_overhead: 0.0,
            recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
            scheduled_level: spec.scheduled_level.clone(),
        }
    }

    /// Whether the trial crashed (and was scored worst-case). For
    /// recovery-enabled trials this means the *final* attempt panicked;
    /// a panic the ladder recovered from is in
    /// [`failure_causes`](Self::failure_causes) instead.
    pub fn panicked(&self) -> bool {
        self.panic.is_some()
    }

    /// Whether the accepted output came from an escalation rung.
    pub fn recovered(&self) -> bool {
        self.recovered_at_level.is_some()
    }
}

/// A campaign held in memory: every trial, in spec order, next to the
/// engine's drain-folded [`CampaignSummary`].
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-trial results, in spec order.
    pub trials: Vec<TrialResult>,
    /// The aggregates the engine folded at its drain point, in index order.
    pub summary: CampaignSummary,
    /// The per-campaign energy budget an online scheduler held, in metered
    /// quanta (`None` for unscheduled campaigns).
    pub budget_quanta: Option<EnergyQuanta>,
    /// Whether the metered spend ended at or under
    /// [`budget_quanta`](Self::budget_quanta) (`None` for unscheduled
    /// campaigns).
    pub budget_met: Option<bool>,
}

impl CampaignReport {
    /// Runs every trial of `source` through [`run_campaign_streamed`] into a
    /// [`VecSink`]. Campaigns too large to hold in memory should stream to
    /// an [`NdjsonSink`] instead.
    pub fn collect<S: SpecSource + ?Sized>(source: &S, opts: &CampaignOptions) -> Self {
        let (trials, summary) = collect_in_memory(|sink| run_campaign_streamed(source, opts, sink));
        CampaignReport { trials, summary, budget_quanta: None, budget_met: None }
    }

    /// Mean output error over the trials of one `(app, label)` group,
    /// summed in trial-index order. Empty groups score 0.0.
    pub fn mean_error_for(&self, app: &str, label: &str) -> f64 {
        let (mut total, mut n) = (0.0, 0u64);
        for t in self.trials_for(app, label) {
            total += t.error;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// The trials of one `(app, label)` group, in trial-index order.
    pub fn trials_for<'a>(
        &'a self,
        app: &'a str,
        label: &'a str,
    ) -> impl Iterator<Item = &'a TrialResult> {
        self.trials.iter().filter(move |t| t.app == app && t.label == label)
    }

    /// Serializes the report as a JSON object (`schema: "enerj-campaign/5"`,
    /// which adds the scheduler vocabulary — per-trial `scheduled_level`,
    /// campaign `budget_quanta`/`budget_met` — on top of `/4`'s exact
    /// integer quanta; the `/1`–`/4` schemas are superseded — see
    /// DESIGN.md).
    ///
    /// All `*_quanta` values are raw integers (no exponent notation), so a
    /// byte-level comparison of those fields across reports is an exact
    /// comparison of the underlying `u128` totals.
    pub fn to_json(&self) -> String {
        let sum = &self.summary;
        let mut out = String::with_capacity(256 + 1024 * self.trials.len());
        let _ = write!(
            out,
            "{{\"schema\":\"enerj-campaign/5\",\"threads\":{},\"wall_seconds\":{:.6}",
            sum.threads,
            sum.wall.as_secs_f64()
        );
        push_json_f64(&mut out, ",\"mean_error\":", sum.mean_error);
        let _ = write!(out, ",\"panics\":{},\"recovered\":{}", sum.panics, sum.recovered);
        let _ = match self.budget_quanta {
            Some(q) => write!(out, ",\"budget_quanta\":{q}"),
            None => write!(out, ",\"budget_quanta\":null"),
        };
        let _ = match self.budget_met {
            Some(met) => write!(out, ",\"budget_met\":{met}"),
            None => write!(out, ",\"budget_met\":null"),
        };
        let _ = write!(
            out,
            ",\"recovery_energy_overhead_quanta\":{}",
            sum.recovery_energy_overhead_quanta
        );
        push_energy_quanta(&mut out, ",\"energy_quanta\":", &sum.energy_quanta);
        push_stats(&mut out, ",\"merged_stats\":", &sum.merged_stats);
        push_counters(&mut out, ",\"fault_totals\":", &sum.fault_totals);
        out.push_str(",\"trials\":[");
        for (i, t) in self.trials.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_trial_json(&mut out, t);
        }
        out.push_str("]}");
        out
    }

    /// Writes [`to_json`](Self::to_json) (plus a trailing newline) to `path`,
    /// creating parent directories as needed.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Serializes the collected fault events as NDJSON: one object per
    /// injected fault, in trial-index then injection order. Empty unless
    /// the campaign ran with [`CampaignOptions::log_events`].
    pub fn fault_log_ndjson(&self) -> String {
        let mut out = String::new();
        for t in &self.trials {
            for e in &t.events {
                let _ = write!(out, "{{\"trial\":{}", t.index);
                push_json_string(&mut out, ",\"app\":", t.app);
                push_json_string(&mut out, ",\"label\":", &t.label);
                let _ = write!(out, ",\"seed\":{}", t.seed);
                push_json_f64(&mut out, ",\"time\":", e.time);
                // Fault kind names are plain ASCII words: nothing to escape.
                let _ = writeln!(
                    out,
                    ",\"unit\":\"{}\",\"width\":{},\"bits_flipped\":{}}}",
                    e.kind, e.width, e.bits_flipped
                );
            }
        }
        out
    }

    /// Writes [`fault_log_ndjson`](Self::fault_log_ndjson) to `path`,
    /// creating parent directories as needed.
    pub fn write_fault_log(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.fault_log_ndjson())
    }
}

/// One trial as a JSON object — the element type of the report's `trials`
/// array and the line format of [`NdjsonSink`] (one object per line, so a
/// streamed campaign's output is the report's trial array, un-bracketed).
pub fn trial_json(t: &TrialResult) -> String {
    let mut out = String::with_capacity(1024);
    write_trial_json(&mut out, t);
    out
}

/// Appends [`trial_json`]'s bytes to `out`, allocating nothing but `out`'s growth.
pub fn write_trial_json(out: &mut String, t: &TrialResult) {
    let _ = write!(out, "{{\"index\":{}", t.index);
    push_json_string(out, ",\"app\":", t.app);
    push_json_string(out, ",\"label\":", &t.label);
    let _ = write!(out, ",\"seed\":{}", t.seed);
    push_json_f64(out, ",\"error\":", t.error);
    let _ = write!(out, ",\"wall_seconds\":{:.6}", t.wall.as_secs_f64());
    push_json_opt_string(out, ",\"panic\":", t.panic.as_deref());
    let _ = write!(out, ",\"attempts\":{}", t.attempts);
    push_json_opt_string(out, ",\"recovered_at_level\":", t.recovered_at_level.as_deref());
    push_json_opt_string(out, ",\"scheduled_level\":", t.scheduled_level.as_deref());
    out.push_str(",\"failure_causes\":[");
    for (i, cause) in t.failure_causes.iter().enumerate() {
        push_json_string(out, if i == 0 { "" } else { "," }, cause);
    }
    out.push(']');
    push_json_f64(out, ",\"recovery_energy_overhead\":", t.recovery_energy_overhead);
    let _ =
        write!(out, ",\"recovery_energy_overhead_quanta\":{}", t.recovery_energy_overhead_quanta);
    push_stats(out, ",\"stats\":", &t.stats);
    push_json_f64(out, ",\"energy\":{\"instructions\":", t.energy.instructions);
    push_json_f64(out, ",\"sram\":", t.energy.sram);
    push_json_f64(out, ",\"dram\":", t.energy.dram);
    push_json_f64(out, ",\"total\":", t.energy.total);
    out.push('}');
    push_energy_quanta(out, ",\"energy_quanta\":", &t.energy_quanta);
    push_counters(out, ",\"fault_counts\":", &t.fault_counts);
    out.push('}');
}

/// `s` as a JSON string literal, quotes included: `"`, `\` and control
/// characters escaped, everything else verbatim.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, "", s);
    out
}

/// Formats an f64 for JSON. JSON has no NaN/Infinity literals, so they are
/// clamped to the error scale's ends.
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, "", x);
    out
}

// Each `push_*` writer appends `key`, the literal text before the value
// (such as `,"label":`), then the value's one JSON rendering.

fn push_json_string(out: &mut String, key: &str, s: &str) {
    out.push_str(key);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_opt_string(out: &mut String, key: &str, s: Option<&str>) {
    match s {
        Some(s) => push_json_string(out, key, s),
        None => out.extend([key, "null"]),
    }
}

fn push_json_f64(out: &mut String, key: &str, x: f64) {
    out.push_str(key);
    if x.is_nan() {
        out.push_str("1.0");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "1e308" } else { "-1e308" });
    } else {
        let _ = write!(out, "{x}");
    }
}

fn push_stats(out: &mut String, key: &str, s: &Stats) {
    let _ = write!(
        out,
        "{key}{{\"int_approx_ops\":{},\"int_precise_ops\":{},\"fp_approx_ops\":{},\
         \"fp_precise_ops\":{},\"sram_approx_quanta\":{},\
         \"sram_precise_quanta\":{},\"dram_approx_quanta\":{},\
         \"dram_precise_quanta\":{},\"faults_injected\":{}}}",
        s.int_approx_ops,
        s.int_precise_ops,
        s.fp_approx_ops,
        s.fp_precise_ops,
        s.sram_approx_quanta,
        s.sram_precise_quanta,
        s.dram_approx_quanta,
        s.dram_precise_quanta,
        s.faults_injected,
    );
}

fn push_energy_quanta(out: &mut String, key: &str, q: &EnergyQuantaBreakdown) {
    let _ = write!(
        out,
        "{key}{{\"instructions\":{},\"baseline_instructions\":{},\"sram\":{},\
         \"baseline_sram\":{},\"dram\":{},\"baseline_dram\":{},\"total\":{},\
         \"baseline_total\":{}}}",
        q.instructions,
        q.baseline_instructions,
        q.sram,
        q.baseline_sram,
        q.dram,
        q.baseline_dram,
        q.total,
        q.baseline_total,
    );
}

fn push_counters(out: &mut String, key: &str, c: &FaultCounters) {
    out.push_str(key);
    out.push('{');
    for (i, (kind, kc)) in c.per_kind().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{kind}\":{{\"injections\":{},\"bits_flipped\":{}}}",
            kc.injections, kc.bits_flipped
        );
    }
    out.push('}');
}

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How to run a campaign: worker count, chunking, telemetry switches.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads (`0` means [`default_threads`]).
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
    let outcome = catch_unwind(AssertUnwindSafe(|| match &spec.recovery {
        None => {
            let m = harness::measure_with_telemetry(&spec.app, spec.cfg, spec.seed, log_events);
            let error = match &spec.reference {
                Some(reference) => output_error(spec.app.meta.metric, reference, &m.output),
                None => 0.0,
            };
            TrialResult {
                index,
                app: spec.app.meta.name,
                label: spec.label.clone(),
                seed: spec.seed,
                error,
                output: spec.keep_output.then_some(m.output),
                stats: m.stats,
                energy: m.energy,
                energy_quanta: m.energy_quanta,
                wall: Duration::ZERO,
                panic: None,
                fault_counts: m.fault_counts,
                events: m.events,
                attempts: 1,
                recovered_at_level: None,
                failure_causes: Vec::new(),
                recovery_energy_overhead: 0.0,
                recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
                scheduled_level: spec.scheduled_level.clone(),
            }
        }
        Some(policy) => {
            let r = recovery::run_with_recovery(
                &spec.app,
                spec.cfg,
                spec.seed,
                policy,
                spec.reference.as_deref(),
                log_events,
            );
            // An unrecovered trial whose last attempt panicked keeps the
            // plain-trial contract: `panic` is set. Failures the ladder
            // recovered from live in `failure_causes` only.
            let panic = match (r.output.is_none(), r.failure_causes.last()) {
                (true, Some(recovery::FailureCause::Panic(msg))) => Some(msg.clone()),
                _ => None,
            };
            TrialResult {
                index,
                app: spec.app.meta.name,
                label: spec.label.clone(),
                seed: spec.seed,
                error: r.error,
                output: if spec.keep_output { r.output } else { None },
                stats: r.stats,
                energy: r.energy,
                energy_quanta: r.energy_quanta,
                wall: Duration::ZERO,
                panic,
                fault_counts: r.fault_counts,
                events: r.events,
                attempts: r.attempts,
                recovered_at_level: r.recovered_at.map(|rung| rung.to_string()),
                failure_causes: r.failure_causes.iter().map(|c| c.to_string()).collect(),
                recovery_energy_overhead: r.recovery_energy_overhead,
                recovery_energy_overhead_quanta: r.recovery_energy_overhead_quanta,
                scheduled_level: spec.scheduled_level.clone(),
            }
        }
    }));
    let wall = start.elapsed();
    match outcome {
        Ok(trial) => TrialResult { wall, ..trial },
        Err(payload) => {
            TrialResult::crashed(index, spec, wall, enerj_core::panic_message(payload.as_ref()))
        }
    }
}

/// An indexed source of trial specs: the campaign engine asks for the spec
/// of each index on demand, so sources can generate lazily (O(1) spec
/// memory) or borrow from a pre-built slice.
///
/// Workers call `spec(i)` from multiple threads, in arbitrary order, once
/// per index, immediately before running trial `i`. The returned spec must
/// be a *deterministic* function of `i` and of campaign state that is
/// itself deterministic at the moment of the call — for plain sources that
/// means a pure function of `i`; a scheduling source
/// ([`scheduler::ScheduledSource`](crate::scheduler::ScheduledSource)) may
/// additionally consult controller state derived from the drained trial
/// prefix, and may *block* until that prefix is long enough, provided it
/// only ever waits on trials with indices strictly below `i` (the engine
/// guarantees all lower indices are already claimed, and that an inserted
/// trial reaches the sink without waiting on any `spec` call, so such a
/// wait cannot deadlock).
pub trait SpecSource: Sync {
    /// Number of trials in the campaign.
    fn len(&self) -> usize;

    /// The spec for trial `index` (`index < len()`). Borrowed for slice
    /// sources, generated on the fly for lazy ones.
    fn spec(&self, index: usize) -> Cow<'_, TrialSpec>;

    /// Whether the campaign has no trials.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpecSource for [TrialSpec] {
    fn len(&self) -> usize {
        self.len()
    }

    fn spec(&self, index: usize) -> Cow<'_, TrialSpec> {
        Cow::Borrowed(&self[index])
    }
}

/// A lazy [`SpecSource`]: `len` trials whose specs are generated per index
/// by a pure function. This is how protocol campaigns
/// ([`run_level_campaign`], [`harness::mean_output_error_vs`],
/// the tuner) avoid materializing million-entry spec vectors.
pub struct SpecFn<F: Fn(usize) -> TrialSpec + Sync> {
    len: usize,
    generate: F,
}

impl<F: Fn(usize) -> TrialSpec + Sync> SpecFn<F> {
    /// A source of `len` trials with specs from `generate`.
    pub fn new(len: usize, generate: F) -> Self {
        SpecFn { len, generate }
    }
}

impl<F: Fn(usize) -> TrialSpec + Sync> SpecSource for SpecFn<F> {
    fn len(&self) -> usize {
        self.len
    }

    fn spec(&self, index: usize) -> Cow<'_, TrialSpec> {
        Cow::Owned((self.generate)(index))
    }
}

/// Where completed trials go. The engine calls `accept` exactly once per
/// trial, in strict index order, from the one worker currently serving the
/// reorder window's drain (hence `Send`): calls never overlap, but
/// successive batches may come from different worker threads, and no
/// engine lock is held during a call, so a slow sink costs the serving
/// worker only. A sink that errors does not abort the campaign —
/// remaining trials still run and aggregate — but the error is returned
/// from [`run_campaign_streamed`] and later trials are dropped instead of
/// delivered.
pub trait TrialSink: Send {
    /// Consumes the next trial (indices arrive as 0, 1, 2, …).
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()>;

    /// Flushes buffered output. The engine calls this exactly once per
    /// campaign, after the last delivered trial; an error surfaces as the
    /// campaign's `io::Result`, so a buffered sink can never silently lose
    /// its tail.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects every trial in memory — the sink behind
/// [`CampaignReport::collect`], O(trials) memory by design.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected trials, in index order.
    pub trials: Vec<TrialResult>,
}

impl TrialSink for VecSink {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        self.trials.push(trial);
        Ok(())
    }
}

/// Discards every trial (aggregates still accumulate in the summary) —
/// for campaigns that only need totals, e.g. mean-error sweeps.
#[derive(Debug, Default)]
pub struct NullSink;

impl TrialSink for NullSink {
    fn accept(&mut self, _trial: TrialResult) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams each trial as one JSON line ([`trial_json`]) — the
/// campaign-scale sink: a million-trial run needs disk, not memory.
#[derive(Debug)]
pub struct NdjsonSink<W: std::io::Write + Send> {
    out: W,
    /// The line being rendered, reused so a record allocates nothing.
    line: String,
}

impl<W: std::io::Write + Send> NdjsonSink<W> {
    /// Wraps a writer (buffer it — the engine writes one line per trial).
    pub fn new(out: W) -> Self {
        NdjsonSink { out, line: String::new() }
    }

    /// Unwraps the writer (flush it before reading the stream back).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write + Send> TrialSink for NdjsonSink<W> {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        self.line.clear();
        write_trial_json(&mut self.line, &trial);
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(&mut self.out)
    }
}

/// A campaign's aggregate outcome, accumulated at the reorder buffer's
/// drain point in strict index order — bit-identical to post-hoc
/// aggregation over the trial vector, at O(1) memory. This is the only
/// place campaign totals are computed; a [`CampaignReport`] carries it.
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
    /// Chunk size used (after auto-resolution).
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
struct Totals {
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
    fn new() -> Self {
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
    fn accept(&mut self, t: &TrialResult) {
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

    fn into_summary(
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

/// The Figure 5 protocol as one campaign: per app, a fault-free reference,
/// then `runs` fault-injection trials at each level (seeds
/// `FAULT_SEED_BASE ^ i`, labels the level names). References are
/// themselves collected in a campaign first, on `opts.threads` workers and
/// without the fault log or progress meter.
///
/// Specs are generated lazily per index ([`SpecFn`]) in the canonical
/// app → level → run order; only the per-app reference outputs are held.
pub fn run_level_campaign(
    apps: &[App],
    levels: &[Level],
    runs: u64,
    opts: &CampaignOptions,
) -> CampaignReport {
    let ref_specs: Vec<TrialSpec> = apps.iter().map(TrialSpec::reference).collect();
    let references =
        CampaignReport::collect(ref_specs.as_slice(), &CampaignOptions::with_threads(opts.threads));
    let refs: Vec<Arc<Output>> = apps
        .iter()
        .zip(&references.trials)
        .map(|(app, r)| {
            assert!(!r.panicked(), "{}: reference (fault-free) run panicked", app.meta.name);
            Arc::new(r.output.clone().expect("reference trials keep their output"))
        })
        .collect();
    let per_level = runs as usize;
    let per_app = levels.len() * per_level;
    let source = SpecFn::new(apps.len() * per_app, |i| {
        let (a, rem) = (i / per_app, i % per_app);
        let (l, r) = (rem / per_level, rem % per_level);
        TrialSpec::scored(
            &apps[a],
            levels[l].to_string(),
            HwConfig::for_level(levels[l]),
            FAULT_SEED_BASE ^ r as u64,
            Arc::clone(&refs[a]),
        )
    });
    CampaignReport::collect(&source, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_apps;

    fn app(name: &str) -> App {
        all_apps().into_iter().find(|a| a.meta.name == name).expect("registered")
    }

    fn run(specs: &[TrialSpec], threads: usize) -> CampaignReport {
        CampaignReport::collect(specs, &CampaignOptions::with_threads(threads))
    }

    #[test]
    fn empty_campaign_is_well_defined() {
        let report = run(&[], 4);
        assert_eq!(report.trials.len(), 0);
        assert_eq!(report.summary.mean_error, 0.0);
        assert_eq!(report.summary.merged_stats, Stats::new());
    }

    #[test]
    fn one_worker_runs_inline_and_drains_each_push_at_once() {
        let caller = std::thread::current().id();
        let mc = app("MonteCarlo");
        let source = SpecFn::new(5, |_| {
            assert_eq!(std::thread::current().id(), caller, "a lone worker spawns no thread");
            TrialSpec::reference(&mc)
        });
        let opts = CampaignOptions { threads: 1, chunk: 2, ..CampaignOptions::default() };
        let summary = run_campaign_streamed(&source, &opts, &mut NullSink).unwrap();
        assert_eq!(summary.trials, 5);
        assert_eq!(summary.peak_buffered, 1, "every push lands on the drain cursor");
        assert_eq!(summary.buffer_capacity, 4);
    }

    /// A harness panic inside a recovery-enabled trial (here: a checker
    /// bug) is caught by the same guard as a plain trial's and scores as
    /// the same crashed result.
    #[test]
    fn recovery_harness_panic_scores_as_a_crashed_trial() {
        fn broken_check(_: &Output) -> Result<(), String> {
            panic!("checker bug")
        }
        let mc = App { check: broken_check, ..app("MonteCarlo") };
        let reference = Arc::new(harness::reference(&mc).output);
        let spec = TrialSpec::scored(
            &mc,
            "Mild",
            HwConfig::for_level(Level::Mild),
            FAULT_SEED_BASE,
            reference,
        )
        .with_recovery(recovery::Policy::standard());
        let report = run(&[spec], 1);
        let t = &report.trials[0];
        assert_eq!(t.panic.as_deref(), Some("checker bug"));
        assert_eq!(t.failure_causes, ["panic: checker bug"]);
        assert_eq!((t.error, t.energy.total, t.attempts), (1.0, 1.0, 1));
        assert_eq!(t.stats, Stats::new());
        assert_eq!(t.energy_quanta, EnergyQuantaBreakdown::ZERO);
        assert_eq!(report.summary.panics, 1);
    }

    #[test]
    fn reference_trials_score_zero_and_keep_output() {
        let specs: Vec<TrialSpec> = all_apps().iter().take(3).map(TrialSpec::reference).collect();
        let report = run(&specs, 2);
        for t in &report.trials {
            assert_eq!(t.error, 0.0, "{}", t.app);
            assert!(t.output.is_some(), "{}", t.app);
            assert!(!t.panicked());
        }
    }

    #[test]
    fn results_keep_spec_order() {
        let mc = app("MonteCarlo");
        let reference = Arc::new(harness::reference(&mc).output);
        let specs: Vec<TrialSpec> = (0..8)
            .map(|i| {
                TrialSpec::scored(
                    &mc,
                    "Medium",
                    HwConfig::for_level(Level::Medium),
                    FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
            })
            .collect();
        let report = run(&specs, 4);
        for (i, t) in report.trials.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.seed, FAULT_SEED_BASE ^ i as u64);
        }
    }

    #[test]
    fn json_report_has_schema_and_trials() {
        let specs = vec![TrialSpec::reference(&app("MonteCarlo"))];
        let report = run(&specs, 1);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"enerj-campaign/5\""));
        assert!(json.contains("\"app\":\"MonteCarlo\""));
        assert!(json.contains("\"budget_quanta\":null"));
        assert!(json.contains("\"budget_met\":null"));
        assert!(json.contains("\"scheduled_level\":null"));
        assert!(json.contains("\"merged_stats\""));
        assert!(json.contains("\"panic\":null"));
        assert!(json.contains("\"fault_totals\""));
        assert!(json.contains("\"fault_counts\""));
        assert!(json.contains("\"sram-read-upset\""));
        assert!(json.contains("\"recovered\":0"));
        assert!(json.contains("\"attempts\":1"));
        assert!(json.contains("\"recovered_at_level\":null"));
        assert!(json.contains("\"failure_causes\":[]"));
        assert!(json.contains("\"recovery_energy_overhead\":0"));
        assert!(json.contains("\"recovery_energy_overhead_quanta\":0"));
        assert!(json.contains("\"energy_quanta\":{\"instructions\":"));
        assert!(json.contains("\"baseline_total\":"));
        assert!(json.contains("\"sram_approx_quanta\":"));
        // Quanta serialize as raw integers: no sign, exponent or dot.
        let field = json.split("\"sram_precise_quanta\":").nth(1).expect("field present");
        let value: String = field.chars().take_while(|c| c.is_ascii_digit()).collect();
        assert!(!value.is_empty());
        assert_eq!(
            value.parse::<u128>().unwrap(),
            report.summary.merged_stats.sram_precise_quanta.get()
        );
    }

    #[test]
    fn recovery_specs_escalate_and_report_in_the_campaign() {
        use crate::recovery::{chaos_config, Policy};
        let mc = app("MonteCarlo");
        let reference = Arc::new(harness::reference(&mc).output);
        // Threshold 0 forces every faulted trial down the ladder; the
        // Precise backstop reproduces the reference, so error ends at 0.
        let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
        let specs: Vec<TrialSpec> = (0..4)
            .map(|i| {
                TrialSpec::scored(
                    &mc,
                    "chaos",
                    chaos_config(50.0),
                    FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
                .with_recovery(policy.clone())
            })
            .collect();
        let report = run(&specs, 2);
        assert!(report.summary.recovered > 0, "50x chaos at threshold 0 must escalate");
        assert!(report.summary.recovery_energy_overhead_quanta > EnergyQuanta::ZERO);
        for t in &report.trials {
            if t.recovered() {
                assert!(t.attempts >= 2);
                assert!(!t.failure_causes.is_empty());
                assert!(!t.panicked(), "recovered trials are not crashes");
            }
            assert!(t.error <= f64::EPSILON, "trial {}: error {}", t.index, t.error);
        }
        let json = report.to_json();
        assert!(
            json.contains("\"recovered_at_level\":\"Precise\"")
                || json.contains("\"recovered_at_level\":\"Mild\"")
        );
        assert!(
            json.contains("\"failure_causes\":[\"qos:")
                || json.contains("\"failure_causes\":[\"check:")
                || json.contains("\"failure_causes\":[\"panic:")
        );
    }

    #[test]
    fn recovery_campaigns_are_bit_identical_across_thread_counts() {
        use crate::recovery::{chaos_config, Policy};
        let apps = [app("SOR"), app("MonteCarlo")];
        let policy = Policy { qos_threshold: Some(0.01), ..Policy::standard() };
        let specs: Vec<TrialSpec> = apps
            .iter()
            .flat_map(|a| {
                let reference = Arc::new(harness::reference(a).output);
                let policy = policy.clone();
                (0..3).map(move |i| {
                    TrialSpec::scored(
                        a,
                        "chaos",
                        chaos_config(25.0),
                        FAULT_SEED_BASE ^ i,
                        Arc::clone(&reference),
                    )
                    .with_recovery(policy.clone())
                })
            })
            .collect();
        let digest = |r: &CampaignReport| {
            r.trials
                .iter()
                .map(|t| {
                    (
                        t.error.to_bits(),
                        t.attempts,
                        t.recovered_at_level.clone(),
                        t.failure_causes.clone(),
                        t.energy.total.to_bits(),
                        t.recovery_energy_overhead.to_bits(),
                        t.energy_quanta,
                        t.recovery_energy_overhead_quanta,
                        t.stats,
                    )
                })
                .collect::<Vec<_>>()
        };
        let base = digest(&run(&specs, 1));
        for threads in [2, 4, 8] {
            assert_eq!(digest(&run(&specs, threads)), base, "{threads} threads");
        }
        // Telemetry must not perturb recovery outcomes either.
        let opts = CampaignOptions { threads: 4, log_events: true, ..CampaignOptions::default() };
        assert_eq!(
            digest(&CampaignReport::collect(specs.as_slice(), &opts)),
            base,
            "with fault log"
        );
    }

    /// Satellite of the quanta refactor: the accounting identity
    /// `accepted-attempt energy + recovery overhead == trial energy` holds
    /// *exactly* — asserted with `==` on `u128` quanta, no epsilon — for
    /// every trial of a chaos campaign, with the accepted attempt's energy
    /// recomputed by an independent replay rather than read back from the
    /// report.
    #[test]
    fn trial_energy_decomposes_exactly_into_accepted_attempt_plus_overhead() {
        use crate::recovery::{chaos_config, retry_seed, Policy, Rung};
        let mc = app("MonteCarlo");
        let reference = Arc::new(harness::reference(&mc).output);
        let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
        let chaos = chaos_config(50.0);
        let specs: Vec<TrialSpec> = (0..6)
            .map(|i| {
                TrialSpec::scored(&mc, "chaos", chaos, FAULT_SEED_BASE ^ i, Arc::clone(&reference))
                    .with_recovery(policy.clone())
            })
            .collect();
        let report = run(&specs, 4);
        assert!(report.summary.recovered > 0, "50x chaos at threshold 0 must escalate");
        for t in &report.trials {
            // Exact decomposition: subtraction round-trips in u128.
            let accepted = t.energy_quanta.total - t.recovery_energy_overhead_quanta;
            assert_eq!(accepted + t.recovery_energy_overhead_quanta, t.energy_quanta.total);
            if t.panicked() || (t.recovered_at_level.is_none() && t.attempts > 1) {
                continue; // no accepted attempt to replay
            }
            // Replay the accepted attempt from its spec alone.
            let (cfg, seed) = match &t.recovered_at_level {
                None => (chaos, t.seed),
                Some(name) => {
                    let rung = if name == "Precise" {
                        Rung::Precise
                    } else {
                        let level = *Level::ALL
                            .iter()
                            .find(|l| &l.to_string() == name)
                            .expect("rung name is a Table 2 level");
                        Rung::Level(level)
                    };
                    (rung.config(), retry_seed(t.seed, t.attempts - 1))
                }
            };
            let replay = harness::measure_with(&mc, cfg, seed);
            assert_eq!(
                replay.energy_quanta.total, accepted,
                "trial {}: accepted-attempt energy must replay exactly",
                t.index
            );
        }
        // The same identity at campaign scale, summed in any order.
        let total: EnergyQuanta = report.trials.iter().map(|t| t.energy_quanta.total).sum();
        let accepted: EnergyQuanta = report
            .trials
            .iter()
            .map(|t| t.energy_quanta.total - t.recovery_energy_overhead_quanta)
            .sum();
        assert_eq!(accepted + report.summary.recovery_energy_overhead_quanta, total);
    }

    #[test]
    fn fault_log_lines_match_injected_faults() {
        let mc = app("MonteCarlo");
        let reference = Arc::new(harness::reference(&mc).output);
        let specs: Vec<TrialSpec> = (0..4)
            .map(|i| {
                TrialSpec::scored(
                    &mc,
                    "Aggressive",
                    HwConfig::for_level(Level::Aggressive),
                    FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
            })
            .collect();
        let opts = CampaignOptions { threads: 2, log_events: true, ..CampaignOptions::default() };
        let report = CampaignReport::collect(specs.as_slice(), &opts);
        let totals = &report.summary.fault_totals;
        assert!(totals.total_injections() > 0, "aggressive MonteCarlo injects faults");
        let ndjson = report.fault_log_ndjson();
        let lines: Vec<&str> = ndjson.lines().collect();
        assert_eq!(lines.len() as u64, totals.total_injections());
        for line in &lines {
            assert!(line.starts_with("{\"trial\":"));
            assert!(line.contains("\"unit\":"));
            assert!(line.contains("\"width\":"));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn json_escaping_and_nonfinite_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "1.0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn level_campaign_matches_serial_mean_error() {
        let apps = [app("MonteCarlo")];
        let report =
            run_level_campaign(&apps, &[Level::Mild], 3, &CampaignOptions::with_threads(2));
        let reference = harness::reference(&apps[0]).output;
        let serial = harness::mean_output_error_vs(&apps[0], &reference, Level::Mild, 3);
        let parallel = report.mean_error_for("MonteCarlo", "Mild");
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    /// One chaos-recovery campaign per thread count in {1, 2, 4, 8},
    /// computed once and shared across proptest cases.
    fn shared_thread_reports() -> &'static Vec<(usize, CampaignReport)> {
        use std::sync::OnceLock;
        static REPORTS: OnceLock<Vec<(usize, CampaignReport)>> = OnceLock::new();
        REPORTS.get_or_init(|| {
            use crate::recovery::{chaos_config, Policy};
            let mc = app("MonteCarlo");
            let reference = Arc::new(harness::reference(&mc).output);
            let policy = Policy { qos_threshold: Some(0.01), ..Policy::standard() };
            let specs: Vec<TrialSpec> = (0..4)
                .map(|i| {
                    TrialSpec::scored(
                        &mc,
                        "chaos",
                        chaos_config(25.0),
                        FAULT_SEED_BASE ^ i,
                        Arc::clone(&reference),
                    )
                    .with_recovery(policy.clone())
                })
                .collect();
            [1usize, 2, 4, 8].iter().map(|&t| (t, run(&specs, t))).collect()
        })
    }

    /// Deterministic Fisher–Yates driven by a SplitMix64 stream.
    fn shuffle<T>(items: &mut [T], mut seed: u64) {
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..items.len()).rev() {
            items.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Satellite of the quanta refactor: shuffle the trial merge order
        /// *and* the thread count — every campaign energy total (per-pool
        /// stats quanta, the energy breakdown, and the recovery overhead)
        /// is bit-identical, asserted with `==` on the integers.
        #[test]
        fn campaign_energy_totals_are_order_and_thread_independent(
            seed: u64,
            threads in proptest::sample::select(vec![1usize, 2, 4, 8]),
        ) {
            let reports = shared_thread_reports();
            let base = &reports[0].1;
            let report =
                &reports.iter().find(|(t, _)| *t == threads).expect("precomputed").1;

            // Thread count cannot perturb any total.
            prop_assert_eq!(report.summary.energy_quanta, base.summary.energy_quanta);
            prop_assert_eq!(report.summary.recovery_energy_overhead_quanta, base.summary.recovery_energy_overhead_quanta);
            prop_assert_eq!(report.summary.merged_stats, base.summary.merged_stats);

            // Neither can merge order: fold the trials in a shuffled order
            // and compare whole-struct equality against the in-order totals.
            let mut order: Vec<usize> = (0..report.trials.len()).collect();
            shuffle(&mut order, seed);
            let mut energy = EnergyQuantaBreakdown::ZERO;
            let mut overhead = EnergyQuanta::ZERO;
            let mut stats = Stats::new();
            for &i in &order {
                energy.merge(&report.trials[i].energy_quanta);
                overhead += report.trials[i].recovery_energy_overhead_quanta;
                stats.merge(&report.trials[i].stats);
            }
            prop_assert_eq!(energy, base.summary.energy_quanta);
            prop_assert_eq!(overhead, base.summary.recovery_energy_overhead_quanta);
            prop_assert_eq!(stats, base.summary.merged_stats);
        }
    }
}
