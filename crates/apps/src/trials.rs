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
//! * **Lazy specs.** A campaign's trials come from a [`SpecSource`] — the
//!   apps × arms × runs [`Grid`] every §6 experiment uses, an indexed
//!   generator ([`SpecFn`]) or a plain slice — so protocol-level campaigns
//!   ([`run_level_campaign`], the tuner, `campaignd` jobs) never
//!   materialize a spec vector; spec memory is O(1) per worker.
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
//! [`Stats`], exact [`EnergyQuantaBreakdown`]s,
//! fault telemetry — [`FaultCounters`] plus opt-in structured
//! [`FaultEvent`] logs — and wall-clock times) next to the drain's
//! [`CampaignSummary`]. It serializes to JSON (`schema: "enerj-campaign/7"`)
//! for the bench binaries' `results/BENCH_*.json` reports, and its fault log
//! exports as NDJSON via [`CampaignReport::fault_log_ndjson`]. Campaigns can
//! also report live progress (trials done, panics, ETA) on stderr; progress
//! updates are batched per chunk so the meter never contends in the trial
//! hot path.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::harness::{self, Measurement, FAULT_SEED_BASE};
use crate::json::Json;
use crate::qos::{output_error, Output};
use crate::recovery;
use crate::scheduler::SchedLevel;
use crate::App;
use enerj_hw::config::{ApproxParams, HwConfig, Level};
use enerj_hw::energy::{energy_quanta, EnergyQuantaBreakdown};
use enerj_hw::quanta::{EnergyQuanta, SAVINGS_SCALE};
use enerj_hw::stats::Stats;
use enerj_hw::telemetry::KindCount;
use enerj_hw::trace::{FaultEvent, FaultKind};
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
    /// [`TrialResult`] and into the report. `None` for statically
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
    /// The trial's output, when the spec asked to keep it. A report does
    /// not carry it: [`CampaignReport::from_json`] reads `None`.
    pub output: Option<Output>,
    /// Operation and storage statistics (zeroed for panicked trials).
    pub stats: Stats,
    /// Exact integer energy (zeroed for panicked trials, matching their
    /// zeroed [`stats`](Self::stats)): scaled and baseline quanta per
    /// component, summed over every attempt. Campaign totals built from
    /// this field are bit-identical for any merge order or thread count.
    /// The normalized figures are its projection,
    /// [`EnergyQuantaBreakdown::normalized`]; zero quanta project to the
    /// precise baseline, 1.0, so a crashed run claims no savings.
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
    /// trials). They go to the fault log, not the report:
    /// [`CampaignReport::from_json`] reads them as empty.
    pub events: Vec<FaultEvent>,
    /// Executions this trial took: 1 without recovery (or when the first
    /// attempt passed), one extra per escalation rung tried.
    pub attempts: u32,
    /// The ladder rung whose output was accepted, when recovery was needed
    /// and succeeded (`None` for unrecovered or never-failed trials).
    pub recovered_at_level: Option<String>,
    /// Why each failed attempt was rejected, in attempt order (rendered
    /// `recovery::FailureCause`s; for plain trials, the panic cause when
    /// the trial crashed).
    pub failure_causes: Vec<String>,
    /// Scaled energy charged to attempts whose output was *not* accepted —
    /// the price of recovery, already included in
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
    /// Trial `index` of `spec` before any work: its identity, zeroed
    /// statistics and energy, no attempt and no output.
    fn new(index: usize, spec: &TrialSpec) -> Self {
        TrialResult {
            index,
            app: spec.app.meta.name,
            label: spec.label.clone(),
            seed: spec.seed,
            error: 0.0,
            output: None,
            stats: Stats::new(),
            energy_quanta: EnergyQuantaBreakdown::ZERO,
            wall: Duration::ZERO,
            panic: None,
            fault_counts: FaultCounters::new(),
            events: Vec::new(),
            attempts: 0,
            recovered_at_level: None,
            failure_causes: Vec::new(),
            recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
            scheduled_level: spec.scheduled_level.clone(),
        }
    }

    /// A crashed trial, scored by the paper's protocol: a crashed run
    /// delivers worst-case quality (error 1.0) and claims no savings over
    /// the precise baseline (its zero quanta project to energy 1.0). Its
    /// statistics, quanta and fault telemetry are zeroed — the machine
    /// state is unrecoverable.
    fn crashed(index: usize, spec: &TrialSpec, wall: Duration, msg: String) -> Self {
        TrialResult {
            error: 1.0,
            wall,
            failure_causes: vec![format!("panic: {msg}")],
            panic: Some(msg),
            attempts: 1,
            ..TrialResult::new(index, spec)
        }
    }

    /// Adds one attempt's statistics, energy and fault telemetry to the
    /// trial and counts the attempt; returns the attempt's output.
    pub(crate) fn charge<O>(&mut self, m: Measurement<O>) -> O {
        self.stats.merge(&m.stats);
        self.energy_quanta.merge(&m.energy_quanta);
        self.fault_counts.merge(&m.fault_counts);
        self.events.extend(m.events);
        self.attempts += 1;
        m.output
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

    /// A report of `trials`, in index order, with the summary the engine's
    /// drain folds from them. The summary's `chunk`, `peak_buffered` and
    /// `buffer_capacity` are 0, and there is no budget.
    pub fn from_trials(trials: Vec<TrialResult>, wall: Duration, threads: usize) -> Self {
        let mut totals = Totals::new();
        trials.iter().for_each(|t| totals.accept(t));
        let summary = totals.into_summary(wall, threads, 0, 0, 0);
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

    /// Serializes the report as a JSON object (`schema: "enerj-campaign/7"`,
    /// whose trials store only what cannot be derived or defaulted
    /// ([`write_trial_json`]); the campaign totals stay whole. The `/1`–`/6`
    /// schemas are superseded — see DESIGN.md).
    ///
    /// All `*_quanta` values are raw integers (no exponent notation), so a
    /// byte-level comparison of those fields across reports is an exact
    /// comparison of the underlying `u128` totals.
    pub fn to_json(&self) -> String {
        let sum = &self.summary;
        let mut out = String::with_capacity(256 + 1024 * self.trials.len());
        push_u64(&mut out, "{\"schema\":\"enerj-campaign/7\",\"threads\":", sum.threads as u64);
        push_wall(&mut out, ",\"wall_seconds\":", sum.wall);
        push_json_f64(&mut out, ",\"mean_error\":", sum.mean_error);
        push_u64(&mut out, ",\"panics\":", sum.panics as u64);
        push_u64(&mut out, ",\"recovered\":", sum.recovered as u64);
        match self.budget_quanta {
            Some(q) => push_u128(&mut out, ",\"budget_quanta\":", q.get()),
            None => out.push_str(",\"budget_quanta\":null"),
        }
        out.push_str(match self.budget_met {
            Some(true) => ",\"budget_met\":true",
            Some(false) => ",\"budget_met\":false",
            None => ",\"budget_met\":null",
        });
        push_u128(
            &mut out,
            ",\"recovery_energy_overhead_quanta\":",
            sum.recovery_energy_overhead_quanta.get(),
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

    /// Serializes the collected fault events as NDJSON: one object per
    /// injected fault, in trial-index then injection order. Empty unless
    /// the campaign ran with [`CampaignOptions::log_events`].
    pub fn fault_log_ndjson(&self) -> String {
        let mut out = String::new();
        for t in &self.trials {
            for e in &t.events {
                push_fault_line(&mut out, t.index, t.app, &t.label, t.seed, e);
                out.push('\n');
            }
        }
        out
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
///
/// The record holds only what cannot be derived or defaulted: the energy
/// baselines and `total` follow from `stats` and the three scaled
/// components, and `panic`, `recovered_at_level`, `scheduled_level` (default
/// `null`), `failure_causes` (empty), `recovery_energy_overhead_quanta` (0)
/// and each `fault_counts` kind (both counts 0) appear only when they differ
/// from their default.
pub fn write_trial_json(out: &mut String, t: &TrialResult) {
    push_u64(out, "{\"index\":", t.index as u64);
    push_json_string(out, ",\"app\":", t.app);
    push_json_string(out, ",\"label\":", &t.label);
    push_u64(out, ",\"seed\":", t.seed);
    push_json_f64(out, ",\"error\":", t.error);
    push_wall(out, ",\"wall_seconds\":", t.wall);
    if let Some(panic) = &t.panic {
        push_json_string(out, ",\"panic\":", panic);
    }
    push_u64(out, ",\"attempts\":", u64::from(t.attempts));
    if let Some(level) = &t.recovered_at_level {
        push_json_string(out, ",\"recovered_at_level\":", level);
    }
    if let Some(level) = &t.scheduled_level {
        push_json_string(out, ",\"scheduled_level\":", level);
    }
    if !t.failure_causes.is_empty() {
        out.push_str(",\"failure_causes\":[");
        for (i, cause) in t.failure_causes.iter().enumerate() {
            push_json_string(out, if i == 0 { "" } else { "," }, cause);
        }
        out.push(']');
    }
    let overhead = t.recovery_energy_overhead_quanta;
    if !overhead.is_zero() {
        push_u128(out, ",\"recovery_energy_overhead_quanta\":", overhead.get());
    }
    push_stats(out, ",\"stats\":", &t.stats);
    let q = &t.energy_quanta;
    push_u128(out, ",\"energy_quanta\":{\"instructions\":", q.instructions.get());
    push_u128(out, ",\"sram\":", q.sram.get());
    push_u128(out, ",\"dram\":", q.dram.get());
    out.push('}');
    out.push_str(",\"fault_counts\":{");
    let mut sep = "\"";
    for (kind, kc) in t.fault_counts.per_kind().filter(|(_, kc)| *kc != KindCount::default()) {
        push_kind_count(out, sep, kind, kc);
        sep = ",\"";
    }
    out.push_str("}}");
}

/// `s` as a JSON string literal, quotes included: `"`, `\` and control
/// characters escaped, everything else verbatim.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, "", s);
    out
}

/// Formats an f64 for JSON. JSON has no NaN/Infinity literals, so NaN is
/// clamped to 1.0 (the worst-case error) and ±∞ to ±1e308, each then
/// rendered like any finite value, so the text reads back.
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, "", x);
    out
}

// Each `push_*` writer appends `key`, the literal text before the value
// (such as `,"label":`), then the value's one JSON rendering. Only floats
// go through `core::fmt`, and a float seen recently on the same thread is
// copied from that rendering: integers, durations below 10^6 s, keys,
// strings and kind names are copied as they are.

/// `"00"`, `"01"`, …, `"99"` back to back: the two digits of pair value
/// `p` are `DIGIT_PAIRS[2 * p..2 * p + 2]`.
const DIGIT_PAIRS: &str = {
    const TABLE: [u8; 200] = {
        let mut table = [0; 200];
        let mut p = 0;
        while p < 100 {
            table[2 * p] = b'0' + (p / 10) as u8;
            table[2 * p + 1] = b'0' + (p % 10) as u8;
            p += 1;
        }
        table
    };
    match std::str::from_utf8(&TABLE) {
        Ok(pairs) => pairs,
        Err(_) => panic!("decimal digits are ASCII"),
    }
};

/// Appends `key` and `n` in decimal, as `{}` renders it. The digit pairs
/// are split off least significant first, then copied out of
/// [`DIGIT_PAIRS`] most significant first, the leading pair without its
/// `0` when the digit count is odd. (Copying `&str` slices of the table
/// avoids re-validating a byte buffer as UTF-8, which costs as much as
/// finding the digits.)
fn push_u64(out: &mut String, key: &str, mut n: u64) {
    out.push_str(key);
    // `u64::MAX` has 20 digits: a leading pair and 9 more.
    let (mut pairs, mut len) = ([0u8; 9], 0);
    while n >= 100 {
        pairs[len] = (n % 100) as u8;
        n /= 100;
        len += 1;
    }
    let lead = 2 * n as usize;
    out.push_str(&DIGIT_PAIRS[lead + usize::from(n < 10)..lead + 2]);
    for &pair in pairs[..len].iter().rev() {
        let at = 2 * usize::from(pair);
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }
}

/// Appends `key` and `n` in decimal; quanta beyond `u64` take `core::fmt`.
fn push_u128(out: &mut String, key: &str, n: u128) {
    match u64::try_from(n) {
        Ok(n) => push_u64(out, key, n),
        Err(_) => {
            out.push_str(key);
            let _ = write!(out, "{n}");
        }
    }
}

fn push_json_string(out: &mut String, key: &str, s: &str) {
    out.push_str(key);
    out.push('"');
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        push_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Appends `s` with `"`, `\` and control characters escaped.
fn push_escaped(out: &mut String, s: &str) {
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
}

/// Appends `key` and `x` as `{}` renders it, NaN and ±∞ clamped first.
fn push_json_f64(out: &mut String, key: &str, x: f64) {
    let x = if x.is_nan() {
        1.0
    } else if x.is_infinite() {
        1e308_f64.copysign(x)
    } else {
        x
    };
    out.push_str(key);
    let bits = x.to_bits();
    F64_TEXT.with_borrow_mut(|memo| {
        let (slot_bits, text) = &mut memo[f64_slot(bits)];
        if *slot_bits != bits {
            text.clear();
            let _ = write!(text, "{x}");
            *slot_bits = bits;
        }
        out.push_str(text);
    });
}

/// Slots in each thread's [`F64_TEXT`] table.
const F64_SLOTS: usize = 16;

/// The bits no slot is looked up by: a NaN, which the clamp never passes on.
const EMPTY_SLOT: u64 = 0x7ff8_0000_0000_0000;

thread_local! {
    /// The `{}` text of floats this thread rendered recently, keyed by
    /// their bits: a direct-mapped table ([`f64_slot`]), a miss replacing
    /// the slot's entry. A stream repeats the same floats within an
    /// (app, level) cell: the energy breakdown, and the zero error and
    /// overhead of fault-free runs.
    static F64_TEXT: std::cell::RefCell<[(u64, String); F64_SLOTS]> =
        const { std::cell::RefCell::new([const { (EMPTY_SLOT, String::new()) }; F64_SLOTS]) };
}

/// The [`F64_TEXT`] slot of `bits`: the top bits of a Fibonacci hash, so
/// values that differ only in their low mantissa bits spread out.
fn f64_slot(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - F64_SLOTS.ilog2())) as usize
}

/// Appends `key` and `d` in seconds as `{:.6}` renders `d.as_secs_f64()`,
/// from `d`'s integer seconds and nanoseconds. Below 10^6 s that f64 is
/// within 0.12 ns of `d`, while `d` is at least 1 ns from the nearest
/// rounding boundary unless its sub-microsecond rest is exactly 500 ns:
/// both round to the same microsecond. That tie and longer durations take
/// `core::fmt`.
fn push_wall(out: &mut String, key: &str, d: Duration) {
    let (secs, nanos) = (d.as_secs(), d.subsec_nanos());
    if secs >= 1_000_000 || nanos % 1000 == 500 {
        out.push_str(key);
        let _ = write!(out, "{:.6}", d.as_secs_f64());
        return;
    }
    let micros = nanos / 1000 + u32::from(nanos % 1000 > 500);
    let (secs, micros) = if micros == 1_000_000 { (secs + 1, 0) } else { (secs, micros) };
    push_u64(out, key, secs);
    out.push('.');
    for pair in [micros / 10_000, micros / 100 % 100, micros % 100] {
        let at = 2 * pair as usize;
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }
}

fn push_stats(out: &mut String, key: &str, s: &Stats) {
    out.push_str(key);
    push_u64(out, "{\"int_approx_ops\":", s.int_approx_ops);
    push_u64(out, ",\"int_precise_ops\":", s.int_precise_ops);
    push_u64(out, ",\"fp_approx_ops\":", s.fp_approx_ops);
    push_u64(out, ",\"fp_precise_ops\":", s.fp_precise_ops);
    push_u128(out, ",\"sram_approx_quanta\":", s.sram_approx_quanta.get());
    push_u128(out, ",\"sram_precise_quanta\":", s.sram_precise_quanta.get());
    push_u128(out, ",\"dram_approx_quanta\":", s.dram_approx_quanta.get());
    push_u128(out, ",\"dram_precise_quanta\":", s.dram_precise_quanta.get());
    out.push('}');
}

fn push_energy_quanta(out: &mut String, key: &str, q: &EnergyQuantaBreakdown) {
    out.push_str(key);
    push_u128(out, "{\"instructions\":", q.instructions.get());
    push_u128(out, ",\"baseline_instructions\":", q.baseline_instructions.get());
    push_u128(out, ",\"sram\":", q.sram.get());
    push_u128(out, ",\"baseline_sram\":", q.baseline_sram.get());
    push_u128(out, ",\"dram\":", q.dram.get());
    push_u128(out, ",\"baseline_dram\":", q.baseline_dram.get());
    push_u128(out, ",\"total\":", q.total.get());
    push_u128(out, ",\"baseline_total\":", q.baseline_total.get());
    out.push('}');
}

fn push_counters(out: &mut String, key: &str, c: &FaultCounters) {
    out.push_str(key);
    out.push('{');
    for (i, (kind, kc)) in c.per_kind().enumerate() {
        push_kind_count(out, if i == 0 { "\"" } else { ",\"" }, kind, kc);
    }
    out.push('}');
}

/// Appends `sep`, then one `fault_counts` member: `kind`'s name and counts.
fn push_kind_count(out: &mut String, sep: &str, kind: FaultKind, kc: KindCount) {
    // Fault kind names are plain ASCII words: nothing to escape.
    out.extend([sep, kind.name()]);
    push_u64(out, "\":{\"injections\":", kc.injections);
    push_u64(out, ",\"bits_flipped\":", kc.bits_flipped);
    out.push('}');
}

/// Appends one fault-log line, without its newline.
fn push_fault_line(
    out: &mut String,
    trial: usize,
    app: &str,
    label: &str,
    seed: u64,
    e: &FaultEvent,
) {
    push_u64(out, "{\"trial\":", trial as u64);
    push_json_string(out, ",\"app\":", app);
    push_json_string(out, ",\"label\":", label);
    push_u64(out, ",\"seed\":", seed);
    push_json_f64(out, ",\"time\":", e.time);
    // Fault kind names are plain ASCII words: nothing to escape.
    out.extend([",\"unit\":\"", e.kind.name()]);
    push_u64(out, "\",\"width\":", u64::from(e.width));
    push_u64(out, ",\"bits_flipped\":", u64::from(e.bits_flipped));
    out.push('}');
}

// The readers below invert the writers above: each builds the writer's own
// value, checks the invariants every writer output keeps, and through
// [`read_exact`] requires the writer to render that value back to the text
// byte for byte.

/// Why a report or fault-log line does not read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// The field concerned (`trials[3].energy_quanta.sram`; `line N` in a
    /// fault log), empty for the text as a whole.
    pub path: String,
    /// What is wrong there.
    pub kind: ReadErrorKind,
}

/// What a [`ReadError`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// Not JSON, a missing or mistyped field, a broken invariant, or bytes
    /// the writer would not emit.
    Invalid(String),
    /// An `app` field naming no registered benchmark ([`crate::app`]).
    UnknownApp(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        match &self.kind {
            ReadErrorKind::Invalid(msg) => f.write_str(msg),
            ReadErrorKind::UnknownApp(name) => write!(f, "unknown app `{name}`"),
        }
    }
}

/// A JSON value being read, with the field path that led to it, so that
/// every [`ReadError`] names its field.
pub struct Field<'a> {
    json: &'a Json,
    path: String,
}

impl<'a> Field<'a> {
    /// An [`Invalid`](ReadErrorKind::Invalid) error at this field.
    pub fn invalid(&self, msg: impl Into<String>) -> ReadError {
        ReadError { path: self.path.clone(), kind: ReadErrorKind::Invalid(msg.into()) }
    }

    /// `Ok` when `ok` holds, else an error at this field saying `msg()`.
    pub fn ensure(&self, ok: bool, msg: impl FnOnce() -> String) -> Result<(), ReadError> {
        if ok {
            Ok(())
        } else {
            Err(self.invalid(msg()))
        }
    }

    /// Member `key` of this object; a missing member is an error.
    pub fn get(&self, key: &str) -> Result<Field<'a>, ReadError> {
        let missing = || ReadError {
            path: self.member_path(key),
            kind: ReadErrorKind::Invalid("missing".to_owned()),
        };
        self.member(key).ok_or_else(missing)
    }

    /// Member `key` of this object, `None` when it is absent: a member the
    /// writer omits at its default.
    fn member(&self, key: &str) -> Option<Field<'a>> {
        let json = self.json.get(key)?;
        Some(Field { json, path: self.member_path(key) })
    }

    /// The path of member `key`.
    fn member_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// This array's elements, each at path `field[i]`.
    pub fn items(&self) -> Result<Vec<Field<'a>>, ReadError> {
        let items = self.json.as_array().ok_or_else(|| self.invalid("not an array"))?;
        let item = |(i, json)| Field { json, path: format!("{}[{i}]", self.path) };
        Ok(items.iter().enumerate().map(item).collect())
    }

    /// `None` when this field is `null`.
    fn nullable(&self) -> Option<&Self> {
        (*self.json != Json::Null).then_some(self)
    }

    /// Checks that member `schema` is `expected`.
    pub fn schema(&self, expected: &str) -> Result<(), ReadError> {
        let (field, found) = (self.get("schema")?, self.get("schema")?.str()?);
        field.ensure(found == expected, || format!("`{found}`, expected `{expected}`"))
    }

    /// An exact integer of the writer's type: no fraction, no exponent and
    /// no `f64` round trip, so quanta past 2^53 read exactly.
    pub fn int<T: TryFrom<i128>>(&self) -> Result<T, ReadError> {
        self.json.as_i128().and_then(|x| T::try_from(x).ok()).ok_or_else(|| self.inexact::<T>())
    }

    /// Exact energy quanta, anywhere in the `u128` range.
    pub fn quanta(&self) -> Result<EnergyQuanta, ReadError> {
        self.json.as_u128().map(EnergyQuanta::new).ok_or_else(|| self.inexact::<u128>())
    }

    fn inexact<T>(&self) -> ReadError {
        self.invalid(format!("not an exact {} ({:?})", std::any::type_name::<T>(), self.json))
    }

    /// A number.
    pub fn f64(&self) -> Result<f64, ReadError> {
        self.json.as_f64().ok_or_else(|| self.invalid(format!("not a number ({:?})", self.json)))
    }

    /// A boolean.
    pub fn bool(&self) -> Result<bool, ReadError> {
        match self.json {
            Json::Bool(b) => Ok(*b),
            other => Err(self.invalid(format!("not a boolean ({other:?})"))),
        }
    }

    /// A string.
    pub fn str(&self) -> Result<&'a str, ReadError> {
        self.json.as_str().ok_or_else(|| self.invalid(format!("not a string ({:?})", self.json)))
    }
}

/// Reads `text` the way its writer wrote it: parses it, builds the value
/// with `read`, and requires `render(&value) == text` byte for byte. One
/// trailing newline, as the file writers add, is allowed.
///
/// # Errors
///
/// The first syntax error, the first field `read` rejects, or the first
/// byte where the text and its re-rendering differ.
pub fn read_exact<T>(
    text: &str,
    read: impl FnOnce(&Field<'_>) -> Result<T, ReadError>,
    render: impl FnOnce(&T) -> String,
) -> Result<T, ReadError> {
    let text = text.strip_suffix('\n').unwrap_or(text);
    let root = Field { json: &Json::parse(text).map_err(whole)?, path: String::new() };
    let value = read(&root)?;
    let rendered = render(&value);
    let at = rendered.bytes().zip(text.bytes()).take_while(|(a, b)| a == b).count();
    let excerpt = |s: &str| s.get(at..).unwrap_or("").chars().take(32).collect::<String>();
    root.ensure(rendered == text, || {
        format!(
            "not the writer's rendering: from byte {at} the text has `{}` where the writer \
             writes `{}`",
            excerpt(text),
            excerpt(&rendered)
        )
    })?;
    Ok(value)
}

/// An error about the text as a whole.
fn whole(msg: String) -> ReadError {
    ReadError { path: String::new(), kind: ReadErrorKind::Invalid(msg) }
}

/// The registered name an `app` field holds.
fn read_app(field: &Field<'_>) -> Result<&'static str, ReadError> {
    let name = field.str()?;
    let unknown =
        || ReadError { path: field.path.clone(), kind: ReadErrorKind::UnknownApp(name.into()) };
    crate::app(name).map(|app| app.meta.name).ok_or_else(unknown)
}

/// A `{:.6}` wall-clock field.
fn read_wall(field: &Field<'_>) -> Result<Duration, ReadError> {
    let secs = field.f64()?;
    Duration::try_from_secs_f64(secs).map_err(|_| field.invalid(format!("{secs} is no duration")))
}

/// Inverts [`push_stats`].
fn read_stats(f: &Field<'_>) -> Result<Stats, ReadError> {
    Ok(Stats {
        int_approx_ops: f.get("int_approx_ops")?.int()?,
        int_precise_ops: f.get("int_precise_ops")?.int()?,
        fp_approx_ops: f.get("fp_approx_ops")?.int()?,
        fp_precise_ops: f.get("fp_precise_ops")?.int()?,
        sram_approx_quanta: f.get("sram_approx_quanta")?.quanta()?,
        sram_precise_quanta: f.get("sram_precise_quanta")?.quanta()?,
        dram_approx_quanta: f.get("dram_approx_quanta")?.quanta()?,
        dram_precise_quanta: f.get("dram_precise_quanta")?.quanta()?,
    })
}

/// Whether [`energy_quanta`] evaluates `s` without overflow: each unit's op
/// counts sum within u64 and the baselines within u128. No writer renders
/// statistics that fail this.
fn baselines_fit(s: &Stats) -> bool {
    let ops = Stats {
        int_approx_ops: s.int_approx_ops,
        int_precise_ops: s.int_precise_ops,
        fp_approx_ops: s.fp_approx_ops,
        fp_precise_ops: s.fp_precise_ops,
        ..Stats::new()
    };
    let pool =
        |a: EnergyQuanta, b: EnergyQuanta| a.checked_add(b)?.get().checked_mul(SAVINGS_SCALE);
    let total = || {
        s.int_approx_ops.checked_add(s.int_precise_ops)?;
        s.fp_approx_ops.checked_add(s.fp_precise_ops)?;
        let ops = energy_quanta(&ops, &ApproxParams::PRECISE).baseline_total.get();
        let sram = pool(s.sram_approx_quanta, s.sram_precise_quanta)?;
        sram.checked_add(pool(s.dram_approx_quanta, s.dram_precise_quanta)?)?.checked_add(ops)
    };
    total().is_some()
}

/// Reads a trial's `energy_quanta` for a trial with statistics `stats`.
/// The baselines are functions of the statistics alone and each total is
/// the sum of its components, so the record holds only the three scaled
/// components, each at most its baseline; the re-rendering rejects any
/// stored baseline or total.
fn read_energy_quanta(f: &Field<'_>, stats: &Stats) -> Result<EnergyQuantaBreakdown, ReadError> {
    f.ensure(baselines_fit(stats), || "the statistics' baselines overflow".to_owned())?;
    let base = energy_quanta(stats, &ApproxParams::PRECISE);
    let scaled = |key: &str, baseline: EnergyQuanta| {
        let (field, q) = (f.get(key)?, f.get(key)?.quanta()?);
        field.ensure(q <= baseline, || format!("{q} exceeds baseline_{key} {baseline}"))?;
        Ok(q)
    };
    let instructions = scaled("instructions", base.baseline_instructions)?;
    let sram = scaled("sram", base.baseline_sram)?;
    let dram = scaled("dram", base.baseline_dram)?;
    // At most `baseline_total` by the checks above, so the sum cannot overflow.
    let total = instructions + sram + dram;
    Ok(EnergyQuantaBreakdown { instructions, sram, dram, total, ..base })
}

/// Reads a trial's `fault_counts`: an absent [`FaultKind::ALL`] name is a
/// kind with both counts 0 (the re-rendering rejects any other name and an
/// explicit zero kind).
fn read_counters(f: &Field<'_>) -> Result<FaultCounters, ReadError> {
    let mut counts = [KindCount::default(); FaultKind::ALL.len()];
    for (count, kind) in counts.iter_mut().zip(FaultKind::ALL) {
        if let Some(entry) = f.member(kind.name()) {
            count.injections = entry.get("injections")?.int()?;
            count.bits_flipped = entry.get("bits_flipped")?.int()?;
        }
    }
    Ok(FaultCounters::from_counts(counts))
}

/// Inverts [`write_trial_json`], reading each absent optional member as
/// its default. `output` reads as `None` and `events` as empty: the record
/// carries neither.
fn read_trial(f: &Field<'_>) -> Result<TrialResult, ReadError> {
    let opt_string = |key: &str| -> Result<Option<String>, ReadError> {
        f.member(key).map(|v| v.str().map(str::to_owned)).transpose()
    };
    let (error_field, error) = (f.get("error")?, f.get("error")?.f64()?);
    error_field.ensure((0.0..=1.0).contains(&error), || format!("{error} outside [0, 1]"))?;
    let causes = f.member("failure_causes").map(|c| c.items()).transpose()?.unwrap_or_default();
    let failure_causes: Vec<String> =
        causes.iter().map(|c| c.str().map(str::to_owned)).collect::<Result<_, _>>()?;
    let recovered_at_level = opt_string("recovered_at_level")?;
    // The attempt ledger: each rejected attempt records one cause, and one
    // more attempt produced the accepted output unless the trial stayed
    // degraded (it failed and no rung was accepted).
    let degraded = recovered_at_level.is_none() && !failure_causes.is_empty();
    let (attempts_field, attempts) = (f.get("attempts")?, f.get("attempts")?.int::<u32>()?);
    attempts_field.ensure(
        attempts as usize == failure_causes.len() + usize::from(!degraded),
        || {
            let outcome = if degraded { "degraded" } else { "accepted" };
            format!(
                "{attempts} attempts are inconsistent with {} failure causes on an {outcome} trial",
                failure_causes.len()
            )
        },
    )?;
    let scheduled_level = opt_string("scheduled_level")?;
    if let Some(level) = &scheduled_level {
        let known = SchedLevel::from_name(level).is_some();
        f.get("scheduled_level")?.ensure(known, || format!("unknown level `{level}`"))?;
    }
    let stats = read_stats(&f.get("stats")?)?;
    let energy_quanta = read_energy_quanta(&f.get("energy_quanta")?, &stats)?;
    let mut overhead = EnergyQuanta::ZERO;
    if let Some(field) = f.member("recovery_energy_overhead_quanta") {
        overhead = field.quanta()?;
        field.ensure(overhead <= energy_quanta.total, || {
            format!("{overhead} exceeds energy_quanta.total {}", energy_quanta.total)
        })?;
    }
    Ok(TrialResult {
        index: f.get("index")?.int()?,
        app: read_app(&f.get("app")?)?,
        label: f.get("label")?.str()?.to_owned(),
        seed: f.get("seed")?.int()?,
        error,
        output: None,
        stats,
        energy_quanta,
        wall: read_wall(&f.get("wall_seconds")?)?,
        panic: opt_string("panic")?,
        fault_counts: read_counters(&f.get("fault_counts")?)?,
        events: Vec::new(),
        attempts,
        recovered_at_level,
        failure_causes,
        recovery_energy_overhead_quanta: overhead,
        scheduled_level,
    })
}

impl CampaignReport {
    /// Reads back a report [`to_json`](Self::to_json) wrote, through
    /// [`read_exact`]. Every `app` must be registered. The summary is the
    /// fold of the trials ([`from_trials`](Self::from_trials)), so the
    /// re-rendering checks every stored total against the trials.
    ///
    /// # Errors
    ///
    /// The first field that does not read, or the first byte the writer
    /// would render differently.
    pub fn from_json(text: &str) -> Result<CampaignReport, ReadError> {
        read_exact(text, read_report, CampaignReport::to_json)
    }
}

fn read_report(f: &Field<'_>) -> Result<CampaignReport, ReadError> {
    f.schema("enerj-campaign/7")?;
    let budget_quanta = f.get("budget_quanta")?.nullable().map(Field::quanta).transpose()?;
    let budget_met = f.get("budget_met")?.nullable().map(Field::bool).transpose()?;
    f.get("budget_met")?.ensure(budget_quanta.is_some() == budget_met.is_some(), || {
        "must be null exactly when budget_quanta is".to_owned()
    })?;
    let trials = f.get("trials")?.items()?.iter().map(read_trial).collect::<Result<Vec<_>, _>>()?;
    let (wall, threads) = (read_wall(&f.get("wall_seconds")?)?, f.get("threads")?.int()?);
    Ok(CampaignReport {
        budget_quanta,
        budget_met,
        ..CampaignReport::from_trials(trials, wall, threads)
    })
}

/// One fault-log line read back: the trial's index, app, label and seed,
/// and the event.
pub type FaultLogLine = (usize, &'static str, String, u64, FaultEvent);

/// Reads back a fault log [`CampaignReport::fault_log_ndjson`] wrote, line
/// by line through [`read_exact`]. Each `unit` is a known [`FaultKind`],
/// each `width` in `1..=64`, `bits_flipped` at most `width` and `time`
/// non-negative.
///
/// # Errors
///
/// The first line that does not read back; its path starts `line N`.
pub fn read_fault_log(text: &str) -> Result<Vec<FaultLogLine>, ReadError> {
    let render = |(trial, app, label, seed, event): &FaultLogLine| {
        let mut out = String::new();
        push_fault_line(&mut out, *trial, app, label, *seed, event);
        out
    };
    let mut lines = Vec::new();
    for (i, line) in text.split_inclusive('\n').enumerate() {
        let read = match line.strip_suffix('\n') {
            Some(line) => read_exact(line, read_fault_event, render),
            None => Err(whole("no final newline".to_owned())),
        };
        lines.push(read.map_err(|mut e| {
            let at = format!("line {}", i + 1);
            e.path = if e.path.is_empty() { at } else { format!("{at}: {}", e.path) };
            e
        })?);
    }
    Ok(lines)
}

fn read_fault_event(f: &Field<'_>) -> Result<FaultLogLine, ReadError> {
    let (unit, name) = (f.get("unit")?, f.get("unit")?.str()?);
    let kind =
        FaultKind::from_name(name).ok_or_else(|| unit.invalid(format!("unknown unit `{name}`")))?;
    let width: u32 = f.get("width")?.int()?;
    f.get("width")?.ensure((1..=64).contains(&width), || format!("{width} not in 1..=64"))?;
    let bits_flipped: u32 = f.get("bits_flipped")?.int()?;
    f.get("bits_flipped")?
        .ensure(bits_flipped <= width, || format!("{bits_flipped} exceeds width {width}"))?;
    let time = f.get("time")?.f64()?;
    f.get("time")?.ensure(time >= 0.0, || format!("negative ({time})"))?;
    let event = FaultEvent { kind, time, width, bits_flipped };
    let (trial, app, label) = (f.get("trial")?.int()?, read_app(&f.get("app")?)?, f.get("label")?);
    Ok((trial, app, label.str()?.to_owned(), f.get("seed")?.int()?, event))
}

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
/// by a pure function, for campaigns that are not a [`Grid`] (such as a
/// synthetic app's stream of seeds).
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

/// The one trial grid of every §6 experiment: each app runs under each arm
/// (a labelled hardware configuration) for `runs` fault seeds
/// `seed_base ^ run`, and every trial is scored against the app's memoized
/// reference output (`harness::reference_output`). Trials are enumerated
/// app-major, then arm, then run; [`coordinates`](Self::coordinates) is the
/// one place that splits an index. Fig. 5 is levels × runs, the ablations
/// are strategy masks or error modes × runs, the tuner and the scheduler
/// profile their levels on the tuner seed stream, and `campaignd` serves
/// one grid per job.
///
/// The apps must be registered apps (their names key the reference memo).
#[derive(Debug, Clone)]
pub struct Grid {
    apps: Vec<App>,
    arms: Vec<(String, HwConfig)>,
    runs: u64,
    seed_base: u64,
}

impl Grid {
    /// `apps` × `arms` × `runs` trials on seeds `seed_base ^ run`.
    pub fn new(apps: &[App], arms: Vec<(String, HwConfig)>, runs: u64, seed_base: u64) -> Self {
        Grid { apps: apps.to_vec(), arms, runs, seed_base }
    }

    /// One arm per Table 2 level, labelled with the level's name.
    pub fn levels(apps: &[App], levels: &[Level], runs: u64, seed_base: u64) -> Self {
        let arms = levels.iter().map(|l| (l.to_string(), HwConfig::for_level(*l))).collect();
        Grid::new(apps, arms, runs, seed_base)
    }

    /// The apps, outermost in the enumeration.
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// The `(label, configuration)` arms, middle in the enumeration.
    pub fn arms(&self) -> &[(String, HwConfig)] {
        &self.arms
    }

    /// Fault-injection runs per (app, arm).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The `(app, arm, run)` coordinates of trial `index`.
    pub fn coordinates(&self, index: usize) -> (usize, usize, u64) {
        let runs = self.runs as usize;
        let (cell, run) = (index / runs, index % runs);
        (cell / self.arms.len(), cell % self.arms.len(), run as u64)
    }

    /// Every spec of the grid, in index order (for campaigns that join
    /// several grids end to end).
    pub fn specs(&self) -> impl Iterator<Item = TrialSpec> + '_ {
        (0..self.len()).map(|i| self.spec(i).into_owned())
    }
}

impl SpecSource for Grid {
    fn len(&self) -> usize {
        self.apps.len() * self.arms.len() * self.runs as usize
    }

    fn spec(&self, index: usize) -> Cow<'_, TrialSpec> {
        let (a, arm, run) = self.coordinates(index);
        let app = &self.apps[a];
        let (label, cfg) = &self.arms[arm];
        let reference = harness::reference_output(app);
        Cow::Owned(TrialSpec::scored(app, label.clone(), *cfg, self.seed_base ^ run, reference))
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
///
/// Lines are rendered straight into one block, handed to the writer once
/// it holds 64 KiB and again at [`flush`](TrialSink::flush),
/// [`into_inner`](Self::into_inner) or drop. Only `flush` reports a write
/// error of the tail; the other two ignore it, as `BufWriter`'s drop does.
#[derive(Debug)]
pub struct NdjsonSink<W: std::io::Write + Send> {
    /// `None` only once [`into_inner`](Self::into_inner) took it.
    out: Option<W>,
    /// Rendered lines not yet handed to `out`, reused so a record
    /// allocates nothing.
    block: String,
}

/// The bytes an [`NdjsonSink`] gathers per write: a writer's own buffer
/// (8 KiB for a `BufWriter`) passes a block this large straight through.
const NDJSON_BLOCK: usize = 64 * 1024;

impl<W: std::io::Write + Send> NdjsonSink<W> {
    /// Wraps a writer (a file needs no `BufWriter`: lines reach it in
    /// 64 KiB blocks).
    pub fn new(out: W) -> Self {
        // Room for the line that takes the block past its size.
        NdjsonSink { out: Some(out), block: String::with_capacity(NDJSON_BLOCK + 8 * 1024) }
    }

    /// Hands the pending lines to the writer and unwraps it (flush the
    /// writer before reading the stream back).
    pub fn into_inner(mut self) -> W {
        let _ = self.write_block();
        self.out.take().expect("only into_inner takes the writer")
    }

    /// Hands the pending lines to the writer. They are dropped on error,
    /// so a later retry does not write a partly written block twice.
    fn write_block(&mut self) -> std::io::Result<()> {
        let Some(out) = &mut self.out else { return Ok(()) };
        let written = out.write_all(self.block.as_bytes());
        self.block.clear();
        written
    }
}

impl<W: std::io::Write + Send> Drop for NdjsonSink<W> {
    fn drop(&mut self) {
        let _ = self.write_block();
    }
}

impl<W: std::io::Write + Send> TrialSink for NdjsonSink<W> {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        write_trial_json(&mut self.block, &trial);
        self.block.push('\n');
        if self.block.len() >= NDJSON_BLOCK {
            self.write_block()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.write_block()?;
        std::io::Write::flush(self.out.as_mut().expect("only into_inner takes the writer"))
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
    /// Chunk size used (after auto-resolution). Not in the report: 0 when
    /// read back by [`CampaignReport::from_json`], as are the two fields
    /// below.
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

/// The Figure 5 protocol as one campaign: every app at every level for
/// `runs` fault seeds `FAULT_SEED_BASE ^ run`, labelled with the level
/// names and scored against the memoized references ([`Grid::levels`]).
pub fn run_level_campaign(
    apps: &[App],
    levels: &[Level],
    runs: u64,
    opts: &CampaignOptions,
) -> CampaignReport {
    CampaignReport::collect(&Grid::levels(apps, levels, runs, FAULT_SEED_BASE), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_apps;
    use rand::{RngCore, SeedableRng};

    fn app(name: &str) -> App {
        crate::app(name).expect("registered")
    }

    fn run(specs: &[TrialSpec], threads: usize) -> CampaignReport {
        CampaignReport::collect(specs, &CampaignOptions::with_threads(threads))
    }

    /// `n` MonteCarlo trials under `cfg` (seeds `FAULT_SEED_BASE ^ i`), each
    /// under the standard recovery ladder at `qos_threshold` when given.
    fn mc_specs(n: u64, label: &str, cfg: HwConfig, qos_threshold: Option<f64>) -> Vec<TrialSpec> {
        let grid =
            Grid::new(&[app("MonteCarlo")], vec![(label.to_owned(), cfg)], n, FAULT_SEED_BASE);
        let policy = recovery::Policy { qos_threshold, ..recovery::Policy::standard() };
        grid.specs()
            .map(|spec| match qos_threshold {
                Some(_) => spec.with_recovery(policy.clone()),
                None => spec,
            })
            .collect()
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
        assert_eq!((t.error, t.energy_quanta.normalized().total, t.attempts), (1.0, 1.0, 1));
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
        let report = run(&mc_specs(8, "Medium", HwConfig::for_level(Level::Medium), None), 4);
        for (i, t) in report.trials.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.seed, FAULT_SEED_BASE ^ i as u64);
        }
    }

    #[test]
    fn json_report_has_schema_and_trials() {
        let report = run(&[TrialSpec::reference(&app("MonteCarlo"))], 1);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"enerj-campaign/7\""));
        // Every field reads back as the writer's typed value; quanta read
        // only as exact integers (no sign, exponent or dot).
        let read = CampaignReport::from_json(&json).expect("the report reads back");
        let t = &read.trials[0];
        assert_eq!((t.app, t.attempts, t.panic.as_deref()), ("MonteCarlo", 1, None));
        assert_eq!((t.recovered_at_level.as_deref(), t.scheduled_level.as_deref()), (None, None));
        assert!(t.failure_causes.is_empty());
        assert_eq!((read.budget_quanta, read.budget_met, read.summary.recovered), (None, None, 0));
        assert_eq!(read.summary.merged_stats, report.summary.merged_stats);
        assert_eq!(read.summary.fault_totals, report.summary.fault_totals);
    }

    #[test]
    fn recovery_specs_escalate_and_report_in_the_campaign() {
        // Threshold 0 forces every faulted trial down the ladder; the
        // Precise backstop reproduces the reference, so error ends at 0.
        let report = run(&mc_specs(4, "chaos", recovery::chaos_config(50.0), Some(0.0)), 2);
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
        let read = CampaignReport::from_json(&report.to_json()).expect("the report reads back");
        let t = read.trials.iter().find(|t| t.recovered()).expect("a recovered trial");
        assert!(matches!(t.recovered_at_level.as_deref(), Some("Precise" | "Mild")));
        assert!(["qos:", "check:", "panic:"].iter().any(|c| t.failure_causes[0].starts_with(c)));
    }

    #[test]
    fn recovery_campaigns_are_bit_identical_across_thread_counts() {
        use crate::recovery::{chaos_config, Policy};
        let apps = [app("SOR"), app("MonteCarlo")];
        let policy = Policy { qos_threshold: Some(0.01), ..Policy::standard() };
        let grid =
            Grid::new(&apps, vec![("chaos".to_owned(), chaos_config(25.0))], 3, FAULT_SEED_BASE);
        let specs: Vec<TrialSpec> = grid.specs().map(|s| s.with_recovery(policy.clone())).collect();
        let digest = |r: &CampaignReport| {
            r.trials
                .iter()
                .map(|t| {
                    (
                        t.error.to_bits(),
                        t.attempts,
                        t.recovered_at_level.clone(),
                        t.failure_causes.clone(),
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
        use crate::recovery::{chaos_config, retry_seed, Rung};
        let mc = app("MonteCarlo");
        let chaos = chaos_config(50.0);
        let report = run(&mc_specs(6, "chaos", chaos, Some(0.0)), 4);
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
            let replay = harness::measure_with_telemetry(&mc, cfg, seed, false);
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
        let report = aggressive_campaign();
        let totals = &report.summary.fault_totals;
        assert!(totals.total_injections() > 0, "aggressive MonteCarlo injects faults");
        let events = read_fault_log(&report.fault_log_ndjson()).expect("the log reads back");
        assert_eq!(events.len() as u64, totals.total_injections());
        let bits: u64 = events.iter().map(|e| u64::from(e.4.bits_flipped)).sum();
        assert_eq!(bits, totals.total_bits_flipped());
    }

    /// Three Aggressive MonteCarlo trials with the fault log on.
    fn aggressive_campaign() -> CampaignReport {
        let specs = mc_specs(3, "Aggr", HwConfig::for_level(Level::Aggressive), None);
        let opts = CampaignOptions { threads: 1, log_events: true, ..CampaignOptions::default() };
        CampaignReport::collect(specs.as_slice(), &opts)
    }

    /// `report` and its fault log read back to the bytes they were
    /// written as, and the log to the trials' events.
    fn assert_round_trips(report: &CampaignReport) {
        let json = report.to_json();
        assert_eq!(
            CampaignReport::from_json(&json).expect("the report reads back").to_json(),
            json
        );
        let events = read_fault_log(&report.fault_log_ndjson()).expect("the log reads back");
        let logged = report.trials.iter().flat_map(|t| t.events.iter().map(|e| (t.index, *e)));
        assert!(events.iter().map(|e| (e.0, e.4)).eq(logged));
    }

    /// Reading `text` with its last `from` (in the last trial, for trial
    /// fields) replaced by `to` fails with an error starting `expect`.
    fn rejects(text: &str, from: &str, to: &str, expect: &str) {
        let at = text.rfind(from).expect(from);
        let text = format!("{}{to}{}", &text[..at], &text[at + from.len()..]);
        let err = CampaignReport::from_json(&text).expect_err(to).to_string();
        assert!(err.starts_with(expect), "{from} -> {to}: {err}");
    }

    #[test]
    fn real_report_and_log_validate() {
        let report = aggressive_campaign();
        assert_round_trips(&report);
        assert!(CampaignReport::from_json(&(report.to_json() + "\n")).is_ok(), "file form");
    }

    #[test]
    fn recovery_campaign_report_validates() {
        let specs = mc_specs(3, "chaos", recovery::chaos_config(50.0), Some(0.0));
        let opts = CampaignOptions { threads: 1, log_events: true, ..CampaignOptions::default() };
        let report = CampaignReport::collect(specs.as_slice(), &opts);
        assert!(report.summary.recovered > 0, "threshold 0 under chaos must escalate");
        assert_round_trips(&report);
    }

    #[test]
    fn rejects_wrong_schema_and_missing_keys() {
        let good = aggressive_campaign().to_json();
        for old in (1..=6).map(|v| format!("enerj-campaign/{v}")) {
            rejects(&good, "enerj-campaign/7", &old, &format!("schema: `{old}`, expected"));
        }
        rejects(&good, ",\"label\":\"Aggr\"", "", "trials[2].label: missing");
        rejects(&good, "{", "", "expected `,` or `}` at byte");
        rejects(&good, "\"threads\":1", "\"threads\":1 ", "not the writer's rendering: from byte");
        // Every stored total must be the fold of the trials.
        rejects(&good, "\"panics\":0", "\"panics\":1", "not the writer's rendering");
    }

    #[test]
    fn rejects_malformed_scheduler_fields() {
        let good = aggressive_campaign().to_json();
        // Unscheduled campaigns carry null budget fields; a verdict without
        // a budget is drift, and budgets are integer quanta.
        let (met, budget) = ("\"budget_met\":null", "\"budget_quanta\":null");
        rejects(&good, met, "\"budget_met\":true", "budget_met: must be null exactly when");
        rejects(&good, budget, "\"budget_quanta\":0.5", "budget_quanta: not an exact u128");
        // The per-trial rung vocabulary is closed.
        let level = "\"attempts\":1,\"scheduled_level\":\"X\"";
        rejects(&good, "\"attempts\":1", level, "trials[2].scheduled_level: unknown");
    }

    #[test]
    fn rejects_malformed_recovery_fields() {
        let text = aggressive_campaign().to_json();
        let attempts = "\"attempts\":1";
        let ledger = "trials[2].attempts: ";
        rejects(&text, attempts, "\"attempts\":0", &format!("{ledger}0 attempts are inconsistent"));
        let two = "\"attempts\":1,\"failure_causes\":[\"qos: a\",\"qos: b\"]";
        rejects(&text, attempts, two, &format!("{ledger}1 attempts are inconsistent with 2"));
        let seven = "\"attempts\":1,\"failure_causes\":[7]";
        rejects(&text, attempts, seven, "trials[2].failure_causes[0]: not a");
        // Rejected attempts' energy is part of the trial's total.
        let beyond = format!(",\"recovery_energy_overhead_quanta\":{},\"stats\":", u128::MAX);
        let exceeds = format!(
            "trials[2].recovery_energy_overhead_quanta: {} exceeds energy_quanta",
            u128::MAX
        );
        rejects(&text, ",\"stats\":", &beyond, &exceeds);
        rejects(&text, "\"error\":", "\"error\":1.5,\"x\":", "trials[2].error: 1.5 outside [0, 1]");
        let err = CampaignReport::from_json(&text.replacen("MonteCarlo", "Nope", 1)).unwrap_err();
        assert_eq!(
            (err.path, err.kind),
            ("trials[0].app".into(), ReadErrorKind::UnknownApp("Nope".into()))
        );
    }

    #[test]
    fn rejects_malformed_quanta_fields() {
        let report = aggressive_campaign();
        let text = report.to_json();
        // Quanta are non-negative integer counts, scaled never above baseline.
        let quanta = "trials[2].energy_quanta.";
        rejects(
            &text,
            "\"instructions\":",
            "\"instructions\":0.5,\"x\":",
            &format!("{quanta}instructions: not an exact u128"),
        );
        rejects(
            &text,
            ",\"stats\":",
            ",\"recovery_energy_overhead_quanta\":-1,\"stats\":",
            "trials[2].recovery_energy_overhead_quanta: not an exact",
        );
        let huge = "\"instructions\":99999999999999999999,\"x\":";
        let exceeds = format!("{quanta}instructions: 99999999999999999999 exceeds baseline_");
        rejects(&text, "\"instructions\":", huge, &exceeds);
        // A kind present in the record carries both counts.
        let kind = "\"fault_counts\":{\"dram-decay\":{\"injections\":1},";
        let missing = "trials[2].fault_counts.dram-decay.bits_flipped: missing";
        rejects(&text, "\"fault_counts\":{", kind, missing);
        // Quanta past 2^53 read exactly: 2^53 and 2^53 + 1 stay distinct.
        let mut trials = report.trials;
        let overhead = EnergyQuanta::new((1 << 53) + 1);
        let precise_dram = Stats { dram_precise_quanta: overhead, ..Stats::new() };
        trials[0].stats.merge(&precise_dram);
        trials[0].energy_quanta.merge(&energy_quanta(&precise_dram, &ApproxParams::PRECISE));
        trials[0].recovery_energy_overhead_quanta = overhead;
        let big = CampaignReport::from_trials(trials, Duration::ZERO, 1).to_json();
        let read = CampaignReport::from_json(&big).unwrap();
        assert_eq!(read.summary.recovery_energy_overhead_quanta.get(), (1 << 53) + 1);
    }

    #[test]
    fn rejects_bad_fault_log_lines() {
        let line = r#"{"trial":0,"app":"FFT","label":"L","seed":1,"time":0.5,"unit":"int-timing","width":8,"bits_flipped":1}"#;
        let event = FaultEvent { kind: FaultKind::IntTiming, time: 0.5, width: 8, bits_flipped: 1 };
        let log = format!("{line}\n{line}\n");
        assert_eq!(read_fault_log(&log).unwrap(), vec![(0, "FFT", "L".to_owned(), 1, event); 2]);
        assert_eq!(read_fault_log(""), Ok(Vec::new()));
        let rejects = |from: &str, to: &str, expect: &str| {
            let log = format!("{line}\n{}\n", line.replacen(from, to, 1));
            let err = read_fault_log(&log).unwrap_err().to_string();
            assert!(err.starts_with(expect), "{from} -> {to}: {err}");
        };
        rejects(",\"bits_flipped\":1", "", "line 2: bits_flipped: missing");
        rejects("int-timing", "warp-core", "line 2: unit: unknown unit `warp-core`");
        rejects(
            "\"bits_flipped\":1",
            "\"bits_flipped\":9",
            "line 2: bits_flipped: 9 exceeds width 8",
        );
        rejects("\"width\":8", "\"width\":65", "line 2: width: 65 not in 1..=64");
        rejects("\"time\":0.5", "\"time\":-0.5", "line 2: time: negative");
        rejects("\"FFT\"", "\"X\"", "line 2: app: unknown app `X`");
        rejects("{", "", "line 2: trailing garbage");
        rejects("\"time\":0.5", "\"time\":0.50", "line 2: not the writer's rendering");
        assert_eq!(read_fault_log(line).unwrap_err().to_string(), "line 1: no final newline");
    }

    #[test]
    fn json_escaping_and_nonfinite_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        // Non-finite values clamp to 1.0 and ±1e308, rendered as `{}`
        // renders those values, so the reader's re-rendering matches.
        let e308 = format!("1{}", "0".repeat(308));
        assert_eq!(json_f64(f64::NAN), "1");
        assert_eq!(json_f64(f64::INFINITY), e308);
        assert_eq!(json_f64(f64::NEG_INFINITY), format!("-{e308}"));
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn table_digits_match_display() {
        let digits = |n: u128| {
            let mut out = String::new();
            push_u128(&mut out, "k", n);
            if let Ok(n) = u64::try_from(n) {
                let mut narrow = String::new();
                push_u64(&mut narrow, "k", n);
                assert_eq!(narrow, out, "{n}");
            }
            out
        };
        let mut edges = vec![0, 9, 10, 99, 100, u128::from(u64::MAX), u128::from(u64::MAX) + 1];
        let mut power = 1_u128;
        while let Some(next) = power.checked_mul(10) {
            edges.extend([next - 1, next]);
            power = next;
        }
        edges.push(u128::MAX);
        for n in edges {
            assert_eq!(digits(n), format!("k{n}"));
        }
        // Random values at every digit count of both widths.
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        for _ in 0..20_000 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let narrow = u128::from(a >> (b % 64));
            let wide = (u128::from(a) << 64 | u128::from(b)) >> (rng.next_u64() % 128);
            assert_eq!(digits(narrow), format!("k{narrow}"));
            assert_eq!(digits(wide), format!("k{wide}"));
        }
    }

    #[test]
    fn unescaped_strings_copy_as_the_escape_loop_writes_them() {
        let loop_rendering = |s: &str| {
            let mut out = String::from("\"");
            push_escaped(&mut out, s);
            out + "\""
        };
        let ascii = (0..=0x7f_u8).map(|b| format!("a{}z", char::from(b)));
        let others = ["", "plain", "\"", "\\", "tab\there", "\u{1f}", "caf\u{e9}", "\u{1f600} ok"];
        let strings: Vec<String> = ascii.chain(others.map(str::to_owned)).collect();
        for s in &strings {
            assert_eq!(json_string(s), loop_rendering(s), "{s:?}");
        }
        // The same strings in each string field of a trial line read back.
        for s in &strings {
            let mut t = populated_trial();
            t.label.clone_from(s);
            t.panic = Some(s.clone());
            t.failure_causes = vec![s.clone(), s.clone()];
            let line = trial_json(&t);
            let read = read_exact(&line, read_trial, trial_json).expect("the line reads back");
            assert_eq!((&read.label, read.panic.as_ref()), (s, Some(s)));
            assert_eq!(read.failure_causes, [s.clone(), s.clone()]);
        }
    }

    /// A trial whose line has every field populated: a panic text that
    /// needs escaping, two failure causes, both level fields, quanta past
    /// `u64::MAX` and a nonzero count for every fault kind.
    fn populated_trial() -> TrialResult {
        let q = EnergyQuanta::new;
        let past = u128::from(u64::MAX) + 1;
        let mut t = TrialResult {
            index: 1_000_003,
            app: "FFT",
            label: "Aggr \u{e9}".to_owned(),
            seed: u64::MAX - 6,
            error: 0.031_25,
            output: None,
            stats: Stats {
                int_approx_ops: 1_234_567_890_123,
                int_precise_ops: 42,
                fp_approx_ops: 9,
                fp_precise_ops: 100,
                sram_approx_quanta: q(past),
                sram_precise_quanta: q(99),
                // Baseline DRAM energy past `i128::MAX`, the top of the
                // parser's signed integers.
                dram_approx_quanta: q((u128::MAX >> 1) / SAVINGS_SCALE + 1),
                dram_precise_quanta: q(10),
            },
            energy_quanta: EnergyQuantaBreakdown::ZERO,
            wall: Duration::from_micros(2_500_001),
            panic: Some("index out of bounds: the \"len\" is 3\nbut the index is 7".to_owned()),
            fault_counts: FaultCounters::from_counts(std::array::from_fn(|i| KindCount {
                injections: 10 * i as u64 + 1,
                bits_flipped: 1000 * i as u64 + 3,
            })),
            events: Vec::new(),
            attempts: 3,
            recovered_at_level: Some("Precise".to_owned()),
            failure_causes: vec!["qos: error 0.5 > 0.1".to_owned(), "panic: overflow".to_owned()],
            recovery_energy_overhead_quanta: q(past + 2),
            scheduled_level: Some("Medium".to_owned()),
        };
        t.energy_quanta = energy_quanta(&t.stats, &ApproxParams::MEDIUM);
        t
    }

    #[test]
    fn populated_trial_line_is_pinned() {
        let line = trial_json(&populated_trial());
        assert_eq!(line, PINNED_TRIAL_LINE);
        read_exact(&line, read_trial, trial_json).expect("the line reads back");
    }

    /// [`populated_trial`]'s line, pinned byte for byte.
    const PINNED_TRIAL_LINE: &str = r#"{"index":1000003,"app":"FFT","label":"Aggr é","seed":18446744073709551609,"error":0.03125,"wall_seconds":2.500001,"panic":"index out of bounds: the \"len\" is 3\nbut the index is 7","attempts":3,"recovered_at_level":"Precise","scheduled_level":"Medium","failure_causes":["qos: error 0.5 > 0.1","panic: overflow"],"recovery_energy_overhead_quanta":18446744073709551618,"stats":{"int_approx_ops":1234567890123,"int_precise_ops":42,"fp_approx_ops":9,"fp_precise_ops":100,"sram_approx_quanta":18446744073709551616,"sram_precise_quanta":99,"dram_approx_quanta":17014118346046923173168730371588411,"dram_precise_quanta":10},"energy_quanta":{"instructions":416049379029327400,"sram":36893488147419104222000,"dram":132710123099166000750716096898389705800},"fault_counts":{"sram-read-upset":{"injections":1,"bits_flipped":3},"sram-write-failure":{"injections":11,"bits_flipped":1003},"dram-decay":{"injections":21,"bits_flipped":2003},"int-timing":{"injections":31,"bits_flipped":3003},"fp-timing":{"injections":41,"bits_flipped":4003}}}"#;

    /// A trial with every optional member at its default, shaped like an
    /// `ndjson` benchmark line: one fault-free Medium attempt of 16
    /// approximate FP ops over a 512-point input.
    fn default_trial() -> TrialResult {
        let q = EnergyQuanta::new;
        let stats = Stats {
            int_approx_ops: 0,
            int_precise_ops: 1_541,
            fp_approx_ops: 16,
            fp_precise_ops: 2_048,
            sram_approx_quanta: q(1_024),
            sram_precise_quanta: q(65_536),
            dram_approx_quanta: q(0),
            dram_precise_quanta: q(1_048_576),
        };
        TrialResult {
            label: "Medium".to_owned(),
            seed: FAULT_SEED_BASE ^ (1 << 32 | 85_000),
            error: 0.000_123,
            stats,
            energy_quanta: energy_quanta(&stats, &ApproxParams::MEDIUM),
            wall: Duration::from_nanos(1_700),
            attempts: 1,
            ..TrialResult::new(85_000, &TrialSpec::reference(&app("FFT")))
        }
    }

    #[test]
    fn default_trial_line_is_pinned() {
        let line = trial_json(&default_trial());
        assert_eq!(line, PINNED_DEFAULT_LINE);
        read_exact(&line, read_trial, trial_json).expect("the line reads back");
    }

    /// [`default_trial`]'s line, pinned byte for byte: no optional member,
    /// the three scaled energy components and an empty `fault_counts`.
    const PINNED_DEFAULT_LINE: &str = r#"{"index":85000,"app":"FFT","label":"Medium","seed":5806386201,"error":0.000123,"wall_seconds":0.000002,"attempts":1,"stats":{"int_approx_ops":0,"int_precise_ops":1541,"fp_approx_ops":16,"fp_precise_ops":2048,"sram_approx_quanta":1024,"sram_precise_quanta":65536,"dram_approx_quanta":0,"dram_precise_quanta":1048576},"energy_quanta":{"instructions":1393523600,"sram":657408000,"dram":10485760000},"fault_counts":{}}"#;

    /// A report of [`default_trial`], with `from` (in the trial) replaced
    /// by `to`, fails to read with an error starting `expect`.
    #[test]
    fn rejects_explicit_defaults_and_derived_energy() {
        let t = default_trial();
        let text = CampaignReport::from_trials(vec![t.clone()], Duration::ZERO, 1).to_json();
        let rerendered = "not the writer's rendering";
        // An explicit default is not the writer's rendering: a `null` is no
        // string, and every other default is omitted on re-rendering.
        for key in ["panic", "recovered_at_level", "scheduled_level"] {
            let null = format!("\"attempts\":1,\"{key}\":null");
            rejects(&text, "\"attempts\":1", &null, &format!("trials[0].{key}: not a string"));
        }
        let causes = "\"attempts\":1,\"failure_causes\":[]";
        rejects(&text, "\"attempts\":1", causes, rerendered);
        let overhead = ",\"recovery_energy_overhead_quanta\":0,\"stats\":";
        rejects(&text, ",\"stats\":", overhead, rerendered);
        let counts = "\"fault_counts\":{";
        for kind in FaultKind::ALL.iter().map(|k| k.name()).chain(["dram-rot"]) {
            let zero = format!("{counts}\"{kind}\":{{\"injections\":0,\"bits_flipped\":0}}");
            rejects(&text, counts, &zero, rerendered);
        }
        // The five derived energy fields are rejected even at their
        // derived values.
        let q = &t.energy_quanta;
        for (key, value) in [
            ("baseline_instructions", q.baseline_instructions),
            ("baseline_sram", q.baseline_sram),
            ("baseline_dram", q.baseline_dram),
            ("total", q.total),
            ("baseline_total", q.baseline_total),
        ] {
            let energy = "\"energy_quanta\":{\"instructions\":";
            let stored = format!("\"energy_quanta\":{{\"{key}\":{value},\"instructions\":");
            rejects(&text, energy, &stored, rerendered);
        }
        assert!(CampaignReport::from_json(&text).is_ok(), "the unedited report reads back");
    }

    /// A seeded trial whose optional members are each drawn at their
    /// default or not: a clean, recovered, degraded or panicked attempt
    /// ledger, zero and nonzero fault kinds, and energy within the
    /// baselines its statistics give.
    fn random_trial(rng: &mut rand::rngs::StdRng, index: usize) -> TrialResult {
        let mut draw = |n: u64| rng.next_u64() % n;
        let apps = ["FFT", "SOR", "MonteCarlo", "SparseMatMult", "LU"];
        let labels = ["Mild", "Aggressive", "reference", "a \"quoted\"\nlabel", ""];
        let params = [ApproxParams::PRECISE, ApproxParams::MILD, ApproxParams::AGGRESSIVE];
        let q = |x: u64| EnergyQuanta::new(u128::from(x));
        let mut spec = TrialSpec::reference(&app(apps[draw(5) as usize]));
        spec.label = labels[draw(5) as usize].to_owned();
        spec.seed = draw(u64::MAX);
        if draw(2) == 0 {
            spec.scheduled_level = Some(SchedLevel::ALL[draw(4) as usize].name().to_owned());
        }
        let wall = Duration::from_micros(draw(10_000_000));
        // 0 clean, 1 recovered, 2 degraded, 3 panicked.
        let outcome = draw(4);
        if outcome == 3 {
            let msg = format!("index out of bounds: the len is {}", draw(100));
            return TrialResult::crashed(index, &spec, wall, msg);
        }
        let error = [0.0, 1.0, 0.25, 1.0 / 3.0][draw(4) as usize];
        let mut t = TrialResult { error, wall, ..TrialResult::new(index, &spec) };
        t.stats = Stats {
            int_approx_ops: draw(1 << 20),
            int_precise_ops: draw(1 << 20),
            fp_approx_ops: draw(1 << 20),
            fp_precise_ops: draw(1 << 20),
            sram_approx_quanta: q(draw(1 << 40)),
            sram_precise_quanta: q(draw(1 << 40)),
            dram_approx_quanta: q(draw(1 << 40)),
            dram_precise_quanta: q(draw(1 << 40)),
        };
        t.energy_quanta = energy_quanta(&t.stats, &params[draw(3) as usize]);
        t.fault_counts = FaultCounters::from_counts(std::array::from_fn(|_| match draw(3) {
            0 => KindCount::default(),
            1 => KindCount { injections: draw(1000) + 1, bits_flipped: draw(64_000) },
            _ => KindCount { injections: draw(1000) + 1, bits_flipped: 0 },
        }));
        let causes = if outcome == 0 { 0 } else { 1 + draw(3) };
        t.failure_causes = (0..causes).map(|i| format!("qos: attempt {i}")).collect();
        t.attempts = t.failure_causes.len() as u32 + u32::from(outcome != 2);
        if outcome == 1 {
            t.recovered_at_level = Some(["Precise", "Mild"][draw(2) as usize].to_owned());
        }
        if draw(2) == 0 {
            t.recovery_energy_overhead_quanta =
                EnergyQuanta::new(t.energy_quanta.total.get() / (1 + u128::from(draw(4))));
        }
        t
    }

    /// `read(write(t))` is `t`, field by field, and re-renders to the same
    /// bytes, for every default and non-default member.
    #[test]
    fn seeded_trials_round_trip_field_by_field() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut omitted = [0usize; 6];
        for index in 0..2_000 {
            let t = random_trial(&mut rng, index);
            let line = trial_json(&t);
            let r =
                read_exact(&line, read_trial, trial_json).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(trial_json(&r), line);
            assert_eq!((r.index, r.app, &r.label, r.seed), (t.index, t.app, &t.label, t.seed));
            assert_eq!(
                (r.error.to_bits(), r.wall, &r.panic),
                (t.error.to_bits(), t.wall, &t.panic)
            );
            assert_eq!(
                (r.stats, r.energy_quanta, r.fault_counts),
                (t.stats, t.energy_quanta, t.fault_counts)
            );
            assert_eq!((r.attempts, &r.recovered_at_level), (t.attempts, &t.recovered_at_level));
            assert_eq!(
                (&r.failure_causes, &r.scheduled_level),
                (&t.failure_causes, &t.scheduled_level)
            );
            assert_eq!(r.recovery_energy_overhead_quanta, t.recovery_energy_overhead_quanta);
            let keys = [
                "\"panic\"",
                "\"recovered_at_level\"",
                "\"scheduled_level\"",
                "\"failure_causes\"",
                "\"recovery_energy_overhead_quanta\"",
                "\"dram-decay\"",
            ];
            for (n, key) in omitted.iter_mut().zip(keys) {
                *n += usize::from(!line.contains(key));
            }
        }
        // Every member was drawn both at its default and away from it.
        assert!(omitted.iter().all(|&n| n > 100 && n < 1_900), "{omitted:?}");
    }

    #[test]
    fn u128_max_quanta_read_back() {
        // The largest baseline a trial can hold: a multiple of the savings
        // scale, 1455 below `u128::MAX`.
        let mut t = populated_trial();
        t.stats = Stats {
            dram_approx_quanta: EnergyQuanta::new(u128::MAX / SAVINGS_SCALE),
            ..Stats::new()
        };
        t.energy_quanta = energy_quanta(&t.stats, &ApproxParams::PRECISE);
        let line = trial_json(&t);
        // Precise DRAM storage spends exactly its baseline.
        let top = u128::MAX - 1455;
        assert!(line.contains(&format!("\"dram\":{top}")), "{line}");
        let read = read_exact(&line, read_trial, trial_json).expect("the line reads back");
        assert_eq!(read.energy_quanta, t.energy_quanta);
        // One more quantum of storage and the baselines overflow: an error,
        // not a panic.
        t.stats.dram_precise_quanta = EnergyQuanta::new(1);
        let err = read_exact(&trial_json(&t), read_trial, trial_json).unwrap_err();
        assert_eq!(err.to_string(), "energy_quanta: the statistics' baselines overflow");
    }

    /// `{:.6}` of `d.as_secs_f64()`: the rendering [`push_wall`] reproduces.
    fn float_wall(d: Duration) -> String {
        format!("k{:.6}", d.as_secs_f64())
    }

    fn wall(d: Duration) -> String {
        let mut out = String::new();
        push_wall(&mut out, "k", d);
        out
    }

    #[test]
    fn integer_wall_matches_the_float_rendering() {
        assert_eq!(wall(Duration::ZERO), "k0.000000");
        let mut rng = rand::rngs::StdRng::seed_from_u64(28);
        let check = |d: Duration| assert_eq!(wall(d), float_wall(d), "{d:?}");
        // Every nanosecond of the first 200 µs.
        (0..200_000).for_each(|n| check(Duration::from_nanos(n)));
        // ±2 ns around the ties of the first 10 ms, of each whole second up
        // to 10 s and of 20,000 random microseconds below 10 s.
        let ties = (0..10_000)
            .chain((1..=10).flat_map(|s| [s * 1_000_000 - 1, s * 1_000_000]))
            .chain((0..20_000).map(|_| rng.next_u64() % 10_000_000));
        for micros in ties.collect::<Vec<_>>() {
            for off in -2..=2_i64 {
                check(Duration::from_nanos((micros * 1000 + 500).saturating_add_signed(off)));
            }
        }
        // Random durations up to 10^7 s, of every digit count.
        for _ in 0..100_000 {
            let secs = rng.next_u64() % 10_u64.pow((rng.next_u64() % 8) as u32);
            check(Duration::new(secs, (rng.next_u64() % 1_000_000_000) as u32));
        }
        // The 10^6 s edge: the last integer rendering, the carry into it
        // and the first `core::fmt` one.
        for (secs, nanos) in [(999_999, 999_999_499), (999_999, 999_999_501), (1_000_000, 0)] {
            check(Duration::new(secs, nanos));
        }
        // At 10^9 s the f64 steps by 119 ns: rounding the integers there
        // would differ from the float.
        (0..1000).for_each(|nanos| check(Duration::new(1_000_000_000, nanos)));
    }

    fn display(x: f64) -> String {
        format!("k{x}")
    }

    fn memo(x: f64) -> String {
        let mut out = String::new();
        push_json_f64(&mut out, "k", x);
        out
    }

    #[test]
    fn memoized_floats_match_display() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(28);
        // Cold, then warm: a hit copies exactly the miss's text.
        for _ in 0..100_000 {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                let cold = memo(x);
                assert_eq!((&cold, memo(x)), (&display(x), cold.clone()), "{:#x}", x.to_bits());
            }
        }
        // Values that share a slot evict each other and still render right.
        let slot = f64_slot(0.5_f64.to_bits());
        let mates: Vec<f64> = (1..u64::MAX)
            .map(|b| f64::from_bits(0.5_f64.to_bits() + b))
            .filter(|x| f64_slot(x.to_bits()) == slot)
            .take(3)
            .collect();
        for _ in 0..2 {
            for &x in mates.iter().chain([0.5].iter()) {
                assert_eq!(memo(x), display(x));
            }
        }
        // Signed zero, subnormals and the clamped non-finite values.
        let edges = [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, -5e-324, f64::MAX, f64::MIN];
        for x in edges.into_iter().chain([f64::from_bits(1 << 51)]) {
            assert_eq!((memo(x), memo(x)), (display(x), display(x)), "{:#x}", x.to_bits());
        }
        for (x, clamped) in
            [(f64::NAN, 1.0), (-f64::NAN, 1.0), (f64::INFINITY, 1e308), (f64::NEG_INFINITY, -1e308)]
        {
            assert_eq!((memo(x), memo(x)), (display(clamped), display(clamped)));
        }
    }

    #[test]
    fn level_campaign_matches_serial_mean_error() {
        let apps = [app("MonteCarlo")];
        let report =
            run_level_campaign(&apps, &[Level::Mild], 3, &CampaignOptions::with_threads(2));
        let reference = harness::reference(&apps[0]).output;
        let mut total = 0.0;
        for run in 0..3 {
            let m = harness::measure_with_telemetry(
                &apps[0],
                HwConfig::for_level(Level::Mild),
                FAULT_SEED_BASE ^ run,
                false,
            );
            total += output_error(apps[0].meta.metric, &reference, &m.output);
        }
        let parallel = report.mean_error_for("MonteCarlo", "Mild");
        assert_eq!((total / 3.0).to_bits(), parallel.to_bits());
    }

    #[test]
    fn grid_indices_and_coordinates_are_a_bijection() {
        let apps = [app("FFT"), app("SOR"), app("LU")];
        let grid = Grid::levels(&apps, &[Level::Mild, Level::Aggressive], 5, FAULT_SEED_BASE);
        assert_eq!(grid.len(), 3 * 2 * 5);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..grid.len() {
            let (a, arm, run) = grid.coordinates(i);
            assert!(a < 3 && arm < 2 && run < 5, "trial {i}: ({a}, {arm}, {run})");
            // App-major, then arm, then run.
            assert_eq!((a * 2 + arm) * 5 + run as usize, i);
            assert!(seen.insert((a, arm, run)), "trial {i} repeats ({a}, {arm}, {run})");
            let spec = grid.spec(i);
            assert_eq!(spec.app.meta.name, apps[a].meta.name);
            assert_eq!(spec.label, grid.arms()[arm].0);
            assert_eq!(spec.seed, FAULT_SEED_BASE ^ run);
        }
        assert_eq!(seen.len(), grid.len());
        assert_eq!(grid.specs().count(), grid.len());
    }

    /// One chaos-recovery campaign per thread count in {1, 2, 4, 8},
    /// computed once and shared across proptest cases.
    fn shared_thread_reports() -> &'static Vec<(usize, CampaignReport)> {
        use std::sync::OnceLock;
        static REPORTS: OnceLock<Vec<(usize, CampaignReport)>> = OnceLock::new();
        REPORTS.get_or_init(|| {
            let specs = mc_specs(4, "chaos", recovery::chaos_config(25.0), Some(0.01));
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
