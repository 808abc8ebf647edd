//! The campaign report (`schema: "enerj-campaign/7"`) and its fault log:
//! the in-memory [`CampaignReport`], the writer that renders both, and the
//! reader that accepts exactly the writer's bytes.

use std::fmt::{self, Write as _};
use std::time::Duration;

use super::engine::Totals;
use super::{
    collect_in_memory, run_campaign_streamed, CampaignOptions, CampaignSummary, SpecSource,
    TrialResult,
};
use crate::json::Json;
use crate::scheduler::SchedLevel;
use enerj_hw::config::ApproxParams;
use enerj_hw::energy::{energy_quanta, EnergyQuantaBreakdown};
use enerj_hw::quanta::{EnergyQuanta, SAVINGS_SCALE};
use enerj_hw::stats::Stats;
use enerj_hw::telemetry::KindCount;
use enerj_hw::trace::{FaultEvent, FaultKind};
use enerj_hw::FaultCounters;

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
    /// [`VecSink`](super::VecSink). Campaigns too large to hold in memory
    /// should stream to an [`NdjsonSink`](super::NdjsonSink) instead.
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
/// array and the line format of [`NdjsonSink`](super::NdjsonSink) (one
/// object per line, so a streamed campaign's output is the report's trial
/// array, un-bracketed).
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
pub(super) fn push_u64(out: &mut String, key: &str, mut n: u64) {
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
pub(super) fn push_u128(out: &mut String, key: &str, n: u128) {
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
pub(super) fn push_escaped(out: &mut String, s: &str) {
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
pub(super) fn push_json_f64(out: &mut String, key: &str, x: f64) {
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
    /// the slot's entry. A trial line's one float is its `error`, which a
    /// stream repeats within an (app, level) cell: every fault-free run
    /// scores 0. (A fault-log line's `time` almost always misses.) The
    /// bytes are the same without the memo; what it saves on the `ndjson`
    /// benchmark is unresolved (EXPERIMENTS.md, "Float memo").
    static F64_TEXT: std::cell::RefCell<[(u64, String); F64_SLOTS]> =
        const { std::cell::RefCell::new([const { (EMPTY_SLOT, String::new()) }; F64_SLOTS]) };
}

/// The [`F64_TEXT`] slot of `bits`: the top bits of a Fibonacci hash, so
/// values that differ only in their low mantissa bits spread out.
pub(super) fn f64_slot(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - F64_SLOTS.ilog2())) as usize
}

/// Appends `key` and `d` in seconds as `{:.6}` renders `d.as_secs_f64()`,
/// from `d`'s integer seconds and nanoseconds. Below 10^6 s that f64 is
/// within 0.12 ns of `d`, while `d` is at least 1 ns from the nearest
/// rounding boundary unless its sub-microsecond rest is exactly 500 ns:
/// both round to the same microsecond. That tie and longer durations take
/// `core::fmt`.
pub(super) fn push_wall(out: &mut String, key: &str, d: Duration) {
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
pub(super) fn read_trial(f: &Field<'_>) -> Result<TrialResult, ReadError> {
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
