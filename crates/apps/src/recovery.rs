//! QoS-guarded recovery: watchdogs, checked results and precision-escalation
//! retries.
//!
//! The paper's protocol accepts whatever a fault-injected run produces —
//! a crashed run scores worst-case error and that is the end of it.
//! Significance-aware runtimes instead *check* each result and re-execute
//! failed work at higher precision, paying the recovery energy honestly.
//! This module is that quality-control layer for trial campaigns:
//!
//! 1. Every attempt runs under a watchdog
//!    ([`Runtime::run_guarded`](enerj_core::Runtime::run_guarded)), so a
//!    fault-corrupted loop terminates deterministically instead of hanging
//!    a worker thread.
//! 2. A completed attempt must pass the app's reference-free sanity check
//!    ([`App::check`](crate::App)) and, when the trial has a reference and
//!    the policy a threshold, a QoS estimate ([`output_error`]).
//! 3. A failed attempt is re-executed down the [`Policy`] ladder —
//!    typically Aggressive → Mild → Precise — with a fresh, provably
//!    disjoint retry seed per attempt. The Precise rung runs the reference
//!    configuration and therefore *cannot* miss: it is the guaranteed
//!    backstop that bounds degradation.
//!
//! Accounting is honest: the recovered trial's statistics, fault counters
//! and normalized energy are the *sums over every attempt*, including the
//! partial work of attempts that tripped the watchdog or panicked — so a
//! recovered trial can cost more than the precise baseline, and the
//! reported energy savings never hide the price of recovery. The
//! ladder-walk is a pure function of the trial's spec, so recovery-enabled
//! campaigns stay bit-identical at any thread count.

use std::fmt;

use crate::harness::{self, FAULT_SEED_BASE};
use crate::qos::{output_error, Output};
use crate::App;
use enerj_core::{Degraded, Runtime};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::{EnergyBreakdown, EnergyQuantaBreakdown};
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::trace::FaultEvent;
use enerj_hw::FaultCounters;

/// Base pattern for *recovery retry* seeds: bit 63 clear, bit 62 set.
///
/// The three seed streams partition the top two bits: evaluation seeds
/// (`FAULT_SEED_BASE ^ i`, indices below `2^62`) have both clear, tuner
/// seeds ([`TUNER_SEED_BASE`](crate::harness::TUNER_SEED_BASE)) have bit 63
/// set, and every retry seed has exactly bit 62 set. A retry therefore
/// never replays a fault sequence that any evaluation or profiling run has
/// seen or will see — pinned by a property test.
pub const RETRY_SEED_BASE: u64 = FAULT_SEED_BASE | (1 << 62);

/// The retry seed for attempt `attempt` (1-based: the initial attempt uses
/// the trial's own seed) of a trial seeded with `trial_seed`.
///
/// A SplitMix64-style mix decorrelates retries of neighbouring trials, and
/// the top two bits are then forced to the retry pattern (bit 63 clear,
/// bit 62 set), keeping the stream disjoint from the evaluation and tuner
/// streams by construction.
pub fn retry_seed(trial_seed: u64, attempt: u32) -> u64 {
    let mut z = trial_seed ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Force bits 63..62 to the retry stream's `01` pattern.
    (z & !(1 << 63)) | (1 << 62)
}

/// One rung of the precision-escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Re-run under full fault injection at a Table 2 level.
    Level(Level),
    /// Re-run at the reference configuration (Medium parameters, every
    /// strategy masked off). Its output *is* the reference output, so this
    /// rung always passes every check — the guaranteed backstop.
    Precise,
}

impl Rung {
    /// The hardware configuration this rung runs under.
    pub fn config(self) -> HwConfig {
        match self {
            Rung::Level(level) => HwConfig::for_level(level),
            Rung::Precise => harness::reference_config(),
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rung::Level(level) => write!(f, "{level}"),
            Rung::Precise => f.write_str("Precise"),
        }
    }
}

/// Why one attempt was rejected. Serialized (via `Display`) into
/// [`TrialResult::failure_causes`](crate::trials::TrialResult) so crash
/// triage and `faultscope` breakdowns need no re-run.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The attempt panicked (message truncated by
    /// [`enerj_core::panic_message`]).
    Panic(String),
    /// The watchdog terminated the attempt.
    OpBudgetExceeded {
        /// Op-ticks elapsed when the watchdog tripped.
        op_ticks: u64,
        /// The armed budget.
        budget: u64,
    },
    /// The app's reference-free sanity check rejected the output.
    CheckFailed(String),
    /// The QoS estimate against the reference exceeded the threshold.
    QosExceeded {
        /// The estimated output error.
        error: f64,
        /// The policy's threshold.
        threshold: f64,
    },
}

impl FailureCause {
    /// The stable cause category (`panic`, `op-budget`, `check`, `qos`) —
    /// the vocabulary `faultscope --causes` aggregates over.
    pub fn category(&self) -> &'static str {
        match self {
            FailureCause::Panic(_) => "panic",
            FailureCause::OpBudgetExceeded { .. } => "op-budget",
            FailureCause::CheckFailed(_) => "check",
            FailureCause::QosExceeded { .. } => "qos",
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::OpBudgetExceeded { op_ticks, budget } => {
                write!(f, "op-budget: {op_ticks} ticks, budget {budget}")
            }
            FailureCause::CheckFailed(msg) => write!(f, "check: {msg}"),
            FailureCause::QosExceeded { error, threshold } => {
                write!(f, "qos: error {error:.4} > threshold {threshold}")
            }
        }
    }
}

/// How failed trials are retried.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Escalation rungs tried in order after the initial attempt fails.
    /// Empty means "detect failures, never retry" (useful for telemetry).
    pub ladder: Vec<Rung>,
    /// Per-attempt op-tick budget for the watchdog; `None` runs unguarded
    /// (panics are still contained).
    pub max_ops: Option<u64>,
    /// Retry when the output error against the trial's reference exceeds
    /// this. Ignored for trials without a reference.
    pub qos_threshold: Option<f64>,
}

impl Policy {
    /// Default per-attempt op budget: far above any suite app's full run
    /// (the largest, FFT, completes in under 2 M op-ticks), so only a
    /// genuinely runaway loop trips it.
    pub const DEFAULT_MAX_OPS: u64 = 50_000_000;

    /// The standard ladder: retry once at Mild, then fall back to Precise.
    /// QoS threshold 0.1 (the "acceptable degradation" line used by the
    /// recovery bench), watchdog at [`Policy::DEFAULT_MAX_OPS`].
    pub fn standard() -> Self {
        Policy {
            ladder: vec![Rung::Level(Level::Mild), Rung::Precise],
            max_ops: Some(Policy::DEFAULT_MAX_OPS),
            qos_threshold: Some(0.1),
        }
    }
}

/// The Aggressive configuration with fault probabilities scaled by
/// `amplify` (saturating at probability 0.5 per event) — the *chaos*
/// substrate the recovery bench uses to generate enough failures to
/// measure recovery behaviour. `amplify = 1.0` is plain Aggressive.
pub fn chaos_config(amplify: f64) -> HwConfig {
    assert!(amplify >= 1.0 && amplify.is_finite(), "amplification must be >= 1, got {amplify}");
    let mut cfg = HwConfig::for_level(Level::Aggressive);
    let p = &mut cfg.params;
    p.sram_read_upset_prob = (p.sram_read_upset_prob * amplify).min(0.5);
    p.sram_write_failure_prob = (p.sram_write_failure_prob * amplify).min(0.5);
    p.timing_error_prob = (p.timing_error_prob * amplify).min(0.5);
    p.dram_flip_per_second *= amplify;
    cfg
}

/// Everything one recovered trial produced, summed over its attempts.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The final attempt's output, if it completed (a trial whose last
    /// rung still panicked or tripped the watchdog has none).
    pub output: Option<Output>,
    /// Output error of the final attempt (worst-case 1.0 when it did not
    /// complete; 0.0 for trials without a reference).
    pub error: f64,
    /// Statistics merged over every attempt, including partial work.
    pub stats: Stats,
    /// Normalized energy summed over every attempt — may exceed 1.0; the
    /// price of recovery is charged, not hidden.
    pub energy: EnergyBreakdown,
    /// Exact integer energy summed over every attempt. Quanta addition is
    /// associative, so this total is independent of attempt interleaving
    /// and merge order.
    pub energy_quanta: EnergyQuantaBreakdown,
    /// Fault counters merged over every attempt.
    pub fault_counts: FaultCounters,
    /// Fault events of every attempt, in attempt order (empty unless the
    /// campaign logs events).
    pub events: Vec<FaultEvent>,
    /// Attempts executed (1 = no retry was needed).
    pub attempts: u32,
    /// The rung that produced the accepted output, when recovery was
    /// needed and succeeded (`None` if the initial attempt passed, or if
    /// every rung failed).
    pub recovered_at: Option<Rung>,
    /// Why each failed attempt was rejected, in attempt order.
    pub failure_causes: Vec<FailureCause>,
    /// Energy spent on attempts that did not produce the accepted output:
    /// `energy.total` minus the final attempt's total.
    pub recovery_energy_overhead: f64,
    /// The same overhead in exact quanta: `energy_quanta.total` minus the
    /// accepted attempt's quanta total. The accounting identity
    /// `accepted + overhead == energy_quanta.total` holds *exactly*, which
    /// the f64 twin cannot promise.
    pub recovery_energy_overhead_quanta: EnergyQuanta,
}

impl Recovered {
    /// Whether the accepted output came from a retry rung.
    pub fn recovered(&self) -> bool {
        self.recovered_at.is_some()
    }
}

/// One attempt: run, guard, check, estimate.
struct Attempt {
    output: Option<Output>,
    error: f64,
    energy_total: f64,
    energy_quanta_total: EnergyQuanta,
    failure: Option<FailureCause>,
}

fn run_attempt(
    app: &App,
    cfg: HwConfig,
    seed: u64,
    policy: &Policy,
    reference: Option<&Output>,
    log_events: bool,
    acc: &mut Recovered,
) -> Attempt {
    let rt = Runtime::with_config(cfg, seed);
    if log_events {
        rt.enable_fault_log();
    }
    let outcome = rt.run_guarded(policy.max_ops.unwrap_or(u64::MAX), app.run);
    // Charge the attempt whether or not it completed: a watchdog trip or a
    // panic still executed (and must pay for) its partial work.
    let energy = rt.energy();
    let energy_quanta = rt.energy_quanta();
    acc.stats.merge(&rt.stats());
    acc.energy.instructions += energy.instructions;
    acc.energy.sram += energy.sram;
    acc.energy.dram += energy.dram;
    acc.energy.total += energy.total;
    acc.energy_quanta.merge(&energy_quanta);
    acc.fault_counts.merge(&rt.fault_counters());
    acc.events.extend(rt.take_fault_events());
    acc.attempts += 1;

    let (output, error, failure) = match outcome {
        Ok(output) => {
            if let Err(msg) = (app.check)(&output) {
                (Some(output), 1.0, Some(FailureCause::CheckFailed(msg)))
            } else {
                let error = match reference {
                    Some(reference) => output_error(app.meta.metric, reference, &output),
                    None => 0.0,
                };
                let failure = match (policy.qos_threshold, reference) {
                    (Some(threshold), Some(_)) if error > threshold => {
                        Some(FailureCause::QosExceeded { error, threshold })
                    }
                    _ => None,
                };
                (Some(output), error, failure)
            }
        }
        Err(Degraded::OpBudgetExceeded { op_ticks, budget }) => {
            (None, 1.0, Some(FailureCause::OpBudgetExceeded { op_ticks, budget }))
        }
        Err(Degraded::Panicked(msg)) => (None, 1.0, Some(FailureCause::Panic(msg))),
    };
    Attempt {
        output,
        error,
        energy_total: energy.total,
        energy_quanta_total: energy_quanta.total,
        failure,
    }
}

/// Runs one trial under `policy`: the initial attempt at `cfg`/`seed`,
/// then — on a panic, watchdog trip, failed check or QoS breach — one
/// attempt per ladder rung with retry seeds from [`retry_seed`], stopping
/// at the first attempt that passes. Deterministic: the outcome is a pure
/// function of the arguments. Every attempt of the ladder draws its input
/// buffers from the thread's [`workload`](crate::workload) cache, so a
/// recovered trial regenerates nothing.
pub fn run_with_recovery(
    app: &App,
    cfg: HwConfig,
    seed: u64,
    policy: &Policy,
    reference: Option<&Output>,
    log_events: bool,
) -> Recovered {
    let mut acc = Recovered {
        output: None,
        error: 1.0,
        stats: Stats::new(),
        energy: EnergyBreakdown { instructions: 0.0, sram: 0.0, dram: 0.0, total: 0.0 },
        energy_quanta: EnergyQuantaBreakdown::ZERO,
        fault_counts: FaultCounters::new(),
        events: Vec::new(),
        attempts: 0,
        recovered_at: None,
        failure_causes: Vec::new(),
        recovery_energy_overhead: 0.0,
        recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
    };

    let mut attempt = run_attempt(app, cfg, seed, policy, reference, log_events, &mut acc);
    if attempt.failure.is_some() {
        for (k, rung) in policy.ladder.iter().enumerate() {
            acc.failure_causes.push(attempt.failure.take().expect("looping on a failure"));
            attempt = run_attempt(
                app,
                rung.config(),
                retry_seed(seed, k as u32 + 1),
                policy,
                reference,
                log_events,
                &mut acc,
            );
            if attempt.failure.is_none() {
                acc.recovered_at = Some(*rung);
                break;
            }
        }
        if let Some(cause) = attempt.failure.take() {
            // Every rung failed: the trial degrades to worst case, with
            // the full cause chain on record.
            acc.failure_causes.push(cause);
            acc.output = None;
            acc.error = 1.0;
            // No attempt was accepted, so no energy is attributable to
            // *recovery* — the whole cost is the trial's energy itself.
            acc.recovery_energy_overhead = 0.0;
            acc.recovery_energy_overhead_quanta = EnergyQuanta::ZERO;
            return acc;
        }
    }
    acc.error = attempt.error;
    acc.output = attempt.output;
    acc.recovery_energy_overhead = acc.energy.total - attempt.energy_total;
    // Exact: `accepted + overhead == total` round-trips in u128.
    acc.recovery_energy_overhead_quanta = acc.energy_quanta.total - attempt.energy_quanta_total;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, TUNER_SEED_BASE};
    use crate::{all_apps, no_check};

    fn app(name: &str) -> App {
        crate::app(name).expect("registered")
    }

    /// A test app whose loop bound is an endorsed approximate value: under
    /// the `looping` chaos config below it reliably runs away, which is
    /// the failure mode precise loop bounds make rare in the real suite.
    fn runaway_app() -> App {
        fn run() -> Output {
            use enerj_core::{endorse, Approx};
            // Under fault injection the endorsed bound can be enormous.
            let bound = endorse(Approx::new(1000i64) * 1);
            let mut acc = Approx::new(0.0f64);
            let mut i = 0i64;
            while i < bound {
                acc += 1.0;
                i += 1;
            }
            Output::Values(vec![endorse(acc)])
        }
        App { meta: crate::scimark::montecarlo::meta(), run, check: no_check }
    }

    #[test]
    fn retry_seeds_carry_the_stream_pattern() {
        for trial_seed in [0u64, FAULT_SEED_BASE, FAULT_SEED_BASE ^ 12345, u64::MAX >> 2] {
            for attempt in 1..5u32 {
                let s = retry_seed(trial_seed, attempt);
                assert_eq!(s >> 62, 0b01, "retry seed {s:#x} must have bits 63..62 = 01");
                assert_ne!(s, TUNER_SEED_BASE);
            }
        }
        assert_ne!(retry_seed(7, 1), retry_seed(7, 2), "attempts get distinct seeds");
        assert_ne!(retry_seed(7, 1), retry_seed(8, 1), "trials get distinct seeds");
        assert_eq!(retry_seed(7, 1), retry_seed(7, 1), "derivation is pure");
    }

    #[test]
    fn precise_rung_reproduces_the_reference() {
        for a in all_apps().iter().take(3) {
            let reference = harness::reference(a).output;
            let m = harness::measure_with(a, Rung::Precise.config(), retry_seed(3, 2));
            assert_eq!(m.output, reference, "{}", a.meta.name);
        }
    }

    #[test]
    fn clean_trials_pass_through_without_retry() {
        let mc = app("MonteCarlo");
        let reference = harness::reference(&mc).output;
        let out = run_with_recovery(
            &mc,
            HwConfig::for_level(Level::Mild),
            FAULT_SEED_BASE,
            &Policy::standard(),
            Some(&reference),
            false,
        );
        assert_eq!(out.attempts, 1);
        assert!(!out.recovered());
        assert!(out.failure_causes.is_empty());
        assert_eq!(out.recovery_energy_overhead, 0.0);
        assert_eq!(out.recovery_energy_overhead_quanta, EnergyQuanta::ZERO);
        assert!(out.error <= 0.1);
        // Identical accounting to an unrecovered measurement — exact on the
        // integer quanta, not just on the f64 projection.
        let m = harness::measure_with(&mc, HwConfig::for_level(Level::Mild), FAULT_SEED_BASE);
        assert_eq!(out.stats, m.stats);
        assert_eq!(out.energy.total, m.energy.total);
        assert_eq!(out.energy_quanta, m.energy_quanta);
    }

    #[test]
    fn qos_breach_escalates_and_charges_the_retries() {
        let mc = app("MonteCarlo");
        let reference = harness::reference(&mc).output;
        // Zero threshold: any nonzero error forces the ladder; the Precise
        // rung reproduces the reference, so error 0.0 is guaranteed.
        let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
        let chaos = chaos_config(50.0);
        let out = run_with_recovery(&mc, chaos, FAULT_SEED_BASE, &policy, Some(&reference), false);
        if out.recovered_at == Some(Rung::Precise) {
            assert_eq!(out.error, 0.0);
        }
        assert!(out.recovered(), "threshold 0 under chaos must escalate: {out:?}");
        assert!(out.attempts >= 2);
        assert_eq!(out.failure_causes.len() as u32, out.attempts - 1);
        assert!(out.recovery_energy_overhead > 0.0, "failed attempts cost energy");
        assert!(out.recovery_energy_overhead_quanta > EnergyQuanta::ZERO);
        let m = harness::measure_with(&mc, chaos, FAULT_SEED_BASE);
        assert!(out.energy.total > m.energy.total, "retry energy is added, not hidden");
        assert!(out.energy_quanta.total > m.energy_quanta.total);
    }

    #[test]
    fn watchdog_contains_runaway_loops_and_precise_rung_recovers() {
        let app = runaway_app();
        // Find a chaos seed whose corrupted bound trips a tight budget.
        let policy =
            Policy { ladder: vec![Rung::Precise], max_ops: Some(20_000), qos_threshold: None };
        let mut tripped = false;
        for i in 0..40u64 {
            let out = run_with_recovery(
                &app,
                chaos_config(1000.0),
                FAULT_SEED_BASE ^ i,
                &policy,
                None,
                false,
            );
            if let Some(FailureCause::OpBudgetExceeded { op_ticks, budget }) =
                out.failure_causes.first()
            {
                tripped = true;
                assert!(*op_ticks >= *budget);
                assert_eq!(out.recovered_at, Some(Rung::Precise));
                assert!(out.output.is_some(), "backstop produced an output");
                assert_eq!(out.attempts, 2);
                break;
            }
        }
        assert!(tripped, "1000x-amplified chaos never corrupted the endorsed bound");
    }

    #[test]
    fn recovery_outcomes_are_deterministic() {
        let sor = app("SOR");
        let reference = harness::reference(&sor).output;
        let policy = Policy { qos_threshold: Some(0.01), ..Policy::standard() };
        let go = || {
            let out = run_with_recovery(
                &sor,
                chaos_config(25.0),
                FAULT_SEED_BASE ^ 3,
                &policy,
                Some(&reference),
                false,
            );
            (
                out.error.to_bits(),
                out.attempts,
                out.recovered_at,
                out.energy.total.to_bits(),
                out.stats,
                format!("{:?}", out.failure_causes),
            )
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn chaos_config_amplifies_and_saturates() {
        let base = HwConfig::for_level(Level::Aggressive);
        let amp = chaos_config(20.0);
        assert_eq!(amp.params.timing_error_prob, base.params.timing_error_prob * 20.0);
        let sat = chaos_config(1e9);
        assert_eq!(sat.params.timing_error_prob, 0.5);
        assert_eq!(sat.params.sram_read_upset_prob, 0.5);
        assert_eq!(chaos_config(1.0).params, base.params);
    }

    #[test]
    fn failure_causes_render_their_categories() {
        let causes = [
            FailureCause::Panic("boom".into()),
            FailureCause::OpBudgetExceeded { op_ticks: 10, budget: 5 },
            FailureCause::CheckFailed("entry 0 = NaN".into()),
            FailureCause::QosExceeded { error: 0.5, threshold: 0.1 },
        ];
        let rendered: Vec<String> = causes.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered[0], "panic: boom");
        assert_eq!(rendered[1], "op-budget: 10 ticks, budget 5");
        assert_eq!(rendered[2], "check: entry 0 = NaN");
        assert_eq!(rendered[3], "qos: error 0.5000 > threshold 0.1");
        for (c, want) in causes.iter().zip(["panic", "op-budget", "check", "qos"]) {
            assert_eq!(c.category(), want);
        }
    }
}
