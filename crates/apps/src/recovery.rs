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
use crate::trials::{TrialResult, TrialSpec};
use enerj_core::Degraded;
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::quanta::EnergyQuanta;

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
    pub(crate) fn config(self) -> HwConfig {
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
enum FailureCause {
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
    /// Per-attempt op-tick budget for the watchdog.
    pub max_ops: u64,
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
            max_ops: Policy::DEFAULT_MAX_OPS,
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

/// An accepted attempt: its output and error, then its own scaled energy
/// total for the overhead of recovery.
type Accepted = (Output, f64, EnergyQuanta);

/// Runs `spec`'s app once at `cfg`/`seed` under the watchdog, adds the
/// attempt's work to `trial` and checks the output.
fn run_attempt(
    trial: &mut TrialResult,
    spec: &TrialSpec,
    cfg: HwConfig,
    seed: u64,
    policy: &Policy,
    log_events: bool,
) -> Result<Accepted, FailureCause> {
    let m = harness::measure_step(cfg, seed, log_events, |rt| {
        rt.run_guarded(policy.max_ops, spec.app.run)
    });
    let quanta = m.energy_quanta.total;
    // Charge the attempt whether or not it completed: a watchdog trip or a
    // panic still executed (and must pay for) its partial work.
    match trial.charge(m) {
        Ok(output) => match (spec.app.check)(&output) {
            Err(msg) => Err(FailureCause::CheckFailed(msg)),
            Ok(()) => {
                let reference = spec.reference.as_deref();
                let error =
                    reference.map_or(0.0, |r| output_error(spec.app.meta.metric, r, &output));
                match policy.qos_threshold {
                    Some(threshold) if reference.is_some() && error > threshold => {
                        Err(FailureCause::QosExceeded { error, threshold })
                    }
                    _ => Ok((output, error, quanta)),
                }
            }
        },
        Err(Degraded::OpBudgetExceeded { op_ticks, budget }) => {
            Err(FailureCause::OpBudgetExceeded { op_ticks, budget })
        }
        Err(Degraded::Panicked(msg)) => Err(FailureCause::Panic(msg)),
    }
}

/// Runs `spec` under `policy` into `trial`: the initial attempt at the
/// spec's configuration and seed, then — on a panic, watchdog trip, failed
/// check or QoS breach — one attempt per ladder rung with retry seeds from
/// [`retry_seed`], stopping at the first attempt that passes. Every
/// attempt's work is added to `trial`, each rejection to its
/// `failure_causes`. Deterministic: the outcome is a pure function of the
/// spec and the policy. Every attempt of the ladder draws its input
/// buffers from the thread's [`workload`](crate::workload) cache, so a
/// recovered trial regenerates nothing.
pub(crate) fn run_with_recovery(
    trial: &mut TrialResult,
    spec: &TrialSpec,
    policy: &Policy,
    log_events: bool,
) {
    let mut attempt = run_attempt(trial, spec, spec.cfg, spec.seed, policy, log_events);
    for (k, rung) in policy.ladder.iter().enumerate() {
        let Err(cause) = &attempt else { break };
        trial.failure_causes.push(cause.to_string());
        let seed = retry_seed(spec.seed, k as u32 + 1);
        attempt = run_attempt(trial, spec, rung.config(), seed, policy, log_events);
        if attempt.is_ok() {
            trial.recovered_at_level = Some(rung.to_string());
        }
    }
    match attempt {
        Ok((output, error, quanta)) => {
            trial.error = error;
            trial.output = spec.keep_output.then_some(output);
            // Exact: `accepted + overhead == total` round-trips in u128.
            trial.recovery_energy_overhead_quanta = trial.energy_quanta.total - quanta;
        }
        Err(cause) => {
            // Every rung failed: the trial degrades to worst case, with the
            // full cause chain on record and no energy attributed to
            // recovery (no attempt was accepted). A last attempt that
            // panicked keeps the plain-trial contract: `panic` is set.
            trial.error = 1.0;
            trial.failure_causes.push(cause.to_string());
            if let FailureCause::Panic(msg) = cause {
                trial.panic = Some(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, TUNER_SEED_BASE};
    use crate::trials::{CampaignOptions, CampaignReport};
    use crate::{all_apps, no_check, App};
    use std::sync::Arc;

    fn app(name: &str) -> App {
        crate::app(name).expect("registered")
    }

    /// One trial of `app` at `cfg`/`seed` under `policy`, scored against
    /// `reference` when given and keeping its output, through the engine.
    fn recover(
        app: &App,
        cfg: HwConfig,
        seed: u64,
        policy: &Policy,
        reference: Option<&Output>,
    ) -> TrialResult {
        let spec = TrialSpec {
            app: app.clone(),
            label: String::new(),
            cfg,
            seed,
            reference: reference.map(|r| Arc::new(r.clone())),
            keep_output: true,
            recovery: Some(policy.clone()),
            scheduled_level: None,
        };
        let opts = CampaignOptions::with_threads(1);
        CampaignReport::collect(&[spec][..], &opts).trials.remove(0)
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
            let m =
                harness::measure_with_telemetry(a, Rung::Precise.config(), retry_seed(3, 2), false);
            assert_eq!(m.output, reference, "{}", a.meta.name);
        }
    }

    #[test]
    fn clean_trials_pass_through_without_retry() {
        let mc = app("MonteCarlo");
        let reference = harness::reference(&mc).output;
        let mild = HwConfig::for_level(Level::Mild);
        let out = recover(&mc, mild, FAULT_SEED_BASE, &Policy::standard(), Some(&reference));
        assert_eq!(out.attempts, 1);
        assert!(!out.recovered());
        assert!(out.failure_causes.is_empty());
        assert_eq!(out.recovery_energy_overhead_quanta, EnergyQuanta::ZERO);
        assert!(out.error <= 0.1);
        // Identical accounting to an unrecovered measurement, exact on the
        // integer quanta.
        let m = harness::measure_with_telemetry(&mc, mild, FAULT_SEED_BASE, false);
        assert_eq!(out.stats, m.stats);
        assert_eq!(out.energy_quanta, m.energy_quanta);
        assert_eq!(out.output, Some(m.output));
    }

    #[test]
    fn qos_breach_escalates_and_charges_the_retries() {
        let mc = app("MonteCarlo");
        let reference = harness::reference(&mc).output;
        // Zero threshold: any nonzero error forces the ladder; the Precise
        // rung reproduces the reference, so error 0.0 is guaranteed.
        let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
        let chaos = chaos_config(50.0);
        let out = recover(&mc, chaos, FAULT_SEED_BASE, &policy, Some(&reference));
        if out.recovered_at_level.as_deref() == Some("Precise") {
            assert_eq!(out.error, 0.0);
        }
        assert!(out.recovered(), "threshold 0 under chaos must escalate: {out:?}");
        assert!(out.attempts >= 2);
        assert_eq!(out.failure_causes.len() as u32, out.attempts - 1);
        assert!(out.recovery_energy_overhead_quanta > EnergyQuanta::ZERO, "failed attempts cost");
        let m = harness::measure_with_telemetry(&mc, chaos, FAULT_SEED_BASE, false);
        assert!(out.energy_quanta.total > m.energy_quanta.total, "retry energy is added");
    }

    #[test]
    fn watchdog_contains_runaway_loops_and_precise_rung_recovers() {
        let app = runaway_app();
        // Find a chaos seed whose corrupted bound trips a tight budget.
        let policy = Policy { ladder: vec![Rung::Precise], max_ops: 20_000, qos_threshold: None };
        let mut tripped = false;
        for i in 0..40u64 {
            let out = recover(&app, chaos_config(1000.0), FAULT_SEED_BASE ^ i, &policy, None);
            let Some(trip) = out.failure_causes.first().and_then(|c| c.strip_prefix("op-budget: "))
            else {
                continue;
            };
            let (ticks, budget) = trip.split_once(" ticks, budget ").expect("op-budget cause");
            let (ticks, budget): (u64, u64) = (ticks.parse().unwrap(), budget.parse().unwrap());
            tripped = true;
            assert!(ticks >= budget);
            assert_eq!(budget, 20_000);
            assert_eq!(out.recovered_at_level.as_deref(), Some("Precise"));
            assert!(out.output.is_some(), "backstop produced an output");
            assert_eq!(out.attempts, 2);
            break;
        }
        assert!(tripped, "1000x-amplified chaos never corrupted the endorsed bound");
    }

    #[test]
    fn recovery_outcomes_are_deterministic() {
        let sor = app("SOR");
        let reference = harness::reference(&sor).output;
        let policy = Policy { qos_threshold: Some(0.01), ..Policy::standard() };
        let go = || {
            let out =
                recover(&sor, chaos_config(25.0), FAULT_SEED_BASE ^ 3, &policy, Some(&reference));
            (
                out.error.to_bits(),
                out.attempts,
                out.recovered_at_level,
                out.energy_quanta,
                out.stats,
                out.failure_causes,
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
    }
}
