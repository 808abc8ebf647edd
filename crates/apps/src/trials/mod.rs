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
//!   body runs under [`catch_unwind`](std::panic::catch_unwind); a panic
//!   scores output error 1.0, contributes nothing to the merged statistics,
//!   and is recorded in the trial's [`panic`](TrialResult::panic) field
//!   instead of killing the campaign.
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

use std::sync::Arc;
use std::time::Duration;

use crate::harness::{self, Measurement};
use crate::qos::Output;
use crate::recovery;
use crate::App;
use enerj_hw::config::HwConfig;
use enerj_hw::energy::EnergyQuantaBreakdown;
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::trace::FaultEvent;
use enerj_hw::FaultCounters;

mod engine;
mod grid;
mod report;
mod sink;

pub(crate) use engine::collect_in_memory;
pub use engine::{run_campaign_streamed, CampaignOptions, CampaignSummary};
pub use grid::{run_level_campaign, Grid, SpecFn, SpecSource};
pub use report::{
    json_f64, json_string, read_exact, read_fault_log, trial_json, write_trial_json,
    CampaignReport, FaultLogLine, Field, ReadError, ReadErrorKind,
};
pub use sink::{NdjsonSink, NullSink, TrialSink, VecSink};

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

#[cfg(test)]
mod tests {
    use super::report::{
        f64_slot, push_escaped, push_json_f64, push_u128, push_u64, push_wall, read_trial,
    };
    use super::*;
    use crate::all_apps;
    use crate::harness::FAULT_SEED_BASE;
    use crate::qos::output_error;
    use crate::scheduler::SchedLevel;
    use enerj_hw::config::{ApproxParams, Level};
    use enerj_hw::energy::energy_quanta;
    use enerj_hw::quanta::SAVINGS_SCALE;
    use enerj_hw::telemetry::KindCount;
    use enerj_hw::trace::FaultKind;
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
