//! Online significance-aware scheduling: hold a per-campaign energy budget
//! live, degrade the least significant work first.
//!
//! EnerJ's qualifiers are static and the offline [`tuner`](crate::tuner)
//! picks one level per whole app; this module is the runtime counterpart
//! (after Vassiliadis et al., arXiv:1412.5150): a deterministic feedback
//! controller that runs *inside* a streaming campaign, watches live quanta
//! spend, and assigns each upcoming trial a precision level —
//! [`SchedLevel::Precise`] through [`SchedLevel::Aggressive`] — so a fixed
//! [`EnergyQuanta`] budget is met while aggregate QoS is maximized. Each
//! epoch the controller floors every app at the least aggressive *uniform*
//! rung that fits the remaining budget — the best static single-level
//! schedule available — then spends the slack promoting the *most
//! significant* work back towards Precise first: the app whose estimated
//! error reduction per extra metered quantum is highest, per a
//! significance table seeded from tuner-stream profiles
//! ([`profile_workload`]) and updated online from the per-level error and
//! spend actually observed at the drain point. Equivalently, when the
//! budget tightens the least significant work is degraded first.
//!
//! # Determinism
//!
//! Decisions are a pure function of `(spec index, drained-prefix state)`,
//! so scheduled campaigns stay bit-identical at any thread count and chunk
//! size — the guarantee every prior engine change has carried. Concretely:
//!
//! * The campaign is partitioned into fixed *epochs* of
//!   [`epoch_len`](SchedOutcome::epoch_len) trials; the epoch length depends
//!   only on campaign length (never on threads or chunk size).
//! * The level table for epoch `e` is computed from a controller snapshot
//!   **frozen at exactly the first `(e − 1) · E` drained trials** — not
//!   "whatever has drained by now", which would race. The
//!   [`SchedulerSink`] folds each trial into the controller at the
//!   engine's in-order drain point and publishes the next table the moment
//!   the prefix reaches the boundary.
//! * [`ScheduledSource::spec`]`(i)` blocks until epoch `e(i)`'s table is
//!   published, i.e. until trials `0 .. (e−1)·E` have drained. It only
//!   ever waits on indices strictly below `i`, which the engine guarantees
//!   are already claimed — so the wait cannot deadlock, and the one-epoch
//!   lag keeps a 2·E-trial pipelining window open. A one-thread campaign
//!   never waits at all: every lower index has drained before `spec(i)`.
//!
//! The scheduler's seed use keeps the established partition: evaluation
//! trials run on `FAULT_SEED_BASE ^ run` (bits 63..62 = `00`), profiling
//! on `TUNER_SEED_BASE ^ run` (`10`), and any recovery retries on the
//! `RETRY_SEED_BASE` stream (`01`) — the three streams are provably
//! disjoint, so scheduling decisions are informed only by fault sequences
//! the scored trials never replay.
//!
//! # Failure signals
//!
//! Scheduled trials may carry the PR 5 escalation ladder
//! ([`SchedulerConfig::recovery`]) to rescue individual QoS failures. For
//! the scalar-output apps (MonteCarlo, jMonkeyEngine) the controller
//! additionally keeps a reference-free `RunningMad` plausibility
//! estimator over recent accepted outputs: a drained output the estimator
//! flags is treated as worst-case (error 1.0) in the significance table,
//! so visibly corrupted scalars push their app towards higher precision
//! even when no reference is available.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use crate::estimator::RunningMad;
use crate::harness::{self, FAULT_SEED_BASE, TUNER_SEED_BASE};
use crate::qos::Output;
use crate::recovery;
use crate::trials::{
    collect_in_memory, run_campaign_streamed, CampaignOptions, CampaignReport, CampaignSummary,
    Grid, SpecSource, TrialResult, TrialSink, TrialSpec,
};
use crate::App;
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::QuantaMeter;
use enerj_hw::quanta::EnergyQuanta;

/// The scheduler's precision ladder: the three Table 2 levels plus a true
/// precise rung.
///
/// `Precise` runs under [`HwConfig::precise`] — zero faults *and* zero
/// claimed savings — so it reproduces the reference output bit-for-bit and
/// is charged exactly the baseline cost. (The recovery ladder's `Precise`
/// rung differs: it silences faults but still books the level's savings.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedLevel {
    /// Full precision, full cost, zero error.
    Precise,
    /// Table 2 "Mild".
    Mild,
    /// Table 2 "Medium".
    Medium,
    /// Table 2 "Aggressive".
    Aggressive,
}

impl SchedLevel {
    /// All rungs, in degradation order (index order of every per-level
    /// array in this module).
    pub const ALL: [SchedLevel; 4] =
        [SchedLevel::Precise, SchedLevel::Mild, SchedLevel::Medium, SchedLevel::Aggressive];

    /// This rung's position in [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        match self {
            SchedLevel::Precise => 0,
            SchedLevel::Mild => 1,
            SchedLevel::Medium => 2,
            SchedLevel::Aggressive => 3,
        }
    }

    /// The hardware configuration this rung runs under.
    pub fn config(self) -> HwConfig {
        match self {
            SchedLevel::Precise => HwConfig::precise(),
            SchedLevel::Mild => HwConfig::for_level(Level::Mild),
            SchedLevel::Medium => HwConfig::for_level(Level::Medium),
            SchedLevel::Aggressive => HwConfig::for_level(Level::Aggressive),
        }
    }

    /// Stable display name (the `scheduled_level` vocabulary of the
    /// campaign report schema).
    pub fn name(self) -> &'static str {
        match self {
            SchedLevel::Precise => "Precise",
            SchedLevel::Mild => "Mild",
            SchedLevel::Medium => "Medium",
            SchedLevel::Aggressive => "Aggressive",
        }
    }

    /// Parses a [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<SchedLevel> {
        SchedLevel::ALL.into_iter().find(|l| l.name() == s)
    }
}

impl fmt::Display for SchedLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A mixed scheduling workload: `runs` evaluation trials per app,
/// interleaved round-robin (trial `i` runs app `i % apps`, run `i / apps`)
/// so every epoch sees every app and the controller always has work to
/// degrade.
pub struct Workload {
    /// The applications, in trial round-robin order.
    pub apps: Vec<App>,
    /// Fault-free reference outputs, one per app.
    pub references: Vec<Arc<Output>>,
    /// Evaluation runs per app (seeds `FAULT_SEED_BASE ^ run`).
    pub runs: u64,
}

impl Workload {
    /// Builds the workload around each app's memoized fault-free reference
    /// (`harness::reference_output`).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or a reference run panics.
    pub fn new(apps: Vec<App>, runs: u64) -> Self {
        assert!(!apps.is_empty(), "a workload needs at least one app");
        let references = apps.iter().map(harness::reference_output).collect();
        Workload { apps, references, runs }
    }

    /// Total trials in the campaign.
    pub fn len(&self) -> usize {
        self.apps.len() * self.runs as usize
    }

    /// Whether the workload has no trials.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// The app index of trial `index` (round-robin).
    fn app_index(&self, index: usize) -> usize {
        index % self.apps.len()
    }

    /// The per-app run number of trial `index`.
    fn run_index(&self, index: usize) -> u64 {
        (index / self.apps.len()) as u64
    }

    /// The evaluation seed of trial `index`.
    fn seed(&self, index: usize) -> u64 {
        FAULT_SEED_BASE ^ self.run_index(index)
    }

    /// The same workload as a static single-level campaign (the baseline
    /// the scheduler must beat): identical apps, seeds and order, every
    /// trial pinned to `level`, no scheduling.
    pub fn static_specs(&self, level: SchedLevel) -> Vec<TrialSpec> {
        (0..self.len())
            .map(|i| {
                let a = self.app_index(i);
                TrialSpec::scored(
                    &self.apps[a],
                    level.name(),
                    level.config(),
                    self.seed(i),
                    Arc::clone(&self.references[a]),
                )
            })
            .collect()
    }
}

/// Per-app significance seed: estimated per-trial output error and metered
/// cost at each [`SchedLevel`], from a profiling campaign on the tuner's
/// disjoint seed stream.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Mean output error per rung (index order of [`SchedLevel::ALL`]).
    pub error: [f64; 4],
    /// Mean metered per-trial cost per rung.
    pub cost: [EnergyQuanta; 4],
}

/// Profiles every app of `workload` at every rung: `runs` trials per
/// `(app, rung)` on seeds `TUNER_SEED_BASE ^ run` — a stream provably
/// disjoint from the evaluation seeds, so the significance table is seeded
/// on fault sequences the scored campaign never replays. Bit-identical for
/// any thread count.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn profile_workload(
    workload: &Workload,
    meter: QuantaMeter,
    runs: u64,
    opts: &CampaignOptions,
) -> Vec<AppProfile> {
    assert!(runs > 0, "profiling needs at least one run per (app, rung)");
    let napps = workload.apps.len();
    let rungs = SchedLevel::ALL.iter().map(|l| (l.name().to_owned(), l.config())).collect();
    let source = Grid::new(&workload.apps, rungs, runs, TUNER_SEED_BASE);
    let report = CampaignReport::collect(&source, opts);
    let mut profiles = Vec::with_capacity(napps);
    for a in 0..napps {
        let mut error = [0.0f64; 4];
        let mut cost = [EnergyQuanta::ZERO; 4];
        for (l, level) in SchedLevel::ALL.iter().enumerate() {
            let mut err_sum = 0.0;
            let mut cost_sum = EnergyQuanta::ZERO;
            let mut n = 0u128;
            for t in report.trials_for(workload.apps[a].meta.name, level.name()) {
                err_sum += t.error;
                cost_sum += meter.spent(&t.energy_quanta);
                n += 1;
            }
            assert_eq!(n, runs as u128, "profiling campaign must cover every (app, rung)");
            error[l] = err_sum / n as f64;
            cost[l] = EnergyQuanta::new(cost_sum.get() / n);
        }
        profiles.push(AppProfile { error, cost });
    }
    profiles
}

/// How to schedule a campaign: the budget, what it meters, and the knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The per-campaign energy budget, in metered quanta.
    pub budget: EnergyQuanta,
    /// Which component of the exact energy breakdown the budget meters.
    pub meter: QuantaMeter,
    /// Trials per controller epoch (`0` = auto: `(len / 8).clamp(1, 64)`).
    /// A pure function of campaign length — never of threads or chunk — so
    /// epoch boundaries are identical for every execution of the campaign.
    pub epoch: usize,
    /// Optional per-trial recovery policy: the PR 5 escalation ladder still
    /// rescues individual QoS failures inside a scheduled campaign.
    pub recovery: Option<recovery::Policy>,
}

impl SchedulerConfig {
    /// A scheduler holding `budget` quanta on the default (SRAM) meter.
    pub fn new(budget: EnergyQuanta) -> Self {
        SchedulerConfig { budget, meter: QuantaMeter::Sram, epoch: 0, recovery: None }
    }
}

/// Per-(app, rung) online observation cell of the significance table.
#[derive(Debug, Clone, Copy, Default)]
struct LevelObs {
    /// Drained trials scheduled at this rung (including panicked ones).
    trials: u64,
    /// Error sum over those trials; implausible scalar outputs and panics
    /// fold in as worst-case 1.0.
    error_sum: f64,
    /// Metered spend sum over the non-panicked trials (a crashed run's
    /// zeroed quanta would poison the cost estimate).
    cost_trials: u64,
    cost_sum: EnergyQuanta,
}

/// Controller state mutated at the drain point, guarded by one mutex.
struct CtrlState {
    /// Trials drained so far (the frozen-prefix cursor).
    drained: usize,
    /// Exact metered spend over the drained prefix.
    spent: EnergyQuanta,
    /// Published level tables, one per epoch: `tables[e][app]` is the
    /// rung index every epoch-`e` trial of `app` runs at.
    tables: Vec<Vec<u8>>,
    /// The online significance table.
    obs: Vec<[LevelObs; 4]>,
    /// Reference-free plausibility estimators for scalar-output apps.
    mads: Vec<Option<RunningMad>>,
    /// Drained outputs the estimator flagged as implausible.
    implausible: u64,
}

/// The deterministic feedback controller. Shared (by reference) between
/// the [`ScheduledSource`] that asks for levels at claim time and the
/// [`SchedulerSink`] that feeds observations back at the drain point.
pub struct Controller {
    len: usize,
    napps: usize,
    epoch: usize,
    budget: EnergyQuanta,
    meter: QuantaMeter,
    recovery: Option<recovery::Policy>,
    app_names: Vec<&'static str>,
    profiles: Vec<AppProfile>,
    state: Mutex<CtrlState>,
    published: Condvar,
}

/// The absolute jitter band (in the scalar's own units) the plausibility
/// estimator always tolerates, per scalar-output app.
fn scalar_floor(app: &str) -> Option<f64> {
    match app {
        // A π estimate from 8192 samples jitters by ~0.02.
        "MonteCarlo" => Some(0.02),
        // A decision fraction over 400 cases jitters by a few percent.
        "jMonkeyEngine" => Some(0.05),
        _ => None,
    }
}

/// The single bounded scalar an output reduces to, for plausibility
/// scoring: the value itself for one-element vectors, the acceptance
/// fraction for decision outputs.
fn output_scalar(output: &Output) -> Option<f64> {
    match output {
        Output::Values(v) if v.len() == 1 => Some(v[0]),
        Output::Decisions(d) if !d.is_empty() => {
            Some(d.iter().filter(|&&b| b).count() as f64 / d.len() as f64)
        }
        _ => None,
    }
}

impl Controller {
    /// Builds the controller and publishes the tables for epochs 0 and 1
    /// (both depend on the empty drained prefix: seed profiles only).
    pub fn new(workload: &Workload, profiles: &[AppProfile], cfg: &SchedulerConfig) -> Self {
        let napps = workload.apps.len();
        assert_eq!(profiles.len(), napps, "one profile per app");
        let len = workload.len();
        let epoch = if cfg.epoch != 0 { cfg.epoch } else { (len / 8).clamp(1, 64) };
        let mads = workload
            .apps
            .iter()
            .map(|app| scalar_floor(app.meta.name).map(|floor| RunningMad::new(32, floor)))
            .collect();
        let ctrl = Controller {
            len,
            napps,
            epoch,
            budget: cfg.budget,
            meter: cfg.meter,
            recovery: cfg.recovery.clone(),
            app_names: workload.apps.iter().map(|a| a.meta.name).collect(),
            profiles: profiles.to_vec(),
            state: Mutex::new(CtrlState {
                drained: 0,
                spent: EnergyQuanta::ZERO,
                tables: Vec::new(),
                obs: vec![[LevelObs::default(); 4]; napps],
                mads,
                implausible: 0,
            }),
            published: Condvar::new(),
        };
        {
            let mut st = ctrl.state.lock().expect("unpoisoned controller");
            ctrl.publish_ready(&mut st);
        }
        ctrl
    }

    /// Number of epochs in the campaign.
    fn epochs(&self) -> usize {
        self.len.div_ceil(self.epoch)
    }

    /// The rung assigned to trial `index`, blocking until its epoch's
    /// table is published (i.e. until the first `(e − 1) · E` trials have
    /// drained — always indices strictly below `index`).
    fn level_for(&self, index: usize) -> SchedLevel {
        debug_assert!(index < self.len);
        let e = index / self.epoch;
        let mut st = self.state.lock().expect("unpoisoned controller");
        while st.tables.len() <= e {
            st = self.published.wait(st).expect("unpoisoned controller");
        }
        SchedLevel::ALL[st.tables[e][index % self.napps] as usize]
    }

    /// Whether trial outputs of app `a` should be kept for the scalar
    /// plausibility estimator.
    fn keeps_output(&self, a: usize) -> bool {
        scalar_floor(self.app_names[a]).is_some()
    }

    /// Folds one drained trial into the controller — called by the
    /// [`SchedulerSink`] in strict index order — and publishes any epoch
    /// tables whose observation prefix just completed.
    fn observe(&self, t: &TrialResult) {
        let mut st = self.state.lock().expect("unpoisoned controller");
        debug_assert_eq!(t.index, st.drained, "observations arrive in index order");
        let a = self
            .app_names
            .iter()
            .position(|n| *n == t.app)
            .expect("drained trial belongs to the workload");
        let lv = t
            .scheduled_level
            .as_deref()
            .and_then(SchedLevel::from_name)
            .expect("scheduled trials carry their assigned rung")
            .index();
        // Reference-free plausibility: a flagged scalar output counts as
        // worst-case error in the significance table, and never enters the
        // estimator's window.
        let mut observed_error = t.error;
        if let (Some(mad), Some(output)) = (st.mads[a].as_mut(), t.output.as_ref()) {
            if let Some(x) = output_scalar(output) {
                if mad.is_plausible(x) {
                    mad.push(x);
                } else {
                    observed_error = 1.0;
                    st.implausible += 1;
                }
            }
        }
        if t.panicked() {
            observed_error = 1.0;
        }
        let cell = &mut st.obs[a][lv];
        cell.trials += 1;
        cell.error_sum += observed_error;
        if !t.panicked() {
            cell.cost_trials += 1;
            cell.cost_sum += self.meter.spent(&t.energy_quanta);
        }
        st.drained += 1;
        st.spent = st.spent.saturating_add(self.meter.spent(&t.energy_quanta));
        self.publish_ready(&mut st);
        self.published.notify_all();
    }

    /// Publishes every epoch table whose observation prefix —
    /// `(e − 1) · E` drained trials — is complete.
    fn publish_ready(&self, st: &mut CtrlState) {
        let total = self.epochs();
        while st.tables.len() < total {
            let e = st.tables.len();
            let need = e.saturating_sub(1) * self.epoch;
            if st.drained < need {
                break;
            }
            let table = self.decide(st, e);
            st.tables.push(table);
        }
    }

    /// Estimated per-trial metered cost of app `a` at rung `lv`: the
    /// online mean when observed, the profile seed otherwise.
    fn est_cost(&self, st: &CtrlState, a: usize, lv: usize) -> EnergyQuanta {
        let cell = &st.obs[a][lv];
        if cell.cost_trials > 0 {
            EnergyQuanta::new(cell.cost_sum.get() / u128::from(cell.cost_trials))
        } else {
            self.profiles[a].cost[lv]
        }
    }

    /// Estimated per-trial output error of app `a` at rung `lv`.
    fn est_error(&self, st: &CtrlState, a: usize, lv: usize) -> f64 {
        let cell = &st.obs[a][lv];
        if cell.trials > 0 {
            cell.error_sum / cell.trials as f64
        } else {
            self.profiles[a].error[lv]
        }
    }

    /// Count of trials in `[lo, hi)` that belong to app `a` under the
    /// round-robin layout.
    fn app_trials_in(&self, lo: usize, hi: usize, a: usize) -> u64 {
        if hi <= lo {
            return 0;
        }
        // Trials with index ≡ a (mod napps) in [lo, hi).
        let first = lo + (a + self.napps - lo % self.napps) % self.napps;
        if first >= hi {
            0
        } else {
            ((hi - 1 - first) / self.napps + 1) as u64
        }
    }

    /// Projected metered spend of an assignment over the receding horizon:
    /// the in-flight spend plus each app's estimated per-trial cost at its
    /// assigned rung, times its remaining trial count.
    fn projected(
        &self,
        st: &CtrlState,
        fixed: EnergyQuanta,
        levels: &[u8],
        future: &[u64],
    ) -> EnergyQuanta {
        let mut total = fixed;
        for a in 0..self.napps {
            let per = self.est_cost(st, a, levels[a] as usize);
            total =
                total.saturating_add(EnergyQuanta::new(per.get().saturating_mul(future[a].into())));
        }
        total
    }

    /// The decision for epoch `e`, from a snapshot frozen at exactly
    /// `(e − 1) · E` drained trials. Two phases:
    ///
    /// 1. **Floor** — find the least aggressive *uniform* rung whose
    ///    projected spend fits the remaining budget (all-Aggressive best
    ///    effort when none does). This is the static baseline the
    ///    scheduler must never estimate below: the schedule starts where a
    ///    whole-campaign single-level assignment would land.
    /// 2. **Upgrade** — spend the slack the floor leaves, repeatedly
    ///    promoting the app one rung where the estimated error reduction
    ///    per extra metered quantum is highest (the most significant work
    ///    is restored first), as long as the projection still fits. The
    ///    budget is per-campaign and unspent quanta buy nothing, so even
    ///    zero-estimated-benefit promotions toward Precise are taken —
    ///    less aggressive rungs never raise true error.
    ///
    /// Ties resolve to the lowest app index; every input is part of the
    /// frozen snapshot, so the decision is a pure function of
    /// `(e, snapshot)`.
    fn decide(&self, st: &CtrlState, e: usize) -> Vec<u8> {
        let remaining = self.budget.saturating_sub(st.spent);
        let boundary = e * self.epoch; // first index this table governs
        debug_assert!(boundary < self.len);
        // In-flight spend: trials assigned by already-published tables but
        // not yet drained (at most the previous epoch).
        let mut fixed = EnergyQuanta::ZERO;
        for i in st.drained..boundary {
            let a = i % self.napps;
            let lv = st.tables[i / self.epoch][a] as usize;
            fixed = fixed.saturating_add(self.est_cost(st, a, lv));
        }
        // Per-app trial counts from this epoch to the end — the receding
        // horizon the chosen assignment is projected over.
        let future: Vec<u64> =
            (0..self.napps).map(|a| self.app_trials_in(boundary, self.len, a)).collect();
        // Phase 1: the uniform floor.
        let last = (SchedLevel::ALL.len() - 1) as u8;
        let mut levels = vec![last; self.napps];
        for rung in 0..=last {
            let uniform = vec![rung; self.napps];
            if self.projected(st, fixed, &uniform, &future) <= remaining {
                levels = uniform;
                break;
            }
        }
        // Phase 2: greedy upgrades out of the slack.
        loop {
            let mut best: Option<(f64, usize)> = None;
            for a in 0..self.napps {
                let cur = levels[a] as usize;
                if cur == 0 || future[a] == 0 {
                    continue;
                }
                let extra = self.est_cost(st, a, cur - 1).saturating_sub(self.est_cost(st, a, cur));
                let total_extra = extra.get().saturating_mul(future[a].into());
                let mut trial = levels.clone();
                trial[a] -= 1;
                if self.projected(st, fixed, &trial, &future) > remaining {
                    continue; // this promotion no longer fits
                }
                let gain = (self.est_error(st, a, cur) - self.est_error(st, a, cur - 1)).max(0.0);
                let value = if total_extra == 0 {
                    f64::INFINITY // a free promotion is always taken first
                } else {
                    gain * future[a] as f64 / total_extra as f64
                };
                if best.is_none_or(|(b, _)| value > b) {
                    best = Some((value, a));
                }
            }
            match best {
                Some((_, a)) => levels[a] -= 1,
                None => break, // no promotion fits: the slack is spent
            }
        }
        levels
    }
}

/// The claim-time hook: a [`SpecSource`] whose specs are rewritten by
/// controller state. Trial `i` is generated with the rung the controller
/// assigned its epoch, carrying the assignment in
/// [`TrialSpec::scheduled_level`] (and the recovery ladder, when
/// configured). Blocks inside [`spec`](SpecSource::spec) until the epoch's
/// table is published — see the module docs for why this cannot deadlock
/// under chunked work stealing.
pub struct ScheduledSource<'a> {
    workload: &'a Workload,
    controller: &'a Controller,
}

impl<'a> ScheduledSource<'a> {
    /// Pairs a workload with its controller.
    pub fn new(workload: &'a Workload, controller: &'a Controller) -> Self {
        assert_eq!(workload.len(), controller.len, "controller built for this workload");
        ScheduledSource { workload, controller }
    }
}

impl SpecSource for ScheduledSource<'_> {
    fn len(&self) -> usize {
        self.workload.len()
    }

    fn spec(&self, index: usize) -> Cow<'_, TrialSpec> {
        let a = self.workload.app_index(index);
        let level = self.controller.level_for(index);
        let mut spec = TrialSpec::scored(
            &self.workload.apps[a],
            level.name(),
            level.config(),
            self.workload.seed(index),
            Arc::clone(&self.workload.references[a]),
        );
        spec.scheduled_level = Some(level.name().to_owned());
        spec.keep_output = self.controller.keeps_output(a);
        if let Some(policy) = &self.controller.recovery {
            spec = spec.with_recovery(policy.clone());
        }
        Cow::Owned(spec)
    }
}

/// The drain-point hook: wraps any [`TrialSink`], feeding every trial to
/// the controller (in the engine's strict index order) before forwarding
/// it downstream.
pub struct SchedulerSink<'a> {
    inner: &'a mut dyn TrialSink,
    controller: &'a Controller,
}

impl<'a> SchedulerSink<'a> {
    /// Wraps `inner`, observing into `controller`.
    pub fn new(inner: &'a mut dyn TrialSink, controller: &'a Controller) -> Self {
        SchedulerSink { inner, controller }
    }
}

impl TrialSink for SchedulerSink<'_> {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        self.controller.observe(&trial);
        self.inner.accept(trial)
    }
}

/// The outcome of a scheduled campaign: the engine summary plus the
/// controller's budget verdict and level assignment census.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// The streaming engine's aggregate summary.
    pub summary: CampaignSummary,
    /// The budget held.
    pub budget: EnergyQuanta,
    /// What the budget metered.
    pub meter: QuantaMeter,
    /// Exact metered spend over the whole campaign.
    pub spent: EnergyQuanta,
    /// `spent <= budget`.
    pub budget_met: bool,
    /// Per-app scheduled-trial counts per rung (index order of
    /// [`SchedLevel::ALL`]).
    pub level_counts: Vec<[u64; 4]>,
    /// Drained scalar outputs the plausibility estimator flagged.
    pub implausible: u64,
    /// Controller epoch length used.
    pub epoch_len: usize,
}

impl SchedOutcome {
    /// Aggregate QoS: `1 − mean output error`.
    pub fn qos(&self) -> f64 {
        1.0 - self.summary.mean_error
    }
}

/// Runs `workload` under the scheduler, streaming drained trials to
/// `sink`.
///
/// # Errors
///
/// Returns the first error the sink reported (the campaign still runs to
/// completion, like [`run_campaign_streamed`]).
pub fn run_scheduled_streamed(
    workload: &Workload,
    profiles: &[AppProfile],
    cfg: &SchedulerConfig,
    opts: &CampaignOptions,
    sink: &mut dyn TrialSink,
) -> std::io::Result<SchedOutcome> {
    let controller = Controller::new(workload, profiles, cfg);
    let source = ScheduledSource::new(workload, &controller);
    let mut sched_sink = SchedulerSink::new(sink, &controller);
    let summary = run_campaign_streamed(&source, opts, &mut sched_sink)?;
    let st = controller.state.into_inner().expect("unpoisoned controller");
    debug_assert_eq!(st.drained, workload.len());
    let level_counts = st.obs.iter().map(|cells| [0, 1, 2, 3].map(|l| cells[l].trials)).collect();
    Ok(SchedOutcome {
        budget: cfg.budget,
        meter: cfg.meter,
        spent: st.spent,
        budget_met: st.spent <= cfg.budget,
        level_counts,
        implausible: st.implausible,
        epoch_len: controller.epoch,
        summary,
    })
}

/// [`run_scheduled_streamed`] collecting every trial in memory, returning
/// the full [`CampaignReport`] (with the budget fields set) alongside
/// the outcome.
pub fn run_scheduled(
    workload: &Workload,
    profiles: &[AppProfile],
    cfg: &SchedulerConfig,
    opts: &CampaignOptions,
) -> (CampaignReport, SchedOutcome) {
    let (trials, outcome) =
        collect_in_memory(|sink| run_scheduled_streamed(workload, profiles, cfg, opts, sink));
    let report = CampaignReport {
        trials,
        summary: outcome.summary.clone(),
        budget_quanta: Some(outcome.budget),
        budget_met: Some(outcome.budget_met),
    };
    (report, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_apps;

    fn small_workload() -> Workload {
        let apps: Vec<App> = all_apps()
            .into_iter()
            .filter(|a| matches!(a.meta.name, "FFT" | "MonteCarlo" | "SOR"))
            .collect();
        Workload::new(apps, 6)
    }

    fn profiles_for(w: &Workload) -> Vec<AppProfile> {
        profile_workload(w, QuantaMeter::Sram, 2, &CampaignOptions::with_threads(2))
    }

    #[test]
    fn round_robin_layout_counts_are_exact() {
        let w = small_workload();
        let profiles = profiles_for(&w);
        let cfg = SchedulerConfig::new(EnergyQuanta::new(u128::MAX / 2));
        let ctrl = Controller::new(&w, &profiles, &cfg);
        for lo in 0..w.len() {
            for hi in lo..=w.len() {
                for a in 0..w.apps.len() {
                    let expected = (lo..hi).filter(|i| i % w.apps.len() == a).count() as u64;
                    assert_eq!(ctrl.app_trials_in(lo, hi, a), expected, "[{lo}, {hi}) app {a}");
                }
            }
        }
    }

    #[test]
    fn sched_level_names_round_trip() {
        for level in SchedLevel::ALL {
            assert_eq!(SchedLevel::from_name(level.name()), Some(level));
            assert_eq!(SchedLevel::ALL[level.index()], level);
        }
        assert_eq!(SchedLevel::from_name("Chaos"), None);
    }

    #[test]
    fn precise_rung_reproduces_reference_at_baseline_cost() {
        let mc = crate::app("MonteCarlo").unwrap();
        let reference = harness::reference(&mc);
        let precise =
            harness::measure_with_telemetry(&mc, SchedLevel::Precise.config(), 1234, false);
        assert_eq!(precise.output, reference.output, "precise rung is bit-exact");
        let q = precise.energy_quanta;
        assert_eq!(q.total, q.baseline_total, "precise rung charges the full baseline");
        assert_eq!(q.sram, q.baseline_sram);
    }

    #[test]
    fn profiles_order_costs_by_aggressiveness() {
        let w = small_workload();
        for p in profiles_for(&w) {
            // Precise charges the baseline; every Table 2 rung saves SRAM
            // energy, monotonically in aggressiveness.
            assert!(p.cost[0] > p.cost[1], "Precise must cost more than Mild: {p:?}");
            assert!(p.cost[1] > p.cost[2], "{p:?}");
            assert!(p.cost[2] > p.cost[3], "{p:?}");
            assert_eq!(p.error[0], 0.0, "the precise rung has zero error");
        }
    }

    #[test]
    #[allow(clippy::approx_constant)] // the literal is a simulated pi estimate
    fn output_scalar_reduces_the_two_scalar_shapes() {
        assert_eq!(output_scalar(&Output::Values(vec![3.14])), Some(3.14));
        assert_eq!(output_scalar(&Output::Values(vec![1.0, 2.0])), None);
        assert_eq!(output_scalar(&Output::Decisions(vec![true, false, true, true])), Some(0.75));
        assert_eq!(output_scalar(&Output::Text(Some("x".into()))), None);
        assert!(scalar_floor("MonteCarlo").is_some());
        assert!(scalar_floor("jMonkeyEngine").is_some());
        assert!(scalar_floor("FFT").is_none());
    }
}
