//! Where a campaign's trials come from: the [`SpecSource`] trait, the lazy
//! [`SpecFn`] and the apps × arms × runs [`Grid`] of every §6 experiment.

use std::borrow::Cow;

use super::{CampaignOptions, CampaignReport, TrialSpec};
use crate::harness::{self, FAULT_SEED_BASE};
use crate::App;
use enerj_hw::config::{HwConfig, Level};

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
