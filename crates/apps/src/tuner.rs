//! Offline QoS profiling (section 6.2's closing suggestion).
//!
//! The paper observes that applications' "sensitivity to error varies
//! greatly for the Medium and Aggressive configurations", suggesting that
//! "an approximate execution substrate for EnerJ could benefit from tuning
//! to the characteristics of each application, either offline via
//! profiling or online via continuous QoS measurement as in Green."
//!
//! [`tune_campaign`] implements the offline variant: profile an
//! application at each Table 2 level over a handful of fault seeds, and
//! select the most aggressive level whose mean output error stays within a
//! programmer-specified budget. The result pairs the chosen level with the
//! energy it buys, making the accuracy-for-energy trade explicit.

use std::sync::Arc;

use crate::harness;
use crate::trials::{CampaignOptions, CampaignReport, TrialSpec};
use crate::App;
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::EnergyQuantaBreakdown;

/// Outcome of profiling one application against an error budget.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The most aggressive admissible level; `None` when even Mild
    /// violates the budget (run precisely).
    pub chosen: Option<Level>,
    /// Mean output error at each of Mild/Medium/Aggressive.
    pub errors: [f64; 3],
    /// Normalized energy at each level (baseline = 1.0).
    pub energy: [f64; 3],
    /// Exact integer energy at each level — `energy` is its f64
    /// projection. Budget comparisons on these are `==`-exact and immune
    /// to summation order.
    pub energy_quanta: [EnergyQuantaBreakdown; 3],
}

impl TuningResult {
    /// The energy of the chosen configuration (1.0 when running precisely).
    pub fn chosen_energy(&self) -> f64 {
        match self.chosen {
            None => 1.0,
            Some(level) => {
                let i = Level::ALL.iter().position(|l| *l == level).expect("known level");
                self.energy[i]
            }
        }
    }

    /// The exact energy quanta of the chosen configuration (`None` when
    /// running precisely — a precise run has no profiled breakdown here).
    pub fn chosen_energy_quanta(&self) -> Option<EnergyQuantaBreakdown> {
        self.chosen.map(|level| {
            let i = Level::ALL.iter().position(|l| *l == level).expect("known level");
            self.energy_quanta[i]
        })
    }

    /// The profiled error of the chosen configuration (0 when precise).
    pub fn chosen_error(&self) -> f64 {
        match self.chosen {
            None => 0.0,
            Some(level) => {
                let i = Level::ALL.iter().position(|l| *l == level).expect("known level");
                self.errors[i]
            }
        }
    }
}

/// Profiles `app` over `runs` fault seeds per level and picks the most
/// aggressive level with mean error at most `error_budget`; also returns
/// the profiling campaign's report (for telemetry export and JSON
/// capture). The result is bit-identical for any thread count: seeds are
/// fixed per `(level, run)` and errors are averaged in run order.
///
/// Profiling seeds are `TUNER_SEED_BASE ^ r` — a stream provably disjoint
/// from the evaluation seeds `FAULT_SEED_BASE ^ i` (the bases differ in
/// bit 63, which XOR with any index below `2^63` preserves), so the chosen
/// level is validated on fault sequences it was *not* profiled on.
///
/// # Panics
///
/// Panics if `error_budget` is negative or `runs` is zero.
pub fn tune_campaign(
    app: &App,
    error_budget: f64,
    runs: u64,
    opts: &CampaignOptions,
) -> (TuningResult, CampaignReport) {
    assert!(error_budget >= 0.0, "error budget must be non-negative");
    assert!(runs > 0, "profiling needs at least one run");
    let reference = Arc::new(harness::reference(app).output);
    let specs: Vec<TrialSpec> = Level::ALL
        .iter()
        .flat_map(|level| {
            let reference = Arc::clone(&reference);
            (0..runs).map(move |r| {
                TrialSpec::scored(
                    app,
                    level.to_string(),
                    HwConfig::for_level(*level),
                    harness::TUNER_SEED_BASE ^ r,
                    Arc::clone(&reference),
                )
            })
        })
        .collect();
    let report = CampaignReport::collect(specs.as_slice(), opts);
    let mut errors = [0.0f64; 3];
    let mut energy = [1.0f64; 3];
    let mut energy_quanta = [EnergyQuantaBreakdown::ZERO; 3];
    for (i, level) in Level::ALL.iter().enumerate() {
        let label = level.to_string();
        errors[i] = report.mean_error_for(app.meta.name, &label);
        // Energy depends only on annotation fractions, not on injected
        // faults; keep the serial loop's last-run value.
        if let Some(last) = report.trials_for(app.meta.name, &label).last() {
            energy[i] = last.energy.total;
            energy_quanta[i] = last.energy_quanta;
        }
    }
    let chosen = Level::ALL
        .iter()
        .enumerate()
        .rev()
        .find(|(i, _)| errors[*i] <= error_budget)
        .map(|(_, l)| *l);
    (TuningResult { chosen, errors, energy, energy_quanta }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(name: &str) -> App {
        crate::app(name).expect("registered")
    }

    #[test]
    fn robust_apps_tune_to_aggressive() {
        // MonteCarlo barely degrades at any level (Figure 5): a 5% budget
        // admits the most aggressive configuration.
        let r = tune_campaign(&app("MonteCarlo"), 0.05, 3, &CampaignOptions::default()).0;
        assert_eq!(r.chosen, Some(Level::Aggressive));
        assert!(r.chosen_energy() < 0.95);
    }

    #[test]
    fn fragile_apps_tune_conservatively() {
        // SOR loses significant fidelity at Medium (Figure 5): a 10%
        // budget never admits Medium or Aggressive. Mild errors are
        // heavy-tailed (a rare random-value FP fault can dominate a small
        // profiling sample), so profile with 10 runs for a stable mean;
        // even then the tuner may legitimately fall back to precise.
        let r = tune_campaign(&app("SOR"), 0.10, 10, &CampaignOptions::default()).0;
        assert!(
            matches!(r.chosen, None | Some(Level::Mild)),
            "fragile app must not tune past Mild, chose {:?}",
            r.chosen
        );
        assert_eq!(r.chosen, Some(Level::Mild));
    }

    #[test]
    fn zero_budget_can_force_precise_execution() {
        // With a literally-zero budget, any measured error disqualifies a
        // level; FFT almost always shows some error at Medium+.
        let r = tune_campaign(&app("FFT"), 0.0, 3, &CampaignOptions::default()).0;
        assert!(r.chosen.is_none() || r.chosen == Some(Level::Mild));
        if r.chosen.is_none() {
            assert_eq!(r.chosen_energy(), 1.0);
            assert_eq!(r.chosen_error(), 0.0);
            assert_eq!(r.chosen_energy_quanta(), None);
        }
    }

    #[test]
    fn errors_reported_per_level_are_monotone_enough() {
        let r = tune_campaign(&app("LU"), 1.0, 3, &CampaignOptions::default()).0;
        assert_eq!(r.chosen, Some(Level::Aggressive), "budget 1.0 admits everything");
        assert!(r.errors[0] <= r.errors[2] + 1e-9);
        assert!(r.energy[0] >= r.energy[2]);
        // The quanta are the exact source of the normalized numbers: each
        // level's scaled total stays at or below its own baseline, and the
        // chosen level's breakdown is returned verbatim (==-comparable).
        for q in &r.energy_quanta {
            assert!(q.total <= q.baseline_total);
        }
        assert_eq!(r.chosen_energy_quanta(), Some(r.energy_quanta[2]));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = tune_campaign(&app("MonteCarlo"), 0.1, 0, &CampaignOptions::default());
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let a = app("FFT");
        let serial = tune_campaign(&a, 0.05, 3, &CampaignOptions::with_threads(1)).0;
        let parallel = tune_campaign(&a, 0.05, 3, &CampaignOptions::with_threads(4)).0;
        assert_eq!(serial.chosen, parallel.chosen);
        for i in 0..3 {
            assert_eq!(serial.errors[i].to_bits(), parallel.errors[i].to_bits());
            assert_eq!(serial.energy[i].to_bits(), parallel.energy[i].to_bits());
            assert_eq!(serial.energy_quanta[i], parallel.energy_quanta[i]);
        }
    }
}
