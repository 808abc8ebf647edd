//! Offline QoS profiling (section 6.2's closing suggestion).
//!
//! The paper observes that applications' "sensitivity to error varies
//! greatly for the Medium and Aggressive configurations", suggesting that
//! "an approximate execution substrate for EnerJ could benefit from tuning
//! to the characteristics of each application, either offline via
//! profiling or online via continuous QoS measurement as in Green."
//!
//! [`tune_campaign`] implements the offline variant: profile each
//! application at each Table 2 level over a handful of fault seeds, and
//! [`TuningProfile::tune`] selects the most aggressive level whose mean
//! output error stays within a programmer-specified budget. The result
//! pairs the chosen level with the energy it buys, making the
//! accuracy-for-energy trade explicit.

use crate::harness::TUNER_SEED_BASE;
use crate::trials::{CampaignOptions, CampaignReport, Grid};
use crate::App;
use enerj_hw::config::Level;
use enerj_hw::energy::EnergyQuantaBreakdown;

/// One application's profile: its mean output error and energy at each
/// Table 2 level, the evidence every error budget is tuned against.
#[derive(Debug, Clone)]
pub struct TuningProfile {
    /// Mean output error at each of Mild/Medium/Aggressive.
    pub errors: [f64; 3],
    /// Normalized energy at each level (baseline = 1.0).
    pub energy: [f64; 3],
    /// Exact integer energy at each level — `energy` is its f64
    /// projection. Budget comparisons on these are `==`-exact and immune
    /// to summation order.
    pub energy_quanta: [EnergyQuantaBreakdown; 3],
}

/// The level one error budget admits, with what it costs and buys.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// The most aggressive admissible level; `None` when even Mild
    /// violates the budget (run precisely).
    pub chosen: Option<Level>,
    /// The profiled error of the chosen configuration (0 when precise).
    pub error: f64,
    /// The energy of the chosen configuration (1.0 when running precisely).
    pub energy: f64,
    /// The exact energy quanta of the chosen configuration (`None` when
    /// running precisely — a precise run has no profiled breakdown here).
    pub energy_quanta: Option<EnergyQuantaBreakdown>,
}

impl TuningProfile {
    /// Picks the most aggressive level whose mean profiled error is at most
    /// `error_budget`.
    ///
    /// # Panics
    ///
    /// Panics if `error_budget` is negative.
    pub fn tune(&self, error_budget: f64) -> TuningResult {
        assert!(error_budget >= 0.0, "error budget must be non-negative");
        match (0..Level::ALL.len()).rev().find(|&i| self.errors[i] <= error_budget) {
            None => TuningResult { chosen: None, error: 0.0, energy: 1.0, energy_quanta: None },
            Some(i) => TuningResult {
                chosen: Some(Level::ALL[i]),
                error: self.errors[i],
                energy: self.energy[i],
                energy_quanta: Some(self.energy_quanta[i]),
            },
        }
    }
}

/// Profiles every app over `runs` fault seeds per level, as one campaign
/// on the level [`Grid`], and returns one [`TuningProfile`] per app
/// together with the campaign's report (for telemetry export and JSON
/// capture). Each app is profiled once, however many budgets are then
/// tuned against it. The result is bit-identical for any thread count:
/// seeds are fixed per `(level, run)` and errors are averaged in run order.
///
/// Profiling seeds are `TUNER_SEED_BASE ^ r` — a stream provably disjoint
/// from the evaluation seeds `FAULT_SEED_BASE ^ i` (the bases differ in
/// bit 63, which XOR with any index below `2^63` preserves), so the chosen
/// level is validated on fault sequences it was *not* profiled on.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn tune_campaign(
    apps: &[App],
    runs: u64,
    opts: &CampaignOptions,
) -> (Vec<TuningProfile>, CampaignReport) {
    assert!(runs > 0, "profiling needs at least one run");
    let report =
        CampaignReport::collect(&Grid::levels(apps, &Level::ALL, runs, TUNER_SEED_BASE), opts);
    let profiles = apps
        .iter()
        .map(|app| {
            let mut profile = TuningProfile {
                errors: [0.0; 3],
                energy: [1.0; 3],
                energy_quanta: [EnergyQuantaBreakdown::ZERO; 3],
            };
            for (i, level) in Level::ALL.iter().enumerate() {
                let label = level.to_string();
                profile.errors[i] = report.mean_error_for(app.meta.name, &label);
                // Energy depends only on annotation fractions, not on
                // injected faults; keep the serial loop's last-run value.
                if let Some(last) = report.trials_for(app.meta.name, &label).last() {
                    profile.energy[i] = last.energy.total;
                    profile.energy_quanta[i] = last.energy_quanta;
                }
            }
            profile
        })
        .collect();
    (profiles, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(name: &str, runs: u64, opts: &CampaignOptions) -> TuningProfile {
        let app = crate::app(name).expect("registered");
        tune_campaign(&[app], runs, opts).0.remove(0)
    }

    #[test]
    fn robust_apps_tune_to_aggressive() {
        // MonteCarlo barely degrades at any level (Figure 5): a 5% budget
        // admits the most aggressive configuration.
        let r = profile("MonteCarlo", 3, &CampaignOptions::default()).tune(0.05);
        assert_eq!(r.chosen, Some(Level::Aggressive));
        assert!(r.energy < 0.95);
    }

    #[test]
    fn fragile_apps_tune_conservatively() {
        // SOR loses significant fidelity at Medium (Figure 5): a 10%
        // budget never admits Medium or Aggressive. Mild errors are
        // heavy-tailed (a rare random-value FP fault can dominate a small
        // profiling sample), so profile with 10 runs for a stable mean;
        // even then the tuner may legitimately fall back to precise.
        let r = profile("SOR", 10, &CampaignOptions::default()).tune(0.10);
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
        let r = profile("FFT", 3, &CampaignOptions::default()).tune(0.0);
        assert!(r.chosen.is_none() || r.chosen == Some(Level::Mild));
        if r.chosen.is_none() {
            assert_eq!(r.energy, 1.0);
            assert_eq!(r.error, 0.0);
            assert_eq!(r.energy_quanta, None);
        }
    }

    #[test]
    fn errors_reported_per_level_are_monotone_enough() {
        let p = profile("LU", 3, &CampaignOptions::default());
        let r = p.tune(1.0);
        assert_eq!(r.chosen, Some(Level::Aggressive), "budget 1.0 admits everything");
        assert!(p.errors[0] <= p.errors[2] + 1e-9);
        assert!(p.energy[0] >= p.energy[2]);
        // The quanta are the exact source of the normalized numbers: each
        // level's scaled total stays at or below its own baseline, and the
        // chosen level's breakdown is returned verbatim (==-comparable).
        for q in &p.energy_quanta {
            assert!(q.total <= q.baseline_total);
        }
        assert_eq!(r.energy_quanta, Some(p.energy_quanta[2]));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = profile("MonteCarlo", 0, &CampaignOptions::default());
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let apps: Vec<App> =
            ["FFT", "MonteCarlo"].map(|n| crate::app(n).expect("registered")).into();
        let serial = tune_campaign(&apps, 3, &CampaignOptions::with_threads(1)).0;
        let parallel = tune_campaign(&apps, 3, &CampaignOptions::with_threads(4)).0;
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.tune(0.05), p.tune(0.05));
            for i in 0..3 {
                assert_eq!(s.errors[i].to_bits(), p.errors[i].to_bits());
                assert_eq!(s.energy[i].to_bits(), p.energy[i].to_bits());
                assert_eq!(s.energy_quanta[i], p.energy_quanta[i]);
            }
        }
        // Each app's profile is the one it gets when profiled alone.
        let alone = profile("MonteCarlo", 3, &CampaignOptions::with_threads(2));
        assert_eq!(alone.errors.map(f64::to_bits), serial[1].errors.map(f64::to_bits));
        assert_eq!(alone.energy_quanta, serial[1].energy_quanta);
    }
}
