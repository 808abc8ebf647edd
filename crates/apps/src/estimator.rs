//! Reference-free plausibility estimation for scalar outputs.
//!
//! The matrix-shaped apps are caught by their structural `check()`
//! functions (non-finite values, out-of-range pixels), but MonteCarlo and
//! jMonkeyEngine reduce to *single bounded scalars* that stay superficially
//! plausible under corruption — the EXPERIMENTS.md gap: their checkers were
//! blind to everything but NaN. Two complementary signals close it:
//!
//! * **Static plausibility bands** wired directly into the apps'
//!   [`check`](crate::App::check) functions (a π estimate outside
//!   `[2.6, 3.7]` is not a π estimate; a decision fraction outside
//!   `[0.05, 0.95]` is not a plausible scene) — stateless, so the recovery
//!   ladder can use them on any single run.
//! * **A running robust z-score** ([`RunningMad`]): the median absolute
//!   deviation over a window of *recent accepted outputs*, which adapts to
//!   where the campaign's outputs actually cluster and flags values that
//!   sit implausibly far outside that cluster. It is stateful, so it lives
//!   at a campaign's in-order drain point (the online scheduler's
//!   controller), never inside the stateless `check` fn — state in `check`
//!   would break the bit-identical-at-any-thread-count guarantee.
//!
//! Scoring uses the standard robust estimate `z = |x − median| /
//! (1.4826 · MAD)`, with an absolute deviation floor so a window of
//! near-identical values does not flag ordinary jitter as corruption.
//! Everything here is deterministic: same pushes in the same order, same
//! verdicts, on any thread count.

use std::collections::VecDeque;

/// Scale factor that makes the MAD a consistent estimator of the standard
/// deviation for normally distributed data.
const MAD_TO_SIGMA: f64 = 1.4826;

/// A windowed median-absolute-deviation plausibility estimator for scalar
/// outputs.
///
/// Push each *accepted* scalar with [`push`](Self::push); ask whether a new
/// value is plausible with [`is_plausible`](Self::is_plausible) (or get the
/// robust z-score from [`score`](Self::score)). Until `min_samples` values
/// (see [`with`](Self::with)) have been pushed the estimator
/// abstains: every finite value is plausible, `score` returns `None`.
/// Non-finite values are never plausible, regardless of state.
#[derive(Debug, Clone)]
pub(crate) struct RunningMad {
    window: VecDeque<f64>,
    capacity: usize,
    min_samples: usize,
    threshold: f64,
    floor: f64,
}

impl RunningMad {
    /// An estimator with the default tuning: robust z threshold 8.0 (very
    /// conservative — a legitimate output spread never gets close), at
    /// least 8 samples before any verdict, and deviation floor `floor`
    /// (the absolute deviation considered ordinary jitter at this scalar's
    /// scale, e.g. `0.02` for a π estimate).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `floor` is not a positive finite
    /// value.
    pub(crate) fn new(capacity: usize, floor: f64) -> Self {
        Self::with(capacity, 8, 8.0, floor)
    }

    /// Fully explicit constructor.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `min_samples` is zero, or `threshold`
    /// or `floor` is not a positive finite value.
    fn with(capacity: usize, min_samples: usize, threshold: f64, floor: f64) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(min_samples > 0, "min_samples must be positive");
        assert!(threshold.is_finite() && threshold > 0.0, "threshold must be positive");
        assert!(floor.is_finite() && floor > 0.0, "deviation floor must be positive");
        RunningMad {
            window: VecDeque::with_capacity(capacity),
            capacity,
            min_samples,
            threshold,
            floor,
        }
    }

    /// Adds an accepted scalar to the window, evicting the oldest when
    /// full. Non-finite values are ignored — they are corruption, not
    /// evidence of where outputs cluster.
    pub(crate) fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    /// The robust z-score of `x` against the window: `|x − median| /
    /// max(1.4826 · MAD, floor)`. `None` while the window holds fewer than
    /// `min_samples` values, or when `x` is not
    /// finite (callers should treat non-finite as implausible outright).
    fn score(&self, x: f64) -> Option<f64> {
        if !x.is_finite() || self.window.len() < self.min_samples {
            return None;
        }
        let med = self.median();
        let mut deviations: Vec<f64> = self.window.iter().map(|v| (v - med).abs()).collect();
        let mad = median_of(&mut deviations);
        let sigma = (MAD_TO_SIGMA * mad).max(self.floor);
        Some((x - med).abs() / sigma)
    }

    /// Whether `x` is a plausible next output: finite, and — once the
    /// window is warm — within [`threshold`](Self::with) robust standard
    /// deviations of the recent median.
    pub(crate) fn is_plausible(&self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        match self.score(x) {
            None => true, // abstain until warm
            Some(z) => z <= self.threshold,
        }
    }

    fn median(&self) -> f64 {
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        median_of(&mut sorted)
    }
}

/// Median of a non-empty slice of finite values (averaging the middle pair
/// for even lengths). Sorts in place.
fn median_of(values: &mut [f64]) -> f64 {
    debug_assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("window holds only finite values"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
// The fixtures below are *simulated MonteCarlo π estimates* — near-π
// literals are the point, not a sloppy spelling of `f64::consts::PI`.
#[allow(clippy::approx_constant)]
mod tests {
    use super::*;

    /// A plausible π-estimate stream: the kind of jitter MonteCarlo's
    /// accepted outputs actually show.
    fn warm_pi_estimator() -> RunningMad {
        let mut est = RunningMad::new(32, 0.02);
        for x in [3.1389, 3.1471, 3.1402, 3.1433, 3.1415, 3.1398, 3.1447, 3.1421, 3.1409, 3.1436] {
            est.push(x);
        }
        est
    }

    #[test]
    fn known_corrupted_scalars_are_flagged() {
        let est = warm_pi_estimator();
        // Values a fault-corrupted accumulator actually produces: sign
        // flips, doublings, garbage magnitudes — all far outside the
        // cluster of accepted outputs.
        for corrupted in [0.0, -3.14, 6.28, 1.0, 2.0, 100.0, 1e10, -1e10] {
            assert!(!est.is_plausible(corrupted), "{corrupted} should be implausible");
            assert!(est.score(corrupted).expect("warm window") > 8.0, "{corrupted}");
        }
        for garbage in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!est.is_plausible(garbage));
            assert_eq!(est.score(garbage), None);
        }
    }

    #[test]
    fn plausible_neighbours_pass() {
        let est = warm_pi_estimator();
        for fine in [3.1415, 3.13, 3.15, 3.1002, 3.19] {
            assert!(est.is_plausible(fine), "{fine} is ordinary MonteCarlo jitter");
        }
    }

    #[test]
    fn abstains_until_min_samples() {
        let mut est = RunningMad::new(32, 0.02);
        for i in 0..7 {
            est.push(3.14 + i as f64 * 1e-3);
            // One sample short of the default min of 8: no verdicts yet.
            assert_eq!(est.score(100.0), None);
            assert!(est.is_plausible(100.0), "abstaining accepts finite values");
            assert!(!est.is_plausible(f64::NAN), "non-finite never passes");
        }
        est.push(3.1485);
        assert_eq!(est.window.len(), 8);
        assert!(!est.is_plausible(100.0), "warm estimator flags the outlier");
    }

    #[test]
    fn deviation_floor_tolerates_identical_windows() {
        // All-identical window: MAD is 0; without the floor every nonequal
        // value would be infinitely implausible.
        let mut est = RunningMad::new(16, 0.02);
        for _ in 0..16 {
            est.push(0.5);
        }
        assert!(est.is_plausible(0.5));
        assert!(est.is_plausible(0.52), "within one floor of the median");
        assert!(!est.is_plausible(0.9), "far outside the floor band");
    }

    #[test]
    fn window_evicts_oldest_and_ignores_nonfinite_pushes() {
        let mut est = RunningMad::with(4, 2, 8.0, 0.02);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            est.push(x);
        }
        assert_eq!(est.window.len(), 4, "capacity bounds the window");
        est.push(f64::NAN);
        est.push(f64::INFINITY);
        assert_eq!(est.window.len(), 4, "non-finite values never enter the window");
    }

    #[test]
    fn verdicts_are_deterministic() {
        let a = warm_pi_estimator();
        let b = warm_pi_estimator();
        for x in [3.14, 0.0, 2.9, 3.3, 1e6] {
            assert_eq!(a.score(x).map(f64::to_bits), b.score(x).map(f64::to_bits));
        }
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn zero_capacity_rejected() {
        let _ = RunningMad::new(0, 0.02);
    }

    #[test]
    #[should_panic(expected = "deviation floor")]
    fn bad_floor_rejected() {
        let _ = RunningMad::new(8, 0.0);
    }
}
