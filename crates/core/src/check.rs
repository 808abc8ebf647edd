//! Checked endorsements: sanity-guarded approximate→precise casts.
//!
//! EnerJ's `endorse` (section 2.2) is a blind cast — the paper trusts the
//! programmer to "handle the imprecision intelligently", but gives them no
//! vocabulary for doing so at the cast itself. A fault-corrupted value
//! therefore crosses into the precise world unchecked. Significance-aware
//! runtimes close this gap with per-result checking and re-execution at
//! higher precision; this module supplies the checking half:
//! [`endorse_checked`] performs the ordinary endorsement (including its
//! final approximate SRAM read — the hardware cost is identical to
//! [`endorse`]) and then applies an application-supplied
//! [`Guard`], returning `Err(EndorseError)` instead of admitting a value
//! that fails its sanity check. Recovery layers (`enerj_apps::recovery`)
//! treat that rejection as a retryable failure.
//!
//! # Examples
//!
//! ```
//! use enerj_core::{endorse_checked, in_range, Approx, Runtime};
//! use enerj_hw::config::Level;
//!
//! let rt = Runtime::new(Level::Mild, 0);
//! let admitted = rt.run(|| {
//!     let x = Approx::new(0.25f64);
//!     endorse_checked(x, in_range(0.0, 1.0))
//! });
//! assert_eq!(admitted.unwrap(), 0.25);
//! ```

use std::fmt;

use crate::approx::{endorse, Approx};
use crate::prim::ApproxPrim;

/// Why a checked endorsement rejected its value.
///
/// Carries the guard's description and a rendering of the offending value,
/// so failure causes can be reported without re-running under a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndorseError {
    /// Description of the guard that rejected the value.
    pub guard: String,
    /// `Debug` rendering of the rejected value.
    pub value: String,
}

impl fmt::Display for EndorseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "endorsement rejected: {} failed on {}", self.guard, self.value)
    }
}

impl std::error::Error for EndorseError {}

/// A sanity check applied to a value at an endorsement boundary.
///
/// Guards are small, composable predicates; combine them with
/// [`Guard::and`]. They are deliberately pure — a guard sees the endorsed
/// value only, never the hardware — so checking cannot perturb the fault
/// PRNG or the energy accounting.
pub trait Guard<T> {
    /// One-line description of what the guard admits, for diagnostics.
    fn describe(&self) -> String;

    /// Whether `value` passes the check.
    fn admit(&self, value: &T) -> bool;

    /// Both this guard and `other` must admit the value.
    fn and<G: Guard<T>>(self, other: G) -> And<Self, G>
    where
        Self: Sized,
    {
        And(self, other)
    }
}

/// Conjunction of two guards (see [`Guard::and`]).
#[derive(Debug, Clone, Copy)]
pub struct And<A, B>(A, B);

impl<T, A: Guard<T>, B: Guard<T>> Guard<T> for And<A, B> {
    fn describe(&self) -> String {
        format!("{} and {}", self.0.describe(), self.1.describe())
    }

    fn admit(&self, value: &T) -> bool {
        self.0.admit(value) && self.1.admit(value)
    }
}

/// Admits values in the closed range `[lo, hi]` (see [`in_range`]).
#[derive(Debug, Clone, Copy)]
pub struct InRange<T> {
    lo: T,
    hi: T,
}

/// A guard admitting values in the closed range `[lo, hi]`.
///
/// For floats, NaN compares false against both bounds and is rejected.
pub fn in_range<T: PartialOrd + fmt::Debug>(lo: T, hi: T) -> InRange<T> {
    InRange { lo, hi }
}

impl<T: PartialOrd + fmt::Debug> Guard<T> for InRange<T> {
    fn describe(&self) -> String {
        format!("in [{:?}, {:?}]", self.lo, self.hi)
    }

    fn admit(&self, value: &T) -> bool {
        *value >= self.lo && *value <= self.hi
    }
}

/// Admits finite floats (see [`finite`]).
#[derive(Debug, Clone, Copy)]
pub struct Finite;

/// A guard admitting finite floats: rejects NaN and ±infinity. The classic
/// symptom of a high-order mantissa upset is a silently enormous or
/// non-finite value; this is the cheapest useful check on any float result.
pub fn finite() -> Finite {
    Finite
}

/// Admits floats that are not NaN (see [`not_nan`]).
#[derive(Debug, Clone, Copy)]
pub struct NotNan;

/// A guard rejecting NaN but admitting ±infinity, for algorithms whose
/// intermediate results legitimately saturate.
pub fn not_nan() -> NotNan {
    NotNan
}

macro_rules! impl_float_guards {
    ($($t:ty),*) => {$(
        impl Guard<$t> for Finite {
            fn describe(&self) -> String {
                "finite".to_string()
            }
            fn admit(&self, value: &$t) -> bool {
                value.is_finite()
            }
        }
        impl Guard<$t> for NotNan {
            fn describe(&self) -> String {
                "not NaN".to_string()
            }
            fn admit(&self, value: &$t) -> bool {
                !value.is_nan()
            }
        }
    )*};
}

impl_float_guards!(f32, f64);

/// An arbitrary named predicate (see [`predicate`]).
#[derive(Debug, Clone, Copy)]
pub struct Predicate<F> {
    name: &'static str,
    check: F,
}

/// A guard from an arbitrary predicate. `name` is the diagnostic
/// description; keep it short and declarative ("decoded payload non-empty").
pub fn predicate<T, F: Fn(&T) -> bool>(name: &'static str, check: F) -> Predicate<F> {
    Predicate { name, check }
}

impl<T, F: Fn(&T) -> bool> Guard<T> for Predicate<F> {
    fn describe(&self) -> String {
        self.name.to_string()
    }

    fn admit(&self, value: &T) -> bool {
        (self.check)(value)
    }
}

/// Endorses an approximate value, then applies `guard` to the result.
///
/// The endorsement itself is exactly [`endorse`]: one final
/// approximate SRAM read under an installed runtime. The guard runs on the
/// precise side of the cast and touches no simulated hardware, so
/// `endorse_checked` has the same fault/energy footprint as a blind
/// endorsement — callers pay only for the host-side predicate.
pub fn endorse_checked<T, G>(value: Approx<T>, guard: G) -> Result<T, EndorseError>
where
    T: ApproxPrim + fmt::Debug,
    G: Guard<T>,
{
    let endorsed = endorse(value);
    if guard.admit(&endorsed) {
        Ok(endorsed)
    } else {
        Err(EndorseError { guard: guard.describe(), value: format!("{endorsed:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact_rt() -> Runtime {
        Runtime::with_config(
            HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE),
            0,
        )
    }

    #[test]
    fn checked_endorsement_admits_sane_values() {
        let rt = exact_rt();
        rt.run(|| {
            let x = Approx::new(0.5f64);
            assert_eq!(endorse_checked(x, in_range(0.0, 1.0)).unwrap(), 0.5);
            assert_eq!(endorse_checked(x, finite()).unwrap(), 0.5);
            assert_eq!(endorse_checked(x, not_nan()).unwrap(), 0.5);
        });
    }

    #[test]
    fn checked_endorsement_rejects_with_cause() {
        let rt = exact_rt();
        rt.run(|| {
            let x = Approx::new(f64::NAN);
            let err = endorse_checked(x, finite()).unwrap_err();
            assert_eq!(err.guard, "finite");
            assert_eq!(err.value, "NaN");
            assert!(err.to_string().contains("finite"));

            let y = Approx::new(7i32);
            let err = endorse_checked(y, in_range(0, 5)).unwrap_err();
            assert_eq!(err.guard, "in [0, 5]");
            assert_eq!(err.value, "7");
        });
    }

    #[test]
    fn range_guard_rejects_nan() {
        // NaN compares false against both bounds; a range guard must not
        // admit it by vacuous truth.
        assert!(!in_range(0.0f64, 1.0).admit(&f64::NAN));
        assert!(not_nan().admit(&f64::INFINITY));
        assert!(!finite().admit(&f64::INFINITY));
    }

    #[test]
    fn guards_compose_with_and() {
        let g = in_range(0.0f64, 10.0).and(predicate("integral", |v: &f64| v.fract() == 0.0));
        assert!(g.admit(&3.0));
        assert!(!g.admit(&3.5));
        assert!(!g.admit(&11.0));
        assert_eq!(g.describe(), "in [0.0, 10.0] and integral");
    }

    #[test]
    fn checked_endorsement_costs_the_same_as_blind() {
        // Same hardware trajectory: the guard must not touch the simulator.
        let run = |checked: bool| {
            let rt = Runtime::new(Level::Aggressive, 42);
            let _ = rt.run(|| {
                let mut acc = Approx::new(0.0f64);
                for i in 0..500 {
                    acc += i as f64;
                }
                if checked {
                    endorse_checked(acc, finite()).unwrap_or(0.0)
                } else {
                    crate::endorse(acc)
                }
            });
            (rt.stats(), rt.energy().total)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn checked_endorsement_without_runtime_is_precise() {
        let x = Approx::new(2.0f64);
        assert_eq!(endorse_checked(x, finite()).unwrap(), 2.0);
    }
}
