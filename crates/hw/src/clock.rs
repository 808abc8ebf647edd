//! Virtual time.
//!
//! DRAM decay and byte-second storage accounting both need a notion of
//! elapsed time. Wall-clock time would make simulations nondeterministic, so
//! the simulator advances a virtual clock by a fixed amount per simulated
//! event (see [`HwConfig::seconds_per_op`](crate::config::HwConfig)).

use std::fmt;
use std::panic::PanicHookInfo;
use std::sync::Once;

/// The panic payload thrown when an armed watchdog exhausts its op-tick
/// budget (see [`Hardware::arm_watchdog`](crate::Hardware::arm_watchdog)).
///
/// A fault-corrupted loop bound cannot be interrupted cooperatively — the
/// approximate region is arbitrary host code — so the watchdog aborts it by
/// unwinding with this payload from the clock tick that crosses the
/// deadline. Guarded runners (`enerj_core::Runtime::run_guarded`, `fenerjc
/// --max-ops`) catch the unwind and downcast to this type to distinguish a
/// deterministic budget trip from an application panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// The clock reading (completed simulated operations) at trip time.
    pub op_ticks: u64,
    /// The budget that was armed, in op-ticks.
    pub budget: u64,
}

impl fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op budget exceeded: {} ticks elapsed, budget {}", self.op_ticks, self.budget)
    }
}

/// A watchdog setting: the op-tick deadline and the budget it was armed
/// with. [`Hardware::arm_watchdog`](crate::Hardware::arm_watchdog) hands
/// back the one it replaces, so a nested guard can put the enclosing
/// guard's deadline back when it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Op-tick value at which the watchdog trips; `u64::MAX` (never) when
    /// disarmed, so the hot-path check is one always-false comparison.
    pub(crate) deadline: u64,
    /// The budget the watchdog was armed with, for trip diagnostics.
    pub(crate) budget: u64,
}

impl Watchdog {
    /// The disarmed setting.
    pub(crate) const DISARMED: Watchdog = Watchdog { deadline: u64::MAX, budget: 0 };
}

/// Suppresses the default "thread panicked" stderr message for
/// [`WatchdogTrip`] unwinds, process-wide.
///
/// Watchdog trips are an expected, recoverable outcome in campaigns with
/// recovery enabled; without this, every trip would spray a spurious panic
/// report into trace output and golden CLI captures. The hook wraps (and
/// otherwise delegates to) whatever hook was installed before it, and is
/// installed at most once per process.
pub fn silence_watchdog_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            if info.payload().downcast_ref::<WatchdogTrip>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A deterministic virtual clock counting simulated seconds.
///
/// # Examples
///
/// ```
/// use enerj_hw::clock::SimClock;
///
/// let mut clock = SimClock::new();
/// clock.advance(1e-6);
/// clock.advance(2e-6);
/// assert!((clock.now() - 3e-6).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `dt` is negative or not finite.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt.is_finite() && dt >= 0.0, "bad clock increment {dt}");
        self.now += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0.0);
    }

    #[test]
    fn accumulates_increments() {
        let mut c = SimClock::new();
        for _ in 0..1000 {
            c.advance(1e-6);
        }
        assert!((c.now() - 1e-3).abs() < 1e-12);
    }
}
