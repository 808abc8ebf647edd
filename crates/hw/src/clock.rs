//! Virtual time and the watchdog that bounds it.
//!
//! DRAM decay and byte-second storage accounting both need a notion of
//! elapsed time. Wall-clock time would make simulations nondeterministic, so
//! the simulator counts one op-tick per simulated operation
//! ([`Hardware::op_ticks`](crate::Hardware::op_ticks); seconds are op-ticks
//! times [`HwConfig::seconds_per_op`](crate::config::HwConfig)). An armed
//! watchdog trips at an op-tick deadline.

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
