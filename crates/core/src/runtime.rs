//! The approximate runtime: the ambient connection between `Approx` values
//! and the simulated hardware.
//!
//! EnerJ programs are ordinary programs; the *execution substrate* decides
//! what approximation means (section 4). In this embedding, a [`Runtime`]
//! owns a simulated [`Hardware`] and installs it for the duration of a
//! [`Runtime::run`] call. `Approx` operations executed inside the closure
//! are routed through the simulator; outside of any runtime they execute
//! precisely, mirroring the paper's observation that "one valid execution is
//! to ignore all annotations and execute the code as plain Java."

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::{energy_quanta, normalized_energy, EnergyBreakdown, EnergyQuantaBreakdown};
use enerj_hw::stats::Stats;
use enerj_hw::{Hardware, WatchdogTrip};

/// Why a [`Runtime::run_guarded`] call failed to complete normally.
///
/// Both arms are *graceful degradation*, not harness errors: the guarded
/// region was stopped, the runtime is intact, and its statistics and energy
/// accounting still reflect the work performed up to the stop — recovery
/// layers charge that partial work honestly before retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degraded {
    /// The op-tick budget was exhausted: a fault-corrupted loop (or
    /// genuinely over-budget computation) was terminated by the watchdog.
    OpBudgetExceeded {
        /// Completed simulated operations at the moment of the trip.
        op_ticks: u64,
        /// The budget the watchdog was armed with.
        budget: u64,
    },
    /// The guarded closure panicked; carries the truncated panic message.
    Panicked(String),
}

impl fmt::Display for Degraded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degraded::OpBudgetExceeded { op_ticks, budget } => {
                write!(f, "op budget exceeded ({op_ticks} ticks, budget {budget})")
            }
            Degraded::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Extracts a human-readable message from a panic payload, truncated to
/// `PANIC_MESSAGE_LIMIT` bytes (on a char boundary) so one huge formatted
/// panic cannot bloat failure-cause records.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    };
    let mut end = msg.len().min(PANIC_MESSAGE_LIMIT);
    while !msg.is_char_boundary(end) {
        end -= 1;
    }
    if end < msg.len() {
        format!("{}…", &msg[..end])
    } else {
        msg.to_string()
    }
}

/// Longest panic message retained by [`panic_message`], in bytes.
pub const PANIC_MESSAGE_LIMIT: usize = 120;

thread_local! {
    /// The installed machine: one slot per thread. Nesting saves and
    /// restores it (see [`Runtime::run`]).
    static CURRENT: RefCell<Option<Rc<RefCell<Hardware>>>> = const { RefCell::new(None) };
}

/// A handle to a simulated approximation-aware machine.
///
/// Runtimes are single-threaded (the simulated machine is not `Sync`).
///
/// # Examples
///
/// ```
/// use enerj_core::{endorse, Approx, Runtime};
/// use enerj_hw::config::Level;
///
/// let rt = Runtime::new(Level::Mild, 1);
/// let y = rt.run(|| {
///     let x = Approx::new(21i32);
///     endorse(x + x)
/// });
/// // Mild faults are vanishingly rare; the count of approximate ops is exact.
/// assert_eq!(rt.stats().int_approx_ops, 1);
/// let _ = y;
/// ```
#[derive(Debug)]
pub struct Runtime {
    hw: Rc<RefCell<Hardware>>,
}

impl Runtime {
    /// Creates a runtime at a Table 2 level with every strategy enabled and
    /// the random-value error mode — the paper's headline configuration.
    pub fn new(level: Level, seed: u64) -> Self {
        Runtime::with_config(HwConfig::for_level(level), seed)
    }

    /// Creates a runtime with an explicit hardware configuration.
    pub fn with_config(cfg: HwConfig, seed: u64) -> Self {
        Runtime { hw: Rc::new(RefCell::new(Hardware::new(cfg, seed))) }
    }

    /// Runs `f` with this runtime installed as the ambient substrate.
    ///
    /// Calls may nest (the innermost runtime wins), and the previous
    /// installation is restored even if `f` panics.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Rc<RefCell<Hardware>>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(Some(Rc::clone(&self.hw)))));
        f()
    }

    /// Runs `f` like [`Runtime::run`], but under a watchdog: if the
    /// simulated machine completes more than `max_ops` op-ticks, the region
    /// is terminated and `Err(Degraded::OpBudgetExceeded)` returned; if `f`
    /// panics, the panic is contained as `Err(Degraded::Panicked)`.
    ///
    /// The budget is measured on the virtual clock, so a trip is a
    /// deterministic function of the configuration, seed and program —
    /// independent of host speed and thread count. Statistics and energy
    /// remain readable after a degraded return and cover the partial work.
    ///
    /// # Examples
    ///
    /// ```
    /// use enerj_core::{endorse, Approx, Degraded, Runtime};
    /// use enerj_hw::config::Level;
    ///
    /// let rt = Runtime::new(Level::Mild, 0);
    /// let out = rt.run_guarded(100, || {
    ///     let mut acc = Approx::new(0i64);
    ///     loop {
    ///         acc += 1; // a "corrupted loop bound": never exits
    ///     }
    ///     #[allow(unreachable_code)]
    ///     endorse(acc)
    /// });
    /// assert!(matches!(out, Err(Degraded::OpBudgetExceeded { .. })));
    /// ```
    pub fn run_guarded<R>(&self, max_ops: u64, f: impl FnOnce() -> R) -> Result<R, Degraded> {
        enerj_hw::silence_watchdog_panics();
        self.hw.borrow_mut().arm_watchdog(max_ops);
        let result = catch_unwind(AssertUnwindSafe(|| self.run(f)));
        // The trip disarms itself, but a normal or panicking return leaves
        // the deadline armed — clear it so later unguarded use never trips.
        self.hw.borrow_mut().disarm_watchdog();
        match result {
            Ok(value) => Ok(value),
            Err(payload) => match payload.downcast_ref::<WatchdogTrip>() {
                Some(trip) => {
                    Err(Degraded::OpBudgetExceeded { op_ticks: trip.op_ticks, budget: trip.budget })
                }
                None => Err(Degraded::Panicked(panic_message(payload.as_ref()))),
            },
        }
    }

    /// A snapshot of the machine's statistics.
    pub fn stats(&self) -> Stats {
        self.hw.borrow().stats()
    }

    /// Normalized energy of the run so far (1.0 = fully precise execution),
    /// per the section 5.4 model with the configured Table 2 parameters.
    pub fn energy(&self) -> EnergyBreakdown {
        let hw = self.hw.borrow();
        normalized_energy(&hw.stats(), &hw.config().params)
    }

    /// Exact integer energy of the run so far: scaled and baseline quanta
    /// per component (see [`enerj_hw::quanta`]). Unlike [`Runtime::energy`]
    /// this involves no floats, so totals built from it can be merged in
    /// any order and compared with `==`.
    pub fn energy_quanta(&self) -> EnergyQuantaBreakdown {
        let hw = self.hw.borrow();
        energy_quanta(&hw.stats(), &hw.config().params)
    }

    /// The active hardware configuration.
    pub fn config(&self) -> HwConfig {
        *self.hw.borrow().config()
    }

    /// A snapshot of the always-on per-kind fault counters.
    pub fn fault_counters(&self) -> enerj_hw::FaultCounters {
        *self.hw.borrow().fault_counters()
    }

    /// Enables the opt-in structured fault log: every injected fault, in
    /// time order. Clears any previously collected events.
    pub fn enable_fault_log(&self) {
        self.hw.borrow_mut().enable_event_log();
    }

    /// Takes the collected fault-log events, leaving the log enabled and
    /// empty. Empty if the log was never enabled.
    pub fn take_fault_events(&self) -> Vec<enerj_hw::trace::FaultEvent> {
        self.hw.borrow_mut().take_event_log()
    }
}

/// Runs `f` with the ambient hardware, if a runtime is installed.
pub(crate) fn with_hw<R>(f: impl FnOnce(Option<&mut Hardware>) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some(hw) => f(Some(&mut hw.borrow_mut())),
        None => f(None),
    })
}

/// The ambient hardware handle, if a runtime is installed.
fn current_hw() -> Option<Rc<RefCell<Hardware>>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The ambient hardware handle for a heap object, which keeps it for its
/// whole life: reads, writes and the storage charge at drop go to the
/// machine that allocated the object, whatever runtime is installed later.
///
/// # Panics
///
/// Panics if no runtime is installed.
pub(crate) fn require_hw(what: &str) -> Rc<RefCell<Hardware>> {
    current_hw().unwrap_or_else(|| {
        panic!("{what} requires an installed Runtime; wrap the code in Runtime::run")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_hw::stats::OpKind;

    #[test]
    fn no_runtime_means_no_ambient_hardware() {
        assert!(current_hw().is_none());
        let answered = with_hw(|hw| hw.is_none());
        assert!(answered);
    }

    #[test]
    fn run_installs_and_removes() {
        let rt = Runtime::new(Level::Mild, 0);
        rt.run(|| {
            assert!(current_hw().is_some());
        });
        assert!(current_hw().is_none());
    }

    #[test]
    fn nested_runtimes_innermost_wins() {
        let outer = Runtime::new(Level::Mild, 0);
        let inner = Runtime::new(Level::Aggressive, 0);
        outer.run(|| {
            inner.run(|| {
                with_hw(|hw| {
                    let cfg = *hw.expect("runtime installed").config();
                    assert_eq!(cfg.params, Level::Aggressive.params());
                });
            });
            with_hw(|hw| {
                let cfg = *hw.expect("runtime installed").config();
                assert_eq!(cfg.params, Level::Mild.params());
            });
        });
    }

    #[test]
    fn panic_pops_installation() {
        let rt = Runtime::new(Level::Mild, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|| panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(current_hw().is_none());
    }

    #[test]
    fn installations_are_per_thread() {
        // The trial-campaign runner (enerj-apps' `trials` module) relies on
        // `CURRENT` being thread-local: workers install and pop their own
        // runtimes without observing each other's, and a runtime installed
        // on one thread is invisible on another.
        let rt = Runtime::new(Level::Mild, 0);
        rt.run(|| {
            assert!(current_hw().is_some());
            std::thread::scope(|scope| {
                for seed in 0..4u64 {
                    scope.spawn(move || {
                        assert!(current_hw().is_none(), "other thread's runtime leaked in");
                        let local = Runtime::new(Level::Aggressive, seed);
                        local.run(|| {
                            with_hw(|hw| hw.unwrap().precise_op(OpKind::Int));
                        });
                        assert!(current_hw().is_none());
                        assert_eq!(local.stats().int_precise_ops, 1);
                    });
                }
            });
            // The spawning thread's installation survived its workers.
            assert!(current_hw().is_some());
        });
        assert_eq!(rt.stats().int_precise_ops, 0, "worker ops never hit this runtime");
    }

    #[test]
    fn run_guarded_completes_within_budget() {
        let sum = |n: i64| {
            let mut acc = crate::Approx::new(0i64);
            for i in 0..n {
                acc += i;
            }
            crate::endorse(acc)
        };
        let rt = Runtime::new(Level::Mild, 0);
        assert_eq!(rt.run_guarded(1_000, || sum(100)), Ok(4950));
        // The budget is cleared on success: unguarded work well past it
        // completes without a trip (its value is left to Mild faults).
        let ops = rt.stats().int_approx_ops;
        rt.run(|| sum(10_000));
        assert!(rt.stats().int_approx_ops - ops >= 10_000);
    }

    #[test]
    fn run_guarded_trips_on_runaway_loops_deterministically() {
        let trip = |seed: u64| {
            let rt = Runtime::new(Level::Aggressive, seed);
            let out: Result<(), Degraded> = rt.run_guarded(10_000, || {
                let mut acc = crate::Approx::new(0i64);
                loop {
                    acc += 1;
                }
            });
            (out, rt.stats().int_approx_ops, rt.energy().total)
        };
        let (out, ops, energy) = trip(7);
        match out {
            Err(Degraded::OpBudgetExceeded { op_ticks, budget }) => {
                assert_eq!(budget, 10_000);
                assert!(op_ticks >= 10_000);
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
        assert!(ops > 0, "partial work is still accounted");
        assert!(energy > 0.0 && energy <= 1.0);
        assert_eq!(trip(7), trip(7), "trips are deterministic per seed");
    }

    #[test]
    fn run_guarded_contains_panics_with_message() {
        let rt = Runtime::new(Level::Mild, 0);
        let out: Result<(), Degraded> = rt.run_guarded(1_000, || panic!("boom at {}", 42));
        assert_eq!(out, Err(Degraded::Panicked("boom at 42".to_string())));
        assert!(current_hw().is_none(), "installation restored on panic");
    }

    #[test]
    fn run_guarded_leaves_runtime_usable_after_trip() {
        let rt = Runtime::new(Level::Mild, 3);
        let _ = rt.run_guarded(100, || {
            let mut acc = crate::Approx::new(0i64);
            loop {
                acc += 1;
            }
        });
        // The same runtime can run unguarded work afterwards.
        let out = rt.run(|| crate::endorse(crate::Approx::new(1i64) + 1));
        assert_eq!(out, 2);
    }

    #[test]
    fn panic_message_truncates_on_char_boundary() {
        assert_eq!(panic_message(&"short"), "short");
        let long = "é".repeat(100); // 200 bytes of two-byte chars
        let got = panic_message(&long.clone());
        assert!(got.ends_with('…'));
        assert!(got.len() <= PANIC_MESSAGE_LIMIT + '…'.len_utf8());
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(boxed.as_ref()), "<non-string panic payload>");
    }

    #[test]
    fn energy_of_untouched_runtime_is_baseline() {
        let rt = Runtime::new(Level::Aggressive, 0);
        assert!((rt.energy().total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_match_injected_total() {
        use crate::{endorse, Approx};
        let rt = Runtime::new(Level::Aggressive, 3);
        rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..5_000 {
                acc += i;
            }
            let _ = endorse(acc);
        });
        let counters = rt.fault_counters();
        assert_eq!(counters.total_injections(), rt.stats().faults_injected);
        assert!(!counters.is_empty());
    }

    #[test]
    fn fault_trace_records_injections_in_time_order() {
        use crate::{endorse, Approx};
        let rt = Runtime::new(Level::Aggressive, 3);
        rt.enable_fault_log();
        rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..5_000 {
                acc += i;
            }
            let _ = endorse(acc);
        });
        let events = rt.take_fault_events();
        assert!(!events.is_empty(), "aggressive run should record faults");
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time), "events are time-ordered");
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        use crate::{endorse, Approx};
        let rt = Runtime::new(Level::Aggressive, 3);
        rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..5_000 {
                acc += i;
            }
            let _ = endorse(acc);
        });
        assert!(rt.stats().faults_injected > 0, "aggressive run should inject faults");
        assert!(rt.take_fault_events().is_empty(), "log off: nothing collected");
    }

    #[test]
    fn fault_log_collects_and_takes_events() {
        use crate::{endorse, Approx};
        let rt = Runtime::new(Level::Aggressive, 3);
        assert!(rt.take_fault_events().is_empty(), "log off: nothing collected");
        rt.enable_fault_log();
        rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..5_000 {
                acc += i;
            }
            let _ = endorse(acc);
        });
        let events = rt.take_fault_events();
        assert_eq!(events.len() as u64, rt.stats().faults_injected);
        assert!(rt.take_fault_events().is_empty(), "take drains the log");
    }
}
