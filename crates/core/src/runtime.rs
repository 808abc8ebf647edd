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
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::{energy_quanta, EnergyBreakdown, EnergyQuantaBreakdown};
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
/// 120 bytes (on a char boundary) so one huge formatted
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
const PANIC_MESSAGE_LIMIT: usize = 120;

/// A runtime's machine installed on this thread, with the home it returns
/// to when its run ends.
struct Installed {
    hw: Hardware,
    home: Home,
}

thread_local! {
    /// The installed machine, held by value: one slot per thread, so an op
    /// reaches its machine with one `RefCell` borrow. Nesting parks the
    /// displaced machine in its own home and reinstalls it on the way out
    /// (see [`Runtime::run`]). Every run empties the slot when it ends, so
    /// the slot never holds anything to drop at thread exit; `ManuallyDrop`
    /// says so, which spares each access the lazy-destructor check.
    static CURRENT: RefCell<ManuallyDrop<Option<Installed>>> =
        const { RefCell::new(ManuallyDrop::new(None)) };
}

/// Where a runtime's machine lives while it is not installed. Installing
/// the machine moves it out, so a machine away from its home is always the
/// one in the slot. Heap objects keep the home of the machine that
/// allocated them.
#[derive(Debug, Clone)]
pub(crate) struct Home(Rc<RefCell<Option<Hardware>>>);

impl Home {
    /// Runs `f` on this home's machine, wherever it is: in the slot while
    /// it is installed, at home otherwise.
    #[inline]
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut Hardware) -> R) -> R {
        self.with_installed(f).unwrap_or_else(|f| self.with_parked(f))
    }

    /// Runs `f` on this home's machine if it is the installed one, and
    /// hands `f` back otherwise.
    #[inline]
    pub(crate) fn with_installed<R, F: FnOnce(&mut Hardware) -> R>(&self, f: F) -> Result<R, F> {
        CURRENT.with(|c| match &mut **c.borrow_mut() {
            Some(m) if Rc::ptr_eq(&m.home.0, &self.0) => Ok(f(&mut m.hw)),
            _ => Err(f),
        })
    }

    /// [`Home::with`] for a machine that is not installed: out of line, so
    /// the installed case stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn with_parked<R>(&self, f: impl FnOnce(&mut Hardware) -> R) -> R {
        f(self.0.borrow_mut().as_mut().expect("a machine away from home is installed"))
    }
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
    home: Home,
}

impl Runtime {
    /// Creates a runtime at a Table 2 level with every strategy enabled and
    /// the random-value error mode — the paper's headline configuration.
    pub fn new(level: Level, seed: u64) -> Self {
        Runtime::with_config(HwConfig::for_level(level), seed)
    }

    /// Creates a runtime with an explicit hardware configuration.
    pub fn with_config(cfg: HwConfig, seed: u64) -> Self {
        Runtime { home: Home(Rc::new(RefCell::new(Some(Hardware::new(cfg, seed))))) }
    }

    /// Runs `f` with this runtime installed as the ambient substrate.
    ///
    /// Calls may nest (the innermost runtime wins), and the previous
    /// installation is restored even if `f` panics. The machine moves into
    /// the thread's slot for the call; a machine it displaces waits in its
    /// own home, where its heap objects still reach it.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Puts the installed machine back home and reinstalls the one it
        /// displaced, on return and on unwind. Runs nest, so the slot holds
        /// this run's machine and the displaced one waits at its home.
        struct Restore(Option<Home>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| {
                    let mut slot = c.borrow_mut();
                    if let Some(ours) = slot.take() {
                        *ours.home.0.borrow_mut() = Some(ours.hw);
                    }
                    **slot = self.0.take().and_then(|home| {
                        let hw = home.0.borrow_mut().take()?;
                        Some(Installed { hw, home })
                    });
                });
            }
        }
        let hw = self.home.0.borrow_mut().take();
        let Some(hw) = hw else {
            // Away from home means installed: this runtime is already the
            // innermost one.
            return f();
        };
        let installed = Installed { hw, home: self.home.clone() };
        let displaced = CURRENT.with(|c| c.replace(ManuallyDrop::new(Some(installed))));
        let _restore = Restore(ManuallyDrop::into_inner(displaced).map(|m| {
            *m.home.0.borrow_mut() = Some(m.hw);
            m.home
        }));
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
        let enclosing = self.home.with(|hw| hw.arm_watchdog(max_ops));
        let result = catch_unwind(AssertUnwindSafe(|| self.run(f)));
        // The trip disarms itself, but a normal or panicking return leaves
        // this guard's deadline armed. Put back what was armed before: an
        // enclosing guard's deadline (which trips at the next tick if it
        // passed in here), or none, so later unguarded use never trips.
        self.home.with(|hw| hw.restore_watchdog(enclosing));
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
        self.home.with(|hw| hw.stats())
    }

    /// Normalized energy of the run so far (1.0 = fully precise execution),
    /// per the section 5.4 model with the configured Table 2 parameters: the
    /// projection of [`Runtime::energy_quanta`].
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy_quanta().normalized()
    }

    /// Exact integer energy of the run so far: scaled and baseline quanta
    /// per component (see [`enerj_hw::quanta`]). Unlike [`Runtime::energy`]
    /// this involves no floats, so totals built from it can be merged in
    /// any order and compared with `==`.
    pub fn energy_quanta(&self) -> EnergyQuantaBreakdown {
        self.home.with(|hw| energy_quanta(&hw.stats(), &hw.config().params))
    }

    /// A snapshot of the always-on per-kind fault counters.
    pub fn fault_counters(&self) -> enerj_hw::FaultCounters {
        self.home.with(|hw| *hw.fault_counters())
    }

    /// Enables the opt-in structured fault log: every injected fault, in
    /// time order. Clears any previously collected events.
    pub fn enable_fault_log(&self) {
        self.home.with(Hardware::enable_event_log);
    }

    /// Takes the collected fault-log events, leaving the log enabled and
    /// empty. Empty if the log was never enabled.
    pub fn take_fault_events(&self) -> Vec<enerj_hw::trace::FaultEvent> {
        self.home.with(Hardware::take_event_log)
    }
}

/// Runs `f` with the ambient hardware, if a runtime is installed.
#[inline]
pub(crate) fn with_hw<R>(f: impl FnOnce(Option<&mut Hardware>) -> R) -> R {
    CURRENT.with(|c| f(c.borrow_mut().as_mut().map(|m| &mut m.hw)))
}

/// The home of the installed machine, for a heap object, which keeps it
/// for its whole life: reads, writes and the storage charge at drop go to
/// the machine that allocated the object, whatever runtime is installed
/// later.
///
/// # Panics
///
/// Panics if no runtime is installed.
pub(crate) fn installed_home(what: &str) -> Home {
    CURRENT.with(|c| c.borrow().as_ref().map(|m| m.home.clone())).unwrap_or_else(|| {
        panic!("{what} requires an installed Runtime; wrap the code in Runtime::run")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_hw::stats::OpKind;

    fn installed() -> bool {
        with_hw(|hw| hw.is_some())
    }

    fn is_installed(rt: &Runtime) -> bool {
        Rc::ptr_eq(&installed_home("a test").0, &rt.home.0)
    }

    #[test]
    fn no_runtime_means_no_ambient_hardware() {
        assert!(!installed());
        assert!(CURRENT.with(|c| c.borrow().is_none()));
    }

    #[test]
    fn run_installs_and_removes() {
        let rt = Runtime::new(Level::Mild, 0);
        rt.run(|| {
            assert!(installed());
        });
        assert!(!installed());
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
        assert!(!installed());
    }

    #[test]
    fn installations_are_per_thread() {
        // The trial-campaign runner (enerj-apps' `trials` module) relies on
        // `CURRENT` being thread-local: workers install and pop their own
        // runtimes without observing each other's, and a runtime installed
        // on one thread is invisible on another.
        let rt = Runtime::new(Level::Mild, 0);
        rt.run(|| {
            assert!(installed());
            std::thread::scope(|scope| {
                for seed in 0..4u64 {
                    scope.spawn(move || {
                        assert!(!installed(), "other thread's runtime leaked in");
                        let local = Runtime::new(Level::Aggressive, seed);
                        local.run(|| {
                            with_hw(|hw| hw.unwrap().precise_op(OpKind::Int));
                        });
                        assert!(!installed());
                        assert_eq!(local.stats().int_precise_ops, 1);
                    });
                }
            });
            // The spawning thread's installation survived its workers.
            assert!(installed());
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
        assert!(!installed(), "installation restored on panic");
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
        rt.enable_fault_log();
        rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..5_000 {
                acc += i;
            }
            let _ = endorse(acc);
        });
        let counters = rt.fault_counters();
        let events = rt.take_fault_events();
        assert!(!counters.is_empty());
        for (kind, count) in counters.per_kind() {
            let logged: Vec<_> = events.iter().filter(|e| e.kind == kind).collect();
            assert_eq!(count.injections, logged.len() as u64, "{kind:?}");
            let flipped: u64 = logged.iter().map(|e| u64::from(e.bits_flipped)).sum();
            assert_eq!(count.bits_flipped, flipped, "{kind:?}");
        }
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
        assert!(rt.fault_counters().total_injections() > 0, "aggressive run should inject faults");
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
        assert_eq!(events.len() as u64, rt.fault_counters().total_injections());
        assert!(rt.take_fault_events().is_empty(), "take drains the log");
    }

    /// `n` approximate integer additions with precise right-hand sides.
    fn sum(n: i64) -> i64 {
        let mut acc = crate::Approx::new(0i64);
        for i in 0..n {
            acc += i;
        }
        crate::endorse(acc)
    }

    /// Everything a runtime's accounts hold, for comparing two machines.
    fn accounts(rt: &Runtime) -> (Stats, EnergyQuantaBreakdown, enerj_hw::FaultCounters) {
        (rt.stats(), rt.energy_quanta(), rt.fault_counters())
    }

    #[test]
    fn nested_run_guarded_restores_the_enclosing_budget() {
        let rt = Runtime::new(Level::Mild, 0);
        let out = rt.run_guarded(100, || {
            assert_eq!(rt.run_guarded(1_000, || sum(10)), Ok(45));
            sum(10_000)
        });
        assert!(
            matches!(out, Err(Degraded::OpBudgetExceeded { budget: 100, .. })),
            "the inner guard disarmed the outer one: {out:?}"
        );
        // The same work without the nested guard trips the same budget.
        let plain = Runtime::new(Level::Mild, 0);
        let out = plain.run_guarded(100, || {
            sum(10);
            sum(10_000)
        });
        assert!(matches!(out, Err(Degraded::OpBudgetExceeded { budget: 100, .. })));
    }

    #[test]
    fn an_enclosing_deadline_passed_inside_trips_at_the_next_tick() {
        let rt = Runtime::new(Level::Mild, 0);
        let mut after_inner = 0;
        let out = rt.run_guarded(100, || {
            // The inner budget covers work well past the outer deadline.
            assert!(rt.run_guarded(10_000, || sum(500)).is_ok());
            after_inner = with_hw(|hw| hw.expect("installed").op_ticks());
            sum(1)
        });
        match out {
            Err(Degraded::OpBudgetExceeded { op_ticks, budget: 100 }) => {
                assert!(after_inner > 100);
                assert_eq!(
                    op_ticks,
                    after_inner + 1,
                    "trips at the first tick after the inner guard"
                );
            }
            other => panic!("expected the outer budget to trip, got {other:?}"),
        }
        // A trip disarms: the runtime runs unguarded work afterwards.
        assert_eq!(rt.run(|| sum(10)), 45);
    }

    #[test]
    fn a_runtime_nested_inside_itself_stays_installed() {
        let rt = Runtime::new(Level::Aggressive, 5);
        let got = rt.run(|| {
            let a = sum(300);
            let b = rt.run(|| sum(300));
            assert!(installed(), "the inner run of the same runtime left it installed");
            (a, b, sum(300))
        });
        assert!(!installed());
        let control = Runtime::new(Level::Aggressive, 5);
        let want = control.run(|| (sum(300), sum(300), sum(300)));
        assert_eq!(got, want);
        assert_eq!(accounts(&rt), accounts(&control));
    }

    #[test]
    fn accessors_read_the_installed_machine_inside_its_own_run() {
        let rt = Runtime::new(Level::Aggressive, 6);
        let control = Runtime::new(Level::Aggressive, 6);
        let inside = rt.run(|| {
            sum(2_000);
            let seen = accounts(&rt);
            rt.enable_fault_log();
            sum(2_000);
            (seen, rt.take_fault_events().len() as u64)
        });
        control.run(|| sum(2_000));
        let (seen, logged) = inside;
        assert_eq!(seen, accounts(&control));
        assert!(seen.0.int_approx_ops >= 2_000 && seen.2.total_injections() > 0);
        control.run(|| sum(2_000));
        assert_eq!(logged, control.fault_counters().total_injections() - seen.2.total_injections());
        assert_eq!(accounts(&rt), accounts(&control));
    }

    /// Heap traffic only: DRAM reads and writes, no register-file access,
    /// so whichever runtime is installed sees none of it.
    fn shuffle(v: &mut crate::ApproxVec<f64>, p: &mut crate::PreciseVec<i64>, round: usize) {
        for i in 0..v.len() {
            let j = (i * 7 + round) % v.len();
            let x = v.get(j);
            v.set(i, x);
            let id = p.get(j);
            p.set(i, id ^ round as i64);
        }
    }

    #[test]
    fn heap_objects_follow_their_machine_through_a_b_a_nesting() {
        use crate::{endorse, Approx, ApproxVec, PreciseVec};
        let data: Vec<f64> = (0..48).map(|i| f64::from(i) * 0.37).collect();
        let ids: Vec<i64> = (0..48).collect();
        // A allocates; B is installed over it while the objects are used;
        // A is installed again inside B.
        let a = Runtime::new(Level::Aggressive, 11);
        let b = Runtime::new(Level::Aggressive, 12);
        let got = a.run(|| {
            let mut v = ApproxVec::from_slice(&data);
            let mut p = PreciseVec::from_slice(&ids);
            shuffle(&mut v, &mut p, 1);
            let (under_b, again_a) = b.run(|| {
                shuffle(&mut v, &mut p, 2);
                let under_b = sum(400);
                let again_a = a.run(|| {
                    shuffle(&mut v, &mut p, 3);
                    endorse(v.get(5) * 2.0 + Approx::new(1.0))
                });
                assert!(is_installed(&b));
                (under_b.wrapping_add(sum(400)), again_a)
            });
            shuffle(&mut v, &mut p, 4);
            (under_b, again_a.to_bits(), v.endorse_to_vec(), p.to_vec())
        });
        // The same work with each machine's share run on its own twin.
        let (ca, cb) = (Runtime::new(Level::Aggressive, 11), Runtime::new(Level::Aggressive, 12));
        let want = ca.run(|| {
            let mut v = ApproxVec::from_slice(&data);
            let mut p = PreciseVec::from_slice(&ids);
            for round in 1..=3 {
                shuffle(&mut v, &mut p, round);
            }
            let again_a = endorse(v.get(5) * 2.0 + Approx::new(1.0));
            shuffle(&mut v, &mut p, 4);
            let under_b = cb.run(|| sum(400).wrapping_add(sum(400)));
            (under_b, again_a.to_bits(), v.endorse_to_vec(), p.to_vec())
        });
        assert_eq!(got.0, want.0);
        assert_eq!(got.1, want.1);
        assert_eq!(
            got.2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(got.3, want.3);
        assert_eq!(accounts(&a), accounts(&ca), "every tick and quantum landed on A");
        assert_eq!(accounts(&b), accounts(&cb), "B saw only its own work");
    }

    #[test]
    fn a_trip_in_a_nested_inner_run_leaves_both_machines_in_place() {
        use crate::{endorse, ApproxVec};
        let runaway = || {
            let mut acc = crate::Approx::new(0i64);
            loop {
                acc += 1;
            }
        };
        let outer = Runtime::new(Level::Aggressive, 21);
        let inner = Runtime::new(Level::Aggressive, 22);
        let got = outer.run(|| {
            let mut v = ApproxVec::from_slice(&[1.5f64; 16]);
            let before = sum(300);
            let trip: Result<(), Degraded> = inner.run_guarded(1_000, runaway);
            assert!(matches!(trip, Err(Degraded::OpBudgetExceeded { budget: 1_000, .. })));
            assert!(is_installed(&outer));
            let x = v.get(3);
            v.set(4, x);
            (before, sum(300), endorse(v.get(4)).to_bits())
        });
        assert!(!installed());
        let (co, ci) = (Runtime::new(Level::Aggressive, 21), Runtime::new(Level::Aggressive, 22));
        let want = co.run(|| {
            let mut v = ApproxVec::from_slice(&[1.5f64; 16]);
            let before = sum(300);
            let x = v.get(3);
            v.set(4, x);
            (before, sum(300), endorse(v.get(4)).to_bits())
        });
        let trip: Result<(), Degraded> = ci.run_guarded(1_000, runaway);
        assert!(trip.is_err());
        assert_eq!(got, want);
        assert_eq!(accounts(&outer), accounts(&co));
        assert_eq!(accounts(&inner), accounts(&ci));
        // Both machines are home again and usable.
        assert_eq!(inner.run(|| sum(10)), ci.run(|| sum(10)));
        assert_eq!(outer.run(|| sum(10)), co.run(|| sum(10)));
    }
}
