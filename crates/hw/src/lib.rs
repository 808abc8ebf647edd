//! # enerj-hw: the approximation-aware execution substrate
//!
//! This crate simulates the hardware model of *EnerJ: Approximate Data Types
//! for Safe and General Low-Power Computation* (PLDI 2011), section 4: a
//! machine with approximate registers and caches (SRAM under lowered supply
//! voltage), approximate main memory (DRAM under reduced refresh rate), and
//! imprecise functional units (voltage-scaled ALUs and width-reduced FPUs).
//!
//! The central type is [`Hardware`]: a deterministic, seeded fault-injection
//! engine that also keeps the statistics (dynamic operation counts and
//! storage byte-seconds) and drives the energy model used to regenerate the
//! paper's Figures 3 and 4.
//!
//! Modules:
//!
//! * [`config`] — Table 2 parameter bundles (Mild/Medium/Aggressive),
//!   strategy masks for ablations, and functional-unit error modes.
//! * [`fault`] — bit-level fault injection primitives.
//! * `clock` — the op-tick watchdog ([`Watchdog`], [`WatchdogTrip`]).
//! * [`stats`] — operation and byte-second accounting (Figure 3).
//! * [`layout`] — cache-line-granularity layout of approximate data (§4.1).
//! * `alu`, [`fpu`] — imprecise functional units (§4.2).
//! * `sram`, [`dram`] — approximate storage (§4.2, §5.3).
//! * `batch` — whole-slice entry points on the units above.
//! * [`energy`] — the CPU/memory-system energy model (§5.4, Figure 4).
//!
//! # Examples
//!
//! ```
//! use enerj_hw::config::{HwConfig, Level};
//! use enerj_hw::Hardware;
//!
//! let mut hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 7);
//! // An approximate integer add: the raw result may be perturbed.
//! let raw = 2i64.wrapping_add(3) as u64;
//! let observed = hw.approx_int_result(raw, 64);
//! // With overwhelming probability this is still 5, but no guarantee.
//! let _ = observed;
//! assert_eq!(hw.stats().int_approx_ops, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alu;
mod batch;
mod clock;
pub mod config;
pub mod dram;
pub mod energy;
pub mod fault;
pub mod fpu;
pub mod layout;
pub mod quanta;
mod sram;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use config::{ErrorMode, HwConfig, Level, StrategyMask};
pub use dram::DramArray;
pub use quanta::EnergyQuanta;
pub use stats::{MemKind, OpKind, Stats};
pub use telemetry::FaultCounters;

pub use clock::{silence_watchdog_panics, Watchdog, WatchdogTrip};

use fault::{GeomCountdown, HazardCountdown};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trace::{FaultEvent, FaultKind};

/// Snapshot of the `HwConfig` fields the per-access hot path reads, plus a
/// few derived constants. `HwConfig` is immutable once a `Hardware` is
/// constructed, so hoisting these into a flat struct lets the hot path skip
/// re-borrowing `config()` and re-deriving masks per access.
#[derive(Debug, Clone, Copy)]
struct HotConfig {
    seconds_per_op: f64,
    /// Effective DRAM decay rate per op-tick (`dram_flip_per_second ×
    /// seconds_per_op`): zero when the strategy is masked off. A refresh
    /// gap of `dt` op-ticks has hazard [`fault::decay_hazard`]`(this, dt)`.
    dram_rate_per_tick: f64,
    error_mode: ErrorMode,
    /// Mantissa-truncation mask for `f32` operands, precomputed from the
    /// effective kept width (all ones — the identity — when the fp-width
    /// strategy is masked off).
    f32_trunc_mask: u32,
    /// Mantissa-truncation mask for `f64` operands.
    f64_trunc_mask: u64,
}

impl HotConfig {
    /// # Panics
    ///
    /// Panics if the effective DRAM decay rate or `seconds_per_op` is
    /// negative or NaN — the check [`fault::decay_probability`] makes per
    /// call, made once per machine since the hot path never calls it.
    fn new(cfg: &HwConfig) -> Self {
        let rate = if cfg.mask.dram { cfg.params.dram_flip_per_second } else { 0.0 };
        let seconds_per_op = cfg.seconds_per_op;
        assert!(
            rate >= 0.0 && seconds_per_op >= 0.0,
            "decay rate {rate} and seconds per op {seconds_per_op} must be non-negative"
        );
        HotConfig {
            seconds_per_op,
            dram_rate_per_tick: rate * seconds_per_op,
            error_mode: cfg.error_mode,
            f32_trunc_mask: if cfg.mask.fp_width {
                fpu::trunc_mask_f32(cfg.params.float_mantissa_bits)
            } else {
                u32::MAX
            },
            f64_trunc_mask: if cfg.mask.fp_width {
                fpu::trunc_mask_f64(cfg.params.double_mantissa_bits)
            } else {
                u64::MAX
            },
        }
    }
}

/// Per-stream amortized fault countdowns (see [`fault::GeomCountdown`] and
/// [`fault::HazardCountdown`]). Masked-off strategies get probability-zero
/// streams that never fire and never touch the RNG.
///
/// Streams draw their initial gaps in a fixed order (SRAM read, SRAM write,
/// int timing, fp timing, DRAM), so a given `(config, seed)` pair always
/// yields the same fault sequence.
#[derive(Debug, Clone)]
struct FaultScheduler {
    sram_read: GeomCountdown,
    sram_write: GeomCountdown,
    int_timing: GeomCountdown,
    fp_timing: GeomCountdown,
    dram: HazardCountdown,
}

impl FaultScheduler {
    fn new(cfg: &HwConfig, rng: &mut StdRng) -> Self {
        fn eff(enabled: bool, p: f64) -> f64 {
            if enabled {
                p
            } else {
                0.0
            }
        }
        let (m, p) = (&cfg.mask, &cfg.params);
        FaultScheduler {
            sram_read: GeomCountdown::new(eff(m.sram_read, p.sram_read_upset_prob), rng),
            sram_write: GeomCountdown::new(eff(m.sram_write, p.sram_write_failure_prob), rng),
            int_timing: GeomCountdown::new(eff(m.fu_timing, p.timing_error_prob), rng),
            fp_timing: GeomCountdown::new(eff(m.fu_timing, p.timing_error_prob), rng),
            dram: HazardCountdown::new(rng),
        }
    }
}

/// The simulated approximation-aware machine.
///
/// `Hardware` owns the random-number generator (seeded, so runs are
/// reproducible), the virtual clock, the statistics counters and the
/// per-unit state of the last-value error model. All fault injection and
/// accounting flows through methods on this type; the `alu`, [`fpu`],
/// `sram`, [`dram`] and `batch` modules contribute `impl Hardware` blocks.
///
/// Fault injection is *amortized*: each fault stream keeps a countdown to
/// its next fault, so the steady-state cost of an access is a counter
/// decrement (see DESIGN.md, "Amortized fault scheduling"). The injected
/// fault process is distributionally identical to per-access Bernoulli
/// sampling, but the RNG stream differs from the pre-amortization
/// implementation, so individual seeded trials produce a different —
/// equally valid — sample.
#[derive(Debug, Clone)]
pub struct Hardware {
    cfg: HwConfig,
    hot: HotConfig,
    rng: StdRng,
    sched: FaultScheduler,
    /// Completed simulated operations; simulated time is
    /// `op_ticks * seconds_per_op`.
    op_ticks: u64,
    /// The armed watchdog deadline and budget (disarmed: never trips).
    watchdog: Watchdog,
    stats: Stats,
    /// SRAM residency not yet folded into `stats`, in bit-access quanta,
    /// indexed by `approx as usize`. Folded lazily by [`Hardware::stats`].
    pending_sram_bits: [u64; 2],
    /// Last result of the integer unit (for [`ErrorMode::LastValue`]).
    pub(crate) last_int: u64,
    /// Last result of the floating-point unit (for [`ErrorMode::LastValue`]).
    pub(crate) last_fp: u64,
    counters: FaultCounters,
    event_log: Option<Vec<FaultEvent>>,
}

impl Hardware {
    /// Creates a machine with the given configuration and RNG seed.
    pub fn new(cfg: HwConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = FaultScheduler::new(&cfg, &mut rng);
        Hardware {
            hot: HotConfig::new(&cfg),
            cfg,
            rng,
            sched,
            op_ticks: 0,
            watchdog: Watchdog::DISARMED,
            stats: Stats::new(),
            pending_sram_bits: [0; 2],
            last_int: 0,
            last_fp: 0,
            counters: FaultCounters::new(),
            event_log: None,
        }
    }

    /// The always-on per-kind fault counters.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Enables the unbounded structured fault log (opt-in; the always-on
    /// counters are independent of this). Clears any previous log.
    pub fn enable_event_log(&mut self) {
        self.event_log = Some(Vec::new());
    }

    /// Takes the collected fault events, leaving the log enabled and empty.
    /// Returns an empty vector if the log was never enabled.
    pub fn take_event_log(&mut self) -> Vec<FaultEvent> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Records one injected fault in the always-on counters and — when
    /// enabled — the structured event log.
    ///
    /// Never touches the fault PRNG, so recording cannot perturb the
    /// simulated outcome.
    #[cold]
    pub(crate) fn note_fault(&mut self, kind: FaultKind, width: u32, bits_flipped: u32) {
        self.counters.record(kind, bits_flipped);
        if let Some(log) = &mut self.event_log {
            // Simulated seconds: op-ticks times the op time.
            let time = self.op_ticks as f64 * self.hot.seconds_per_op;
            log.push(FaultEvent { kind, time, width, bits_flipped });
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Accumulated statistics so far.
    ///
    /// Returned by value: the hot path accumulates SRAM residency as a pair
    /// of plain `u64` bit counters, and this fold widens them into the
    /// `u128` quanta pools lazily at read time — a pure integer fold, so
    /// reading statistics is exact and side-effect-free.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.sram_precise_quanta += EnergyQuanta::new(u128::from(self.pending_sram_bits[0]));
        s.sram_approx_quanta += EnergyQuanta::new(u128::from(self.pending_sram_bits[1]));
        s
    }

    /// Mutable access to the statistics (the DRAM model accounts the
    /// storage it manages itself through it). Flushes pending SRAM bit-quanta
    /// first so the returned reference sees fully-folded values.
    fn stats_mut(&mut self) -> &mut Stats {
        self.flush_pending_storage();
        &mut self.stats
    }

    /// Folds the pending SRAM bit counters into the integer quanta pools.
    fn flush_pending_storage(&mut self) {
        self.stats.sram_precise_quanta += EnergyQuanta::new(u128::from(self.pending_sram_bits[0]));
        self.stats.sram_approx_quanta += EnergyQuanta::new(u128::from(self.pending_sram_bits[1]));
        self.pending_sram_bits = [0; 2];
    }

    /// Completed simulated operations — the virtual clock in op-tick units.
    /// Multiply by [`HwConfig::seconds_per_op`] for seconds.
    pub fn op_ticks(&self) -> u64 {
        self.op_ticks
    }

    /// Advances the virtual clock by one operation time. Trips the
    /// watchdog, if armed, when the deadline is crossed.
    #[inline]
    pub(crate) fn tick(&mut self) {
        self.op_ticks += 1;
        if self.op_ticks >= self.watchdog.deadline {
            self.watchdog_trip();
        }
    }

    /// Arms the watchdog: once `max_ops` further op-ticks have elapsed, the
    /// next clock advance unwinds with a [`WatchdogTrip`] payload. The
    /// deadline is measured in op-ticks — simulated work — so a trip is a
    /// deterministic function of `(config, seed, program)`, independent of
    /// host speed or thread scheduling. Re-arming replaces any previous
    /// deadline; the replaced setting is returned for
    /// [`Hardware::restore_watchdog`].
    pub fn arm_watchdog(&mut self, max_ops: u64) -> Watchdog {
        let deadline = self.op_ticks.saturating_add(max_ops.max(1));
        std::mem::replace(&mut self.watchdog, Watchdog { deadline, budget: max_ops })
    }

    /// Puts back a setting [`Hardware::arm_watchdog`] returned. A deadline
    /// that has already passed trips at the next op-tick.
    pub fn restore_watchdog(&mut self, setting: Watchdog) {
        self.watchdog = setting;
    }

    /// Disarms the watchdog; subsequent op-ticks never trip.
    pub fn disarm_watchdog(&mut self) {
        self.watchdog = Watchdog::DISARMED;
    }

    /// Unwinds out of the approximate region with a [`WatchdogTrip`]
    /// payload. The watchdog disarms itself first so clock advances during
    /// unwinding (or after recovery) cannot re-trip.
    #[cold]
    #[inline(never)]
    fn watchdog_trip(&mut self) -> ! {
        let trip = WatchdogTrip { op_ticks: self.op_ticks, budget: self.watchdog.budget };
        self.watchdog.deadline = u64::MAX;
        std::panic::panic_any(trip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::Level;

    #[test]
    fn determinism_same_seed_same_behaviour() {
        let cfg = HwConfig::for_level(Level::Aggressive);
        let mut a = Hardware::new(cfg, 99);
        let mut b = Hardware::new(cfg, 99);
        for i in 0..1000u64 {
            assert_eq!(a.approx_int_result(i, 64), b.approx_int_result(i, 64));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge_eventually() {
        let cfg = HwConfig::for_level(Level::Aggressive);
        let mut a = Hardware::new(cfg, 1);
        let mut b = Hardware::new(cfg, 2);
        let diverged =
            (0..10_000u64).any(|i| a.approx_int_result(i, 64) != b.approx_int_result(i, 64));
        assert!(diverged, "aggressive config should inject some fault in 10k ops");
    }

    #[test]
    fn clock_advances_per_op() {
        let mut hw = Hardware::new(HwConfig::default(), 0);
        assert_eq!(hw.op_ticks(), 0);
        hw.precise_op(OpKind::Int);
        hw.precise_op(OpKind::Fp);
        assert_eq!(hw.op_ticks(), 2);
    }

    #[test]
    fn counters_track_every_injected_fault() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.timing_error_prob = 1.0;
        let mut hw = Hardware::new(cfg, 9);
        for i in 0..50u64 {
            let _ = hw.approx_int_result(i, 64);
        }
        let c = hw.fault_counters();
        assert_eq!(c.count(trace::FaultKind::IntTiming).injections, 50);
        assert_eq!(c.total_injections(), 50);
        assert!(hw.take_event_log().is_empty(), "event log is opt-in");
    }

    #[test]
    fn event_log_collects_structured_events() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.timing_error_prob = 1.0;
        let mut hw = Hardware::new(cfg, 9);
        hw.enable_event_log();
        for i in 0..10u64 {
            let _ = hw.approx_int_result(i, 32);
        }
        let events = hw.take_event_log();
        assert_eq!(events.len(), 10);
        for e in &events {
            assert_eq!(e.kind, trace::FaultKind::IntTiming);
            assert_eq!(e.width, 32);
        }
        // Taking leaves the log enabled and empty.
        assert!(hw.take_event_log().is_empty());
        let _ = hw.approx_int_result(1, 32);
        assert_eq!(hw.take_event_log().len(), 1);
    }

    #[test]
    fn watchdog_trips_deterministically_at_the_deadline() {
        clock::silence_watchdog_panics();
        let trip_tick = |budget: u64| -> u64 {
            let mut hw = Hardware::new(HwConfig::default(), 0);
            hw.arm_watchdog(budget);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in 0.. {
                    let _ = hw.approx_int_result(i, 64);
                }
            }))
            .expect_err("armed watchdog must trip");
            let trip = err.downcast_ref::<WatchdogTrip>().expect("payload is WatchdogTrip");
            assert_eq!(trip.budget, budget);
            trip.op_ticks
        };
        assert_eq!(trip_tick(100), trip_tick(100));
        assert!(trip_tick(100) >= 100);
        assert!(trip_tick(10) < trip_tick(1000));
    }

    #[test]
    fn disarmed_watchdog_never_trips() {
        let mut hw = Hardware::new(HwConfig::default(), 0);
        hw.arm_watchdog(5);
        hw.disarm_watchdog();
        // Armed, the fifth op-tick would trip.
        for i in 0..1000u64 {
            let _ = hw.approx_int_result(i, 64);
        }
        assert!(hw.op_ticks() >= 1000);
    }

    #[test]
    fn telemetry_does_not_perturb_the_fault_prng() {
        let cfg = {
            let mut c = HwConfig::for_level(Level::Aggressive);
            c.params.timing_error_prob = 0.3;
            c
        };
        let mut plain = Hardware::new(cfg, 77);
        let mut logged = Hardware::new(cfg, 77);
        logged.enable_event_log();
        for i in 0..2000u64 {
            assert_eq!(plain.approx_int_result(i, 64), logged.approx_int_result(i, 64));
            assert_eq!(plain.sram_read(i, 64, true), logged.sram_read(i, 64, true));
        }
        assert_eq!(plain.stats(), logged.stats());
        assert_eq!(plain.fault_counters(), logged.fault_counters());
    }

    fn with_dram_rate(rate: f64, dram: bool) -> HwConfig {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.dram_flip_per_second = rate;
        cfg.mask.dram = dram;
        cfg
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_negative_decay_rate_is_rejected_at_construction() {
        let _ = Hardware::new(with_dram_rate(-1e-3, true), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_nan_decay_rate_is_rejected_at_construction() {
        let _ = Hardware::new(with_dram_rate(f64::NAN, true), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_nan_op_time_is_rejected_at_construction() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.seconds_per_op = f64::NAN;
        let _ = Hardware::new(cfg, 0);
    }

    #[test]
    fn a_masked_decay_rate_is_never_checked() {
        // The rate is folded to zero before the check: masking the strategy
        // off makes any configured rate, even a meaningless one, inert.
        for rate in [-1e-3, f64::NAN] {
            let mut hw = Hardware::new(with_dram_rate(rate, false), 0);
            let mut arr = DramArray::new(&mut hw, 64, 64, true);
            arr.write(&mut hw, 40, u64::MAX);
            assert_eq!(arr.read(&mut hw, 40), u64::MAX);
        }
    }
}
