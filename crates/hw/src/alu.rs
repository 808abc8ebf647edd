//! The imprecise integer unit (section 4.2, "voltage scaling in logic
//! circuits").
//!
//! Approximate integer instructions execute on a voltage-scaled ALU that
//! suffers a timing error with probability
//! [`timing_error_prob`](crate::config::ApproxParams::timing_error_prob).
//! On a timing error the observed result is determined by the configured
//! [`ErrorMode`] — a single flipped bit, the last
//! value the unit produced, or a uniformly random pattern. The paper finds
//! the random-value model most realistic and most damaging.
//!
//! Division by zero in an approximate integer operation returns zero rather
//! than trapping (section 5.2): "to avoid spurious errors due to
//! approximation, our simulated approximate functional units never raise
//! divide-by-zero exceptions."

use crate::config::ErrorMode;
use crate::fault;
use crate::stats::OpKind;
use crate::trace::FaultKind;
use crate::Hardware;
use rand::Rng;

impl Hardware {
    /// Records a precise operation: counting and clock only, never a fault.
    #[inline]
    pub fn precise_op(&mut self, kind: OpKind) {
        self.tick();
        self.stats.record_op(kind, false);
    }

    /// Executes the *result phase* of an approximate integer operation.
    ///
    /// The caller computes the raw (mathematically correct, wrapping) result
    /// and passes its bit pattern; this method counts the operation, advances
    /// the clock, and — if the functional-unit timing strategy is enabled —
    /// perturbs the result with the configured probability and error mode.
    /// `width` is the operand width in bits (32 or 64 for the embedded API).
    ///
    /// Timing errors come from an amortized per-operation countdown
    /// ([`crate::fault::GeomCountdown::fire`]); between faults no RNG state
    /// is consumed. When a fault fires, the gap to the next fault is redrawn
    /// *before* any error-mode payload bits are sampled.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    #[inline]
    pub fn approx_int_result(&mut self, raw: u64, width: u32) -> u64 {
        assert!((1..=64).contains(&width), "bad integer width {width}");
        self.tick();
        self.stats.record_op(OpKind::Int, true);
        let out = if self.sched.int_timing.fire(&mut self.rng) {
            self.timing_fault(OpKind::Int, raw, width)
        } else {
            raw & fault::low_mask(width)
        };
        self.last_int = out;
        out
    }

    /// Fault payload of a timing error on `kind`'s unit (the integer ALU
    /// or the FPU). Out of line so the (overwhelmingly common) fault-free
    /// result phase carries none of the error-mode machinery. Shared with
    /// the batched entry points, which pre-stage `last_int` / `last_fp` so
    /// the `LastValue` mode sees the in-batch predecessor.
    #[cold]
    #[inline(never)]
    pub(crate) fn timing_fault(&mut self, kind: OpKind, raw: u64, width: u32) -> u64 {
        let (last, fault_kind) = self.timing_unit(kind);
        let out = match self.hot.error_mode {
            ErrorMode::SingleBitFlip => fault::flip_one_bit(raw, width, &mut self.rng),
            ErrorMode::LastValue => last & fault::low_mask(width),
            ErrorMode::RandomValue => fault::random_bits(width, &mut self.rng),
        };
        let flipped = ((out ^ raw) & fault::low_mask(width)).count_ones();
        self.note_fault(fault_kind, width, flipped);
        out
    }

    /// The last result of `kind`'s unit and the fault kind of its timing
    /// errors.
    fn timing_unit(&self, kind: OpKind) -> (u64, FaultKind) {
        match kind {
            OpKind::Int => (self.last_int, FaultKind::IntTiming),
            OpKind::Fp => (self.last_fp, FaultKind::FpTiming),
        }
    }

    /// Executes the result phase of an approximate comparison.
    ///
    /// Comparisons execute on the integer or floating-point unit (per `kind`)
    /// and produce a single bit; a timing error perturbs that bit according
    /// to the error mode (for `LastValue` the unit's last low bit is reused).
    #[inline]
    pub fn approx_cmp_result(&mut self, raw: bool, kind: OpKind) -> bool {
        self.tick();
        self.stats.record_op(kind, true);
        let fired = match kind {
            OpKind::Int => self.sched.int_timing.fire(&mut self.rng),
            OpKind::Fp => self.sched.fp_timing.fire(&mut self.rng),
        };
        if fired {
            self.cmp_timing_fault(raw, kind)
        } else {
            raw
        }
    }

    /// Fault payload of a comparison timing error; out of line like
    /// [`Hardware::timing_fault`].
    #[cold]
    #[inline(never)]
    fn cmp_timing_fault(&mut self, raw: bool, kind: OpKind) -> bool {
        let (last, fault_kind) = self.timing_unit(kind);
        let observed = match self.hot.error_mode {
            ErrorMode::SingleBitFlip => !raw,
            ErrorMode::LastValue => last & 1 == 1,
            ErrorMode::RandomValue => self.rng.gen_bool(0.5),
        };
        self.note_fault(fault_kind, 1, u32::from(observed != raw));
        observed
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ErrorMode, HwConfig, Level, StrategyMask};
    use crate::Hardware;

    fn hw_with(p: f64, mode: ErrorMode) -> Hardware {
        let mut cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(mode);
        cfg.params.timing_error_prob = p;
        Hardware::new(cfg, 42)
    }

    #[test]
    fn no_error_probability_is_exact() {
        let mut hw = hw_with(0.0, ErrorMode::RandomValue);
        for i in 0..1000u64 {
            assert_eq!(hw.approx_int_result(i * 3, 64), i * 3);
        }
        assert_eq!(hw.fault_counters().total_injections(), 0);
        assert_eq!(hw.stats().int_approx_ops, 1000);
    }

    #[test]
    fn certain_error_always_faults() {
        let mut hw = hw_with(1.0, ErrorMode::SingleBitFlip);
        for _ in 0..100 {
            let out = hw.approx_int_result(0, 64);
            assert_eq!(out.count_ones(), 1, "single-bit-flip must flip one bit");
        }
        assert_eq!(hw.fault_counters().total_injections(), 100);
    }

    #[test]
    fn last_value_mode_returns_previous_result() {
        let mut hw = hw_with(1.0, ErrorMode::LastValue);
        let first = hw.approx_int_result(123, 64); // last_int was 0
        assert_eq!(first, 0);
        let second = hw.approx_int_result(456, 64);
        assert_eq!(second, first);
    }

    #[test]
    fn random_value_mode_respects_width() {
        let mut hw = hw_with(1.0, ErrorMode::RandomValue);
        for _ in 0..100 {
            assert_eq!(hw.approx_int_result(7, 16) >> 16, 0);
        }
    }

    #[test]
    fn masking_off_fu_timing_disables_faults() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.timing_error_prob = 1.0;
        cfg.mask = StrategyMask::NONE;
        let mut hw = Hardware::new(cfg, 1);
        for i in 0..100u64 {
            assert_eq!(hw.approx_int_result(i, 64), i);
        }
        // Still accounted as approximate operations (for the energy model).
        assert_eq!(hw.stats().int_approx_ops, 100);
        assert_eq!(hw.fault_counters().total_injections(), 0);
    }

    #[test]
    fn fault_rate_is_statistically_plausible() {
        let mut hw = hw_with(0.05, ErrorMode::RandomValue);
        let n = 20_000u64;
        for i in 0..n {
            let _ = hw.approx_int_result(i, 64);
        }
        let observed = hw.fault_counters().total_injections() as f64;
        let expected = n as f64 * 0.05;
        let sigma = (n as f64 * 0.05 * 0.95).sqrt();
        assert!((observed - expected).abs() < 5.0 * sigma);
    }
}
