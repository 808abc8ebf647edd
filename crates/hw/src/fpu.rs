//! The imprecise floating-point unit (section 4.2, "width reduction in
//! floating point operations").
//!
//! Approximate FP operations ignore part of the operand mantissa: Table 2
//! keeps 16/8/4 bits of an `f32`'s 23-bit mantissa and 32/16/8 bits of an
//! `f64`'s 52-bit mantissa at the Mild/Medium/Aggressive levels. On top of
//! width reduction, the voltage-scaled unit suffers the same timing errors
//! as the integer ALU. Approximate floating-point division by zero returns
//! NaN rather than trapping (section 5.2).

use crate::fault;
use crate::stats::OpKind;
use crate::Hardware;

/// Number of mantissa bits in an IEEE 754 `f32`.
const F32_MANTISSA_BITS: u32 = 23;
/// Number of mantissa bits in an IEEE 754 `f64`.
const F64_MANTISSA_BITS: u32 = 52;

/// Bit mask that truncates an `f32` mantissa to its `keep` most
/// significant bits (all ones — the identity — for `keep >= 23`).
pub(crate) fn trunc_mask_f32(keep: u32) -> u32 {
    if keep >= F32_MANTISSA_BITS {
        u32::MAX
    } else {
        !((1u32 << (F32_MANTISSA_BITS - keep)) - 1)
    }
}

/// Bit mask that truncates an `f64` mantissa to its `keep` most
/// significant bits (all ones for `keep >= 52`).
pub(crate) fn trunc_mask_f64(keep: u32) -> u64 {
    if keep >= F64_MANTISSA_BITS {
        u64::MAX
    } else {
        !((1u64 << (F64_MANTISSA_BITS - keep)) - 1)
    }
}

/// `r`, or, when `r` is a NaN and an operand is one, the first NaN
/// operand's payload, quieted: what one x86-64 or AArch64 instruction with
/// the operands in source order produces. Spelling the rule out keeps every
/// bit fixed when the compiler commutes an addition or multiplication.
#[inline]
pub fn first_nan_f64(a: f64, b: f64, r: f64) -> f64 {
    const QUIET: u64 = 1 << (F64_MANTISSA_BITS - 1);
    if !r.is_nan() {
        r
    } else if a.is_nan() {
        f64::from_bits(a.to_bits() | QUIET)
    } else if b.is_nan() {
        f64::from_bits(b.to_bits() | QUIET)
    } else {
        r
    }
}

/// [`first_nan_f64`] for `f32`.
#[inline]
pub fn first_nan_f32(a: f32, b: f32, r: f32) -> f32 {
    const QUIET: u32 = 1 << (F32_MANTISSA_BITS - 1);
    if !r.is_nan() {
        r
    } else if a.is_nan() {
        f32::from_bits(a.to_bits() | QUIET)
    } else if b.is_nan() {
        f32::from_bits(b.to_bits() | QUIET)
    } else {
        r
    }
}

impl Hardware {
    /// Applies mantissa width reduction to an `f32` operand, if the FP-width
    /// strategy is enabled. (When masked off, the hoisted truncation mask is
    /// all ones and truncation is the identity.)
    #[inline]
    pub fn approx_f32_operand(&self, x: f32) -> f32 {
        if !x.is_finite() {
            return x;
        }
        f32::from_bits(x.to_bits() & self.hot.f32_trunc_mask)
    }

    /// Applies mantissa width reduction to an `f64` operand, if the FP-width
    /// strategy is enabled.
    #[inline]
    pub fn approx_f64_operand(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return x;
        }
        f64::from_bits(x.to_bits() & self.hot.f64_trunc_mask)
    }

    /// Result phase of an approximate `f32` operation: counts, ticks the
    /// clock, and applies a timing error with the configured probability.
    #[inline]
    pub fn approx_f32_result(&mut self, raw: f32) -> f32 {
        let bits = self.approx_fp_result_bits(u64::from(raw.to_bits()), 32);
        f32::from_bits(bits as u32)
    }

    /// Result phase of an approximate `f64` operation: counts, ticks the
    /// clock, and applies a timing error with the configured probability.
    #[inline]
    pub fn approx_f64_result(&mut self, raw: f64) -> f64 {
        let bits = self.approx_fp_result_bits(raw.to_bits(), 64);
        f64::from_bits(bits)
    }

    #[inline]
    fn approx_fp_result_bits(&mut self, raw: u64, width: u32) -> u64 {
        self.tick();
        self.stats.record_op(OpKind::Fp, true);
        let out = if self.sched.fp_timing.fire(&mut self.rng) {
            self.timing_fault(OpKind::Fp, raw, width)
        } else {
            raw & fault::low_mask(width)
        };
        self.last_fp = out;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorMode, HwConfig, Level, StrategyMask};
    use crate::Hardware;

    fn masked_f32(x: f32, keep: u32) -> f32 {
        f32::from_bits(x.to_bits() & trunc_mask_f32(keep))
    }

    fn masked_f64(x: f64, keep: u32) -> f64 {
        f64::from_bits(x.to_bits() & trunc_mask_f64(keep))
    }

    #[test]
    fn truncation_identity_at_full_width() {
        assert_eq!(trunc_mask_f32(23), u32::MAX);
        assert_eq!(trunc_mask_f64(52), u64::MAX);
        let x = 0.123_456_79_f32;
        assert_eq!(masked_f32(x, 23), x);
        let y = 0.123_456_789_012_345_f64;
        assert_eq!(masked_f64(y, 52), y);
    }

    #[test]
    fn truncation_error_bounded_by_ulp_of_kept_width() {
        // Relative error after keeping k mantissa bits is below 2^-k.
        for &k in &[4u32, 8, 16] {
            let x = 1.7182818f32;
            let t = masked_f32(x, k);
            let rel = ((x - t) / x).abs();
            assert!(rel < 2f32.powi(-(k as i32)), "k={k}: rel err {rel}");
            assert!(t <= x, "truncation rounds toward zero for positive values");
        }
        for &k in &[8u32, 16, 32] {
            let x = std::f64::consts::PI;
            let t = masked_f64(x, k);
            let rel = ((x - t) / x).abs();
            assert!(rel < 2f64.powi(-(k as i32)));
        }
    }

    #[test]
    fn truncation_preserves_specials() {
        // Aggressive keeps 4 bits of an f32 mantissa and 8 of an f64's.
        let hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 0);
        assert!(hw.approx_f32_operand(f32::NAN).is_nan());
        assert_eq!(hw.approx_f32_operand(f32::INFINITY), f32::INFINITY);
        assert_eq!(hw.approx_f64_operand(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(hw.approx_f64_operand(0.0), 0.0);
        assert_eq!(hw.approx_f32_operand(-0.0), -0.0);
    }

    #[test]
    fn truncation_preserves_sign_and_exponent() {
        let x = -123.456e10f64;
        let t = masked_f64(x, 8);
        assert!(t < 0.0);
        // Exponent intact: truncation moves the value by less than 1 part in
        // 2^8 of its magnitude.
        assert!(((x - t) / x).abs() < 2f64.powi(-8));
    }

    #[test]
    fn operand_truncation_respects_mask() {
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        let hw = Hardware::new(cfg, 0);
        let x = 1.7182818f32;
        assert_eq!(hw.approx_f32_operand(x), x);
        let hw2 = Hardware::new(HwConfig::for_level(Level::Aggressive), 0);
        assert_ne!(hw2.approx_f32_operand(x), x);
    }

    #[test]
    fn fp_result_counts_ops() {
        let mut cfg = HwConfig::for_level(Level::Mild);
        cfg.params.timing_error_prob = 0.0;
        let mut hw = Hardware::new(cfg, 0);
        let y = hw.approx_f64_result(2.5);
        assert_eq!(y, 2.5);
        assert_eq!(hw.stats().fp_approx_ops, 1);
    }

    #[test]
    fn fp_timing_error_random_value_produces_garbage_bits() {
        let mut cfg =
            HwConfig::for_level(Level::Aggressive).with_error_mode(ErrorMode::RandomValue);
        cfg.params.timing_error_prob = 1.0;
        let mut hw = Hardware::new(cfg, 3);
        // With p=1 every op faults; over many trials at least one output
        // should differ from the raw result.
        let outputs: Vec<f32> = (0..100).map(|_| hw.approx_f32_result(1.0)).collect();
        assert!(outputs.iter().any(|&y| y != 1.0));
        assert_eq!(hw.fault_counters().total_injections(), 100);
    }

    #[test]
    fn fp_last_value_mode() {
        let mut cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(ErrorMode::LastValue);
        cfg.params.timing_error_prob = 1.0;
        let mut hw = Hardware::new(cfg, 3);
        let a = hw.approx_f64_result(9.75); // faults; last_fp starts 0
        assert_eq!(a, 0.0);
        let b = hw.approx_f64_result(1.5);
        assert_eq!(b, a);
    }

    #[test]
    fn aggressive_truncation_flattens_nearby_values() {
        // With only 4 mantissa bits, values closer than 2^-5 relative
        // difference collapse together — the mechanism behind FP QoS loss.
        let a = masked_f32(1.001, 4);
        let b = masked_f32(1.002, 4);
        assert_eq!(a, b);
    }
}
