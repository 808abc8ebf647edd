//! Approximate math intrinsics.
//!
//! The paper's hardware exposes approximate floating-point *operations*;
//! math-library calls on approximate data should also run on the imprecise
//! unit rather than silently escaping to precise code. These helpers give
//! `Approx<f32>`/`Approx<f64>` the common unary intrinsics: the operand is
//! conditioned (mantissa truncation), the computation is charged as one
//! approximate FP operation, and the result may suffer a timing error —
//! exactly like the arithmetic operators.
//!
//! Boolean connectives for `Approx<bool>` are here too: they run on the
//! integer unit and keep the result approximate, so compound conditions
//! still need a single explicit [`endorse`](crate::endorse) at the end.

use crate::approx::{binary, unary, Approx};
use crate::prim::ApproxPrim;

macro_rules! impl_fp_intrinsics {
    ($t:ty) => {
        impl Approx<$t> {
            /// Approximate square root (one approximate FP operation).
            pub fn sqrt_approx(self) -> Self {
                unary(self, <$t>::sqrt)
            }

            /// Approximate absolute value (one approximate FP operation).
            pub fn abs_approx(self) -> Self {
                unary(self, <$t>::abs)
            }

            /// Approximate floor (one approximate FP operation).
            pub fn floor_approx(self) -> Self {
                unary(self, <$t>::floor)
            }

            /// Approximate minimum (one approximate FP operation).
            pub fn min_approx(self, other: impl Into<Approx<$t>>) -> Self {
                binary(self, other.into(), <$t>::min, <$t>::unit_result)
            }

            /// Approximate maximum (one approximate FP operation).
            pub fn max_approx(self, other: impl Into<Approx<$t>>) -> Self {
                binary(self, other.into(), <$t>::max, <$t>::unit_result)
            }
        }
    };
}

impl_fp_intrinsics!(f32);
impl_fp_intrinsics!(f64);

impl Approx<bool> {
    /// Approximate conjunction (non-short-circuit, like Java's `&` on
    /// booleans): one approximate integer operation.
    pub fn and_approx(self, other: impl Into<Approx<bool>>) -> Approx<bool> {
        binary(self, other.into(), |a, b| a && b, bool::unit_result)
    }

    /// Approximate disjunction: one approximate integer operation.
    pub fn or_approx(self, other: impl Into<Approx<bool>>) -> Approx<bool> {
        binary(self, other.into(), |a, b| a || b, bool::unit_result)
    }

    /// Approximate negation: one approximate integer operation.
    pub fn not_approx(self) -> Approx<bool> {
        unary(self, |a| !a)
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;
    use crate::{endorse, Approx};
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact_rt() -> Runtime {
        Runtime::with_config(
            HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE),
            0,
        )
    }

    #[test]
    fn intrinsics_compute_exactly_when_masked() {
        let rt = exact_rt();
        rt.run(|| {
            assert_eq!(endorse(Approx::new(9.0f64).sqrt_approx()), 3.0);
            assert_eq!(endorse(Approx::new(-2.5f32).abs_approx()), 2.5);
            assert_eq!(endorse(Approx::new(2.7f64).floor_approx()), 2.0);
            assert_eq!(endorse(Approx::new(1.0f32).min_approx(2.0)), 1.0);
            assert_eq!(endorse(Approx::new(1.0f64).max_approx(2.0)), 2.0);
        });
        assert_eq!(rt.stats().fp_approx_ops, 5);
    }

    #[test]
    fn intrinsics_work_without_a_runtime() {
        assert_eq!(endorse(Approx::new(16.0f64).sqrt_approx()), 4.0);
        assert!(endorse(Approx::new(true).and_approx(false).not_approx()));
    }

    #[test]
    fn bool_connectives_count_int_ops() {
        let rt = exact_rt();
        rt.run(|| {
            let a = Approx::new(3i32).lt_approx(5); // true
            let b = Approx::new(2i32).gt_approx(7); // false
            assert!(endorse(a.or_approx(b)));
            assert!(!endorse(a.and_approx(b)));
            assert!(endorse(b.not_approx()));
        });
        // 2 comparisons + 3 connectives, all on the integer unit.
        assert_eq!(rt.stats().int_approx_ops, 5);
    }

    #[test]
    fn aggressive_sqrt_loses_precision_but_not_magnitude() {
        let cfg = HwConfig::for_level(Level::Aggressive)
            .with_mask(StrategyMask::NONE.with_fp_width(true));
        let rt = Runtime::with_config(cfg, 0);
        rt.run(|| {
            let x = endorse(Approx::new(10.0f64).sqrt_approx());
            assert!((x - 10.0f64.sqrt()).abs() < 0.1, "x = {x}");
        });
    }
}
