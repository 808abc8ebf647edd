//! Exact integer energy accounting.
//!
//! Every accounting quantity in the simulator — storage residency, scaled
//! instruction energy, recovery overhead, campaign totals — is an integer
//! number of **quanta** held in an [`EnergyQuanta`] (`u128`). Integer
//! addition is associative and commutative, so merge order, sharding and
//! thread count provably cannot change a single bit of any total, and an
//! energy *budget* can be debited and compared with `==` instead of an
//! epsilon.
//!
//! Units:
//!
//! * **Storage** quanta are *bit·op-ticks*: bits resident multiplied by the
//!   op-ticks they were held. One SRAM access of width `w` charges `w`
//!   quanta; a DRAM allocation of `b` bytes retired after `t` ticks charges
//!   `8·b·t` via `EnergyQuanta::from_bits_quanta` — an expanded integer
//!   multiply with no intermediate floats. Byte-seconds are recovered, when
//!   a human-facing number is wanted, as
//!   `quanta × seconds_per_op / 8`.
//! * **Instruction** quanta are *basis-point energy units*: abstract paper
//!   units (37 per integer op, 40 per FP op) scaled by
//!   [`SAVINGS_SCALE`] = 10 000. All of Table 2's savings fractions are
//!   exact two-decimal values, so `savings_basis_points` converts them
//!   without rounding error and the scaled instruction energy of a run is
//!   an exact integer.
//!
//! The normalized figures of the paper (Figure 4 bars) are *projections*:
//! one f64 division per component, performed once at the very end on exact
//! integer numerators and denominators. This module therefore denies raw
//! float arithmetic; the only two functions allowed to touch floats are the
//! projection [`ratio`] and the constructor `savings_basis_points`.

#![deny(clippy::float_arithmetic)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Fixed-point scale for savings fractions: 1.0 == 10 000 basis points.
///
/// Every savings parameter in Table 2 is an exact multiple of 0.01, so
/// scaling by 10 000 represents them all exactly (with two digits to
/// spare for finer-grained hypothetical strategies).
pub const SAVINGS_SCALE: u128 = 10_000;

/// An exact, order-independent quantity of energy quanta.
///
/// A `u128` newtype in the spirit of SpacetimeDB's `EnergyQuanta`: totals
/// are built with integer addition only, so they are independent of
/// accumulation order, and budgets are `==`-comparable. Arithmetic via the
/// `Add`/`Sub` operators is checked and panics on wrap — an overflowed
/// energy total is an accounting bug, never a value to propagate. Use
/// [`EnergyQuanta::saturating_add`]/[`EnergyQuanta::saturating_sub`] when
/// clamping is the intended semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnergyQuanta(u128);

impl EnergyQuanta {
    /// No energy at all; the additive identity.
    pub const ZERO: EnergyQuanta = EnergyQuanta(0);

    /// Wraps a raw quanta count.
    pub const fn new(quanta: u128) -> Self {
        EnergyQuanta(quanta)
    }

    /// The raw quanta count.
    pub const fn get(self) -> u128 {
        self.0
    }

    /// Exact storage quanta for `bits` bits held for `op_ticks` op-ticks:
    /// a widening `u64×u64→u128` multiply, which cannot overflow and
    /// involves no intermediate floats.
    pub(crate) const fn from_bits_quanta(bits: u64, op_ticks: u64) -> Self {
        EnergyQuanta((bits as u128) * (op_ticks as u128))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.0.checked_add(rhs.0) {
            Some(q) => Some(EnergyQuanta(q)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    const fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.0.checked_sub(rhs.0) {
            Some(q) => Some(EnergyQuanta(q)),
            None => None,
        }
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Self) -> Self {
        EnergyQuanta(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at [`EnergyQuanta::ZERO`]).
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        EnergyQuanta(self.0.saturating_sub(rhs.0))
    }

    /// Whether this is exactly zero — exact on integers, unlike the old
    /// `a + p == 0.0` float guards this type replaces.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for EnergyQuanta {
    type Output = EnergyQuanta;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("energy quanta total overflowed u128")
    }
}

impl AddAssign for EnergyQuanta {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for EnergyQuanta {
    type Output = EnergyQuanta;
    fn sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).expect("energy quanta difference underflowed")
    }
}

impl SubAssign for EnergyQuanta {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Sum for EnergyQuanta {
    fn sum<I: Iterator<Item = EnergyQuanta>>(iter: I) -> Self {
        iter.fold(EnergyQuanta::ZERO, |acc, q| acc + q)
    }
}

impl<'a> Sum<&'a EnergyQuanta> for EnergyQuanta {
    fn sum<I: Iterator<Item = &'a EnergyQuanta>>(iter: I) -> Self {
        iter.fold(EnergyQuanta::ZERO, |acc, q| acc + *q)
    }
}

impl fmt::Display for EnergyQuanta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Converts a savings fraction in `[0, 1]` to basis points of
/// [`SAVINGS_SCALE`], rounding to nearest. Exact for every Table 2
/// parameter (all are two-decimal fractions).
///
/// # Panics
///
/// Panics if `fraction` is not a finite value in `[0, 1]`.
#[allow(clippy::float_arithmetic)]
pub(crate) fn savings_basis_points(fraction: f64) -> u128 {
    assert!((0.0..=1.0).contains(&fraction), "savings fraction {fraction} outside [0, 1]");
    // In-range by the assert above: the product is in [0, 10_000].
    (fraction * SAVINGS_SCALE as f64).round() as u128
}

/// The projection from exact quanta to a human-facing fraction: one f64
/// division, performed once at the very end of the accounting chain.
/// Callers guard the zero denominator (the guard is exact on integers).
#[allow(clippy::float_arithmetic)]
pub fn ratio(numerator: EnergyQuanta, denominator: EnergyQuanta) -> f64 {
    debug_assert!(!denominator.is_zero(), "projection of an empty pool");
    numerator.0 as f64 / denominator.0 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_is_exact_widening_multiply() {
        let q = EnergyQuanta::from_bits_quanta(u64::MAX, u64::MAX);
        assert_eq!(q.get(), u64::MAX as u128 * u64::MAX as u128);
        assert_eq!(EnergyQuanta::from_bits_quanta(64, 3).get(), 192);
        assert_eq!(EnergyQuanta::from_bits_quanta(0, u64::MAX), EnergyQuanta::ZERO);
    }

    #[test]
    fn addition_is_associative_and_commutative() {
        let a = EnergyQuanta::new(u128::from(u64::MAX));
        let b = EnergyQuanta::new(1);
        let c = EnergyQuanta::new(u128::from(u64::MAX) * 7);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a + b, b + a);
        assert_eq!([a, b, c].iter().sum::<EnergyQuanta>(), c + b + a);
    }

    #[test]
    fn checked_and_saturating_arithmetic() {
        let max = EnergyQuanta::new(u128::MAX);
        let one = EnergyQuanta::new(1);
        assert_eq!(max.checked_add(one), None);
        assert_eq!(max.saturating_add(one), max);
        assert_eq!(EnergyQuanta::ZERO.checked_sub(one), None);
        assert_eq!(EnergyQuanta::ZERO.saturating_sub(one), EnergyQuanta::ZERO);
        assert_eq!(one.checked_add(one), Some(EnergyQuanta::new(2)));
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn operator_sub_panics_on_underflow() {
        let _ = EnergyQuanta::ZERO - EnergyQuanta::new(1);
    }

    #[test]
    fn budgets_compare_exactly() {
        let budget = EnergyQuanta::new(1_000_000);
        let spent: EnergyQuanta = (0..1_000_000).map(|_| EnergyQuanta::new(1)).sum();
        assert_eq!(spent, budget);
        assert!(spent.checked_sub(budget).is_some());
        assert!(EnergyQuanta::new(999_999) < budget);
    }

    #[test]
    fn table2_savings_fractions_are_exact_basis_points() {
        // Every savings parameter in config.rs is a two-decimal fraction.
        for (f, bp) in [
            (0.17, 1_700),
            (0.22, 2_200),
            (0.70, 7_000),
            (0.80, 8_000),
            (0.90, 9_000),
            (0.32, 3_200),
            (0.78, 7_800),
            (0.85, 8_500),
            (0.12, 1_200),
            (0.30, 3_000),
            (0.24, 2_400),
            (0.0, 0),
            (1.0, 10_000),
        ] {
            assert_eq!(savings_basis_points(f), bp, "fraction {f}");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_savings_fraction_rejected() {
        let _ = savings_basis_points(1.5);
    }

    #[test]
    fn ratio_projects_exact_quanta() {
        let num = EnergyQuanta::new(22);
        let den = EnergyQuanta::new(37);
        assert!((ratio(num, den) - 22.0 / 37.0).abs() < 1e-15);
        assert_eq!(ratio(den, den), 1.0);
        assert_eq!(ratio(EnergyQuanta::ZERO, den), 0.0);
    }

    #[test]
    fn display_renders_raw_quanta() {
        assert_eq!(EnergyQuanta::new(12_345).to_string(), "12345");
        assert_eq!(EnergyQuanta::ZERO.to_string(), "0");
    }
}
