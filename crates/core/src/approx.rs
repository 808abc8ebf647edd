//! The `@Approx` qualifier: approximate values with enforced isolation.
//!
//! [`Approx<T>`] is the Rust rendering of EnerJ's `@Approx T`. The embedding
//! reproduces the paper's static guarantees with the host type system:
//!
//! * **No implicit approximate→precise flow** (section 2.1): there is no
//!   safe projection from `Approx<T>` to `T` other than [`endorse`], the
//!   explicit cast of section 2.2.
//! * **Precise→approximate flow via subtyping** (section 2.1): `From<T>`
//!   and mixed-operand operators accept precise values wherever approximate
//!   ones are expected.
//! * **No implicit control flow on approximate data** (section 2.4):
//!   `Approx<T>` deliberately implements neither `PartialEq` nor
//!   `PartialOrd`; comparisons return `Approx<bool>`, which cannot drive an
//!   `if` without an endorsement.
//!
//! Operationally, every use of an approximate value models the proposed
//! hardware (section 4): operands are read from approximate SRAM (read
//! upsets), floating-point operands lose mantissa width, the operation
//! executes on a voltage-scaled unit (timing errors), and the result is
//! written back to approximate SRAM (write failures). Without an installed
//! [`Runtime`](crate::Runtime), operations execute precisely — the
//! "plain Java" reading of an EnerJ program.

use std::ops::{
    Add, AddAssign, BitAnd, BitOr, BitXor, Div, DivAssign, Mul, MulAssign, Neg, Rem, RemAssign,
    Shl, Shr, Sub, SubAssign,
};

use crate::prim::{ApproxArith, ApproxBits, ApproxPrim};
use crate::runtime::with_hw;
use enerj_hw::Hardware;

/// An approximate value of primitive type `T` (EnerJ's `@Approx T`).
///
/// # Examples
///
/// ```
/// use enerj_core::{endorse, Approx, Runtime};
/// use enerj_hw::config::Level;
///
/// let rt = Runtime::new(Level::Medium, 0);
/// let result = rt.run(|| {
///     let a = Approx::new(1.5f64);
///     let b = a * 2.0; // precise operand flows in via subtyping
///     endorse(b)
/// });
/// assert!((result - 3.0).abs() < 0.1 || result.is_nan());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Approx<T: ApproxPrim>(T);

impl<T: ApproxPrim> Approx<T> {
    /// Stores a value into approximate state. The store itself is an
    /// approximate SRAM write and may fail bits.
    pub fn new(value: T) -> Self {
        with_hw(|hw| match hw {
            Some(hw) => Approx(sram_store(hw, value)),
            None => Approx(value),
        })
    }

    /// Wraps a value without an SRAM store (crate-internal: used for
    /// DRAM-to-unit transfers that bypass the register file).
    pub(crate) fn from_raw(value: T) -> Self {
        Approx(value)
    }

    /// The raw bits without an endorsement (crate-internal: used for
    /// unit-to-DRAM transfers that bypass the register file).
    pub(crate) fn raw(self) -> T {
        self.0
    }

    /// Endorses this value: the explicit approximate→precise cast of
    /// section 2.2. Equivalent to the free function [`endorse`].
    pub fn endorse(self) -> T {
        endorse(self)
    }

    /// Approximate equality test, yielding an approximate boolean.
    pub fn eq_approx(self, rhs: impl ApproxOperand<T>) -> Approx<bool> {
        binary(self, rhs, |a, b| a == b, cmp_result::<T>)
    }

    /// Approximate inequality test, yielding an approximate boolean.
    pub fn ne_approx(self, rhs: impl ApproxOperand<T>) -> Approx<bool> {
        binary(self, rhs, |a, b| a != b, cmp_result::<T>)
    }
}

impl<T: ApproxPrim + PartialOrd> Approx<T> {
    /// Approximate less-than test, yielding an approximate boolean.
    pub fn lt_approx(self, rhs: impl ApproxOperand<T>) -> Approx<bool> {
        binary(self, rhs, |a, b| a < b, cmp_result::<T>)
    }

    /// Approximate less-or-equal test, yielding an approximate boolean.
    pub fn le_approx(self, rhs: impl ApproxOperand<T>) -> Approx<bool> {
        binary(self, rhs, |a, b| a <= b, cmp_result::<T>)
    }

    /// Approximate greater-than test, yielding an approximate boolean.
    pub fn gt_approx(self, rhs: impl ApproxOperand<T>) -> Approx<bool> {
        binary(self, rhs, |a, b| a > b, cmp_result::<T>)
    }

    /// Approximate greater-or-equal test, yielding an approximate boolean.
    pub fn ge_approx(self, rhs: impl ApproxOperand<T>) -> Approx<bool> {
        binary(self, rhs, |a, b| a >= b, cmp_result::<T>)
    }
}

macro_rules! impl_approx_widen {
    ($(($from:ty, $to:ty, $name:ident)),* $(,)?) => {$(
        impl Approx<$from> {
            /// Widens to a larger approximate type. Both sides carry the
            /// `@Approx` qualifier, so no endorsement is involved; the
            /// conversion is a register move and costs no simulated energy.
            pub fn $name(self) -> Approx<$to> {
                Approx::from_raw(self.0 as $to)
            }
        }
    )*};
}

impl_approx_widen! {
    (u8, i32, widen_i32),
    (u8, f32, widen_f32_from_u8),
    (i8, i32, widen_i32_from_i8),
    (i16, i32, widen_i32_from_i16),
    (i32, i64, widen_i64),
    (i32, f64, widen_f64_from_i32),
    (f32, f64, widen_f64),
}

/// Endorses an approximate value, certifying that the surrounding precise
/// code handles it intelligently (section 2.2).
///
/// The endorsement itself performs a final approximate SRAM read — an
/// endorsement "may have implicit runtime effects; it might copy values from
/// approximate to precise memory."
pub fn endorse<T: ApproxPrim>(value: Approx<T>) -> T {
    with_hw(|hw| match hw {
        Some(hw) => sram_load(hw, value.0),
        None => value.0,
    })
}

/// Precise values flow into approximate types freely (primitive subtyping,
/// section 2.1).
impl<T: ApproxPrim> From<T> for Approx<T> {
    fn from(value: T) -> Self {
        Approx::new(value)
    }
}

/// Reads a value from approximate SRAM under an installed runtime.
pub(crate) fn sram_load<T: ApproxPrim>(hw: &mut Hardware, x: T) -> T {
    T::from_bits64(hw.sram_read(x.to_bits64(), T::WIDTH, true))
}

/// Writes a value to approximate SRAM under an installed runtime.
#[inline]
pub(crate) fn sram_store<T: ApproxPrim>(hw: &mut Hardware, x: T) -> T {
    T::from_bits64(hw.sram_write(x.to_bits64(), T::WIDTH, true))
}

mod sealed {
    use enerj_hw::Hardware;

    /// How an operand enters an approximate operation.
    pub trait Operand<T> {
        /// Places the operand in approximate SRAM under an installed runtime.
        fn place(self, hw: &mut Hardware) -> T;
        /// The operand's value without a runtime.
        fn exact(self) -> T;
    }
}

use sealed::Operand;

/// An operand of an approximate operation: an `Approx<T>` value already in
/// the register file, or a precise `T` that flows in by subtyping and is
/// stored there first (what `Approx::new` would do) — in the same dispatch
/// as the operation itself.
///
/// Sealed: implemented for exactly `T` and `Approx<T>`. The comparisons
/// (`lt_approx` and the rest) take their bound as one.
pub trait ApproxOperand<T: ApproxPrim>: Operand<T> {}

impl<T: ApproxPrim> ApproxOperand<T> for T {}
impl<T: ApproxPrim> ApproxOperand<T> for Approx<T> {}

impl<T: ApproxPrim> Operand<T> for Approx<T> {
    #[inline]
    fn place(self, _hw: &mut Hardware) -> T {
        self.0
    }

    #[inline]
    fn exact(self) -> T {
        self.0
    }
}

/// A precise operand, upcast to `@Approx` (primitive subtyping).
impl<T: ApproxPrim> Operand<T> for T {
    #[inline]
    fn place(self, hw: &mut Hardware) -> T {
        sram_store(hw, self)
    }

    #[inline]
    fn exact(self) -> T {
        self
    }
}

/// The operand phase of every approximate operation: an SRAM read, then
/// operand conditioning (mantissa truncation for floats; the identity for
/// integers and `bool`).
#[inline]
fn operand<T: ApproxPrim>(hw: &mut Hardware, x: T) -> T {
    let x = sram_load(hw, x);
    T::condition_operand(hw, x)
}

/// An approximate unary operation on an installed machine: placement,
/// operand phase, compute, then the unit's result phase.
#[inline]
fn unary_on<T: ApproxPrim>(hw: &mut Hardware, x: impl Operand<T>, f: impl FnOnce(T) -> T) -> T {
    let x = x.place(hw);
    let a = operand(hw, x);
    T::unit_result(hw, f(a))
}

/// An approximate binary operation on an installed machine: placement of
/// both operands, both operand phases, compute, then `result` — the unit's
/// result phase ([`ApproxPrim::unit_result`], or [`cmp_result`] for
/// comparisons).
#[inline]
fn binary_on<T: ApproxPrim, R: ApproxPrim>(
    hw: &mut Hardware,
    lhs: impl Operand<T>,
    rhs: impl Operand<T>,
    f: impl FnOnce(T, T) -> R,
    result: impl FnOnce(&mut Hardware, R) -> R,
) -> R {
    let (l, r) = (lhs.place(hw), rhs.place(hw));
    let a = operand(hw, l);
    let b = operand(hw, r);
    // Results are forwarded to their consumer without a register-file
    // round trip; write failures apply at explicit stores (`Approx::new`),
    // matching the paper's negligible Mild error.
    result(hw, f(a, b))
}

/// An approximate unary operation: one dispatch to the installed machine.
/// Exact without an installed runtime.
#[inline]
pub(crate) fn unary<T: ApproxPrim>(x: Approx<T>, f: impl FnOnce(T) -> T) -> Approx<T> {
    with_hw(|hw| match hw {
        Some(hw) => Approx(unary_on(hw, x, f)),
        None => Approx(f(x.0)),
    })
}

/// An approximate binary operation: one dispatch to the installed machine,
/// however many of its operands are precise values upcast on the way in.
/// Exact without an installed runtime.
#[inline]
pub(crate) fn binary<T: ApproxPrim, R: ApproxPrim>(
    lhs: impl Operand<T>,
    rhs: impl Operand<T>,
    f: impl FnOnce(T, T) -> R,
    result: impl FnOnce(&mut Hardware, R) -> R,
) -> Approx<R> {
    with_hw(|hw| match hw {
        Some(hw) => Approx(binary_on(hw, lhs, rhs, f, result)),
        None => Approx(f(lhs.exact(), rhs.exact())),
    })
}

/// The round trip of an approximate-context value (`Ctx<T, ApproxMode>`)
/// through approximate storage: stored as `Approx::new` does, then read
/// back as [`endorse`] does, in one dispatch.
#[inline]
pub(crate) fn ctx_round_trip<T: ApproxPrim>(x: T) -> T {
    with_hw(|hw| match hw {
        Some(hw) => {
            let stored = sram_store(hw, x);
            sram_load(hw, stored)
        }
        None => x,
    })
}

/// A unary operation on an approximate-context value: `endorse(op
/// Approx::new(x))` in one dispatch.
#[inline]
pub(crate) fn ctx_unary<T: ApproxPrim>(x: T, f: impl FnOnce(T) -> T) -> T {
    with_hw(|hw| match hw {
        Some(hw) => {
            let out = unary_on(hw, x, f);
            sram_load(hw, out)
        }
        None => f(x),
    })
}

/// A binary operation on two approximate-context values:
/// `endorse(Approx::new(a) op Approx::new(b))` in one dispatch.
#[inline]
pub(crate) fn ctx_binary<T: ApproxPrim>(a: T, b: T, f: impl FnOnce(T, T) -> T) -> T {
    with_hw(|hw| match hw {
        Some(hw) => {
            let out = binary_on(hw, a, b, f, T::unit_result);
            sram_load(hw, out)
        }
        None => f(a, b),
    })
}

/// The result phase of a comparison: one bit from `T`'s unit.
fn cmp_result<T: ApproxPrim>(hw: &mut Hardware, raw: bool) -> bool {
    hw.approx_cmp_result(raw, T::OP_KIND)
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $arith:ident) => {
        impl<T: ApproxArith> $trait for Approx<T> {
            type Output = Approx<T>;
            fn $method(self, rhs: Approx<T>) -> Approx<T> {
                binary(self, rhs, T::$arith, T::unit_result)
            }
        }

        // Mixed operands: a precise right-hand side is upcast via subtyping,
        // and per the bidirectional-typing rule (section 2.3) the operation
        // still executes approximately because its result is approximate.
        impl<T: ApproxArith> $trait<T> for Approx<T> {
            type Output = Approx<T>;
            fn $method(self, rhs: T) -> Approx<T> {
                binary(self, rhs, T::$arith, T::unit_result)
            }
        }
    };
}

impl_binop!(Add, add, approx_add);
impl_binop!(Sub, sub, approx_sub);
impl_binop!(Mul, mul, approx_mul);
impl_binop!(Div, div, approx_div);
impl_binop!(Rem, rem, approx_rem);

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $arith:ident) => {
        impl<T: ApproxBits> $trait for Approx<T> {
            type Output = Approx<T>;
            fn $method(self, rhs: Approx<T>) -> Approx<T> {
                binary(self, rhs, T::$arith, T::unit_result)
            }
        }
        impl<T: ApproxBits> $trait<T> for Approx<T> {
            type Output = Approx<T>;
            fn $method(self, rhs: T) -> Approx<T> {
                binary(self, rhs, T::$arith, T::unit_result)
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, approx_and);
impl_bitop!(BitOr, bitor, approx_or);
impl_bitop!(BitXor, bitxor, approx_xor);

// Shifts take a precise `u32` amount — shift distances, like array
// indices, steer which bits land where and are kept precise.
impl<T: ApproxBits> Shl<u32> for Approx<T> {
    type Output = Approx<T>;
    fn shl(self, amount: u32) -> Approx<T> {
        unary(self, |a| T::approx_shl(a, amount))
    }
}

impl<T: ApproxBits> Shr<u32> for Approx<T> {
    type Output = Approx<T>;
    fn shr(self, amount: u32) -> Approx<T> {
        unary(self, |a| T::approx_shr(a, amount))
    }
}

macro_rules! impl_binop_lhs_precise {
    ($($t:ty),* $(,)?) => {$(
        impl Add<Approx<$t>> for $t {
            type Output = Approx<$t>;
            fn add(self, rhs: Approx<$t>) -> Approx<$t> {
                binary(self, rhs, <$t>::approx_add, <$t>::unit_result)
            }
        }
        impl Sub<Approx<$t>> for $t {
            type Output = Approx<$t>;
            fn sub(self, rhs: Approx<$t>) -> Approx<$t> {
                binary(self, rhs, <$t>::approx_sub, <$t>::unit_result)
            }
        }
        impl Mul<Approx<$t>> for $t {
            type Output = Approx<$t>;
            fn mul(self, rhs: Approx<$t>) -> Approx<$t> {
                binary(self, rhs, <$t>::approx_mul, <$t>::unit_result)
            }
        }
        impl Div<Approx<$t>> for $t {
            type Output = Approx<$t>;
            fn div(self, rhs: Approx<$t>) -> Approx<$t> {
                binary(self, rhs, <$t>::approx_div, <$t>::unit_result)
            }
        }
        impl Rem<Approx<$t>> for $t {
            type Output = Approx<$t>;
            fn rem(self, rhs: Approx<$t>) -> Approx<$t> {
                binary(self, rhs, <$t>::approx_rem, <$t>::unit_result)
            }
        }
    )*};
}

impl_binop_lhs_precise!(i8, i16, i32, i64, u8, u16, u32, u64, f32, f64);

macro_rules! impl_assign {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<T: ApproxArith> $trait for Approx<T> {
            fn $method(&mut self, rhs: Approx<T>) {
                *self = *self $op rhs;
            }
        }
        impl<T: ApproxArith> $trait<T> for Approx<T> {
            fn $method(&mut self, rhs: T) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_assign!(AddAssign, add_assign, +);
impl_assign!(SubAssign, sub_assign, -);
impl_assign!(MulAssign, mul_assign, *);
impl_assign!(DivAssign, div_assign, /);
impl_assign!(RemAssign, rem_assign, %);

impl<T: ApproxArith> Neg for Approx<T> {
    type Output = Approx<T>;
    fn neg(self) -> Approx<T> {
        unary(self, T::approx_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact_rt() -> Runtime {
        // All strategies masked off: approximate ops run exactly but are
        // still counted as approximate.
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        Runtime::with_config(cfg, 0)
    }

    #[test]
    fn without_runtime_ops_are_precise() {
        let a = Approx::new(6i32);
        let b = Approx::new(7i32);
        assert_eq!(endorse(a * b), 42);
        assert_eq!(endorse(-a), -6);
        assert!(endorse(a.lt_approx(b)));
    }

    #[test]
    fn masked_runtime_counts_but_does_not_corrupt() {
        let rt = exact_rt();
        let out = rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..100 {
                acc += i;
            }
            endorse(acc)
        });
        assert_eq!(out, 4950);
        assert_eq!(rt.stats().int_approx_ops, 100);
        assert_eq!(rt.fault_counters().total_injections(), 0);
    }

    #[test]
    fn mixed_operand_ops_compile_and_count_once() {
        let rt = exact_rt();
        let out = rt.run(|| {
            let a = Approx::new(2.0f64);
            endorse(3.0 * a + 1.0)
        });
        assert_eq!(out, 7.0);
        assert_eq!(rt.stats().fp_approx_ops, 2);
    }

    #[test]
    fn comparisons_yield_approx_bool() {
        let rt = exact_rt();
        rt.run(|| {
            let a = Approx::new(3i32);
            assert!(endorse(a.le_approx(3)));
            assert!(!endorse(a.gt_approx(5)));
            assert!(endorse(a.eq_approx(3)));
            assert!(endorse(a.ne_approx(4)));
            assert!(endorse(a.ge_approx(Approx::new(2))));
            assert!(!endorse(a.lt_approx(1)));
        });
        // 6 comparisons on the integer unit.
        assert_eq!(rt.stats().int_approx_ops, 6);
    }

    #[test]
    fn approx_div_by_zero_never_traps() {
        let rt = exact_rt();
        rt.run(|| {
            let z = Approx::new(0i32);
            assert_eq!(endorse(Approx::new(7) / z), 0);
            assert_eq!(endorse(Approx::new(7) % z), 0);
            let fz = Approx::new(0.0f32);
            assert!(endorse(Approx::new(7.0f32) / fz).is_nan());
        });
    }

    #[test]
    fn aggressive_fp_ops_lose_mantissa_precision() {
        let cfg = HwConfig::for_level(Level::Aggressive)
            .with_mask(StrategyMask::NONE.with_fp_width(true));
        let rt = Runtime::with_config(cfg, 0);
        let out = rt.run(|| {
            let a = Approx::new(1.001f64);
            endorse(a * 1.0)
        });
        // With 8 mantissa bits the .001 is lost.
        assert_eq!(out, 1.0);
    }

    #[test]
    fn aggressive_runtime_eventually_faults() {
        let rt = Runtime::new(Level::Aggressive, 123);
        rt.run(|| {
            let mut acc = Approx::new(0i64);
            for i in 0..10_000 {
                acc += i;
            }
            let _ = endorse(acc);
        });
        assert!(rt.fault_counters().total_injections() > 0, "aggressive run should fault");
    }

    #[test]
    fn sram_storage_is_accounted_as_approximate() {
        let rt = exact_rt();
        rt.run(|| {
            let a = Approx::new(1i64);
            let _ = a + a;
        });
        let s = rt.stats();
        assert!(!s.sram_approx_quanta.is_zero());
        assert!(s.sram_precise_quanta.is_zero());
    }

    #[test]
    fn endorsement_returns_plain_value_usable_in_conditions() {
        let rt = exact_rt();
        let out = rt.run(|| {
            let x = Approx::new(10i32);
            // The paper's idiom: if (endorse(val == 5)) { ... }
            if endorse(x.eq_approx(5)) {
                1
            } else {
                0
            }
        });
        assert_eq!(out, 0);
    }

    #[test]
    fn default_is_zero() {
        let z: Approx<f64> = Approx::default();
        assert_eq!(endorse(z), 0.0);
    }

    #[test]
    fn bitwise_ops_compute_exactly_when_masked() {
        let rt = exact_rt();
        rt.run(|| {
            let a = Approx::new(0b1100u32);
            let b = Approx::new(0b1010u32);
            assert_eq!(endorse(a & b), 0b1000);
            assert_eq!(endorse(a | b), 0b1110);
            assert_eq!(endorse(a ^ b), 0b0110);
            assert_eq!(endorse(a << 2), 0b110000);
            assert_eq!(endorse(a >> 1), 0b0110);
            // Mixed operands via subtyping.
            assert_eq!(endorse(a & 0b0100u32), 0b0100);
        });
        assert_eq!(rt.stats().int_approx_ops, 6);
    }

    #[test]
    fn shifts_mask_their_amount_like_hardware() {
        // Shifting a 32-bit value by 33 behaves like shifting by 1: the
        // shifter masks the amount, and never traps.
        let rt = exact_rt();
        rt.run(|| {
            let a = Approx::new(0b10u32);
            assert_eq!(endorse(a << 33), 0b100);
            assert_eq!(endorse(a >> 33), 0b1);
        });
    }

    #[test]
    fn widening_preserves_values_and_costs_nothing() {
        let rt = exact_rt();
        rt.run(|| {
            assert_eq!(endorse(Approx::new(200u8).widen_i32()), 200);
            assert_eq!(endorse(Approx::new(-5i8).widen_i32_from_i8()), -5);
            assert_eq!(endorse(Approx::new(-300i16).widen_i32_from_i16()), -300);
            assert_eq!(endorse(Approx::new(7i32).widen_i64()), 7);
            assert_eq!(endorse(Approx::new(3i32).widen_f64_from_i32()), 3.0);
            assert_eq!(endorse(Approx::new(1.5f32).widen_f64()), 1.5);
        });
        // Widening is a register move: no operations charged.
        assert_eq!(rt.stats().int_approx_ops, 0);
        assert_eq!(rt.stats().fp_approx_ops, 0);
    }
}
