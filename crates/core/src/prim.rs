//! Primitive types that can carry the `@Approx` qualifier.
//!
//! EnerJ qualifies Java's primitive types; the Rust embedding does the same
//! via the sealed [`ApproxPrim`] trait, which knows how to move a value
//! through the simulated hardware: its bit pattern, its width, and which
//! functional unit executes operations on it.

use enerj_hw::fpu;
use enerj_hw::stats::OpKind;
use enerj_hw::Hardware;

mod sealed {
    pub trait Sealed {}
    impl Sealed for i8 {}
    impl Sealed for i16 {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for bool {}
}

/// A primitive type that may be qualified `@Approx`.
///
/// This trait is sealed: the set of qualifiable primitives is fixed by the
/// language, exactly as in EnerJ.
pub trait ApproxPrim: Copy + PartialEq + std::fmt::Debug + sealed::Sealed + 'static {
    /// Width of the value in bits as stored in simulated hardware.
    const WIDTH: u32;
    /// Which functional unit operates on this type.
    const OP_KIND: OpKind;

    /// The value's raw bit pattern, zero-extended to 64 bits.
    fn to_bits64(self) -> u64;

    /// Reconstructs a value from the low [`Self::WIDTH`] bits of `bits`.
    fn from_bits64(bits: u64) -> Self;

    /// Applies operand conditioning for approximate execution (mantissa
    /// width reduction for floats; identity for integers).
    #[inline]
    fn condition_operand(hw: &Hardware, x: Self) -> Self {
        let _ = hw;
        x
    }

    /// Routes a raw result through the approximate functional unit,
    /// counting the operation and possibly injecting a timing error.
    fn unit_result(hw: &mut Hardware, raw: Self) -> Self;
}

macro_rules! impl_int_prim {
    ($($t:ty => $w:expr),* $(,)?) => {$(
        impl ApproxPrim for $t {
            const WIDTH: u32 = $w;
            const OP_KIND: OpKind = OpKind::Int;

            #[inline]
            #[allow(clippy::cast_sign_loss)]
            fn to_bits64(self) -> u64 {
                // Zero-extend the two's-complement pattern.
                (self as u64) & enerj_hw::fault::low_mask($w)
            }

            #[inline]
            #[allow(clippy::cast_possible_truncation)]
            fn from_bits64(bits: u64) -> Self {
                bits as $t
            }

            #[inline]
            fn unit_result(hw: &mut Hardware, raw: Self) -> Self {
                Self::from_bits64(hw.approx_int_result(raw.to_bits64(), $w))
            }
        }
    )*};
}

impl_int_prim! {
    i8 => 8, i16 => 16, i32 => 32, i64 => 64,
    u8 => 8, u16 => 16, u32 => 32, u64 => 64,
}

impl ApproxPrim for f32 {
    const WIDTH: u32 = 32;
    const OP_KIND: OpKind = OpKind::Fp;

    #[inline]
    fn to_bits64(self) -> u64 {
        u64::from(self.to_bits())
    }

    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }

    #[inline]
    fn condition_operand(hw: &Hardware, x: Self) -> Self {
        hw.approx_f32_operand(x)
    }

    #[inline]
    fn unit_result(hw: &mut Hardware, raw: Self) -> Self {
        hw.approx_f32_result(raw)
    }
}

impl ApproxPrim for f64 {
    const WIDTH: u32 = 64;
    const OP_KIND: OpKind = OpKind::Fp;

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }

    #[inline]
    fn condition_operand(hw: &Hardware, x: Self) -> Self {
        hw.approx_f64_operand(x)
    }

    #[inline]
    fn unit_result(hw: &mut Hardware, raw: Self) -> Self {
        hw.approx_f64_result(raw)
    }
}

impl ApproxPrim for bool {
    const WIDTH: u32 = 1;
    const OP_KIND: OpKind = OpKind::Int;

    #[inline]
    fn to_bits64(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits & 1 == 1
    }

    #[inline]
    fn unit_result(hw: &mut Hardware, raw: Self) -> Self {
        Self::from_bits64(hw.approx_int_result(raw.to_bits64(), 1))
    }
}

/// Approximate arithmetic semantics: the operations an imprecise functional
/// unit implements for a type.
///
/// Approximate operations never trap (section 5.2): integer arithmetic wraps
/// and divides-by-zero yield 0; floating-point divides-by-zero yield NaN.
/// A floating-point `+`, `-`, `*` or `/` whose result is a NaN returns the
/// first NaN operand's payload, quieted (when neither operand is one, the
/// NaN the operation itself gives), so the scalar operators and the batched
/// kernels agree bit for bit.
pub trait ApproxArith: ApproxPrim {
    /// Approximate addition (wrapping for integers).
    fn approx_add(a: Self, b: Self) -> Self;
    /// Approximate subtraction (wrapping for integers).
    fn approx_sub(a: Self, b: Self) -> Self;
    /// Approximate multiplication (wrapping for integers).
    fn approx_mul(a: Self, b: Self) -> Self;
    /// Approximate division: integer x/0 = 0, float x/0 = NaN.
    fn approx_div(a: Self, b: Self) -> Self;
    /// Approximate remainder: integer x%0 = 0, float x%0 = NaN.
    fn approx_rem(a: Self, b: Self) -> Self;
    /// Approximate negation.
    fn approx_neg(a: Self) -> Self;
}

macro_rules! impl_int_arith {
    ($($t:ty),* $(,)?) => {$(
        impl ApproxArith for $t {
            #[inline]
            fn approx_add(a: Self, b: Self) -> Self { a.wrapping_add(b) }
            #[inline]
            fn approx_sub(a: Self, b: Self) -> Self { a.wrapping_sub(b) }
            #[inline]
            fn approx_mul(a: Self, b: Self) -> Self { a.wrapping_mul(b) }
            #[inline]
            fn approx_div(a: Self, b: Self) -> Self {
                if b == 0 { 0 } else { a.wrapping_div(b) }
            }
            #[inline]
            fn approx_rem(a: Self, b: Self) -> Self {
                if b == 0 { 0 } else { a.wrapping_rem(b) }
            }
            #[inline]
            fn approx_neg(a: Self) -> Self { a.wrapping_neg() }
        }
    )*};
}

impl_int_arith!(i8, i16, i32, i64, u8, u16, u32, u64);

/// Approximate bitwise semantics: shifts and logical operations on the
/// integer unit. Shift amounts are masked to the type width, as hardware
/// shifters do, so approximate shifts never trap.
pub trait ApproxBits: ApproxPrim {
    /// Bitwise AND.
    fn approx_and(a: Self, b: Self) -> Self;
    /// Bitwise OR.
    fn approx_or(a: Self, b: Self) -> Self;
    /// Bitwise XOR.
    fn approx_xor(a: Self, b: Self) -> Self;
    /// Left shift, amount masked to the width.
    fn approx_shl(a: Self, amount: u32) -> Self;
    /// Logical/arithmetic right shift (per the type), amount masked.
    fn approx_shr(a: Self, amount: u32) -> Self;
}

macro_rules! impl_int_bits {
    ($($t:ty),* $(,)?) => {$(
        impl ApproxBits for $t {
            #[inline]
            fn approx_and(a: Self, b: Self) -> Self { a & b }
            #[inline]
            fn approx_or(a: Self, b: Self) -> Self { a | b }
            #[inline]
            fn approx_xor(a: Self, b: Self) -> Self { a ^ b }
            #[inline]
            fn approx_shl(a: Self, amount: u32) -> Self {
                a.wrapping_shl(amount)
            }
            #[inline]
            fn approx_shr(a: Self, amount: u32) -> Self {
                a.wrapping_shr(amount)
            }
        }
    )*};
}

impl_int_bits!(i8, i16, i32, i64, u8, u16, u32, u64);

macro_rules! impl_fp_arith {
    ($($t:ty => $first_nan:path),* $(,)?) => {$(
        impl ApproxArith for $t {
            #[inline]
            fn approx_add(a: Self, b: Self) -> Self { $first_nan(a, b, a + b) }
            #[inline]
            fn approx_sub(a: Self, b: Self) -> Self { $first_nan(a, b, a - b) }
            #[inline]
            fn approx_mul(a: Self, b: Self) -> Self { $first_nan(a, b, a * b) }
            #[inline]
            fn approx_div(a: Self, b: Self) -> Self {
                $first_nan(a, b, if b == 0.0 { <$t>::NAN } else { a / b })
            }
            #[inline]
            fn approx_rem(a: Self, b: Self) -> Self {
                if b == 0.0 { <$t>::NAN } else { a % b }
            }
            #[inline]
            fn approx_neg(a: Self) -> Self { -a }
        }
    )*};
}

impl_fp_arith!(f32 => fpu::first_nan_f32, f64 => fpu::first_nan_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_bits_roundtrip_including_negatives() {
        for &x in &[0i32, 1, -1, i32::MIN, i32::MAX, 123_456_789] {
            assert_eq!(i32::from_bits64(x.to_bits64()), x);
        }
        for &x in &[0i8, -1, i8::MIN, i8::MAX] {
            assert_eq!(i8::from_bits64(x.to_bits64()), x);
        }
        for &x in &[0u64, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(u64::from_bits64(x.to_bits64()), x);
        }
    }

    #[test]
    fn int_bits_are_confined_to_width() {
        assert_eq!((-1i8).to_bits64(), 0xFF);
        assert_eq!((-1i16).to_bits64(), 0xFFFF);
        assert_eq!((-1i32).to_bits64(), 0xFFFF_FFFF);
    }

    #[test]
    fn float_bits_roundtrip() {
        for &x in &[0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_bits64(x.to_bits64()).to_bits(), x.to_bits());
        }
        assert!(f32::from_bits64(f32::NAN.to_bits64()).is_nan());
    }

    #[test]
    fn bool_roundtrip() {
        assert!(bool::from_bits64(true.to_bits64()));
        assert!(!bool::from_bits64(false.to_bits64()));
    }

    #[test]
    fn approx_int_div_by_zero_is_zero() {
        assert_eq!(i32::approx_div(5, 0), 0);
        assert_eq!(i32::approx_rem(5, 0), 0);
        assert_eq!(u8::approx_div(200, 0), 0);
    }

    #[test]
    fn approx_int_overflow_wraps() {
        assert_eq!(i32::approx_add(i32::MAX, 1), i32::MIN);
        assert_eq!(i8::approx_mul(100, 100), (100i8).wrapping_mul(100));
        assert_eq!(i32::approx_neg(i32::MIN), i32::MIN);
    }

    #[test]
    fn approx_fp_div_by_zero_is_nan() {
        assert!(f32::approx_div(1.0, 0.0).is_nan());
        assert!(f64::approx_rem(1.0, 0.0).is_nan());
        assert!((f64::approx_div(1.0, 2.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn fp_nan_results_carry_the_first_nan_operand_quieted() {
        let (x, y) = (f64::from_bits(0x7FF0_0000_0000_0001), f64::from_bits(0xFFF0_0000_0000_0002));
        let quiet = |v: f64| v.to_bits() | 1 << 51;
        assert_eq!(f64::approx_add(x, y).to_bits(), quiet(x));
        assert_eq!(f64::approx_mul(y, x).to_bits(), quiet(y));
        assert_eq!(f64::approx_sub(1.0, y).to_bits(), quiet(y));
        assert_eq!(f64::approx_div(x, 0.0).to_bits(), quiet(x));
        assert_eq!(f64::approx_div(1.0, 0.0).to_bits(), f64::NAN.to_bits());
        let z = f32::from_bits(0x7F80_0003);
        assert_eq!(f32::approx_div(z, 0.0).to_bits(), z.to_bits() | 1 << 22);
    }
}
