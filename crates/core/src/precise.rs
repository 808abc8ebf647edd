//! The `@Precise` qualifier: instrumented precise values.
//!
//! Precise data is the default in EnerJ, and plain Rust values play that
//! role in the embedding. [`Precise<T>`] exists for *accounting*: the
//! paper's simulator instruments every arithmetic operation and memory
//! access, precise or not, to compute the fractions of Figure 3 and the
//! energy of Figure 4. Ported applications therefore route their precise
//! arithmetic through `Precise<T>` so that precise work is counted (and,
//! naturally, never faulted).
//!
//! Unlike [`Approx<T>`](crate::Approx), `Precise<T>` implements `PartialEq`
//! and `PartialOrd` against itself and its inner type: precise data may
//! freely drive control flow (section 2.4).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, RemAssign, Sub, SubAssign,
};

use crate::approx::Approx;
use crate::prim::ApproxPrim;
use crate::runtime::with_hw;

/// A precise value of primitive type `T`, instrumented for statistics.
///
/// # Examples
///
/// ```
/// use enerj_core::{Precise, Runtime};
/// use enerj_hw::config::Level;
///
/// let rt = Runtime::new(Level::Medium, 0);
/// let out = rt.run(|| {
///     let mut acc = Precise::new(0i32);
///     for i in 0..10 {
///         acc += Precise::new(i);
///     }
///     acc.get()
/// });
/// assert_eq!(out, 45);
/// assert_eq!(rt.stats().int_precise_ops, 10);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Precise<T: ApproxPrim>(T);

impl<T: ApproxPrim> Precise<T> {
    /// Wraps a value as precise data. The store is a precise SRAM write:
    /// counted, never faulted.
    pub fn new(value: T) -> Self {
        with_hw(|hw| {
            if let Some(hw) = hw {
                hw.sram_write(value.to_bits64(), T::WIDTH, false);
            }
        });
        Precise(value)
    }

    /// The wrapped value. Reading precise data is reliable and free of
    /// accounting (the accesses were counted when the value was produced).
    pub fn get(self) -> T {
        self.0
    }

    /// Upcasts to the approximate type (primitive subtyping, section 2.1).
    fn to_approx(self) -> Approx<T> {
        Approx::new(self.0)
    }
}

impl<T: ApproxPrim> From<T> for Precise<T> {
    fn from(value: T) -> Self {
        Precise::new(value)
    }
}

impl<T: ApproxPrim> From<Precise<T>> for Approx<T> {
    fn from(value: Precise<T>) -> Self {
        value.to_approx()
    }
}

impl<T: ApproxPrim + fmt::Display> fmt::Display for Precise<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl<T: ApproxPrim> PartialEq for Precise<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: ApproxPrim> PartialEq<T> for Precise<T> {
    fn eq(&self, other: &T) -> bool {
        self.0 == *other
    }
}

impl<T: ApproxPrim + PartialOrd> PartialOrd for Precise<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl<T: ApproxPrim + PartialOrd> PartialOrd<T> for Precise<T> {
    fn partial_cmp(&self, other: &T) -> Option<Ordering> {
        self.0.partial_cmp(other)
    }
}

/// Records one precise operation of `T`'s kind on the ambient hardware,
/// with the same SRAM traffic pattern as an approximate operation: two
/// operand reads on precise (reliable) storage; results are forwarded.
fn count_op<T: ApproxPrim>(a: T, b: T, out: T) {
    let _ = out;
    with_hw(|hw| {
        if let Some(hw) = hw {
            hw.sram_read(a.to_bits64(), T::WIDTH, false);
            hw.sram_read(b.to_bits64(), T::WIDTH, false);
            hw.precise_op(T::OP_KIND);
        }
    });
}

macro_rules! impl_precise_binop {
    ($trait:ident, $method:ident) => {
        impl<T: ApproxPrim + $trait<Output = T>> $trait for Precise<T> {
            type Output = Precise<T>;
            fn $method(self, rhs: Precise<T>) -> Precise<T> {
                let out = self.0.$method(rhs.0);
                count_op::<T>(self.0, rhs.0, out);
                Precise(out)
            }
        }
        impl<T: ApproxPrim + $trait<Output = T>> $trait<T> for Precise<T> {
            type Output = Precise<T>;
            fn $method(self, rhs: T) -> Precise<T> {
                let out = self.0.$method(rhs);
                count_op::<T>(self.0, rhs, out);
                Precise(out)
            }
        }
    };
}

impl_precise_binop!(Add, add);
impl_precise_binop!(Sub, sub);
impl_precise_binop!(Mul, mul);
impl_precise_binop!(Div, div);
impl_precise_binop!(Rem, rem);

macro_rules! impl_precise_assign {
    ($trait:ident, $method:ident, $base:ident, $op:tt) => {
        impl<T: ApproxPrim + $base<Output = T>> $trait for Precise<T> {
            fn $method(&mut self, rhs: Precise<T>) {
                *self = *self $op rhs;
            }
        }
        impl<T: ApproxPrim + $base<Output = T>> $trait<T> for Precise<T> {
            fn $method(&mut self, rhs: T) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_precise_assign!(AddAssign, add_assign, Add, +);
impl_precise_assign!(SubAssign, sub_assign, Sub, -);
impl_precise_assign!(MulAssign, mul_assign, Mul, *);
impl_precise_assign!(DivAssign, div_assign, Div, /);
impl_precise_assign!(RemAssign, rem_assign, Rem, %);

impl<T: ApproxPrim + Neg<Output = T>> Neg for Precise<T> {
    type Output = Precise<T>;
    fn neg(self) -> Precise<T> {
        let out = -self.0;
        count_op::<T>(self.0, self.0, out);
        Precise(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use enerj_hw::config::Level;

    #[test]
    fn precise_ops_are_exact_under_any_level() {
        let rt = Runtime::new(Level::Aggressive, 0);
        let out = rt.run(|| {
            let a = Precise::new(123.25f64);
            let b = Precise::new(4.0f64);
            (a * b + 1.0).get()
        });
        assert_eq!(out, 494.0);
        assert_eq!(rt.fault_counters().total_injections(), 0);
        assert_eq!(rt.stats().fp_precise_ops, 2);
    }

    #[test]
    fn comparisons_drive_control_flow_directly() {
        let a = Precise::new(3i32);
        let b = Precise::new(5i32);
        assert!(a < b);
        assert!(a == 3);
        assert!(b >= 5);
        let branch = if a < b { "lt" } else { "ge" };
        assert_eq!(branch, "lt");
    }

    #[test]
    fn upcast_to_approx_is_available() {
        let p = Precise::new(8i32);
        let a: Approx<i32> = p.into();
        assert_eq!(crate::endorse(a), 8);
    }

    #[test]
    fn works_without_runtime() {
        let x = Precise::new(2i64) * Precise::new(21i64);
        assert_eq!(x.get(), 42);
    }

    #[test]
    fn storage_counts_as_precise_sram() {
        let rt = Runtime::new(Level::Medium, 0);
        rt.run(|| {
            let _ = Precise::new(1.0f32) + Precise::new(2.0f32);
        });
        let s = rt.stats();
        assert!(!s.sram_precise_quanta.is_zero());
        assert!(s.sram_approx_quanta.is_zero());
    }

    #[test]
    fn display_matches_inner() {
        assert_eq!(Precise::new(7i32).to_string(), "7");
    }
}
