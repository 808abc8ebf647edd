//! Qualifier polymorphism: `@Approximable` classes, `@Context` data and
//! algorithmic approximation (section 2.5).
//!
//! An EnerJ `@Approximable` class can have precise and approximate
//! instances; `@Context`-qualified members inherit the instance's precision,
//! and methods may be overloaded on the receiver's precision (`_APPROX`
//! methods). The Rust embedding expresses the class qualifier parameter as a
//! type parameter `M: Mode`:
//!
//! ```
//! use enerj_core::context::{ApproxMode, Ctx, Mode, PreciseMode};
//! use enerj_core::{endorse_ctx, Runtime};
//! use enerj_hw::config::Level;
//!
//! // @Approximable class IntPair { @Context int x; @Context int y; }
//! struct IntPair<M: Mode> {
//!     x: Ctx<i32, M>,
//!     y: Ctx<i32, M>,
//! }
//!
//! impl<M: Mode> IntPair<M> {
//!     fn add_to_both(&mut self, amount: Ctx<i32, M>) {
//!         self.x += amount;
//!         self.y += amount;
//!     }
//! }
//!
//! let rt = Runtime::new(Level::Mild, 0);
//! rt.run(|| {
//!     // An approximate instance: fields are approximate.
//!     let mut a = IntPair::<ApproxMode> { x: Ctx::new(1), y: Ctx::new(2) };
//!     a.add_to_both(Ctx::new(10));
//!     // A precise instance of the same class: fields are precise.
//!     let mut p = IntPair::<PreciseMode> { x: Ctx::new(1), y: Ctx::new(2) };
//!     p.add_to_both(Ctx::new(10));
//!     assert_eq!(p.x.into_precise(), 11); // precise projection: no endorsement
//!     let _ = endorse_ctx(a.x); // approximate projection needs an endorsement
//! });
//! ```
//!
//! Algorithmic approximation (section 2.5.2) is method selection on `M`:
//! implement a trait for `YourType<PreciseMode>` with the exact algorithm
//! and for `YourType<ApproxMode>` with the cheap one; the compiler selects
//! statically, exactly like EnerJ's `_APPROX` naming convention.

use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::approx::{self, endorse, Approx};
use crate::precise::Precise;
use crate::prim::{ApproxArith, ApproxPrim};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::PreciseMode {}
    impl Sealed for super::ApproxMode {}
}

/// The precision of an approximable class instance (its qualifier
/// parameter). Sealed: the only modes are [`PreciseMode`] and [`ApproxMode`].
pub trait Mode: sealed::Sealed + Copy + std::fmt::Debug + 'static {
    /// Whether `@Context` data in this instance is approximate.
    const APPROX: bool;
}

/// The qualifier of precise instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreciseMode;

/// The qualifier of approximate instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApproxMode;

impl Mode for PreciseMode {
    const APPROX: bool = false;
}

impl Mode for ApproxMode {
    const APPROX: bool = true;
}

/// A `@Context`-qualified primitive: precise in precise instances,
/// approximate in approximate instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx<T: ApproxPrim, M: Mode>(T, PhantomData<M>);

impl<T: ApproxPrim, M: Mode> Ctx<T, M> {
    /// Wraps a precise value (allowed in both modes by subtyping).
    pub fn new(value: T) -> Self {
        if M::APPROX {
            Ctx(approx::ctx_round_trip(value), PhantomData)
        } else {
            Ctx(value, PhantomData)
        }
    }
}

impl<T: ApproxPrim> Ctx<T, PreciseMode> {
    /// Projects a precise-context value; no endorsement required.
    pub fn into_precise(self) -> T {
        self.0
    }
}

impl<T: ApproxPrim> Ctx<T, ApproxMode> {
    /// Views an approximate-context value as `Approx` (same qualifier).
    pub fn to_approx(self) -> Approx<T> {
        Approx::new(self.0)
    }
}

impl<T: ApproxPrim> From<Approx<T>> for Ctx<T, ApproxMode> {
    fn from(value: Approx<T>) -> Self {
        Ctx(endorse(value), PhantomData)
    }
}

impl<T: ApproxPrim> From<Precise<T>> for Ctx<T, PreciseMode> {
    fn from(value: Precise<T>) -> Self {
        Ctx(value.get(), PhantomData)
    }
}

/// Endorses an approximate-context value (section 2.2). Precise-context
/// values use [`Ctx::into_precise`] instead — no endorsement is needed.
pub fn endorse_ctx<T: ApproxPrim>(value: Ctx<T, ApproxMode>) -> T {
    approx::ctx_round_trip(value.0)
}

macro_rules! impl_ctx_binop {
    ($trait:ident, $method:ident, $arith:ident) => {
        impl<T: ApproxArith + $trait<Output = T>, M: Mode> $trait for Ctx<T, M> {
            type Output = Ctx<T, M>;
            fn $method(self, rhs: Ctx<T, M>) -> Ctx<T, M> {
                if M::APPROX {
                    Ctx(approx::ctx_binary(self.0, rhs.0, T::$arith), PhantomData)
                } else {
                    Ctx((Precise::new(self.0).$method(rhs.0)).get(), PhantomData)
                }
            }
        }
        impl<T: ApproxArith + $trait<Output = T>, M: Mode> $trait<T> for Ctx<T, M> {
            type Output = Ctx<T, M>;
            fn $method(self, rhs: T) -> Ctx<T, M> {
                self.$method(Ctx::<T, M>::new(rhs))
            }
        }
    };
}

impl_ctx_binop!(Add, add, approx_add);
impl_ctx_binop!(Sub, sub, approx_sub);
impl_ctx_binop!(Mul, mul, approx_mul);
impl_ctx_binop!(Div, div, approx_div);

macro_rules! impl_ctx_assign {
    ($trait:ident, $method:ident, $base:ident, $op:tt) => {
        impl<T: ApproxArith + $base<Output = T>, M: Mode> $trait for Ctx<T, M> {
            fn $method(&mut self, rhs: Ctx<T, M>) {
                *self = *self $op rhs;
            }
        }
        impl<T: ApproxArith + $base<Output = T>, M: Mode> $trait<T> for Ctx<T, M> {
            fn $method(&mut self, rhs: T) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_ctx_assign!(AddAssign, add_assign, Add, +);
impl_ctx_assign!(SubAssign, sub_assign, Sub, -);
impl_ctx_assign!(MulAssign, mul_assign, Mul, *);
impl_ctx_assign!(DivAssign, div_assign, Div, /);

impl<T: ApproxArith + Neg<Output = T>, M: Mode> Neg for Ctx<T, M> {
    type Output = Ctx<T, M>;
    fn neg(self) -> Ctx<T, M> {
        if M::APPROX {
            Ctx(approx::ctx_unary(self.0, T::approx_neg), PhantomData)
        } else {
            Ctx((-Precise::new(self.0)).get(), PhantomData)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact_rt() -> Runtime {
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        Runtime::with_config(cfg, 0)
    }

    #[test]
    fn context_ops_route_to_the_instance_qualifier() {
        let rt = exact_rt();
        rt.run(|| {
            let a: Ctx<i32, ApproxMode> = Ctx::new(5);
            let p: Ctx<i32, PreciseMode> = Ctx::new(5);
            let _ = a + a;
            let _ = p + p;
        });
        let s = rt.stats();
        assert_eq!(s.int_approx_ops, 1, "approximate instance uses the approx unit");
        assert_eq!(s.int_precise_ops, 1, "precise instance uses the precise unit");
    }

    #[test]
    fn precise_projection_needs_no_endorsement() {
        let p: Ctx<i32, PreciseMode> = Ctx::new(9);
        assert_eq!((p * 2).into_precise(), 18);
    }

    #[test]
    fn approx_projection_requires_endorse() {
        let rt = exact_rt();
        rt.run(|| {
            let a: Ctx<f64, ApproxMode> = Ctx::new(2.0);
            assert_eq!(endorse_ctx(a * 3.0), 6.0);
        });
    }

    /// The paper's FloatSet example (section 2.5.2): `mean` overloaded on
    /// the receiver's precision, with the approximate version averaging
    /// every other element.
    struct FloatSet<M: Mode> {
        nums: Vec<f32>,
        _mode: PhantomData<M>,
    }

    trait MeanOp {
        fn mean(&self) -> f32;
    }

    impl MeanOp for FloatSet<PreciseMode> {
        fn mean(&self) -> f32 {
            let mut total = Precise::new(0.0f32);
            for &x in &self.nums {
                total += x;
            }
            (total / self.nums.len() as f32).get()
        }
    }

    impl MeanOp for FloatSet<ApproxMode> {
        fn mean(&self) -> f32 {
            let mut total = Approx::new(0.0f32);
            let mut i = 0;
            while i < self.nums.len() {
                total += self.nums[i];
                i += 2;
            }
            endorse(2.0 * total / self.nums.len() as f32)
        }
    }

    #[test]
    fn algorithmic_approximation_selects_by_mode() {
        let rt = exact_rt();
        rt.run(|| {
            let nums = vec![1.0f32, 100.0, 3.0, 100.0];
            let precise = FloatSet::<PreciseMode> { nums: nums.clone(), _mode: PhantomData };
            let approx = FloatSet::<ApproxMode> { nums, _mode: PhantomData };
            assert_eq!(precise.mean(), 51.0);
            // Approximate mean skips the 100s: (1 + 3) * 2 / 4 = 2.
            assert_eq!(approx.mean(), 2.0);
        });
        let s = rt.stats();
        assert!(s.fp_approx_ops > 0 && s.fp_precise_ops > 0);
    }
}
