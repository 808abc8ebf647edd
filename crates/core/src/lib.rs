//! # enerj-core: the EnerJ programming model, embedded in Rust
//!
//! This crate reproduces the programming model of *EnerJ: Approximate Data
//! Types for Safe and General Low-Power Computation* (PLDI 2011), section 2,
//! as an embedded Rust API. The correspondence:
//!
//! | EnerJ construct | This crate |
//! |---|---|
//! | `@Approx T` | [`Approx<T>`] |
//! | `@Precise T` (default) | plain `T`, or [`Precise<T>`] when instrumented |
//! | `endorse(e)` | [`endorse`] / [`endorse_ctx`] |
//! | `@Approximable class C` | `struct C<M: Mode>` |
//! | `@Context T` | [`Ctx<T, M>`](context::Ctx) |
//! | `_APPROX` method overloading | trait impls selected on `M` |
//! | approximate arrays (section 2.6) | [`ApproxVec<T>`] |
//!
//! The static guarantees carry over: an `Approx<T>` cannot reach precise
//! code without an explicit [`endorse`], comparisons of approximate data
//! yield `Approx<bool>` and therefore cannot steer control flow implicitly,
//! and array indices are precise `usize` values.
//!
//! Execution is parameterized by an ambient [`Runtime`] wrapping the
//! simulated approximation-aware hardware of
//! [`enerj-hw`](enerj_hw). Without a runtime, every operation is precise —
//! an EnerJ program run as "plain Java".
//!
//! ## Example: the paper's opening example
//!
//! ```
//! use enerj_core::{endorse, Approx, Runtime};
//! use enerj_hw::config::Level;
//!
//! let rt = Runtime::new(Level::Medium, 0);
//! rt.run(|| {
//!     let a: Approx<i32> = Approx::new(7);
//!     let p: i32;
//!     // p = a;          // illegal: no implicit approx -> precise flow
//!     p = endorse(a);    // legal, explicit endorsement
//!     let _a2: Approx<i32> = p.into(); // precise -> approx is subtyping
//! });
//! ```
//!
//! ## Example: an approximate multiply, endorsed
//!
//! ```
//! use enerj_core::{endorse, Approx, Runtime};
//! use enerj_hw::config::Level;
//!
//! let rt = Runtime::new(Level::Medium, 42);
//! let out = rt.run(|| {
//!     let a = Approx::new(2.0f32);
//!     let b = Approx::new(3.0f32);
//!     endorse(a * b) // approximate multiply, explicit endorsement
//! });
//! assert!(out.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
pub mod batch;
pub mod check;
pub mod context;
mod math;
mod precise;
mod prim;
mod record;
mod runtime;
mod vecs;

pub use approx::{endorse, Approx};
pub use batch::{ApproxBuf, BatchOp, BatchPrim};
pub use check::{endorse_checked, finite, in_range, not_nan, predicate, EndorseError, Guard};
pub use context::{endorse_ctx, ApproxMode, Ctx, Mode, PreciseMode};
pub use precise::Precise;
pub use prim::{ApproxArith, ApproxBits, ApproxPrim};
pub use record::{ApproxRecord, RecordSchema, RecordSchemaBuilder};
pub use runtime::{panic_message, Degraded, Runtime, PANIC_MESSAGE_LIMIT};
pub use vecs::{ApproxVec, PreciseVec};

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    #[test]
    fn re_exports_compose() {
        let cfg = HwConfig::for_level(Level::Mild).with_mask(StrategyMask::NONE);
        let rt = Runtime::with_config(cfg, 0);
        let out = rt.run(|| {
            let mut v = ApproxVec::from_slice(&[1.0f64, 2.0, 3.0]);
            let mut total = Approx::new(0.0f64);
            for i in 0..v.len() {
                total += v.get(i);
            }
            endorse(total / v.len() as f64)
        });
        assert_eq!(out, 2.0);
    }

    #[test]
    fn energy_decreases_when_work_is_approximate() {
        let run = |approx: bool| {
            let cfg = HwConfig::for_level(Level::Medium).with_mask(StrategyMask::NONE);
            let rt = Runtime::with_config(cfg, 0);
            rt.run(|| {
                if approx {
                    let mut acc = Approx::new(0.0f64);
                    for i in 0..1000 {
                        acc += i as f64;
                    }
                    let _ = endorse(acc);
                } else {
                    let mut acc = Precise::new(0.0f64);
                    for i in 0..1000 {
                        acc += i as f64;
                    }
                    let _ = acc.get();
                }
            });
            rt.energy().total
        };
        let approx_energy = run(true);
        let precise_energy = run(false);
        assert!(approx_energy < precise_energy);
        assert!((precise_energy - 1.0).abs() < 1e-12);
    }
}
