//! Batched approximate operations: whole-slice arithmetic over
//! [`ApproxVec`] data.
//!
//! The scalar embedding pays a full tour of the simulated hardware for
//! every element: a DRAM read per operand, two SRAM register reads, operand
//! conditioning, one functional-unit result phase and a DRAM write-back.
//! For the SciMark inner loops those per-element calls dominate wall-clock
//! time. This module regroups the tour *stream-wise*: an [`ApproxBuf`]
//! stages a run of elements in the register file, and [`zip`] / [`scalar`]
//! run each hardware phase over the whole slice using the batched entry
//! points of [`enerj_hw::Hardware`].
//!
//! ## Equivalence to the scalar loop
//!
//! A batched operation performs exactly the same per-element hardware
//! accesses as the scalar loop it replaces — the same number of clock
//! ticks, operation counts, SRAM bit-quanta and DRAM accesses, on the same
//! fault streams, consuming the same RNG draws. Regrouping only changes the
//! *order* in which the shared streams meet the data, so when a fault fires
//! it may land on a different element than in the scalar interleaving:
//! outcomes are equivalent in distribution (pinned by the 5-sigma tests in
//! this module), while the energy quanta are bit-identical.
//!
//! ## Buffers
//!
//! An [`ApproxBuf`] holds raw `u64` bit patterns, the form every entry
//! point of [`enerj_hw::Hardware`] takes, in a buffer from a small per-thread
//! pool, so a kernel in steady state neither allocates nor converts.
//! [`zip`] and [`scalar`] stage both operands in their result buffer and
//! read them as one SRAM stream, all of `a` and then all of `b`; the
//! phases, and so every fault and RNG draw, come in the order above.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;

use crate::approx::Approx;
use crate::prim::{ApproxArith, ApproxPrim};
use crate::runtime::with_hw;
use crate::vecs::ApproxVec;
use enerj_hw::stats::OpKind;

/// Most buffers a thread keeps for reuse. A kernel holds a handful at a
/// time (an FFT butterfly stage, the most, about a dozen), so the pool
/// stays small; a buffer returned to a full pool is freed.
const POOL_LIMIT: usize = 32;

thread_local! {
    /// Empty buffers, with their capacity, for the next [`ApproxBuf`] on
    /// this thread. Never read for contents: every buffer is cleared on
    /// return and filled in full by its next owner.
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// An empty buffer from this thread's pool, or a new one.
fn pooled() -> Vec<u64> {
    POOL.try_with(|p| p.try_borrow_mut().ok()?.pop()).ok().flatten().unwrap_or_default()
}

/// The element-wise operations a batched functional unit implements.
///
/// The non-trapping semantics of [`ApproxArith`] apply: integer arithmetic
/// wraps and division by zero yields 0 (NaN for floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Element-wise addition.
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Mul,
    /// Element-wise division.
    Div,
}

impl BatchOp {
    /// Computes `xs[i] = xs[i] op ys[i]` on raw bit patterns of `T`, one
    /// loop per operation.
    fn apply<T: ApproxArith>(self, xs: &mut [u64], ys: &[u64]) {
        match self {
            BatchOp::Add => apply_each(xs, ys, T::approx_add),
            BatchOp::Sub => apply_each(xs, ys, T::approx_sub),
            BatchOp::Mul => apply_each(xs, ys, T::approx_mul),
            BatchOp::Div => apply_each(xs, ys, T::approx_div),
        }
    }
}

/// `xs[i] = f(xs[i], ys[i])` on raw bit patterns of `T`.
#[inline]
fn apply_each<T: ApproxPrim>(xs: &mut [u64], ys: &[u64], f: impl Fn(T, T) -> T) {
    for (x, &y) in xs.iter_mut().zip(ys) {
        *x = f(T::from_bits64(*x), T::from_bits64(y)).to_bits64();
    }
}

/// A register-resident run of approximate values.
///
/// Staging values in an `ApproxBuf` is free, exactly like holding
/// `Approx<T>` temporaries in scalar code: energy is charged when the data
/// moves through a hardware structure ([`ApproxBuf::load`] /
/// [`ApproxBuf::store`] for DRAM, [`zip`] / [`scalar`] for the register
/// file and functional units).
///
/// The values are held as raw bit patterns in a buffer borrowed from a
/// small per-thread pool and returned to it on drop, so a kernel in steady
/// state allocates nothing. A loaded `bool` keeps its whole DRAM byte;
/// every read of it goes through `from_bits64`, which keeps the value bit.
pub struct ApproxBuf<T: ApproxPrim> {
    bits: Vec<u64>,
    _elem: PhantomData<T>,
}

impl<T: ApproxPrim> ApproxBuf<T> {
    /// An empty buffer from the pool, to be filled by its caller.
    fn empty() -> Self {
        ApproxBuf { bits: pooled(), _elem: PhantomData }
    }

    /// Loads `len` elements of `v` starting at `start` into registers.
    ///
    /// One bulk DRAM read: the same per-element decay exposure, clock ticks
    /// and storage accounting as a `v.get(i)` loop.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds `v.len()`.
    pub fn load(v: &mut ApproxVec<T>, start: usize, len: usize) -> Self {
        let mut buf = ApproxBuf::empty();
        buf.bits.resize(len, 0);
        v.read_bits_slice(start, &mut buf.bits);
        buf
    }

    /// Stores the buffer back to `v` starting at `start`, refreshing the
    /// elements' decay clocks. The bulk counterpart of a `v.set(i, x)`
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `start + self.len()` exceeds `v.len()`.
    pub fn store(&self, v: &mut ApproxVec<T>, start: usize) {
        v.write_bits_slice(start, &self.bits);
    }

    /// Builds a buffer by evaluating `f` at every index (a register move:
    /// no simulated energy).
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Approx<T>) -> Self {
        let mut buf = ApproxBuf::empty();
        buf.bits.extend((0..len).map(|i| f(i).raw().to_bits64()));
        buf
    }

    /// Number of staged elements.
    fn len(&self) -> usize {
        self.bits.len()
    }

    /// The element at `i`, as a register move.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> Approx<T> {
        Approx::from_raw(T::from_bits64(self.bits[i]))
    }

    /// Replaces the element at `i`, as a register move.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: Approx<T>) {
        self.bits[i] = value.raw().to_bits64();
    }

    /// Endorses the whole buffer (section 2.2, in bulk): one final batched
    /// SRAM read, equivalent to calling [`crate::endorse`] per element.
    pub fn endorse_to_vec(mut self) -> Vec<T> {
        with_hw(|hw| {
            if let Some(hw) = hw {
                hw.sram_read_slice(&mut self.bits, T::WIDTH, true);
            }
        });
        self.bits.iter().map(|&b| T::from_bits64(b)).collect()
    }
}

impl<T: ApproxPrim> Clone for ApproxBuf<T> {
    fn clone(&self) -> Self {
        let mut buf = ApproxBuf::empty();
        buf.bits.extend_from_slice(&self.bits);
        buf
    }
}

impl<T: ApproxPrim> fmt::Debug for ApproxBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.bits.iter().map(|&b| T::from_bits64(b))).finish()
    }
}

impl<T: ApproxPrim> Drop for ApproxBuf<T> {
    /// Returns the buffer to the pool. `try_with` and `try_borrow_mut`
    /// make this a no-op, never a panic, when the pool is gone (thread
    /// teardown) or busy, so a buffer dropped while unwinding from a
    /// watchdog trip is simply freed or kept.
    fn drop(&mut self) {
        let mut bits = std::mem::take(&mut self.bits);
        if bits.capacity() == 0 {
            return;
        }
        bits.clear();
        let _ = POOL.try_with(|p| {
            if let Ok(mut pool) = p.try_borrow_mut() {
                if pool.len() < POOL_LIMIT {
                    pool.push(bits);
                }
            }
        });
    }
}

/// Element-wise `a op b` over two equal-length buffers.
///
/// Replicates the scalar [`Approx`] operator composition phase-by-phase,
/// each phase batched: SRAM-read and condition `a`, SRAM-read and condition
/// `b`, compute, then run the result phase. Without an installed
/// [`Runtime`](crate::Runtime) the computation is exact.
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn zip<T: ApproxArith>(op: BatchOp, a: &ApproxBuf<T>, b: &ApproxBuf<T>) -> ApproxBuf<T> {
    assert_eq!(a.len(), b.len(), "zip requires equal lengths");
    combine(op, a, |regs| regs.extend_from_slice(&b.bits))
}

/// Element-wise `a op s` with a broadcast right-hand operand.
///
/// Each element still pays the scalar loop's second register read of `s`,
/// so operation counts and energy match `for i { a.get(i) op s }` exactly.
pub fn scalar<T: ApproxArith>(op: BatchOp, a: &ApproxBuf<T>, s: Approx<T>) -> ApproxBuf<T> {
    let s = s.raw().to_bits64();
    combine(op, a, |regs| regs.resize(2 * a.len(), s))
}

/// The body of [`zip`] and [`scalar`]. The result buffer first holds both
/// operands' register contents, `a` then `b` (`push_b` appends `b`), so
/// the register reads run as one stream over all of `a`, then all of `b`,
/// with no second buffer. Conditioning is pure, so it runs over both at
/// once; the results then overwrite `a`'s half and `b`'s half is dropped
/// before the result phase.
fn combine<T: ApproxArith>(
    op: BatchOp,
    a: &ApproxBuf<T>,
    push_b: impl FnOnce(&mut Vec<u64>),
) -> ApproxBuf<T> {
    let n = a.len();
    let mut out = ApproxBuf::empty();
    let regs = &mut out.bits;
    regs.extend_from_slice(&a.bits);
    push_b(regs);
    with_hw(|mut hw| {
        if let Some(hw) = hw.as_deref_mut() {
            hw.sram_read_slice(regs, T::WIDTH, true);
            if T::OP_KIND == OpKind::Fp {
                hw.approx_fp_operand_slice(regs, T::WIDTH);
            }
        }
        let (xs, ys) = regs.split_at_mut(n);
        op.apply::<T>(xs, ys);
        regs.truncate(n);
        if let Some(hw) = hw {
            match T::OP_KIND {
                OpKind::Int => hw.approx_int_result_slice(regs, T::WIDTH),
                OpKind::Fp => hw.approx_fp_result_slice(regs, T::WIDTH),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::{endorse, Approx, ApproxVec};
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact_rt() -> Runtime {
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        Runtime::with_config(cfg, 0)
    }

    #[test]
    fn zip_matches_scalar_loop_exactly_when_masked() {
        let run_batched = exact_rt();
        let batched = run_batched.run(|| {
            let mut v = ApproxVec::from_slice(&[1.5f64, -2.0, 3.25, 0.0, 7.5]);
            let mut w = ApproxVec::from_slice(&[0.5f64, 4.0, -1.25, 9.0, 0.5]);
            let a = ApproxBuf::load(&mut v, 0, 5);
            let b = ApproxBuf::load(&mut w, 0, 5);
            let sum = zip(BatchOp::Add, &a, &b);
            sum.store(&mut v, 0);
            v.endorse_to_vec()
        });
        let run_scalar = exact_rt();
        let scalar_out = run_scalar.run(|| {
            let mut v = ApproxVec::from_slice(&[1.5f64, -2.0, 3.25, 0.0, 7.5]);
            let mut w = ApproxVec::from_slice(&[0.5f64, 4.0, -1.25, 9.0, 0.5]);
            for i in 0..5 {
                let s = v.get(i) + w.get(i);
                v.set(i, s);
            }
            v.endorse_to_vec()
        });
        assert_eq!(batched, scalar_out);
        assert_eq!(run_batched.stats(), run_scalar.stats());
        assert_eq!(run_batched.energy_quanta(), run_scalar.energy_quanta());
    }

    #[test]
    fn every_op_computes_its_arithmetic() {
        let rt = exact_rt();
        rt.run(|| {
            let a = ApproxBuf::from_fn(4, |i| Approx::from_raw(12.0f64 + i as f64));
            let b = ApproxBuf::from_fn(4, |_| Approx::from_raw(4.0f64));
            assert_eq!(zip(BatchOp::Add, &a, &b).endorse_to_vec()[0], 16.0);
            assert_eq!(zip(BatchOp::Sub, &a, &b).endorse_to_vec()[1], 9.0);
            assert_eq!(zip(BatchOp::Mul, &a, &b).endorse_to_vec()[2], 56.0);
            assert_eq!(zip(BatchOp::Div, &a, &b).endorse_to_vec()[3], 3.75);
        });
    }

    #[test]
    fn integer_zip_wraps_and_never_traps() {
        let rt = exact_rt();
        rt.run(|| {
            let a = ApproxBuf::from_fn(3, |_| Approx::from_raw(i32::MAX));
            let b = ApproxBuf::from_fn(3, |i| Approx::from_raw(i as i32));
            let sum = zip(BatchOp::Add, &a, &b);
            assert_eq!(sum.get(1).endorse(), i32::MIN);
            let div = zip(BatchOp::Div, &a, &b);
            assert_eq!(div.get(0).endorse(), 0, "x / 0 must be 0");
        });
    }

    #[test]
    fn scalar_broadcast_counts_like_the_scalar_loop() {
        let run_batched = exact_rt();
        let batched = run_batched.run(|| {
            let a = ApproxBuf::from_fn(10, |i| Approx::from_raw(i as f64));
            scalar(BatchOp::Mul, &a, Approx::from_raw(2.5)).endorse_to_vec()
        });
        let run_scalar = exact_rt();
        let scalar_out = run_scalar.run(|| {
            let s = Approx::from_raw(2.5f64);
            (0..10).map(|i| endorse(Approx::from_raw(i as f64) * s)).collect::<Vec<_>>()
        });
        assert_eq!(batched, scalar_out);
        assert_eq!(run_batched.stats(), run_scalar.stats());
    }

    #[test]
    fn without_runtime_zip_is_precise() {
        let a = ApproxBuf::from_fn(6, |i| Approx::from_raw(i as f32));
        let b = ApproxBuf::from_fn(6, |i| Approx::from_raw(1.0f32 + i as f32));
        let out = zip(BatchOp::Add, &a, &b);
        for i in 0..6 {
            assert_eq!(out.get(i).endorse(), 2.0 * i as f32 + 1.0);
        }
    }

    #[test]
    fn f32_conditioning_truncates_mantissas_like_scalar() {
        let cfg = HwConfig::for_level(Level::Aggressive)
            .with_mask(StrategyMask::NONE.with_fp_width(true));
        let rt = Runtime::with_config(cfg, 0);
        rt.run(|| {
            let a = ApproxBuf::from_fn(4, |_| Approx::from_raw(1.001f64));
            let b = ApproxBuf::from_fn(4, |_| Approx::from_raw(1.0f64));
            let out = zip(BatchOp::Mul, &a, &b);
            // With 8 mantissa bits the .001 is lost, as in the scalar test.
            assert_eq!(out.get(0).endorse(), 1.0);
        });
    }

    #[test]
    fn aggressive_zip_faults_at_the_scalar_rate() {
        // 5-sigma band on the timing-error count through the batched
        // result phase (p = 1e-2 per op at Aggressive on the fp unit).
        let cfg = HwConfig::for_level(Level::Aggressive)
            .with_mask(StrategyMask::NONE.with_fu_timing(true));
        let rt = Runtime::with_config(cfg, 99);
        let n = 40_000usize;
        rt.run(|| {
            let a = ApproxBuf::from_fn(n, |i| Approx::from_raw(i as f64));
            let b = ApproxBuf::from_fn(n, |_| Approx::from_raw(1.0f64));
            let _ = zip(BatchOp::Add, &a, &b);
        });
        let faults =
            rt.fault_counters().count(enerj_hw::trace::FaultKind::FpTiming).injections as f64;
        let p = 1e-2;
        let expected = n as f64 * p;
        let sigma = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (faults - expected).abs() < 5.0 * sigma,
            "batched faults {faults} vs {expected} +/- {}",
            5.0 * sigma
        );
        assert_eq!(rt.stats().fp_approx_ops, n as u64);
    }
}
