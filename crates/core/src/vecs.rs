//! Approximate and precise heap arrays (sections 2.6 and 4.1).
//!
//! EnerJ programs "often use large arrays of approximate primitive elements;
//! the elements themselves are all approximated and only the length requires
//! precise guarantees." [`ApproxVec<T>`] reproduces this: elements live in
//! simulated DRAM under reduced refresh (decaying over virtual time), the
//! length is precise, and indices are plain `usize` — approximate integers
//! cannot index an array without an endorsement, because `Approx<T>` values
//! do not convert to `usize`.
//!
//! The first cache line of an array (length and type information) is
//! precise; element bytes that share it neither decay nor save energy,
//! exactly as in the paper's layout scheme.
//!
//! [`PreciseVec<T>`] is the instrumented precise counterpart, used by ported
//! applications for heap data that must stay reliable so that DRAM
//! byte-seconds are accounted on both sides of Figure 3.

use std::marker::PhantomData;

use crate::approx::{sram_load, sram_store, Approx};
use crate::precise::Precise;
use crate::prim::ApproxPrim;
use crate::runtime::{installed_home, Home};
use enerj_hw::DramArray;

/// A heap array of approximate elements with a precise length.
///
/// # Examples
///
/// ```
/// use enerj_core::{endorse, Approx, ApproxVec, Runtime};
/// use enerj_hw::config::Level;
///
/// let rt = Runtime::new(Level::Mild, 0);
/// rt.run(|| {
///     let mut v = ApproxVec::<f32>::new(64);
///     v.set(3, Approx::new(2.5));
///     let x = endorse(v.get(3));
///     assert!((x - 2.5).abs() < 0.01);
/// });
/// ```
#[derive(Debug)]
pub struct ApproxVec<T: ApproxPrim> {
    dram: DramArray,
    home: Home,
    _elem: PhantomData<T>,
}

/// A heap array of precise elements, instrumented for storage statistics.
#[derive(Debug)]
pub struct PreciseVec<T: ApproxPrim> {
    dram: DramArray,
    home: Home,
    _elem: PhantomData<T>,
}

impl<T: ApproxPrim> ApproxVec<T> {
    /// Allocates `len` zeroed approximate elements in simulated DRAM.
    ///
    /// # Panics
    ///
    /// Panics if no [`Runtime`](crate::Runtime) is installed: heap
    /// approximation is a property of the substrate, so a substrate must be
    /// present.
    pub fn new(len: usize) -> Self {
        let home = installed_home("ApproxVec");
        let dram = home.with(|hw| DramArray::new(hw, len, T::WIDTH.max(8), true));
        ApproxVec { dram, home, _elem: PhantomData }
    }

    /// Builds an array by evaluating `f` at every index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Approx<T>) -> Self {
        let mut v = ApproxVec::new(len);
        for i in 0..len {
            let x = f(i);
            v.set(i, x);
        }
        v
    }

    /// Copies a precise slice into a fresh approximate array (subtyping:
    /// precise data flows into approximate storage freely).
    ///
    /// The copy is one dispatch to the machine. Each element takes the
    /// path of `v.set(i, Approx::new(x))`: a register-file write, then the
    /// DRAM write.
    pub fn from_slice(data: &[T]) -> Self {
        let mut v = ApproxVec::new(data.len());
        let dram = &mut v.dram;
        v.home.with(|hw| {
            for (i, &x) in data.iter().enumerate() {
                let stored = sram_store(hw, x);
                dram.write(hw, i, stored.to_bits64());
            }
        });
        v
    }

    /// Number of elements. Lengths are always precise (section 2.6).
    pub fn len(&self) -> usize {
        self.dram.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.dram.is_empty()
    }

    /// Reads element `i`. The index must be precise (`usize`), and bounds
    /// are always enforced; the element value may have decayed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&mut self, i: usize) -> Approx<T> {
        let bits = self.home.with(|hw| self.dram.read(hw, i));
        Approx::from_raw(T::from_bits64(bits))
    }

    /// Writes element `i`, refreshing its decay clock.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: Approx<T>) {
        // Not a semantic endorsement: the bits remain approximate, merely
        // relocated into DRAM without a register-file round trip.
        let bits = value.raw().to_bits64();
        self.home.with(|hw| self.dram.write(hw, i, bits));
    }

    /// Endorses the whole array into a precise `Vec` (a bulk section 2.2
    /// endorsement, as used at output boundaries).
    ///
    /// Each element is read from DRAM and then endorsed, as in an
    /// `endorse(v.get(i))` loop. When the array's machine is the installed
    /// one, the whole loop is one dispatch. Otherwise (a runtime nested
    /// over the array's own) each element keeps the loop's split: the DRAM
    /// read is charged to the array's machine, the endorsement's register
    /// read to the installed one.
    pub fn endorse_to_vec(&mut self) -> Vec<T> {
        let dram = &mut self.dram;
        let installed = self.home.with_installed(|hw| {
            (0..dram.len())
                .map(|i| {
                    let x = T::from_bits64(dram.read(hw, i));
                    sram_load(hw, x)
                })
                .collect()
        });
        match installed {
            Ok(out) => out,
            Err(_) => (0..self.len()).map(|i| crate::approx::endorse(self.get(i))).collect(),
        }
    }

    /// Bulk DRAM read for the batched path: fills `out` with the raw bit
    /// patterns of `out.len()` elements starting at `start`. Decay and
    /// accounting are identical to an element-by-element read loop.
    pub(crate) fn read_bits_slice(&mut self, start: usize, out: &mut [u64]) {
        self.home.with(|hw| self.dram.read_slice(hw, start, out));
    }

    /// Bulk DRAM write for the batched path, mirroring
    /// [`ApproxVec::read_bits_slice`].
    pub(crate) fn write_bits_slice(&mut self, start: usize, vals: &[u64]) {
        self.home.with(|hw| self.dram.write_slice(hw, start, vals));
    }
}

impl<T: ApproxPrim> Drop for ApproxVec<T> {
    fn drop(&mut self) {
        self.home.with(|hw| self.dram.retire(hw));
    }
}

impl<T: ApproxPrim> PreciseVec<T> {
    /// Allocates `len` zeroed precise elements in simulated DRAM.
    ///
    /// # Panics
    ///
    /// Panics if no [`Runtime`](crate::Runtime) is installed.
    pub fn new(len: usize) -> Self {
        let home = installed_home("PreciseVec");
        let dram = home.with(|hw| DramArray::new(hw, len, T::WIDTH.max(8), false));
        PreciseVec { dram, home, _elem: PhantomData }
    }

    /// Copies a slice into a fresh precise array, in one dispatch to the
    /// machine.
    pub fn from_slice(data: &[T]) -> Self {
        let mut v = PreciseVec::new(data.len());
        let dram = &mut v.dram;
        v.home.with(|hw| {
            for (i, &x) in data.iter().enumerate() {
                dram.write(hw, i, x.to_bits64());
            }
        });
        v
    }

    /// Reads element `i` reliably.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the length the array was allocated with.
    pub fn get(&mut self, i: usize) -> T {
        T::from_bits64(self.home.with(|hw| self.dram.read(hw, i)))
    }

    /// Reads element `i` as an instrumented [`Precise`] value.
    pub fn get_precise(&mut self, i: usize) -> Precise<T> {
        Precise::new(self.get(i))
    }

    /// Writes element `i` reliably.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the length the array was allocated with.
    pub fn set(&mut self, i: usize, value: T) {
        self.home.with(|hw| self.dram.write(hw, i, value.to_bits64()));
    }

    /// Copies the contents into a plain `Vec`, in one dispatch to the
    /// machine.
    pub fn to_vec(&mut self) -> Vec<T> {
        let dram = &mut self.dram;
        self.home.with(|hw| (0..dram.len()).map(|i| T::from_bits64(dram.read(hw, i))).collect())
    }
}

impl<T: ApproxPrim> Drop for PreciseVec<T> {
    fn drop(&mut self) {
        self.home.with(|hw| self.dram.retire(hw));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::{endorse, Approx};
    use enerj_hw::config::{HwConfig, Level, StrategyMask};
    use enerj_hw::stats::MemKind;

    fn exact_rt() -> Runtime {
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        Runtime::with_config(cfg, 0)
    }

    #[test]
    fn roundtrip_under_masked_runtime() {
        let rt = exact_rt();
        rt.run(|| {
            let mut v = ApproxVec::<i32>::new(100);
            for i in 0..100 {
                v.set(i, Approx::new(i as i32 * 3 - 50));
            }
            for i in 0..100 {
                assert_eq!(endorse(v.get(i)), i as i32 * 3 - 50);
            }
        });
    }

    #[test]
    fn float_elements_roundtrip_bits() {
        let rt = exact_rt();
        rt.run(|| {
            let mut v = ApproxVec::<f64>::new(8);
            v.set(2, Approx::new(-1234.5678e9));
            assert_eq!(endorse(v.get(2)), -1234.5678e9);
        });
    }

    #[test]
    fn from_slice_and_endorse_to_vec() {
        let rt = exact_rt();
        rt.run(|| {
            let data = [1.0f32, 2.5, -3.0];
            let mut v = ApproxVec::from_slice(&data);
            assert_eq!(v.endorse_to_vec(), data);
        });
    }

    #[test]
    fn dram_storage_split_is_accounted_on_drop() {
        let rt = exact_rt();
        rt.run(|| {
            let mut a = ApproxVec::<f64>::new(1000);
            let mut p = PreciseVec::<f64>::new(1000);
            // Touch them so time passes.
            for i in 0..1000 {
                a.set(i, Approx::new(i as f64));
                p.set(i, i as f64);
            }
            drop(a);
            drop(p);
        });
        let s = rt.stats();
        assert!(!s.dram_approx_quanta.is_zero());
        assert!(10 * s.dram_precise_quanta.get() > 9 * s.dram_approx_quanta.get());
        let frac = s.approx_storage_fraction(MemKind::Dram);
        assert!(frac > 0.4 && frac < 0.55, "frac = {frac}");
    }

    #[test]
    fn precise_vec_roundtrip() {
        let rt = exact_rt();
        rt.run(|| {
            let mut v = PreciseVec::<i64>::new(10);
            v.set(9, -42);
            assert_eq!(v.get(9), -42);
            assert_eq!(v.to_vec()[9], -42);
        });
    }

    #[test]
    #[should_panic(expected = "requires an installed Runtime")]
    fn approx_vec_without_runtime_panics() {
        let _ = ApproxVec::<i32>::new(4);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_is_always_a_precise_panic() {
        let rt = exact_rt();
        rt.run(|| {
            let mut v = ApproxVec::<i32>::new(4);
            let _ = v.get(4);
        });
    }

    #[test]
    fn bool_elements_use_byte_width() {
        let rt = exact_rt();
        rt.run(|| {
            let mut v = ApproxVec::<bool>::new(16);
            v.set(7, Approx::new(true));
            assert!(endorse(v.get(7)));
            assert!(!endorse(v.get(6)));
        });
    }
}
