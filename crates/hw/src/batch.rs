//! Whole-slice (batched) entry points on the approximate units.
//!
//! The amortized fault scheduler (see DESIGN.md, "Amortized fault
//! scheduling") made fault *scheduling* O(faults), but each operation still
//! paid a call into [`Hardware`]: a tick, an op-count increment and a
//! countdown decrement. For the SciMark inner loops that per-op overhead
//! dominates. The batched entry points in this module amortize all of it
//! over a slice:
//!
//! * one clock advance (`Hardware::tick_batch`) and one op-count addition
//!   per batch instead of per element;
//! * one countdown subtraction per batch on the fast path — the fault site,
//!   when a countdown lands inside the batch, is resolved *by index*
//!   ([`crate::fault::GeomCountdown::pass_accesses`] /
//!   [`crate::fault::GeomCountdown::next_fire`]), and the RNG is touched
//!   only at that index;
//! * mantissa-truncation masks hoisted from `HotConfig` and applied with
//!   `chunks_exact` loops the compiler can vectorize.
//!
//! Each batched stream walks the *identical* countdown state machine as the
//! scalar loop it replaces, so a pure batched stream (all SRAM reads, or all
//! result phases) is bit-for-bit identical to its scalar counterpart —
//! including RNG draws. Composed operations (load + load + compute per
//! element) regroup the per-element stream interleaving into per-stream
//! passes, which reorders RNG draws *between* streams when more than one
//! stream faults inside the same batch; the per-stream fault processes are
//! unchanged, so energy quanta and fault telemetry stay identical in
//! distribution (pinned by the 5σ equivalence tests in
//! `tests/batched.rs`).

use crate::fault;
use crate::stats::OpKind;
use crate::Hardware;

/// Chunk width for the mask loops: wide enough for the compiler to use
/// 256-bit vector lanes, small enough to stay in registers.
const LANES: usize = 8;

impl Hardware {
    /// Advances the virtual clock by `n` operation times with one addition.
    ///
    /// When an armed watchdog deadline falls inside the batch, falls back to
    /// per-tick advancing so the trip happens at exactly the same op-tick as
    /// a scalar loop would produce — watchdog trips stay a deterministic
    /// function of `(config, seed, program)` whether or not the program
    /// batches.
    #[inline]
    pub(crate) fn tick_batch(&mut self, n: u64) {
        let advanced = self.op_ticks.saturating_add(n);
        if advanced >= self.watchdog_deadline {
            for _ in 0..n {
                self.tick();
            }
        } else {
            self.op_ticks = advanced;
        }
    }

    /// Batched [`Hardware::sram_read`]: reads `width` bits per word over the
    /// whole slice, upsetting bits in place.
    ///
    /// Storage accounting is one addition (`width * len` bit-quanta); the
    /// read-upset countdown is consumed in whole-slice strides and resolved
    /// to a word index only when it lands inside the batch. The resulting
    /// word values, countdown state and RNG stream are bit-identical to
    /// calling `sram_read` once per word.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 64.
    pub fn sram_read_slice(&mut self, words: &mut [u64], width: u32, approx: bool) {
        assert!(width <= 64, "bad SRAM access width {width}");
        let n = words.len() as u64;
        self.pending_sram_bits[usize::from(approx)] += u64::from(width) * n;
        if !approx || width == 0 {
            return;
        }
        let mut idx = 0u64;
        while idx < n {
            match self.sched.sram_read.pass_accesses(n - idx, width) {
                None => return,
                Some(k) => {
                    idx += k;
                    let w = &mut words[idx as usize];
                    *w = self.sram_read_fault(*w, width);
                    idx += 1;
                }
            }
        }
    }

    /// Batched [`Hardware::sram_write`]: writes `width` bits per word over
    /// the whole slice, failing bits in place. Bit-identical to a scalar
    /// `sram_write` loop, like [`Hardware::sram_read_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 64.
    pub fn sram_write_slice(&mut self, words: &mut [u64], width: u32, approx: bool) {
        assert!(width <= 64, "bad SRAM access width {width}");
        let n = words.len() as u64;
        self.pending_sram_bits[usize::from(approx)] += u64::from(width) * n;
        if !approx || width == 0 {
            return;
        }
        let mut idx = 0u64;
        while idx < n {
            match self.sched.sram_write.pass_accesses(n - idx, width) {
                None => return,
                Some(k) => {
                    idx += k;
                    let w = &mut words[idx as usize];
                    *w = self.sram_write_fault(*w, width);
                    idx += 1;
                }
            }
        }
    }

    /// Batched [`Hardware::approx_int_result`]: the result phase of
    /// `raws.len()` approximate integer operations in sequence, in place.
    ///
    /// Counts every operation, advances the clock by the batch length, masks
    /// every result to `width` bits with a `chunks_exact` loop, and resolves
    /// timing-error sites by index. For the `LastValue` error mode the
    /// "previous result" at index `i` is `raws[i - 1]` (or the unit's last
    /// result before the batch for `i == 0`), exactly as a scalar loop would
    /// observe. Given inputs that fit in `width` bits — which the wrapping
    /// arithmetic above this layer always produces — the outputs, countdown
    /// state and RNG stream are bit-identical to a scalar loop.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    pub fn approx_int_result_slice(&mut self, raws: &mut [u64], width: u32) {
        assert!((1..=64).contains(&width), "bad integer width {width}");
        let n = raws.len();
        if n == 0 {
            return;
        }
        self.tick_batch(n as u64);
        self.stats.record_ops(OpKind::Int, true, n as u64);
        if width < 64 {
            let mask = fault::low_mask(width);
            let mut chunks = raws.chunks_exact_mut(LANES);
            for chunk in &mut chunks {
                for w in chunk {
                    *w &= mask;
                }
            }
            for w in chunks.into_remainder() {
                *w &= mask;
            }
        }
        let total = n as u64;
        let mut idx = 0u64;
        while idx < total {
            match self.sched.int_timing.next_fire(total - idx, &mut self.rng) {
                None => break,
                Some(k) => {
                    idx += k;
                    let i = idx as usize;
                    // Stage the in-batch predecessor so the shared payload
                    // helper's LastValue mode sees what a scalar loop would.
                    self.last_int = if i == 0 { self.last_int } else { raws[i - 1] };
                    raws[i] = self.int_timing_fault(raws[i], width);
                    idx += 1;
                }
            }
        }
        self.last_int = raws[n - 1];
    }

    /// Batched [`Hardware::approx_f64_result`]: the result phase of
    /// `xs.len()` approximate `f64` operations in sequence, in place.
    /// Bit-identical to a scalar loop, like
    /// [`Hardware::approx_int_result_slice`].
    pub fn approx_f64_result_slice(&mut self, xs: &mut [f64]) {
        let n = xs.len();
        if n == 0 {
            return;
        }
        self.tick_batch(n as u64);
        self.stats.record_ops(OpKind::Fp, true, n as u64);
        let total = n as u64;
        let mut idx = 0u64;
        while idx < total {
            match self.sched.fp_timing.next_fire(total - idx, &mut self.rng) {
                None => break,
                Some(k) => {
                    idx += k;
                    let i = idx as usize;
                    self.last_fp = if i == 0 { self.last_fp } else { xs[i - 1].to_bits() };
                    let out = self.fp_timing_fault(xs[i].to_bits(), 64);
                    xs[i] = f64::from_bits(out);
                    idx += 1;
                }
            }
        }
        self.last_fp = xs[n - 1].to_bits();
    }

    /// Batched [`Hardware::approx_f32_result`]: the result phase of
    /// `xs.len()` approximate `f32` operations in sequence, in place.
    /// Bit-identical to a scalar loop.
    pub fn approx_f32_result_slice(&mut self, xs: &mut [f32]) {
        let n = xs.len();
        if n == 0 {
            return;
        }
        self.tick_batch(n as u64);
        self.stats.record_ops(OpKind::Fp, true, n as u64);
        let total = n as u64;
        let mut idx = 0u64;
        while idx < total {
            match self.sched.fp_timing.next_fire(total - idx, &mut self.rng) {
                None => break,
                Some(k) => {
                    idx += k;
                    let i = idx as usize;
                    self.last_fp =
                        if i == 0 { self.last_fp } else { u64::from(xs[i - 1].to_bits()) };
                    let out = self.fp_timing_fault(u64::from(xs[i].to_bits()), 32);
                    xs[i] = f32::from_bits(out as u32);
                    idx += 1;
                }
            }
        }
        self.last_fp = u64::from(xs[n - 1].to_bits());
    }

    /// Batched [`Hardware::approx_f64_operand`]: mantissa width reduction
    /// over a slice, in place.
    ///
    /// The truncation mask is hoisted from `HotConfig` once; when the
    /// fp-width strategy is masked off (mask all ones) the slice is
    /// untouched without a pass. Non-finite values pass through unchanged,
    /// as in the scalar path.
    pub fn approx_f64_operand_slice(&self, xs: &mut [f64]) {
        let mask = self.hot.f64_trunc_mask;
        if mask == u64::MAX {
            return;
        }
        // Branchless non-finite passthrough (exponent all ones keeps every
        // bit — masking a NaN payload could turn it into an infinity), so
        // the loop vectorizes instead of branching per element.
        let trunc = |x: f64| {
            let bits = x.to_bits();
            let keep = if (bits >> 52) & 0x7FF == 0x7FF { u64::MAX } else { mask };
            f64::from_bits(bits & keep)
        };
        let mut chunks = xs.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            for x in chunk {
                *x = trunc(*x);
            }
        }
        for x in chunks.into_remainder() {
            *x = trunc(*x);
        }
    }

    /// Batched [`Hardware::approx_f32_operand`]: mantissa width reduction
    /// over a slice, in place. See [`Hardware::approx_f64_operand_slice`].
    pub fn approx_f32_operand_slice(&self, xs: &mut [f32]) {
        let mask = self.hot.f32_trunc_mask;
        if mask == u32::MAX {
            return;
        }
        let trunc = |x: f32| {
            let bits = x.to_bits();
            let keep = if (bits >> 23) & 0xFF == 0xFF { u32::MAX } else { mask };
            f32::from_bits(bits & keep)
        };
        let mut chunks = xs.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            for x in chunk {
                *x = trunc(*x);
            }
        }
        for x in chunks.into_remainder() {
            *x = trunc(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ErrorMode, HwConfig, Level};
    use crate::Hardware;

    fn cfg_with_timing(p: f64, mode: ErrorMode) -> HwConfig {
        let mut cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(mode);
        cfg.params.timing_error_prob = p;
        cfg
    }

    #[test]
    fn empty_slices_are_no_ops() {
        let mut hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 1);
        hw.sram_read_slice(&mut [], 64, true);
        hw.approx_int_result_slice(&mut [], 64);
        hw.approx_f64_result_slice(&mut []);
        hw.approx_f32_result_slice(&mut []);
        assert_eq!(hw.op_ticks(), 0);
        assert_eq!(hw.stats().int_approx_ops, 0);
    }

    #[test]
    fn batched_ops_tick_and_count_like_scalar() {
        let cfg = cfg_with_timing(0.0, ErrorMode::RandomValue);
        let mut hw = Hardware::new(cfg, 1);
        let mut xs = vec![1.5f64; 100];
        hw.approx_f64_result_slice(&mut xs);
        let mut raws = vec![7u64; 50];
        hw.approx_int_result_slice(&mut raws, 32);
        assert_eq!(hw.op_ticks(), 150);
        assert_eq!(hw.stats().fp_approx_ops, 100);
        assert_eq!(hw.stats().int_approx_ops, 50);
    }

    #[test]
    fn int_slice_masks_to_width() {
        let cfg = cfg_with_timing(0.0, ErrorMode::RandomValue);
        let mut hw = Hardware::new(cfg, 1);
        let mut raws: Vec<u64> = (0..20).map(|i| 0xFFFF_0000_0000_0000 | i).collect();
        hw.approx_int_result_slice(&mut raws, 16);
        for (i, w) in raws.iter().enumerate() {
            assert_eq!(*w, i as u64, "high bits must be masked off");
        }
    }

    #[test]
    fn operand_slice_is_identity_when_masked_off() {
        use crate::config::StrategyMask;
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        let hw = Hardware::new(cfg, 0);
        let orig: Vec<f64> = (0..17).map(|i| 0.1 + f64::from(i)).collect();
        let mut xs = orig.clone();
        hw.approx_f64_operand_slice(&mut xs);
        assert_eq!(xs, orig);
    }

    #[test]
    fn operand_slice_matches_scalar_truncation() {
        let hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 0);
        let orig: Vec<f64> =
            (0..37).map(|i| 0.123 + f64::from(i) * 1.7).chain([f64::NAN, f64::INFINITY]).collect();
        let mut xs = orig.clone();
        hw.approx_f64_operand_slice(&mut xs);
        for (x, o) in xs.iter().zip(&orig) {
            assert_eq!(x.to_bits(), hw.approx_f64_operand(*o).to_bits());
        }
        let orig32: Vec<f32> = (0..37).map(|i| 0.123 + (i as f32) * 1.7).collect();
        let mut xs32 = orig32.clone();
        hw.approx_f32_operand_slice(&mut xs32);
        for (x, o) in xs32.iter().zip(&orig32) {
            assert_eq!(x.to_bits(), hw.approx_f32_operand(*o).to_bits());
        }
    }

    /// The watchdog must trip at the same op-tick whether the clock is
    /// advanced per-op or per-batch.
    #[test]
    fn tick_batch_preserves_exact_watchdog_trips() {
        crate::clock::silence_watchdog_panics();
        let trip_tick = |batch: usize| -> u64 {
            let cfg = cfg_with_timing(0.0, ErrorMode::RandomValue);
            let mut hw = Hardware::new(cfg, 3);
            hw.arm_watchdog(1000);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                let mut xs = vec![1.0f64; batch];
                hw.approx_f64_result_slice(&mut xs);
            }))
            .expect_err("armed watchdog must trip");
            err.downcast_ref::<crate::WatchdogTrip>().expect("WatchdogTrip payload").op_ticks
        };
        let scalar = trip_tick(1);
        assert_eq!(trip_tick(7), scalar);
        assert_eq!(trip_tick(256), scalar);
    }
}
