//! Approximate SRAM: registers and data cache under lowered supply voltage
//! (section 4.2, "SRAM supply voltage").
//!
//! Per Kumar's characterization (cited in the paper), errors in
//! low-voltage SRAM are dominated by **read upsets** — the stored bit flips
//! while being read — and **write failures** — the wrong bit is written.
//! Both occur per bit, per access, with the probabilities of Table 2. Soft
//! errors in idle cells are comparatively rare and are not modeled, matching
//! the paper.
//!
//! Following section 5.3, stack data is considered SRAM-resident. The
//! embedded API routes every read and write of an approximate stack value
//! through [`Hardware::sram_read`] / [`Hardware::sram_write`]; each access
//! also contributes one access-quantum of byte-seconds to the storage
//! statistics, which is how the SRAM bars of Figure 3 are measured.

use crate::Hardware;

impl Hardware {
    /// Reads `width` bits of approximate SRAM data, possibly upsetting bits.
    ///
    /// The returned pattern is the *observed* value; per the read-upset
    /// model the stored value itself is also corrupted, so callers should
    /// treat the returned value as the new content.
    ///
    /// The steady-state cost is two integer adds: one bit-quantum of
    /// storage accounting and one decrement of the read-upset countdown
    /// (see [`crate::fault::GeomCountdown`]). The RNG is touched only when
    /// the countdown lands inside this access.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 64.
    #[inline]
    pub fn sram_read(&mut self, bits: u64, width: u32, approx: bool) -> u64 {
        assert!(width <= 64, "bad SRAM access width {width}");
        self.pending_sram_bits[usize::from(approx)] += u64::from(width);
        if !approx || self.sched.sram_read.pass(width) {
            return bits;
        }
        self.sram_read_fault(bits, width)
    }

    /// Fault payload of a read upset; out of line so the fault-free access
    /// carries none of the bit-walking machinery. Shared with the batched
    /// entry point ([`Hardware::sram_read_slice`]).
    #[cold]
    #[inline(never)]
    pub(crate) fn sram_read_fault(&mut self, bits: u64, width: u32) -> u64 {
        let out = self.sched.sram_read.flip_bits(bits, width, &mut self.rng);
        if out != bits {
            self.note_fault(
                crate::trace::FaultKind::SramReadUpset,
                width,
                (out ^ bits).count_ones(),
            );
        }
        out
    }

    /// Writes `width` bits to approximate SRAM, possibly failing some bits.
    ///
    /// Returns the pattern actually stored. Amortized like
    /// [`Hardware::sram_read`], on an independent write-failure countdown.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 64.
    #[inline]
    pub fn sram_write(&mut self, bits: u64, width: u32, approx: bool) -> u64 {
        assert!(width <= 64, "bad SRAM access width {width}");
        self.pending_sram_bits[usize::from(approx)] += u64::from(width);
        if !approx || self.sched.sram_write.pass(width) {
            return bits;
        }
        self.sram_write_fault(bits, width)
    }

    /// Fault payload of a write failure; out of line like
    /// [`Hardware::sram_read_fault`]. Shared with the batched entry point
    /// ([`Hardware::sram_write_slice`]).
    #[cold]
    #[inline(never)]
    pub(crate) fn sram_write_fault(&mut self, bits: u64, width: u32) -> u64 {
        let out = self.sched.sram_write.flip_bits(bits, width, &mut self.rng);
        if out != bits {
            self.note_fault(
                crate::trace::FaultKind::SramWriteFailure,
                width,
                (out ^ bits).count_ones(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{HwConfig, Level, StrategyMask};
    use crate::stats::MemKind;
    use crate::Hardware;

    #[test]
    fn precise_accesses_never_fault() {
        let mut hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 0);
        for i in 0..1000u64 {
            assert_eq!(hw.sram_read(i, 64, false), i);
            assert_eq!(hw.sram_write(i, 64, false), i);
        }
        assert_eq!(hw.fault_counters().total_injections(), 0);
    }

    #[test]
    fn aggressive_reads_eventually_upset() {
        // p = 1e-3 per bit, 64 bits, 10_000 reads: expect ~640 flips.
        let mut hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 5);
        let mut upsets = 0u32;
        for _ in 0..10_000 {
            upsets += hw.sram_read(0, 64, true).count_ones();
        }
        assert!(upsets > 400 && upsets < 900, "upsets = {upsets}");
    }

    #[test]
    fn mild_reads_essentially_never_upset() {
        // p = 10^-16.7: ten thousand reads should see nothing.
        let mut hw = Hardware::new(HwConfig::for_level(Level::Mild), 5);
        for _ in 0..10_000 {
            assert_eq!(hw.sram_read(u64::MAX, 64, true), u64::MAX);
        }
    }

    #[test]
    fn write_failures_more_likely_than_read_upsets_at_medium() {
        // Table 2: medium write failure 10^-4.94 vs read upset 10^-7.4.
        // Statistically verify the ordering that underlies the paper's
        // observation that write errors hurt more than read errors.
        let mut hw = Hardware::new(HwConfig::for_level(Level::Medium), 5);
        let mut write_flips = 0u32;
        let mut read_flips = 0u32;
        for _ in 0..200_000 {
            write_flips += hw.sram_write(0, 64, true).count_ones();
            read_flips += hw.sram_read(0, 64, true).count_ones();
        }
        assert!(
            write_flips > read_flips,
            "writes ({write_flips}) should fail more than reads ({read_flips})"
        );
        assert!(write_flips > 0);
    }

    #[test]
    fn storage_accounting_splits_by_precision() {
        let mut hw = Hardware::new(HwConfig::for_level(Level::Mild), 0);
        hw.sram_read(0, 64, true);
        hw.sram_read(0, 64, true);
        hw.sram_read(0, 64, false);
        let s = hw.stats();
        let frac = s.approx_storage_fraction(MemKind::Sram);
        assert!((frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mask_disables_each_direction_independently() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.sram_read_upset_prob = 1.0;
        cfg.params.sram_write_failure_prob = 1.0;
        cfg.mask = StrategyMask::NONE.with_sram_write(true);
        let mut hw = Hardware::new(cfg, 0);
        // Reads disabled: identity.
        assert_eq!(hw.sram_read(0xAB, 8, true), 0xAB);
        // Writes enabled with p=1: all 8 bits invert.
        assert_eq!(hw.sram_write(0x00, 8, true), 0xFF);
    }
}
