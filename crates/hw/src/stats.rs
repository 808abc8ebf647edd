//! Simulation statistics (the raw material of Figure 3).
//!
//! The paper's simulator "records memory-footprint and arithmetic-operation
//! statistics while simultaneously injecting transient faults" (section 5.2).
//! Storage residency is accounted in exact integer **quanta** — bit·op-ticks:
//! bits held multiplied by the op-ticks they were held (see
//! [`crate::quanta`]) — split by memory kind (SRAM for stack and register
//! data, DRAM for heap data) and by precision. Operations are dynamic counts
//! split by unit (integer vs floating point) and precision.
//!
//! Because every field is an integer, [`Stats::merge`] is associative and
//! commutative: merging per-thread or per-trial statistics in any order
//! yields bit-identical totals. The paper's byte-second figures are
//! projections (`quanta × seconds_per_op / 8`) computed only at display
//! time; the fractions that feed Figure 3 are scale-invariant ratios of
//! quanta.

use std::fmt;

use crate::quanta::{ratio, EnergyQuanta};

/// Memory kind, following the paper's stack-is-SRAM / heap-is-DRAM split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Registers and data cache (stack data).
    Sram,
    /// Main memory (heap data).
    Dram,
}

/// Functional-unit kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Integer ALU operation.
    Int,
    /// Floating-point operation.
    Fp,
}

/// Aggregated counters for one simulation run.
///
/// All fields are integers, so `Stats` is `Eq`/`Hash` and merging is exact:
/// no accumulation order can perturb a total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Stats {
    /// Approximate integer operations executed.
    pub int_approx_ops: u64,
    /// Precise integer operations executed.
    pub int_precise_ops: u64,
    /// Approximate floating-point operations executed.
    pub fp_approx_ops: u64,
    /// Precise floating-point operations executed.
    pub fp_precise_ops: u64,
    /// Storage quanta (bit·op-ticks) of approximate SRAM residency.
    pub sram_approx_quanta: EnergyQuanta,
    /// Storage quanta (bit·op-ticks) of precise SRAM residency.
    pub sram_precise_quanta: EnergyQuanta,
    /// Storage quanta (bit·op-ticks) of approximate DRAM residency.
    pub dram_approx_quanta: EnergyQuanta,
    /// Storage quanta (bit·op-ticks) of precise DRAM residency.
    pub dram_precise_quanta: EnergyQuanta,
}

impl Stats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records one executed operation.
    pub(crate) fn record_op(&mut self, kind: OpKind, approx: bool) {
        self.record_ops(kind, approx, 1);
    }

    /// Records `n` executed operations at once (the batched entry points
    /// account a whole slice with one addition).
    pub(crate) fn record_ops(&mut self, kind: OpKind, approx: bool, n: u64) {
        match (kind, approx) {
            (OpKind::Int, true) => self.int_approx_ops += n,
            (OpKind::Int, false) => self.int_precise_ops += n,
            (OpKind::Fp, true) => self.fp_approx_ops += n,
            (OpKind::Fp, false) => self.fp_precise_ops += n,
        }
    }

    /// Records exact storage residency quanta (bit·op-ticks). This is the
    /// accounting path the hardware uses: by construction its inputs are
    /// non-negative integers, so no range check is needed and no float ever
    /// enters the total.
    pub fn record_storage_quanta(&mut self, kind: MemKind, approx: bool, quanta: EnergyQuanta) {
        match (kind, approx) {
            (MemKind::Sram, true) => self.sram_approx_quanta += quanta,
            (MemKind::Sram, false) => self.sram_precise_quanta += quanta,
            (MemKind::Dram, true) => self.dram_approx_quanta += quanta,
            (MemKind::Dram, false) => self.dram_precise_quanta += quanta,
        }
    }

    /// Total dynamic operations of a kind.
    pub fn total_ops(&self, kind: OpKind) -> u64 {
        match kind {
            OpKind::Int => self.int_approx_ops + self.int_precise_ops,
            OpKind::Fp => self.fp_approx_ops + self.fp_precise_ops,
        }
    }

    /// Fraction of dynamic operations of `kind` that were approximate
    /// (a Figure 3 bar). Returns 0 when no such operations ran.
    pub fn approx_op_fraction(&self, kind: OpKind) -> f64 {
        let (a, total) = match kind {
            OpKind::Int => (self.int_approx_ops, self.total_ops(OpKind::Int)),
            OpKind::Fp => (self.fp_approx_ops, self.total_ops(OpKind::Fp)),
        };
        if total == 0 {
            0.0
        } else {
            a as f64 / total as f64
        }
    }

    /// Fraction of storage quanta in `kind` memory that held approximate
    /// data (a Figure 3 bar). Returns 0 when the memory was unused — the
    /// zero test is exact on integer quanta, unlike the float guard it
    /// replaces, which denormal sums could dodge.
    pub fn approx_storage_fraction(&self, kind: MemKind) -> f64 {
        let (a, p) = match kind {
            MemKind::Sram => (self.sram_approx_quanta, self.sram_precise_quanta),
            MemKind::Dram => (self.dram_approx_quanta, self.dram_precise_quanta),
        };
        let total = a + p;
        if total.is_zero() {
            0.0
        } else {
            ratio(a, total)
        }
    }

    /// Fraction of dynamic arithmetic that was floating point — the
    /// "Proportion FP" column of Table 3.
    pub fn fp_proportion(&self) -> f64 {
        let fp = self.total_ops(OpKind::Fp);
        let int = self.total_ops(OpKind::Int);
        if fp + int == 0 {
            0.0
        } else {
            fp as f64 / (fp + int) as f64
        }
    }

    /// Merges another counter set into this one. Pure integer addition:
    /// associative and commutative, so any merge tree over the same leaves
    /// produces bit-identical totals.
    pub fn merge(&mut self, other: &Stats) {
        self.int_approx_ops += other.int_approx_ops;
        self.int_precise_ops += other.int_precise_ops;
        self.fp_approx_ops += other.fp_approx_ops;
        self.fp_precise_ops += other.fp_precise_ops;
        self.sram_approx_quanta += other.sram_approx_quanta;
        self.sram_precise_quanta += other.sram_precise_quanta;
        self.dram_approx_quanta += other.dram_approx_quanta;
        self.dram_precise_quanta += other.dram_precise_quanta;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ops: int {}+{}a, fp {}+{}a",
            self.int_precise_ops, self.int_approx_ops, self.fp_precise_ops, self.fp_approx_ops
        )?;
        write!(
            f,
            "storage (bit-ticks): sram {}+{}a, dram {}+{}a",
            self.sram_precise_quanta,
            self.sram_approx_quanta,
            self.dram_precise_quanta,
            self.dram_approx_quanta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counting_and_fractions() {
        let mut s = Stats::new();
        for _ in 0..3 {
            s.record_op(OpKind::Int, false);
        }
        s.record_op(OpKind::Int, true);
        for _ in 0..4 {
            s.record_op(OpKind::Fp, true);
        }
        assert_eq!(s.total_ops(OpKind::Int), 4);
        assert_eq!(s.total_ops(OpKind::Fp), 4);
        assert!((s.approx_op_fraction(OpKind::Int) - 0.25).abs() < 1e-12);
        assert_eq!(s.approx_op_fraction(OpKind::Fp), 1.0);
        assert_eq!(s.fp_proportion(), 0.5);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let s = Stats::new();
        assert_eq!(s.approx_op_fraction(OpKind::Int), 0.0);
        assert_eq!(s.approx_storage_fraction(MemKind::Dram), 0.0);
        assert_eq!(s.fp_proportion(), 0.0);
    }

    #[test]
    fn empty_pool_fraction_is_exactly_zero_per_kind() {
        // The zero guard is exact on quanta: an untouched pool reports 0.0
        // even when the *other* memory kind carries residency.
        let mut s = Stats::new();
        s.record_storage_quanta(MemKind::Dram, true, EnergyQuanta::new(1));
        assert_eq!(s.approx_storage_fraction(MemKind::Sram), 0.0);
        assert_eq!(s.approx_storage_fraction(MemKind::Dram), 1.0);
        assert_eq!(s.sram_approx_quanta + s.sram_precise_quanta, EnergyQuanta::ZERO);
    }

    #[test]
    fn storage_accounting() {
        let mut s = Stats::new();
        s.record_storage_quanta(MemKind::Dram, true, EnergyQuanta::new(1_600));
        s.record_storage_quanta(MemKind::Dram, false, EnergyQuanta::new(800));
        s.record_storage_quanta(MemKind::Sram, true, EnergyQuanta::new(64));
        assert!((s.approx_storage_fraction(MemKind::Dram) - 200.0 / 300.0).abs() < 1e-12);
        assert_eq!(s.approx_storage_fraction(MemKind::Sram), 1.0);
    }

    #[test]
    fn storage_quanta_accounting_is_exact() {
        let mut s = Stats::new();
        s.record_storage_quanta(MemKind::Sram, true, EnergyQuanta::from_bits_quanta(64, 1));
        s.record_storage_quanta(MemKind::Sram, true, EnergyQuanta::from_bits_quanta(64, 1));
        s.record_storage_quanta(MemKind::Sram, false, EnergyQuanta::from_bits_quanta(64, 1));
        assert_eq!(s.sram_approx_quanta, EnergyQuanta::new(128));
        assert_eq!(s.sram_precise_quanta, EnergyQuanta::new(64));
        assert!((s.approx_storage_fraction(MemKind::Sram) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Stats::new();
        a.record_op(OpKind::Int, true);
        let mut b = Stats::new();
        b.record_op(OpKind::Int, true);
        b.record_storage_quanta(MemKind::Sram, false, EnergyQuanta::new(32));
        a.merge(&b);
        assert_eq!(a.int_approx_ops, 2);
        assert_eq!(a.sram_precise_quanta, EnergyQuanta::new(32));
    }

    #[test]
    fn merge_order_cannot_change_totals() {
        // Associativity/commutativity in miniature; the proptest suites
        // exercise this with shuffled orders at campaign scale.
        let mut parts = Vec::new();
        for i in 0..5u64 {
            let mut s = Stats::new();
            s.int_approx_ops = i;
            s.record_storage_quanta(
                MemKind::Dram,
                true,
                EnergyQuanta::from_bits_quanta(u64::MAX, i),
            );
            parts.push(s);
        }
        let mut forward = Stats::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = Stats::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Stats::new().to_string().is_empty());
    }
}
