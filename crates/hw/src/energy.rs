//! The CPU/memory-system energy model (section 5.4, Figure 4).
//!
//! The paper assigns abstract energy units to instructions — 37 for integer
//! and 40 for floating-point operations, of which 22 units are instruction
//! fetch and decode and cannot be reduced by approximation. Savings apply
//! only to the execution portion: voltage scaling saves
//! [`alu_energy_saved`](crate::config::ApproxParams::alu_energy_saved) of an
//! approximate integer op's execution energy, and mantissa width reduction
//! saves [`fp_energy_saved`](crate::config::ApproxParams::fp_energy_saved)
//! of an approximate FP op's execution energy.
//!
//! SRAM storage and the instructions that access it account for 35% of
//! microarchitecture power and execution logic for the remaining 65%; the
//! full system splits 55% CPU / 45% DRAM (the paper's server-like setting).
//! Approximate SRAM saves `sram_power_saved` of its share, approximate DRAM
//! saves `dram_power_saved`.
//!
//! Accounting is exact: [`energy_quanta`] computes scaled and baseline
//! energy per component as integers ([`EnergyQuanta`]), using basis-point
//! savings that represent every Table 2 fraction exactly. The normalized
//! figures of the paper ([`EnergyBreakdown`]) are a *projection* — one f64
//! division per component at the very end — so the numbers in Figure 4 are
//! unchanged to within a final-rounding ulp, while totals and budgets can
//! be summed and compared with no order dependence at all.
//!
//! The model deliberately omits the overheads of switching between precise
//! and approximate hardware, as the paper's does; results are therefore
//! optimistic in the same way.

use crate::config::ApproxParams;
use crate::quanta::{ratio, savings_basis_points, EnergyQuanta, SAVINGS_SCALE};
use crate::stats::Stats;

/// Fraction of microarchitecture power attributed to SRAM storage.
const SRAM_CPU_FRACTION: f64 = 0.35;
/// Fraction of microarchitecture power attributed to execution logic.
const LOGIC_CPU_FRACTION: f64 = 0.65;
/// Fraction of system power attributed to DRAM (server setting).
pub const DRAM_SYSTEM_FRACTION: f64 = 0.45;

/// Mobile-setting split: DRAM is only 25% of power (section 5.4 note).
pub const DRAM_MOBILE_FRACTION: f64 = 0.25;

/// Energy units per integer instruction.
const INT_OP_UNITS_Q: u128 = 37;
/// Energy units per floating-point instruction.
const FP_OP_UNITS_Q: u128 = 40;
/// Units of each instruction consumed by fetch and decode (irreducible).
const FETCH_DECODE_UNITS_Q: u128 = 22;

/// Normalized energy of one simulated run, total and by component.
///
/// All fields are fractions of the same run executed fully precisely, so the
/// baseline is 1.0 and `total` directly gives one numbered bar of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Instruction-execution energy relative to precise execution.
    pub instructions: f64,
    /// SRAM storage energy relative to precise execution.
    pub sram: f64,
    /// DRAM storage energy relative to precise execution.
    pub dram: f64,
    /// Whole-system energy relative to precise execution (Figure 4 bar).
    pub total: f64,
}

impl EnergyBreakdown {
    /// Energy *saved* relative to the precise baseline, as a fraction.
    pub fn savings(&self) -> f64 {
        1.0 - self.total
    }
}

/// Exact integer energy of one run, per component, scaled and baseline.
///
/// Instruction fields are basis-point energy units (paper units ×
/// [`SAVINGS_SCALE`]); storage fields are basis-point bit·op-ticks (storage
/// quanta × `SAVINGS_SCALE`). `scaled ≤ baseline` holds per component by
/// construction. Totals are plain sums, so merging breakdowns from any
/// number of trials in any order yields bit-identical results, and a budget
/// expressed in quanta can be debited exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EnergyQuantaBreakdown {
    /// Scaled instruction energy (approximation savings applied).
    pub instructions: EnergyQuanta,
    /// Baseline instruction energy (as if fully precise).
    pub baseline_instructions: EnergyQuanta,
    /// Scaled SRAM storage energy.
    pub sram: EnergyQuanta,
    /// Baseline SRAM storage energy.
    pub baseline_sram: EnergyQuanta,
    /// Scaled DRAM storage energy.
    pub dram: EnergyQuanta,
    /// Baseline DRAM storage energy.
    pub baseline_dram: EnergyQuanta,
    /// Scaled whole-run energy: `instructions + sram + dram`.
    pub total: EnergyQuanta,
    /// Baseline whole-run energy.
    pub baseline_total: EnergyQuanta,
}

impl EnergyQuantaBreakdown {
    /// The all-zero breakdown (an empty run).
    pub const ZERO: EnergyQuantaBreakdown = EnergyQuantaBreakdown {
        instructions: EnergyQuanta::ZERO,
        baseline_instructions: EnergyQuanta::ZERO,
        sram: EnergyQuanta::ZERO,
        baseline_sram: EnergyQuanta::ZERO,
        dram: EnergyQuanta::ZERO,
        baseline_dram: EnergyQuanta::ZERO,
        total: EnergyQuanta::ZERO,
        baseline_total: EnergyQuanta::ZERO,
    };

    /// Field-wise exact merge; associative and commutative.
    pub fn merge(&mut self, other: &EnergyQuantaBreakdown) {
        self.instructions += other.instructions;
        self.baseline_instructions += other.baseline_instructions;
        self.sram += other.sram;
        self.baseline_sram += other.baseline_sram;
        self.dram += other.dram;
        self.baseline_dram += other.baseline_dram;
        self.total += other.total;
        self.baseline_total += other.baseline_total;
    }

    /// Projects the exact quanta to the paper's normalized figures using
    /// the server-like system split.
    pub fn normalized(&self) -> EnergyBreakdown {
        self.normalized_with_split(DRAM_SYSTEM_FRACTION)
    }

    /// Projects the exact quanta to normalized figures with an explicit
    /// DRAM share of system power.
    ///
    /// Each component is one f64 division of exact integers (1.0 for an
    /// empty pool, whose zero test is exact); the component weights are the
    /// paper's power-split fractions.
    ///
    /// # Panics
    ///
    /// Panics if `dram_fraction` is not in `[0, 1]`.
    pub fn normalized_with_split(&self, dram_fraction: f64) -> EnergyBreakdown {
        assert!((0.0..=1.0).contains(&dram_fraction), "dram_fraction {dram_fraction} out of range");
        let cpu_fraction = 1.0 - dram_fraction;
        let project = |scaled: EnergyQuanta, baseline: EnergyQuanta| {
            if baseline.is_zero() {
                1.0
            } else {
                ratio(scaled, baseline)
            }
        };
        let instructions = project(self.instructions, self.baseline_instructions);
        let sram = project(self.sram, self.baseline_sram);
        let dram = project(self.dram, self.baseline_dram);
        let cpu = LOGIC_CPU_FRACTION * instructions + SRAM_CPU_FRACTION * sram;
        let total = cpu_fraction * cpu + dram_fraction * dram;
        EnergyBreakdown { instructions, sram, dram, total }
    }
}

/// Which component of an [`EnergyQuantaBreakdown`] a live energy budget
/// meters.
///
/// The online scheduler debits a fixed per-campaign budget against one of
/// these; the snapshot is a field read — O(1), no recomputation — so a
/// controller can poll spend at every drain without touching the hot path.
/// `Sram` is the paper's Table 2 supply-voltage knob (the 70/80/90% saved
/// column): it is the component the level ladder actually moves across its
/// full range, whereas `Total` is dominated by DRAM residency, whose
/// savings cap at 24%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantaMeter {
    /// Whole-run scaled energy (`total`).
    Total,
    /// SRAM supply energy (`sram`) — the default scheduling meter.
    #[default]
    Sram,
}

impl QuantaMeter {
    /// The metered *scaled* spend of one breakdown: what a budget debits.
    pub fn spent(self, q: &EnergyQuantaBreakdown) -> EnergyQuanta {
        match self {
            QuantaMeter::Total => q.total,
            QuantaMeter::Sram => q.sram,
        }
    }

    /// Stable lowercase name, used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            QuantaMeter::Total => "total",
            QuantaMeter::Sram => "sram",
        }
    }

    /// Parses a CLI/report name ([`name`](Self::name)).
    pub fn parse(s: &str) -> Option<QuantaMeter> {
        match s {
            "total" => Some(QuantaMeter::Total),
            "sram" => Some(QuantaMeter::Sram),
            _ => None,
        }
    }
}

/// Computes the exact integer energy of a run described by `stats` on
/// hardware with parameters `params`.
///
/// Instruction energy scales the non-fetch/decode component of approximate
/// instructions by the per-strategy savings in basis points; storage energy
/// scales each pool's approximate quanta likewise. Every multiply is an
/// expanded integer multiply — no intermediate floats — so the result is a
/// deterministic function of the counters alone. The paper's normalized
/// figures are its projection, [`EnergyQuantaBreakdown::normalized`].
///
/// # Examples
///
/// ```
/// use enerj_hw::config::ApproxParams;
/// use enerj_hw::energy::energy_quanta;
/// use enerj_hw::stats::Stats;
///
/// let stats = Stats { fp_approx_ops: 100, ..Stats::new() }; // everything approximate
/// let e = energy_quanta(&stats, &ApproxParams::MEDIUM).normalized();
/// assert!(e.total < 1.0, "approximate execution must save energy");
/// ```
pub fn energy_quanta(stats: &Stats, params: &ApproxParams) -> EnergyQuantaBreakdown {
    let alu_bp = savings_basis_points(params.alu_energy_saved);
    let fp_bp = savings_basis_points(params.fp_energy_saved);
    let sram_bp = savings_basis_points(params.sram_power_saved);
    let dram_bp = savings_basis_points(params.dram_power_saved);

    let int_exec = INT_OP_UNITS_Q - FETCH_DECODE_UNITS_Q;
    let fp_exec = FP_OP_UNITS_Q - FETCH_DECODE_UNITS_Q;

    let baseline_instructions = EnergyQuanta::new(
        u128::from(stats.total_ops(crate::stats::OpKind::Int)) * INT_OP_UNITS_Q * SAVINGS_SCALE
            + u128::from(stats.total_ops(crate::stats::OpKind::Fp)) * FP_OP_UNITS_Q * SAVINGS_SCALE,
    );
    let saved_instructions = EnergyQuanta::new(
        u128::from(stats.int_approx_ops) * int_exec * alu_bp
            + u128::from(stats.fp_approx_ops) * fp_exec * fp_bp,
    );
    let instructions = baseline_instructions - saved_instructions;

    let (sram, baseline_sram) =
        scaled_storage_quanta(stats.sram_precise_quanta, stats.sram_approx_quanta, sram_bp);
    let (dram, baseline_dram) =
        scaled_storage_quanta(stats.dram_precise_quanta, stats.dram_approx_quanta, dram_bp);

    EnergyQuantaBreakdown {
        instructions,
        baseline_instructions,
        sram,
        baseline_sram,
        dram,
        baseline_dram,
        total: instructions + sram + dram,
        baseline_total: baseline_instructions + baseline_sram + baseline_dram,
    }
}

/// Exact (scaled, baseline) energy of a storage pool where the approximate
/// share saves `saved_bp` basis points of its power.
fn scaled_storage_quanta(
    precise: EnergyQuanta,
    approx: EnergyQuanta,
    saved_bp: u128,
) -> (EnergyQuanta, EnergyQuanta) {
    let baseline = EnergyQuanta::new((precise.get() + approx.get()) * SAVINGS_SCALE);
    let scaled = EnergyQuanta::new(
        precise.get() * SAVINGS_SCALE + approx.get() * (SAVINGS_SCALE - saved_bp),
    );
    (scaled, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApproxParams, Level};
    use crate::stats::{MemKind, OpKind, Stats};

    fn fully_approx_stats() -> Stats {
        let mut s = Stats::new();
        for _ in 0..1000 {
            s.record_op(OpKind::Fp, true);
            s.record_op(OpKind::Int, true);
        }
        s.record_storage_quanta(MemKind::Sram, true, EnergyQuanta::new(8_000_000_000));
        s.record_storage_quanta(MemKind::Dram, true, EnergyQuanta::new(8_000_000_000));
        s
    }

    fn fully_precise_stats() -> Stats {
        let mut s = Stats::new();
        for _ in 0..1000 {
            s.record_op(OpKind::Fp, false);
            s.record_op(OpKind::Int, false);
        }
        s.record_storage_quanta(MemKind::Sram, false, EnergyQuanta::new(8_000_000_000));
        s.record_storage_quanta(MemKind::Dram, false, EnergyQuanta::new(8_000_000_000));
        s
    }

    #[test]
    fn precise_run_has_unit_energy() {
        let e = energy_quanta(&fully_precise_stats(), &ApproxParams::AGGRESSIVE).normalized();
        assert!((e.total - 1.0).abs() < 1e-12);
        assert_eq!(e.savings(), 0.0);
    }

    #[test]
    fn precise_run_quanta_equal_baseline_exactly() {
        let q = energy_quanta(&fully_precise_stats(), &ApproxParams::AGGRESSIVE);
        assert_eq!(q.instructions, q.baseline_instructions);
        assert_eq!(q.sram, q.baseline_sram);
        assert_eq!(q.dram, q.baseline_dram);
        assert_eq!(q.total, q.baseline_total);
    }

    #[test]
    fn empty_run_has_unit_energy() {
        let e = energy_quanta(&Stats::new(), &ApproxParams::MEDIUM).normalized();
        assert!((e.total - 1.0).abs() < 1e-12);
        assert_eq!(
            energy_quanta(&Stats::new(), &ApproxParams::MEDIUM),
            EnergyQuantaBreakdown::ZERO
        );
    }

    #[test]
    fn savings_grow_with_aggressiveness() {
        let s = fully_approx_stats();
        let mild = energy_quanta(&s, &Level::Mild.params()).normalized().total;
        let medium = energy_quanta(&s, &Level::Medium.params()).normalized().total;
        let aggressive = energy_quanta(&s, &Level::Aggressive.params()).normalized().total;
        assert!(mild > medium && medium > aggressive);
        assert!(mild < 1.0);
    }

    #[test]
    fn savings_fall_in_papers_band_for_highly_approximate_runs() {
        // The paper reports 10%-50% savings across benchmarks; a fully
        // approximate workload should land at the upper end of that band.
        let s = fully_approx_stats();
        for level in Level::ALL {
            let savings = energy_quanta(&s, &level.params()).normalized().savings();
            assert!(
                savings > 0.09 && savings < 0.55,
                "{level}: savings {savings} outside the plausible band"
            );
        }
    }

    #[test]
    fn fetch_decode_floor_limits_instruction_savings() {
        // Even with 100% execution savings, 22/37 of integer energy remains
        // — and on quanta the floor is exact: 22/37 of the baseline.
        let mut s = Stats::new();
        for _ in 0..100 {
            s.record_op(OpKind::Int, true);
        }
        let mut params = ApproxParams::AGGRESSIVE;
        params.alu_energy_saved = 1.0;
        let e = energy_quanta(&s, &params).normalized();
        assert!((e.instructions - 22.0 / 37.0).abs() < 1e-12);
        let q = energy_quanta(&s, &params);
        assert_eq!(q.instructions, EnergyQuanta::new(100 * 22 * SAVINGS_SCALE));
        assert_eq!(q.baseline_instructions, EnergyQuanta::new(100 * 37 * SAVINGS_SCALE));
    }

    #[test]
    fn fp_ops_save_more_than_int_ops() {
        // Table 2: FP width reduction saves far more than ALU voltage
        // scaling — the basis for the paper's observation that FP-heavy
        // applications offer more opportunity.
        let mut fp = Stats::new();
        let mut int = Stats::new();
        for _ in 0..100 {
            fp.record_op(OpKind::Fp, true);
            int.record_op(OpKind::Int, true);
        }
        let p = ApproxParams::MEDIUM;
        assert!(
            energy_quanta(&fp, &p).normalized().instructions
                < energy_quanta(&int, &p).normalized().instructions
        );
    }

    #[test]
    fn mobile_split_weights_cpu_more() {
        let mut s = Stats::new();
        // Only DRAM is approximate; in the mobile split that matters less.
        s.record_storage_quanta(MemKind::Dram, true, EnergyQuanta::new(800_000_000));
        for _ in 0..100 {
            s.record_op(OpKind::Int, false);
        }
        let p = ApproxParams::MEDIUM;
        let server = energy_quanta(&s, &p).normalized_with_split(DRAM_SYSTEM_FRACTION);
        let mobile = energy_quanta(&s, &p).normalized_with_split(DRAM_MOBILE_FRACTION);
        assert!(mobile.total > server.total, "DRAM-only savings shrink on mobile");
    }

    #[test]
    fn component_fractions_sum_to_one() {
        assert!((SRAM_CPU_FRACTION + LOGIC_CPU_FRACTION - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quanta_merge_matches_merged_stats() {
        // Computing energy from merged stats equals merging per-part
        // energy: both are pure integer sums, so the identity is exact.
        let a = fully_approx_stats();
        let b = fully_precise_stats();
        let p = ApproxParams::MEDIUM;
        let mut merged_stats = a;
        merged_stats.merge(&b);
        let mut merged_energy = energy_quanta(&a, &p);
        merged_energy.merge(&energy_quanta(&b, &p));
        assert_eq!(energy_quanta(&merged_stats, &p), merged_energy);
    }

    #[test]
    fn empty_storage_pool_projects_to_unit_energy() {
        // Exact zero guard: an untouched pool is baseline (1.0), not NaN.
        let mut s = Stats::new();
        s.record_op(OpKind::Int, true);
        let e = energy_quanta(&s, &ApproxParams::AGGRESSIVE).normalized();
        assert_eq!(e.sram, 1.0);
        assert_eq!(e.dram, 1.0);
        assert!(e.instructions < 1.0);
    }

    #[test]
    #[should_panic(expected = "dram_fraction")]
    fn bad_split_rejected() {
        let _ = EnergyQuantaBreakdown::ZERO.normalized_with_split(1.5);
    }

    #[test]
    fn quanta_meter_reads_the_matching_component() {
        let q = energy_quanta(&fully_approx_stats(), &ApproxParams::MEDIUM);
        assert_eq!(QuantaMeter::Total.spent(&q), q.total);
        assert_eq!(QuantaMeter::Sram.spent(&q), q.sram);
        assert!(q.total <= q.baseline_total && q.sram <= q.baseline_sram);
        for meter in [QuantaMeter::Total, QuantaMeter::Sram] {
            assert_eq!(QuantaMeter::parse(meter.name()), Some(meter));
        }
        assert_eq!(QuantaMeter::parse("dram"), None);
        assert_eq!(QuantaMeter::default(), QuantaMeter::Sram);
    }

    #[test]
    fn precise_params_charge_exactly_the_baseline() {
        // The scheduler's Precise rung: zero-savings params mean an
        // *approximate-annotated* workload is still charged the full
        // precise baseline, exactly, on every component.
        let q = energy_quanta(&fully_approx_stats(), &ApproxParams::PRECISE);
        assert_eq!(q.instructions, q.baseline_instructions);
        assert_eq!(q.sram, q.baseline_sram);
        assert_eq!(q.dram, q.baseline_dram);
        assert_eq!(q.total, q.baseline_total);
        assert!(!q.total.is_zero());
    }
}
