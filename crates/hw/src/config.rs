//! Approximation strategy configuration (paper Table 2).
//!
//! The paper evaluates three levels of approximation aggressiveness — *Mild*,
//! *Medium* and *Aggressive* — each a bundle of per-strategy error
//! probabilities and energy-saving factors. All *Medium* values are taken from
//! the literature the paper cites; values marked with `*` in Table 2 are the
//! authors' educated guesses, reproduced here verbatim.

use std::fmt;

/// Aggressiveness level of approximation (Table 2 columns).
///
/// # Examples
///
/// ```
/// use enerj_hw::config::Level;
///
/// let params = Level::Medium.params();
/// assert_eq!(params.float_mantissa_bits, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Lowest error probabilities; smallest energy savings.
    Mild,
    /// The literature-backed middle configuration.
    Medium,
    /// Highest error probabilities; largest energy savings.
    Aggressive,
}

impl Level {
    /// All levels, in increasing aggressiveness — the order of the numbered
    /// bars ("1", "2", "3") in Figures 4 and 5.
    pub const ALL: [Level; 3] = [Level::Mild, Level::Medium, Level::Aggressive];

    /// The parameter bundle for this level (one column of Table 2).
    pub fn params(self) -> ApproxParams {
        match self {
            Level::Mild => ApproxParams::MILD,
            Level::Medium => ApproxParams::MEDIUM,
            Level::Aggressive => ApproxParams::AGGRESSIVE,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Level::Mild => "Mild",
            Level::Medium => "Medium",
            Level::Aggressive => "Aggressive",
        };
        f.write_str(name)
    }
}

/// Error model for approximate functional units (section 4.2).
///
/// The paper considers three possibilities for the output of a functional
/// unit that suffers a timing error and finds the random-value model both the
/// most detrimental to output quality and the most realistic; it is the
/// default used for Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ErrorMode {
    /// A single uniformly-chosen bit of the result is flipped.
    SingleBitFlip,
    /// The unit returns the last value it computed.
    LastValue,
    /// The unit returns a uniformly random bit pattern (default).
    #[default]
    RandomValue,
}

impl ErrorMode {
    /// All error modes, in the order discussed in section 6.2.
    pub const ALL: [ErrorMode; 3] =
        [ErrorMode::SingleBitFlip, ErrorMode::LastValue, ErrorMode::RandomValue];
}

impl fmt::Display for ErrorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorMode::SingleBitFlip => "single-bit-flip",
            ErrorMode::LastValue => "last-value",
            ErrorMode::RandomValue => "random-value",
        };
        f.write_str(name)
    }
}

/// One column of Table 2: per-strategy error probabilities and energy savings.
///
/// Probabilities are per-bit unless noted. Savings are fractions in `[0, 1]`
/// of the energy attributable to the corresponding component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxParams {
    /// DRAM refresh reduction: per-second, per-bit flip probability.
    pub dram_flip_per_second: f64,
    /// Fraction of memory (DRAM) power saved by the reduced refresh rate.
    pub dram_power_saved: f64,
    /// SRAM: probability that a bit is flipped while being read.
    pub sram_read_upset_prob: f64,
    /// SRAM: probability that a written bit is stored incorrectly.
    pub sram_write_failure_prob: f64,
    /// Fraction of SRAM supply power saved by the lowered supply voltage.
    pub sram_power_saved: f64,
    /// Mantissa bits retained for approximate `f32` operations (of 23).
    pub float_mantissa_bits: u32,
    /// Mantissa bits retained for approximate `f64` operations (of 52).
    pub double_mantissa_bits: u32,
    /// Fraction of floating-point operation energy saved by width reduction.
    pub fp_energy_saved: f64,
    /// Probability that an approximate ALU operation suffers a timing error.
    pub timing_error_prob: f64,
    /// Fraction of integer operation energy saved by voltage scaling.
    pub alu_energy_saved: f64,
}

// The SRAM probabilities below are full decimal expansions of the paper's
// powers of ten (10^-16.7 etc.); the trailing digits document provenance.
#[allow(clippy::excessive_precision)]
impl ApproxParams {
    /// Table 2, "Mild" column.
    pub const MILD: ApproxParams = ApproxParams {
        dram_flip_per_second: 1e-9,
        dram_power_saved: 0.17,
        sram_read_upset_prob: 1.9952623149688828e-17, // 10^-16.7
        sram_write_failure_prob: 2.570395782768864e-6, // 10^-5.59
        sram_power_saved: 0.70,
        float_mantissa_bits: 16,
        double_mantissa_bits: 32,
        fp_energy_saved: 0.32,
        timing_error_prob: 1e-6,
        alu_energy_saved: 0.12,
    };

    /// Table 2, "Medium" column. Every value here is taken from the
    /// literature cited in section 4.2.
    pub const MEDIUM: ApproxParams = ApproxParams {
        dram_flip_per_second: 1e-5,
        dram_power_saved: 0.22,
        sram_read_upset_prob: 3.981071705534969e-8, // 10^-7.4
        sram_write_failure_prob: 1.1481536214968811e-5, // 10^-4.94
        sram_power_saved: 0.80,
        float_mantissa_bits: 8,
        double_mantissa_bits: 16,
        fp_energy_saved: 0.78,
        timing_error_prob: 1e-4,
        alu_energy_saved: 0.22,
    };

    /// Table 2, "Aggressive" column.
    pub const AGGRESSIVE: ApproxParams = ApproxParams {
        dram_flip_per_second: 1e-3,
        dram_power_saved: 0.24,
        sram_read_upset_prob: 1e-3,
        sram_write_failure_prob: 1e-3,
        sram_power_saved: 0.90,
        float_mantissa_bits: 4,
        double_mantissa_bits: 8,
        fp_energy_saved: 0.85,
        timing_error_prob: 1e-2,
        alu_energy_saved: 0.30,
    };

    /// Truly precise hardware: zero error probabilities *and* zero claimed
    /// savings, full mantissas. Unlike [`StrategyMask::NONE`] over a Table 2
    /// level — which silences faults but still *accounts* the level's energy
    /// savings — a run under these parameters is charged exactly the precise
    /// baseline (`scaled == baseline` for every component). This is the cost
    /// model of the scheduler's `Precise` rung.
    pub const PRECISE: ApproxParams = ApproxParams {
        dram_flip_per_second: 0.0,
        dram_power_saved: 0.0,
        sram_read_upset_prob: 0.0,
        sram_write_failure_prob: 0.0,
        sram_power_saved: 0.0,
        float_mantissa_bits: 23,
        double_mantissa_bits: 52,
        fp_energy_saved: 0.0,
        timing_error_prob: 0.0,
        alu_energy_saved: 0.0,
    };
}

/// Which approximation strategies are enabled.
///
/// The section 6.2 ablation study runs the benchmark suite "with each
/// optimization enabled in isolation"; this mask is how the harness expresses
/// those configurations. `StrategyMask::ALL` is the full-suite default.
///
/// # Examples
///
/// ```
/// use enerj_hw::config::StrategyMask;
///
/// let only_fp_width = StrategyMask::NONE.with_fp_width(true);
/// assert!(only_fp_width.fp_width && !only_fp_width.dram);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategyMask {
    /// DRAM refresh-rate reduction (decay of approximate heap data).
    pub dram: bool,
    /// SRAM read upsets on approximate stack/register data.
    pub sram_read: bool,
    /// SRAM write failures on approximate stack/register data.
    pub sram_write: bool,
    /// Timing errors in approximate functional units (voltage scaling).
    pub fu_timing: bool,
    /// Floating-point mantissa width reduction.
    pub fp_width: bool,
}

impl StrategyMask {
    /// Every strategy enabled (the configuration of Figures 4 and 5).
    const ALL: StrategyMask = StrategyMask {
        dram: true,
        sram_read: true,
        sram_write: true,
        fu_timing: true,
        fp_width: true,
    };

    /// No strategy enabled: approximate code runs precisely (but is still
    /// *accounted* as approximate for energy purposes — this models hardware
    /// that claims the savings but happens not to err).
    pub const NONE: StrategyMask = StrategyMask {
        dram: false,
        sram_read: false,
        sram_write: false,
        fu_timing: false,
        fp_width: false,
    };

    /// Returns a copy with the DRAM strategy set to `on`.
    fn with_dram(mut self, on: bool) -> Self {
        self.dram = on;
        self
    }

    /// Returns a copy with the SRAM read-upset strategy set to `on`.
    fn with_sram_read(mut self, on: bool) -> Self {
        self.sram_read = on;
        self
    }

    /// Returns a copy with the SRAM write-failure strategy set to `on`.
    pub(crate) fn with_sram_write(mut self, on: bool) -> Self {
        self.sram_write = on;
        self
    }

    /// Returns a copy with the functional-unit timing strategy set to `on`.
    pub fn with_fu_timing(mut self, on: bool) -> Self {
        self.fu_timing = on;
        self
    }

    /// Returns a copy with the FP width-reduction strategy set to `on`.
    pub fn with_fp_width(mut self, on: bool) -> Self {
        self.fp_width = on;
        self
    }

    /// The five single-strategy masks, for the section 6.2 isolation study.
    pub fn singletons() -> [(&'static str, StrategyMask); 5] {
        [
            ("dram", StrategyMask::NONE.with_dram(true)),
            ("sram-read", StrategyMask::NONE.with_sram_read(true)),
            ("sram-write", StrategyMask::NONE.with_sram_write(true)),
            ("fu-timing", StrategyMask::NONE.with_fu_timing(true)),
            ("fp-width", StrategyMask::NONE.with_fp_width(true)),
        ]
    }
}

impl Default for StrategyMask {
    fn default() -> Self {
        StrategyMask::ALL
    }
}

/// Full simulator configuration: a level plus strategy mask and error mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// The Table 2 parameter bundle.
    pub params: ApproxParams,
    /// Which strategies actually inject faults.
    pub mask: StrategyMask,
    /// Output model for functional-unit timing errors.
    pub error_mode: ErrorMode,
    /// Simulated seconds that each arithmetic operation or memory access
    /// advances the clock. The paper's workloads run for wall-clock seconds
    /// on real hardware; our reduced kernels execute far fewer operations, so
    /// this scale factor keeps total simulated time — which drives DRAM decay
    /// and byte-second accounting — in the same regime.
    pub seconds_per_op: f64,
}

impl HwConfig {
    /// Default time scale: 1 µs of simulated time per operation.
    const DEFAULT_SECONDS_PER_OP: f64 = 1e-6;

    /// Configuration for a Table 2 level with all strategies enabled and the
    /// random-value error model (the paper's headline setup).
    pub fn for_level(level: Level) -> Self {
        HwConfig {
            params: level.params(),
            mask: StrategyMask::ALL,
            error_mode: ErrorMode::RandomValue,
            seconds_per_op: Self::DEFAULT_SECONDS_PER_OP,
        }
    }

    /// Truly precise configuration: [`ApproxParams::PRECISE`] with every
    /// strategy disabled. Output is bit-identical to the reference run and
    /// the energy accounting charges the full precise baseline — the
    /// "spend everything, err never" end of the scheduler's level ladder.
    pub fn precise() -> Self {
        HwConfig {
            params: ApproxParams::PRECISE,
            mask: StrategyMask::NONE,
            error_mode: ErrorMode::RandomValue,
            seconds_per_op: Self::DEFAULT_SECONDS_PER_OP,
        }
    }

    /// Returns a copy with the given strategy mask.
    pub fn with_mask(mut self, mask: StrategyMask) -> Self {
        self.mask = mask;
        self
    }

    /// Returns a copy with the given functional-unit error mode.
    pub fn with_error_mode(mut self, mode: ErrorMode) -> Self {
        self.error_mode = mode;
        self
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig::for_level(Level::Medium)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_increase_in_aggressiveness() {
        let [mild, medium, aggressive] =
            [Level::Mild.params(), Level::Medium.params(), Level::Aggressive.params()];
        assert!(mild.dram_flip_per_second < medium.dram_flip_per_second);
        assert!(medium.dram_flip_per_second < aggressive.dram_flip_per_second);
        assert!(mild.sram_read_upset_prob < medium.sram_read_upset_prob);
        assert!(medium.sram_read_upset_prob < aggressive.sram_read_upset_prob);
        assert!(mild.timing_error_prob < medium.timing_error_prob);
        assert!(medium.timing_error_prob < aggressive.timing_error_prob);
        assert!(mild.float_mantissa_bits > medium.float_mantissa_bits);
        assert!(medium.float_mantissa_bits > aggressive.float_mantissa_bits);
    }

    #[test]
    fn savings_increase_with_aggressiveness() {
        let [mild, medium, aggressive] =
            [Level::Mild.params(), Level::Medium.params(), Level::Aggressive.params()];
        assert!(mild.dram_power_saved < medium.dram_power_saved);
        assert!(medium.dram_power_saved < aggressive.dram_power_saved);
        assert!(mild.sram_power_saved < medium.sram_power_saved);
        assert!(mild.fp_energy_saved < aggressive.fp_energy_saved);
        assert!(mild.alu_energy_saved < aggressive.alu_energy_saved);
    }

    #[test]
    fn log_scale_probabilities_match_table2() {
        // Table 2 lists SRAM probabilities as powers of ten.
        let medium = ApproxParams::MEDIUM;
        assert!((medium.sram_read_upset_prob.log10() - (-7.4)).abs() < 1e-9);
        assert!((medium.sram_write_failure_prob.log10() - (-4.94)).abs() < 1e-9);
        let mild = ApproxParams::MILD;
        assert!((mild.sram_read_upset_prob.log10() - (-16.7)).abs() < 1e-9);
        assert!((mild.sram_write_failure_prob.log10() - (-5.59)).abs() < 1e-9);
    }

    #[test]
    fn strategy_mask_builders() {
        let m = StrategyMask::NONE.with_sram_read(true).with_fp_width(true);
        assert!(m.sram_read && m.fp_width);
        assert!(!m.dram && !m.sram_write && !m.fu_timing);
        assert_eq!(StrategyMask::default(), StrategyMask::ALL);
    }

    #[test]
    fn singleton_masks_enable_exactly_one() {
        for (name, m) in StrategyMask::singletons() {
            let count = [m.dram, m.sram_read, m.sram_write, m.fu_timing, m.fp_width]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(count, 1, "mask {name} should enable exactly one strategy");
        }
    }

    #[test]
    fn display_impls_are_stable() {
        assert_eq!(Level::Aggressive.to_string(), "Aggressive");
        assert_eq!(ErrorMode::LastValue.to_string(), "last-value");
    }

    #[test]
    fn precise_params_claim_no_savings_and_inject_no_faults() {
        let p = ApproxParams::PRECISE;
        assert_eq!(p.dram_flip_per_second, 0.0);
        assert_eq!(p.sram_read_upset_prob, 0.0);
        assert_eq!(p.sram_write_failure_prob, 0.0);
        assert_eq!(p.timing_error_prob, 0.0);
        assert_eq!(p.dram_power_saved, 0.0);
        assert_eq!(p.sram_power_saved, 0.0);
        assert_eq!(p.fp_energy_saved, 0.0);
        assert_eq!(p.alu_energy_saved, 0.0);
        assert_eq!(p.float_mantissa_bits, 23);
        assert_eq!(p.double_mantissa_bits, 52);
        let cfg = HwConfig::precise();
        assert_eq!(cfg.params, ApproxParams::PRECISE);
        assert_eq!(cfg.mask, StrategyMask::NONE);
    }

    #[test]
    fn default_config_is_medium_full_suite() {
        let cfg = HwConfig::default();
        assert_eq!(cfg.params, ApproxParams::MEDIUM);
        assert_eq!(cfg.mask, StrategyMask::ALL);
        assert_eq!(cfg.error_mode, ErrorMode::RandomValue);
    }
}
