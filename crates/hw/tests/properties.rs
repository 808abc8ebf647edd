//! In-crate property tests for the hardware substrate.

use enerj_hw::config::{ApproxParams, ErrorMode, HwConfig, Level, StrategyMask};
use enerj_hw::energy::energy_quanta;
use enerj_hw::layout::{layout_array, layout_object, FieldSpec};
use enerj_hw::stats::{MemKind, OpKind, Stats};
use enerj_hw::{fault, DramArray, EnergyQuanta, Hardware};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The geometric-skip flipper and a naive per-bit Bernoulli flipper
    /// agree in distribution; check the first moment over many trials.
    #[test]
    fn flip_bits_first_moment(seed: u64, p in 0.001f64..0.2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 4000u64;
        let mut flips = 0u64;
        for _ in 0..trials {
            flips += u64::from(fault::flip_bits(0, 64, p, &mut rng).count_ones());
        }
        let expected = trials as f64 * 64.0 * p;
        let sigma = (trials as f64 * 64.0 * p * (1.0 - p)).sqrt();
        prop_assert!(
            ((flips as f64) - expected).abs() < 6.0 * sigma,
            "flips {flips}, expected {expected}"
        );
    }

    /// flip_one_bit always changes exactly one bit inside the width.
    #[test]
    fn flip_one_bit_invariant(bits: u64, width in 1u32..=64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = fault::flip_one_bit(bits, width, &mut rng);
        let diff = bits ^ out;
        prop_assert_eq!(diff.count_ones(), 1);
        prop_assert_eq!(diff & !fault::low_mask(width), 0);
    }

    /// Decay probability is monotone in time and rate, bounded by 0.5.
    #[test]
    fn decay_probability_properties(
        rate in 0.0f64..10.0,
        t1 in 0.0f64..100.0,
        dt in 0.0f64..100.0,
    ) {
        let p1 = fault::decay_probability(rate, t1);
        let p2 = fault::decay_probability(rate, t1 + dt);
        prop_assert!((0.0..=0.5).contains(&p1));
        prop_assert!(p2 >= p1 - 1e-15);
    }

    /// Array layout: byte totals are conserved and header stays precise.
    #[test]
    fn array_layout_conservation(
        elem in prop::sample::select(vec![1usize, 2, 4, 8]),
        len in 0usize..4096,
        approx: bool,
    ) {
        let l = layout_array(elem, len, approx, 64, 16);
        prop_assert_eq!(l.total_bytes(), 16 + elem * len);
        prop_assert!(l.precise_bytes >= 16);
        if !approx {
            prop_assert_eq!(l.approx_bytes_on_approx_lines, 0);
        }
    }

    /// Object layout puts at least the header on precise lines and never
    /// fabricates approximate bytes.
    #[test]
    fn object_layout_sanity(
        precise_size in 0usize..256,
        approx_size in 0usize..2048,
        line in prop::sample::select(vec![16usize, 32, 64, 128]),
    ) {
        let fields = [
            FieldSpec::new("p", precise_size, false),
            FieldSpec::new("a", approx_size, true),
        ];
        let l = layout_object(&fields, line, 8);
        prop_assert!(l.approx_bytes_on_approx_lines <= approx_size);
        prop_assert_eq!(
            l.approx_bytes_on_precise_lines + l.approx_bytes_on_approx_lines,
            approx_size
        );
    }

    /// `DramArray::first_approx_elem` agrees with a first-principles scan of
    /// the cache-line layout: an element has approximate storage exactly
    /// when every one of its bytes lands at or beyond the first line
    /// boundary after the header (a straddling element stays precise).
    #[test]
    fn first_approx_elem_matches_layout_scan(
        width in prop::sample::select(vec![8u32, 16, 24, 32, 40, 48, 56, 64]),
        len in 0usize..600,
        approx: bool,
    ) {
        use enerj_hw::layout::{ARRAY_HEADER_BYTES, DEFAULT_LINE_SIZE};
        let mut hw = Hardware::new(HwConfig::for_level(Level::Medium), 1);
        let arr = DramArray::new(&mut hw, len, width, approx);
        let elem = (width / 8) as usize;
        let expected = if approx {
            let boundary = ARRAY_HEADER_BYTES.div_ceil(DEFAULT_LINE_SIZE) * DEFAULT_LINE_SIZE;
            (0..len)
                .find(|&i| ARRAY_HEADER_BYTES + i * elem >= boundary)
                .unwrap_or(len)
        } else {
            len
        };
        prop_assert_eq!(arr.first_approx_elem(), expected);
    }

    /// The `div_ceil` shortcut `DramArray` uses to locate the first
    /// approximate element agrees with the scan at any line size and header,
    /// not just the defaults.
    #[test]
    fn first_approx_formula_matches_scan_at_any_geometry(
        elem in 1usize..=8,
        len in 0usize..512,
        line in prop::sample::select(vec![16usize, 32, 64, 128, 256]),
        header in prop::sample::select(vec![0usize, 8, 16, 24, 64]),
    ) {
        let l = layout_array(elem, len, true, line, header);
        let formula = l.approx_bytes_on_precise_lines.div_ceil(elem);
        let boundary = header.div_ceil(line) * line;
        let scan = (0..len).find(|&i| header + i * elem >= boundary).unwrap_or(len);
        prop_assert_eq!(formula, scan);
    }

    /// Elements below `first_approx_elem` share the header's precise lines:
    /// they survive arbitrary idle time under an extreme decay rate without
    /// a single fault being injected.
    #[test]
    fn elements_before_first_approx_never_decay(
        width in prop::sample::select(vec![8u32, 16, 32, 64]),
        len in 1usize..64,
        seed: u64,
    ) {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.dram_flip_per_second = 1e9;
        let mut hw = Hardware::new(cfg, seed);
        let mut arr = DramArray::new(&mut hw, len, width, true);
        let mask = fault::low_mask(width);
        for i in 0..len.min(arr.first_approx_elem()) {
            arr.write(&mut hw, i, mask);
        }
        for _ in 0..2_000 {
            hw.precise_op(OpKind::Int);
        }
        for i in 0..len.min(arr.first_approx_elem()) {
            prop_assert_eq!(arr.read(&mut hw, i), mask, "precise-line element {} decayed", i);
        }
        prop_assert_eq!(hw.fault_counters().total_injections(), 0);
        prop_assert!(hw.fault_counters().is_empty());
    }

    /// A masked DramArray is an exact store for arbitrary data and widths.
    #[test]
    fn masked_dram_array_roundtrips(
        data in prop::collection::vec(any::<u64>(), 1..64),
        width in prop::sample::select(vec![8u32, 16, 32, 64]),
        level in prop::sample::select(vec![Level::Mild, Level::Medium, Level::Aggressive]),
    ) {
        let cfg = HwConfig::for_level(level).with_mask(StrategyMask::NONE);
        let mut hw = Hardware::new(cfg, 9);
        let mut arr = DramArray::new(&mut hw, data.len(), width, true);
        for (i, &x) in data.iter().enumerate() {
            arr.write(&mut hw, i, x);
        }
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(arr.read(&mut hw, i), x & fault::low_mask(width));
        }
        prop_assert_eq!(hw.fault_counters().total_injections(), 0);
    }

    /// The energy model is monotone in the approximate fraction of work:
    /// more approximate ops (same total) never cost more energy.
    #[test]
    fn energy_monotone_in_approx_fraction(
        total in 1u64..100_000,
        split1 in 0.0f64..=1.0,
        split2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if split1 <= split2 { (split1, split2) } else { (split2, split1) };
        let mk = |frac: f64| {
            let mut s = Stats::new();
            s.fp_approx_ops = (total as f64 * frac) as u64;
            s.fp_precise_ops = total - s.fp_approx_ops;
            s.record_storage_quanta(MemKind::Sram, true, EnergyQuanta::new(8_000_000));
            s
        };
        let e_lo = energy_quanta(&mk(lo), &ApproxParams::MEDIUM).normalized_with_split(0.45).total;
        let e_hi = energy_quanta(&mk(hi), &ApproxParams::MEDIUM).normalized_with_split(0.45).total;
        prop_assert!(e_hi <= e_lo + 1e-12, "more approx work must not cost more");
    }

    /// Comparison results under every error mode are valid booleans and
    /// exact when the fault probability is zero.
    #[test]
    fn cmp_results_sane(raw: bool, seed: u64, mode in prop::sample::select(ErrorMode::ALL.to_vec())) {
        let mut cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(mode);
        cfg.params.timing_error_prob = 0.0;
        let mut hw = Hardware::new(cfg, seed);
        prop_assert_eq!(hw.approx_cmp_result(raw, OpKind::Int), raw);
        prop_assert_eq!(hw.approx_cmp_result(raw, OpKind::Fp), raw);
    }
}
