//! Property-based tests over the invariants of the programming model and
//! the hardware substrate beneath it.

use enerj_core::{endorse, Approx, ApproxPrim, ApproxVec, Runtime};
use enerj_hw::config::{ApproxParams, HwConfig, Level, StrategyMask};
use enerj_hw::energy::energy_quanta;
use enerj_hw::stats::{MemKind, OpKind, Stats};
use enerj_hw::{fault, layout, EnergyQuanta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn exact_rt(seed: u64) -> Runtime {
    Runtime::with_config(HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE), seed)
}

proptest! {
    /// Bit-pattern round trips for every qualifiable primitive.
    #[test]
    fn prim_bits_roundtrip_i64(x: i64) {
        prop_assert_eq!(i64::from_bits64(x.to_bits64()), x);
    }

    #[test]
    fn prim_bits_roundtrip_i16(x: i16) {
        prop_assert_eq!(i16::from_bits64(x.to_bits64()), x);
        // The pattern is confined to the declared width.
        prop_assert_eq!(x.to_bits64() >> 16, 0);
    }

    #[test]
    fn prim_bits_roundtrip_f64(x: f64) {
        prop_assert_eq!(f64::from_bits64(x.to_bits64()).to_bits(), x.to_bits());
    }

    #[test]
    fn prim_bits_roundtrip_f32(x: f32) {
        let y = f32::from_bits64(x.to_bits64());
        prop_assert_eq!(y.to_bits(), x.to_bits());
    }

    /// Fault injection touches only the requested bit range.
    #[test]
    fn flip_bits_confined_to_width(bits: u64, width in 0u32..=64, p in 0.0f64..=1.0, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = fault::flip_bits(bits, width, p, &mut rng);
        prop_assert_eq!(out & !fault::low_mask(width), bits & !fault::low_mask(width));
    }

    #[test]
    fn flip_bits_zero_probability_is_identity(bits: u64, width in 0u32..=64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(fault::flip_bits(bits, width, 0.0, &mut rng), bits);
    }

    /// Layout conserves bytes and produces sensible fractions.
    #[test]
    fn layout_conserves_bytes(
        precise in 0usize..500,
        approx in 0usize..5000,
        line in prop::sample::select(vec![16usize, 32, 64, 128, 256]),
    ) {
        let fields = [
            layout::FieldSpec::new("p", precise, false),
            layout::FieldSpec::new("a", approx, true),
        ];
        let l = layout::layout_object(&fields, line, 0);
        prop_assert_eq!(l.total_bytes(), precise + approx);
        let f = l.approx_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// Doubling the cache-line size never increases the approximable
    /// fraction of an array (the paper's granularity remark).
    #[test]
    fn coarser_lines_never_help(
        elem in prop::sample::select(vec![1usize, 2, 4, 8]),
        len in 1usize..2000,
        line in prop::sample::select(vec![16usize, 32, 64, 128]),
    ) {
        let fine = layout::layout_array(elem, len, true, line, layout::ARRAY_HEADER_BYTES);
        let coarse = layout::layout_array(elem, len, true, line * 2, layout::ARRAY_HEADER_BYTES);
        prop_assert!(fine.approx_fraction() >= coarse.approx_fraction() - 1e-12);
    }

    /// With every strategy masked, approximate integer arithmetic equals
    /// wrapping arithmetic with total division.
    #[test]
    fn masked_approx_arithmetic_is_wrapping(ops in prop::collection::vec((0u8..5, any::<i64>()), 1..40)) {
        let rt = exact_rt(1);
        let (observed, expected) = rt.run(|| {
            let mut acc = Approx::new(1i64);
            let mut model = 1i64;
            for (op, v) in &ops {
                match op {
                    0 => { acc += *v; model = model.wrapping_add(*v); }
                    1 => { acc -= *v; model = model.wrapping_sub(*v); }
                    2 => { acc *= *v; model = model.wrapping_mul(*v); }
                    3 => {
                        acc /= *v;
                        model = if *v == 0 { 0 } else { model.wrapping_div(*v) };
                    }
                    _ => {
                        acc %= *v;
                        model = if *v == 0 { 0 } else { model.wrapping_rem(*v) };
                    }
                }
            }
            (endorse(acc), model)
        });
        prop_assert_eq!(observed, expected);
    }

    /// ApproxVec is an exact store under a masked runtime, for any data.
    #[test]
    fn masked_approx_vec_roundtrips(data in prop::collection::vec(any::<f64>(), 1..200)) {
        let rt = exact_rt(2);
        rt.run(|| {
            let mut v = ApproxVec::from_slice(&data);
            for (i, &x) in data.iter().enumerate() {
                let y = endorse(v.get(i));
                prop_assert_eq!(y.to_bits(), x.to_bits());
            }
            Ok(())
        })?;
    }

    /// Normalized energy is in (0, 1] and never *increases* with a more
    /// aggressive parameter set for the same run.
    #[test]
    fn energy_is_bounded_and_monotone(
        int_a in 0u64..100_000,
        int_p in 0u64..100_000,
        fp_a in 0u64..100_000,
        fp_p in 0u64..100_000,
        sram_a in 0u64..8_000_000_000_000,
        dram_a in 0u64..8_000_000_000_000,
        sram_p in 0u64..8_000_000_000_000,
        dram_p in 0u64..8_000_000_000_000,
    ) {
        let mut s = Stats::new();
        s.int_approx_ops = int_a;
        s.int_precise_ops = int_p;
        s.fp_approx_ops = fp_a;
        s.fp_precise_ops = fp_p;
        s.record_storage_quanta(MemKind::Sram, true, EnergyQuanta::new(sram_a.into()));
        s.record_storage_quanta(MemKind::Sram, false, EnergyQuanta::new(sram_p.into()));
        s.record_storage_quanta(MemKind::Dram, true, EnergyQuanta::new(dram_a.into()));
        s.record_storage_quanta(MemKind::Dram, false, EnergyQuanta::new(dram_p.into()));
        let mut last = 0.0f64;
        for params in [ApproxParams::MILD, ApproxParams::MEDIUM, ApproxParams::AGGRESSIVE] {
            let e = energy_quanta(&s, &params).normalized();
            prop_assert!(e.total > 0.0 && e.total <= 1.0 + 1e-12, "total {}", e.total);
            if last != 0.0 {
                prop_assert!(e.total <= last + 1e-12, "energy increased with level");
            }
            last = e.total;
        }
    }

    /// Statistics fractions are always within [0, 1].
    #[test]
    fn stats_fractions_bounded(
        ia in 0u64..1_000_000, ip in 0u64..1_000_000,
        fa in 0u64..1_000_000, fp in 0u64..1_000_000,
    ) {
        let mut s = Stats::new();
        s.int_approx_ops = ia;
        s.int_precise_ops = ip;
        s.fp_approx_ops = fa;
        s.fp_precise_ops = fp;
        for v in [
            s.approx_op_fraction(OpKind::Int),
            s.approx_op_fraction(OpKind::Fp),
            s.fp_proportion(),
        ] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }
}
