//! Batched-vs-scalar equivalence for the whole-slice entry points.
//!
//! Each slice operation in [`enerj_hw::batch`] drives a *single* fault
//! stream, so it must be **bit-for-bit identical** to the scalar loop it
//! replaces: same observed values, same RNG draws, same tick/energy/fault
//! accounting, same subsequent behavior. These tests pin that guarantee
//! across levels, widths, and error modes, then re-pin the PR 3 5-sigma
//! statistical bands over the batched paths, and finally check that
//! telemetry never perturbs the batched fault PRNG.

use enerj_hw::config::{ErrorMode, HwConfig, Level};
use enerj_hw::dram::DramArray;
use enerj_hw::stats::OpKind;
use enerj_hw::trace::FaultKind;
use enerj_hw::Hardware;

/// A config whose fault streams are hot enough that a few thousand
/// accesses exercise every payload path, not just the fast path.
fn hot_cfg(mode: ErrorMode) -> HwConfig {
    let mut cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(mode);
    cfg.params.sram_read_upset_prob = 5e-2;
    cfg.params.sram_write_failure_prob = 5e-2;
    cfg.params.timing_error_prob = 5e-2;
    cfg.params.dram_flip_per_second = 1e2;
    cfg
}

/// Asserts that two hardware instances have fully converged: identical
/// statistics, identical fault counters, and identical *future* behavior
/// (the next few operations on every stream agree bit for bit).
fn assert_converged(a: &mut Hardware, b: &mut Hardware) {
    assert_eq!(a.op_ticks(), b.op_ticks(), "op ticks diverged");
    assert_eq!(a.stats(), b.stats(), "stats diverged");
    assert_eq!(a.fault_counters(), b.fault_counters(), "counters diverged");
    for i in 0..64u64 {
        assert_eq!(a.sram_read(i, 64, true), b.sram_read(i, 64, true));
        assert_eq!(a.sram_write(i, 64, true), b.sram_write(i, 64, true));
        assert_eq!(a.approx_int_result(i, 64), b.approx_int_result(i, 64));
        assert_eq!(
            a.approx_f64_result(i as f64).to_bits(),
            b.approx_f64_result(i as f64).to_bits()
        );
    }
}

#[test]
fn sram_slices_match_scalar_loops_bit_for_bit() {
    for mode in ErrorMode::ALL {
        for width in [1u32, 8, 17, 32, 64] {
            let mut scalar = Hardware::new(hot_cfg(mode), 0x5EED ^ u64::from(width));
            let mut batched = scalar.clone();

            let src: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let mut a = src.clone();
            for w in &mut a {
                *w = scalar.sram_read(*w, width, true);
            }
            let mut b = src.clone();
            batched.sram_read_slice(&mut b, width, true);
            assert_eq!(a, b, "read slice diverged at width {width}");

            let mut a = src.clone();
            for w in &mut a {
                *w = scalar.sram_write(*w, width, true);
            }
            let mut b = src.clone();
            batched.sram_write_slice(&mut b, width, true);
            assert_eq!(a, b, "write slice diverged at width {width}");

            // Precise slices are pure accounting: values untouched.
            let mut b = src.clone();
            batched.sram_read_slice(&mut b, width, false);
            batched.sram_write_slice(&mut b, width, false);
            assert_eq!(b, src);
            for w in &src {
                scalar.sram_read(*w, width, false);
                scalar.sram_write(*w, width, false);
            }

            assert_converged(&mut scalar, &mut batched);
        }
    }
}

#[test]
fn int_result_slice_matches_scalar_loop_in_every_error_mode() {
    for mode in ErrorMode::ALL {
        for width in [16u32, 32, 64] {
            let mut scalar = Hardware::new(hot_cfg(mode), 0xA1 ^ u64::from(width));
            let mut batched = scalar.clone();

            // The batched contract requires inputs that fit in `width` bits,
            // which the wrapping arithmetic above this layer always produces.
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let src: Vec<u64> =
                (0..4096u64).map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95) & mask).collect();
            let mut a = src.clone();
            for w in &mut a {
                *w = scalar.approx_int_result(*w, width);
            }
            let mut b = src.clone();
            batched.approx_int_result_slice(&mut b, width);
            assert_eq!(a, b, "int slice diverged: mode {mode:?} width {width}");
            assert_converged(&mut scalar, &mut batched);
        }
    }
}

#[test]
fn fp_result_slices_match_scalar_loops_in_every_error_mode() {
    for mode in ErrorMode::ALL {
        let mut scalar = Hardware::new(hot_cfg(mode), 0xF9);
        let mut batched = scalar.clone();

        let src64: Vec<f64> = (0..4096).map(|i| (i as f64).sin() * 1e3).collect();
        let a: Vec<u64> = src64.iter().map(|x| scalar.approx_f64_result(*x).to_bits()).collect();
        let mut b: Vec<u64> = src64.iter().map(|x| x.to_bits()).collect();
        batched.approx_fp_result_slice(&mut b, 64);
        assert_eq!(a, b, "f64 slice diverged: mode {mode:?}");

        // The same result phase over `f64`s held as floats.
        let a: Vec<u64> = src64.iter().map(|x| scalar.approx_f64_result(*x).to_bits()).collect();
        let mut b = src64.clone();
        batched.approx_f64_result_slice(&mut b);
        assert_eq!(a, b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), "f64 entry diverged");

        let src32: Vec<f32> = (0..4096).map(|i| (i as f32).cos() * 1e2).collect();
        let a: Vec<u64> =
            src32.iter().map(|x| u64::from(scalar.approx_f32_result(*x).to_bits())).collect();
        let mut b: Vec<u64> = src32.iter().map(|x| u64::from(x.to_bits())).collect();
        batched.approx_fp_result_slice(&mut b, 32);
        assert_eq!(a, b, "f32 slice diverged: mode {mode:?}");

        assert_converged(&mut scalar, &mut batched);
    }
}

#[test]
fn operand_slices_match_scalar_truncation_at_every_level() {
    for level in Level::ALL {
        let hw = Hardware::new(HwConfig::for_level(level), 7);
        let src64: Vec<f64> = (0..257)
            .map(|i| (i as f64).exp_m1() / 97.0)
            .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0])
            .collect();
        let mut batched: Vec<u64> = src64.iter().map(|x| x.to_bits()).collect();
        hw.approx_fp_operand_slice(&mut batched, 64);
        for (x, y) in src64.iter().zip(&batched) {
            assert_eq!(hw.approx_f64_operand(*x).to_bits(), *y);
        }
        let src32: Vec<f32> = src64.iter().map(|x| *x as f32).collect();
        let mut batched: Vec<u64> = src32.iter().map(|x| u64::from(x.to_bits())).collect();
        hw.approx_fp_operand_slice(&mut batched, 32);
        for (x, y) in src32.iter().zip(&batched) {
            assert_eq!(u64::from(hw.approx_f32_operand(*x).to_bits()), *y);
        }
    }
}

#[test]
fn dram_slices_match_scalar_loops_including_decay_times() {
    // Slice reads reconstruct per-element refresh ticks, so the decay
    // exposure seen by each element must equal the scalar loop's.
    let mut scalar = Hardware::new(hot_cfg(ErrorMode::SingleBitFlip), 0xD2);
    let mut batched = scalar.clone();
    let len = 512usize;
    let mut arr_a = DramArray::new(&mut scalar, len, 64, true);
    let mut arr_b = DramArray::new(&mut batched, len, 64, true);

    let vals: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0xABCD_EF01)).collect();
    for (i, &v) in vals.iter().enumerate() {
        arr_a.write(&mut scalar, i, v);
    }
    arr_b.write_slice(&mut batched, 0, &vals);

    // Let decay exposure accumulate identically, then read everything back.
    for _ in 0..10_000u64 {
        scalar.precise_op(OpKind::Int);
        batched.precise_op(OpKind::Int);
    }
    let mut a = vec![0u64; len];
    for (i, o) in a.iter_mut().enumerate() {
        *o = arr_a.read(&mut scalar, i);
    }
    let mut b = vec![0u64; len];
    arr_b.read_slice(&mut batched, 0, &mut b);
    assert_eq!(a, b, "dram read slice diverged");

    // Second pass: refresh times written by the slice ops must line up too.
    let mut a2 = vec![0u64; len];
    for (i, o) in a2.iter_mut().enumerate() {
        *o = arr_a.read(&mut scalar, i);
    }
    let mut b2 = vec![0u64; len];
    arr_b.read_slice(&mut batched, 0, &mut b2);
    assert_eq!(a2, b2, "dram refresh metadata diverged");

    // Mixed refresh gaps: scattered writes at different times leave every
    // neighbouring pair of elements with a different gap, and slices that
    // start at a nonzero index, inside the precise header line (elements
    // 0..6 of a 64-bit array), read across the precise/approximate edge.
    let scatter = |arr: &mut DramArray, hw: &mut Hardware, round: usize| {
        for i in (round % 5..len).step_by(7 + round) {
            arr.write(hw, i, !(i as u64) << round);
            for _ in 0..i % 11 {
                hw.precise_op(OpKind::Int);
            }
        }
    };
    for (round, (start, n)) in
        [(3usize, 200usize), (1, len - 1), (5, 60), (250, 262)].into_iter().enumerate()
    {
        scatter(&mut arr_a, &mut scalar, round);
        scatter(&mut arr_b, &mut batched, round);
        for _ in 0..3_000u64 {
            scalar.precise_op(OpKind::Int);
            batched.precise_op(OpKind::Int);
        }
        let a3: Vec<u64> = (start..start + n).map(|i| arr_a.read(&mut scalar, i)).collect();
        let mut b3 = vec![0u64; n];
        arr_b.read_slice(&mut batched, start, &mut b3);
        assert_eq!(a3, b3, "mixed-gap read slice diverged at start {start}");
    }
    assert!(
        scalar.fault_counters().count(FaultKind::DramDecay).injections > 0,
        "the decay payload never ran"
    );

    arr_a.retire(&mut scalar);
    arr_b.retire(&mut batched);
    assert_converged(&mut scalar, &mut batched);
}

#[test]
fn batched_sram_flip_rate_is_binomial_at_aggressive() {
    // 5-sigma re-pin of the PR 3 statistical band, over the slice path.
    let mut hw = Hardware::new(HwConfig::for_level(Level::Aggressive), 0xBEEF);
    let accesses = 100_000usize;
    let mut flips = 0u64;
    let mut buf = vec![0u64; 2048];
    let mut done = 0usize;
    while done < accesses {
        let n = buf.len().min(accesses - done);
        buf[..n].fill(0);
        hw.sram_read_slice(&mut buf[..n], 64, true);
        flips += buf[..n].iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        buf[..n].fill(0);
        hw.sram_write_slice(&mut buf[..n], 64, true);
        flips += buf[..n].iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        done += n;
    }
    let trials = accesses as f64 * 128.0;
    let p = 1e-3;
    let sigma = (trials * p * (1.0 - p)).sqrt();
    assert!(
        (flips as f64 - trials * p).abs() < 5.0 * sigma,
        "batched flips {flips} vs {} +/- {}",
        trials * p,
        5.0 * sigma
    );
}

#[test]
fn batched_fu_timing_rate_matches_bernoulli_at_aggressive() {
    // Timing errors fire per-op at p = 1e-2 (Aggressive). Count faulted
    // elements through the slice path and hold them to the 5-sigma band.
    let cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(ErrorMode::SingleBitFlip);
    let mut hw = Hardware::new(cfg, 0x51);
    let ops = 400_000usize;
    let mut faults = 0u64;
    let mut buf = vec![0u64; 4096];
    let mut done = 0usize;
    while done < ops {
        let n = buf.len().min(ops - done);
        buf[..n].fill(0);
        hw.approx_int_result_slice(&mut buf[..n], 64);
        faults += buf[..n].iter().filter(|w| **w != 0).count() as u64;
        done += n;
    }
    let p = 1e-2;
    let expected = ops as f64 * p;
    let sigma = (ops as f64 * p * (1.0 - p)).sqrt();
    assert!(
        (faults as f64 - expected).abs() < 5.0 * sigma,
        "batched timing faults {faults} vs {expected} +/- {}",
        5.0 * sigma
    );
    assert_eq!(hw.stats().int_approx_ops, ops as u64);
}

#[test]
fn telemetry_does_not_perturb_the_batched_fault_prng() {
    // Mirror of the scalar guarantee: enabling the event log must leave
    // every batched observed value unchanged.
    let run = |telemetry: bool| -> (Vec<u64>, Vec<u64>) {
        let mut hw = Hardware::new(hot_cfg(ErrorMode::RandomValue), 0x7E1E);
        if telemetry {
            hw.enable_event_log();
        }
        let mut sram: Vec<u64> = (0..2048u64).collect();
        hw.sram_read_slice(&mut sram, 64, true);
        hw.sram_write_slice(&mut sram, 32, true);
        let mut ints: Vec<u64> = (0..2048u64).collect();
        hw.approx_int_result_slice(&mut ints, 64);
        let mut fs: Vec<f64> = (0..2048).map(|i| i as f64 * 0.5).collect();
        hw.approx_f64_result_slice(&mut fs);
        ints.extend(fs.iter().map(|x| x.to_bits()));
        (sram, ints)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn cloned_hardware_replays_batched_streams_bit_identically() {
    let mut a = Hardware::new(hot_cfg(ErrorMode::LastValue), 0xC0FE);
    let mut warm: Vec<u64> = (0..1000u64).collect();
    a.approx_int_result_slice(&mut warm, 64);
    a.sram_read_slice(&mut warm, 32, true);
    let mut b = a.clone();

    let src: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(31)).collect();
    let mut va = src.clone();
    let mut vb = src.clone();
    a.approx_int_result_slice(&mut va, 64);
    b.approx_int_result_slice(&mut vb, 64);
    assert_eq!(va, vb);
    a.sram_write_slice(&mut va, 64, true);
    b.sram_write_slice(&mut vb, 64, true);
    assert_eq!(va, vb);
    let mut fa: Vec<f64> = src.iter().map(|&x| x as f64).collect();
    let mut fb = fa.clone();
    a.approx_f64_result_slice(&mut fa);
    b.approx_f64_result_slice(&mut fb);
    assert_eq!(
        fa.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        fb.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert_converged(&mut a, &mut b);
}
