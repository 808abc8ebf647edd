//! Cross-crate integration tests: the full pipeline from annotated
//! application code through the simulated hardware to QoS and energy.

use enerj_apps::qos::output_error;
use enerj_apps::trials::{run_level_campaign, CampaignOptions};
use enerj_apps::{all_apps, harness};
use enerj_core::{endorse, Approx, ApproxVec, Precise, Runtime};
use enerj_hw::config::{HwConfig, Level, StrategyMask};
use enerj_hw::{MemKind, OpKind};

/// The headline result: every application saves energy at every level, in
/// the paper's 10–50% band, and savings grow with aggressiveness.
#[test]
fn energy_savings_fall_in_the_papers_band() {
    for app in all_apps() {
        let mut previous = 0.0;
        for level in Level::ALL {
            let m = harness::measure_with_telemetry(&app, HwConfig::for_level(level), 1, false);
            let savings = m.energy_quanta.normalized().savings();
            assert!(
                savings > 0.05 && savings < 0.55,
                "{} at {level}: savings {savings:.3} outside the plausible band",
                app.meta.name
            );
            assert!(savings >= previous - 1e-9, "{} at {level}: savings decreased", app.meta.name);
            previous = savings;
        }
    }
}

/// QoS degrades monotonically (on average) with aggressiveness.
#[test]
fn output_error_grows_with_aggressiveness() {
    let apps = all_apps();
    let levels = [Level::Mild, Level::Aggressive];
    let report = run_level_campaign(&apps, &levels, 5, &CampaignOptions::default());
    for app in &apps {
        let mild = report.mean_error_for(app.meta.name, "Mild");
        let aggressive = report.mean_error_for(app.meta.name, "Aggressive");
        assert!(
            mild <= aggressive + 1e-9,
            "{}: mild {mild} > aggressive {aggressive}",
            app.meta.name
        );
        assert!(mild < 0.25, "{}: mild error {mild} too high", app.meta.name);
    }
}

/// The same seed reproduces the same faulty output exactly (bitwise — a
/// faulty run may legitimately contain NaNs, which `==` would reject).
#[test]
fn fault_injection_is_deterministic_per_seed() {
    use enerj_apps::qos::Output;
    let cfg = HwConfig::for_level(Level::Aggressive);
    for app in all_apps().into_iter().take(4) {
        let a = harness::measure_with_telemetry(&app, cfg, 99, false).output;
        let b = harness::measure_with_telemetry(&app, cfg, 99, false).output;
        match (&a, &b) {
            (Output::Values(x), Output::Values(y)) => {
                assert_eq!(x.len(), y.len(), "{}", app.meta.name);
                for (u, v) in x.iter().zip(y) {
                    assert_eq!(
                        u.to_bits(),
                        v.to_bits(),
                        "{} diverged across identical seeds",
                        app.meta.name
                    );
                }
            }
            _ => assert_eq!(a, b, "{} diverged across identical seeds", app.meta.name),
        }
    }
}

/// Masked runs are bit-identical to the reference regardless of level.
#[test]
fn masked_runs_are_exact_at_every_level() {
    for app in all_apps().into_iter().take(4) {
        let reference = harness::reference(&app).output;
        for level in Level::ALL {
            let cfg = HwConfig::for_level(level).with_mask(StrategyMask::NONE);
            let m = harness::measure_with_telemetry(&app, cfg, 5, false);
            let err = output_error(app.meta.metric, &reference, &m.output);
            assert_eq!(err, 0.0, "{} at {level} masked run differs", app.meta.name);
        }
    }
}

/// The embedded API and the hardware agree on accounting: a program that
/// does exactly N approximate adds reports exactly N approximate ops.
#[test]
fn operation_accounting_is_exact() {
    let cfg = HwConfig::for_level(Level::Medium).with_mask(StrategyMask::NONE);
    let rt = Runtime::with_config(cfg, 0);
    rt.run(|| {
        let mut acc = Approx::new(0i32);
        for i in 0..137 {
            acc += i;
        }
        let mut f = Precise::new(0.0f32);
        for _ in 0..41 {
            f += 1.0;
        }
        let _ = (endorse(acc), f.get());
    });
    let s = rt.stats();
    assert_eq!(s.int_approx_ops, 137);
    assert_eq!(s.fp_precise_ops, 41);
    assert_eq!(rt.fault_counters().total_injections(), 0);
}

/// Heap storage accounting matches the section 4.1 layout: an approximate
/// array's header line is precise, everything else approximate.
#[test]
fn dram_accounting_matches_layout() {
    let cfg = HwConfig::for_level(Level::Medium).with_mask(StrategyMask::NONE);
    let rt = Runtime::with_config(cfg, 0);
    rt.run(|| {
        let mut v = ApproxVec::<f64>::new(512); // 4096 data bytes
        for i in 0..v.len() {
            v.set(i, Approx::new(i as f64));
        }
        drop(v);
    });
    let s = rt.stats();
    let frac = s.approx_storage_fraction(MemKind::Dram);
    // Layout: 16-byte header + 48 element bytes on the precise line, the
    // remaining 4048 bytes approximate: 4048/4112 ≈ 0.9844.
    assert!((frac - 4048.0 / 4112.0).abs() < 1e-6, "frac = {frac}");
}

/// Figure 3 fractions from the harness agree between repeated runs (they
/// depend only on the annotation, not the seed).
#[test]
fn figure3_fractions_are_seed_independent() {
    let app = &all_apps()[0]; // FFT
    let medium = HwConfig::for_level(Level::Medium);
    let a = harness::measure_with_telemetry(app, medium, 1, false).stats;
    let b = harness::measure_with_telemetry(app, medium, 2, false).stats;
    assert_eq!(a.total_ops(OpKind::Fp), b.total_ops(OpKind::Fp));
    assert_eq!(a.total_ops(OpKind::Int), b.total_ops(OpKind::Int));
    assert!((a.approx_op_fraction(OpKind::Fp) - b.approx_op_fraction(OpKind::Fp)).abs() < 1e-12);
}

/// The FP-heavy / integer-heavy split of Table 3 holds: raytracing is
/// mostly FP, barcode decoding mostly integer.
#[test]
fn table3_fp_proportions_have_the_papers_shape() {
    let fp_of = |name: &str| {
        let app = &enerj_apps::app(name).expect("registered");
        harness::reference(app).stats.fp_proportion()
    };
    assert!(fp_of("Raytracer") > 0.6);
    assert!(fp_of("jMonkeyEngine") > 0.6);
    assert!(fp_of("ZXing") < 0.1);
    assert!(fp_of("ImageJ") < 0.1);
    assert!(fp_of("MonteCarlo") > 0.2 && fp_of("MonteCarlo") < 0.8);
}

/// MonteCarlo and jMonkeyEngine keep their principal data in locals: no
/// approximate DRAM (the paper's explicit observation about Figure 3).
#[test]
fn stack_resident_apps_use_no_approximate_dram() {
    for name in ["MonteCarlo", "jMonkeyEngine"] {
        let app = &enerj_apps::app(name).expect("registered");
        let s = harness::reference(app).stats;
        assert!(s.dram_approx_quanta.is_zero(), "{name} should keep data on the stack");
    }
}
