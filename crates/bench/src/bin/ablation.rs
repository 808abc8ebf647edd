//! Regenerates the **section 6.2 ablation studies**:
//!
//! * default: "the relative impact of various approximation strategies by
//!   running our benchmark suite with each optimization enabled in
//!   isolation" — one column per single-strategy mask. The study runs at
//!   the Medium level: that is where Table 2's probabilities are
//!   asymmetric (SRAM write failures at 10^-4.94 vs read upsets at
//!   10^-7.4), which is what the paper's qualitative claims rest on; at
//!   Aggressive every probability is 10^-3 and all strategies saturate.
//! * `--error-modes`: the three functional-unit error models compared
//!   (single bit flip / last value / random value); the paper reports
//!   ~25% QoS loss for the former two against ~40% for random-value.
//!
//! All trials of a study run as one parallel, crash-isolated campaign
//! (labels `"{level}/{strategy}"` / `"{mode}"`); reports land in
//! `results/BENCH_ablation.json` / `results/BENCH_ablation_error_modes.json`.

use std::sync::Arc;

use enerj_apps::trials::{CampaignOptions, CampaignReport, TrialSpec};
use enerj_apps::{all_apps, harness, App};
use enerj_bench::cli::Options;
use enerj_bench::{err3, finish_campaign, render_table};
use enerj_hw::config::{ErrorMode, HwConfig, Level, StrategyMask};

fn main() {
    let opts = Options::from_env(5, &["--error-modes"]);
    if opts.has_flag("--error-modes") {
        error_modes(&opts);
    } else {
        strategy_isolation(&opts);
    }
}

/// Collects each app's fault-free reference output, in parallel.
fn references(apps: &[App], threads: usize) -> Vec<Arc<enerj_apps::qos::Output>> {
    let specs: Vec<TrialSpec> = apps.iter().map(TrialSpec::reference).collect();
    CampaignReport::collect(specs.as_slice(), &CampaignOptions::with_threads(threads))
        .trials
        .into_iter()
        .map(|t| {
            assert!(!t.panicked(), "{}: reference run panicked", t.app);
            Arc::new(t.output.expect("reference trials keep their output"))
        })
        .collect()
}

fn strategy_isolation(opts: &Options) {
    let singles = StrategyMask::singletons();
    let apps = all_apps();
    let refs = references(&apps, opts.threads);

    let mut specs = Vec::new();
    for level in [Level::Medium, Level::Aggressive] {
        for (app, reference) in apps.iter().zip(&refs) {
            for (name, mask) in &singles {
                let cfg = HwConfig::for_level(level).with_mask(*mask);
                for i in 0..opts.runs {
                    specs.push(TrialSpec::scored(
                        app,
                        format!("{level}/{name}"),
                        cfg,
                        harness::FAULT_SEED_BASE ^ i,
                        Arc::clone(reference),
                    ));
                }
            }
        }
    }
    let report = CampaignReport::collect(specs.as_slice(), &opts.campaign_options());

    for level in [Level::Medium, Level::Aggressive] {
        let mut rows = Vec::new();
        let mut column_sums = vec![0.0f64; singles.len()];
        for app in &apps {
            let mut row = vec![app.meta.name.to_owned()];
            for (i, (name, _)) in singles.iter().enumerate() {
                let err = report.mean_error_for(app.meta.name, &format!("{level}/{name}"));
                column_sums[i] += err;
                row.push(err3(err));
                if opts.json {
                    println!(
                        "{{\"app\":\"{}\",\"level\":\"{level}\",\"strategy\":\"{name}\",\"error\":{err:.4}}}",
                        app.meta.name
                    );
                }
            }
            rows.push(row);
        }
        if !opts.json {
            let headers: Vec<&str> =
                std::iter::once("Application").chain(singles.iter().map(|(n, _)| *n)).collect();
            println!(
                "Section 6.2 ablation: each strategy enabled in isolation ({level}, mean of {} runs)",
                opts.runs
            );
            println!();
            println!("{}", render_table(&headers, &rows));
            let n = apps.len() as f64;
            print!("Suite means:");
            for (i, (name, _)) in singles.iter().enumerate() {
                print!(" {name}={:.3}", column_sums[i] / n);
            }
            println!();
            println!();
        }
    }
    if !opts.json {
        println!("Paper's shape: DRAM nearly negligible; FP-width at most modest (<=12%,");
        println!("Aggressive); SRAM writes worse than reads (visible at Medium, where the");
        println!("probabilities are asymmetric); FU voltage scaling (timing) worst.");
    }
    finish_campaign("ablation", &report, opts);
}

fn error_modes(opts: &Options) {
    let apps = all_apps();
    let refs = references(&apps, opts.threads);

    let mut specs = Vec::new();
    for (app, reference) in apps.iter().zip(&refs) {
        for mode in ErrorMode::ALL {
            let cfg = HwConfig::for_level(Level::Medium).with_error_mode(mode);
            for i in 0..opts.runs {
                specs.push(TrialSpec::scored(
                    app,
                    mode.to_string(),
                    cfg,
                    harness::FAULT_SEED_BASE ^ i,
                    Arc::clone(reference),
                ));
            }
        }
    }
    let report = CampaignReport::collect(specs.as_slice(), &opts.campaign_options());

    let mut rows = Vec::new();
    let mut sums = [0.0f64; 3];
    for app in &apps {
        let mut row = vec![app.meta.name.to_owned()];
        for (i, mode) in ErrorMode::ALL.iter().enumerate() {
            let err = report.mean_error_for(app.meta.name, &mode.to_string());
            sums[i] += err;
            row.push(err3(err));
            if opts.json {
                println!(
                    "{{\"app\":\"{}\",\"mode\":\"{mode}\",\"error\":{err:.4}}}",
                    app.meta.name
                );
            }
        }
        rows.push(row);
    }
    if !opts.json {
        println!(
            "Section 6.2 ablation: functional-unit error models (Medium, mean of {} runs)",
            opts.runs
        );
        println!();
        println!(
            "{}",
            render_table(&["Application", "single-bit-flip", "last-value", "random-value"], &rows)
        );
        let n = apps.len() as f64;
        println!(
            "Suite means: single-bit-flip={:.3}, last-value={:.3}, random-value={:.3}",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n
        );
        println!("Paper: random-value degrades QoS most (~40% vs ~25%); it is also the");
        println!("most realistic model and is the default everywhere else.");
    }
    finish_campaign("ablation_error_modes", &report, opts);
}
