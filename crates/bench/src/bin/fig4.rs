//! Regenerates **Figure 4**: estimated CPU/memory-system energy for each
//! benchmark, normalized to fully precise execution ("B"), at the Mild,
//! Medium and Aggressive configurations.
//!
//! Energy depends on the *fractions* of approximate work and storage (one
//! run per level), not on which faults happened to be injected. The
//! `apps x levels` runs go through one parallel campaign whose report
//! lands in `results/BENCH_fig4.json`.

use enerj_apps::all_apps;
use enerj_apps::trials::{CampaignReport, TrialSpec};
use enerj_bench::cli::Options;
use enerj_bench::{finish_campaign, render_table};
use enerj_hw::config::{HwConfig, Level};

fn main() {
    let opts = Options::from_env(1, &[]);
    let apps = all_apps();
    let specs: Vec<TrialSpec> = apps
        .iter()
        .flat_map(|app| {
            Level::ALL.iter().map(move |level| TrialSpec {
                app: app.clone(),
                label: level.to_string(),
                cfg: HwConfig::for_level(*level),
                seed: 1,
                reference: None,
                keep_output: false,
                recovery: None,
                scheduled_level: None,
            })
        })
        .collect();
    let report = CampaignReport::collect(specs.as_slice(), &opts.campaign_options());

    let mut rows = Vec::new();
    let mut savings_sum = [0.0f64; 3];
    for app in &apps {
        let mut row = vec![app.meta.name.to_owned(), "1.000".to_owned()];
        for (i, level) in Level::ALL.iter().enumerate() {
            let label = level.to_string();
            let trial = report
                .trials_for(app.meta.name, &label)
                .next()
                .expect("one trial per app and level");
            assert!(!trial.panicked(), "{}: energy run panicked", app.meta.name);
            let energy = trial.energy_quanta.normalized();
            row.push(format!("{:.3}", energy.total));
            savings_sum[i] += energy.savings();
        }
        rows.push(row);
    }
    println!("Figure 4: normalized CPU/memory system energy (B = precise baseline)");
    println!();
    println!(
        "{}",
        render_table(&["Application", "B", "1 Mild", "2 Medium", "3 Aggressive"], &rows)
    );
    let n = apps.len() as f64;
    println!(
        "Average savings: Mild {:.0}%, Medium {:.0}%, Aggressive {:.0}%  (paper: 19%, 24%, 26%)",
        100.0 * savings_sum[0] / n,
        100.0 * savings_sum[1] / n,
        100.0 * savings_sum[2] / n
    );
    finish_campaign("fig4", &report, &opts);
}
