//! Regenerates **Figure 5**: output error for the three approximation
//! levels applied together; each bar is the mean over N fault-injection
//! runs (the paper uses 20; override with `--runs N`).
//!
//! All `apps x levels x runs` trials go through one parallel,
//! crash-isolated campaign ([`enerj_apps::trials`]); the full per-trial
//! record is written to `results/BENCH_fig5.json`.

use std::process::ExitCode;

use enerj_apps::all_apps;
use enerj_apps::trials::run_level_campaign;
use enerj_bench::cli::Options;
use enerj_bench::{err3, finish_campaign, render_table};
use enerj_hw::config::Level;

fn main() -> ExitCode {
    let opts = Options::from_env(20, &[]);
    let apps = all_apps();
    let report = run_level_campaign(&apps, &Level::ALL, opts.runs, &opts.campaign_options());

    let mut rows = Vec::new();
    for app in &apps {
        let mut row = vec![app.meta.name.to_owned()];
        for level in Level::ALL {
            let err = report.mean_error_for(app.meta.name, &level.to_string());
            row.push(err3(err));
        }
        rows.push(row);
    }
    println!(
        "Figure 5: output error at the three approximation levels (mean of {} runs)",
        opts.runs
    );
    println!();
    println!("{}", render_table(&["Application", "Mild", "Medium", "Aggressive"], &rows));
    println!("0 = identical to precise output, 1 = meaningless output.");
    if report.summary.panics > 0 {
        println!(
            "{} fault-injected runs crashed and were scored as worst-case (error 1).",
            report.summary.panics
        );
    }
    finish_campaign("fig5", &report, &opts)
}
