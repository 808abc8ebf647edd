//! Regenerates **Figure 3**: the proportion of approximate storage and
//! computation in each benchmark.
//!
//! For storage (SRAM and DRAM) the bars show the fraction of byte-seconds
//! used storing approximate data; for functional-unit operations, the
//! fraction of dynamic operations that executed approximately. These
//! fractions depend only on the annotations, so a single masked run per
//! application suffices — the nine reference runs go through one parallel
//! campaign whose report lands in `results/BENCH_fig3.json`.

use enerj_apps::all_apps;
use enerj_apps::trials::{CampaignReport, TrialSpec};
use enerj_bench::cli::Options;
use enerj_bench::{finish_campaign, pct, render_table};
use enerj_hw::{MemKind, OpKind};

fn main() {
    let opts = Options::from_env(1, &[]);
    let apps = all_apps();
    let specs: Vec<TrialSpec> = apps.iter().map(TrialSpec::reference).collect();
    let report = CampaignReport::collect(specs.as_slice(), &opts.campaign_options());

    let mut rows = Vec::new();
    for (app, trial) in apps.iter().zip(&report.trials) {
        assert!(!trial.panicked(), "{}: reference run panicked", app.meta.name);
        let s = trial.stats;
        let dram = s.approx_storage_fraction(MemKind::Dram);
        let sram = s.approx_storage_fraction(MemKind::Sram);
        let int = s.approx_op_fraction(OpKind::Int);
        let fp = s.approx_op_fraction(OpKind::Fp);
        if opts.json {
            println!(
                "{{\"app\":\"{}\",\"dram\":{dram:.4},\"sram\":{sram:.4},\"int\":{int:.4},\"fp\":{fp:.4}}}",
                app.meta.name
            );
        }
        rows.push(vec![
            app.meta.name.to_owned(),
            pct(dram),
            pct(sram),
            pct(int),
            pct(fp),
            if s.total_ops(OpKind::Fp) == 0 { "(no FP)".into() } else { String::new() },
        ]);
    }
    if !opts.json {
        println!("Figure 3: proportion of approximate storage and computation");
        println!();
        println!(
            "{}",
            render_table(
                &["Application", "DRAM storage", "SRAM storage", "Integer ops", "FP ops", ""],
                &rows
            )
        );
        println!("Fractions are approximate byte-seconds (storage) and approximate");
        println!("dynamic operations (functional units), as in the paper.");
    }
    finish_campaign("fig3", &report, &opts);
}
