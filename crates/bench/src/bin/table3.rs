//! Regenerates **Table 3**: the applications, their QoS metrics and the
//! annotation density of the ports.
//!
//! Lines of code, declaration counts, annotation percentages and
//! endorsement counts are *measured from this repository's ports* (the
//! paper's column values describe the original Java ports); "Proportion
//! FP" is measured dynamically from a reference run, as in the paper. The
//! reference runs go through one parallel campaign whose report lands in
//! `results/BENCH_table3.json`.

use enerj_apps::all_apps;
use enerj_apps::trials::{CampaignReport, TrialSpec};
use enerj_bench::cli::Options;
use enerj_bench::{finish_campaign, pct, render_table};

fn main() {
    let opts = Options::from_env(1, &[]);
    let apps = all_apps();
    let specs: Vec<TrialSpec> = apps.iter().map(TrialSpec::reference).collect();
    let report = CampaignReport::collect(specs.as_slice(), &opts.campaign_options());

    let mut rows = Vec::new();
    for (app, trial) in apps.iter().zip(&report.trials) {
        assert!(!trial.panicked(), "{}: reference run panicked", app.meta.name);
        let ann = app.meta.annotation_stats();
        let fp = trial.stats.fp_proportion();
        if opts.json {
            println!(
                "{{\"app\":\"{}\",\"metric\":\"{}\",\"loc\":{},\"fp\":{:.4},\"decls\":{},\"annotated\":{},\"endorsements\":{}}}",
                app.meta.name,
                app.meta.metric,
                ann.loc,
                fp,
                ann.total_decls,
                ann.annotated_decls,
                ann.endorsements
            );
        }
        rows.push(vec![
            app.meta.name.to_owned(),
            app.meta.metric.to_string(),
            ann.loc.to_string(),
            pct(fp),
            ann.total_decls.to_string(),
            format!("{:.0}%", ann.annotated_percent()),
            ann.endorsements.to_string(),
        ]);
    }
    if !opts.json {
        println!("Table 3: applications, QoS metrics and annotation density (this port)");
        println!();
        println!(
            "{}",
            render_table(
                &[
                    "Application",
                    "Error metric",
                    "LoC",
                    "Prop. FP",
                    "Decls",
                    "Annotated",
                    "Endorse-sites"
                ],
                &rows
            )
        );
        println!("LoC / declaration counts describe the Rust ports in crates/apps.");
    }
    finish_campaign("table3", &report, &opts);
}
