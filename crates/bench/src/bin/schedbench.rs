//! `schedbench` — the online significance-aware scheduler's budget
//! experiment: hold a per-campaign energy budget live, degrade the least
//! significant work first, and compare against every static single-level
//! baseline on the same workload and seeds.
//!
//! ```text
//! schedbench [--runs N] [--threads N] [--quick]
//!            [--budget-pct P] [--meter sram|total]
//! ```
//!
//! The workload is every registered app (the paper's full suite),
//! round-robin interleaved, `--runs` evaluation trials per app. The budget
//! is `P%` (default 60) of the *measured* all-Precise metered cost —
//! exact integer quanta, not an estimate. The binary then:
//!
//! 1. profiles the workload on the tuner seed stream (significance seeds),
//! 2. runs the four static single-level baselines,
//! 3. runs the scheduled campaign,
//! 4. re-runs it at two more worker-thread counts, each different from the
//!    main run's (1 and N + 1 after a run on N > 1 threads; 2 and 3 after
//!    a one-thread run), and verifies the three campaigns are bit-identical (exit code 1 on any divergence — the
//!    controller's determinism claim is a hard gate, not a report field),
//! 5. writes the `enerj-sched/1` report to `results/BENCH_sched.json`.
//!
//! The default meter is SRAM quanta: Table 2's supply-voltage knob is
//! where the paper's approximation actually buys energy headroom, so an
//! SRAM budget at 60% is meetable while the DRAM-dominated total (refresh
//! savings are small) has a feasibility floor near 80%.

use std::process::ExitCode;

use enerj_apps::all_apps;
use enerj_apps::scheduler::{
    profile_workload, run_scheduled, AppProfile, SchedLevel, SchedOutcome, SchedulerConfig,
    Workload,
};
use enerj_apps::trials::{CampaignOptions, CampaignReport, TrialResult};
use enerj_bench::sched::{BaselineRow, SchedReport, ScheduledRow};
use enerj_bench::{bench_report_path, cli, exit_status, render_table, write_output, Options};
use enerj_hw::quanta::EnergyQuanta;

/// Two scheduled runs must agree on every bit that matters; returns a
/// human-readable description of the first divergence.
fn first_divergence(
    a: &[TrialResult],
    a_out: &SchedOutcome,
    b: &[TrialResult],
    b_out: &SchedOutcome,
) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("trial counts differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        if x.scheduled_level != y.scheduled_level {
            return Some(format!(
                "trial {}: scheduled {:?} vs {:?}",
                x.index, x.scheduled_level, y.scheduled_level
            ));
        }
        if x.error.to_bits() != y.error.to_bits() {
            return Some(format!("trial {}: error {} vs {}", x.index, x.error, y.error));
        }
        if x.energy_quanta != y.energy_quanta {
            return Some(format!("trial {}: energy quanta differ", x.index));
        }
        if x.stats != y.stats || x.fault_counts != y.fault_counts {
            return Some(format!("trial {}: telemetry differs", x.index));
        }
        if x.attempts != y.attempts || x.recovered_at_level != y.recovered_at_level {
            return Some(format!("trial {}: recovery differs", x.index));
        }
    }
    if a_out.spent != b_out.spent {
        return Some(format!("spend differs: {} vs {}", a_out.spent, b_out.spent));
    }
    if a_out.level_counts != b_out.level_counts {
        return Some("level census differs".to_owned());
    }
    None
}

fn main() -> ExitCode {
    let (mut opts, (budget_pct, meter)) =
        Options::from_env_with(20, &["--quick", "--budget-pct N", "--meter M"], cli::sched_budget);
    let quick = opts.has_flag("--quick");
    if quick {
        opts.runs = opts.runs.min(6);
    }

    let campaign_opts = opts.campaign_options();
    let workload = Workload::new(all_apps(), opts.runs);
    eprintln!(
        "schedbench: {} apps x {} runs = {} trials, {} meter, budget {budget_pct}% of precise",
        workload.apps.len(),
        workload.runs,
        workload.len(),
        meter.name()
    );

    // Significance seeds from the disjoint tuner stream.
    let profile_runs = if quick { 2 } else { 5 };
    let profiles: Vec<AppProfile> =
        profile_workload(&workload, meter, profile_runs, &campaign_opts);

    // Static single-level baselines: same apps, same seeds, no scheduler.
    let mut baselines = Vec::new();
    for level in SchedLevel::ALL {
        let report =
            CampaignReport::collect(workload.static_specs(level).as_slice(), &campaign_opts);
        let mean_error = report.summary.mean_error;
        baselines.push((level, meter.spent(&report.summary.energy_quanta), mean_error));
    }
    let precise_cost = baselines[0].1;
    let budget = EnergyQuanta::new(precise_cost.get() * u128::from(budget_pct) / 100);

    // The scheduled campaign, plus the determinism gate: re-runs at two
    // other thread counts must be bit-identical to the main run.
    let cfg = SchedulerConfig { budget, meter, epoch: 0, recovery: None };
    let (report_main, outcome) = run_scheduled(&workload, &profiles, &cfg, &campaign_opts);
    let main_threads = report_main.summary.threads;
    let mut ran = vec![main_threads];
    let mut identical = true;
    let mut reference: Option<(Vec<TrialResult>, SchedOutcome)> = None;
    let others = if main_threads == 1 { [2, 3] } else { [1, main_threads + 1] };
    for threads in others {
        let verify_opts = CampaignOptions { threads, ..campaign_opts.clone() };
        let (r, o) = run_scheduled(&workload, &profiles, &cfg, &verify_opts);
        ran.push(r.summary.threads);
        if let Some(diff) = first_divergence(&report_main.trials, &outcome, &r.trials, &o) {
            eprintln!("schedbench: DIVERGENCE at {threads} thread(s): {diff}");
            identical = false;
        }
        if let Some((rt, ro)) = &reference {
            if let Some(diff) = first_divergence(rt, ro, &r.trials, &o) {
                eprintln!("schedbench: DIVERGENCE between verification runs: {diff}");
                identical = false;
            }
        }
        reference = Some((r.trials, o));
    }

    let census: [u64; 4] = outcome.level_counts.iter().fold([0; 4], |mut acc, c| {
        for (a, n) in acc.iter_mut().zip(c) {
            *a += n;
        }
        acc
    });
    let sched_report = SchedReport {
        quick,
        meter,
        budget_pct,
        epoch_len: outcome.epoch_len,
        precise_cost_quanta: precise_cost,
        identical,
        scheduled: ScheduledRow {
            spent_quanta: outcome.spent,
            mean_error: outcome.summary.mean_error,
            implausible: outcome.implausible,
            level_counts: census,
        },
        baselines: baselines
            .iter()
            .map(|&(level, spent_quanta, mean_error)| BaselineRow {
                level,
                spent_quanta,
                mean_error,
            })
            .collect(),
    };

    let json = sched_report.to_json();
    let mut rows = Vec::new();
    for b in &sched_report.baselines {
        rows.push(vec![
            format!("static {}", b.level),
            b.spent_quanta.to_string(),
            format!("{:.4}", b.spent_quanta.get() as f64 / precise_cost.get() as f64),
            format!("{:.4}", b.qos()),
            if b.spent_quanta <= budget { "yes" } else { "no" }.to_owned(),
        ]);
    }
    rows.push(vec![
        "scheduled".to_owned(),
        outcome.spent.to_string(),
        format!("{:.4}", outcome.spent.get() as f64 / precise_cost.get() as f64),
        format!("{:.4}", outcome.qos()),
        if outcome.budget_met { "yes" } else { "NO" }.to_owned(),
    ]);
    println!(
        "Budget: {budget} {} quanta ({budget_pct}% of all-Precise {precise_cost})",
        meter.name()
    );
    println!();
    println!(
        "{}",
        render_table(&["Campaign", "Spent (quanta)", "vs precise", "QoS", "In budget"], &rows)
    );
    println!(
        "Scheduled census: Precise {} / Mild {} / Medium {} / Aggressive {}  \
         (epoch {}, {} implausible scalar(s))",
        census[0], census[1], census[2], census[3], outcome.epoch_len, outcome.implausible
    );
    let best_static = sched_report
        .baselines
        .iter()
        .filter(|b| b.spent_quanta <= budget)
        .max_by(|a, b| a.qos().total_cmp(&b.qos()));
    match best_static {
        Some(b) if outcome.budget_met => println!(
            "Scheduled QoS {:.4} vs best in-budget static ({}) {:.4}: {}",
            outcome.qos(),
            b.level,
            b.qos(),
            if outcome.qos() > b.qos() { "scheduler wins" } else { "static wins" }
        ),
        _ => println!("No in-budget comparison available."),
    }
    ran.sort_unstable();
    let ran: Vec<String> = ran.iter().map(usize::to_string).collect();
    println!("Bit-identity across {} thread(s): {identical}", ran.join("/"));
    if opts.trace {
        for (a, counts) in outcome.level_counts.iter().enumerate() {
            eprintln!(
                "  {:<14} Precise {:>3} / Mild {:>3} / Medium {:>3} / Aggressive {:>3}",
                workload.apps[a].meta.name, counts[0], counts[1], counts[2], counts[3]
            );
        }
    }

    let path = bench_report_path("sched");
    let written = write_output(&path, &(json + "\n"));
    if written.is_ok() {
        eprintln!("sched report -> {}", path.display());
    }
    let status = exit_status(written);
    if identical {
        status
    } else {
        ExitCode::FAILURE
    }
}
