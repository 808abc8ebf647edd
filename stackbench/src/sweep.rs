//! `sweep`: the paper's Figure 4/5 campaign — all nine apps at Mild, Medium
//! and Aggressive — through `run_campaign_streamed` into a sink that keeps
//! one trial in 97 and serializes nothing. Kernel and trial compute do
//! nearly all the work, so `hw`/`trial` changes move `trials_per_s` here and
//! `sink`/`serve` changes must not.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

use enerj_apps::harness;
use enerj_apps::qos::output_error;
use enerj_apps::trials::{
    run_campaign_streamed, CampaignOptions, NullSink, SpecFn, TrialResult, TrialSpec,
};
use enerj_apps::{all_apps, App};
use enerj_hw::config::{HwConfig, Level};

use crate::{peak_rss_mb, probe, References, Report, Run, SampleSink, ROUNDS, THREADS};

const LEVELS: [Level; 3] = [Level::Mild, Level::Medium, Level::Aggressive];

/// Runs per (app, level) per second of `--seconds`.
const RUNS_PER_SECOND: f64 = 150.0;

/// Runs per (app, level) of the untimed warm-up that ends each set-up.
const WARM_UP_RUNS: usize = 12;

pub fn run(run: &Run, report: &mut Report) -> io::Result<()> {
    let opts = CampaignOptions::with_threads(THREADS);
    let (apps, refs) = run.setup(report, || {
        let apps = all_apps();
        let refs = References::compute(&apps);
        let warm_up = SpecFn::new(apps.len() * LEVELS.len() * WARM_UP_RUNS, |i| {
            sweep_spec(run, &apps, &refs, WARM_UP_RUNS, i)
        });
        run_campaign_streamed(&warm_up, &opts, &mut NullSink)?;
        Ok((apps, refs))
    })?;
    // Each round is a whole sweep over (app, level) with its own seeds.
    let runs = run.size(RUNS_PER_SECOND, ROUNDS) / ROUNDS;
    let round_len = apps.len() * LEVELS.len() * runs;
    let spec = |i: usize| sweep_spec(run, &apps, &refs, runs, i);

    let (mut kept, mut traced_kept) = (SampleSink::default(), SampleSink::default());
    let phase = run.rounds(&refs, |r, p| {
        let base = r * round_len;
        let sink = if p.traced() { &mut traced_kept } else { &mut kept };
        sink.base = base;
        let (summary, wall) =
            p.campaign(&SpecFn::new(round_len, |j| spec(base + j)), &opts, sink)?;
        p.pass.add(&summary, wall);
        Ok(())
    })?;
    let (pass, traced) = (&phase.untraced, &phase.traced);
    report.ops += (pass.trials + traced.trials) as u64;
    report.set("peak_rss_mb", peak_rss_mb(None)?, "MB");
    phase.report(report);
    check_sample(&kept.kept, &spec, report);

    if run.trace {
        report.check(traced.same_outcome(pass), || {
            "the traced sweep diverged from the untraced one".to_owned()
        });
        phase.trace.report(report);
        traced.report_overhead(pass, report);
        probe::sink_sample(&run.work, &traced_kept.kept, report)?;
        let commits = probe::sample_commits(&traced_kept.kept);
        probe::finish(run, "{\"workload\":\"sweep\"}", &commits, report)?;
    }
    Ok(())
}

/// Trial `i` of rounds of `runs` runs per (app, level): app-major, then
/// level, then run within a round, as `run_level_campaign` enumerates the
/// Figure 5 protocol; the seed comes from the workload-global index.
fn sweep_spec(run: &Run, apps: &[App], refs: &References, runs: usize, i: usize) -> TrialSpec {
    let per_app = LEVELS.len() * runs;
    let j = i % (apps.len() * per_app);
    let (app, level) = (&apps[j / per_app], LEVELS[j % per_app / runs]);
    TrialSpec::scored(
        app,
        level.to_string(),
        HwConfig::for_level(level),
        run.trial_seed(i),
        refs.output(app.meta.name),
    )
}

/// Every kept trial must match a serial `measure_with_telemetry` re-run bit
/// for bit: error, statistics, exact energy and fault counts.
fn check_sample(kept: &[TrialResult], spec: &dyn Fn(usize) -> TrialSpec, report: &mut Report) {
    for t in kept {
        let s = spec(t.index);
        let rerun = catch_unwind(AssertUnwindSafe(|| {
            harness::measure_with_telemetry(&s.app, s.cfg, s.seed, false)
        }));
        let same = match rerun {
            Ok(m) => {
                let reference = s.reference.as_deref().expect("sweep trials are scored");
                !t.panicked()
                    && output_error(s.app.meta.metric, reference, &m.output).to_bits()
                        == t.error.to_bits()
                    && m.stats == t.stats
                    && m.energy_quanta == t.energy_quanta
                    && m.fault_counts == t.fault_counts
            }
            Err(_) => t.panicked(),
        };
        report.check(same, || format!("sweep trial {} differs from its serial re-run", t.index));
    }
}
