//! `ndjson`: a synthetic ~2 µs app (a generated 512-point input plus 16
//! approximate FP ops) streamed through `NdjsonSink` to files in the scratch
//! dir. Per trial, engine dispatch and sink serialize/write do most of the
//! work, so `hw` changes should not move `trials_per_s` here.
//!
//! Each pass of the [`ROUNDS`] rounds writes its own file (≈ 86 MB at the
//! default size), checked and deleted before the next, so the output stays
//! in the page cache and the workload measures the program, not the disk.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read};
use std::path::Path;
use std::sync::Arc;

use enerj_apps::meta::AppMeta;
use enerj_apps::qos::{Output, QosMetric};
use enerj_apps::trials::{
    run_campaign_streamed, trial_json, CampaignOptions, NdjsonSink, NullSink, SpecFn, TrialResult,
    TrialSpec, VecSink,
};
use enerj_apps::{no_check, App};
use enerj_core::{endorse, Approx};
use enerj_hw::config::{HwConfig, Level};

use crate::trace::{SinkTrace, TimedWriter};
use crate::{peak_rss_mb, probe, References, Report, Run, ROUNDS, THREADS};

/// Trials per second of `--seconds`.
const TRIALS_PER_SECOND: f64 = 170_000.0;

/// Trials of the untimed warm-up that ends each set-up.
const WARM_UP_TRIALS: usize = 40_000;

/// Leading lines of the first file compared with a serial in-memory render.
const CHECK_LINES: usize = 10_000;

/// The synthetic trial body, as in `campaign_bench`'s `tiny_run`: generate
/// an input as every real app does, fold 16 approximate FP ops, endorse.
fn tiny_run() -> Output {
    let signal = enerj_apps::workload::complex_signal(512);
    let mut acc = Approx::new(0.0f64);
    for i in 0..16 {
        acc += Approx::new(signal.0[i]) * 0.5;
    }
    Output::Values(vec![endorse(acc)])
}

fn tiny_app() -> App {
    App {
        meta: AppMeta {
            name: "TinyDispatch",
            description: "synthetic campaign body: generated input, few approximate ops",
            metric: QosMetric::MeanEntryDiff,
            source: "",
        },
        run: tiny_run,
        check: no_check,
    }
}

/// Trial `i`: Medium-level fault injection, scored against the reference.
fn tiny_spec(run: &Run, app: &App, reference: &Arc<Output>, i: usize) -> TrialSpec {
    TrialSpec::scored(
        app,
        "Medium",
        HwConfig::for_level(Level::Medium),
        run.trial_seed(i),
        Arc::clone(reference),
    )
}

pub fn run(run: &Run, report: &mut Report) -> io::Result<()> {
    let opts = CampaignOptions::with_threads(THREADS);
    let (app, refs) = run.setup(report, || {
        let app = tiny_app();
        let refs = References::compute(std::slice::from_ref(&app));
        let reference = refs.output(app.meta.name);
        let warm_up = SpecFn::new(WARM_UP_TRIALS, |i| tiny_spec(run, &app, &reference, i));
        run_campaign_streamed(&warm_up, &opts, &mut NullSink)?;
        Ok((app, refs))
    })?;
    let reference = refs.output(app.meta.name);
    let spec = |i: usize| tiny_spec(run, &app, &reference, i);
    let round_len = run.size(TRIALS_PER_SECOND, 1_000 * ROUNDS) / ROUNDS;

    // Each pass of a round is timed alone and writes its own file, whose
    // line count is checked after it. The traced pass times the same
    // `NdjsonSink` through a `TimedWriter`. The first untraced file is kept
    // for the line-by-line check, which runs after `peak_rss_mb` is read so
    // that its in-memory render does not count.
    let first = run.work.join("round0-false.ndjson");
    let mut writes = SinkTrace::default();
    let phase = run.rounds(&refs, |r, p| {
        let source = SpecFn::new(round_len, |j| spec(r * round_len + j));
        let path = run.work.join(format!("round{r}-{}.ndjson", p.traced()));
        let out = BufWriter::new(File::create(&path)?);
        let (summary, wall) = if p.traced() {
            let mut sink = NdjsonSink::new(TimedWriter::new(out));
            let done = p.campaign(&source, &opts, &mut sink)?;
            writes.add(&sink.into_inner());
            done
        } else {
            p.campaign(&source, &opts, &mut NdjsonSink::new(out))?
        };
        p.pass.add(&summary, wall);
        check_lines(&path, round_len, report)?;
        if path != first {
            fs::remove_file(&path)?;
        }
        Ok(())
    })?;
    let (pass, traced) = (&phase.untraced, &phase.traced);
    report.ops += (pass.trials + traced.trials) as u64;
    report.set("peak_rss_mb", peak_rss_mb(None)?, "MB");
    phase.report(report);
    let head = check_head(&first, round_len, &spec, report)?;
    fs::remove_file(&first)?;

    if run.trace {
        report.check(traced.same_outcome(pass), || {
            "the traced campaign diverged from the untraced one".to_owned()
        });
        phase.trace.report(report);
        phase.trace.report_sink(&writes, report);
        traced.report_overhead(pass, report);
        let commits = probe::sample_commits(&head);
        probe::finish(run, "{\"workload\":\"ndjson\"}", &commits, report)?;
    }
    Ok(())
}

/// The file must hold exactly one line per trial.
fn check_lines(path: &Path, trials: usize, report: &mut Report) -> io::Result<()> {
    let mut file = File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut lines = 0usize;
    loop {
        match file.read(&mut buf)? {
            0 => break,
            n => lines += buf[..n].iter().filter(|&&b| b == b'\n').count(),
        }
    }
    report.check(lines == trials, || {
        format!("{}: {lines} lines for {trials} trials", path.display())
    });
    Ok(())
}

/// The file's first [`CHECK_LINES`] lines must equal a one-thread `VecSink`
/// render of the same specs, `wall_seconds` masked. Returns the rendered
/// trials (the journal probe's payloads).
fn check_head(
    path: &Path,
    len: usize,
    spec: &(dyn Fn(usize) -> TrialSpec + Sync),
    report: &mut Report,
) -> io::Result<Vec<TrialResult>> {
    let n = CHECK_LINES.min(len);
    let mut serial = VecSink::default();
    run_campaign_streamed(&SpecFn::new(n, spec), &CampaignOptions::with_threads(1), &mut serial)?;
    let lines = BufReader::new(File::open(path)?).lines().take(n);
    let mut same = 0usize;
    for (t, line) in serial.trials.iter().zip(lines) {
        same += usize::from(mask_wall(&line?) == mask_wall(&trial_json(t)));
    }
    report.check(same == n, || format!("{}: {same} of the first {n} lines match", path.display()));
    Ok(serial.trials)
}

/// `line` with the one nondeterministic field's value blanked.
fn mask_wall(line: &str) -> String {
    const KEY: &str = "\"wall_seconds\":";
    match line.find(KEY) {
        Some(at) => {
            let value = at + KEY.len();
            let end = line[value..].find(',').map_or(line.len(), |e| value + e);
            format!("{}{}", &line[..value], &line[end..])
        }
        None => line.to_owned(),
    }
}
