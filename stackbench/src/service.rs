//! `service`: a `campaignd --workers 2` child on a fresh state dir, driven by
//! two closed-loop clients (tenants `t0`, `t1`), one connection each at a
//! time. Per job: submit → stream to EOF → summary, then replay one of the
//! client's completed jobs from a seed-chosen line, which puts reads beside
//! the commit+fsync writes. At the end the daemon drains (`POST /shutdown`)
//! and is restarted on the same state dir, timed until it listens. It is the
//! only workload that exercises admission, journal fsync, file-backed
//! streaming and boot recovery; it runs real apps, so the in-process rate of
//! the same specs (`serve.inproc_trials_per_s`) measures the service's own
//! share.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use enerj_apps::all_apps;
use enerj_apps::trials::{run_campaign_streamed, CampaignOptions, SpecFn, TrialResult, TrialSink};
use enerj_serve::client::{Client, Submitted};
use enerj_serve::journal::fnv1a;
use enerj_serve::spec::JobSpec;

use crate::probe::{self, Rendered};
use crate::trace::{quantile, SinkTrace, TimedWriter};
use crate::{
    campaignd_path, peak_rss_mb, timed, Pass, References, Report, Run, SplitMix64, ROUNDS, THREADS,
};

/// Jobs per second of `--seconds`: at the default size each round runs the
/// 16 distinct specs once.
const JOBS_PER_SECOND: f64 = 32.0;

/// Runs per (app, level) of the warm-up job.
const WARM_UP_RUNS: u64 = 16;

/// `/healthz` round trips in the HTTP-floor probe.
const HEALTHZ_PROBES: usize = 20;

/// Per-socket client timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

const LEVEL_PAIRS: [[&str; 2]; 3] =
    [["Mild", "Medium"], ["Medium", "Aggressive"], ["Mild", "Aggressive"]];

/// The 16 distinct job specs (without tenant). Four run classes — 4, 5, 7
/// and 8 runs, at fixed level pairs — each spread all nine apps over specs
/// of 3, 2, 2 and 2 apps with chunks 8, 2, 8 and 2. Every seed therefore
/// runs the same trials (a spec's fault seeds are fixed by its run index)
/// with the same commit count; the seed picks which apps share a spec, and
/// so each app's chunking, and the submission order.
fn job_specs(run: &Run) -> Vec<Template> {
    let names: Vec<&'static str> = all_apps().iter().map(|a| a.meta.name).collect();
    let mut rng = run.rng(1);
    let mut specs = Vec::with_capacity(16);
    for (class, runs) in [4, 5, 7, 8].into_iter().enumerate() {
        let levels = LEVEL_PAIRS[class % LEVEL_PAIRS.len()];
        let mut apps = names.clone();
        rng.shuffle(&mut apps);
        let mut rest = apps.as_slice();
        for (width, chunk) in [(3, 8), (2, 2), (2, 8), (2, 2)] {
            let (group, tail) = rest.split_at(width);
            rest = tail;
            specs.push(Template { apps: group.to_vec(), levels, runs, chunk });
        }
    }
    rng.shuffle(&mut specs);
    specs
}

/// One job's `enerj-serve/1` spec, minus the tenant.
struct Template {
    apps: Vec<&'static str>,
    levels: [&'static str; 2],
    runs: u64,
    chunk: usize,
}

impl Template {
    fn json(&self, tenant: &str) -> String {
        let quoted =
            |names: &[&str]| names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",");
        format!(
            "{{\"schema\":\"enerj-serve/1\",\"tenant\":\"{tenant}\",\"apps\":[{}],\"levels\":[{}],\
             \"runs\":{},\"chunk\":{}}}",
            quoted(&self.apps),
            quoted(&self.levels),
            self.runs,
            self.chunk,
        )
    }
}

/// A `campaignd` child; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `campaignd` on `state_dir` and waits for its listening line.
    fn start(state_dir: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(campaignd_path())
            .args(["--addr", "127.0.0.1:0", "--workers", &THREADS.to_string(), "--state-dir"])
            .arg(state_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout).read_line(&mut banner)?;
        let daemon = Daemon { child, addr: banner.trim().rsplit(' ').next().unwrap_or("").into() };
        if !daemon.addr.contains(':') {
            return Err(io::Error::other(format!("unexpected campaignd banner `{banner}`")));
        }
        Ok(daemon)
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_timeout(CLIENT_TIMEOUT)
    }

    /// Requests the drain, then kills and reaps the process (on drop). With
    /// every job committed there is nothing left to drain, but `campaignd`
    /// exits only at its supervisor's next lease/4 tick (7.5 s by default),
    /// which would be idle benchmark time.
    fn shutdown(self) -> io::Result<()> {
        let resp = self.client().shutdown()?;
        if resp.status == 200 {
            Ok(())
        } else {
            Err(io::Error::other(format!("shutdown answered {}", resp.status)))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one job looked like from its client.
struct JobLog {
    job: String,
    spec: usize,
    submit_ms: f64,
    first_ms: f64,
    job_ms: f64,
    lines: usize,
    hash: u64,
    quanta: (u128, u128),
    mean_error: f64,
    replay_ms: f64,
    replay_bytes: usize,
}

/// The untimed warm-up job that ends each set-up: every app at two levels,
/// so `campaignd` has computed and cached every reference output.
fn warm_up(daemon: &Daemon) -> io::Result<()> {
    let apps = all_apps().iter().map(|a| a.meta.name).collect();
    let warm_up = Template { apps, levels: LEVEL_PAIRS[0], runs: WARM_UP_RUNS, chunk: 8 };
    let spec = warm_up.json("warmup");
    let client = daemon.client();
    let Submitted::Accepted { job_id, trials } = client.submit(&spec)? else {
        return Err(io::Error::other("warm-up job rejected"));
    };
    let mut lines = 0;
    client.stream_lines(&job_id, 0, |_| lines += 1)?;
    if lines == trials {
        Ok(())
    } else {
        Err(io::Error::other(format!("warm-up job streamed {lines} of {trials} lines")))
    }
}

pub fn run(run: &Run, report: &mut Report) -> io::Result<()> {
    let mut setups = 0;
    let daemon = run.setup(report, || {
        setups += 1;
        let daemon = Daemon::start(&run.work.join(format!("state{setups}")))?;
        warm_up(&daemon)?;
        Ok(daemon)
    })?;
    let state_dir = run.work.join(format!("state{setups}"));
    let specs = job_specs(run);
    let jobs = run.size(JOBS_PER_SECOND, ROUNDS) / ROUNDS * ROUNDS;

    // Timed phase: each round, two closed-loop clients share the round's
    // jobs until every one is done.
    let per_round = jobs / ROUNDS;
    let mut drivers: Vec<Driver> = (0..THREADS).map(|id| Driver::new(run, &daemon, id)).collect();
    let logs = Mutex::new(BTreeMap::new());
    let mut pass = Pass::default();
    for r in 0..ROUNDS {
        let (next, end) = (AtomicUsize::new(r * per_round), (r + 1) * per_round);
        let ((), wall) = timed(|| {
            std::thread::scope(|scope| {
                for driver in drivers.iter_mut() {
                    let (specs, next, logs) = (&specs, &next, &logs);
                    scope.spawn(move || driver.drive(specs, end, next, logs));
                }
            })
        });
        let logs = logs.lock().expect("client threads joined");
        pass.round(logs.range(r * per_round..end).map(|(_, l)| l.lines).sum(), wall);
    }
    let logs = logs.into_inner().expect("client threads joined");
    for d in &drivers {
        report.ops += d.ops;
        report.failed += d.failed;
    }
    report.check(logs.len() == jobs, || format!("{} of {jobs} jobs completed", logs.len()));
    for l in logs.values() {
        pass.outcome(l.lines, l.mean_error, l.quanta);
    }
    report.set("peak_rss_mb", peak_rss_mb(Some(daemon.child.id()))?, "MB");
    pass.report(report);
    // The trials run inside `campaignd`, out of sight, and its poll sleeps
    // rather than the host's speed set both the rate and the set-up's
    // warm-up job: no host correction, the wall clock.
    report.set("trials_per_s", pass.rate(), "trial/s");
    report.set("setup_s", report.get("setup_s.wall").expect("the set-up ran").1, "s");
    report.set("serve.rejected", drivers.iter().map(|d| d.rejected).sum::<u64>() as f64, "count");
    latencies(&logs, report);
    restart(daemon, &state_dir, &logs, report)?;

    let parsed: Vec<JobSpec> = specs
        .iter()
        .map(|s| JobSpec::parse(&s.json("t0")).map_err(io::Error::other))
        .collect::<io::Result<_>>()?;
    let renders = check_streams(&parsed, &logs, report)?;
    if run.trace {
        traced(run, report, &parsed, &specs, jobs, pass.rate(), &renders)?;
    }
    Ok(())
}

/// The client-side latency and replay metrics.
fn latencies(logs: &BTreeMap<usize, JobLog>, report: &mut Report) {
    let ms = |f: fn(&JobLog) -> f64| logs.values().map(f).collect::<Vec<f64>>();
    let (mut job_ms, mut first_ms, mut submit_ms, mut replay_ms) =
        (ms(|l| l.job_ms), ms(|l| l.first_ms), ms(|l| l.submit_ms), ms(|l| l.replay_ms));
    report.set("serve.job_p50_ms", quantile(&mut job_ms, 0.5), "ms");
    report.set("serve.job_p90_ms", quantile(&mut job_ms, 0.9), "ms");
    report.set("serve.first_trial_p50_ms", quantile(&mut first_ms, 0.5), "ms");
    report.set("serve.first_trial_p90_ms", quantile(&mut first_ms, 0.9), "ms");
    report.set("serve.submit_ms.p50", quantile(&mut submit_ms, 0.5), "ms");
    report.set("serve.submit_ms.p90", quantile(&mut submit_ms, 0.9), "ms");
    report.set("serve.replay_p50_ms", quantile(&mut replay_ms, 0.5), "ms");
    let replay_bytes: usize = logs.values().map(|l| l.replay_bytes).sum();
    let replay_s: f64 = replay_ms.iter().sum::<f64>() / 1e3;
    report.set("serve.replay_mb_per_s", replay_bytes as f64 / 1e6 / replay_s.max(1e-9), "MB/s");
}

/// The HTTP floor on the idle server, then the drain, the journal totals,
/// and a timed restart on the state dir that now holds every completed
/// journal — which must still serve the last job's summary.
fn restart(
    daemon: Daemon,
    state_dir: &Path,
    logs: &BTreeMap<usize, JobLog>,
    report: &mut Report,
) -> io::Result<()> {
    let client = daemon.client();
    let mut healthz_ms = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let (resp, wall) = timed(|| client.healthz());
        report.ops += 1;
        report.check(resp.is_ok_and(|r| r.status == 200), || "healthz failed".to_owned());
        healthz_ms.push(wall.as_secs_f64() * 1e3);
    }
    report.set("serve.healthz_ms.p50", quantile(&mut healthz_ms, 0.5), "ms");
    report.ops += 1;
    daemon.shutdown()?;
    // The state dir also holds the warm-up job.
    let (journals, records, journal_bytes, committed) = journal_totals(&state_dir.join("jobs"))?;
    let jobs = logs.len();
    report.check(journals == jobs + 1, || format!("{journals} journals for {jobs} jobs"));
    let per_trial = |n: f64| n / committed.max(1) as f64;
    report.set("serve.journal.fsyncs_per_trial", per_trial(2.0 * records as f64), "1/trial");
    report.set("serve.journal.bytes_per_trial", per_trial(journal_bytes as f64), "B");

    let (restarted, restart) = timed(|| Daemon::start(state_dir));
    let restarted = restarted?;
    report.set("serve.restart_s", restart.as_secs_f64(), "s");
    report.set("serve.recover_ms_per_job", restart.as_secs_f64() * 1e3 / journals as f64, "ms");
    if let Some(last) = logs.values().next_back() {
        report.ops += 1;
        let recovered = summary(&restarted.client(), &last.job)?;
        report.check(recovered.1 == last.quanta, || {
            format!("job {} after the restart: {recovered:?}", last.job)
        });
    }
    report.ops += 1;
    restarted.shutdown()
}

/// Every job's streamed bytes (FNV-1a) and summary quanta must equal an
/// in-process render of its spec. Returns the renders, by spec.
fn check_streams(
    parsed: &[JobSpec],
    logs: &BTreeMap<usize, JobLog>,
    report: &mut Report,
) -> io::Result<BTreeMap<usize, RenderSink>> {
    let mut renders: BTreeMap<usize, RenderSink> = BTreeMap::new();
    for log in logs.values() {
        let expect = match renders.entry(log.spec) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => {
                let mut sink = RenderSink::default();
                render(&parsed[log.spec], &mut sink)?;
                slot.insert(sink)
            }
        };
        report.check(log.hash == fnv1a(&expect.out) && log.quanta == expect.quanta(), || {
            format!("a job of spec {} differs from its in-process render", log.spec)
        });
    }
    Ok(renders)
}

/// One closed-loop client (tenant `t<id>`) and what it keeps across rounds:
/// its replay choices and its counters.
struct Driver {
    client: Client,
    id: usize,
    rng: SplitMix64,
    /// Completed jobs and their line counts: the replay candidates.
    done: Vec<(String, usize)>,
    ops: u64,
    failed: u64,
    rejected: u64,
}

impl Driver {
    fn new(run: &Run, daemon: &Daemon, id: usize) -> Driver {
        let rng = run.rng(2 + id as u64);
        Driver {
            client: daemon.client(),
            id,
            rng,
            done: Vec::new(),
            ops: 0,
            failed: 0,
            rejected: 0,
        }
    }

    /// Claims job indices from `next` until `end`, running each. A failed
    /// job stops this client for the rest of the run.
    fn drive(
        &mut self,
        specs: &[Template],
        end: usize,
        next: &AtomicUsize,
        logs: &Mutex<BTreeMap<usize, JobLog>>,
    ) {
        while self.failed == 0 {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= end {
                break;
            }
            let spec = k % specs.len();
            match self.run_job(&specs[spec].json(&format!("t{}", self.id))) {
                Ok(mut log) => {
                    log.spec = spec;
                    logs.lock().expect("job log").insert(k, log);
                }
                Err(e) => {
                    self.failed += 1;
                    eprintln!("stackbench: client {}, job {k}: {e}", self.id);
                }
            }
        }
    }

    /// Submit → stream to EOF → summary, then a replay.
    fn run_job(&mut self, spec: &str) -> io::Result<JobLog> {
        let client = &self.client;
        let start = Instant::now();
        let job = loop {
            self.ops += 1;
            match client.submit(spec)? {
                Submitted::Accepted { job_id, .. } => break job_id,
                Submitted::Rejected { retriable: true, backoff_ms, .. } => {
                    self.rejected += 1;
                    std::thread::sleep(Duration::from_millis(backoff_ms.unwrap_or(100)));
                }
                Submitted::Rejected { status, error, .. } => {
                    self.rejected += 1;
                    return Err(io::Error::other(format!("submit rejected ({status} {error})")));
                }
            }
        };
        let submit_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut first_ms = None;
        let mut bytes = Vec::new();
        self.ops += 1;
        client.stream_lines(&job, 0, |line| {
            first_ms.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        })?;
        let job_ms = start.elapsed().as_secs_f64() * 1e3;
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();

        self.ops += 1;
        let (mean_error, quanta) = summary(client, &job)?;

        // Replay one of this client's completed jobs from a seed-chosen line.
        self.done.push((job.clone(), lines));
        let (replay, replay_lines) = &self.done[self.rng.below(self.done.len())];
        let from = self.rng.below(*replay_lines);
        let (mut got, mut replay_bytes) = (0usize, 0usize);
        self.ops += 1;
        let (streamed, replay_wall) = timed(|| {
            client.stream_lines(replay, from as u64, |line| {
                got += 1;
                replay_bytes += line.len() + 1;
            })
        });
        streamed?;
        if got != replay_lines - from {
            return Err(io::Error::other(format!("replay of {replay} from {from}: {got} lines")));
        }
        Ok(JobLog {
            job,
            spec: 0,
            submit_ms,
            first_ms: first_ms.unwrap_or(job_ms),
            job_ms,
            lines,
            hash: fnv1a(&bytes),
            quanta,
            mean_error,
            replay_ms: replay_wall.as_secs_f64() * 1e3,
            replay_bytes,
        })
    }
}

/// A finished job's summary: mean error and exact (scaled, baseline) quanta.
/// Anything but a `complete` verdict is an error.
fn summary(client: &Client, job: &str) -> io::Result<(f64, (u128, u128))> {
    let resp = client.summary(job)?;
    let doc = resp.json().map_err(io::Error::other)?;
    let verdict = doc.get("verdict").and_then(|v| v.as_str()).unwrap_or("");
    if resp.status != 200 || verdict != "complete" {
        return Err(io::Error::other(format!("job {job}: {} verdict `{verdict}`", resp.status)));
    }
    let quanta = |key: &str| doc.get(key).and_then(|q| q.as_u128()).unwrap_or(0);
    let mean_error = doc.get("mean_error").and_then(|e| e.as_f64()).unwrap_or(f64::NAN);
    Ok((mean_error, (quanta("quanta_total"), quanta("quanta_baseline"))))
}

/// Journals, chunk records (2 fsyncs each), journal bytes and committed
/// output lines over every job dir.
fn journal_totals(jobs_dir: &Path) -> io::Result<(usize, usize, u64, usize)> {
    let (mut journals, mut records, mut bytes, mut lines) = (0, 0, 0, 0);
    for entry in fs::read_dir(jobs_dir)? {
        let dir = entry?.path();
        let journal = fs::read_to_string(dir.join("journal.ndjson"))?;
        journals += 1;
        records += journal.matches("\"rec\":\"chunk\"").count();
        bytes += journal.len() as u64;
        lines += fs::read(dir.join("output.ndjson"))?.iter().filter(|&&b| b == b'\n').count();
    }
    Ok((journals, records, bytes, lines))
}

/// Renders trials as `campaignd` commits them (`wall` zeroed; one campaign
/// per job, so indices are already job-global) into `out`, the stand-in for
/// `campaignd`'s chunk buffer.
#[derive(Default)]
struct RenderSink<W = Vec<u8>> {
    out: W,
    trials: Vec<Rendered>,
}

impl<W> RenderSink<W> {
    /// Exact scaled and baseline quanta, as the job summary reports them.
    fn quanta(&self) -> (u128, u128) {
        self.trials
            .iter()
            .fold((0, 0), |(t, b), r| (t + r.quanta_total.get(), b + r.quanta_baseline.get()))
    }
}

impl<W: Write + Send> TrialSink for RenderSink<W> {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        let rendered = Rendered::of(trial);
        self.out.write_all(&rendered.line)?;
        self.trials.push(rendered);
        Ok(())
    }
}

/// Runs `spec` in-process as `campaignd` would: `JobSpec::trial_spec`
/// trials, the spec's chunk size, [`THREADS`] workers.
fn render(spec: &JobSpec, sink: &mut dyn TrialSink) -> io::Result<()> {
    let source = SpecFn::new(spec.total_trials(), |i| spec.trial_spec(i, 0));
    run_campaign_streamed(&source, &options(spec), sink).map(drop)
}

/// [`THREADS`] workers claiming the spec's chunks.
fn options(spec: &JobSpec) -> CampaignOptions {
    CampaignOptions { threads: THREADS, chunk: spec.chunk, ..CampaignOptions::default() }
}

/// The traced extras: the same jobs in-process, each round untraced and
/// traced, and the journal probe on real chunk payloads.
fn traced(
    run: &Run,
    report: &mut Report,
    parsed: &[JobSpec],
    specs: &[Template],
    jobs: usize,
    service_per_s: f64,
    renders: &BTreeMap<usize, RenderSink>,
) -> io::Result<()> {
    let refs = References::compute(&all_apps());
    let per_round = jobs / ROUNDS;
    let mut writes = SinkTrace::default();
    let phase = run.rounds(&refs, |r, p| {
        let round = (r * per_round..(r + 1) * per_round).map(|k| &parsed[k % parsed.len()]);
        let trials: usize = round.clone().map(JobSpec::total_trials).sum();
        let (result, wall) = timed(|| {
            round.into_iter().try_for_each(|spec| {
                let source = SpecFn::new(spec.total_trials(), |i| spec.trial_spec(i, 0));
                if p.traced() {
                    let mut sink = RenderSink::<TimedWriter<Vec<u8>>>::default();
                    p.campaign(&source, &options(spec), &mut sink)?;
                    writes.add(&sink.out);
                } else {
                    p.campaign(&source, &options(spec), &mut RenderSink::<Vec<u8>>::default())?;
                }
                Ok::<_, io::Error>(())
            })
        });
        result?;
        p.pass.round(trials, wall);
        Ok(())
    })?;
    let (inproc, traced) = (&phase.untraced, &phase.traced);
    report.ops += (inproc.trials + traced.trials) as u64;
    report.set("serve.inproc_trials_per_s", inproc.rate(), "trial/s");
    report.set("serve.overhead_share", 1.0 - service_per_s / inproc.rate(), "fraction");
    phase.trace.report(report);
    phase.trace.report_sink(&writes, report);
    traced.report_overhead(inproc, report);

    // The chunks campaignd committed, payloads and records as it wrote them.
    let commits: Vec<_> =
        renders.iter().flat_map(|(&s, r)| probe::chunks(&r.trials, parsed[s].chunk)).collect();
    let (&first, _) = renders.iter().next().expect("at least one job ran");
    probe::finish(run, &specs[first].json("t0"), &commits, report)
}
