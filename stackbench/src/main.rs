//! `stackbench` — one benchmark that drives the same fault-injection trials
//! through every layer of the stack: hardware kernels (`hw`), app trials
//! (`trial`), the streaming campaign engine (`engine`), its sinks (`sink`),
//! the online scheduler and recovery ladder (`sched`, `recovery`), and the
//! `campaignd` service (`serve`).
//!
//! ```text
//! stackbench --workload sweep|ndjson|service|guarded --seed S
//!            [--seconds N] [--trace 0|1]
//! ```
//!
//! One invocation runs one workload in a fresh process: set-up (repeated,
//! median reported as `setup_s.wall`), a timed phase whose size is fixed per
//! workload and scaled by `--seconds`, then correctness checks outside the
//! timed phase. For the in-process workloads `setup_s` and `trials_per_s`
//! are corrected for the speed of the shared host (see [`Phase::report`]). Every metric is printed as `name value unit`; the last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A traced run repeats the timed phase with timing wrappers around the
//! engine's `SpecSource`/`TrialSink` and reports the tracing overhead.
//!
//! Exit status: 0 when every check passed, 1 when a check or an operation
//! failed, 2 on a usage error or when `campaignd` was not built.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::qos::{output_error, Output, QosMetric};
use enerj_apps::trials::{
    run_campaign_streamed, CampaignOptions, CampaignSummary, SpecSource, TrialResult, TrialSink,
};
use enerj_apps::App;
use enerj_hw::quanta::{ratio, EnergyQuanta};

use trace::{TimedSink, TimedSource, Trace};

mod guarded;
mod ndjson;
mod probe;
mod service;
mod sweep;
mod trace;

/// Worker threads of every in-process campaign and of `campaignd`, and
/// client threads of `service`: the core count of the 2-core box the
/// workload sizes are calibrated on, fixed so every box runs the same load.
pub const THREADS: usize = 2;

/// One trial in this many is kept for the correctness checks and sampled by
/// the QoS-scoring, sink and journal probes.
pub const SAMPLE_EVERY: usize = 97;

/// Set-ups per run; `setup_s.wall` is their median.
const SETUP_REPEATS: usize = 15;

/// Rounds of the timed phase. The rounds of a workload do the same amount
/// of work, so their rates differ by how much other tenants of the machine
/// slowed them.
pub const ROUNDS: usize = 20;

/// Iterations per thread of one host-speed sample (≈ 8 ms on the 2-vCPU
/// calibration box).
const CALIBRATION_ITERS: u64 = 3_000_000;

/// The host speed `trials_per_s` is scaled to, in million calibration-loop
/// iterations per second summed over [`THREADS`] threads; the calibration
/// box runs the loop at 590–930 depending on its host's load.
const REFERENCE_SPEED: f64 = 1_000.0;

/// The `end_to_end` metrics of `BENCHMARK.json`, reported by `--trace 0`.
const END_TO_END: [&str; 5] =
    ["setup_s", "trials_per_s", "peak_rss_mb", "mean_error", "modeled_energy_frac"];

/// The `per_layer` metrics of `BENCHMARK.json`, reported by `--trace 1`.
const PER_LAYER: [&str; 28] = [
    "hw.sram_read.ns_per_elem",
    "hw.dram_read.ns_per_elem",
    "hw.int_result.ns_per_elem",
    "hw.fp_result.ns_per_elem",
    "hw.ops_per_trial",
    "hw.faults_per_trial",
    "trial.run_us.p50",
    "trial.run_us.p90",
    "trial.ns_per_op",
    "trial.score_us",
    "trial.panics",
    "engine.spec_us_per_trial",
    "engine.accept_us_per_trial",
    "engine.overhead_us_per_trial",
    "engine.busy_share",
    "engine.reorder_peak",
    "engine.reorder_capacity",
    "sink.serialize_us_per_trial",
    "sink.write_us_per_trial",
    "sink.bytes_per_trial",
    "sched.claim_wait_share",
    "sched.budget_spent_frac",
    "recovery.attempts_per_trial",
    "recovery.useful_ratio",
    "recovery.overhead_quanta_frac",
    "serve.journal.append_ms.p50",
    "serve.journal.append_ms.p90",
    "trace.overhead_share",
];

const WORKLOADS: [&str; 4] = ["sweep", "ndjson", "service", "guarded"];

/// One invocation's settings and scratch space.
pub struct Run {
    /// `--seed`: picks every input of the workload.
    pub seed: u64,
    /// `--seconds`: scales the workload size.
    pub seconds: f64,
    /// `--trace`: add the traced pass and the per-layer probes.
    pub trace: bool,
    /// Scratch directory (state dirs, NDJSON files), removed on exit.
    pub work: PathBuf,
}

impl Run {
    /// A workload size: `per_second × --seconds`, at least `min`.
    pub fn size(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(min)
    }

    /// Trial `i`'s fault seed, `FAULT_SEED_BASE ^ (S << 32 | i)`: the low 30
    /// bits of the seed move bits 61..32, so bits 63..62 stay `00` (the
    /// evaluation stream, disjoint from the tuner and retry streams).
    pub fn trial_seed(&self, i: usize) -> u64 {
        debug_assert!(i < 1 << 32, "trial index {i} overflows into the seed bits");
        FAULT_SEED_BASE ^ ((self.seed & 0x3FFF_FFFF) << 32 | i as u64)
    }

    /// A SplitMix64 stream over the seed (plus a stream label).
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64(self.seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Runs the timed phase: [`ROUNDS`] rounds, each one untraced pass and,
    /// with `--trace`, its traced twin, in alternating order so both passes
    /// of a round see the same host speed. `pass(r, p)` runs one pass of
    /// round `r` — usually through [`RoundPass::campaign`] — and records its
    /// rate in `p.pass`. The host speed is sampled before the first round
    /// and after every round.
    pub fn rounds(
        &self,
        refs: &References,
        mut pass: impl FnMut(usize, &mut RoundPass<'_>) -> io::Result<()>,
    ) -> io::Result<Phase> {
        let mut phase = Phase::default();
        phase.speeds.push(host_speed());
        for r in 0..ROUNDS {
            let order: &[bool] = match (self.trace, r % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in order {
                let mut p = if traced {
                    RoundPass { pass: &mut phase.traced, trace: Some((&mut phase.trace, refs)) }
                } else {
                    RoundPass { pass: &mut phase.untraced, trace: None }
                };
                pass(r, &mut p)?;
            }
            phase.speeds.push(host_speed());
        }
        Ok(phase)
    }

    /// Runs `setup` [`SETUP_REPEATS`] times, reports the median as
    /// `setup_s.wall`, and returns the last result (earlier ones are
    /// dropped).
    pub fn setup<T>(
        &self,
        report: &mut Report,
        mut setup: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let (value, wall) = timed(&mut setup);
            times.push(wall.as_secs_f64());
            last = Some(value?);
        }
        report.set("setup_s.wall", trace::quantile(&mut times, 0.5), "s");
        Ok(last.expect("at least one set-up"))
    }
}

/// The SplitMix64 generator: the seed's only source of input choices.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Every metric measured, plus the op and failure counts.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted: delivered trials in-process, HTTP requests for
    /// `service`.
    pub ops: u64,
    /// Failed operations and failed correctness checks.
    pub failed: u64,
}

impl Report {
    /// Sets metric `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, v, u)) => (*v, *u) = (value, unit),
            None => self.metrics.push((name.to_owned(), value, unit)),
        }
    }

    /// Counts a failed check (and says why on stderr) unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            eprintln!("stackbench: CHECK FAILED: {}", what());
        }
        ok
    }

    fn get(&self, name: &str) -> Option<&(String, f64, &'static str)> {
        self.metrics.iter().find(|(n, _, _)| n == name)
    }
}

/// Fault-free reference output and QoS metric of each app, by name.
pub struct References(HashMap<&'static str, (QosMetric, Arc<Output>)>);

impl References {
    /// Runs every app's reference execution.
    pub fn compute(apps: &[App]) -> References {
        References::new(apps, apps.iter().map(|a| Arc::new(harness::reference(a).output)).collect())
    }

    /// Pairs apps with already computed reference outputs.
    pub fn new(apps: &[App], outputs: Vec<Arc<Output>>) -> References {
        References(
            apps.iter()
                .map(|a| a.meta.name)
                .zip(apps.iter().map(|a| a.meta.metric).zip(outputs))
                .collect(),
        )
    }

    pub fn output(&self, app: &str) -> Arc<Output> {
        Arc::clone(&self.0[app].1)
    }

    /// `qos::output_error` of `output` against `app`'s reference.
    pub fn score(&self, app: &str, output: &Output) -> Option<f64> {
        self.0.get(app).map(|(metric, reference)| output_error(*metric, reference, output))
    }
}

/// Keeps every [`SAMPLE_EVERY`]th trial for the checks, its index made
/// workload-global by adding `base` (the round's first trial), and drops
/// the rest without serializing anything.
#[derive(Default)]
pub struct SampleSink {
    pub base: usize,
    pub kept: Vec<TrialResult>,
}

impl TrialSink for SampleSink {
    fn accept(&mut self, mut trial: TrialResult) -> io::Result<()> {
        if trial.index.is_multiple_of(SAMPLE_EVERY) {
            trial.index += self.base;
            self.kept.push(trial);
        }
        Ok(())
    }
}

/// What a trial's cost depends on besides its fault draws: app, level label
/// and attempt count. Trials of one kind do the same work.
type Work = (&'static str, String, u32);

/// The trial walls of one round: their sum, and how many trials of each
/// kind (indexed as [`Pass::fastest`]) ran.
#[derive(Default)]
struct RoundWalls {
    sum: Duration,
    per_kind: Vec<usize>,
}

/// The timed rounds of one pass (the untraced or the traced one): their
/// rates, the trial walls seen through [`Pass::recorder`], and the outcome
/// totals the end-to-end metrics derive from.
#[derive(Default)]
pub struct Pass {
    rates: Vec<f64>,
    walls: Vec<RoundWalls>,
    open: RoundWalls,
    /// The fastest wall of each kind of work over the whole pass.
    fastest: Vec<(Work, Duration)>,
    pub trials: usize,
    error_sum: f64,
    quanta_total: EnergyQuanta,
    quanta_baseline: EnergyQuanta,
}

impl Pass {
    /// Records a round's rate, closing its trial walls.
    pub fn round(&mut self, trials: usize, wall: Duration) {
        self.rates.push(trials as f64 / wall.as_secs_f64());
        self.trials += trials;
        self.walls.push(std::mem::take(&mut self.open));
    }

    /// A sink that notes each trial's wall in this pass, then hands the
    /// trial to `inner`.
    pub fn recorder<'a>(&'a mut self, inner: &'a mut dyn TrialSink) -> Recorder<'a> {
        Recorder { inner, pass: self }
    }

    /// Notes a trial's wall under its kind of work. Panicked trials stop
    /// early, so their walls say nothing about the speed of the host.
    fn record(&mut self, trial: &TrialResult) {
        if trial.panicked() {
            return;
        }
        let same = |(w, _): &(Work, Duration)| {
            w.0 == trial.app && w.1 == trial.label && w.2 == trial.attempts
        };
        let kind = match self.fastest.iter().position(same) {
            Some(k) => k,
            None => {
                self.fastest.push(((trial.app, trial.label.clone(), trial.attempts), trial.wall));
                self.fastest.len() - 1
            }
        };
        let fastest = &mut self.fastest[kind].1;
        *fastest = (*fastest).min(trial.wall);
        if self.open.per_kind.len() <= kind {
            self.open.per_kind.resize(kind + 1, 0);
        }
        self.open.per_kind[kind] += 1;
        self.open.sum += trial.wall;
    }

    /// Each round's slowdown: its trial walls over what the same trials
    /// would have taken had each run as fast as the fastest of its kind.
    fn slowdowns(&self) -> Vec<f64> {
        self.walls
            .iter()
            .map(|round| {
                let fastest: f64 = round
                    .per_kind
                    .iter()
                    .zip(&self.fastest)
                    .map(|(&n, (_, wall))| n as f64 * wall.as_secs_f64())
                    .sum();
                round.sum.as_secs_f64() / fastest
            })
            .collect()
    }

    /// Records the outcome of `trials` trials with mean error `mean_error`.
    pub fn outcome(&mut self, trials: usize, mean_error: f64, quanta: (u128, u128)) {
        self.error_sum += mean_error * trials as f64;
        self.quanta_total += EnergyQuanta::new(quanta.0);
        self.quanta_baseline += EnergyQuanta::new(quanta.1);
    }

    /// Records an in-process round: its rate and its outcome.
    pub fn add(&mut self, summary: &CampaignSummary, wall: Duration) {
        self.round(summary.trials, wall);
        let q = &summary.energy_quanta;
        self.outcome(summary.trials, summary.mean_error, (q.total.get(), q.baseline_total.get()));
    }

    /// Trials per second of the median round, by the wall clock.
    pub fn rate(&self) -> f64 {
        trace::quantile(&mut self.rates.clone(), 0.5)
    }

    /// `trace.overhead_share`: 1 − the median over rounds of this traced
    /// pass's rate over its untraced twin's.
    pub fn report_overhead(&self, untraced: &Pass, report: &mut Report) {
        let mut ratios: Vec<f64> =
            self.rates.iter().zip(&untraced.rates).map(|(t, u)| t / u).collect();
        report.set("trace.overhead_share", 1.0 - trace::quantile(&mut ratios, 0.5), "fraction");
    }

    /// Whether `other` produced bit-identical outcomes.
    pub fn same_outcome(&self, other: &Pass) -> bool {
        self.trials == other.trials
            && self.error_sum.to_bits() == other.error_sum.to_bits()
            && self.quanta_total == other.quanta_total
            && self.quanta_baseline == other.quanta_baseline
    }

    /// Reports `mean_error`, `modeled_energy_frac` and the wall-clock rate
    /// `trials_per_s.wall`.
    pub fn report(&self, report: &mut Report) {
        report.set("trials_per_s.wall", self.rate(), "trial/s");
        report.set("mean_error", self.error_sum / self.trials.max(1) as f64, "fraction");
        let baseline = self.quanta_baseline.max(EnergyQuanta::new(1));
        report.set("modeled_energy_frac", ratio(self.quanta_total, baseline), "fraction");
    }
}

/// Notes each trial's wall in a [`Pass`] on its way to the wrapped sink.
pub struct Recorder<'a> {
    inner: &'a mut dyn TrialSink,
    pass: &'a mut Pass,
}

impl TrialSink for Recorder<'_> {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        self.pass.record(&trial);
        self.inner.accept(trial)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The timed phase's two passes, the spans of the traced one, and the host
/// speed sampled around the rounds.
#[derive(Default)]
pub struct Phase {
    pub untraced: Pass,
    pub traced: Pass,
    pub trace: Trace,
    speeds: Vec<f64>,
}

impl Phase {
    /// Reports the untraced pass's end-to-end metrics, with `trials_per_s`
    /// and `setup_s` corrected for the host. Two factors of this run make the
    /// correction: `host.slowdown`, the median round slowdown, which takes
    /// out the bursts in which other tenants slowed the trials, and
    /// `host.speed`, the 75th percentile of the calibration samples, which
    /// takes out the slower drift of the whole host.
    ///
    /// - `trials_per_s`: the median over rounds of the round's rate times
    ///   its own slowdown, scaled by [`REFERENCE_SPEED`] / `host.speed`.
    /// - `setup_s`: `setup_s.wall` divided by `host.slowdown` and scaled by
    ///   `host.speed` / [`REFERENCE_SPEED`]. The set-ups ran seconds before
    ///   the rounds, on the same host.
    pub fn report(&self, report: &mut Report) {
        let pass = &self.untraced;
        pass.report(report);
        let slowdowns = pass.slowdowns();
        let mut rates: Vec<f64> = pass.rates.iter().zip(&slowdowns).map(|(r, s)| r * s).collect();
        let slowdown = trace::quantile(&mut slowdowns.clone(), 0.5);
        let speed = trace::quantile(&mut self.speeds.clone(), 0.75);
        let scale = REFERENCE_SPEED / speed;
        report.set("trials_per_s", trace::quantile(&mut rates, 0.5) * scale, "trial/s");
        let setup = report.get("setup_s.wall").expect("the set-up ran").1;
        report.set("setup_s", setup / slowdown / scale, "s");
        report.set("host.slowdown", slowdown, "x");
        report.set("host.speed", speed, "Mit/s");
    }
}

/// One sample of the host's speed: [`THREADS`] threads each run
/// [`CALIBRATION_ITERS`] steps of a xorshift loop over a 32 KiB table —
/// benchmark code no change to the program can speed up — and the sample
/// is their summed rate, in million iterations per second.
fn host_speed() -> f64 {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut table = vec![0u64; 4096];
                    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15 ^ t, 0u64);
                    let start = Instant::now();
                    for _ in 0..CALIBRATION_ITERS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let slot = &mut table[x as usize % 4096];
                        acc = acc.wrapping_add(*slot);
                        *slot = acc;
                    }
                    std::hint::black_box(acc);
                    CALIBRATION_ITERS as f64 / 1e6 / start.elapsed().as_secs_f64()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("the calibration loop cannot panic")).sum()
    })
}

/// One pass of a round: the untraced one, or its traced twin.
pub struct RoundPass<'a> {
    pub pass: &'a mut Pass,
    trace: Option<(&'a mut Trace, &'a References)>,
}

impl RoundPass<'_> {
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Runs one campaign of `source` into `sink` and returns its summary and
    /// wall time. The untraced pass notes the trial walls through
    /// [`Pass::recorder`]; the traced pass wraps source and sink in
    /// `TimedSource` and `TimedSink` and folds their spans into the trace.
    pub fn campaign<S: SpecSource + ?Sized>(
        &mut self,
        source: &S,
        opts: &CampaignOptions,
        sink: &mut dyn TrialSink,
    ) -> io::Result<(CampaignSummary, Duration)> {
        let Some((trace, refs)) = &mut self.trace else {
            let mut sink = self.pass.recorder(sink);
            let (summary, wall) = timed(|| run_campaign_streamed(source, opts, &mut sink));
            return Ok((summary?, wall));
        };
        let source = TimedSource::new(source);
        let (summary, wall) = timed(|| {
            let mut sink = TimedSink::new(sink, refs, trace);
            run_campaign_streamed(&source, opts, &mut sink)
        });
        let summary = summary?;
        trace.end_campaign(&source, &summary);
        Ok((summary, wall))
    }
}

/// Runs `f`, returning its value and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Resident-set high-water mark (`VmHWM`) of `pid`, or of this process, in
/// MB (10^6 bytes).
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path)?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in proc status"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// The run's scratch directory under the package, removed on drop — also
/// when a workload fails or panics.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> io::Result<WorkDir> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `work/` itself only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `campaignd`, built next to this executable.
pub fn campaignd_path() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.with_file_name(format!("campaignd{}", std::env::consts::EXE_SUFFIX))
}

const USAGE: &str = "usage: stackbench --workload sweep|ndjson|service|guarded --seed S \
                     [--seconds N] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(&'static str, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--workload" => {
                let v = value.ok_or("--workload needs a value")?;
                let known = WORKLOADS.iter().find(|w| **w == v);
                workload = Some(*known.ok_or(format!("unknown workload `{v}`"))?);
                i += 2;
            }
            "--seed" => {
                let v = value.ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
                i += 2;
            }
            "--seconds" => {
                let v = value.ok_or("--seconds needs a value")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
                i += 2;
            }
            "--trace" => {
                trace = match value {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                };
                i += 2;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok((workload, Run { seed, seconds, trace, work: PathBuf::new() }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, mut run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("stackbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !campaignd_path().is_file() {
        eprintln!(
            "stackbench: {} is missing; build both binaries first:\n  \
             cargo build --release --manifest-path stackbench/Cargo.toml",
            campaignd_path().display()
        );
        return ExitCode::from(2);
    }
    let work = match WorkDir::create(name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("stackbench: cannot create the scratch dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    run.work = work.0.clone();

    let mut report = Report::default();
    let outcome = match name {
        "sweep" => sweep::run(&run, &mut report),
        "ndjson" => ndjson::run(&run, &mut report),
        "service" => service::run(&run, &mut report),
        _ => guarded::run(&run, &mut report),
    };
    drop(work);
    if let Err(e) = outcome {
        report.check(false, || format!("{name} aborted: {e}"));
    }
    let ops = report.ops;
    report.check(ops > 0, || "no operation was attempted".to_owned());

    for (metric, value, unit) in &report.metrics {
        println!("{metric:<34} {value} {unit}");
    }
    let wanted: &[&str] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &metric in wanted {
        match report.get(metric) {
            // f64's Display prints every digit and never an exponent, so it
            // is always a valid JSON number.
            Some((_, value, unit)) if value.is_finite() => {
                fields.push(format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
            }
            other => {
                let found = other.map(|(_, v, _)| *v);
                report.check(false, || format!("metric {metric} not measured ({found:?})"));
            }
        }
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ops.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
