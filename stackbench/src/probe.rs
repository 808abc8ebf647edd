//! Probes: direct calls into one layer's public API, timed outside any
//! campaign — the `hw` slice kernels, the `serve` journal commit, and the
//! `sink` serializer for workloads that stream nothing.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter};
use std::path::Path;
use std::time::{Duration, Instant};

use enerj_apps::trials::{trial_json, NdjsonSink, TrialResult, TrialSink};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::{DramArray, Hardware};
use enerj_serve::journal::{fnv1a, ChunkRecord, Journal};

use crate::trace::{nanos, quantile, SinkTrace, TimedWriter};
use crate::{timed, Report, Run};

/// Elements per kernel call.
const SLICE: usize = 4096;
/// Kernel calls per probe (8M elements).
const ROUNDS: usize = 2048;
/// Journal commits per append probe.
const JOURNAL_APPENDS: usize = 64;

/// `hw.*.ns_per_elem`: the four slice kernels on 4096-element slices at
/// Medium.
fn kernels(seed: u64, report: &mut Report) {
    let cfg = HwConfig::for_level(Level::Medium);
    let per_elem = |wall: Duration| wall.as_nanos() as f64 / (SLICE * ROUNDS) as f64;

    let mut hw = Hardware::new(cfg, seed);
    let mut words: Vec<u64> = (0..SLICE as u64).collect();
    let ((), wall) = timed(|| (0..ROUNDS).for_each(|_| hw.sram_read_slice(&mut words, 32, true)));
    black_box(&words);
    report.set("hw.sram_read.ns_per_elem", per_elem(wall), "ns");

    let mut hw = Hardware::new(cfg, seed);
    let mut array = DramArray::new(&mut hw, SLICE, 32, true);
    let ((), wall) = timed(|| (0..ROUNDS).for_each(|_| array.read_slice(&mut hw, 0, &mut words)));
    array.retire(&mut hw);
    black_box(&words);
    report.set("hw.dram_read.ns_per_elem", per_elem(wall), "ns");

    let mut hw = Hardware::new(cfg, seed);
    let ((), wall) = timed(|| (0..ROUNDS).for_each(|_| hw.approx_int_result_slice(&mut words, 32)));
    black_box(&words);
    report.set("hw.int_result.ns_per_elem", per_elem(wall), "ns");

    let mut hw = Hardware::new(cfg, seed);
    let mut xs: Vec<f64> = (0..SLICE).map(|i| 1.000_1 + i as f64 * 1e-7).collect();
    let ((), wall) = timed(|| (0..ROUNDS).for_each(|_| hw.approx_f64_result_slice(&mut xs)));
    black_box(&xs);
    report.set("hw.fp_result.ns_per_elem", per_elem(wall), "ns");
}

/// One trial rendered as `campaignd` commits it (`wall` zeroed, so the line
/// is a pure function of the spec), with the values its chunk record sums.
pub struct Rendered {
    pub line: Vec<u8>,
    pub quanta_total: EnergyQuanta,
    pub quanta_baseline: EnergyQuanta,
    error: f64,
    panicked: bool,
}

impl Rendered {
    pub fn of(mut trial: TrialResult) -> Rendered {
        trial.wall = Duration::ZERO;
        let mut line = trial_json(&trial).into_bytes();
        line.push(b'\n');
        Rendered {
            line,
            quanta_total: trial.energy_quanta.total,
            quanta_baseline: trial.energy_quanta.baseline_total,
            error: trial.error,
            panicked: trial.panicked(),
        }
    }
}

/// Journal commits of `trials` in `chunk`-trial groups: each payload with
/// the record `campaignd` writes for it.
pub fn chunks(trials: &[Rendered], chunk: usize) -> Vec<(Vec<u8>, ChunkRecord)> {
    trials
        .chunks(chunk)
        .enumerate()
        .map(|(c, group)| {
            let payload: Vec<u8> = group.iter().flat_map(|r| r.line.iter().copied()).collect();
            let record = ChunkRecord {
                chunk: c,
                lo: c * chunk,
                hi: c * chunk + group.len(),
                bytes: payload.len() as u64,
                hash: fnv1a(&payload),
                quanta_total: group.iter().map(|r| r.quanta_total).sum(),
                quanta_baseline: group.iter().map(|r| r.quanta_baseline).sum(),
                error_sum_bits: group.iter().map(|r| r.error).sum::<f64>().to_bits(),
                panics: group.iter().filter(|r| r.panicked).count(),
                degrade_after: 0,
            };
            (payload, record)
        })
        .collect()
}

/// The kept sample's journal commits, 8 trials each (`campaignd`'s default
/// chunk).
pub fn sample_commits(sample: &[TrialResult]) -> Vec<(Vec<u8>, ChunkRecord)> {
    let rendered: Vec<Rendered> = sample.iter().cloned().map(Rendered::of).collect();
    chunks(&rendered, 8)
}

/// The probes every traced run ends with: the `hw` kernels, then
/// `serve.journal.append_ms` — `Journal::create` in a fresh scratch
/// directory and one timed `append_chunk` (payload + record, each fsync'd)
/// per commit.
pub fn finish(
    run: &Run,
    spec_text: &str,
    commits: &[(Vec<u8>, ChunkRecord)],
    report: &mut Report,
) -> io::Result<()> {
    kernels(run.seed, report);
    let mut journal = Journal::create(&run.work.join("journal"), spec_text)?;
    let mut ms = Vec::with_capacity(JOURNAL_APPENDS);
    for (payload, record) in commits.iter().take(JOURNAL_APPENDS) {
        let start = Instant::now();
        journal.append_chunk(payload, record)?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.set("serve.journal.append_ms.p50", quantile(&mut ms, 0.5), "ms");
    report.set("serve.journal.append_ms.p90", quantile(&mut ms, 0.9), "ms");
    Ok(())
}

/// The `sink` metrics of a workload that serializes nothing: its kept
/// sample through `NdjsonSink` into a file in `dir`, each `accept` timed.
pub fn sink_sample(dir: &Path, sample: &[TrialResult], report: &mut Report) -> io::Result<()> {
    let out = BufWriter::new(File::create(dir.join("sample.ndjson"))?);
    let mut sink = NdjsonSink::new(TimedWriter::new(out));
    let mut accept_ns = 0;
    for trial in sample {
        let trial = trial.clone();
        let (accepted, wall) = timed(|| sink.accept(trial));
        accepted?;
        accept_ns += nanos(wall);
    }
    sink.flush()?;
    let mut writes = SinkTrace::default();
    writes.add(&sink.into_inner());
    writes.report(accept_ns, sample.len(), report);
    Ok(())
}
