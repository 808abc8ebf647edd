//! Where completed trials go, in index order: the [`TrialSink`] trait and
//! its in-memory, discarding and NDJSON sinks.

use super::{write_trial_json, TrialResult};

/// Where completed trials go. The engine calls `accept` exactly once per
/// trial, in strict index order, from the one worker currently serving the
/// reorder window's drain (hence `Send`): calls never overlap, but
/// successive batches may come from different worker threads, and no
/// engine lock is held during a call, so a slow sink costs the serving
/// worker only. A sink that errors does not abort the campaign —
/// remaining trials still run and aggregate — but the error is returned
/// from [`run_campaign_streamed`](super::run_campaign_streamed) and later
/// trials are dropped instead of delivered.
pub trait TrialSink: Send {
    /// Consumes the next trial (indices arrive as 0, 1, 2, …).
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()>;

    /// Flushes buffered output. The engine calls this exactly once per
    /// campaign, after the last delivered trial; an error surfaces as the
    /// campaign's `io::Result`, so a buffered sink can never silently lose
    /// its tail.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects every trial in memory — the sink behind
/// [`CampaignReport::collect`](super::CampaignReport::collect), O(trials)
/// memory by design.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected trials, in index order.
    pub trials: Vec<TrialResult>,
}

impl TrialSink for VecSink {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        self.trials.push(trial);
        Ok(())
    }
}

/// Discards every trial (aggregates still accumulate in the summary) —
/// for campaigns that only need totals, e.g. mean-error sweeps.
#[derive(Debug, Default)]
pub struct NullSink;

impl TrialSink for NullSink {
    fn accept(&mut self, _trial: TrialResult) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams each trial as one JSON line ([`trial_json`](super::trial_json)) — the
/// campaign-scale sink: a million-trial run needs disk, not memory.
///
/// Lines are rendered straight into one block, handed to the writer once
/// it holds 64 KiB and again at [`flush`](TrialSink::flush),
/// [`into_inner`](Self::into_inner) or drop. Only `flush` reports a write
/// error of the tail; the other two ignore it, as `BufWriter`'s drop does.
#[derive(Debug)]
pub struct NdjsonSink<W: std::io::Write + Send> {
    /// `None` only once [`into_inner`](Self::into_inner) took it.
    out: Option<W>,
    /// Rendered lines not yet handed to `out`, reused so a record
    /// allocates nothing.
    block: String,
}

/// The bytes an [`NdjsonSink`] gathers per write: a writer's own buffer
/// (8 KiB for a `BufWriter`) passes a block this large straight through.
const NDJSON_BLOCK: usize = 64 * 1024;

impl<W: std::io::Write + Send> NdjsonSink<W> {
    /// Wraps a writer (a file needs no `BufWriter`: lines reach it in
    /// 64 KiB blocks).
    pub fn new(out: W) -> Self {
        // Room for the line that takes the block past its size.
        NdjsonSink { out: Some(out), block: String::with_capacity(NDJSON_BLOCK + 8 * 1024) }
    }

    /// Hands the pending lines to the writer and unwraps it (flush the
    /// writer before reading the stream back).
    pub fn into_inner(mut self) -> W {
        let _ = self.write_block();
        self.out.take().expect("only into_inner takes the writer")
    }

    /// Hands the pending lines to the writer. They are dropped on error,
    /// so a later retry does not write a partly written block twice.
    fn write_block(&mut self) -> std::io::Result<()> {
        let Some(out) = &mut self.out else { return Ok(()) };
        let written = out.write_all(self.block.as_bytes());
        self.block.clear();
        written
    }
}

impl<W: std::io::Write + Send> Drop for NdjsonSink<W> {
    fn drop(&mut self) {
        let _ = self.write_block();
    }
}

impl<W: std::io::Write + Send> TrialSink for NdjsonSink<W> {
    fn accept(&mut self, trial: TrialResult) -> std::io::Result<()> {
        write_trial_json(&mut self.block, &trial);
        self.block.push('\n');
        if self.block.len() >= NDJSON_BLOCK {
            self.write_block()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.write_block()?;
        std::io::Write::flush(self.out.as_mut().expect("only into_inner takes the writer"))
    }
}
