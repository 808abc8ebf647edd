//! The worker pool: chunk claims under leases, lease reclamation and
//! deadlines, and the campaign run behind each claim.

use std::io;
use std::time::{Duration, Instant};

use super::commit::close;
use super::{ChunkState, Server, State};
use crate::journal::{fnv1a, ChunkRecord};
use crate::spec::JobSpec;
use enerj_apps::trials::{
    run_campaign_streamed, write_trial_json, CampaignOptions, SpecFn, TrialResult, TrialSink,
};

/// A worker's claim on one chunk.
struct Claim {
    job_id: String,
    chunk: usize,
    gen: u64,
    degrade: u32,
    spec: JobSpec,
    stall_ms: Option<u64>,
    panic_now: bool,
}

impl Server {
    /// Claims a chunk, runs it unlocked, then parks the result and claims
    /// the next one under a single lock acquisition. A drain stops the loop
    /// only after the last result is parked, for the committer to flush.
    pub(super) fn worker_loop(&self) {
        let mut done = None;
        loop {
            let claim = {
                let mut st = self.lock();
                if let Some((claim, bytes, rec)) = done.take() {
                    self.park(&mut st, claim, bytes, rec);
                }
                loop {
                    let now = Instant::now();
                    self.reclaim_and_deadlines(&mut st, now);
                    if st.draining {
                        break None;
                    }
                    if let Some(c) = self.claim_next(&mut st, now) {
                        break Some(c);
                    }
                    let tick = (self.cfg.lease / 4).max(Duration::from_millis(10));
                    st = self.work.wait_timeout(st, tick).unwrap_or_else(|e| e.into_inner()).0;
                }
            };
            let Some(claim) = claim else { return };
            if claim.panic_now {
                panic!("test hook: worker killed at claim {}", claim.chunk);
            }
            if let Some(ms) = claim.stall_ms {
                // Test hook: the worker goes dark mid-chunk. Its lease
                // expires, the chunk re-runs elsewhere, and the result
                // computed here is discarded by the generation check.
                std::thread::sleep(Duration::from_millis(ms));
            }
            let (bytes, rec) = run_chunk(&claim);
            done = Some((claim, bytes, rec));
        }
    }

    /// Ticks even when every worker is wedged in compute: reclaims expired
    /// leases and fires job deadlines so a stalled pool cannot stall the
    /// clock-driven transitions too. Waits out each tick on the `work`
    /// condvar rather than sleeping, so a drain (`/shutdown` notifies
    /// `work`) ends the loop at once instead of up to a quarter lease later.
    pub(super) fn supervisor_loop(&self) {
        let tick = (self.cfg.lease / 4).max(Duration::from_millis(10));
        loop {
            let due = Instant::now() + tick;
            let mut st = self.lock();
            while !st.draining {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                st = self.work.wait_timeout(st, due - now).unwrap_or_else(|e| e.into_inner()).0;
            }
            let draining = st.draining;
            self.reclaim_and_deadlines(&mut st, Instant::now());
            drop(st);
            self.work.notify_all();
            if draining {
                return;
            }
        }
    }

    /// Returns expired leases to `Pending` (bumping generations so late
    /// results are discarded) and closes jobs past their deadline.
    fn reclaim_and_deadlines(&self, st: &mut State, now: Instant) {
        let State { jobs, live, .. } = st;
        let mut closed = false;
        for id in live.iter() {
            let job = jobs.get_mut(id).expect("live jobs are registered");
            if job.closing.is_some() {
                continue;
            }
            if job.deadline_at.is_some_and(|d| now >= d) {
                close(job, "deadline_exceeded");
                closed = true;
                continue;
            }
            for (c, s) in job.states.iter_mut().enumerate() {
                if let ChunkState::Leased { expires, .. } = s {
                    if now >= *expires {
                        job.gens[c] += 1;
                        *s = ChunkState::Pending;
                    }
                }
            }
        }
        if closed {
            self.to_commit.notify_one();
        }
    }

    /// Claims the next runnable chunk: round-robin across the live jobs
    /// for fairness, lowest pending chunk first, within the in-flight window
    /// past the committer's frontier that bounds parked-payload memory per
    /// job.
    fn claim_next(&self, st: &mut State, now: Instant) -> Option<Claim> {
        let State { jobs, live, rr, claims, .. } = st;
        let window = (self.cfg.workers * 2).max(2);
        let n = live.len();
        for off in 0..n {
            let idx = (*rr + off) % n;
            let job = jobs.get_mut(&live[idx]).expect("live jobs are registered");
            if job.closing.is_some() {
                continue;
            }
            let taken = job.states[job.next_commit..]
                .iter()
                .take_while(|s| matches!(s, ChunkState::Committed))
                .count();
            let start = job.next_commit + taken;
            let end = (start + window).min(job.spec.total_chunks());
            for c in start..end {
                if matches!(job.states[c], ChunkState::Pending) {
                    job.gens[c] += 1;
                    job.states[c] = ChunkState::Leased { expires: now + self.cfg.lease };
                    *claims += 1;
                    let claim = Claim {
                        job_id: live[idx].clone(),
                        chunk: c,
                        gen: job.gens[c],
                        degrade: job.degrade,
                        spec: job.spec.clone(),
                        stall_ms: self
                            .cfg
                            .test_stall_claim
                            .filter(|&(nth, _)| nth == *claims)
                            .map(|(_, ms)| ms),
                        panic_now: self.cfg.test_panic_claim == Some(*claims),
                    };
                    *rr = (idx + 1) % n;
                    return Some(claim);
                }
            }
        }
        None
    }

    /// Parks a computed chunk for the committer if its claim is still
    /// current. A result computed under a rung the job has since left is
    /// stale: the chunk re-runs at once.
    fn park(&self, st: &mut State, claim: Claim, bytes: Vec<u8>, rec: ChunkRecord) {
        let Some(job) = st.jobs.get_mut(&claim.job_id) else { return };
        let c = claim.chunk;
        if job.closing.is_some()
            || !matches!(job.states[c], ChunkState::Leased { .. })
            || job.gens[c] != claim.gen
        {
            // Stale: the lease was reclaimed or the job is closing, and
            // someone else owns this chunk now (or nobody does). Discard
            // silently — determinism is preserved because only committed
            // bytes are observable.
            return;
        }
        if rec.degrade_after == job.degrade {
            job.states[c] = ChunkState::Parked(bytes, rec);
            self.to_commit.notify_one();
        } else {
            job.gens[c] += 1;
            job.states[c] = ChunkState::Pending;
        }
    }
}

/// Executes one claimed chunk through the streaming engine (serially —
/// parallelism in this service comes from the pool, not from nesting) and
/// returns its NDJSON bytes with their journal record, hashed here so the
/// commit under the state lock only decides `degrade_after`. Trial indices
/// are remapped chunk-local → global and `wall` is zeroed: wall time is the
/// one nondeterministic field of `trial_json`, and the service's contract
/// is byte-determinism.
fn run_chunk(claim: &Claim) -> (Vec<u8>, ChunkRecord) {
    /// Renders the lines and folds the error sum in trial order: the
    /// summary carries only the mean, and a mean times a count is not the
    /// bit-exact sum the journal records.
    struct ChunkSink {
        lo: usize,
        text: String,
        error_sum: f64,
    }
    impl TrialSink for ChunkSink {
        fn accept(&mut self, mut t: TrialResult) -> io::Result<()> {
            t.index += self.lo;
            t.wall = Duration::ZERO;
            self.error_sum += t.error;
            write_trial_json(&mut self.text, &t);
            self.text.push('\n');
            Ok(())
        }
    }
    let (lo, hi) = claim.spec.chunk_range(claim.chunk);
    let source = SpecFn::new(hi - lo, |i| claim.spec.trial_spec(lo + i, claim.degrade));
    let opts = CampaignOptions { threads: 1, chunk: hi - lo, ..CampaignOptions::default() };
    let mut sink = ChunkSink { lo, text: String::new(), error_sum: 0.0 };
    let summary = run_campaign_streamed(&source, &opts, &mut sink)
        .expect("the in-memory chunk sink cannot fail");
    let bytes = sink.text.into_bytes();
    let rec = ChunkRecord {
        chunk: claim.chunk,
        lo,
        hi,
        bytes: bytes.len() as u64,
        hash: fnv1a(&bytes),
        quanta_total: summary.energy_quanta.total,
        quanta_baseline: summary.energy_quanta.baseline_total,
        error_sum_bits: sink.error_sum.to_bits(),
        panics: summary.panics,
        degrade_after: claim.degrade,
    };
    (bytes, rec)
}
