//! The one committer: in-order group appends to each job's journal, the
//! budget decision at every chunk, and job closing.

use std::collections::HashMap;
use std::io;

use super::{tenant_entry, ChunkState, Job, Server, ServerConfig, State};
use crate::journal::{ChunkRecord, Journal, VerdictRecord};
use crate::spec::OverBudget;
use crate::tenant::TenantState;
use enerj_apps::scheduler::SchedLevel;

/// One group append, run by the committer with the lock released: a job's
/// in-order run of parked chunks (budget decisions already made) and its
/// verdict when the run, or an earlier close, ends the job.
struct Batch {
    job_id: String,
    journal: Journal,
    chunks: Vec<(Vec<u8>, ChunkRecord)>,
    verdict: Option<VerdictRecord>,
}

impl Server {
    /// The one journal writer: takes a batch under the lock, appends it with
    /// the lock released, then folds it in. Exits once the pool has exited
    /// and nothing is left to commit, so a drain loses no parked in-order
    /// chunk and no closing job's verdict.
    pub(super) fn committer_loop(&self) {
        let mut rr = 0;
        let mut st = self.lock();
        loop {
            if let Some(mut batch) = take_batch(&self.cfg, &mut st, &mut rr) {
                drop(st);
                let appended = batch.journal.append_group(&batch.chunks, batch.verdict.as_ref());
                st = self.lock();
                self.settle(&mut st, batch, appended);
                self.committed.notify_all();
                self.work.notify_all();
            } else if st.pool_exited {
                return;
            } else {
                st = self.to_commit.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Folds a finished group append into the job: on success every record
    /// through [`Job::apply`] and the verdict, on failure nothing — the job
    /// closes as `failed`, a verdict the committer then tries to journal.
    fn settle(&self, st: &mut State, batch: Batch, appended: io::Result<()>) {
        let State { jobs, tenants, live, .. } = st;
        let job = jobs.get_mut(&batch.job_id).expect("jobs are never removed");
        job.journal = Some(batch.journal);
        let degrade_before = job.degrade;
        match appended {
            Ok(()) => {
                let ts = tenant_entry(tenants, &self.cfg, &job.spec.tenant);
                for (_, rec) in &batch.chunks {
                    job.apply(rec, ts);
                }
                job.verdict = batch.verdict.map(|v| v.verdict);
            }
            Err(e) if batch.chunks.is_empty() => {
                // Only the verdict was lost: the job ends all the same, as
                // its durable prefix would resume after a restart.
                eprintln!("campaignd: verdict append failed for `{}`: {e}", batch.job_id);
                job.verdict = batch.verdict.map(|v| v.verdict);
            }
            Err(e) => {
                eprintln!("campaignd: journal append failed for `{}`: {e}", batch.job_id);
                job.closing = None;
                close(job, "failed");
            }
        }
        if job.verdict.is_some() {
            live.retain(|id| *id != batch.job_id);
        } else if job.degrade != degrade_before {
            // The run moved the rung: results parked under the old one are
            // stale and re-run.
            let rung = job.degrade;
            for (c, s) in job.states.iter_mut().enumerate().skip(job.next_commit) {
                if matches!(s, ChunkState::Parked(_, rec) if rec.degrade_after != rung) {
                    job.gens[c] += 1;
                    *s = ChunkState::Pending;
                }
            }
        }
    }
}

/// The committer's next batch, round-robin over the live jobs from `rr`:
/// the first job with a closing verdict to journal or a parked run at its
/// commit frontier. The run's payloads leave their states (which become
/// `Committed`, out of the claim window's way) and the job's journal moves
/// into the batch.
fn take_batch(cfg: &ServerConfig, st: &mut State, rr: &mut usize) -> Option<Batch> {
    let State { jobs, tenants, live, .. } = st;
    let n = live.len();
    for off in 0..n {
        let idx = (*rr + off) % n;
        let job = jobs.get_mut(&live[idx]).expect("live jobs are registered");
        let (chunks, verdict) = match job.closing {
            Some(v) => (Vec::new(), Some(v)),
            None => commit_run(cfg, job, tenants),
        };
        if chunks.is_empty() && verdict.is_none() {
            continue;
        }
        *rr = (idx + 1) % n;
        let verdict = verdict.map(|v| {
            close(job, v);
            let c = job.next_commit + chunks.len();
            // Every chunk committed before the trigger fired: it's complete.
            let v = if c < job.spec.total_chunks() { v } else { "complete" };
            let trials_done = if c == 0 { 0 } else { job.spec.chunk_range(c - 1).1 };
            VerdictRecord { verdict: v.to_owned(), trials_done }
        });
        let journal = job.journal.take().expect("only the committer takes a journal");
        return Some(Batch { job_id: live[idx].clone(), journal, chunks, verdict });
    }
    None
}

/// Takes `job`'s in-order run of parked chunks from its commit frontier,
/// with the budget check at each chunk in order — the single place quotas
/// are enforced, which is what makes enforcement chunk-granular and
/// deterministic. Each check sees the ledgers with every earlier chunk of
/// the run added, as if they had committed one by one. Returns the run and
/// the verdict it ends the job with, if any.
fn commit_run(
    cfg: &ServerConfig,
    job: &mut Job,
    tenants: &mut HashMap<String, TenantState>,
) -> (Vec<(Vec<u8>, ChunkRecord)>, Option<&'static str>) {
    let ts = tenant_entry(tenants, cfg, &job.spec.tenant);
    let (mut job_total, mut tenant_spent, mut degrade) = (job.quanta_total, ts.spent, job.degrade);
    let floor = (SchedLevel::ALL.len() - 1) as u32;
    let mut run = Vec::new();
    for c in job.next_commit..job.spec.total_chunks() {
        // A chunk computed under a rung this run moves past stays parked;
        // settling the run re-queues it.
        if !matches!(&job.states[c], ChunkState::Parked(_, rec) if rec.degrade_after == degrade) {
            return (run, None);
        }
        let ChunkState::Parked(bytes, mut rec) =
            std::mem::replace(&mut job.states[c], ChunkState::Committed)
        else {
            unreachable!("state checked above")
        };
        // Ledger candidates (exact integer additions).
        job_total += rec.quanta_total;
        tenant_spent += rec.quanta_total;

        // Over-budget resolution: Stop wins over Degrade when both a job
        // budget and a tenant quota trip at once, and Degrade at the
        // Aggressive floor becomes Stop.
        let mut stop = false;
        let mut bump = false;
        if job.spec.budget_quanta.is_some_and(|b| job_total > b) {
            match job.spec.over_budget {
                OverBudget::Stop => stop = true,
                OverBudget::Degrade => bump = true,
            }
        }
        if ts.config.quota.is_some_and(|q| tenant_spent > q) {
            match ts.config.over_budget {
                OverBudget::Stop => stop = true,
                OverBudget::Degrade => bump = true,
            }
        }
        if bump && !stop {
            if degrade >= floor {
                stop = true;
            } else {
                rec.degrade_after += 1;
            }
        }
        degrade = rec.degrade_after;
        run.push((bytes, rec));
        if stop {
            return (run, Some("over_quota"));
        }
    }
    (run, Some("complete"))
}

/// Closes a job on `verdict` (a verdict already closing it stands): frees
/// its parked memory and stops its claims. The committer journals the
/// verdict, and the verdict is what releases the job's admission slots:
/// both caps count jobs without one.
pub(super) fn close(job: &mut Job, verdict: &'static str) {
    job.closing.get_or_insert(verdict);
    for (c, s) in job.states.iter_mut().enumerate() {
        if !matches!(s, ChunkState::Committed) {
            job.gens[c] += 1;
            *s = ChunkState::Pending;
        }
    }
}
