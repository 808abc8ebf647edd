//! The campaign server: bounded job queue, supervised worker pool,
//! lease-based chunk reclamation, exact tenant budgets, durable commits.
//!
//! # Execution model
//!
//! Every accepted job is split into fixed-size *chunks* of consecutive
//! trial indices (`spec.chunk` trials each). A chunk is the unit of
//! everything robust in this service: the unit of work a pool worker
//! claims, the unit of lease-based reclamation when a worker dies or
//! stalls, the unit of durable commit in the job's journal, and the
//! granularity at which budgets and deadlines are enforced. Workers claim
//! chunks in index order within a bounded in-flight window, execute them
//! through [`run_campaign_streamed`](enerj_apps::trials::run_campaign_streamed)
//! (each trial a pure function of its spec), and park the rendered NDJSON
//! payload for *in-order* commit: chunk `c` reaches the journal only after
//! `c-1`, so `output.ndjson` is always a clean prefix of the uninterrupted
//! campaign.
//!
//! # One committer, off the lock
//!
//! Workers never touch the disk. One committer thread takes a job's
//! in-order run of parked chunks, makes each chunk's budget decision in
//! order under the state lock, then releases the lock and appends the whole
//! run as one group (`Journal::append_group`: one output and one journal
//! `fsync`). It re-locks only to fold the now-durable records into the
//! ledgers, so everything a client can read — committed bytes, ledgers,
//! verdicts — changes only after its `fsync`. Every journal write, verdicts
//! from deadlines and failures included, goes through this one thread, so
//! commits are globally serialized and the quota decisions see the ledgers
//! of every earlier commit. Admission likewise creates a job's directory
//! with the lock released, holding only a reservation against the caps.
//!
//! # Why `kill -9` is survivable at any instant
//!
//! All mutable service state is derivable from the journals (see
//! [`journal`]): the committed output prefix, the exact
//! integer energy ledgers (per job and per tenant — integer addition is
//! associative, so re-summing on restart reproduces them exactly), the
//! error-sum fold (chunk sums folded in chunk order, journaled as IEEE-754
//! bits), and the degrade rung (journaled as `degrade_after` on every
//! chunk). Recovery re-registers every unfinished job with its committed
//! prefix intact and re-runs only uncommitted chunks; determinism of the
//! trial functions makes the re-run byte-identical to the run that died.
//!
//! # Leases and stale results
//!
//! A claim holds a wall-clock lease and a generation number. If the lease
//! expires (worker dead, or stalled beyond the per-trial op-budget
//! watchdog's reach), the chunk returns to `Pending` and its generation is
//! bumped, so the original worker's late result — should the worker come
//! back — fails the generation check when it parks and is discarded. The
//! same generation mechanism discards results computed under a stale
//! degrade rung after an over-budget degradation.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::journal::{self, ChunkRecord, Journal, VerdictRecord};
use crate::spec::JobSpec;
use crate::tenant::{TenantConfig, TenantState};
use enerj_hw::quanta::EnergyQuanta;

mod commit;
mod pool;
mod routes;

/// Everything `campaignd` configures.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// State directory; jobs live under `<state_dir>/jobs/<id>/`.
    pub state_dir: PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Admission cap on queued + running jobs (queue-full beyond it).
    pub queue_cap: usize,
    /// Admission cap on one tenant's queued + running jobs.
    pub max_jobs_per_tenant: usize,
    /// Chunk lease: a claim not committed within this window is reclaimed.
    pub lease: Duration,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout (bounds slow readers).
    pub write_timeout: Duration,
    /// Configured tenants; unknown tenants run unlimited.
    pub tenants: Vec<TenantConfig>,
    /// Test hook: stall the `n`th claim for `ms` milliseconds *after*
    /// claiming (drives the lease-reclaim path in tests).
    pub test_stall_claim: Option<(u64, u64)>,
    /// Test hook: kill (panic) the worker making the `n`th claim.
    pub test_panic_claim: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: PathBuf::from("results/serve"),
            workers: 2,
            queue_cap: 16,
            max_jobs_per_tenant: 8,
            lease: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            tenants: Vec::new(),
            test_stall_claim: None,
            test_panic_claim: None,
        }
    }
}

/// Lifecycle of one chunk.
enum ChunkState {
    /// Not yet claimed (or reclaimed after a lease expiry).
    Pending,
    /// Claimed until `expires` by the worker holding the job's current
    /// generation for this chunk.
    Leased { expires: Instant },
    /// Computed, parked until every earlier chunk has committed: the
    /// rendered NDJSON lines (`wall` zeroed, indices global) and their
    /// journal record. Until the committer decides the rung *after* the
    /// chunk, the record's `degrade_after` holds the rung it was computed
    /// under; a rung below the job's means the work is stale and re-runs.
    Parked(Vec<u8>, ChunkRecord),
    /// Taken by the committer: durable once `next_commit` has passed it.
    Committed,
}

/// One job's live state.
struct Job {
    spec: JobSpec,
    /// The append handles; the committer holds them during a group append.
    journal: Option<Journal>,
    states: Vec<ChunkState>,
    /// Per-chunk claim generations (bumped on every lease and reclaim).
    gens: Vec<u64>,
    /// Lowest uncommitted chunk; `output.ndjson` holds exactly the chunks
    /// below it.
    next_commit: usize,
    committed_bytes: u64,
    /// Current over-budget degrade rung (0 = as requested).
    degrade: u32,
    /// Error sum folded per chunk in chunk order (restart-exact).
    error_sum: f64,
    panics: usize,
    quanta_total: EnergyQuanta,
    quanta_baseline: EnergyQuanta,
    /// The verdict the committer journals next: set when a commit run ends
    /// the job, a deadline fires or an append fails. A closing job is
    /// neither claimed nor parked into.
    closing: Option<&'static str>,
    /// Durable terminal verdict; `None` while queued, running or closing.
    verdict: Option<String>,
    /// Wall-clock deadline, measured from registration (a resumed job's
    /// clock restarts — the deadline bounds *this* server's effort).
    deadline_at: Option<Instant>,
}

impl Job {
    /// A job with nothing committed yet.
    fn new(spec: JobSpec, journal: Journal, deadline_at: Option<Instant>) -> Job {
        let total_chunks = spec.total_chunks();
        Job {
            states: (0..total_chunks).map(|_| ChunkState::Pending).collect(),
            gens: vec![0; total_chunks],
            next_commit: 0,
            committed_bytes: 0,
            degrade: 0,
            error_sum: 0.0,
            panics: 0,
            quanta_total: EnergyQuanta::ZERO,
            quanta_baseline: EnergyQuanta::ZERO,
            closing: None,
            verdict: None,
            deadline_at,
            spec,
            journal: Some(journal),
        }
    }

    /// Folds one journaled chunk into the job's and its tenant's ledgers.
    /// The commit path and boot recovery both go through here, so a
    /// restarted job's totals are the uninterrupted run's by construction.
    fn apply(&mut self, rec: &ChunkRecord, tenant: &mut TenantState) {
        self.next_commit = rec.chunk + 1;
        self.committed_bytes += rec.bytes;
        self.quanta_total += rec.quanta_total;
        self.quanta_baseline += rec.quanta_baseline;
        self.error_sum += f64::from_bits(rec.error_sum_bits);
        self.panics += rec.panics;
        self.degrade = rec.degrade_after;
        tenant.spent += rec.quanta_total;
    }

    /// Trials durably committed (always a prefix `0..n`).
    fn trials_committed(&self) -> usize {
        if self.next_commit == 0 {
            0
        } else {
            self.spec.chunk_range(self.next_commit - 1).1
        }
    }

    fn mean_error(&self) -> f64 {
        let n = self.trials_committed();
        if n == 0 {
            0.0
        } else {
            self.error_sum / n as f64
        }
    }
}

/// Shared mutable service state. One lock, held only for bookkeeping: no
/// trial runs and no `fsync` happens under it (workers compute unlocked, the
/// committer and admission write to disk unlocked).
struct State {
    jobs: BTreeMap<String, Job>,
    /// Ids of the jobs without a durable verdict, in admission order: what
    /// claims, deadlines, commits and the admission caps look at.
    live: Vec<String>,
    /// Admissions whose directory is being created (id → tenant): they
    /// count against both caps until their job is inserted.
    reserved: BTreeMap<String, String>,
    tenants: HashMap<String, TenantState>,
    next_job_seq: u64,
    /// Round-robin cursor over `live`, for cross-tenant claim fairness.
    rr: usize,
    draining: bool,
    /// Every worker and the supervisor have exited: nothing parks any more,
    /// and the committer exits once it has committed what is parked.
    pool_exited: bool,
    /// The drain has finished: the committer is joined too, so no chunk
    /// can commit any more.
    drained: bool,
    /// Global claim counter (drives the chaos test hooks).
    claims: u64,
}

impl State {
    /// Jobs queued, running or being admitted (no durable verdict yet), for
    /// every tenant or one.
    fn active_jobs(&self, tenant: Option<&str>) -> usize {
        let counts = |t: &str| tenant.is_none_or(|want| want == t);
        self.live.iter().filter(|id| counts(&self.jobs[*id].spec.tenant)).count()
            + self.reserved.values().filter(|t| counts(t)).count()
    }
}

/// The running service.
pub struct Server {
    cfg: ServerConfig,
    state: Mutex<State>,
    work: Condvar,
    /// Notified, under the state lock, at every transition a stream can
    /// observe: a chunk commit, a job's verdict, and the drain's end.
    committed: Condvar,
    /// Wakes the committer: a chunk parked, a job closed, the pool exited.
    to_commit: Condvar,
}

impl Server {
    /// Recovers durable state, binds the listener, starts the pool, the
    /// supervisor and the committer, and serves until a drain completes. Prints
    /// `campaignd listening on <addr>` (and writes `<state_dir>/campaignd.addr`)
    /// once ready, so harnesses can bind port 0 and discover the port.
    pub fn run(cfg: ServerConfig) -> io::Result<()> {
        fs::create_dir_all(cfg.state_dir.join("jobs"))?;
        let state = recover_state(&cfg)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        fs::write(cfg.state_dir.join("campaignd.addr"), format!("{local}\n"))?;
        let server = Arc::new(Server {
            cfg,
            state: Mutex::new(state),
            work: Condvar::new(),
            committed: Condvar::new(),
            to_commit: Condvar::new(),
        });
        println!("campaignd listening on {local}");
        io::stdout().flush()?;

        let mut pool = Vec::new();
        for w in 0..server.cfg.workers.max(1) {
            let srv = Arc::clone(&server);
            let handle = std::thread::Builder::new()
                .name(format!("campaignd-worker-{w}"))
                .spawn(move || srv.worker_loop())
                .expect("spawn worker");
            pool.push(handle);
        }
        let srv = Arc::clone(&server);
        pool.push(
            std::thread::Builder::new()
                .name("campaignd-supervisor".to_owned())
                .spawn(move || srv.supervisor_loop())
                .expect("spawn supervisor"),
        );
        let srv = Arc::clone(&server);
        let committer = std::thread::Builder::new()
            .name("campaignd-committer".to_owned())
            .spawn(move || srv.committer_loop())
            .expect("spawn committer");
        // Once a drain has stopped the pool, the committer commits what is
        // parked and exits; then nothing can commit any more: end the live
        // streams, then wake the blocked `accept` below with one connection
        // to the listener's own address.
        let waker = {
            let srv = Arc::clone(&server);
            std::thread::Builder::new()
                .name("campaignd-waker".to_owned())
                .spawn(move || {
                    for h in pool {
                        let _ = h.join();
                    }
                    srv.lock().pool_exited = true;
                    srv.to_commit.notify_one();
                    if committer.join().is_err() {
                        eprintln!("campaignd: the committer panicked");
                    }
                    let mut st = srv.lock();
                    st.drained = true;
                    srv.committed.notify_all();
                    drop(st);
                    if let Err(e) = TcpStream::connect(wake_addr(local)) {
                        eprintln!("campaignd: cannot wake the accept loop: {e}");
                    }
                })
                .expect("spawn waker")
        };

        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            let stream = conn?;
            if server.lock().drained {
                break;
            }
            let (finished, live): (Vec<_>, Vec<_>) =
                handlers.into_iter().partition(|h| h.is_finished());
            handlers = live;
            finished.into_iter().for_each(join_handler);
            let srv = Arc::clone(&server);
            handlers.push(std::thread::spawn(move || srv.handle_conn(stream)));
        }
        // What is still running ends within the socket timeouts: streams
        // have seen `drained`, and the `/shutdown` answer may be mid-write.
        handlers.into_iter().for_each(join_handler);
        let _ = waker.join();
        Ok(())
    }

    /// Locks the state, surviving poison: a test-hook worker panic must
    /// not take the whole service down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The address that reaches a listener bound to `local`: an unspecified
/// bind address (`0.0.0.0`, `::`) accepts on loopback too.
fn wake_addr(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    local
}

/// Joins a finished or finishing connection handler, reporting a panic.
fn join_handler(handle: JoinHandle<()>) {
    if handle.join().is_err() {
        eprintln!("campaignd: a connection handler panicked");
    }
}

/// The tenant's configuration; tenants never configured run unlimited.
fn tenant_config(cfg: &ServerConfig, name: &str) -> TenantConfig {
    cfg.tenants
        .iter()
        .find(|t| t.name == name)
        .cloned()
        .unwrap_or_else(|| TenantConfig::unlimited(name))
}

/// The tenant's live state, created from configuration on first sight.
fn tenant_entry<'a>(
    tenants: &'a mut HashMap<String, TenantState>,
    cfg: &ServerConfig,
    name: &str,
) -> &'a mut TenantState {
    tenants.entry(name.to_owned()).or_insert_with(|| TenantState::new(tenant_config(cfg, name)))
}

/// Rebuilds the whole service state from the journals on startup: tenant
/// ledgers are re-summed exactly, finished jobs stay queryable, unfinished
/// jobs resume with their committed prefix intact.
fn recover_state(cfg: &ServerConfig) -> io::Result<State> {
    let jobs_dir = cfg.state_dir.join("jobs");
    let mut st = State {
        jobs: BTreeMap::new(),
        live: Vec::new(),
        reserved: BTreeMap::new(),
        tenants: HashMap::new(),
        next_job_seq: 1,
        rr: 0,
        draining: false,
        pool_exited: false,
        drained: false,
        claims: 0,
    };
    let mut dirs: Vec<PathBuf> = fs::read_dir(&jobs_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let id = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_owned();
        if let Some(n) = id.strip_prefix('j').and_then(|s| s.parse::<u64>().ok()) {
            st.next_job_seq = st.next_job_seq.max(n + 1);
        }
        let rec = match journal::recover(&dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("campaignd: skipping unrecoverable job `{id}`: {e}");
                continue;
            }
        };
        let spec = match JobSpec::parse(&rec.spec_text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("campaignd: skipping job `{id}` with bad spec: {e}");
                continue;
            }
        };
        let journal = Journal::open(&dir)?;
        let deadline_at =
            if rec.verdict.is_some() { None } else { spec.deadline_from(Instant::now()) };
        let mut job = Job::new(spec, journal, deadline_at);
        let ts = tenant_entry(&mut st.tenants, cfg, &job.spec.tenant);
        for chunk in &rec.chunks {
            job.apply(chunk, ts);
        }
        debug_assert_eq!(job.committed_bytes, rec.committed_bytes);
        job.states.iter_mut().take(job.next_commit).for_each(|s| *s = ChunkState::Committed);
        job.verdict = rec.verdict.map(|v| v.verdict);
        if job.verdict.is_none() && job.next_commit >= job.spec.total_chunks() {
            // Crashed after the last chunk commit but before the verdict:
            // finish the paperwork now, before any thread can write.
            let done = VerdictRecord {
                verdict: "complete".to_owned(),
                trials_done: job.trials_committed(),
            };
            if let Err(e) =
                job.journal.as_mut().expect("just opened").append_group::<&[u8]>(&[], Some(&done))
            {
                eprintln!("campaignd: verdict append failed for `{id}`: {e}");
            }
            job.verdict = Some(done.verdict);
        }
        if job.verdict.is_none() {
            st.live.push(id.clone());
        }
        st.jobs.insert(id, job);
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:4100"), "127.0.0.1:4100");
        assert_eq!(wake("[::]:4100"), "[::1]:4100");
        assert_eq!(wake("10.1.2.3:4100"), "10.1.2.3:4100");
    }
}
