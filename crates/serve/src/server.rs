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
//! through [`run_campaign_streamed`] (each trial a pure function of its
//! spec), and hand the rendered NDJSON payload back for *in-order* commit:
//! chunk `c` reaches the journal only after `c-1`, so `output.ndjson` is
//! always a clean prefix of the uninterrupted campaign.
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
//! back — fails the generation check at commit and is discarded. The same
//! generation mechanism discards results computed under a stale degrade
//! rung after an over-budget degradation.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http;
use crate::journal::{self, fnv1a, ChunkRecord, Journal};
use crate::spec::{JobSpec, OverBudget};
use crate::tenant::{TenantConfig, TenantState};
use enerj_apps::scheduler::SchedLevel;
use enerj_apps::trials::{
    json_f64, json_string, run_campaign_streamed, write_trial_json, CampaignOptions, SpecFn,
    TrialResult, TrialSink,
};
use enerj_hw::quanta::EnergyQuanta;

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
    /// Claimed by a worker holding generation `gen` until `expires`.
    Leased { gen: u64, expires: Instant },
    /// Computed, parked until every earlier chunk has committed: the
    /// rendered NDJSON lines (`wall` zeroed, indices global) and their
    /// journal record. Until the commit decides the rung *after* the chunk,
    /// the record's `degrade_after` holds the rung it was computed under; a
    /// mismatch with the job's rung at commit time means the work is stale
    /// and re-runs.
    Parked(Vec<u8>, ChunkRecord),
    /// Durably in the journal.
    Committed,
}

/// One job's live state.
struct Job {
    spec: JobSpec,
    journal: Journal,
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
    /// Terminal verdict; `None` while queued or running.
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
            verdict: None,
            deadline_at,
            spec,
            journal,
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

/// Shared mutable service state (one lock: jobs are few and chunk commits
/// are coarse, so contention is negligible next to trial compute).
struct State {
    jobs: BTreeMap<String, Job>,
    tenants: HashMap<String, TenantState>,
    next_job_seq: u64,
    /// Round-robin cursor over jobs, for cross-tenant claim fairness.
    rr: usize,
    draining: bool,
    /// The drain has finished: every worker and the supervisor are joined,
    /// so no chunk can commit any more.
    drained: bool,
    /// Global claim counter (drives the chaos test hooks).
    claims: u64,
}

/// A worker's claim on one chunk.
struct Claim {
    job_id: String,
    chunk: usize,
    gen: u64,
    lo: usize,
    hi: usize,
    degrade: u32,
    spec: JobSpec,
    stall_ms: Option<u64>,
    panic_now: bool,
}

/// The running service.
pub struct Server {
    cfg: ServerConfig,
    state: Mutex<State>,
    work: Condvar,
    /// Notified, under the state lock, at every transition a stream can
    /// observe: a chunk commit, a job's verdict, and the drain's end.
    committed: Condvar,
}

impl Server {
    /// Recovers durable state, binds the listener, starts the pool and the
    /// supervisor, and serves until a drain completes. Prints
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
        // Once a drain has stopped the pool, nothing can commit any more:
        // end the live streams, then wake the blocked `accept` below with
        // one connection to the listener's own address.
        let waker = {
            let srv = Arc::clone(&server);
            std::thread::Builder::new()
                .name("campaignd-waker".to_owned())
                .spawn(move || {
                    for h in pool {
                        let _ = h.join();
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

    // ------------------------------------------------------------------
    // Worker pool
    // ------------------------------------------------------------------

    fn worker_loop(&self) {
        loop {
            let claim = {
                let mut st = self.lock();
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
            self.commit(claim, bytes, rec);
        }
    }

    /// Ticks even when every worker is wedged in compute: reclaims expired
    /// leases and fires job deadlines so a stalled pool cannot stall the
    /// clock-driven transitions too. Waits out each tick on the `work`
    /// condvar rather than sleeping, so a drain (`/shutdown` notifies
    /// `work`) ends the loop at once instead of up to a quarter lease later.
    fn supervisor_loop(&self) {
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
    /// results are discarded) and finalizes jobs past their deadline.
    fn reclaim_and_deadlines(&self, st: &mut State, now: Instant) {
        let State { jobs, tenants, .. } = &mut *st;
        let mut finalized = false;
        for job in jobs.values_mut() {
            if job.verdict.is_some() {
                continue;
            }
            if job.deadline_at.is_some_and(|d| now >= d) {
                finalize(job, tenants, "deadline_exceeded");
                finalized = true;
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
        if finalized {
            self.committed.notify_all();
        }
    }

    /// Claims the next runnable chunk: round-robin across jobs for
    /// fairness, lowest pending chunk first, within the in-flight window
    /// that bounds parked-payload memory per job.
    fn claim_next(&self, st: &mut State, now: Instant) -> Option<Claim> {
        let keys: Vec<String> = st.jobs.keys().cloned().collect();
        if keys.is_empty() {
            return None;
        }
        let window = (self.cfg.workers * 2).max(2);
        let n = keys.len();
        for off in 0..n {
            let idx = (st.rr + off) % n;
            let job = st.jobs.get_mut(&keys[idx]).expect("key snapshot");
            if job.verdict.is_some() {
                continue;
            }
            let end = (job.next_commit + window).min(job.spec.total_chunks());
            for c in job.next_commit..end {
                if matches!(job.states[c], ChunkState::Pending) {
                    job.gens[c] += 1;
                    let gen = job.gens[c];
                    job.states[c] = ChunkState::Leased { gen, expires: now + self.cfg.lease };
                    let (lo, hi) = job.spec.chunk_range(c);
                    let claim = Claim {
                        job_id: keys[idx].clone(),
                        chunk: c,
                        gen,
                        lo,
                        hi,
                        degrade: job.degrade,
                        spec: job.spec.clone(),
                        stall_ms: None,
                        panic_now: false,
                    };
                    st.rr = (idx + 1) % n;
                    st.claims += 1;
                    let claims = st.claims;
                    let mut claim = claim;
                    claim.stall_ms = self
                        .cfg
                        .test_stall_claim
                        .filter(|&(nth, _)| nth == claims)
                        .map(|(_, ms)| ms);
                    claim.panic_now = self.cfg.test_panic_claim == Some(claims);
                    return Some(claim);
                }
            }
        }
        None
    }

    /// Parks a computed chunk (if its claim is still current) and drains
    /// every in-order commit that is now possible.
    fn commit(&self, claim: Claim, bytes: Vec<u8>, rec: ChunkRecord) {
        let mut st = self.lock();
        let State { jobs, tenants, .. } = &mut *st;
        let Some(job) = jobs.get_mut(&claim.job_id) else { return };
        if job.verdict.is_none() {
            match job.states[claim.chunk] {
                ChunkState::Leased { gen, .. } if gen == claim.gen => {
                    job.states[claim.chunk] = ChunkState::Parked(bytes, rec);
                }
                // Stale: the lease was reclaimed (or the rung moved) and
                // someone else owns this chunk now. Discard silently —
                // determinism is preserved because only committed bytes
                // are observable.
                _ => return,
            }
            let committed_before = job.committed_bytes;
            drain_commits(&self.cfg, job, tenants);
            if job.committed_bytes != committed_before || job.verdict.is_some() {
                self.committed.notify_all();
            }
        }
        drop(st);
        self.work.notify_all();
    }

    // ------------------------------------------------------------------
    // HTTP surface
    // ------------------------------------------------------------------

    fn handle_conn(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let parsed = http::read_request(&mut BufReader::new(&stream));
        let req = match parsed {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(_) => {
                let body = http::error_body("bad_request", "malformed request", false, None);
                let _ = http::write_json(&mut stream, 400, &body);
                return;
            }
        };
        let _ = self.route(req, &mut stream);
    }

    fn route(&self, req: http::Request, stream: &mut TcpStream) -> io::Result<()> {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => {
                let st = self.lock();
                let active = st.jobs.values().filter(|j| j.verdict.is_none()).count();
                let body = format!(
                    "{{\"ok\":true,\"jobs_active\":{active},\"draining\":{}}}",
                    st.draining
                );
                drop(st);
                http::write_json(stream, 200, &body)
            }
            ("POST", ["jobs"]) => {
                let body = String::from_utf8_lossy(&req.body).into_owned();
                match self.admit(&body) {
                    Ok((id, trials)) => http::write_json(
                        stream,
                        200,
                        &format!(
                            "{{\"job_id\":{},\"accepted\":true,\"trials\":{trials}}}",
                            json_string(&id)
                        ),
                    ),
                    Err((status, body)) => http::write_json(stream, status, &body),
                }
            }
            ("GET", ["jobs", id]) => match self.job_status_json(id) {
                Some(body) => http::write_json(stream, 200, &body),
                None => self.not_found(stream),
            },
            ("GET", ["jobs", id, "summary"]) => match self.job_summary_json(id) {
                Some(Ok(body)) => http::write_json(stream, 200, &body),
                Some(Err(body)) => http::write_json(stream, 409, &body),
                None => self.not_found(stream),
            },
            ("GET", ["jobs", id, "stream"]) => {
                match req.query("from_line").map_or(Ok(0), str::parse::<u64>) {
                    Ok(from_line) => self.stream_job(stream, id, from_line),
                    Err(_) => {
                        let detail = "from_line must be a non-negative integer";
                        let body = http::error_body("bad_request", detail, false, None);
                        http::write_json(stream, 400, &body)
                    }
                }
            }
            ("GET", ["tenants", name]) => {
                let st = self.lock();
                let body = match st.tenants.get(*name) {
                    Some(t) => tenant_json(t),
                    None => {
                        // Never-seen tenants report their would-be config.
                        let cfg = self
                            .cfg
                            .tenants
                            .iter()
                            .find(|t| t.name == *name)
                            .cloned()
                            .unwrap_or_else(|| TenantConfig::unlimited(name));
                        tenant_json(&TenantState::new(cfg))
                    }
                };
                drop(st);
                http::write_json(stream, 200, &body)
            }
            ("POST", ["shutdown"]) => {
                let mut st = self.lock();
                st.draining = true;
                drop(st);
                self.work.notify_all();
                http::write_json(stream, 200, "{\"draining\":true}")
            }
            _ => self.not_found(stream),
        }
    }

    fn not_found(&self, stream: &mut TcpStream) -> io::Result<()> {
        let body = http::error_body("not_found", "no such resource", false, None);
        http::write_json(stream, 404, &body)
    }

    /// Admission control: explicit, typed rejections with retriability and
    /// backoff hints so clients never have to guess.
    fn admit(&self, body: &str) -> Result<(String, usize), (u16, String)> {
        let spec = JobSpec::parse(body)
            .map_err(|e| (400, http::error_body("bad_request", &e, false, None)))?;
        let mut st = self.lock();
        if st.draining {
            return Err((
                503,
                http::error_body("draining", "server is draining", true, Some(1000)),
            ));
        }
        let active = st.jobs.values().filter(|j| j.verdict.is_none()).count();
        if active >= self.cfg.queue_cap {
            return Err((
                429,
                http::error_body(
                    "queue_full",
                    &format!("{active} jobs queued or running (cap {})", self.cfg.queue_cap),
                    true,
                    Some(500),
                ),
            ));
        }
        let State { tenants, .. } = &mut *st;
        let ts = tenant_entry(tenants, &self.cfg.tenants, &spec.tenant);
        if ts.exhausted() {
            return Err((
                403,
                http::error_body(
                    "over_quota",
                    &format!(
                        "tenant `{}` has spent {} of {} quanta",
                        spec.tenant,
                        ts.spent,
                        ts.config.quota.unwrap_or(EnergyQuanta::ZERO)
                    ),
                    false,
                    None,
                ),
            ));
        }
        if ts.active_jobs >= self.cfg.max_jobs_per_tenant {
            return Err((
                429,
                http::error_body(
                    "tenant_busy",
                    &format!(
                        "tenant `{}` already has {} active jobs (cap {})",
                        spec.tenant, ts.active_jobs, self.cfg.max_jobs_per_tenant
                    ),
                    true,
                    Some(500),
                ),
            ));
        }
        ts.active_jobs += 1;
        let id = format!("j{:06}", st.next_job_seq);
        st.next_job_seq += 1;
        let dir = self.cfg.state_dir.join("jobs").join(&id);
        let journal = match Journal::create(&dir, &spec.to_json()) {
            Ok(j) => j,
            Err(e) => {
                let State { tenants, .. } = &mut *st;
                tenant_entry(tenants, &self.cfg.tenants, &spec.tenant).active_jobs -= 1;
                return Err((
                    500,
                    http::error_body(
                        "internal",
                        &format!("cannot create job dir: {e}"),
                        true,
                        Some(1000),
                    ),
                ));
            }
        };
        let trials = spec.total_trials();
        let deadline_at = spec.deadline_from(Instant::now());
        let job = Job::new(spec, journal, deadline_at);
        st.jobs.insert(id.clone(), job);
        drop(st);
        self.work.notify_all();
        Ok((id, trials))
    }

    fn job_status_json(&self, id: &str) -> Option<String> {
        let st = self.lock();
        let job = st.jobs.get(id)?;
        Some(format!(
            "{{\"job_id\":{},\"tenant\":{},\"state\":{},\"verdict\":{},\
             \"trials_total\":{},\"trials_committed\":{},\"chunks_committed\":{},\
             \"committed_bytes\":{},\"mean_error\":{},\"panics\":{},\
             \"quanta_total\":{},\"quanta_baseline\":{},\"degrade\":{}}}",
            json_string(id),
            json_string(&job.spec.tenant),
            json_string(if job.verdict.is_some() { "done" } else { "running" }),
            match &job.verdict {
                Some(v) => json_string(v),
                None => "null".to_owned(),
            },
            job.spec.total_trials(),
            job.trials_committed(),
            job.next_commit,
            job.committed_bytes,
            json_f64(job.mean_error()),
            job.panics,
            job.quanta_total,
            job.quanta_baseline,
            job.degrade,
        ))
    }

    fn job_summary_json(&self, id: &str) -> Option<Result<String, String>> {
        let st = self.lock();
        let job = st.jobs.get(id)?;
        let Some(verdict) = &job.verdict else {
            return Some(Err(http::error_body(
                "not_done",
                "job is still running",
                true,
                Some(200),
            )));
        };
        Some(Ok(format!(
            "{{\"schema\":\"enerj-serve-summary/1\",\"job_id\":{},\"tenant\":{},\
             \"verdict\":{},\"trials_total\":{},\"trials_done\":{},\"mean_error\":{},\
             \"panics\":{},\"quanta_total\":{},\"quanta_baseline\":{},\"degrade_final\":{}}}",
            json_string(id),
            json_string(&job.spec.tenant),
            json_string(verdict),
            job.spec.total_trials(),
            job.trials_committed(),
            json_f64(job.mean_error()),
            job.panics,
            job.quanta_total,
            job.quanta_baseline,
            job.degrade,
        )))
    }

    /// Streams a job's committed NDJSON to one client. Reads go straight
    /// to the job's output file — never through server buffers — so a slow
    /// reader backpressures only its own socket (bounded by the write
    /// timeout) and holds no lock while blocked. Only journal-committed
    /// bytes are ever sent, which is what makes a re-collected stream
    /// byte-identical across server crashes. Between commits the stream
    /// waits on `committed`; it ends once the job has a verdict or the
    /// drain has finished, always at a chunk (and so a line) boundary.
    fn stream_job(&self, stream: &mut TcpStream, id: &str, from_line: u64) -> io::Result<()> {
        let dir = {
            let st = self.lock();
            if !st.jobs.contains_key(id) {
                drop(st);
                return self.not_found(stream);
            }
            self.cfg.state_dir.join("jobs").join(id)
        };
        http::write_stream_head(stream)?;
        let mut offset = 0u64;
        let mut skip = from_line;
        loop {
            let committed = {
                let mut st = self.lock();
                loop {
                    let Some(j) = st.jobs.get(id) else { return Ok(()) };
                    if offset < j.committed_bytes {
                        break j.committed_bytes;
                    }
                    if j.verdict.is_some() || st.drained {
                        drop(st);
                        return stream.flush();
                    }
                    st = self.committed.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            let len = ((committed - offset) as usize).min(256 * 1024);
            let buf = journal::read_output(&dir, offset, len)?;
            offset += buf.len() as u64;
            let mut start = 0usize;
            while skip > 0 && start < buf.len() {
                match buf[start..].iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        start += nl + 1;
                        skip -= 1;
                    }
                    None => start = buf.len(),
                }
            }
            if start < buf.len() {
                stream.write_all(&buf[start..])?;
            }
        }
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

fn tenant_json(t: &TenantState) -> String {
    format!(
        "{{\"tenant\":{},\"quota\":{},\"spent\":{},\"remaining\":{},\
         \"active_jobs\":{},\"over_budget\":{}}}",
        json_string(&t.config.name),
        match t.config.quota {
            Some(q) => q.to_string(),
            None => "null".to_owned(),
        },
        t.spent,
        match t.remaining() {
            Some(r) => r.to_string(),
            None => "null".to_owned(),
        },
        t.active_jobs,
        json_string(t.config.over_budget.as_str()),
    )
}

/// The tenant's live state, created from configuration on first sight.
fn tenant_entry<'a>(
    tenants: &'a mut HashMap<String, TenantState>,
    configured: &[TenantConfig],
    name: &str,
) -> &'a mut TenantState {
    tenants.entry(name.to_owned()).or_insert_with(|| {
        let cfg = configured
            .iter()
            .find(|t| t.name == name)
            .cloned()
            .unwrap_or_else(|| TenantConfig::unlimited(name));
        TenantState::new(cfg)
    })
}

/// Executes one claimed chunk through the streaming engine (serially —
/// parallelism in this service comes from the pool, not from nesting) and
/// returns its NDJSON bytes with their journal record, hashed here so the
/// commit under the state lock only decides `degrade_after`. Trial indices
/// are remapped chunk-local → global and `wall` is zeroed: wall time is the
/// one nondeterministic field of `trial_json`, and the service's contract
/// is byte-determinism.
fn run_chunk(claim: &Claim) -> (Vec<u8>, ChunkRecord) {
    struct ChunkSink {
        lo: usize,
        text: String,
        quanta_total: EnergyQuanta,
        quanta_baseline: EnergyQuanta,
        error_sum: f64,
        panics: usize,
    }
    impl TrialSink for ChunkSink {
        fn accept(&mut self, mut t: TrialResult) -> io::Result<()> {
            t.index += self.lo;
            t.wall = Duration::ZERO;
            self.error_sum += t.error;
            if t.panicked() {
                self.panics += 1;
            }
            self.quanta_total += t.energy_quanta.total;
            self.quanta_baseline += t.energy_quanta.baseline_total;
            write_trial_json(&mut self.text, &t);
            self.text.push('\n');
            Ok(())
        }
    }
    let len = claim.hi - claim.lo;
    let source = SpecFn::new(len, |i| claim.spec.trial_spec(claim.lo + i, claim.degrade));
    let opts = CampaignOptions { threads: 1, chunk: len, ..CampaignOptions::default() };
    let mut sink = ChunkSink {
        lo: claim.lo,
        text: String::new(),
        quanta_total: EnergyQuanta::ZERO,
        quanta_baseline: EnergyQuanta::ZERO,
        error_sum: 0.0,
        panics: 0,
    };
    run_campaign_streamed(&source, &opts, &mut sink).expect("the in-memory chunk sink cannot fail");
    let bytes = sink.text.into_bytes();
    let rec = ChunkRecord {
        chunk: claim.chunk,
        lo: claim.lo,
        hi: claim.hi,
        bytes: bytes.len() as u64,
        hash: fnv1a(&bytes),
        quanta_total: sink.quanta_total,
        quanta_baseline: sink.quanta_baseline,
        error_sum_bits: sink.error_sum.to_bits(),
        panics: sink.panics,
        degrade_after: claim.degrade,
    };
    (bytes, rec)
}

/// Commits every chunk that is parked, in order, with the budget check at
/// each commit — the single place quotas are enforced, which is what makes
/// enforcement chunk-granular and deterministic.
fn drain_commits(cfg: &ServerConfig, job: &mut Job, tenants: &mut HashMap<String, TenantState>) {
    while job.verdict.is_none() {
        let c = job.next_commit;
        if c >= job.spec.total_chunks() {
            finalize(job, tenants, "complete");
            return;
        }
        let (bytes, mut rec) = match &job.states[c] {
            ChunkState::Parked(_, rec) if rec.degrade_after == job.degrade => {
                match std::mem::replace(&mut job.states[c], ChunkState::Committed) {
                    ChunkState::Parked(bytes, rec) => (bytes, rec),
                    _ => unreachable!("state checked above"),
                }
            }
            ChunkState::Parked(..) => {
                // Computed under a stale degrade rung (an over-budget
                // degradation landed between claim and commit): re-run.
                job.gens[c] += 1;
                job.states[c] = ChunkState::Pending;
                return;
            }
            _ => return, // pending or still running
        };

        // Ledger candidates (exact integer additions).
        let job_total = job.quanta_total + rec.quanta_total;
        let ts = tenant_entry(tenants, &cfg.tenants, &job.spec.tenant);
        let tenant_spent = ts.spent + rec.quanta_total;

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
        let floor = (SchedLevel::ALL.len() - 1) as u32;
        if bump && !stop {
            if job.degrade >= floor {
                stop = true;
            } else {
                rec.degrade_after += 1;
            }
        }

        if let Err(e) = job.journal.append_chunk(&bytes, &rec) {
            eprintln!("campaignd: journal append failed for chunk {c}: {e}");
            finalize(job, tenants, "failed");
            return;
        }
        job.apply(&rec, ts);
        if stop {
            finalize(job, tenants, "over_quota");
            return;
        }
    }
}

/// Journals the terminal verdict, frees parked memory, and releases the
/// tenant's admission slot.
fn finalize(job: &mut Job, tenants: &mut HashMap<String, TenantState>, verdict: &str) {
    if job.verdict.is_some() {
        return;
    }
    let verdict = if verdict == "complete" || job.next_commit < job.spec.total_chunks() {
        verdict
    } else {
        // Every chunk committed before the trigger fired: it's complete.
        "complete"
    };
    if let Err(e) = job.journal.append_verdict(verdict, job.trials_committed()) {
        eprintln!("campaignd: verdict append failed: {e}");
    }
    job.verdict = Some(verdict.to_owned());
    for (c, s) in job.states.iter_mut().enumerate() {
        if !matches!(s, ChunkState::Committed) {
            job.gens[c] += 1;
            *s = ChunkState::Pending;
        }
    }
    if let Some(t) = tenants.get_mut(&job.spec.tenant) {
        t.active_jobs = t.active_jobs.saturating_sub(1);
    }
}

/// Rebuilds the whole service state from the journals on startup: tenant
/// ledgers are re-summed exactly, finished jobs stay queryable, unfinished
/// jobs resume with their committed prefix intact.
fn recover_state(cfg: &ServerConfig) -> io::Result<State> {
    let jobs_dir = cfg.state_dir.join("jobs");
    let mut st = State {
        jobs: BTreeMap::new(),
        tenants: HashMap::new(),
        next_job_seq: 1,
        rr: 0,
        draining: false,
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
        let State { tenants, .. } = &mut st;
        let ts = tenant_entry(tenants, &cfg.tenants, &job.spec.tenant);
        for chunk in &rec.chunks {
            job.apply(chunk, ts);
        }
        debug_assert_eq!(job.committed_bytes, rec.committed_bytes);
        job.states.iter_mut().take(job.next_commit).for_each(|s| *s = ChunkState::Committed);
        job.verdict = rec.verdict.map(|v| v.verdict);
        if job.verdict.is_none() {
            ts.active_jobs += 1;
            if job.next_commit >= job.spec.total_chunks() {
                // Crashed after the last chunk commit but before the
                // verdict: finish the paperwork now.
                finalize(&mut job, tenants, "complete");
            }
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
