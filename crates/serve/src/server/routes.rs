//! The HTTP surface: routing, admission control, and the job status,
//! summary, stream and tenant bodies.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use super::{tenant_config, tenant_entry, Job, Server};
use crate::http;
use crate::journal::{self, Journal};
use crate::spec::JobSpec;
use crate::tenant::TenantState;
use enerj_apps::trials::{json_f64, json_string};
use enerj_hw::quanta::EnergyQuanta;

impl Server {
    pub(super) fn handle_conn(&self, mut stream: TcpStream) {
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
                let body = format!(
                    "{{\"ok\":true,\"jobs_active\":{},\"draining\":{}}}",
                    st.active_jobs(None),
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
                let active = st.active_jobs(Some(name));
                let body = match st.tenants.get(*name) {
                    Some(t) => tenant_json(t, active),
                    // Never-seen tenants report their would-be config.
                    None => tenant_json(&TenantState::new(tenant_config(&self.cfg, name)), active),
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
    /// backoff hints so clients never have to guess. The caps are checked
    /// and the job id reserved under the lock; the job directory is created
    /// (three `fsync`s) with the lock released, the reservation counting
    /// against both caps meanwhile. A created job is inserted even if a
    /// drain began during the create: it is durable and resumes on restart.
    fn admit(&self, body: &str) -> Result<(String, usize), (u16, String)> {
        let spec = JobSpec::parse(body)
            .map_err(|e| (400, http::error_body("bad_request", &e, false, None)))?;
        let id = self.reserve(&spec)?;
        let dir = self.cfg.state_dir.join("jobs").join(&id);
        let created = Journal::create(&dir, &spec.to_json());
        let mut st = self.lock();
        st.reserved.remove(&id);
        let journal = created.map_err(|e| {
            let detail = format!("cannot create job dir: {e}");
            (500, http::error_body("internal", &detail, true, Some(1000)))
        })?;
        let trials = spec.total_trials();
        let deadline_at = spec.deadline_from(Instant::now());
        st.jobs.insert(id.clone(), Job::new(spec, journal, deadline_at));
        st.live.push(id.clone());
        drop(st);
        self.work.notify_all();
        Ok((id, trials))
    }

    /// Checks the admission caps for `spec` and reserves a job id against
    /// them, or says why not.
    fn reserve(&self, spec: &JobSpec) -> Result<String, (u16, String)> {
        let mut st = self.lock();
        if st.draining {
            return Err((
                503,
                http::error_body("draining", "server is draining", true, Some(1000)),
            ));
        }
        let active = st.active_jobs(None);
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
        let ts = tenant_entry(&mut st.tenants, &self.cfg, &spec.tenant);
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
        let tenant_active = st.active_jobs(Some(&spec.tenant));
        if tenant_active >= self.cfg.max_jobs_per_tenant {
            return Err((
                429,
                http::error_body(
                    "tenant_busy",
                    &format!(
                        "tenant `{}` already has {tenant_active} active jobs (cap {})",
                        spec.tenant, self.cfg.max_jobs_per_tenant
                    ),
                    true,
                    Some(500),
                ),
            ));
        }
        let id = format!("j{:06}", st.next_job_seq);
        st.next_job_seq += 1;
        st.reserved.insert(id.clone(), spec.tenant.clone());
        Ok(id)
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

fn tenant_json(t: &TenantState, active_jobs: usize) -> String {
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
        active_jobs,
        json_string(t.config.over_budget.as_str()),
    )
}
