//! End-to-end robustness tests for `campaignd`: kill -9 recovery with
//! byte-identity, tenant quota enforcement (stop and degrade), admission
//! control, lease-based reclamation of dead and stalled workers, and
//! client-failure isolation. Every test spawns the real server binary and
//! talks to it over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use enerj_serve::client::{Client, Response, Submitted};

const WAIT: Duration = Duration::from_secs(120);

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(state_dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_campaignd"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn campaignd");
        let stdout = child.stdout.take().expect("piped stdout");
        let banner =
            BufReader::new(stdout).lines().next().and_then(|l| l.ok()).expect("campaignd banner");
        let addr = banner.rsplit(' ').next().unwrap_or_default().to_owned();
        assert!(addr.contains(':'), "unexpected banner: {banner}");
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_timeout(Duration::from_secs(30))
    }

    /// SIGKILL — no drain, no final fsync beyond what already committed.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    /// `POST /shutdown`: the drain must answer 200 and the process exit 0.
    fn shutdown(&mut self) {
        let resp = self.client().shutdown().expect("shutdown request");
        assert_eq!(resp.status, 200, "shutdown answer");
        let status = self.child.wait().expect("reap campaignd");
        assert!(status.success(), "campaignd exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enerj-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

fn spec(tenant: &str, levels: &str, runs: u64, chunk: usize, extra: &str) -> String {
    format!(
        "{{\"schema\":\"enerj-serve/1\",\"tenant\":\"{tenant}\",\"apps\":[\"MonteCarlo\"],\
         \"levels\":[{levels}],\"runs\":{runs},\"chunk\":{chunk}{extra}}}"
    )
}

fn submit_ok(client: &Client, spec: &str) -> String {
    match client.submit(spec).expect("submit") {
        Submitted::Accepted { job_id, .. } => job_id,
        Submitted::Rejected { error, detail, .. } => panic!("rejected ({error}): {detail}"),
    }
}

fn collect(client: &Client, job: &str, from_line: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    client
        .stream_lines(job, from_line, |line| {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        })
        .expect("stream");
    bytes
}

/// An integer field of a JSON answer, or -1 when it has none.
fn int_field(resp: std::io::Result<Response>, field: &str) -> i128 {
    resp.expect("request").json().expect("json").get(field).and_then(|v| v.as_i128()).unwrap_or(-1)
}

fn status_field(client: &Client, job: &str, field: &str) -> i128 {
    int_field(client.status(job), field)
}

/// Durability: kill -9 mid-campaign at a randomized committed boundary,
/// restart, resume — the full NDJSON stream of a two-app × two-level job
/// is byte-identical to an uninterrupted run on a separate server, the
/// exact quanta agree, and a client resuming with `from_line` sees no
/// duplicated or lost line.
#[test]
fn kill_resume_stream_is_byte_identical() {
    let job_spec = "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t1\",\
                    \"apps\":[\"MonteCarlo\",\"FFT\"],\"levels\":[\"Mild\",\"Aggressive\"],\
                    \"runs\":3,\"chunk\":2}";
    let total_trials = 12;

    let mut clean = Daemon::start(&tempdir("clean"), &["--workers", "2"]);
    let clean_client = clean.client();
    let clean_job = submit_ok(&clean_client, job_spec);
    assert_eq!(clean_client.wait(&clean_job, WAIT).expect("clean"), "complete");
    let clean_bytes = collect(&clean_client, &clean_job, 0);
    assert_eq!(clean_bytes.iter().filter(|&&b| b == b'\n').count(), total_trials);
    let clean_summary = clean_client.summary(&clean_job).expect("summary").json().expect("json");
    clean.shutdown();

    // Randomized kill point strictly inside the campaign.
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos() as usize;
    let kill_after = 1 + nanos % (total_trials - 2);
    let crash_dir = tempdir("crash");
    let mut crash = Daemon::start(&crash_dir, &["--workers", "2"]);
    let crash_client = crash.client();
    let crash_job = submit_ok(&crash_client, job_spec);
    // Collect the pre-kill prefix like a real client would: a live stream
    // that the kill below severs mid-flight.
    let prefix = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    let streamer = {
        let prefix = std::sync::Arc::clone(&prefix);
        let client = crash_client.clone();
        let job = crash_job.clone();
        std::thread::spawn(move || {
            let _ = client.stream_lines(&job, 0, |line| {
                prefix.lock().expect("prefix").push(line.to_owned());
            });
        })
    };
    while status_field(&crash_client, &crash_job, "trials_committed") < kill_after as i128 {
        std::thread::sleep(Duration::from_millis(2));
    }
    crash.kill9();
    streamer.join().expect("streamer thread");
    let prefix_lines: Vec<String> = prefix.lock().expect("prefix").clone();

    // The first claim after the restart stalls, so a job the kill left
    // unfinished stays unfinished while the admission counts are read:
    // both are derived from the recovered verdicts.
    let mut resumed =
        Daemon::start(&crash_dir, &["--workers", "2", "--test-stall-claim", "1:1000"]);
    let resumed_client = resumed.client();
    let active = || {
        let tenant = int_field(resumed_client.tenant("t1"), "active_jobs");
        (tenant, int_field(resumed_client.healthz(), "jobs_active"))
    };
    let status = resumed_client.status(&crash_job).expect("status").json().expect("json");
    let unfinished = i128::from(status.get("verdict").and_then(|v| v.as_str()).is_none());
    assert_eq!(
        active(),
        (unfinished, unfinished),
        "kill -9 after {kill_after} trials: admission counts after the restart"
    );
    assert_eq!(
        resumed_client.wait(&crash_job, WAIT).expect("resumed"),
        "complete",
        "kill -9 after {kill_after} trials: resumed verdict"
    );
    assert_eq!(active(), (0, 0), "kill -9 after {kill_after} trials: a verdict frees both slots");
    let crash_bytes = collect(&resumed_client, &crash_job, 0);
    assert_eq!(
        clean_bytes, crash_bytes,
        "kill -9 after {kill_after} trials must not change a single byte"
    );
    let resumed_summary =
        resumed_client.summary(&crash_job).expect("summary").json().expect("json");
    for field in ["quanta_total", "quanta_baseline", "trials_done", "mean_error", "panics"] {
        assert_eq!(
            clean_summary.get(field),
            resumed_summary.get(field),
            "kill -9 after {kill_after} trials: summary field `{field}` diverged across kill-resume"
        );
    }
    // Client-side resume: prefix collected before the kill + `from_line`
    // suffix collected after concatenates to the identical stream.
    let suffix = collect(&resumed_client, &crash_job, prefix_lines.len() as u64);
    let mut stitched: Vec<u8> = Vec::new();
    for line in &prefix_lines {
        stitched.extend_from_slice(line.as_bytes());
        stitched.push(b'\n');
    }
    stitched.extend_from_slice(&suffix);
    assert_eq!(
        clean_bytes, stitched,
        "kill -9 after {kill_after} trials: from_line resume must stitch exactly"
    );
    resumed.shutdown();
}

/// Quotas (stop policy): a tenant crossing its quota gets
/// an `over_quota` verdict with partial results at a chunk boundary, and
/// further submissions are rejected 403 non-retriable while an unrelated
/// tenant on the same server is untouched.
#[test]
fn over_quota_tenant_stops_with_partial_results() {
    let dir = tempdir("quota-stop");
    // One MonteCarlo Mild trial costs ~1.2e11 quanta; a 1000-quanta quota
    // trips on the very first chunk commit.
    let mut d = Daemon::start(&dir, &["--workers", "2", "--tenant", "capped:1000:stop"]);
    let client = d.client();
    let job = submit_ok(&client, &spec("capped", "\"Mild\"", 4, 2, ""));
    assert_eq!(client.wait(&job, WAIT).expect("job"), "over_quota");
    let summary = client.summary(&job).expect("summary").json().expect("json");
    assert_eq!(summary.get("trials_done").and_then(|v| v.as_i128()), Some(2));
    assert_eq!(collect(&client, &job, 0).iter().filter(|&&b| b == b'\n').count(), 2);

    // The tenant is now exhausted: admission rejects, non-retriable.
    match client.submit(&spec("capped", "\"Mild\"", 4, 2, "")).expect("submit") {
        Submitted::Rejected { status, error, retriable, .. } => {
            assert_eq!(status, 403);
            assert_eq!(error, "over_quota");
            assert!(!retriable, "quota exhaustion is not retriable");
        }
        Submitted::Accepted { .. } => panic!("exhausted tenant must be rejected"),
    }
    // Chaos isolation: an unrelated tenant still completes normally.
    let other = submit_ok(&client, &spec("fine", "\"Mild\"", 2, 2, ""));
    assert_eq!(client.wait(&other, WAIT).expect("other tenant"), "complete");
    let t = client.tenant("capped").expect("tenant").json().expect("json");
    assert!(t.get("spent").and_then(|v| v.as_u128()).unwrap_or(0) > 1000);
    d.shutdown();
}

/// Over-budget `degrade` policy: each over-budget chunk commit walks the
/// remaining trials one rung down the scheduler ladder (visible as
/// `scheduled_level` in the stream), then hard-stops at the Aggressive
/// floor with `over_quota`.
#[test]
fn degrade_policy_walks_the_ladder_then_stops() {
    let dir = tempdir("quota-degrade");
    let mut d = Daemon::start(&dir, &["--workers", "1", "--tenant", "lab:1000:degrade"]);
    let client = d.client();
    // 6 Precise trials, chunk 1: commit 0 trips the quota (degrade -> 1),
    // commits 1..3 keep walking (Mild, Medium, Aggressive), commit 3 is
    // at the floor and still over -> stop. Exactly 4 trials committed.
    let job = submit_ok(&client, &spec("lab", "\"Precise\"", 6, 1, ""));
    assert_eq!(client.wait(&job, WAIT).expect("job"), "over_quota");
    let summary = client.summary(&job).expect("summary").json().expect("json");
    assert_eq!(summary.get("trials_done").and_then(|v| v.as_i128()), Some(4));
    assert_eq!(summary.get("degrade_final").and_then(|v| v.as_i128()), Some(3));
    let text = String::from_utf8(collect(&client, &job, 0)).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("\"scheduled_level\":null"), "first trial ran as requested");
    for (line, rung) in lines[1..].iter().zip(["Mild", "Medium", "Aggressive"]) {
        assert!(
            line.contains(&format!("\"scheduled_level\":\"{rung}\"")),
            "expected rung {rung} in {line}"
        );
    }
    d.shutdown();
}

/// Admission control: a tenant at its job cap is rejected 429
/// `tenant_busy` while another tenant is admitted; with the queue full,
/// submissions are rejected 429 `queue_full`. Both are retriable with a
/// backoff hint, and a retry succeeds once the first job completes.
#[test]
fn queue_full_rejection_is_retriable_with_backoff() {
    let dir = tempdir("queue");
    // Stall the first claim so job 1 reliably occupies the queue.
    let mut d = Daemon::start(
        &dir,
        &[
            "--workers",
            "1",
            "--queue-cap",
            "2",
            "--max-jobs-per-tenant",
            "1",
            "--test-stall-claim",
            "1:1500",
            "--lease-secs",
            "30",
        ],
    );
    let client = d.client();
    let rejected = |tenant: &str, expected: &str| match client
        .submit(&spec(tenant, "\"Mild\"", 1, 1, ""))
        .expect("submit")
    {
        Submitted::Rejected { status, error, retriable, backoff_ms, .. } => {
            assert_eq!(status, 429);
            assert_eq!(error, expected);
            assert!(retriable, "{expected} is transient");
            assert!(backoff_ms.is_some(), "server must hint a backoff");
        }
        Submitted::Accepted { .. } => panic!("{tenant} must be rejected with {expected}"),
    };
    let first = submit_ok(&client, &spec("t1", "\"Mild\"", 1, 1, ""));
    rejected("t1", "tenant_busy");
    let other = submit_ok(&client, &spec("t2", "\"Mild\"", 1, 1, ""));
    rejected("t3", "queue_full");
    assert_eq!(client.wait(&first, WAIT).expect("first"), "complete");
    let retry = submit_ok(&client, &spec("t1", "\"Mild\"", 1, 1, ""));
    assert_eq!(client.wait(&retry, WAIT).expect("retry"), "complete");
    assert_eq!(client.wait(&other, WAIT).expect("other tenant"), "complete");
    d.shutdown();
}

/// Admission caps under concurrent submits: eight submits over four
/// tenants race at a daemon capped at two active jobs and one per tenant,
/// whose first claim stalls so no slot frees during the burst. A job whose
/// directory is still being created counts against both caps, so the
/// accepted jobs never exceed either; every rejection is a typed, retriable
/// 429 with a backoff hint, and every accepted job completes.
#[test]
fn concurrent_admission_never_exceeds_the_caps() {
    let dir = tempdir("admit-burst");
    let mut d = Daemon::start(
        &dir,
        &[
            "--workers",
            "1",
            "--queue-cap",
            "2",
            "--max-jobs-per-tenant",
            "1",
            "--test-stall-claim",
            "1:2000",
            "--lease-secs",
            "30",
        ],
    );
    let client = d.client();
    let start = std::sync::Arc::new(std::sync::Barrier::new(8));
    let submits: Vec<_> = (0..8)
        .map(|i| {
            let (client, start) = (client.clone(), std::sync::Arc::clone(&start));
            std::thread::spawn(move || {
                let tenant = format!("t{}", i % 4);
                start.wait();
                let answer = client.submit(&spec(&tenant, "\"Mild\"", 1, 1, "")).expect("submit");
                (tenant, answer)
            })
        })
        .collect();
    let mut accepted: Vec<(String, String)> = Vec::new();
    for submit in submits {
        match submit.join().expect("submit thread") {
            (tenant, Submitted::Accepted { job_id, .. }) => accepted.push((tenant, job_id)),
            (_, Submitted::Rejected { status, error, retriable, backoff_ms, .. }) => {
                assert_eq!(status, 429, "rejected with {error}");
                assert!(error == "queue_full" || error == "tenant_busy", "untyped: {error}");
                assert!(retriable, "{error} is transient");
                assert!(backoff_ms.is_some(), "{error} must hint a backoff");
            }
        }
    }
    // The stalled first claim keeps every accepted job active until here.
    assert!((1..=2).contains(&accepted.len()), "accepted {accepted:?} under queue cap 2");
    for (tenant, _) in &accepted {
        let jobs = accepted.iter().filter(|(t, _)| t == tenant).count();
        assert_eq!(jobs, 1, "tenant {tenant} holds {jobs} jobs under a cap of 1");
    }
    assert_eq!(int_field(client.healthz(), "jobs_active"), accepted.len() as i128);
    for (_, job) in &accepted {
        assert_eq!(client.wait(job, WAIT).expect("accepted job"), "complete");
    }
    assert_eq!(int_field(client.healthz(), "jobs_active"), 0);
    d.shutdown();
}

/// Supervision (dead worker): a worker that dies mid-chunk (panic) loses its
/// lease; the chunk is reclaimed, re-run by a surviving worker, and the
/// output is byte-identical to a run on a healthy server.
#[test]
fn dead_worker_chunks_are_reclaimed_via_leases() {
    let job_spec = spec("t1", "\"Mild\"", 6, 2, "");
    let mut healthy = Daemon::start(&tempdir("healthy"), &["--workers", "2"]);
    let hc = healthy.client();
    let healthy_job = submit_ok(&hc, &job_spec);
    assert_eq!(hc.wait(&healthy_job, WAIT).expect("healthy"), "complete");
    let expected = collect(&hc, &healthy_job, 0);
    healthy.shutdown();

    let mut chaos = Daemon::start(
        &tempdir("panic-worker"),
        &["--workers", "2", "--lease-secs", "0.4", "--test-panic-claim", "1"],
    );
    let cc = chaos.client();
    let job = submit_ok(&cc, &job_spec);
    assert_eq!(cc.wait(&job, WAIT).expect("chaos"), "complete");
    assert_eq!(collect(&cc, &job, 0), expected, "reclaimed chunks must re-run identically");
    chaos.shutdown();
}

/// Supervision (stalled worker): a *stalled* worker (alive but wedged past its
/// lease) is treated the same — the chunk re-runs elsewhere and the
/// stalled worker's late result is discarded by the generation check, so
/// nothing is committed twice.
#[test]
fn stalled_worker_chunks_are_reclaimed_and_not_double_committed() {
    let job_spec = spec("t1", "\"Mild\"", 6, 2, "");
    let mut healthy = Daemon::start(&tempdir("healthy2"), &["--workers", "2"]);
    let hc = healthy.client();
    let healthy_job = submit_ok(&hc, &job_spec);
    assert_eq!(hc.wait(&healthy_job, WAIT).expect("healthy"), "complete");
    let expected = collect(&hc, &healthy_job, 0);
    healthy.shutdown();

    let mut chaos = Daemon::start(
        &tempdir("stall-worker"),
        &["--workers", "2", "--lease-secs", "0.4", "--test-stall-claim", "2:2500"],
    );
    let cc = chaos.client();
    let job = submit_ok(&cc, &job_spec);
    assert_eq!(cc.wait(&job, WAIT).expect("chaos"), "complete");
    let got = collect(&cc, &job, 0);
    assert_eq!(got, expected, "stalled-worker reclaim must not duplicate or reorder lines");
    // Wait out the stalled worker's late commit attempt, then re-check
    // the durable bytes: the generation check must have discarded it.
    std::thread::sleep(Duration::from_millis(3000));
    assert_eq!(collect(&cc, &job, 0), expected, "late result must be discarded, not appended");
    chaos.shutdown();
}

/// Isolation (chaos): a client that connects, reads a few
/// bytes and vanishes — and a slow reader that never drains its socket —
/// disturb neither the campaign nor other tenants.
#[test]
fn client_disconnect_and_slow_reader_are_isolated() {
    let dir = tempdir("clients");
    let mut d = Daemon::start(&dir, &["--workers", "2", "--write-timeout-secs", "1"]);
    let client = d.client();
    let job_a = submit_ok(&client, &spec("streamy", "\"Mild\",\"Aggressive\"", 3, 2, ""));

    // Rude client: read a little, then disconnect mid-stream.
    {
        let mut raw = TcpStream::connect(&d.addr).expect("connect");
        raw.write_all(
            format!("GET /jobs/{job_a}/stream HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("request");
        let mut tiny = [0u8; 64];
        let _ = raw.read(&mut tiny);
        // dropped here: connection reset mid-stream
    }
    // Slow reader: opens the stream and never reads. The server's write
    // timeout bounds the damage to this one socket.
    let slow = TcpStream::connect(&d.addr).expect("connect");
    {
        let mut s = slow.try_clone().expect("clone");
        s.write_all(
            format!("GET /jobs/{job_a}/stream HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("request");
    }

    // Another tenant's job completes promptly despite both misbehaving
    // clients, and job A itself is unharmed.
    let job_b = submit_ok(&client, &spec("prompt", "\"Mild\"", 2, 2, ""));
    assert_eq!(client.wait(&job_b, WAIT).expect("job b"), "complete");
    assert_eq!(client.wait(&job_a, WAIT).expect("job a"), "complete");
    let full = collect(&client, &job_a, 0);
    assert_eq!(full.iter().filter(|&&b| b == b'\n').count(), 6);
    drop(slow);
    d.shutdown();
}

/// A job deadline truncates at a chunk boundary with an explicit
/// `deadline_exceeded` verdict, and the committed prefix stays streamable.
#[test]
fn job_deadline_truncates_with_explicit_verdict() {
    let dir = tempdir("deadline");
    // One worker stalled 1.5s on its first claim + a 0.5s deadline: the
    // deadline fires before any chunk commits.
    let mut d = Daemon::start(
        &dir,
        &["--workers", "1", "--lease-secs", "30", "--test-stall-claim", "1:1500"],
    );
    let client = d.client();
    let job = submit_ok(&client, &spec("t1", "\"Mild\"", 4, 2, ",\"deadline_secs\":0.5"));
    assert_eq!(client.wait(&job, WAIT).expect("job"), "deadline_exceeded");
    let summary = client.summary(&job).expect("summary").json().expect("json");
    let done = summary.get("trials_done").and_then(|v| v.as_i128()).unwrap_or(-1);
    assert!((0..8).contains(&done), "deadline must truncate, got {done}");
    assert_eq!(
        collect(&client, &job, 0).iter().filter(|&&b| b == b'\n').count() as i128,
        done,
        "stream serves exactly the committed prefix"
    );
    d.shutdown();
}

/// Malformed specs are rejected 400 with a non-retriable typed error.
#[test]
fn bad_specs_are_rejected_with_typed_errors() {
    let dir = tempdir("badspec");
    let mut d = Daemon::start(&dir, &["--workers", "1"]);
    let client = d.client();
    for bad in [
        "not json at all",
        "{\"schema\":\"enerj-serve/2\",\"tenant\":\"t\",\"apps\":[\"MonteCarlo\"],\"levels\":[\"Mild\"],\"runs\":1}",
        "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t\",\"apps\":[\"Nope\"],\"levels\":[\"Mild\"],\"runs\":1}",
        "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t\",\"apps\":[\"MonteCarlo\"],\"levels\":[\"Mild\"],\"runs\":0}",
        "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t\",\"apps\":[\"MonteCarlo\"],\"levels\":[\"Mild\"],\"runs\":18446744073709551619}",
        "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t\",\"apps\":[\"MonteCarlo\"],\"levels\":[\"Mild\"],\"runs\":1,\"deadline_secs\":1e300}",
        // 2 × 1 × 2^63 trials overflow 64 bits.
        "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t\",\"apps\":[\"MonteCarlo\",\"FFT\"],\"levels\":[\"Mild\"],\"runs\":9223372036854775808}",
        // Representable, but far above the per-job trial cap.
        "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t\",\"apps\":[\"MonteCarlo\"],\"levels\":[\"Mild\"],\"runs\":1000000000000000}",
    ] {
        match client.submit(bad).expect("submit") {
            Submitted::Rejected { status, error, retriable, .. } => {
                assert_eq!(status, 400, "spec: {bad}");
                assert_eq!(error, "bad_request");
                assert!(!retriable);
            }
            Submitted::Accepted { .. } => panic!("must reject: {bad}"),
        }
    }
    d.shutdown();
}

/// Twenty back-to-back start → `POST /shutdown` cycles: every drain
/// answers 200 before the process exits 0, because the drain joins the
/// handler still writing that answer.
#[test]
fn back_to_back_shutdowns_answer_and_exit_cleanly() {
    let dir = tempdir("cycles");
    for _ in 0..20 {
        Daemon::start(&dir, &["--workers", "2"]).shutdown();
    }
}

/// Streams `job` from line 0 on its own thread; the channel yields the
/// outcome and the complete lines once the stream reaches EOF.
fn stream_in_background(
    client: &Client,
    job: &str,
) -> mpsc::Receiver<(Result<(), String>, Vec<u8>)> {
    let (tx, rx) = mpsc::channel();
    let (client, job) = (client.clone(), job.to_owned());
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let outcome = client.stream_lines(&job, 0, |line| {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        });
        let _ = tx.send((outcome.map_err(|e| e.to_string()), bytes));
    });
    rx
}

/// A stream left open across `POST /shutdown` ends cleanly once the drain
/// has committed its last chunk, at a line boundary and with only
/// committed bytes, so stitched to a `from_line` resumption after a
/// restart it is byte-identical to an uninterrupted run.
#[test]
fn stream_open_across_shutdown_stitches_to_the_resumed_run() {
    let job_spec = "{\"schema\":\"enerj-serve/1\",\"tenant\":\"t1\",\
                    \"apps\":[\"MonteCarlo\",\"FFT\"],\"levels\":[\"Mild\",\"Aggressive\"],\
                    \"runs\":3,\"chunk\":2}";
    let total_trials = 12;
    let mut clean = Daemon::start(&tempdir("drain-clean"), &["--workers", "1"]);
    let clean_client = clean.client();
    let clean_job = submit_ok(&clean_client, job_spec);
    assert_eq!(clean_client.wait(&clean_job, WAIT).expect("clean"), "complete");
    let clean_bytes = collect(&clean_client, &clean_job, 0);
    clean.shutdown();

    // One worker, stalled on its second claim: chunk 0 is committed and
    // chunk 1 is in flight when the drain starts.
    let dir = tempdir("drain-stream");
    let mut d = Daemon::start(
        &dir,
        &["--workers", "1", "--lease-secs", "30", "--test-stall-claim", "2:1000"],
    );
    let client = d.client();
    let job = submit_ok(&client, job_spec);
    let streamed = stream_in_background(&client, &job);
    while status_field(&client, &job, "trials_committed") < 2 {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(client.shutdown().expect("shutdown").status, 200);
    let (outcome, prefix) = streamed.recv_timeout(WAIT).expect("the stream ends with the drain");
    outcome.expect("the stream ends cleanly");
    assert!(d.child.wait().expect("reap campaignd").success());
    let lines = prefix.iter().filter(|&&b| b == b'\n').count();
    assert!(
        (2..total_trials).contains(&lines) && lines % 2 == 0,
        "the drain must leave the job unfinished at a chunk boundary, streamed {lines} lines"
    );

    let mut resumed = Daemon::start(&dir, &["--workers", "1"]);
    let resumed_client = resumed.client();
    assert_eq!(resumed_client.wait(&job, WAIT).expect("resumed"), "complete");
    let mut stitched = prefix;
    stitched.extend_from_slice(&collect(&resumed_client, &job, lines as u64));
    assert_eq!(clean_bytes, stitched, "drained prefix + from_line resume must stitch exactly");
    resumed.shutdown();
}

/// A malformed `from_line` is a typed 400, never a silent replay from line
/// 0, on the server and in `campaignctl stream` (usage error, exit 2).
#[test]
fn malformed_from_line_is_a_bad_request() {
    let mut d = Daemon::start(&tempdir("from-line"), &["--workers", "1"]);
    let client = d.client();
    let job = submit_ok(&client, &spec("t1", "\"Mild\"", 2, 1, ""));
    assert_eq!(client.wait(&job, WAIT).expect("job"), "complete");
    for bad in ["abc", "-1", "", "1.5"] {
        let resp = client
            .request("GET", &format!("/jobs/{job}/stream?from_line={bad}"), b"")
            .expect("stream request");
        assert_eq!(resp.status, 400, "from_line={bad:?}");
        let doc = resp.json().expect("error json");
        assert_eq!(doc.get("error").and_then(|e| e.as_str()), Some("bad_request"));
    }
    assert_eq!(collect(&client, &job, 1).iter().filter(|&&b| b == b'\n').count(), 1);
    for args in [&["--from-line", "abc"][..], &["--from-line"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaignctl"))
            .args(["stream", "--addr", &d.addr, &job])
            .args(args)
            .output()
            .expect("run campaignctl");
        assert_eq!(out.status.code(), Some(2), "campaignctl stream {args:?}");
        assert!(out.stdout.is_empty(), "no replay on a usage error");
    }
    d.shutdown();
}

/// A live stream of a job that the deadline check finalizes, not a commit
/// (its only worker is stalled), reaches EOF with exactly the committed
/// prefix.
#[test]
fn deadline_finalized_stream_ends_with_the_committed_prefix() {
    let dir = tempdir("deadline-stream");
    // The supervisor checks deadlines every lease/4 = 0.5 s; the worker
    // stalls 2.5 s on its second claim, past the 1 s deadline.
    let mut d = Daemon::start(
        &dir,
        &["--workers", "1", "--lease-secs", "2", "--test-stall-claim", "2:2500"],
    );
    let client = d.client();
    let job = submit_ok(&client, &spec("t1", "\"Mild\"", 4, 2, ",\"deadline_secs\":1.0"));
    let streamed = stream_in_background(&client, &job);
    let (outcome, bytes) = streamed.recv_timeout(WAIT).expect("the stream ends at the verdict");
    outcome.expect("the stream ends cleanly");
    assert_eq!(client.wait(&job, WAIT).expect("job"), "deadline_exceeded");
    let summary = client.summary(&job).expect("summary").json().expect("json");
    let done = summary.get("trials_done").and_then(|v| v.as_i128()).unwrap_or(-1);
    assert!((0..4).contains(&done), "the deadline must truncate, got {done}");
    assert_eq!(
        bytes.iter().filter(|&&b| b == b'\n').count() as i128,
        done,
        "the stream serves exactly the committed prefix"
    );
    d.shutdown();
}

/// An idle daemon drains promptly on `POST /shutdown`: the supervisor waits
/// on the work condvar, not a quarter-lease sleep, so even a 30 s lease
/// does not hold the exit for 7.5 s.
#[test]
fn idle_daemon_exits_promptly_on_shutdown() {
    let dir = tempdir("shutdown");
    let mut d = Daemon::start(&dir, &["--workers", "2", "--lease-secs", "30"]);
    // Let the supervisor settle into its first tick wait.
    std::thread::sleep(Duration::from_millis(200));
    let asked = std::time::Instant::now();
    d.client().shutdown().expect("shutdown accepted");
    loop {
        if d.child.try_wait().expect("poll campaignd").is_some() {
            break;
        }
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "campaignd still running {:?} after /shutdown",
            asked.elapsed()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
