//! The client side of the campaign service: what `campaignctl`,
//! `stackbench` and the integration tests talk through.
//!
//! One request per connection (the server always answers
//! `Connection: close`), so the client is a handful of blocking socket
//! round-trips — no connection pooling, no state.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use enerj_bench::json::Json;

use crate::http::{self, Head};

/// A parsed response: status code plus body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes (complete: bounded responses are read to their
    /// `Content-Length`, streams to EOF).
    pub body: Vec<u8>,
}

impl Response {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        Json::parse(text).map_err(|e| e.to_string())
    }
}

/// A submission outcome the caller can branch on without parsing JSON.
#[derive(Debug)]
pub enum Submitted {
    /// Accepted: the job id and its total trial count.
    Accepted {
        /// Assigned job id (`j000001`, …).
        job_id: String,
        /// Total trials the job will run.
        trials: usize,
    },
    /// Rejected with the server's typed error.
    Rejected {
        /// HTTP status code.
        status: u16,
        /// The `error` field (`queue_full`, `over_quota`, …).
        error: String,
        /// Whether the server says retrying can succeed.
        retriable: bool,
        /// Suggested backoff before the retry, when given.
        backoff_ms: Option<u64>,
        /// Human-readable detail.
        detail: String,
    },
}

/// A blocking client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for `addr` (`host:port`) with a per-socket timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), timeout: Duration::from_secs(30) }
    }

    /// Overrides the per-socket read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(stream)
    }

    /// One request/response round trip.
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut stream = self.connect()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response(stream)
    }

    /// Submits a campaign spec (`enerj-serve/1` JSON).
    pub fn submit(&self, spec_json: &str) -> io::Result<Submitted> {
        let resp = self.request("POST", "/jobs", spec_json.as_bytes())?;
        let doc = resp.json().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if resp.status == 200 {
            let job_id = doc
                .get("job_id")
                .and_then(|j| j.as_str())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no job_id"))?
                .to_owned();
            let trials = doc.get("trials").and_then(|t| t.as_i128()).unwrap_or(0).max(0) as usize;
            Ok(Submitted::Accepted { job_id, trials })
        } else {
            Ok(Submitted::Rejected {
                status: resp.status,
                error: doc.get("error").and_then(|e| e.as_str()).unwrap_or("unknown").to_owned(),
                retriable: doc.get("retriable") == Some(&Json::Bool(true)),
                backoff_ms: doc
                    .get("backoff_ms")
                    .and_then(|b| b.as_i128())
                    .map(|b| b.max(0) as u64),
                detail: doc.get("detail").and_then(|d| d.as_str()).unwrap_or_default().to_owned(),
            })
        }
    }

    /// The job's status document.
    pub fn status(&self, job_id: &str) -> io::Result<Response> {
        self.request("GET", &format!("/jobs/{job_id}"), b"")
    }

    /// The finished job's summary document (409 while running).
    pub fn summary(&self, job_id: &str) -> io::Result<Response> {
        self.request("GET", &format!("/jobs/{job_id}/summary"), b"")
    }

    /// The tenant's quota/ledger document.
    pub fn tenant(&self, name: &str) -> io::Result<Response> {
        self.request("GET", &format!("/tenants/{name}"), b"")
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&self) -> io::Result<Response> {
        self.request("POST", "/shutdown", b"")
    }

    /// Server liveness.
    pub fn healthz(&self) -> io::Result<Response> {
        self.request("GET", "/healthz", b"")
    }

    /// Streams the job's NDJSON from line `from_line`, invoking `on_line`
    /// for every *complete* line (a torn trailing fragment at connection
    /// teardown is dropped, so a caller that resumes with
    /// `from_line = lines_seen` never duplicates or skips a line).
    pub fn stream_lines(
        &self,
        job_id: &str,
        from_line: u64,
        mut on_line: impl FnMut(&str),
    ) -> io::Result<()> {
        let mut stream = self.connect()?;
        let head = format!(
            "GET /jobs/{job_id}/stream?from_line={from_line} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr,
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        let mut r = BufReader::with_capacity(16 * 1024, stream);
        let (status, _) = read_status(&mut r)?;
        if status != 200 {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("stream request failed with status {status}"),
            ));
        }
        let mut line = Vec::new();
        loop {
            line.clear();
            // `read_until` stops short of a newline only at EOF, where a
            // torn trailing fragment is dropped.
            if r.read_until(b'\n', &mut line)? == 0 || line.pop() != Some(b'\n') {
                return Ok(());
            }
            if let Ok(text) = std::str::from_utf8(&line) {
                on_line(text);
            }
        }
    }

    /// Polls until the job is done (or `timeout` passes), returning the
    /// final verdict string.
    pub fn wait(&self, job_id: &str, timeout: Duration) -> io::Result<String> {
        let start = Instant::now();
        loop {
            let resp = self.status(job_id)?;
            if resp.status == 200 {
                let doc = resp.json().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if let Some(v) = doc.get("verdict").and_then(|v| v.as_str()) {
                    return Ok(v.to_owned());
                }
            }
            if start.elapsed() > timeout {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {job_id} not done after {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Reads a response head and the status code on its status line.
fn read_status(r: &mut impl BufRead) -> io::Result<(u16, Head)> {
    let head = http::read_head(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "response truncated"))?;
    let status = head
        .start
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, head))
}

/// Reads a whole bounded response (head + `Content-Length` body, or body
/// to EOF when no length was sent).
fn read_response(stream: TcpStream) -> io::Result<Response> {
    let mut r = BufReader::new(stream);
    let (status, head) = read_status(&mut r)?;
    let mut body = Vec::new();
    match head.content_length()? {
        Some(len) => {
            body.resize(len, 0);
            r.read_exact(&mut body)?;
        }
        None => {
            r.read_to_end(&mut body)?;
        }
    }
    Ok(Response { status, body })
}
