//! The client side of the campaign service: what `campaignctl`,
//! `stackbench` and the integration tests talk through.
//!
//! One request per connection (the server always answers
//! `Connection: close`), so the client is a handful of blocking socket
//! round-trips — no connection pooling, no state.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use enerj_apps::json::Json;

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
    ///
    /// # Errors
    ///
    /// A transport error, or `InvalidData` naming the response field that
    /// is missing or malformed: nothing the server leaves out is filled in.
    pub fn submit(&self, spec_json: &str) -> io::Result<Submitted> {
        let resp = self.request("POST", "/jobs", spec_json.as_bytes())?;
        let doc = resp.json().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let string = |key| field(&doc, key, |v| v.as_str().map(str::to_owned));
        if resp.status == 200 {
            Ok(Submitted::Accepted {
                job_id: string("job_id")?,
                trials: field(&doc, "trials", |t| t.as_i128().and_then(|t| t.try_into().ok()))?,
            })
        } else {
            Ok(Submitted::Rejected {
                status: resp.status,
                error: string("error")?,
                retriable: field(&doc, "retriable", |r| match r {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                })?,
                backoff_ms: field(&doc, "backoff_ms", |b| match b {
                    Json::Null => Some(None),
                    b => b.as_i128().and_then(|b| b.try_into().ok()).map(Some),
                })?,
                detail: string("detail")?,
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

/// Response field `key` of `doc`, as `read` takes it; an absent field, or
/// one `read` refuses, is an `InvalidData` error that names it.
fn field<'a, T>(
    doc: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> io::Result<T> {
    doc.get(key).and_then(read).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response field `{key}` is missing or malformed"),
        )
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Submits through a listener that answers one request with `status`
    /// and `body`.
    fn submit_against(status: u16, body: &'static str) -> io::Result<Submitted> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("one connection");
            http::read_request(&mut BufReader::new(&stream)).expect("a request");
            http::write_json(&mut stream, status, body).expect("the canned response");
        });
        let submitted = Client::new(addr).submit("{}");
        server.join().expect("canned server");
        submitted
    }

    fn invalid_field(status: u16, body: &'static str) -> String {
        let err = submit_against(status, body).expect_err("a malformed response");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn submit_reads_every_response_field() {
        match submit_against(200, r#"{"job_id":"j000001","accepted":true,"trials":12}"#) {
            Ok(Submitted::Accepted { job_id, trials }) => {
                assert_eq!((job_id.as_str(), trials), ("j000001", 12));
            }
            other => panic!("{other:?}"),
        }
        let body = r#"{"error":"queue_full","detail":"2 jobs","retriable":true,"backoff_ms":500}"#;
        match submit_against(429, body) {
            Ok(Submitted::Rejected { status, error, retriable, backoff_ms, detail }) => {
                assert_eq!((status, error.as_str(), retriable), (429, "queue_full", true));
                assert_eq!((backoff_ms, detail.as_str()), (Some(500), "2 jobs"));
            }
            other => panic!("{other:?}"),
        }
        let body = r#"{"error":"bad_request","detail":"x","retriable":false,"backoff_ms":null}"#;
        assert!(matches!(
            submit_against(400, body),
            Ok(Submitted::Rejected { backoff_ms: None, retriable: false, .. })
        ));
    }

    #[test]
    fn submit_refuses_missing_or_malformed_fields() {
        for (status, body, name) in [
            (200, r#"{"job_id":"j000001","accepted":true}"#, "trials"),
            (200, r#"{"job_id":"j000001","trials":-3}"#, "trials"),
            (200, r#"{"job_id":"j000001","trials":1.5}"#, "trials"),
            (200, r#"{"trials":4}"#, "job_id"),
            (429, r#"{"detail":"d","retriable":true,"backoff_ms":5}"#, "error"),
            (429, r#"{"error":"e","detail":"d","retriable":true,"backoff_ms":-5}"#, "backoff_ms"),
            (429, r#"{"error":"e","detail":"d","retriable":true}"#, "backoff_ms"),
            (429, r#"{"error":"e","detail":"d","retriable":1,"backoff_ms":5}"#, "retriable"),
            (429, r#"{"error":"e","retriable":true,"backoff_ms":5}"#, "detail"),
        ] {
            let err = invalid_field(status, body);
            assert!(err.contains(&format!("`{name}`")), "{body}: {err}");
        }
    }
}
