//! A hand-rolled, minimal HTTP/1.1 layer over [`std::net`].
//!
//! The build environment has no crates.io access, so the campaign service
//! speaks exactly the subset of HTTP/1.1 it needs and nothing more:
//! request line + headers + an optional `Content-Length` body on the way
//! in; status line + headers + either a `Content-Length` body or an
//! unbounded `Connection: close` stream (the NDJSON trial feed) on the way
//! out. Header and body sizes are capped so a misbehaving client cannot
//! balloon server memory, and all socket reads sit under the caller's
//! per-connection read timeout.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

use enerj_apps::trials::json_string;

/// Upper bound on a message head (start line + headers), on either side.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a message body (campaign specs are small JSON objects).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One message head: the request or status line, then the headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Head {
    /// The request line (`GET /healthz HTTP/1.1`) or status line.
    pub start: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// The body length the head announces; `None` without a
    /// `Content-Length` header.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a malformed length or one over
    /// [`MAX_BODY_BYTES`].
    pub fn content_length(&self) -> io::Result<Option<usize>> {
        let Some((_, value)) = self.headers.iter().find(|(name, _)| name == "content-length")
        else {
            return Ok(None);
        };
        let len = value.parse().map_err(|_| invalid("bad Content-Length"))?;
        if len > MAX_BODY_BYTES {
            return Err(invalid("body too large"));
        }
        Ok(Some(len))
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one message head, through the blank line that ends it; any bytes
/// after it stay buffered in `r` for the body. `Ok(None)` means the peer
/// closed the connection before sending anything. At most
/// [`MAX_HEAD_BYTES`] are read, so a peer that never sends a newline
/// cannot balloon memory.
///
/// # Errors
///
/// Propagates read errors (including timeouts); `UnexpectedEof` for a
/// head cut short; `InvalidData` for an oversized, non-UTF-8 or malformed
/// head.
pub(crate) fn read_head(r: &mut impl BufRead) -> io::Result<Option<Head>> {
    let mut raw = Vec::with_capacity(512);
    let mut limited = r.by_ref().take(MAX_HEAD_BYTES as u64);
    while !raw.ends_with(b"\r\n\r\n") {
        if limited.read_until(b'\n', &mut raw)? == 0 {
            return match (raw.is_empty(), limited.limit()) {
                (true, _) => Ok(None),
                (false, 0) => Err(invalid("head too large")),
                (false, _) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "head truncated")),
            };
        }
    }
    let text = String::from_utf8(raw).map_err(|_| invalid("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or_default().to_owned();
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) =
            line.split_once(':').ok_or_else(|| invalid(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok(Some(Head { start, headers }))
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with the query string stripped (e.g. `/jobs/j000001/stream`).
    pub path: String,
    /// Decoded query pairs, in source order (`?from_line=3`).
    pub query: Vec<(String, String)>,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query value under `key`, when present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `r`. `Ok(None)` means the peer closed the
/// connection before sending anything (a clean keep-alive end).
///
/// # Errors
///
/// As `read_head`, plus `InvalidData` for a malformed request line or
/// body length and `UnexpectedEof` for a body cut short.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(head) = read_head(r)? else {
        return Ok(None);
    };
    let mut parts = head.start.split(' ');
    let method =
        parts.next().filter(|m| !m.is_empty()).ok_or_else(|| invalid("missing method"))?.to_owned();
    let target = parts.next().ok_or_else(|| invalid("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), Vec::new()),
    };
    let mut body = vec![0u8; head.content_length()?.unwrap_or(0)];
    r.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, headers: head.headers, body }))
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect()
}

/// The reason phrase for the handful of status codes the service uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with a `Content-Length` body.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response body.
pub fn write_json(stream: &mut TcpStream, status: u16, json: &str) -> io::Result<()> {
    write_response(stream, status, "application/json", json.as_bytes())
}

/// Starts an unbounded NDJSON stream: no `Content-Length`, the end of the
/// stream is the end of the connection (`Connection: close`). The caller
/// then writes raw NDJSON bytes directly to the stream.
pub fn write_stream_head(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// A retriable-or-not service error as the standard JSON error body:
/// `{"error": ..., "retriable": ..., "backoff_ms": ...}`. Every rejected
/// request carries one, so clients can distinguish "try again later"
/// (queue full, draining) from "never" (over quota, malformed spec).
pub fn error_body(error: &str, detail: &str, retriable: bool, backoff_ms: Option<u64>) -> String {
    format!(
        "{{\"error\":{},\"detail\":{},\"retriable\":{},\"backoff_ms\":{}}}",
        json_string(error),
        json_string(detail),
        retriable,
        match backoff_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_owned(),
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut &bytes[..])
    }

    fn kind(bytes: &[u8]) -> io::ErrorKind {
        request(bytes).expect_err("a rejected request").kind()
    }

    #[test]
    fn head_reader_parses_a_request_and_leaves_the_body() {
        let req = request(
            b"POST /jobs?from_line=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody+",
        )
        .expect("well-formed")
        .expect("not EOF");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
        assert_eq!(req.query("from_line"), Some("3"));
        assert_eq!(req.headers[1], ("content-length".to_owned(), "4".to_owned()));
        assert_eq!(req.body, b"body");
        let mut rest: &[u8] = b"HTTP/1.1 200 OK\r\n\r\nline\n";
        let head = read_head(&mut rest).expect("well-formed").expect("not EOF");
        assert_eq!(head.start, "HTTP/1.1 200 OK");
        assert_eq!(head.content_length().expect("no length"), None);
        assert_eq!(rest, b"line\n", "the body stays in the reader");
    }

    #[test]
    fn head_reader_types_every_failure() {
        assert!(request(b"").expect("clean EOF").is_none());
        assert_eq!(kind(b"GET / HTTP/1.1\r\nHost: x\r\n"), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(b"GET / HTTP/1.1"), io::ErrorKind::UnexpectedEof);
        let long = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(kind(&long), io::ErrorKind::InvalidData, "no newline ever arrives");
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        while many.len() <= MAX_HEAD_BYTES {
            many.extend_from_slice(b"X-Pad: 0123456789\r\n");
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(kind(&many), io::ErrorKind::InvalidData, "oversize head");
        assert_eq!(kind(b"GET /\xff HTTP/1.1\r\n\r\n"), io::ErrorKind::InvalidData);
        assert_eq!(kind(b"GET / HTTP/1.1\r\nno colon\r\n\r\n"), io::ErrorKind::InvalidData);
        for bad in ["-1", "x", "1 2"] {
            let text = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert_eq!(kind(text.as_bytes()), io::ErrorKind::InvalidData, "length {bad}");
        }
        let over = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(kind(over.as_bytes()), io::ErrorKind::InvalidData);
        assert_eq!(
            kind(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(kind(b"\r\n\r\n"), io::ErrorKind::InvalidData, "missing method");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("from_line=3&follow&x=a=b");
        assert_eq!(
            q,
            vec![
                ("from_line".to_owned(), "3".to_owned()),
                ("follow".to_owned(), String::new()),
                ("x".to_owned(), "a=b".to_owned()),
            ]
        );
    }

    #[test]
    fn error_bodies_are_well_formed_json() {
        let body = error_body("queue_full", "12 jobs pending", true, Some(500));
        let parsed = enerj_apps::json::Json::parse(&body).expect("valid JSON");
        assert_eq!(parsed.get("error").and_then(|e| e.as_str()), Some("queue_full"));
        assert_eq!(parsed.get("retriable"), Some(&enerj_apps::json::Json::Bool(true)));
        assert_eq!(parsed.get("backoff_ms").and_then(|b| b.as_i128()), Some(500));
    }
}
