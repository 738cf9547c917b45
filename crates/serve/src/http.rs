//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Just enough of RFC 9112 for the serving layer: request-line + header
//! parsing with bounded buffers, `Content-Length` bodies, keep-alive by
//! default, and a response writer. Partial reads are handled by looping —
//! a client trickling its request byte-by-byte parses identically to one
//! sending it in a single segment. Anything outside the supported subset
//! (chunked transfer encoding, HTTP/0.9/2 request lines) is a structured
//! [`RequestError`], never a panic.

use std::io::{self, Read, Write};

/// Upper bound on the request line + headers (a request whose header block
/// exceeds this reads as [`RequestError::TooLarge`]).
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Request method (`GET`, `POST`, …), verbatim.
    pub method: String,
    /// Request target (`/predict`), verbatim — no query parsing.
    pub target: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lower-case), if present.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub(crate) enum RequestError {
    /// The connection ended: the peer closed it, cleanly between requests
    /// or abruptly mid-request, or a transport error (read timeout on an
    /// idle keep-alive connection, reset, …) broke it. Either way there is
    /// nobody to answer; the server just drops the connection.
    Closed,
    /// The bytes on the wire are not a request this stack accepts; answer
    /// `400 Bad Request` and close.
    Malformed(&'static str),
    /// The declared body (or the header block) exceeds the configured
    /// bound; answer `413 Content Too Large` and close.
    TooLarge,
}

/// Reads one request from `stream`, looping over partial reads until the
/// header terminator and the full declared body have arrived. Bodies are
/// bounded by `max_body` *before* any body byte is read, so an oversized
/// upload costs its headers, not its payload.
pub(crate) fn read_request(
    stream: &mut impl Read,
    max_body: usize,
) -> Result<Request, RequestError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let header_end = loop {
        if let Some(end) = find_terminator(&buf) {
            break end;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Err(RequestError::Closed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| RequestError::Malformed("header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(RequestError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            line.split_once(':').ok_or(RequestError::Malformed("bad header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(RequestError::Malformed("chunked transfer encoding not supported"));
    }
    let content_length = match request.header("content-length") {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed("bad Content-Length"))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(RequestError::TooLarge);
    }

    // Body: whatever trailed the header terminator, then read to length.
    let mut body = buf[header_end + 4..].to_vec();
    if body.len() > content_length {
        // Pipelined extra bytes are outside the supported subset.
        return Err(RequestError::Malformed("body longer than Content-Length"));
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) | Err(_) => return Err(RequestError::Closed),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    Ok(Request { body, ..request })
}

/// The position of the `\r\n\r\n` header terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one `HTTP/1.1` response with a JSON body.
pub(crate) fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Client-side counterpart of `write_response`: reads one response off
/// `stream` and returns `(status, body)`. Used by the load generator and
/// the serving test suite; loops over partial reads like the server side.
pub fn read_response(stream: &mut impl Read) -> io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let header_end = loop {
        if let Some(end) = find_terminator(&buf) {
            break end;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk)? {
            0 => return Err(bad("connection closed before response head")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want])? {
            0 => return Err(bad("connection closed mid-body")),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_request() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\nHost: x\r\n\r\nabcd";
        let req = read_request(&mut &raw[..], 1024).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/predict");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut &raw[..], 1024).expect("parse");
        assert!(req.wants_close());
    }

    #[test]
    fn oversized_declared_body_is_too_large_without_reading_it() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10000\r\n\r\n";
        match read_request(&mut &raw[..], 1024) {
            Err(RequestError::TooLarge) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_reads_as_closed() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc";
        match read_request(&mut &raw[..], 1024) {
            Err(RequestError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed_not_panic() {
        for raw in [
            &b"\xff\xfe\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            match read_request(&mut &raw[..], 1024) {
                Err(RequestError::Malformed(_)) => {}
                other => panic!("expected Malformed for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "OK", "{\"ok\":true}", true).unwrap();
        let (status, body) = read_response(&mut &wire[..]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }

    /// A reader handing out one byte per call: the partial-read loop must
    /// assemble the request regardless of segmentation.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn byte_at_a_time_reads_parse_identically() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut Trickle(raw), 1024).expect("parse");
        assert_eq!((req.method.as_str(), req.body.as_slice()), ("POST", &b"abcd"[..]));
    }
}
