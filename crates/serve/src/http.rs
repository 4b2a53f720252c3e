//! Minimal blocking HTTP/1.1 plumbing for the service front-end.
//!
//! This is deliberately a subset: request line + headers + an optional
//! `Content-Length` body, keep-alive by HTTP/1.1 default, and nothing
//! else (no chunked encoding, no TLS, no compression). The service's
//! request bodies are a few hundred bytes of JSON and its responses are
//! single JSON documents, so the subset is exactly what is exercised.
//!
//! The same port also speaks a one-line **line protocol** (`run {...}`,
//! `job 3`, `metrics`, `healthz`, `shutdown`): the first line of a
//! connection that does not end in `HTTP/1.x` is treated as a command
//! and answered with one line of JSON. That keeps CI smokes and quick
//! pokes possible from bare `bash` (`/dev/tcp`) without `curl`.

use std::io::{self, BufRead, Read, Write};

/// Cap on the header block of one request: the service's real requests
/// are tiny, so anything huge is a mistake or abuse, not a workload.
/// Header lines share it.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Cap on a request body, and on the first line, which carries a
/// line-protocol `run {...}` body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed inbound request, either HTTP or line-protocol.
#[derive(Debug)]
pub enum Request {
    /// A full HTTP request.
    Http {
        /// Request method (`GET`, `POST`, …), uppercased by the client.
        method: String,
        /// Request path (`/run`, `/job/3`, …), query string stripped.
        path: String,
        /// Request body (empty without a `Content-Length`).
        body: String,
        /// Whether the client asked to keep the connection open.
        keep_alive: bool,
    },
    /// A one-line command (`run {...}`, `metrics`, …).
    Line {
        /// The command word.
        cmd: String,
        /// Everything after the command word.
        rest: String,
    },
}

/// Reads one request off the connection. `Ok(None)` is a clean EOF
/// (client closed between keep-alive requests); errors are malformed or
/// oversized requests and should close the connection. No line is
/// buffered past its cap, however long the client streams without a
/// newline.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let line = read_line_capped(reader, MAX_BODY_BYTES)?;
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(None);
    }

    let is_http = line.ends_with("HTTP/1.1") || line.ends_with("HTTP/1.0");
    if !is_http {
        let (cmd, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        return Ok(Some(Request::Line {
            cmd: cmd.to_ascii_lowercase(),
            rest: rest.to_string(),
        }));
    }

    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("/");
    let path = target.split('?').next().unwrap_or("/").to_string();

    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    if line.ends_with("HTTP/1.0") {
        keep_alive = false;
    }
    let mut header_budget = MAX_HEADER_BYTES;
    loop {
        let h = read_line_capped(reader, header_budget)?;
        if h.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside headers",
            ));
        }
        header_budget -= h.len();
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not utf-8"))?;

    Ok(Some(Request::Http {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Reads one line of at most `cap` bytes, newline included; an empty
/// string is EOF. A line that reaches `cap` without a newline, or is not
/// UTF-8, is an `InvalidData` error.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<String> {
    let mut buf = Vec::new();
    reader.take(cap as u64).read_until(b'\n', &mut buf)?;
    if buf.len() == cap && !buf.ends_with(b"\n") {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
    }
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line not utf-8"))
}

/// The reason phrase for the handful of statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one HTTP response with a JSON body.
///
/// Head and body go out as one buffer in one `write_all`: the socket
/// has Nagle's algorithm on, so a second small write would sit until
/// the client's delayed ACK (~40 ms) on every keep-alive round trip.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Writes one line-protocol response: the JSON body and a newline, in
/// one write for the same reason as [`write_response`].
pub fn write_line<W: Write>(stream: &mut W, body: &str) -> io::Result<()> {
    let mut out = String::with_capacity(body.len() + 1);
    out.push_str(body);
    out.push('\n');
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call so a test can see how a response was
    /// split across writes (each one can become its own TCP segment).
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn http_response_is_one_write() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 200, r#"{"ok":true}"#, true).unwrap();
        assert_eq!(w.writes, 1);
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn an_endless_first_line_is_an_error() {
        let mut endless = io::BufReader::new(io::repeat(b'a'));
        assert!(read_request(&mut endless).is_err());
    }

    #[test]
    fn an_endless_header_line_is_an_error() {
        let mut endless =
            io::BufReader::new(b"GET /metrics HTTP/1.1\r\nX-Pad: ".chain(io::repeat(b'a')));
        assert!(read_request(&mut endless).is_err());
    }

    #[test]
    fn a_non_utf8_line_is_an_error() {
        assert!(read_request(&mut &b"run \xff\xfe\n"[..]).is_err());
    }

    #[test]
    fn http_and_line_requests_still_parse() {
        let mut http =
            &b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"[..];
        match read_request(&mut http).unwrap() {
            Some(Request::Http {
                method,
                path,
                body,
                keep_alive,
            }) => {
                assert_eq!((method.as_str(), path.as_str()), ("POST", "/run"));
                assert_eq!(body, "{}");
                assert!(!keep_alive);
            }
            other => panic!("{other:?}"),
        }
        let mut line = &b"run {\"app\":\"ll\"}\n"[..];
        match read_request(&mut line).unwrap() {
            Some(Request::Line { cmd, rest }) => {
                assert_eq!(cmd, "run");
                assert_eq!(rest, "{\"app\":\"ll\"}");
            }
            other => panic!("{other:?}"),
        }
        assert!(read_request(&mut line).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn line_response_is_one_write() {
        let mut w = CountingWriter::default();
        write_line(&mut w, r#"{"ok":true}"#).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"ok\":true}\n");
    }
}
