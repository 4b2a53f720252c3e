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

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Cap on header block and body sizes: the service's real requests are
/// tiny, so anything huge is a mistake or abuse, not a workload.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

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
/// oversized requests and should close the connection.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
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
    let mut header_bytes = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside headers",
            ));
        }
        header_bytes += h.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "headers too large",
            ));
        }
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
    fn line_response_is_one_write() {
        let mut w = CountingWriter::default();
        write_line(&mut w, r#"{"ok":true}"#).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"ok\":true}\n");
    }
}
