//! End-to-end service tests: a real server on an ephemeral port, real
//! TCP clients, and the acceptance properties from the service design —
//! in-flight duplicates simulate once, results are byte-identical to
//! direct library runs, restarts serve from the cache without touching
//! the pool, and `/metrics`/`/healthz` stay well-formed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ndpb_bench::json::Json;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_serve::{Server, ServerConfig, State};
use ndpb_workloads::Scale;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndpb-serve-{tag}-{}", std::process::id()))
}

fn start(cfg: ServerConfig) -> (SocketAddr, Arc<State>, JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.addr();
    let state = Arc::clone(server.state());
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, state, handle)
}

/// Minimal HTTP client: one request per call, `Connection: close`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn job_id(run_response: &str) -> u64 {
    Json::parse(run_response)
        .expect("run response JSON")
        .u64_field("id")
        .expect("job id")
}

fn poll_done(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/job/{id}"), "");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"done\"") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown_and_join(addr: SocketAddr, handle: JoinHandle<()>) {
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
}

fn server_counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let j = Json::parse(&body).expect("metrics JSON");
    j.get("server")
        .and_then(|s| s.u64_field(name))
        .unwrap_or_else(|| panic!("missing server counter {name} in {body}"))
}

const BODY: &str = "{\"app\":\"ll\",\"design\":\"C\",\"scale\":\"tiny\"}";

fn expected_result_json() -> String {
    // The exact run the service performs for BODY: Table-1 config,
    // default audit level, via the same library entry point.
    ndpb_bench::run_one("ll", DesignPoint::C, SystemConfig::table1(), Scale::Tiny).to_json()
}

#[test]
fn duplicate_requests_dedup_cache_and_restart_roundtrip() {
    let dir = temp_dir("e2e");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        cache_dir: Some(dir.clone()),
        jobs: 2,
        ..ServerConfig::default()
    };
    let (addr, _state, handle) = start(cfg.clone());

    // Same request twice, concurrently, against a cold cache.
    let submit = |addr: SocketAddr| {
        thread::spawn(move || {
            let (status, body) = http(addr, "POST", "/run", BODY);
            assert_eq!(status, 200, "{body}");
            job_id(&body)
        })
    };
    let (a, b) = (submit(addr), submit(addr));
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    assert_ne!(a, b, "each request gets its own job id");

    // Both jobs finish with byte-identical results, equal to the
    // direct library run of the same point.
    let expected = format!("\"results\":[{}]}}", expected_result_json());
    let doc_a = poll_done(addr, a);
    let doc_b = poll_done(addr, b);
    assert!(doc_a.ends_with(&expected), "service != library: {doc_a}");
    assert_eq!(
        doc_a.replace(&format!("\"id\":{a},"), ""),
        doc_b.replace(&format!("\"id\":{b},"), ""),
        "duplicate jobs must carry identical result bytes"
    );

    // Exactly one simulation ran; the other request was deduped (or, if
    // the first finished before the second arrived, cache-served).
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let j = Json::parse(&body).expect("metrics JSON");
    let server = j.get("server").expect("server block");
    assert_eq!(server.u64_field("accepted"), Some(2), "{body}");
    assert_eq!(server.u64_field("rejected"), Some(0));
    assert_eq!(server.u64_field("in_flight"), Some(0));
    let overlapped = server.u64_field("deduped").unwrap() + server.u64_field("cache_hits").unwrap();
    assert_eq!(overlapped, 1, "second request must not simulate: {body}");
    let sweep = j.get("sweep").expect("sweep block");
    let names: Vec<&str> = sweep
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let values = j
        .get("sweep")
        .and_then(|s| s.get("snapshots"))
        .and_then(Json::as_arr)
        .and_then(|a| a.last())
        .and_then(|s| s.get("values"))
        .and_then(Json::as_arr)
        .unwrap();
    let simulated = names
        .iter()
        .position(|&n| n == "sweep/simulated")
        .and_then(|i| values[i].as_u64())
        .expect("sweep/simulated in live report");
    assert_eq!(simulated, 1, "exactly one pool execution");

    // Healthz is well-formed.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let h = Json::parse(&body).expect("healthz JSON");
    assert_eq!(h.get("ok").and_then(|v| v.as_bool()), Some(true));

    shutdown_and_join(addr, handle);

    // Restart on the same cache dir: the resubmit is served from disk
    // without touching the pool, byte-identical again.
    let (addr, state, handle) = start(cfg);
    let (status, body) = http(addr, "POST", "/run", BODY);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"status\":\"done\""),
        "cache fast path completes at submit: {body}"
    );
    assert!(body.ends_with(&expected), "cached != live: {body}");
    assert_eq!(server_counter(addr, "cache_hits"), 1);
    assert_eq!(
        state
            .sweeper()
            .metrics()
            .live_report()
            .final_value("sweep/simulated"),
        None,
        "pool never started on the warm path"
    );
    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn line_protocol_answers_one_command_per_connection() {
    let (addr, _state, handle) = start(ServerConfig {
        cache_dir: None,
        jobs: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"healthz\n").unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    let j = Json::parse(line.trim()).expect("line response is JSON");
    assert_eq!(j.get("ok").and_then(|v| v.as_bool()), Some(true));
    shutdown_and_join(addr, handle);
}

#[test]
fn shutdown_drains_in_flight_work_into_the_cache() {
    let dir = temp_dir("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, state, handle) = start(ServerConfig {
        cache_dir: Some(dir.clone()),
        jobs: 1,
        ..ServerConfig::default()
    });
    let (status, body) = http(addr, "POST", "/run", BODY);
    assert_eq!(status, 200, "{body}");
    shutdown_and_join(addr, handle);
    assert_eq!(state.in_flight(), 0, "run() returned before draining");
    let entries = std::fs::read_dir(&dir)
        .expect("cache dir exists after drain")
        .count();
    assert_eq!(entries, 1, "drained result landed in the cache");
    let _ = std::fs::remove_dir_all(&dir);
}
