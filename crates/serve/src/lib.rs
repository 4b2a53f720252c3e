//! # ndpb-serve
//!
//! A resident simulation-as-a-service front-end over the sweep engine:
//! the `repro serve` subcommand binds a TCP port and turns the one-shot
//! CLI into a long-running server. The pipeline per request is
//!
//! ```text
//! admission → dedup/batch → resident pool → result cache
//! ```
//!
//! * **Admission** bounds the number of unique in-flight points
//!   (`max_queue`, 429 on overflow) and the per-request point count
//!   (`max_points`, 413 on overflow); a draining server answers 503.
//! * **Dedup** coalesces identical in-flight [`SweepPoint`]s: all
//!   concurrent requests for one content-addressed key share one
//!   [`jobs::PointCell`], the simulation runs exactly once, and the
//!   result fans out to every attached job.
//! * The **resident pool** is [`Sweeper::submit`], the same worker loop
//!   the CLI's batch sweeps use. Its workers survive between requests,
//!   and the worker that ran a point fills the point's cell and releases
//!   its in-flight key through the submit callback.
//! * The **cache** serves repeat keys without touching the pool at all:
//!   pool workers store results on disk *before* completing a point, so
//!   every submitted key is obtainable from exactly one of
//!   {in-flight table, cache}.
//! * A **failed** point (its simulation panicked) leaves the in-flight
//!   table without a cache entry, so a later request re-runs it; every
//!   job attached to it reports `"status":"failed"` with the message.
//!
//! Endpoints: `POST /run`, `GET /job/{id}`, `GET /metrics`,
//! `GET /healthz`, `POST /shutdown`. The same port speaks a one-line
//! protocol (see [`http`]) so `bash` alone can drive a smoke test.
//! SIGINT or `/shutdown` drains in-flight jobs before exiting.

pub mod http;
pub mod jobs;

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ndpb_bench::sweep::PointOutcome;
use ndpb_bench::{SweepPoint, Sweeper};

use http::Request;
use jobs::{escape_json, Job, PointCell, RunRequest};

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Simulation worker count for the resident pool.
    pub jobs: usize,
    /// Result-cache directory (`None` disables the cache — every
    /// request simulates, and restarts serve nothing).
    pub cache_dir: Option<PathBuf>,
    /// Admission bound on unique in-flight points (429 beyond it).
    pub max_queue: usize,
    /// Admission bound on points per request (413 beyond it).
    pub max_points: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            jobs: ndpb_bench::sweep::default_jobs(),
            cache_dir: Some(PathBuf::from("target/repro-cache")),
            max_queue: 256,
            max_points: 64,
        }
    }
}

/// Number of connection-handling threads. Requests are short (submits
/// return immediately; clients poll), so a small fixed crew suffices.
const HTTP_WORKERS: usize = 8;

/// How often the supervisor thread polls for shutdown/drain progress.
const POLL: Duration = Duration::from_millis(25);

/// Per-connection read timeout so an idle keep-alive client cannot pin
/// a worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Settled (done or failed) jobs kept for `GET /job/{id}`. Admitting a
/// job evicts the oldest settled ones beyond this; queued and running
/// jobs are never evicted, and an evicted id answers 404.
const MAX_SETTLED_JOBS: usize = 1024;

/// Shared server state: the engine, the job/dedup tables, counters.
#[derive(Debug)]
pub struct State {
    sweeper: Sweeper,
    /// Jobs by id; ids grow with admission, so the first is the oldest.
    jobs: Mutex<BTreeMap<u64, Job>>,
    next_job: AtomicU64,
    inflight: jobs::Inflight,
    max_queue: usize,
    max_points: usize,
    accepted: AtomicU64,
    rejected: AtomicU64,
    deduped: AtomicU64,
    cache_hits: AtomicU64,
    // Last-completed-run throughput snapshot (latest writer wins):
    // simulated event count and submit→completion wall time, surfaced
    // as events/sec by `/metrics` so a resident server exposes the same
    // headline number `repro bench` prints. Zeros until a point
    // completes; cache fast-path hits simulate nothing and leave it
    // untouched.
    last_events: AtomicU64,
    last_wall_ns: AtomicU64,
    completed: AtomicU64,
    /// Points whose simulation panicked.
    failed: AtomicU64,
    shutdown: AtomicBool,
}

impl State {
    fn new(cfg: &ServerConfig) -> Arc<Self> {
        let mut sweeper = Sweeper::new(cfg.jobs);
        if let Some(dir) = &cfg.cache_dir {
            sweeper = sweeper.with_cache(dir.clone());
        }
        Arc::new(State {
            sweeper,
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            max_queue: cfg.max_queue.max(1),
            max_points: cfg.max_points.max(1),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            last_events: AtomicU64::new(0),
            last_wall_ns: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The underlying engine (its metrics feed `/metrics`).
    pub fn sweeper(&self) -> &Sweeper {
        &self.sweeper
    }

    /// True once `/shutdown` or SIGINT was seen.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Unique in-flight (submitted, not yet completed) points.
    pub fn in_flight(&self) -> u64 {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len() as u64
    }

    /// Routes one parsed request to its handler; returns (status, body).
    pub fn dispatch(self: &Arc<Self>, method: &str, path: &str, body: &str) -> (u16, String) {
        match (method, path) {
            ("POST", "/run") => self.handle_run(body),
            ("GET", "/metrics") => (200, self.metrics_json()),
            ("GET", "/healthz") => (200, self.healthz_json()),
            ("POST", "/shutdown") | ("GET", "/shutdown") => {
                self.begin_shutdown();
                (200, "{\"ok\":true,\"draining\":true}".to_string())
            }
            ("GET", _) if path.starts_with("/job/") => self.handle_job(&path[5..]),
            ("GET", "/run") => (405, err_body("POST a JSON body to /run")),
            _ => (404, err_body("no such endpoint")),
        }
    }

    /// `POST /run`: admission → cache fast path → dedup → pool.
    fn handle_run(self: &Arc<Self>, body: &str) -> (u16, String) {
        if self.shutting_down() {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return (503, err_body("shutting down"));
        }
        match RunRequest::parse(body) {
            Ok(req) => self.admit(req.points()),
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::SeqCst);
                (400, err_body(&e))
            }
        }
    }

    /// The post-parse half of `POST /run`: point budget, then per point
    /// the dedup table, the cache, or a fresh pool submission, and the
    /// queue bound over the fresh ones.
    fn admit(self: &Arc<Self>, points: Vec<SweepPoint>) -> (u16, String) {
        if points.len() > self.max_points {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return (
                413,
                err_body(&format!(
                    "request expands to {} points, budget is {}",
                    points.len(),
                    self.max_points
                )),
            );
        }

        // Classify every point under the in-flight lock so admission,
        // dedup and the cache fast path are atomic with respect to
        // concurrent submitters and completions. (Pool workers store a
        // result to the cache *before* its key leaves the table, so a
        // key missing here and missing in the cache is genuinely new.)
        let mut cells: Vec<Arc<PointCell>> = Vec::with_capacity(points.len());
        let mut fresh: Vec<(u64, SweepPoint, Arc<PointCell>)> = Vec::new();
        {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            for p in points {
                let key = p.key();
                if let Some(cell) = inflight.get(&key) {
                    self.deduped.fetch_add(1, Ordering::SeqCst);
                    cells.push(cell.clone());
                } else if let Some(hit) = self.sweeper.cached(&p) {
                    self.cache_hits.fetch_add(1, Ordering::SeqCst);
                    cells.push(Arc::new(PointCell::from(Ok(hit.to_json()))));
                } else {
                    let cell = Arc::new(PointCell::new());
                    cells.push(cell.clone());
                    fresh.push((key, p, cell));
                }
            }
            if inflight.len() + fresh.len() > self.max_queue {
                // Reject before submitting anything; attached dedup
                // cells cost nothing (their owners keep running).
                self.rejected.fetch_add(1, Ordering::SeqCst);
                return (
                    429,
                    err_body(&format!(
                        "queue full ({} in flight, {} requested, bound {})",
                        inflight.len(),
                        fresh.len(),
                        self.max_queue
                    )),
                );
            }
            for (key, point, cell) in fresh {
                inflight.insert(key, cell.clone());
                let state = Arc::clone(self);
                let submitted = Instant::now();
                self.sweeper.submit(point, move |outcome| {
                    state.complete(key, &cell, submitted, outcome);
                });
            }
        }

        self.accepted.fetch_add(1, Ordering::SeqCst);
        let id = self.next_job.fetch_add(1, Ordering::SeqCst);
        let job = Job { cells };
        let doc = job.to_json(id);
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.insert(id, job);
        if jobs.len() > MAX_SETTLED_JOBS {
            let settled: Vec<u64> = jobs
                .iter()
                .filter(|(_, job)| matches!(job.status(), "done" | "failed"))
                .map(|(&id, _)| id)
                .collect();
            let excess = settled.len().saturating_sub(MAX_SETTLED_JOBS);
            for id in &settled[..excess] {
                jobs.remove(id);
            }
        }
        (200, doc)
    }

    /// The submit callback of a fresh point, run on the pool worker
    /// that simulated it (after the result reached the cache): records
    /// the outcome, fills the cell, then releases the in-flight key.
    fn complete(&self, key: u64, cell: &PointCell, submitted: Instant, outcome: PointOutcome) {
        let outcome = match outcome {
            Ok(result) => {
                let wall = submitted.elapsed();
                self.last_events.store(result.events, Ordering::SeqCst);
                self.last_wall_ns
                    .store(wall.as_nanos() as u64, Ordering::SeqCst);
                self.completed.fetch_add(1, Ordering::SeqCst);
                Ok(result.to_json())
            }
            Err(msg) => {
                self.failed.fetch_add(1, Ordering::SeqCst);
                Err(msg)
            }
        };
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let _ = cell.set(outcome);
        inflight.remove(&key);
    }

    /// `GET /job/{id}`.
    fn handle_job(&self, id: &str) -> (u16, String) {
        let Ok(id) = id.parse::<u64>() else {
            return (404, err_body("job ids are integers"));
        };
        let job = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.get(&id).cloned()
        };
        match job {
            Some(job) => (200, job.to_json(id)),
            None => (404, err_body("no such job")),
        }
    }

    /// `GET /metrics`: server counters, the last completed run's
    /// throughput, plus the engine's live table.
    pub fn metrics_json(&self) -> String {
        let last_events = self.last_events.load(Ordering::SeqCst);
        let last_wall_ns = self.last_wall_ns.load(Ordering::SeqCst);
        let eps = if last_wall_ns > 0 {
            last_events as f64 * 1e9 / last_wall_ns as f64
        } else {
            0.0
        };
        format!(
            "{{\"server\":{{\"accepted\":{},\"rejected\":{},\"deduped\":{},\"cache_hits\":{},\"in_flight\":{},\"completed\":{},\"failed\":{}}},\"last_run\":{{\"events\":{},\"wall_ns\":{},\"events_per_sec\":{:.1}}},\"sweep\":{}}}",
            self.accepted.load(Ordering::SeqCst),
            self.rejected.load(Ordering::SeqCst),
            self.deduped.load(Ordering::SeqCst),
            self.cache_hits.load(Ordering::SeqCst),
            self.in_flight(),
            self.completed.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
            last_events,
            last_wall_ns,
            eps,
            self.sweeper.metrics().live_report().to_json(),
        )
    }

    /// `GET /healthz`.
    fn healthz_json(&self) -> String {
        format!(
            "{{\"ok\":true,\"jobs\":{},\"in_flight\":{},\"draining\":{}}}",
            self.jobs.lock().unwrap_or_else(|e| e.into_inner()).len(),
            self.in_flight(),
            self.shutting_down(),
        )
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape_json(msg))
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<State>,
}

impl Server {
    /// Binds 127.0.0.1:`port` and builds the shared state. The engine's
    /// pool threads start lazily on the first submit.
    pub fn bind(cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            state: State::new(cfg),
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests poke it directly).
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }

    /// Serves until `/shutdown` (or SIGINT), then drains: waits for
    /// every in-flight point to finish — and land in the cache — before
    /// returning. Blocks the calling thread for the server's lifetime.
    pub fn run(self) -> io::Result<()> {
        #[cfg(unix)]
        install_sigint_handler();
        eprintln!("[serve] listening on {}", self.addr);
        let mut workers = Vec::new();
        for w in 0..HTTP_WORKERS {
            let listener = self.listener.try_clone()?;
            let state = Arc::clone(&self.state);
            workers.push(
                thread::Builder::new()
                    .name(format!("http-{w}"))
                    .spawn(move || {
                        while !state.shutting_down() {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    if state.shutting_down() {
                                        break;
                                    }
                                    let _ = handle_connection(stream, &state);
                                }
                                Err(_) => break,
                            }
                        }
                    })?,
            );
        }

        // Supervisor loop: promote SIGINT to a shutdown, then unblock
        // the accept() calls with dummy connections and drain.
        loop {
            #[cfg(unix)]
            if sigint_seen() {
                eprintln!("[serve] SIGINT, draining");
                self.state.begin_shutdown();
            }
            if self.state.shutting_down() {
                break;
            }
            thread::sleep(POLL);
        }
        for _ in 0..HTTP_WORKERS {
            // Each worker consumes at most one wake-up connection.
            let _ = TcpStream::connect(self.addr);
        }
        for w in workers {
            let _ = w.join();
        }
        while self.state.in_flight() > 0 {
            thread::sleep(POLL);
        }
        eprintln!("[serve] drained, exiting");
        Ok(())
    }
}

/// Serves one connection: keep-alive HTTP requests, or one
/// line-protocol command.
fn handle_connection(stream: TcpStream, state: &Arc<State>) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    while let Some(req) = http::read_request(&mut reader)? {
        match req {
            Request::Http {
                method,
                path,
                body,
                keep_alive,
            } => {
                let (status, body) = state.dispatch(&method, &path, &body);
                let keep = keep_alive && !state.shutting_down();
                http::write_response(&mut stream, status, &body, keep)?;
                if !keep {
                    break;
                }
            }
            Request::Line { cmd, rest } => {
                let (method, path, body) = match cmd.as_str() {
                    "run" => ("POST", "/run".to_string(), rest),
                    "job" => ("GET", format!("/job/{rest}"), String::new()),
                    "metrics" => ("GET", "/metrics".to_string(), String::new()),
                    "healthz" => ("GET", "/healthz".to_string(), String::new()),
                    "shutdown" => ("POST", "/shutdown".to_string(), String::new()),
                    other => {
                        http::write_line(
                            &mut stream,
                            &err_body(&format!("unknown command {other:?}")),
                        )?;
                        return Ok(());
                    }
                };
                let (_status, body) = state.dispatch(method, &path, &body);
                http::write_line(&mut stream, &body)?;
                // Line protocol is one command per connection.
                return Ok(());
            }
        }
    }
    stream.flush()
}

#[cfg(unix)]
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn sigint_seen() -> bool {
    SIGINT_FLAG.load(Ordering::SeqCst)
}

/// Registers a SIGINT handler that only sets a flag (the async-signal-
/// safe minimum); the supervisor loop notices it within one poll tick.
/// Raw libc `signal` keeps the workspace dependency-free.
#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        SIGINT_FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_bench::Column;
    use ndpb_core::design::DesignPoint;
    use ndpb_workloads::Scale;

    fn test_state(max_queue: usize, max_points: usize) -> Arc<State> {
        State::new(&ServerConfig {
            port: 0,
            jobs: 2,
            cache_dir: None,
            max_queue,
            max_points,
        })
    }

    #[test]
    fn dedup_attaches_to_a_preinserted_inflight_cell() {
        // Deterministic dedup check, no timing: pre-insert the cell an
        // "earlier request" would own, then submit the same point.
        let state = test_state(8, 8);
        let req = RunRequest::parse("{\"app\":\"ll\",\"design\":\"C\"}").unwrap();
        let key = req.points()[0].key();
        let cell = Arc::new(PointCell::new());
        state.inflight.lock().unwrap().insert(key, cell.clone());

        let (status, body) = state.dispatch("POST", "/run", "{\"app\":\"ll\",\"design\":\"C\"}");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"queued\""), "{body}");
        assert_eq!(state.deduped.load(Ordering::SeqCst), 1);
        assert_eq!(
            state
                .sweeper
                .metrics()
                .live_report()
                .final_value("sweep/simulated"),
            None,
            "nothing was ever submitted to the pool"
        );

        // Filling the shared cell completes the attached job.
        cell.set(Ok("{\"fake\":true}".to_string())).unwrap();
        let (status, body) = state.dispatch("GET", "/job/1", "");
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"id\":1,\"status\":\"done\",\"points\":1,\"results\":[{\"fake\":true}]}"
        );
    }

    #[test]
    fn queue_bound_rejects_with_429() {
        let state = test_state(1, 8);
        let other = SweepPoint::new(
            "pr",
            Column::Ndp(DesignPoint::C),
            ndpb_core::config::SystemConfig::table1(),
            Scale::Tiny,
        );
        state
            .inflight
            .lock()
            .unwrap()
            .insert(other.key(), Arc::new(PointCell::new()));
        let (status, body) = state.dispatch("POST", "/run", "{\"app\":\"ll\"}");
        assert_eq!(status, 429, "{body}");
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
        assert_eq!(state.accepted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn point_budget_rejects_with_413() {
        let state = test_state(64, 3);
        let (status, _) = state.dispatch(
            "POST",
            "/run",
            "{\"apps\":[\"ll\",\"pr\"],\"designs\":[\"C\",\"B\"]}",
        );
        assert_eq!(status, 413);
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bad_requests_reject_and_count() {
        let state = test_state(8, 8);
        assert_eq!(state.dispatch("POST", "/run", "{").0, 400);
        assert_eq!(state.dispatch("GET", "/nope", "").0, 404);
        assert_eq!(state.dispatch("GET", "/job/zzz", "").0, 404);
        assert_eq!(state.dispatch("GET", "/job/99", "").0, 404);
        assert_eq!(state.dispatch("GET", "/run", "").0, 405);
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_rejects_new_runs_with_503() {
        let state = test_state(8, 8);
        state.begin_shutdown();
        let (status, _) = state.dispatch("POST", "/run", "{\"app\":\"ll\"}");
        assert_eq!(status, 503);
        assert!(state.healthz_json().contains("\"draining\":true"));
    }

    #[test]
    fn metrics_document_is_parseable_and_has_server_counters() {
        let state = test_state(8, 8);
        let doc = state.metrics_json();
        let j = ndpb_bench::json::Json::parse(&doc).expect("valid JSON");
        let server = j.get("server").expect("server block");
        for k in [
            "accepted",
            "rejected",
            "deduped",
            "cache_hits",
            "in_flight",
            "completed",
            "failed",
        ] {
            assert_eq!(server.u64_field(k), Some(0), "{k}");
        }
        // No run has completed: the throughput snapshot is all zeros.
        let last = j.get("last_run").expect("last_run block");
        assert_eq!(last.u64_field("events"), Some(0));
        assert_eq!(last.u64_field("wall_ns"), Some(0));
        assert_eq!(last.f64_field("events_per_sec"), Some(0.0));
        assert!(j.get("sweep").is_some());
    }

    #[test]
    fn metrics_report_last_completed_run_throughput() {
        let state = test_state(8, 8);
        let (status, _) = state.dispatch("POST", "/run", "{\"app\":\"ll\",\"design\":\"C\"}");
        assert_eq!(status, 200);
        // The pool worker fills the snapshot when the point finishes.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while state.completed.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "run never completed; metrics: {}",
                state.metrics_json()
            );
            thread::sleep(Duration::from_millis(10));
        }
        let doc = state.metrics_json();
        let j = ndpb_bench::json::Json::parse(&doc).expect("valid JSON");
        let last = j.get("last_run").expect("last_run block");
        assert!(last.u64_field("events").unwrap() > 0, "{doc}");
        assert!(last.u64_field("wall_ns").unwrap() > 0, "{doc}");
        assert!(last.f64_field("events_per_sec").unwrap() > 0.0, "{doc}");
        assert_eq!(
            j.get("server").unwrap().u64_field("completed"),
            Some(1),
            "{doc}"
        );
    }

    #[test]
    fn admission_evicts_the_oldest_settled_jobs_only() {
        let state = test_state(8, 8);
        let point = |app: &str| {
            SweepPoint::new(
                app,
                Column::Ndp(DesignPoint::C),
                ndpb_core::config::SystemConfig::table1(),
                Scale::Tiny,
            )
        };
        // Job 1 attaches to an in-flight cell that never fills: queued
        // for the whole test.
        let pending = point("ll");
        state
            .inflight
            .lock()
            .unwrap()
            .insert(pending.key(), Arc::new(PointCell::new()));
        assert_eq!(state.admit(vec![pending]).0, 200);
        // Jobs 2..=MAX_SETTLED_JOBS + 3 attach to a filled cell: each is
        // done as it is admitted.
        let filled = point("pr");
        state.inflight.lock().unwrap().insert(
            filled.key(),
            Arc::new(PointCell::from(Ok("{}".to_string()))),
        );
        let last = MAX_SETTLED_JOBS as u64 + 3;
        for _ in 2..=last {
            assert_eq!(state.admit(vec![filled.clone()]).0, 200);
        }
        let status = |id: u64| state.dispatch("GET", &format!("/job/{id}"), "");
        assert!(status(1).1.contains("\"status\":\"queued\""));
        assert_eq!(status(2).0, 404, "oldest settled job evicted");
        assert_eq!(status(3).0, 404);
        for id in [4, last] {
            assert!(status(id).1.contains("\"status\":\"done\""), "job {id}");
        }
        let jobs = state.jobs.lock().unwrap();
        assert_eq!(jobs.len(), MAX_SETTLED_JOBS + 1);
        assert_eq!(jobs.keys().next(), Some(&1));
    }

    /// Polls `GET /job/{id}` until its status leaves queued/running.
    fn settled_job(state: &Arc<State>, id: u64) -> String {
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = state.dispatch("GET", &format!("/job/{id}"), "");
            assert_eq!(status, 200, "{body}");
            if !body.contains("\"status\":\"queued\"") && !body.contains("\"status\":\"running\"") {
                return body;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job {id} never settled: {body}"
            );
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn a_panicking_simulation_fails_its_job_and_releases_its_slot() {
        // One worker and one queue slot: the valid point can only be
        // admitted, and run, once the failed one has let go of both.
        let state = State::new(&ServerConfig {
            port: 0,
            jobs: 1,
            cache_dir: None,
            max_queue: 1,
            max_points: 8,
        });
        let point = |app: &str| {
            SweepPoint::new(
                app,
                Column::Ndp(DesignPoint::C),
                ndpb_core::config::SystemConfig::table1(),
                Scale::Tiny,
            )
        };
        let (status, body) = state.admit(vec![point("no-such-app")]);
        assert_eq!(status, 200, "{body}");
        let doc = settled_job(&state, 1);
        let j = ndpb_bench::json::Json::parse(&doc).expect("valid JSON");
        assert_eq!(j.str_field("status"), Some("failed"), "{doc}");
        let error = j.str_field("error").expect("error message");
        assert!(
            error.contains("simulation panicked") && error.contains("unknown application"),
            "{error}"
        );

        let (status, body) = state.admit(vec![point("ll")]);
        assert_eq!(
            status, 200,
            "the failed point must free its queue slot: {body}"
        );
        let doc = settled_job(&state, 2);
        assert!(doc.contains("\"status\":\"done\""), "{doc}");
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while state.in_flight() > 0 {
            assert!(std::time::Instant::now() < deadline, "in_flight stuck");
            thread::sleep(Duration::from_millis(10));
        }
        let m = ndpb_bench::json::Json::parse(&state.metrics_json()).expect("valid JSON");
        let server = m.get("server").expect("server block");
        assert_eq!(server.u64_field("failed"), Some(1));
        assert_eq!(server.u64_field("completed"), Some(1));
        assert_eq!(server.u64_field("in_flight"), Some(0));
    }
}
