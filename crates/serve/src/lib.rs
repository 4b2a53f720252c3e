//! # ndpb-serve
//!
//! A resident simulation-as-a-service front-end over the sweep engine:
//! the `repro serve` subcommand binds a TCP port and turns the one-shot
//! CLI into a long-running server. The pipeline per request is
//!
//! ```text
//! admission → the Sweeper's key table → resident pool → result cache
//! ```
//!
//! * **Admission** bounds the number of unique pending points
//!   (`max_queue`, 429 on overflow) and the per-request point count
//!   (`max_points`, 413 on overflow); a draining server answers 503.
//!   The queue bound is checked and the request's points submitted in
//!   one [`Sweeper::submit`] call, so concurrent requests cannot
//!   overshoot it.
//! * The **key table** of the [`Sweeper`] does the rest: a point whose
//!   key is pending attaches to it (`deduped`), a point whose key
//!   finished in this process or is on disk is answered at admission
//!   (`cache_hits`), and any other point is queued on the **resident
//!   pool**, the same worker loop the CLI's batch sweeps use. Each job
//!   point's callback fills its [`jobs::PointCell`].
//! * A **failed** point (its simulation panicked) leaves the key table
//!   without a cache entry, so a later request re-runs it; every job
//!   attached to it reports `"status":"failed"` with the message.
//!
//! Endpoints: `POST /run`, `GET /job/{id}`, `GET /metrics`,
//! `GET /healthz`, `POST /shutdown`. The same port speaks a one-line
//! protocol (see [`http`]) so `bash` alone can drive a smoke test.
//! SIGINT or `/shutdown` drains pending points before exiting.

pub mod http;
pub mod jobs;

use std::collections::BTreeMap;
use std::io::{self, Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ndpb_bench::sweep::{PointOutcome, QueueFull};
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
    /// Result-cache directory (`None` disables the disk cache: repeats
    /// are still answered from the sweeper's key table, but a restart
    /// starts empty).
    pub cache_dir: Option<PathBuf>,
    /// Admission bound on unique pending points (429 beyond it).
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

/// How long one request may take to arrive, from the start of waiting
/// for it to the end of its body, so that neither an idle keep-alive
/// client nor one that trickles bytes can pin an HTTP worker.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Settled (done or failed) jobs kept for `GET /job/{id}`. Admitting a
/// job evicts the oldest settled ones beyond this; queued and running
/// jobs are never evicted, and an evicted id answers 404.
const MAX_SETTLED_JOBS: usize = 1024;

/// Shared server state: the engine, the job table, counters.
#[derive(Debug)]
pub struct State {
    sweeper: Sweeper,
    /// Jobs by id; ids grow with admission, so the first is the oldest.
    jobs: Mutex<BTreeMap<u64, Job>>,
    next_job: AtomicU64,
    max_queue: usize,
    max_points: usize,
    accepted: AtomicU64,
    rejected: AtomicU64,
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
            max_queue: cfg.max_queue.max(1),
            max_points: cfg.max_points.max(1),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
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

    /// Unique pending (queued or running) points.
    pub fn in_flight(&self) -> u64 {
        self.sweeper.pending() as u64
    }

    /// Routes one parsed request to its handler; returns (status, body).
    pub fn dispatch(&self, method: &str, path: &str, body: &str) -> (u16, String) {
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

    /// `POST /run`: parse, then admission.
    fn handle_run(&self, body: &str) -> (u16, String) {
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

    /// The post-parse half of `POST /run`: the point budget, then one
    /// bounded submit of every point, each filling its job cell.
    fn admit(&self, points: Vec<SweepPoint>) -> (u16, String) {
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

        let cells: Vec<Arc<PointCell>> = points.iter().map(|_| Arc::default()).collect();
        let batch = points
            .into_iter()
            .zip(&cells)
            .map(|(point, cell)| {
                let cell = Arc::clone(cell);
                (point, move |outcome: PointOutcome| {
                    let _ = cell.set(outcome.map(|result| result.to_json()));
                })
            })
            .collect();
        if let Err(QueueFull { pending, fresh }) = self.sweeper.submit(batch, self.max_queue) {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return (
                429,
                err_body(&format!(
                    "queue full ({pending} in flight, {fresh} requested, bound {})",
                    self.max_queue
                )),
            );
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

    /// `GET /metrics`: server counters, the last simulated point's
    /// throughput, plus the engine's live table. Points answered from a
    /// finished result count as `cache_hits`, points attached to a
    /// pending one as `deduped`, and simulations that finished or
    /// panicked as `completed` or `failed`; all four are read from the
    /// engine's table.
    pub fn metrics_json(&self) -> String {
        let sweep = self.sweeper.metrics().live_report();
        let count = |name| sweep.final_value(name).unwrap_or(0);
        let last_events = count("sweep/last_run/events");
        let last_wall_ns = count("sweep/last_run/wall_ns");
        let eps = if last_wall_ns > 0 {
            last_events as f64 * 1e9 / last_wall_ns as f64
        } else {
            0.0
        };
        format!(
            "{{\"server\":{{\"accepted\":{},\"rejected\":{},\"deduped\":{},\"cache_hits\":{},\"in_flight\":{},\"completed\":{},\"failed\":{}}},\"last_run\":{{\"events\":{},\"wall_ns\":{},\"events_per_sec\":{:.1}}},\"sweep\":{}}}",
            self.accepted.load(Ordering::SeqCst),
            self.rejected.load(Ordering::SeqCst),
            count("sweep/deduped"),
            count("sweep/cache_hits"),
            self.in_flight(),
            count("sweep/simulated"),
            count("sweep/failed"),
            last_events,
            last_wall_ns,
            eps,
            sweep.to_json(),
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
    /// every pending point to finish — and land in the cache — before
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
                                    let _ = handle_connection(stream, &state, REQUEST_TIMEOUT);
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

/// The read half of a connection: every read gives up at the deadline
/// of the request being read.
struct Deadline {
    stream: TcpStream,
    until: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Serves one connection: keep-alive HTTP requests, or one
/// line-protocol command. Each request must arrive whole within
/// `timeout` of the moment the handler starts waiting for it, or the
/// connection is closed.
fn handle_connection(stream: TcpStream, state: &State, timeout: Duration) -> io::Result<()> {
    let mut reader = io::BufReader::new(Deadline {
        stream: stream.try_clone()?,
        until: Instant::now() + timeout,
    });
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
                reader.get_mut().until = Instant::now() + timeout;
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
    use std::sync::mpsc;

    /// How long a test waits for the pool before calling it stuck.
    const PATIENCE: Duration = Duration::from_secs(120);

    fn test_state(max_queue: usize, max_points: usize) -> Arc<State> {
        State::new(&ServerConfig {
            port: 0,
            jobs: 1,
            cache_dir: None,
            max_queue,
            max_points,
        })
    }

    /// The Table I point `POST /run` makes of `app` on design C.
    fn point(app: &str) -> SweepPoint {
        SweepPoint::new(
            app,
            Column::Ndp(DesignPoint::C),
            ndpb_core::config::SystemConfig::table1(),
            Scale::Tiny,
        )
    }

    /// Runs `tree` on the state's one pool worker and parks the worker
    /// in its callback until the returned gate is opened: `tree` is then
    /// a finished key, and every point queued meanwhile stays pending.
    fn park_pool(state: &State) -> mpsc::Sender<()> {
        let (gate, parked) = mpsc::channel::<()>();
        let (arrived, at_gate) = mpsc::channel::<()>();
        let callback = move |_: PointOutcome| {
            let _ = arrived.send(());
            let _ = parked.recv();
        };
        state
            .sweeper
            .submit(vec![(point("tree"), callback)], usize::MAX)
            .expect("unbounded");
        at_gate
            .recv_timeout(PATIENCE)
            .expect("the worker reached the gate");
        gate
    }

    /// One `server` counter of `/metrics`.
    fn counter(state: &State, name: &str) -> u64 {
        let doc = state.metrics_json();
        ndpb_bench::json::Json::parse(&doc)
            .expect("valid JSON")
            .get("server")
            .and_then(|s| s.u64_field(name))
            .unwrap_or_else(|| panic!("no server counter {name} in {doc}"))
    }

    #[test]
    fn a_request_for_a_pending_point_attaches_to_it() {
        let state = test_state(8, 8);
        let gate = park_pool(&state);
        let body = "{\"app\":\"ll\",\"design\":\"C\"}";
        for id in 1..=2 {
            let (status, doc) = state.dispatch("POST", "/run", body);
            assert_eq!(status, 200);
            assert!(doc.contains("\"status\":\"queued\""), "job {id}: {doc}");
        }
        assert_eq!(counter(&state, "deduped"), 1, "the second request attached");
        assert_eq!(counter(&state, "in_flight"), 1);

        // The one simulation completes both jobs with the same bytes.
        gate.send(()).expect("the worker is parked on the gate");
        let first = settled_job(&state, 1);
        assert!(first.contains("\"status\":\"done\""), "{first}");
        assert_eq!(
            first.replace("\"id\":1,", ""),
            settled_job(&state, 2).replace("\"id\":2,", "")
        );
        assert_eq!(counter(&state, "completed"), 2, "tree and ll, once each");
    }

    #[test]
    fn queue_bound_rejects_with_429() {
        let state = test_state(1, 8);
        let gate = park_pool(&state);
        let (status, body) = state.dispatch("POST", "/run", "{\"app\":\"pr\",\"design\":\"C\"}");
        assert_eq!(status, 200, "{body}");
        let (status, body) = state.dispatch("POST", "/run", "{\"app\":\"ll\"}");
        assert_eq!(status, 429, "{body}");
        assert_eq!(counter(&state, "rejected"), 1);
        assert_eq!(counter(&state, "accepted"), 1);
        // Attaching to the pending key and a finished key need no slot.
        let (status, body) = state.dispatch(
            "POST",
            "/run",
            "{\"apps\":[\"pr\",\"tree\"],\"design\":\"C\"}",
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(counter(&state, "in_flight"), 1);
        drop(gate);
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
        settled_job(&state, 1);
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
        let _gate = park_pool(&state);
        // Job 1 waits on a point queued behind the parked worker: queued
        // for the whole test.
        assert_eq!(state.admit(vec![point("ll")]).0, 200);
        // Jobs 2..=MAX_SETTLED_JOBS + 3 ask for the finished `tree` key:
        // each is done as it is admitted.
        let last = MAX_SETTLED_JOBS as u64 + 3;
        for _ in 2..=last {
            assert_eq!(state.admit(vec![point("tree")]).0, 200);
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
    fn settled_job(state: &State, id: u64) -> String {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let (status, body) = state.dispatch("GET", &format!("/job/{id}"), "");
            assert_eq!(status, 200, "{body}");
            if !body.contains("\"status\":\"queued\"") && !body.contains("\"status\":\"running\"") {
                return body;
            }
            assert!(Instant::now() < deadline, "job {id} never settled: {body}");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn a_panicking_simulation_fails_its_job_and_releases_its_slot() {
        // One worker and one queue slot: the valid point can only be
        // admitted, and run, once the failed one has let go of both.
        let state = test_state(1, 8);
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
        let deadline = Instant::now() + Duration::from_secs(30);
        while state.in_flight() > 0 {
            assert!(Instant::now() < deadline, "in_flight stuck");
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(counter(&state, "failed"), 1);
        assert_eq!(counter(&state, "completed"), 1);
        assert_eq!(counter(&state, "in_flight"), 0);
    }

    #[test]
    fn a_trickling_client_is_cut_off_while_others_are_served() {
        let state = test_state(8, 8);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let timeout = Duration::from_secs(1);
        // Two handlers, each serving one connection, like two of the
        // server's HTTP workers.
        let handlers: Vec<_> = (0..2)
            .map(|_| {
                let listener = listener.try_clone().expect("clone listener");
                let state = Arc::clone(&state);
                thread::spawn(move || {
                    handle_connection(listener.accept().expect("accept").0, &state, timeout)
                })
            })
            .collect();

        // One byte every 250 ms: each read returns well within the
        // timeout, but the request could not arrive whole in under 9 s.
        let mut slow = TcpStream::connect(addr).expect("connect");
        let mut drip = slow.try_clone().expect("clone stream");
        let started = Instant::now();
        let dripping = thread::spawn(move || {
            for &b in b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n" {
                if drip.write_all(&[b]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(250));
            }
        });
        let mut fast = TcpStream::connect(addr).expect("connect");
        fast.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut answer = String::new();
        fast.read_to_string(&mut answer).expect("answer");
        assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
        assert!(
            started.elapsed() < timeout,
            "healthz waited on the slow client"
        );

        // The server closes the slow connection at the deadline, without
        // an answer.
        let mut unanswered = Vec::new();
        let _ = slow.read_to_end(&mut unanswered);
        let after = started.elapsed();
        assert!(unanswered.is_empty(), "the trickled request was answered");
        assert!(
            after >= timeout && after < 3 * timeout,
            "cut off after {after:?}"
        );
        dripping.join().expect("drip thread");
        for h in handlers {
            let _ = h.join().expect("handler thread");
        }
    }
}
