//! The service session of the traced `tiny-sweep` run: an open loop
//! against the shipped `repro serve` binary, then the same requests'
//! layers called in process.
//!
//! `repro serve --jobs 1` runs with a fresh cache directory. The client
//! sends single-point Tiny `POST /run` requests at a fixed rate; each
//! request's (app, design) cell is drawn from a seeded Zipf over the
//! 117 cells (9 apps × 13 columns), and completion is detected by
//! polling `GET /job/{id}`. First touches simulate and write the cache;
//! repeats read it or attach to an in-flight run. The client is an
//! ordinary one: two threads (sender and poller), two keep-alive
//! connections, no socket tuning. `RunRequest` carries no seed, so the
//! server simulates every cell at the Table I seed; `--seed` drives the
//! key stream only.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

use ndpb_bench::cache::{decode_result, encode_result, ResultCache};
use ndpb_bench::json::Json;
use ndpb_serve::jobs::RunRequest;
use ndpb_serve::{Server, ServerConfig};
use ndpb_sim::SimRng;
use ndpb_workloads::{Zipfian, APP_NAMES, EXTRA_APP_NAMES};

use crate::host::{self, Noise};
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::{refs, Opts, Report};

/// Offered load in requests per second, fixed with the benchmark and
/// never retuned per commit. A request costs the sender about 45 ms (a
/// `POST` and one job read, which meets the 44 ms delayed-ACK stall),
/// or about 90 ms when its `POST` stalls too; at 7 req/s the next
/// `POST` still starts more than the 40 ms delayed-ACK timeout after
/// the last answer, so the sender's connection always returns to
/// immediate ACKs between requests instead of locking into stalls.
pub const RATE: f64 = 7.0;

/// Pause between two polling rounds over the outstanding jobs.
pub const POLL: Duration = Duration::from_millis(10);

/// How much of the wait for a request's due time is spun, not slept.
const SPIN: Duration = Duration::from_millis(2);

/// Zipf skew of the key stream (`Zipfian` requires θ < 1).
pub const THETA: f64 = 0.99;

/// How long after the last send outstanding jobs may still finish.
const DRAIN: Duration = Duration::from_secs(30);

/// Socket read timeout: a stuck server fails the run instead of
/// hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Keep-alive round trips timed for `serve.http_rtt_ms`.
const RTT_PROBES: usize = 20;

/// The 13 design columns `POST /run` accepts.
pub const COLUMNS: [&str; 13] = [
    "C", "B", "W", "O", "R", "W+Adv", "W+Fine", "W+Hot", "W+Byte", "W+Lent", "W+GA", "O+GA", "H",
];

/// Every (app, column) cell: the 8 paper apps plus `stencil`, × 13.
pub fn cells() -> Vec<(&'static str, &'static str)> {
    APP_NAMES
        .iter()
        .chain(EXTRA_APP_NAMES.iter())
        .flat_map(|&app| COLUMNS.iter().map(move |&col| (app, col)))
        .collect()
}

/// Seed of the fixed shuffle that ranks the cells by popularity. The
/// ranking does not follow the workload seed, so every run's hot set
/// is the same; the workload seed drives the Zipf draws.
const RANK_SEED: u64 = 0x2EB;

/// `n` cell indices drawn for `seed`: Zipf ranks over the fixed
/// popularity ranking of the `n_cells` cells.
pub fn key_stream(seed: u64, n_cells: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_cells).collect();
    SimRng::new(RANK_SEED).shuffle(&mut order);
    let zipf = Zipfian::new(n_cells as u64, THETA);
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| order[zipf.sample(&mut rng) as usize])
        .collect()
}

/// Sleeps until `due`, spinning through the last [`SPIN`] so a late
/// timer wake-up does not delay the send.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn run_body((app, col): (&str, &str)) -> String {
    format!("{{\"app\":\"{app}\",\"design\":\"{col}\",\"scale\":\"tiny\"}}")
}

/// One HTTP response.
#[derive(Debug, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// Whether the server keeps the connection open.
    pub keep_alive: bool,
}

/// Reads one `Content-Length` response. End of stream before the
/// status line is `ConnectionAborted`: the server closed an idle
/// keep-alive connection, and the request may be sent again.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "connection closed before a response",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    let mut keep_alive = true;
    loop {
        let mut h = String::new();
        if r.read_line(&mut h)? == 0 {
            return Err(bad("end of stream inside headers"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.parse().map_err(|_| bad("bad content-length"))?,
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if len > 16 << 20 {
        return Err(bad("response body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body not utf-8"))?;
    Ok(Response {
        status,
        body,
        keep_alive,
    })
}

/// A keep-alive HTTP/1.1 client connection, reopened when the server
/// closes it.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None }
    }

    /// One request and its response. A request that meets a connection
    /// the server already closed is sent once more on a new one.
    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        for attempt in 0..2 {
            let stream = match self.stream.as_mut() {
                Some(s) => s,
                None => {
                    let s = TcpStream::connect(self.addr)?;
                    s.set_read_timeout(Some(IO_TIMEOUT))?;
                    self.stream.insert(BufReader::new(s))
                }
            };
            let r = stream
                .get_mut()
                .write_all(msg.as_bytes())
                .and_then(|()| read_response(stream));
            match r {
                Ok(resp) => {
                    if !resp.keep_alive {
                        self.stream = None;
                    }
                    return Ok((resp.status, resp.body));
                }
                Err(e) => {
                    self.stream = None;
                    let stale = matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                    );
                    if attempt > 0 || !stale {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the second attempt returns")
    }
}

/// The parts of a `GET /job/{id}` (or `POST /run`) document the client
/// checks.
#[derive(Debug, PartialEq)]
pub struct JobDoc {
    /// Job id.
    pub id: u64,
    /// `queued`, `running` or `done`.
    pub status: String,
    /// (app, checksum, events) per point, present once done.
    pub results: Vec<(String, u64, u64)>,
}

/// Parses a job document.
pub fn parse_job(doc: &str) -> Result<JobDoc, String> {
    let j = Json::parse(doc).map_err(|e| e.to_string())?;
    let id = j.u64_field("id").ok_or("job document without an id")?;
    let status = j
        .str_field("status")
        .ok_or("job document without a status")?
        .to_string();
    let mut results = Vec::new();
    for r in j.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
        let app = r.str_field("app").ok_or("result without an app")?;
        let checksum = r.u64_field("checksum").ok_or("result without a checksum")?;
        let events = r.u64_field("events").ok_or("result without events")?;
        results.push((app.to_string(), checksum, events));
    }
    if status == "done" && results.is_empty() {
        return Err("done job without results".into());
    }
    Ok(JobDoc {
        id,
        status,
        results,
    })
}

/// Server counters from `GET /metrics`.
#[derive(Debug, Default, PartialEq)]
pub struct Counters {
    /// Points answered from the on-disk cache.
    pub cache_hits: u64,
    /// Points attached to an identical in-flight run.
    pub deduped: u64,
    /// Points simulated.
    pub completed: u64,
    /// Requests refused (400/413/429/503).
    pub rejected: u64,
}

/// Parses the `"server"` block of a `/metrics` document.
pub fn parse_counters(doc: &str) -> Option<Counters> {
    let j = Json::parse(doc).ok()?;
    let s = j.get("server")?;
    Some(Counters {
        cache_hits: s.u64_field("cache_hits")?,
        deduped: s.u64_field("deduped")?,
        completed: s.u64_field("completed")?,
        rejected: s.u64_field("rejected")?,
    })
}

/// A running `repro serve` child; killed and reaped if dropped early.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
    /// The server's stderr, held open after the port line so its
    /// later writes (a few lines at shutdown) never meet a closed pipe.
    stderr: Option<BufReader<ChildStderr>>,
}

impl ServerProc {
    /// Starts `repro serve --jobs 1` over a fresh cache in `dir` and
    /// waits for its first `/healthz` answer.
    fn spawn(repro: &Path, dir: PathBuf) -> Result<ServerProc, String> {
        let _ = fs::remove_dir_all(&dir);
        let child = Command::new(repro)
            .args(["serve", "--port", "0", "--jobs", "1", "--cache-dir"])
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", repro.display()))?;
        let mut srv = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir,
            stderr: None,
        };
        let mut err = BufReader::new(srv.child.stderr.take().expect("stderr is piped"));
        let mut log = String::new();
        srv.addr = loop {
            let mut line = String::new();
            if err.read_line(&mut line).unwrap_or(0) == 0 {
                return Err(format!(
                    "repro serve exited before reporting its port: {log}"
                ));
            }
            if let Some(a) = line.strip_prefix("[serve] listening on ") {
                break a.trim().parse().map_err(|e| format!("{line}: {e}"))?;
            }
            log.push_str(&line);
        };
        srv.stderr = Some(err);
        match Conn::new(srv.addr).request("GET", "/healthz", "") {
            Ok((200, _)) => Ok(srv),
            other => Err(format!("first /healthz failed: {other:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then waits for the drained process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = Conn::new(self.addr).request("POST", "/shutdown", "");
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("repro serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => return Err("repro serve did not exit after /shutdown".into()),
            }
        }
        let _ = fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request of the schedule.
#[derive(Debug, Clone)]
struct Req {
    cell: usize,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    /// Answered `done` by the `POST` itself (cache hit).
    hit: bool,
    ok: bool,
    events: Option<u64>,
}

/// A client call: (span name, start, end, request index).
type Call = (&'static str, Instant, Instant, usize);

/// Everything one load phase observed.
struct Load {
    reqs: Vec<Req>,
    calls: Vec<Call>,
    counters: Counters,
    rtt_ms: Vec<f64>,
    cpu_s: f64,
    noise: Noise,
}

/// Checks a done job against the reference checksum of its cell's app
/// (every cell runs at the Table I seed).
fn verify(job: &JobDoc, app: &str) -> Option<u64> {
    let want = refs::checksum(app, refs::DEFAULT_SEED);
    match job.results.as_slice() {
        [(a, sum, events)] if a == app && Some(*sum) == want => Some(*events),
        other => {
            eprintln!("perfbench: {app}: got {other:?}, reference checksum {want:?}");
            None
        }
    }
}

/// One request whose answer must be a 200 job document.
fn job_call(conn: &mut Conn, method: &str, path: &str, body: &str) -> Result<JobDoc, String> {
    match conn.request(method, path, body) {
        Ok((200, doc)) => parse_job(&doc),
        Ok((status, doc)) => Err(format!("{method} {path} answered {status}: {doc}")),
        Err(e) => Err(format!("{method} {path}: {e}")),
    }
}

/// Drives the schedule against `srv`: the calling thread sends, one
/// more thread polls.
fn load(srv: &ServerProc, cells: &[(&'static str, &'static str)], keys: &[usize]) -> Load {
    let noise0 = Noise::now();
    let bodies: Vec<String> = cells.iter().map(|&c| run_body(c)).collect();
    let mut post = Conn::new(srv.addr);
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let addr = srv.addr;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now() + Duration::from_millis(20);
    let poller = thread::spawn(move || poll_jobs(addr, rx));
    let mut reqs = Vec::with_capacity(keys.len());
    let mut calls = Vec::with_capacity(keys.len());
    for (i, &cell) in keys.iter().enumerate() {
        let due = start + period * i as u32;
        wait_until(due);
        let sent = Instant::now();
        let posted = job_call(&mut post, "POST", "/run", &bodies[cell]);
        let at = Instant::now();
        calls.push(("http.post_run", sent, at, i));
        let mut r = Req {
            cell,
            due,
            sent,
            done: None,
            hit: false,
            ok: false,
            events: None,
        };
        // The POST only submits; completion is read from the job
        // document, polled at once on the same connection and then by
        // the poller.
        match posted.and_then(|job| {
            r.hit = job.status == "done";
            let t = Instant::now();
            let polled = job_call(&mut post, "GET", &format!("/job/{}", job.id), "");
            let at = Instant::now();
            calls.push(("http.get_job", t, at, i));
            polled.map(|job| (at, job))
        }) {
            Ok((at, job)) if job.status == "done" => {
                r.done = Some(at);
                r.events = verify(&job, cells[cell].0);
                r.ok = r.events.is_some();
            }
            Ok((_, job)) => {
                r.ok = true;
                let _ = tx.send((i, job.id));
            }
            Err(e) => eprintln!("perfbench: request {i}: {e}"),
        }
        reqs.push(r);
    }
    drop(tx);
    let (finished, polls) = poller.join().expect("poller thread panicked");
    calls.extend(polls);
    for (i, outcome) in finished {
        let r = &mut reqs[i];
        match outcome {
            Ok((at, job)) => {
                r.done = Some(at);
                r.events = verify(&job, cells[r.cell].0);
                r.ok = r.events.is_some();
            }
            Err(e) => {
                eprintln!("perfbench: request {i}: {e}");
                r.ok = false;
            }
        }
    }
    let counters = post
        .request("GET", "/metrics", "")
        .ok()
        .and_then(|(_, doc)| parse_counters(&doc))
        .unwrap_or_default();
    let cpu_s = host::pid_cpu_s(srv.pid()).unwrap_or(0.0);
    let noise = Noise::now().since(&noise0);
    // Round trips of a request that does not simulate, on a connection
    // past its first response.
    let rtt_ms = (0..RTT_PROBES)
        .filter_map(|_| {
            let t = Instant::now();
            post.request("GET", "/healthz", "")
                .ok()
                .map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    Load {
        reqs,
        calls,
        counters,
        rtt_ms,
        cpu_s,
        noise,
    }
}

type Polled = Vec<(usize, Result<(Instant, JobDoc), String>)>;

/// The poller: `GET /job/{id}` for every outstanding job, every
/// [`POLL`], until the sender is done and nothing is outstanding (or
/// [`DRAIN`] has passed since the sender finished).
fn poll_jobs(addr: SocketAddr, rx: mpsc::Receiver<(usize, u64)>) -> (Polled, Vec<Call>) {
    let mut conn = Conn::new(addr);
    let mut pending: Vec<(usize, u64)> = Vec::new();
    let mut out = Vec::new();
    let mut calls = Vec::new();
    let mut drain_by: Option<Instant> = None;
    loop {
        loop {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    drain_by.get_or_insert(Instant::now() + DRAIN);
                    break;
                }
            }
        }
        if pending.is_empty() {
            if drain_by.is_some() {
                break;
            }
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(p) => pending.push(p),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    drain_by.get_or_insert(Instant::now() + DRAIN);
                }
            }
            continue;
        }
        let mut still = Vec::with_capacity(pending.len());
        for (i, id) in pending.drain(..) {
            let t = Instant::now();
            let answer = job_call(&mut conn, "GET", &format!("/job/{id}"), "");
            let at = Instant::now();
            calls.push(("http.get_job", t, at, i));
            match answer {
                Ok(job) if job.status == "done" => out.push((i, Ok((at, job)))),
                Ok(_) => still.push((i, id)),
                Err(e) => out.push((i, Err(e))),
            }
        }
        pending = still;
        if drain_by.is_some_and(|d| Instant::now() > d) {
            for (i, id) in pending.drain(..) {
                out.push((i, Err(format!("job {id} not done at the end"))));
            }
            break;
        }
        thread::sleep(POLL);
    }
    (out, calls)
}

impl Load {
    fn latencies_ms(&self, keep: impl Fn(&Req) -> bool) -> Vec<f64> {
        self.reqs
            .iter()
            .filter(|r| r.ok && keep(r))
            .filter_map(|r| Some((r.done? - r.due).as_secs_f64() * 1e3))
            .collect()
    }

    /// One line on how the schedule went.
    fn summary(&self) {
        let hits = self.reqs.iter().filter(|r| r.hit).count();
        let slow = self
            .reqs
            .iter()
            .filter(|r| r.done.is_none_or(|d| d - r.due > Duration::from_millis(60)))
            .count();
        let mut cells: Vec<usize> = self.reqs.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        println!(
            "requests: {} sent, {hits} cache hits, {slow} slower than 60 ms, {} distinct cells, server cpu {:.2} s, {}",
            self.reqs.len(),
            cells.len(),
            self.cpu_s,
            self.noise.brief()
        );
    }

    fn count(&self, rep: &mut Report) {
        for r in &self.reqs {
            rep.op(r.ok && r.done.is_some());
        }
        // The same cell must report the same event count every time.
        let mut seen = BTreeMap::new();
        for r in &self.reqs {
            if let Some(e) = r.events {
                if *seen.entry(r.cell).or_insert(e) != e {
                    eprintln!("perfbench: cell {} answered two event counts", r.cell);
                    rep.op(false);
                }
            }
        }
    }
}

fn work_dir(o: &Opts, what: &str) -> PathBuf {
    o.work_dir
        .join(format!("serve-{}-{what}", std::process::id()))
}

/// The schedule for a load of `seconds`: the cells and the drawn keys.
fn schedule(seed: u64, seconds: f64) -> (Vec<(&'static str, &'static str)>, Vec<usize>) {
    let cells = cells();
    let n = (seconds * RATE).round().max(1.0) as usize;
    let keys = key_stream(seed, cells.len(), n);
    println!(
        "service: {n} requests at {RATE} req/s over {} cells (Zipf θ={THETA}), poll every {} ms",
        cells.len(),
        POLL.as_millis()
    );
    (cells, keys)
}

/// The traced service session for the `serve.*`, `result.*` and
/// `cache.*` layers: a traced load of `o.seconds` against a fresh
/// server, then, in process, `RunRequest::parse` on every body,
/// `State::dispatch` on the cache-hit bodies against that server's
/// cache, and `SweepPoint::simulate` plus the cache codec on each
/// distinct cell.
pub fn session(o: &Opts, t: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let (cells, keys) = schedule(o.seed, o.seconds);
    let dir = work_dir(o, "server");
    let srv = ServerProc::spawn(&o.repro, dir.clone())?;
    let l = load(&srv, &cells, &keys);
    // Keep the server's cache for the in-process calls below.
    let cache_dir = work_dir(o, "cache");
    let _ = fs::remove_dir_all(&cache_dir);
    let moved = fs::rename(dir.join("cache"), &cache_dir);
    srv.shutdown()?;
    moved.map_err(|e| format!("keeping the server cache: {e}"))?;
    l.count(rep);
    l.summary();
    rep.noise.add(&l.noise);

    // Client spans: one root per request (due → done), its calls below.
    let roots: Vec<_> = l
        .reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let tag = format!("{}/{}", cells[r.cell].0, cells[r.cell].1);
            t.record(
                "request",
                r.due,
                r.done.unwrap_or(r.sent),
                None,
                i as u64,
                tag,
            )
        })
        .collect();
    for &(name, a, b, i) in &l.calls {
        t.record(name, a, b, Some(roots[i]), i as u64, "");
    }
    let rtt = median(&l.rtt_ms);
    let miss = median(&l.latencies_ms(|r| !r.hit));
    let lag: Vec<f64> = l
        .reqs
        .iter()
        .map(|r| (r.sent - r.due).as_secs_f64() * 1e3)
        .collect();
    rep.set("serve.http_rtt_ms", rtt);
    rep.set("serve.hit_ms_p50", median(&l.latencies_ms(|r| r.hit)));
    rep.set("serve.miss_ms_p50", miss);
    rep.set("client.lag_p95_ms", tail(&lag, 95.0).value);
    rep.set("serve.cache_hits", l.counters.cache_hits as f64);
    rep.set("serve.deduped", l.counters.deduped as f64);
    rep.set("serve.simulated", l.counters.completed as f64);
    rep.set("serve.rejected", l.counters.rejected as f64);

    // In process: parse every body, dispatch the hit bodies against the
    // server's cache, simulate each distinct cell once.
    let bodies: Vec<String> = keys.iter().map(|&k| run_body(cells[k])).collect();
    for (i, b) in bodies.iter().enumerate() {
        t.time("serve.parse", None, i as u64, || RunRequest::parse(b))
            .map_err(|e| format!("RunRequest::parse: {e}"))?;
    }
    let parse_us: Vec<f64> = t.durations("serve.parse").iter().map(|s| s * 1e6).collect();
    rep.set("serve.parse_us", median(&parse_us));
    let server = Server::bind(&ServerConfig {
        jobs: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("binding the in-process server: {e}"))?;
    for (i, _) in l.reqs.iter().enumerate().filter(|(_, r)| r.hit) {
        let (status, _) = t.time("serve.dispatch", Some(roots[i]), i as u64, || {
            server.state().dispatch("POST", "/run", &bodies[i])
        });
        rep.op(status == 200);
    }
    rep.set(
        "serve.dispatch_ms",
        median(&t.durations("serve.dispatch")) * 1e3,
    );
    drop(server);

    let store = ResultCache::new(work_dir(o, "store"));
    let mut distinct: Vec<usize> = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for &cell in &distinct {
        let req = cell as u64;
        let point = RunRequest::parse(&run_body(cells[cell]))
            .map_err(|e| format!("RunRequest::parse: {e}"))?
            .points()
            .remove(0);
        let key = point.key();
        let r = t.time("point.simulate", None, req, || point.simulate());
        rep.op(Some(r.checksum) == refs::checksum(cells[cell].0, refs::DEFAULT_SEED));
        t.time("result.to_json", None, req, || r.to_json());
        let text = t.time("cache.encode", None, req, || encode_result(&r));
        t.time("cache.store", None, req, || store.store(key, &r))
            .map_err(|e| format!("cache store: {e}"))?;
        let read = t
            .time("cache.load", None, req, || {
                fs::read_to_string(store.path_for(key))
            })
            .map_err(|e| format!("cache load: {e}"))?;
        let back = t.time("cache.decode", None, req, || decode_result(&read));
        rep.op(read == text && back.is_some_and(|b| b.to_json() == r.to_json()));
    }
    let _ = fs::remove_dir_all(store.dir());
    let _ = fs::remove_dir_all(&cache_dir);
    let ms = |name: &str| median(&t.durations(name)) * 1e3;
    let sim = ms("point.simulate");
    rep.set("serve.sim_ms", sim);
    rep.set("serve.queue_wait_ms", miss - sim - rtt);
    rep.set("result.to_json_ms", ms("result.to_json"));
    rep.set("cache.encode_ms", ms("cache.encode"));
    rep.set("cache.store_ms", ms("cache.store"));
    rep.set("cache.load_ms", ms("cache.load"));
    rep.set("cache.decode_ms", ms("cache.decode"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn key_stream_is_deterministic_per_seed() {
        let n = cells().len();
        assert_eq!(n, 117);
        let a = key_stream(42, n, 500);
        assert_eq!(a, key_stream(42, n, 500));
        assert_ne!(a, key_stream(43, n, 500));
        assert!(a.iter().all(|&k| k < n));
        // Skewed: the hottest cell takes a large share, and some cells
        // repeat while others are never drawn.
        let mut counts = vec![0usize; n];
        for &k in &a {
            counts[k] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(hottest > 500 / 10, "hottest cell drew {hottest} of 500");
        assert!(counts.contains(&0));
        // The popularity ranking is fixed: every seed's hottest cell is
        // the same one.
        let hottest_of = |seed| {
            let mut c = vec![0usize; n];
            for k in key_stream(seed, n, 500) {
                c[k] += 1;
            }
            (0..n).max_by_key(|&k| c[k]).unwrap()
        };
        assert_eq!(hottest_of(42), hottest_of(7));
        // A prefix of a longer stream is the shorter stream.
        assert_eq!(&key_stream(42, n, 800)[..500], &a[..]);
    }

    #[test]
    fn every_cell_is_a_valid_request() {
        for c in cells() {
            let r = RunRequest::parse(&run_body(c)).expect("valid body");
            assert_eq!(r.points().len(), 1);
        }
    }

    #[test]
    fn parses_job_documents() {
        let queued = parse_job("{\"id\":7,\"status\":\"queued\",\"points\":1}").unwrap();
        assert_eq!(
            queued,
            JobDoc {
                id: 7,
                status: "queued".into(),
                results: vec![]
            }
        );
        let done = parse_job(
            "{\"id\":8,\"status\":\"done\",\"points\":1,\"results\":[{\"app\":\"ll\",\"design\":\"C\",\"checksum\":16625,\"events\":123}]}",
        )
        .unwrap();
        assert_eq!(done.results, vec![("ll".to_string(), 16625, 123)]);
        assert!(parse_job("{\"id\":9,\"status\":\"done\",\"points\":1}").is_err());
        assert!(parse_job("{\"error\":\"no such job\"}").is_err());
        assert!(parse_job("not json").is_err());
    }

    #[test]
    fn parses_metrics_counters() {
        let doc = "{\"server\":{\"accepted\":10,\"rejected\":1,\"deduped\":2,\"cache_hits\":6,\"in_flight\":0,\"completed\":3},\"parallel\":{\"shards\":0,\"windows\":0,\"barrier_stall_ns\":0},\"last_run\":{\"events\":5,\"wall_ns\":9,\"events_per_sec\":1.5},\"sweep\":{\"metrics\":[],\"snapshots\":[]}}";
        assert_eq!(
            parse_counters(doc),
            Some(Counters {
                cache_hits: 6,
                deduped: 2,
                completed: 3,
                rejected: 1
            })
        );
        assert_eq!(parse_counters("{\"server\":{}}"), None);
    }

    #[test]
    fn reads_responses_and_connection_state() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let mut r = Cursor::new(raw.as_bytes());
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response {
                status: 200,
                body: "{}".into(),
                keep_alive: true
            }
        );
        let second = read_response(&mut r).unwrap();
        assert_eq!((second.status, second.keep_alive), (429, false));
        let eof = read_response(&mut r).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::ConnectionAborted);
    }
}
