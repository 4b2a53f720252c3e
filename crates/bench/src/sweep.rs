//! The sweep engine: one resident worker pool that runs simulation
//! points, one key table that shares each distinct point's result
//! within the process, and an optional content-addressed result cache
//! on disk.
//!
//! Every table/figure of the paper is one *sweep*: a list of
//! (application, design column, configuration, scale) points whose
//! simulations are completely independent — each one is single-threaded
//! and deterministic given its config seed. `crate::run_matrix` builds a
//! figure's whole apps × configurations × columns list and runs it as
//! one [`Sweeper::run`]. There is no process-wide engine: whoever owns
//! the worker count and cache (the `repro` harness, the service, a
//! test) builds its own `Sweeper` and passes it down. The engine
//! exploits exactly that independence and nothing more:
//!
//! * **One worker loop.** `--jobs N` workers start on the first point
//!   that has to be simulated and pull points from one shared queue
//!   (whichever worker finishes first takes the next point). A
//!   panicking simulation is caught in the worker loop and fails only
//!   its own point. Batch sweeps ([`Sweeper::run`]) and the `ndpb-serve`
//!   service both go through [`Sweeper::submit`].
//! * **One key table.** A point is identified by its [`SweepPoint::key`],
//!   the key the disk cache uses. A queued or running key holds the
//!   callbacks waiting on it, and a later submit of the same key
//!   attaches to it (`sweep/deduped`). A finished key keeps its result
//!   for the `Sweeper`'s life, up to `KEPT_RESULTS` (1,024) of them
//!   with the oldest evicted first, and a later submit is answered from
//!   it (`sweep/cache_hits`). A point whose simulation failed leaves the
//!   table, so submitting it again simulates it again. Each distinct
//!   point therefore simulates once per process, within one sweep and
//!   across sweeps.
//! * **Deterministic merge.** `run` collects outcomes into slots by
//!   point index, so callers observe the same ordering regardless of
//!   worker count or scheduling. `--jobs 1` and `--jobs 8` produce
//!   byte-identical harness output.
//! * **Result cache.** With a cache directory configured, a key that is
//!   not in the table is probed on disk before it is queued; a hit
//!   skips the simulation and joins the table, and a simulated result
//!   is stored before its callbacks run. A warm rerun of `repro all`
//!   simulates nothing.
//! * **Observability.** Point counts, hits, attachments, simulations,
//!   failures and per-worker progress all land in a [`SharedMetrics`]
//!   table the harness can snapshot and dump (`sweep/points_total`,
//!   `sweep/cache_hits`, `sweep/deduped`, `sweep/cache_misses`,
//!   `sweep/simulated`, `sweep/failed`, `sweep/worker-N/points`), with
//!   the last simulated point's event count and simulation wall time
//!   (`sweep/last_run/events`, `sweep/last_run/wall_ns`).
//! * **Shutdown.** Dropping a `Sweeper` closes its queue: the workers
//!   finish the points already queued (their results still reach the
//!   cache and their callbacks), then exit.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread;
use std::time::Instant;

use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::result::RunResult;
use ndpb_sim::SimTime;
use ndpb_trace::SharedMetrics;
use ndpb_workloads::Scale;

use crate::cache::{point_key, ResultCache};
use crate::{run_host, run_one, Column};

/// Finished results a [`Sweeper`] keeps in its key table; beyond this
/// the oldest is evicted. A Small result encodes to about 8 KB, so a
/// full table holds about 10 MB.
const KEPT_RESULTS: usize = 1024;

/// One independent simulation in a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Application name (see `ndpb_workloads::APP_NAMES`).
    pub app: String,
    /// Design column to simulate.
    pub column: Column,
    /// Full system configuration (folded into the cache key).
    pub cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
}

impl SweepPoint {
    /// Builds a point.
    pub fn new(app: impl Into<String>, column: Column, cfg: SystemConfig, scale: Scale) -> Self {
        SweepPoint {
            app: app.into(),
            column,
            cfg,
            scale,
        }
    }

    /// The point's content-addressed cache key.
    pub fn key(&self) -> u64 {
        point_key(&self.app, &self.column.label(), self.scale, &self.cfg)
    }

    /// Runs the simulation for this point.
    pub fn simulate(self) -> RunResult {
        match self.column {
            Column::Ndp(d) => run_one(&self.app, d, self.cfg, self.scale),
            Column::Host => run_host(&self.app, self.cfg, self.scale),
        }
    }
}

/// What a submitted point yields: its result, or the message its
/// simulation panicked with (the `MAX_EVENTS` watchdog, the
/// drained-queue assert, an audit violation, an unknown app).
pub type PointOutcome = Result<RunResult, String>;

/// The completion callback of one submitted point.
type Done = Box<dyn FnOnce(PointOutcome) + Send>;

/// Why [`Sweeper::submit`] refused a batch: queueing its new keys would
/// leave more keys pending than the bound it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Keys queued or running when the batch arrived.
    pub pending: usize,
    /// Distinct keys of the batch that would have been queued.
    pub fresh: usize,
}

/// One key's state in the table.
enum Entry {
    /// Queued or running: the callbacks waiting on the key.
    Pending(Vec<Done>),
    /// Simulated in this process, or read from the disk cache.
    Finished(Arc<RunResult>),
}

/// The key table and the pool's work queue, under one lock.
#[derive(Default)]
struct Table {
    entries: HashMap<u64, Entry>,
    /// The finished keys, oldest first: the eviction order.
    finished: VecDeque<u64>,
    /// Pending keys no worker has taken yet, in submission order.
    queue: VecDeque<(u64, SweepPoint)>,
    /// Set when the owning [`Sweeper`] is dropped: workers exit once
    /// the queue is empty.
    closed: bool,
}

impl Table {
    /// Keys queued or running.
    fn pending(&self) -> usize {
        self.entries.len() - self.finished.len()
    }

    /// Keeps a finished result, evicting the oldest beyond `bound`.
    fn keep(&mut self, key: u64, result: Arc<RunResult>, bound: usize) {
        self.entries.insert(key, Entry::Finished(result));
        self.finished.push_back(key);
        while self.finished.len() > bound {
            if let Some(oldest) = self.finished.pop_front() {
                self.entries.remove(&oldest);
            }
        }
    }

    /// Settles a pending key and returns the callbacks waiting on it:
    /// the key keeps its result, or leaves the table if it failed.
    fn settle(&mut self, key: u64, kept: Option<Arc<RunResult>>, bound: usize) -> Vec<Done> {
        let waiting = match self.entries.remove(&key) {
            Some(Entry::Pending(waiting)) => waiting,
            _ => unreachable!("only a pending key is queued"),
        };
        if let Some(result) = kept {
            self.keep(key, result, bound);
        }
        waiting
    }
}

/// Shared state of the resident pool: the table plus the condvar
/// workers park on while its queue is empty.
#[derive(Default)]
struct ResidentPool {
    table: Mutex<Table>,
    ready: Condvar,
}

impl ResidentPool {
    /// No callback runs under the lock and every update leaves the
    /// table whole, so a poisoned lock still guards a valid table.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a point is queued; `None` once the pool is closed
    /// and drained.
    fn next_job(&self) -> Option<(u64, SweepPoint)> {
        self.ready
            .wait_while(self.lock(), |t| t.queue.is_empty() && !t.closed)
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .pop_front()
    }
}

impl fmt::Debug for ResidentPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResidentPool").finish_non_exhaustive()
    }
}

/// The sweep executor: worker count, key table, optional cache, shared
/// metrics.
#[derive(Debug)]
pub struct Sweeper {
    jobs: usize,
    cache: Option<ResultCache>,
    audit: Option<AuditLevel>,
    metrics: SharedMetrics,
    sweeps_run: AtomicU64,
    pool: Arc<ResidentPool>,
    pool_started: Once,
}

impl Sweeper {
    /// An engine with `jobs` workers and no cache.
    pub fn new(jobs: usize) -> Self {
        Sweeper {
            jobs: jobs.max(1),
            cache: None,
            audit: None,
            metrics: SharedMetrics::new(),
            sweeps_run: AtomicU64::new(0),
            pool: Arc::default(),
            pool_started: Once::new(),
        }
    }

    /// Enables the on-disk result cache rooted at `dir`.
    pub fn with_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Some(ResultCache::new(dir));
        self
    }

    /// Forces every point's [`AuditLevel`] (the `repro --audit` flag).
    ///
    /// The override is applied *before* the key is computed — the
    /// audit level is part of `SystemConfig::fingerprint`, so an
    /// audited sweep is never satisfied by a stored unaudited result
    /// (which would silently skip the invariant checks).
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = Some(level);
        self
    }

    /// The forced audit level, if any.
    pub fn audit(&self) -> Option<AuditLevel> {
        self.audit
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache directory, if caching is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.as_ref().map(ResultCache::dir)
    }

    /// The engine's metrics table (sweep counters, worker progress).
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }

    /// Keys queued or running.
    pub fn pending(&self) -> usize {
        self.pool.lock().pending()
    }

    /// Runs all points and returns their results in input order.
    ///
    /// The points go to [`submit`](Self::submit) as one batch, and
    /// their outcomes come back by index over one channel: a repeated
    /// point simulates once, and a point an earlier sweep finished is
    /// not simulated again. The output is a pure function of `points` —
    /// worker count and scheduling never show.
    ///
    /// # Panics
    ///
    /// With the failure message of the first point (in input order)
    /// whose simulation panicked.
    pub fn run(&self, points: Vec<SweepPoint>) -> Vec<RunResult> {
        // Registered up front, so a warm sweep still reports
        // `sweep/simulated` = 0 and the column order is fixed.
        for name in [
            "sweep/points_total",
            "sweep/cache_hits",
            "sweep/deduped",
            "sweep/cache_misses",
            "sweep/simulated",
        ] {
            self.metrics.register(name);
        }
        let mut slots: Vec<Option<PointOutcome>> = points.iter().map(|_| None).collect();
        let (tx, rx) = mpsc::channel();
        let batch = points
            .into_iter()
            .enumerate()
            .map(|(i, point)| {
                let tx = tx.clone();
                // `run` holds the receiver until every callback ran.
                (point, move |outcome| {
                    let _ = tx.send((i, outcome));
                })
            })
            .collect();
        drop(tx);
        self.submit(batch, usize::MAX)
            .expect("an unbounded batch is always admitted");
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }

        let seq = self.sweeps_run.fetch_add(1, Ordering::Relaxed);
        self.metrics.snapshot(format!("sweep-{seq}"), SimTime::ZERO);
        slots
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(result)) => result,
                Some(Err(msg)) => panic!("{msg}"),
                None => panic!("the pool dropped a point without an outcome"),
            })
            .collect()
    }

    /// Submits a batch of points, each with the callback that receives
    /// its outcome, if queueing the batch's new keys leaves at most
    /// `max_pending` keys queued or running; otherwise nothing of the
    /// batch is submitted.
    ///
    /// Each point (after the audit override, which is part of its key)
    /// attaches to its key if that is pending, or is answered from the
    /// key's finished result in the table or on disk, or is queued as a
    /// new pending key. Answered callbacks run before `submit` returns,
    /// outside the table lock, and a batch that is all answered never
    /// starts the pool. The pool's `jobs` workers start on the first
    /// queued point and park on a condvar between points, so neither a
    /// batch sweep nor a long-running server ever re-warms them. Every
    /// other callback runs on the worker that simulated its key, after
    /// the result reached the disk cache: it must be short and must not
    /// panic.
    pub fn submit<F>(
        &self,
        batch: Vec<(SweepPoint, F)>,
        max_pending: usize,
    ) -> Result<(), QueueFull>
    where
        F: FnOnce(PointOutcome) + Send + 'static,
    {
        let keyed: Vec<(u64, SweepPoint, F)> = batch
            .into_iter()
            .map(|(mut point, done)| {
                if let Some(level) = self.audit {
                    point.cfg.audit = level;
                }
                (point.key(), point, done)
            })
            .collect();
        let mut answered = Vec::new();
        let (mut attached, mut queued) = (0, 0);
        {
            let mut table = self.pool.lock();
            // Count the batch's new keys before changing any pending
            // key, so a refused batch leaves nothing behind. A disk hit
            // joins the table at once: it is a finished result either
            // way.
            let mut fresh = HashSet::new();
            for (key, _, _) in &keyed {
                if table.entries.contains_key(key) || fresh.contains(key) {
                    continue;
                }
                match self.cache.as_ref().and_then(|c| c.load(*key)) {
                    Some(result) => table.keep(*key, Arc::new(result), KEPT_RESULTS),
                    None => {
                        fresh.insert(*key);
                    }
                }
            }
            let pending = table.pending();
            if pending + fresh.len() > max_pending {
                return Err(QueueFull {
                    pending,
                    fresh: fresh.len(),
                });
            }
            for (key, point, done) in keyed {
                match table.entries.get_mut(&key) {
                    Some(Entry::Pending(waiting)) => {
                        attached += 1;
                        waiting.push(Box::new(done));
                    }
                    Some(Entry::Finished(result)) => answered.push((done, Arc::clone(result))),
                    None => {
                        queued += 1;
                        table
                            .entries
                            .insert(key, Entry::Pending(vec![Box::new(done)]));
                        table.queue.push_back((key, point));
                    }
                }
            }
        }
        let hits = answered.len();
        let m = &self.metrics;
        m.add(
            m.register("sweep/points_total"),
            (hits + attached + queued) as u64,
        );
        m.add(m.register("sweep/cache_hits"), hits as u64);
        m.add(m.register("sweep/deduped"), attached as u64);
        m.add(m.register("sweep/cache_misses"), queued as u64);
        if queued > 0 {
            self.pool_started.call_once(|| self.start_pool());
            self.pool.ready.notify_all();
        }
        for (done, result) in answered {
            done(Ok(Arc::unwrap_or_clone(result)));
        }
        Ok(())
    }

    fn start_pool(&self) {
        let m = &self.metrics;
        let sim_id = m.register("sweep/simulated");
        let failed_id = m.register("sweep/failed");
        let events_id = m.register("sweep/last_run/events");
        let wall_id = m.register("sweep/last_run/wall_ns");
        for w in 0..self.jobs {
            let worker_id = m.register(&format!("sweep/worker-{w}/points"));
            let pool = Arc::clone(&self.pool);
            let metrics = m.clone();
            let cache = self.cache.clone();
            thread::Builder::new()
                .name(format!("sweep-pool-{w}"))
                .spawn(move || {
                    while let Some((key, point)) = pool.next_job() {
                        let start = Instant::now();
                        // A panicking simulation fails only its own key:
                        // its callbacks get the panic message, and the
                        // worker goes on serving the queue.
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| point.simulate()))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        match &outcome {
                            Ok(result) => {
                                if let Some(c) = &cache {
                                    // Best-effort: an unwritable cache
                                    // directory slows reruns down, it
                                    // does not fail them.
                                    let _ = c.store(key, result);
                                }
                                metrics.set(events_id, result.events);
                                metrics.set(wall_id, start.elapsed().as_nanos() as u64);
                                metrics.inc(sim_id);
                                metrics.inc(worker_id);
                            }
                            Err(_) => metrics.inc(failed_id),
                        }
                        let kept = outcome.as_ref().ok().map(|r| Arc::new(r.clone()));
                        let mut waiting = pool.lock().settle(key, kept, KEPT_RESULTS);
                        let last = waiting.pop();
                        for done in waiting {
                            done(outcome.clone());
                        }
                        if let Some(done) = last {
                            done(outcome);
                        }
                    }
                })
                .expect("spawn resident pool worker");
        }
    }

    /// Formats a one-line summary of the engine's lifetime counters
    /// (for the harness's stderr footer). `None` before any sweep ran.
    pub fn summary(&self) -> Option<String> {
        let report = {
            self.metrics.snapshot("summary", SimTime::ZERO);
            self.metrics.report()
        };
        let total = report.final_value("sweep/points_total")?;
        if total == 0 {
            return None;
        }
        let count = |name| report.final_value(name).unwrap_or(0);
        let cache = match self.cache_dir() {
            Some(d) => format!("{}", d.display()),
            None => "off".to_string(),
        };
        Some(format!(
            "[sweep: {total} points, {} cache hits, {} simulated, {} deduped, jobs={}, cache={cache}]",
            count("sweep/cache_hits"),
            count("sweep/simulated"),
            count("sweep/deduped"),
            self.jobs
        ))
    }
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        self.pool.lock().closed = true;
        self.pool.ready.notify_all();
    }
}

/// The text of a caught panic: `panic!` payloads are a `&str` or a
/// formatted `String`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("simulation panicked: {text}")
}

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_core::design::DesignPoint;
    use ndpb_dram::Geometry;
    use std::time::Duration;

    /// How long a test waits for one outcome before calling the pool
    /// stuck.
    const PATIENCE: Duration = Duration::from_secs(120);

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::with_geometry(Geometry::with_total_ranks(1))
    }

    fn point(app: &str) -> SweepPoint {
        SweepPoint::new(app, Column::Ndp(DesignPoint::C), tiny_cfg(), Scale::Tiny)
    }

    fn points() -> Vec<SweepPoint> {
        ["ll", "spmv", "ht"]
            .iter()
            .flat_map(|&app| {
                [DesignPoint::C, DesignPoint::O]
                    .map(|d| SweepPoint::new(app, Column::Ndp(d), tiny_cfg(), Scale::Tiny))
            })
            .collect()
    }

    fn fingerprint(results: &[RunResult]) -> Vec<String> {
        results.iter().map(RunResult::to_json).collect()
    }

    fn count(sw: &Sweeper, name: &str) -> Option<u64> {
        sw.metrics().live_report().final_value(name)
    }

    /// Submits every point, unbounded, with a callback that reports
    /// back by index.
    fn submit_all(sw: &Sweeper, points: Vec<SweepPoint>) -> mpsc::Receiver<(usize, PointOutcome)> {
        let (tx, rx) = mpsc::channel();
        let batch = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let tx = tx.clone();
                (p, move |outcome| {
                    let _ = tx.send((i, outcome));
                })
            })
            .collect();
        sw.submit(batch, usize::MAX).expect("unbounded");
        rx
    }

    /// The `n` outcomes `rx` delivers, in submission order.
    fn outcomes(rx: &mpsc::Receiver<(usize, PointOutcome)>, n: usize) -> Vec<PointOutcome> {
        let mut slots: Vec<Option<PointOutcome>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, outcome) = rx
                .recv_timeout(PATIENCE)
                .expect("the pool stopped delivering outcomes");
            slots[i] = Some(outcome);
        }
        slots.into_iter().map(Option::unwrap).collect()
    }

    /// Parks the one worker of `sw` in a callback until the returned
    /// gate is opened: every point submitted meanwhile stays pending.
    fn park_worker(sw: &Sweeper) -> mpsc::Sender<()> {
        let (gate, parked) = mpsc::channel::<()>();
        let (arrived, at_gate) = mpsc::channel::<()>();
        sw.submit(
            vec![(point("tree"), move |_| {
                let _ = arrived.send(());
                let _ = parked.recv();
            })],
            usize::MAX,
        )
        .expect("unbounded");
        at_gate
            .recv_timeout(PATIENCE)
            .expect("the worker reached the gate");
        gate
    }

    #[test]
    fn merge_order_matches_input_order_for_any_job_count() {
        let baseline = fingerprint(&Sweeper::new(1).run(points()));
        for jobs in [2, 8, 32] {
            let got = fingerprint(&Sweeper::new(jobs).run(points()));
            assert_eq!(got, baseline, "jobs={jobs} must be invisible");
        }
        // Results land app-major, column-minor, like the input.
        let r = Sweeper::new(4).run(points());
        assert_eq!(r[0].app, "ll");
        assert_eq!(r[0].design, "C");
        assert_eq!(r[1].design, "O");
        assert_eq!(r[4].app, "ht");
    }

    #[test]
    fn warm_cache_simulates_nothing_and_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("ndpb-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold = Sweeper::new(4).with_cache(&dir);
        let first = fingerprint(&cold.run(points()));
        let report = cold.metrics().report();
        assert_eq!(report.final_value("sweep/cache_hits"), Some(0));
        assert_eq!(report.final_value("sweep/cache_misses"), Some(6));
        assert_eq!(report.final_value("sweep/simulated"), Some(6));

        let warm = Sweeper::new(4).with_cache(&dir);
        let second = fingerprint(&warm.run(points()));
        assert_eq!(second, first, "cache hits must reproduce live output");
        let report = warm.metrics().report();
        assert_eq!(report.final_value("sweep/cache_hits"), Some(6));
        assert_eq!(
            report.final_value("sweep/simulated"),
            Some(0),
            "warm rerun must not simulate"
        );
        assert!(warm.summary().unwrap().contains("6 cache hits"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audited_sweep_bypasses_unaudited_cache_but_matches_results() {
        let dir = std::env::temp_dir().join(format!("ndpb-sweep-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold unaudited sweep populates the cache. `Off` is forced
        // explicitly — under debug builds the config *default* is
        // already `Full`, which would collapse the two key spaces.
        let plain = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let baseline = fingerprint(&plain.run(points()));

        // The audited sweep must not consume those entries (the audit
        // level is folded into the key), yet — the auditor being purely
        // observational — its results must be bit-identical.
        let audited = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        assert_eq!(audited.audit(), Some(AuditLevel::Full));
        let got = fingerprint(&audited.run(points()));
        assert_eq!(got, baseline, "audit must not perturb results");
        let report = audited.metrics().report();
        assert_eq!(
            report.final_value("sweep/cache_hits"),
            Some(0),
            "audited points must never reuse unaudited cache entries"
        );
        assert_eq!(report.final_value("sweep/simulated"), Some(6));

        // A second audited sweep hits the now-audited entries.
        let warm = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        assert_eq!(fingerprint(&warm.run(points())), baseline);
        assert_eq!(
            warm.metrics().report().final_value("sweep/cache_hits"),
            Some(6)
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_progress_counters_cover_all_simulations() {
        let sw = Sweeper::new(3);
        let n = sw.run(points()).len() as u64;
        let report = sw.metrics().report();
        let per_worker: u64 = report
            .names_under("sweep")
            .filter(|name| name.ends_with("/points"))
            .filter_map(|name| report.final_value(name))
            .sum();
        assert_eq!(per_worker, n, "every point is attributed to a worker");
        assert_eq!(report.final_value("sweep/points_total"), Some(n));
    }

    #[test]
    fn empty_sweep_is_fine_and_summary_reports_nothing() {
        let sw = Sweeper::new(8);
        assert!(sw.run(Vec::new()).is_empty());
        assert!(sw.summary().is_none());
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let sw = Sweeper::new(0);
        assert_eq!(sw.jobs(), 1);
        assert_eq!(sw.run(points()).len(), 6);
    }

    #[test]
    #[should_panic(expected = "simulation panicked: unknown application")]
    fn a_panicking_point_fails_the_batch_with_its_message() {
        Sweeper::new(2).run(vec![point("ll"), point("no-such-app")]);
    }

    #[test]
    fn submitted_points_match_batch_results() {
        let sw = Sweeper::new(3);
        let batch = fingerprint(&Sweeper::new(1).run(points()));
        let got: Vec<String> = outcomes(&submit_all(&sw, points()), batch.len())
            .into_iter()
            .map(|o| o.expect("valid point").to_json())
            .collect();
        assert_eq!(got, batch, "resident pool must reproduce batch output");
        assert_eq!(count(&sw, "sweep/simulated"), Some(6));
        assert_eq!(count(&sw, "sweep/points_total"), Some(6));
        assert_eq!(sw.pending(), 0);
    }

    #[test]
    fn panicking_point_does_not_kill_its_pool_worker() {
        // One worker: the valid point can only finish if the worker
        // survived the panicking one queued ahead of it.
        let sw = Sweeper::new(1);
        let rx = submit_all(&sw, vec![point("no-such-app"), point("ll")]);
        let mut got = outcomes(&rx, 2).into_iter();
        let msg = got
            .next()
            .unwrap()
            .expect_err("an unknown app cannot simulate");
        assert!(msg.starts_with("simulation panicked: "), "{msg}");
        assert!(msg.contains("unknown application"), "{msg}");
        assert_eq!(
            got.next().unwrap().expect("the valid point succeeds").app,
            "ll"
        );
    }

    #[test]
    fn concurrent_submits_of_one_key_simulate_once() {
        let sw = Sweeper::new(1);
        let gate = park_worker(&sw);
        // The only worker is parked, so the key stays pending while two
        // threads submit it: one queues it, the other attaches.
        let rxs: Vec<_> = thread::scope(|s| {
            let submits: Vec<_> = (0..2)
                .map(|_| s.spawn(|| submit_all(&sw, vec![point("ll")])))
                .collect();
            submits.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sw.pending(), 1, "one shared key");
        assert_eq!(count(&sw, "sweep/deduped"), Some(1));
        gate.send(()).expect("the worker is parked on the gate");
        let got: Vec<String> = rxs
            .iter()
            .map(|rx| outcomes(rx, 1).remove(0).expect("valid point").to_json())
            .collect();
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0], point("ll").simulate().to_json());
        assert_eq!(count(&sw, "sweep/simulated"), Some(2), "tree and ll once");
        assert_eq!(sw.pending(), 0);
    }

    #[test]
    fn a_finished_key_answers_at_submit_without_simulating() {
        let sw = Sweeper::new(2);
        let live = sw.run(vec![point("ll")]).remove(0);
        let rx = submit_all(&sw, vec![point("ll")]);
        let (_, hit) = rx.try_recv().expect("answered before submit returned");
        assert_eq!(hit.expect("a kept result").to_json(), live.to_json());
        assert_eq!(count(&sw, "sweep/simulated"), Some(1));
        assert_eq!(count(&sw, "sweep/cache_hits"), Some(1));
        assert_eq!(sw.pending(), 0);
    }

    #[test]
    fn a_panic_fails_every_attached_callback_and_can_be_resubmitted() {
        let sw = Sweeper::new(1);
        let gate = park_worker(&sw);
        let rx = submit_all(&sw, vec![point("no-such-app"), point("no-such-app")]);
        assert_eq!(count(&sw, "sweep/deduped"), Some(1));
        gate.send(()).expect("the worker is parked on the gate");
        for outcome in outcomes(&rx, 2) {
            let msg = outcome.expect_err("an unknown app cannot simulate");
            assert!(msg.contains("unknown application"), "{msg}");
        }
        assert_eq!(count(&sw, "sweep/failed"), Some(1));
        assert_eq!(sw.pending(), 0, "a failed key leaves the table");
        // Nothing was kept, so the resubmission simulates (and fails)
        // again instead of being answered.
        let again = outcomes(&submit_all(&sw, vec![point("no-such-app")]), 1);
        assert!(again[0].is_err());
        assert_eq!(count(&sw, "sweep/failed"), Some(2));
        assert_eq!(count(&sw, "sweep/cache_hits"), Some(0));
    }

    #[test]
    fn the_table_evicts_its_oldest_result_beyond_the_bound() {
        let result = Arc::new(point("ll").simulate());
        let mut table = Table::default();
        for key in 1..=3 {
            table.keep(key, result.clone(), 2);
        }
        assert!(!table.entries.contains_key(&1), "the oldest is evicted");
        assert!(table.entries.contains_key(&2) && table.entries.contains_key(&3));
        assert_eq!(table.finished, [2, 3]);
        // A pending key is never evicted and counts as pending.
        table.entries.insert(9, Entry::Pending(Vec::new()));
        table.keep(4, result, 2);
        assert!(table.entries.contains_key(&9));
        assert_eq!(table.pending(), 1);
        assert_eq!(table.finished, [3, 4]);
    }

    #[test]
    fn a_repeated_point_in_one_run_simulates_once() {
        let sw = Sweeper::new(2);
        let r = sw.run(vec![point("ll"), point("spmv"), point("ll")]);
        assert_eq!(r[0].to_json(), r[2].to_json());
        assert_eq!(r[1].app, "spmv");
        assert_eq!(count(&sw, "sweep/simulated"), Some(2));
        assert_eq!(count(&sw, "sweep/deduped"), Some(1));
        assert_eq!(count(&sw, "sweep/points_total"), Some(3));
        assert!(sw.summary().unwrap().contains("2 simulated, 1 deduped"));
        // A second sweep over the same points is answered from the table.
        let again = sw.run(vec![point("spmv"), point("ll")]);
        assert_eq!(again[1].to_json(), r[0].to_json());
        assert_eq!(count(&sw, "sweep/simulated"), Some(2));
        assert_eq!(count(&sw, "sweep/cache_hits"), Some(2));
    }

    #[test]
    fn a_bounded_submit_is_refused_whole() {
        let sw = Sweeper::new(1);
        let gate = park_worker(&sw);
        // Two new keys and a repeat of one need two pending slots.
        let batch = || vec![point("ll"), point("spmv"), point("ll")];
        let refused = sw.submit(batch().into_iter().map(|p| (p, |_| {})).collect(), 1);
        assert_eq!(
            refused,
            Err(QueueFull {
                pending: 0,
                fresh: 2
            })
        );
        assert_eq!(sw.pending(), 0, "a refused batch leaves nothing behind");
        assert_eq!(count(&sw, "sweep/points_total"), Some(1));
        let rx = {
            let (tx, rx) = mpsc::channel();
            let batch = batch()
                .into_iter()
                .map(|p| {
                    let tx = tx.clone();
                    (p, move |o: PointOutcome| {
                        let _ = tx.send(o.is_ok());
                    })
                })
                .collect();
            sw.submit(batch, 2).expect("within the bound");
            rx
        };
        assert_eq!(sw.pending(), 2);
        gate.send(()).expect("the worker is parked on the gate");
        for _ in 0..3 {
            assert_eq!(rx.recv_timeout(PATIENCE), Ok(true));
        }
    }

    #[test]
    fn a_disk_hit_answers_at_submit_without_starting_the_pool() {
        let dir = std::env::temp_dir().join(format!("ndpb-submit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let sw = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let live = outcomes(&submit_all(&sw, vec![point("ll")]), 1)
            .remove(0)
            .expect("valid point");

        let warm = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let rx = submit_all(&warm, vec![point("ll")]);
        let (_, hit) = rx.try_recv().expect("answered before submit returned");
        assert_eq!(hit.expect("a stored result").to_json(), live.to_json());
        assert_eq!(count(&warm, "sweep/cache_hits"), Some(1));
        assert_eq!(
            count(&warm, "sweep/simulated"),
            None,
            "the pool never started"
        );

        // A different audit level keys differently, so it misses.
        let audited = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        outcomes(&submit_all(&audited, vec![point("ll")]), 1);
        assert_eq!(count(&audited, "sweep/cache_hits"), Some(0));
        assert_eq!(count(&audited, "sweep/simulated"), Some(1));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn points_submitted_before_a_drop_still_complete_and_reach_the_cache() {
        let dir = std::env::temp_dir().join(format!("ndpb-drop-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let batch = fingerprint(&Sweeper::new(1).run(points()));
        let sw = Sweeper::new(1).with_cache(&dir);
        // The one worker parks in this point's callback until the gate
        // opens, so every point below is still queued at the drop.
        let gate = park_worker(&sw);
        let rx = submit_all(&sw, points());
        drop(sw);
        gate.send(()).expect("the worker is parked on the gate");
        let got: Vec<String> = outcomes(&rx, batch.len())
            .into_iter()
            .map(|o| o.expect("valid point").to_json())
            .collect();
        assert_eq!(got, batch);
        let warm = Sweeper::new(1).with_cache(&dir);
        assert_eq!(fingerprint(&warm.run(points())), batch);
        assert_eq!(count(&warm, "sweep/cache_hits"), Some(6));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_worker_exits_once_its_sweeper_is_dropped() {
        let sw = Sweeper::new(3);
        outcomes(&submit_all(&sw, vec![point("ll")]), 1);
        let pool = Arc::downgrade(&sw.pool);
        drop(sw);
        // Each worker holds the pool until its loop returns.
        let deadline = Instant::now() + PATIENCE;
        while pool.upgrade().is_some() {
            assert!(Instant::now() < deadline, "a worker outlived its Sweeper");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn run_matrix_is_one_config_major_sweep() {
        let apps = ["ll", "spmv"];
        let cfgs = [
            tiny_cfg(),
            SystemConfig {
                g_xfer: 1024,
                ..tiny_cfg()
            },
        ];
        let cols = [Column::Ndp(DesignPoint::C), Column::Ndp(DesignPoint::O)];
        let sw = Sweeper::new(2);
        let m = crate::run_matrix(&sw, &apps, &cfgs, &cols, Scale::Tiny);
        assert_eq!(m.len(), apps.len());
        for (app, row) in apps.iter().zip(&m) {
            assert_eq!(row.len(), cfgs.len() * cols.len());
            for (k, cfg) in cfgs.iter().enumerate() {
                for (j, &col) in cols.iter().enumerate() {
                    let alone = SweepPoint::new(*app, col, cfg.clone(), Scale::Tiny).simulate();
                    assert_eq!(
                        row[k * cols.len() + j].to_json(),
                        alone.to_json(),
                        "{app}, config {k}, column {j}"
                    );
                }
            }
        }
        // The whole matrix is one `Sweeper::run`: one snapshot.
        let report = sw.metrics().report();
        let sweeps: Vec<&str> = report.snapshots.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(sweeps, ["sweep-0"]);
        assert_eq!(report.final_value("sweep/points_total"), Some(8));
    }
}
