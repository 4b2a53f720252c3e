//! The sweep engine: one resident worker pool that runs simulation
//! points, with an optional content-addressed result cache.
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
//! * **One worker loop.** `--jobs N` workers start on the first
//!   [`Sweeper::submit`] and pull points from one shared queue
//!   (whichever worker finishes first takes the next point). A
//!   panicking simulation is caught in the worker loop and fails only
//!   its own point. Batch sweeps ([`Sweeper::run`]) and the `ndpb-serve`
//!   service both submit here.
//! * **Deterministic merge.** `run` collects outcomes into slots by
//!   point index, so callers observe the same ordering regardless of
//!   worker count or scheduling. `--jobs 1` and `--jobs 8` produce
//!   byte-identical harness output.
//! * **Result cache.** With a cache directory configured, each point's
//!   [`point_key`] is probed before simulating; hits skip the
//!   simulation entirely and misses are stored after it. A warm rerun
//!   of `repro all` simulates nothing.
//! * **Observability.** Point counts, cache hits/misses, simulations
//!   and per-worker progress all land in a [`SharedMetrics`] table the
//!   harness can snapshot and dump (`sweep/points_total`,
//!   `sweep/cache_hits`, `sweep/cache_misses`, `sweep/simulated`,
//!   `sweep/worker-N/points`).
//! * **Shutdown.** Dropping a `Sweeper` closes its queue: the workers
//!   finish the points already queued (their results still reach the
//!   cache and their callbacks), then exit.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;

use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::result::RunResult;
use ndpb_sim::SimTime;
use ndpb_trace::SharedMetrics;
use ndpb_workloads::Scale;

use crate::cache::{point_key, ResultCache};
use crate::{run_host, run_one, Column};

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

/// Shared state of the resident pool: the job queue plus the condvar
/// workers park on while it is empty.
#[derive(Default)]
struct ResidentPool {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
}

#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<(SweepPoint, Done)>,
    /// Set when the owning [`Sweeper`] is dropped: workers exit once
    /// the queue is empty.
    closed: bool,
}

impl ResidentPool {
    /// Blocks until a job is queued; `None` once the pool is closed and
    /// drained.
    fn next_job(&self) -> Option<(SweepPoint, Done)> {
        let q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.ready
            .wait_while(q, |q| q.jobs.is_empty() && !q.closed)
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .pop_front()
    }
}

impl fmt::Debug for ResidentPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResidentPool").finish_non_exhaustive()
    }
}

/// The sweep executor: worker count, optional cache, shared metrics.
#[derive(Debug)]
pub struct Sweeper {
    jobs: usize,
    cache: Option<ResultCache>,
    audit: Option<AuditLevel>,
    metrics: SharedMetrics,
    sweeps_run: AtomicU64,
    resident: OnceLock<Arc<ResidentPool>>,
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
            resident: OnceLock::new(),
        }
    }

    /// Enables the on-disk result cache rooted at `dir`.
    pub fn with_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Some(ResultCache::new(dir));
        self
    }

    /// Forces every point's [`AuditLevel`] (the `repro --audit` flag).
    ///
    /// The override is applied *before* the cache key is computed — the
    /// audit level is part of `SystemConfig::fingerprint`, so an
    /// audited sweep is never satisfied by a cached unaudited result
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

    /// Runs all points and returns their results in input order.
    ///
    /// Every point is probed in the cache first; the misses then go to
    /// the resident pool, and their outcomes come back by index over one
    /// channel. The output is a pure function of `points` — worker count
    /// and scheduling never show.
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
            "sweep/cache_misses",
            "sweep/simulated",
        ] {
            self.metrics.register(name);
        }
        let mut slots: Vec<Option<PointOutcome>> =
            points.iter().map(|p| self.cached(p).map(Ok)).collect();
        let (tx, rx) = mpsc::channel();
        for (i, point) in points.into_iter().enumerate() {
            if slots[i].is_none() {
                let tx = tx.clone();
                self.submit(point, move |outcome| {
                    // `run` holds the receiver until every callback ran.
                    let _ = tx.send((i, outcome));
                });
            }
        }
        drop(tx);
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

    /// Probes the result cache for `point` without scheduling anything.
    ///
    /// The audit override is applied before the key is computed, exactly
    /// as [`submit`](Self::submit) does, so a probe and a later submit of
    /// the same point agree on the key. A hit counts into
    /// `sweep/points_total` and `sweep/cache_hits`; a miss counts
    /// nothing (the caller is expected to `submit`, which does).
    pub fn cached(&self, point: &SweepPoint) -> Option<RunResult> {
        let cache = self.cache.as_ref()?;
        let key = match self.audit {
            Some(level) => {
                let mut p = point.clone();
                p.cfg.audit = level;
                p.key()
            }
            None => point.key(),
        };
        let hit = cache.load(key)?;
        let m = &self.metrics;
        m.inc(m.register("sweep/points_total"));
        m.inc(m.register("sweep/cache_hits"));
        Some(hit)
    }

    /// Schedules one point on the engine's resident pool; a pool worker
    /// calls `done` with its outcome.
    ///
    /// The pool's `jobs` workers start on the first submit and park on a
    /// condvar between jobs, so neither a batch sweep nor a long-running
    /// server ever re-warms them. The cache (if configured) is *not*
    /// probed here — callers that want the fast path probe
    /// [`cached`](Self::cached) first — but a successful simulation is
    /// stored to it *before* `done` runs. `done` runs on the worker
    /// thread: it must be short and must not panic.
    pub fn submit(&self, mut point: SweepPoint, done: impl FnOnce(PointOutcome) + Send + 'static) {
        if let Some(level) = self.audit {
            point.cfg.audit = level;
        }
        let m = &self.metrics;
        m.inc(m.register("sweep/points_total"));
        m.inc(m.register("sweep/cache_misses"));
        let pool = self.resident.get_or_init(|| self.spawn_resident_pool());
        pool.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .push_back((point, Box::new(done)));
        pool.ready.notify_one();
    }

    fn spawn_resident_pool(&self) -> Arc<ResidentPool> {
        let pool = Arc::new(ResidentPool::default());
        let sim_id = self.metrics.register("sweep/simulated");
        for w in 0..self.jobs {
            let worker_id = self.metrics.register(&format!("sweep/worker-{w}/points"));
            let pool = Arc::clone(&pool);
            let metrics = self.metrics.clone();
            let cache = self.cache.clone();
            thread::Builder::new()
                .name(format!("sweep-pool-{w}"))
                .spawn(move || {
                    while let Some((point, done)) = pool.next_job() {
                        let key = point.key();
                        // A panicking simulation fails only its own point:
                        // `done` gets the panic message, and the worker
                        // goes on serving the queue.
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| point.simulate()))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        if let Ok(result) = &outcome {
                            if let Some(c) = &cache {
                                // Best-effort: an unwritable cache directory
                                // slows reruns down, it does not fail them.
                                let _ = c.store(key, result);
                            }
                            metrics.inc(sim_id);
                            metrics.inc(worker_id);
                        }
                        done(outcome);
                    }
                })
                .expect("spawn resident pool worker");
        }
        pool
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
        let hits = report.final_value("sweep/cache_hits").unwrap_or(0);
        let simulated = report.final_value("sweep/simulated").unwrap_or(0);
        let cache = match self.cache_dir() {
            Some(d) => format!("{}", d.display()),
            None => "off".to_string(),
        };
        Some(format!(
            "[sweep: {total} points, {hits} cache hits, {simulated} simulated, jobs={}, cache={cache}]",
            self.jobs
        ))
    }
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        if let Some(pool) = self.resident.get() {
            pool.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .closed = true;
            pool.ready.notify_all();
        }
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
    use std::time::{Duration, Instant};

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

    /// Submits every point with a callback that reports back by index.
    fn submit_all(sw: &Sweeper, points: Vec<SweepPoint>) -> mpsc::Receiver<(usize, PointOutcome)> {
        let (tx, rx) = mpsc::channel();
        for (i, p) in points.into_iter().enumerate() {
            let tx = tx.clone();
            sw.submit(p, move |outcome| {
                let _ = tx.send((i, outcome));
            });
        }
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
        let report = sw.metrics().live_report();
        assert_eq!(report.final_value("sweep/simulated"), Some(6));
        assert_eq!(report.final_value("sweep/points_total"), Some(6));
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
    fn cached_probe_hits_after_submit_and_respects_audit_override() {
        let dir = std::env::temp_dir().join(format!("ndpb-submit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let sw = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let p = point("ll");
        assert!(sw.cached(&p).is_none(), "cold cache misses");
        let live = outcomes(&submit_all(&sw, vec![p.clone()]), 1)
            .remove(0)
            .expect("valid point");
        let hit = sw.cached(&p).expect("submit populated the cache");
        assert_eq!(hit.to_json(), live.to_json());

        // A different audit level keys differently, so it misses.
        let audited = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        assert!(audited.cached(&p).is_none());

        let report = sw.metrics().live_report();
        assert_eq!(report.final_value("sweep/cache_hits"), Some(1));
        assert_eq!(report.final_value("sweep/points_total"), Some(2));

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
        let (gate, parked) = mpsc::channel::<()>();
        sw.submit(point("ll"), move |_| {
            let _ = parked.recv();
        });
        let rx = submit_all(&sw, points());
        drop(sw);
        gate.send(()).expect("the worker is parked on the gate");
        let got: Vec<String> = outcomes(&rx, batch.len())
            .into_iter()
            .map(|o| o.expect("valid point").to_json())
            .collect();
        assert_eq!(got, batch);
        let warm = Sweeper::new(1).with_cache(&dir);
        assert!(points().iter().all(|p| warm.cached(p).is_some()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_worker_exits_once_its_sweeper_is_dropped() {
        let sw = Sweeper::new(3);
        outcomes(&submit_all(&sw, vec![point("ll")]), 1);
        let pool = Arc::downgrade(sw.resident.get().expect("submit started the pool"));
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
