//! The sweep engine: a bounded worker pool that fans simulation points
//! across threads, with an optional content-addressed result cache.
//!
//! Every table/figure of the paper is a *sweep*: a list of
//! (application, design column, configuration, scale) points whose
//! simulations are completely independent — each one is single-threaded
//! and deterministic given its config seed. The engine exploits exactly
//! that independence and nothing more:
//!
//! * **Bounded parallelism.** `--jobs N` workers pull point indices
//!   from one shared queue (work stealing over a `Mutex<VecDeque>`;
//!   whichever worker finishes first takes the next point), instead of
//!   the former one-thread-per-cell free-for-all that oversubscribed
//!   the machine on large figures.
//! * **Deterministic merge.** Results are written into a slot vector by
//!   point index, so callers observe the same ordering regardless of
//!   worker count or scheduling. `--jobs 1` and `--jobs 8` produce
//!   byte-identical harness output.
//! * **Result cache.** With a cache directory configured, each point's
//!   [`cache::point_key`] is probed before simulating; hits skip the
//!   simulation entirely and misses are stored after it. A warm rerun
//!   of `repro all` simulates nothing.
//! * **Observability.** Point counts, cache hits/misses, simulations
//!   and per-worker progress all land in a [`SharedMetrics`] table the
//!   harness can snapshot and dump (`sweep/points_total`,
//!   `sweep/cache_hits`, `sweep/cache_misses`, `sweep/simulated`,
//!   `sweep/worker-N/points`).

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
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

/// A claim on the result of one point handed to [`Sweeper::submit`].
///
/// Dropping the ticket abandons the result; the simulation still runs
/// to completion (and still populates the cache).
#[derive(Debug)]
pub struct PointTicket {
    rx: mpsc::Receiver<RunResult>,
}

impl PointTicket {
    /// Blocks until the point's simulation finishes.
    ///
    /// # Panics
    ///
    /// Panics if the pool worker died (a simulation panicked) before
    /// delivering the result.
    pub fn wait(self) -> RunResult {
        self.rx
            .recv()
            .expect("resident pool worker died before delivering its result")
    }

    /// Non-blocking probe: the result if it is already available.
    pub fn try_wait(&self) -> Option<RunResult> {
        self.rx.try_recv().ok()
    }
}

/// Shared state of the resident pool: a job queue plus the condvar
/// workers park on while it is empty.
#[derive(Debug, Default)]
struct ResidentPool {
    queue: Mutex<VecDeque<(SweepPoint, mpsc::Sender<RunResult>)>>,
    ready: Condvar,
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
    /// Cache probing happens serially up front (it is pure file I/O);
    /// only the misses go to the worker pool. The output is a pure
    /// function of `points` — worker count and scheduling never show.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any simulation.
    pub fn run(&self, points: Vec<SweepPoint>) -> Vec<RunResult> {
        let m = &self.metrics;
        let total_id = m.register("sweep/points_total");
        let hits_id = m.register("sweep/cache_hits");
        let miss_id = m.register("sweep/cache_misses");
        let sim_id = m.register("sweep/simulated");
        m.add(total_id, points.len() as u64);

        let mut slots: Vec<Option<RunResult>> = (0..points.len()).map(|_| None).collect();
        let mut pending: VecDeque<(usize, SweepPoint)> = VecDeque::new();
        for (i, mut p) in points.into_iter().enumerate() {
            if let Some(level) = self.audit {
                p.cfg.audit = level;
            }
            match self.cache.as_ref().and_then(|c| c.load(p.key())) {
                Some(hit) => {
                    m.inc(hits_id);
                    slots[i] = Some(hit);
                }
                None => {
                    m.inc(miss_id);
                    pending.push_back((i, p));
                }
            }
        }

        let workers = self.jobs.min(pending.len());
        if workers > 0 {
            // Register worker gauges serially so metric column order
            // does not depend on thread scheduling.
            let worker_ids: Vec<_> = (0..workers)
                .map(|w| m.register(&format!("sweep/worker-{w}/points")))
                .collect();
            let queue = Mutex::new(pending);
            let (tx, rx) = mpsc::channel::<(usize, RunResult)>();
            thread::scope(|s| {
                for &worker_id in &worker_ids {
                    let tx = tx.clone();
                    let queue = &queue;
                    let metrics = m.clone();
                    let cache = self.cache.as_ref();
                    s.spawn(move || loop {
                        let job = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                        let Some((idx, point)) = job else { break };
                        let key = point.key();
                        let result = point.simulate();
                        if let Some(c) = cache {
                            // Best-effort: an unwritable cache directory
                            // slows reruns down, it does not fail them.
                            let _ = c.store(key, &result);
                        }
                        metrics.inc(sim_id);
                        metrics.inc(worker_id);
                        if tx.send((idx, result)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (idx, result) in rx {
                    slots[idx] = Some(result);
                }
            });
        }

        let seq = self.sweeps_run.fetch_add(1, Ordering::Relaxed);
        m.snapshot(format!("sweep-{seq}"), SimTime::ZERO);
        slots
            .into_iter()
            .map(|s| s.expect("sweep worker died before delivering its result"))
            .collect()
    }

    /// Probes the result cache for `point` without scheduling anything.
    ///
    /// The audit override is applied before the key is computed, exactly
    /// as [`run`](Self::run) and [`submit`](Self::submit) do, so a probe
    /// and a later submit of the same point agree on the key. A hit
    /// counts into `sweep/points_total` and `sweep/cache_hits`; a miss
    /// counts nothing (the caller is expected to `submit`, which does).
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

    /// Schedules one point on the engine's *resident* pool and returns
    /// a ticket for its result.
    ///
    /// Unlike [`run`](Self::run) — which spawns scoped workers for the
    /// duration of one batch — the resident pool's `jobs` workers are
    /// detached daemon threads created on first submit and kept parked
    /// on a condvar between jobs. That is the shape a long-running
    /// server needs: callers submit from many request threads, results
    /// fan back through per-ticket channels, and the pool never has to
    /// be re-warmed. The cache (if configured) is *not* probed here —
    /// callers that want the fast path probe [`cached`](Self::cached)
    /// first — but completed simulations are stored to it.
    pub fn submit(&self, mut point: SweepPoint) -> PointTicket {
        if let Some(level) = self.audit {
            point.cfg.audit = level;
        }
        let m = &self.metrics;
        m.inc(m.register("sweep/points_total"));
        m.inc(m.register("sweep/cache_misses"));
        let pool = self.resident.get_or_init(|| self.spawn_resident_pool());
        let (tx, rx) = mpsc::channel();
        pool.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back((point, tx));
        pool.ready.notify_one();
        PointTicket { rx }
    }

    fn spawn_resident_pool(&self) -> Arc<ResidentPool> {
        let pool = Arc::new(ResidentPool::default());
        let sim_id = self.metrics.register("sweep/simulated");
        for w in 0..self.jobs {
            let worker_id = self
                .metrics
                .register(&format!("sweep/pool-worker-{w}/points"));
            let pool = Arc::clone(&pool);
            let metrics = self.metrics.clone();
            let cache = self.cache.clone();
            // Detached on purpose: the workers live for the rest of the
            // process, parked when idle. Service shutdown drains by
            // waiting on outstanding tickets, not by joining these.
            thread::Builder::new()
                .name(format!("sweep-pool-{w}"))
                .spawn(move || loop {
                    let (point, tx) = {
                        let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            match q.pop_front() {
                                Some(job) => break job,
                                None => q = pool.ready.wait(q).unwrap_or_else(|e| e.into_inner()),
                            }
                        }
                    };
                    let key = point.key();
                    let result = point.simulate();
                    if let Some(c) = &cache {
                        // Best-effort, as in `run`: an unwritable cache
                        // slows reruns down, it does not fail them.
                        let _ = c.store(key, &result);
                    }
                    metrics.inc(sim_id);
                    metrics.inc(worker_id);
                    let _ = tx.send(result);
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

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

static GLOBAL: OnceLock<Sweeper> = OnceLock::new();

/// Installs the process-wide engine (the `repro` harness calls this
/// once from its CLI flags). Returns `false` if an engine was already
/// installed — the existing one keeps running, matching `OnceLock`
/// semantics.
pub fn configure(sweeper: Sweeper) -> bool {
    GLOBAL.set(sweeper).is_ok()
}

/// The process-wide engine `run_matrix` routes through. Defaults to
/// all hardware threads and **no cache** (library users and tests get
/// pure in-memory behaviour unless they opt in via [`configure`]).
pub fn global() -> &'static Sweeper {
    GLOBAL.get_or_init(|| Sweeper::new(default_jobs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_core::design::DesignPoint;
    use ndpb_dram::Geometry;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::with_geometry(Geometry::with_total_ranks(1))
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
    fn submitted_points_match_batch_results() {
        let sw = Sweeper::new(3);
        let batch = fingerprint(&Sweeper::new(1).run(points()));
        let tickets: Vec<_> = points().into_iter().map(|p| sw.submit(p)).collect();
        let got: Vec<String> = tickets.into_iter().map(|t| t.wait().to_json()).collect();
        assert_eq!(got, batch, "resident pool must reproduce batch output");
        let report = sw.metrics().live_report();
        assert_eq!(report.final_value("sweep/simulated"), Some(6));
        assert_eq!(report.final_value("sweep/points_total"), Some(6));
    }

    #[test]
    fn cached_probe_hits_after_submit_and_respects_audit_override() {
        let dir = std::env::temp_dir().join(format!("ndpb-submit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let sw = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let p = SweepPoint::new("ll", Column::Ndp(DesignPoint::C), tiny_cfg(), Scale::Tiny);
        assert!(sw.cached(&p).is_none(), "cold cache misses");
        let live = sw.submit(p.clone()).wait();
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
    fn global_engine_is_installed_once() {
        // Whichever call wins, subsequent configuration is rejected and
        // the instance stays stable.
        let first = global() as *const Sweeper;
        assert!(!configure(Sweeper::new(2)), "global already initialized");
        assert_eq!(first, global() as *const Sweeper);
    }
}
