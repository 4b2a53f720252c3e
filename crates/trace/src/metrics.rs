//! Hierarchical metrics registry with per-epoch snapshotting.
//!
//! A counter a run reports through its metrics lives here only.
//! Components register named counters once (names are `/`-separated
//! paths like `bridge/bytes_gathered`), update them by [`MetricId`]
//! (an index — no hashing on the hot path), and the system snapshots
//! the whole table at every epoch barrier, yielding a time series
//! instead of a single end-of-run total.

use ndpb_sim::SimTime;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Cheap handle to a registered metric: an index into the registry's
/// value table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// A named table of `u64` counters/gauges plus the snapshots taken so
/// far.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    names: Vec<String>,
    values: Vec<u64>,
    snapshots: Vec<MetricsSnapshot>,
}

/// The value table captured at one instant (values are absolute, not
/// deltas — consumers diff adjacent snapshots for rates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Why the snapshot was taken (e.g. `epoch-3`, `final`).
    pub label: String,
    /// Simulated time of the capture, in ticks.
    pub at_ticks: u64,
    /// One value per registered metric, in registration order.
    pub values: Vec<u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a metric by its `/`-separated path and
    /// return its id. Registering the same path twice returns the same
    /// id, so independent components can share a counter.
    pub fn register(&mut self, path: &str) -> MetricId {
        if let Some(i) = self.names.iter().position(|n| n == path) {
            return MetricId(i);
        }
        self.names.push(path.to_string());
        self.values.push(0);
        MetricId(self.names.len() - 1)
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        self.values[id.0] += delta;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: MetricId) {
        self.values[id.0] += 1;
    }

    /// Overwrite a gauge.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: u64) {
        self.values[id.0] = value;
    }

    /// Current value.
    pub fn get(&self, id: MetricId) -> u64 {
        self.values[id.0]
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Capture the current value table as a labelled snapshot.
    pub fn snapshot(&mut self, label: impl Into<String>, at: SimTime) {
        self.snapshots.push(MetricsSnapshot {
            label: label.into(),
            at_ticks: at.ticks(),
            values: self.values.clone(),
        });
    }

    /// Consume the registry into an immutable report for `RunResult`.
    pub fn into_report(self) -> MetricsReport {
        MetricsReport {
            names: self.names,
            snapshots: self.snapshots,
        }
    }
}

/// A [`MetricsRegistry`] shareable across threads.
///
/// Simulations stay single-threaded and keep their registry by value,
/// but the *sweep engine* runs many simulations concurrently and its
/// workers all report into one table (per-worker progress gauges, cache
/// hit/miss counters). A mutex — not atomics — keeps the full registry
/// API (registration, snapshots) available; sweep-level updates happen
/// per *simulation*, not per event, so contention is negligible.
///
/// Cloning is shallow: clones observe and update the same table.
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl SharedMetrics {
    /// A fresh, empty shared registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        // A poisoned lock means a worker panicked mid-update; counters
        // are plain u64s, so the table is still coherent to read.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register (or look up) a metric path. See
    /// [`MetricsRegistry::register`].
    pub fn register(&self, path: &str) -> MetricId {
        self.lock().register(path)
    }

    /// Add `delta` to a counter.
    pub fn add(&self, id: MetricId, delta: u64) {
        self.lock().add(id, delta);
    }

    /// Increment a counter by one.
    pub fn inc(&self, id: MetricId) {
        self.lock().inc(id);
    }

    /// Overwrite a gauge.
    pub fn set(&self, id: MetricId, value: u64) {
        self.lock().set(id, value);
    }

    /// Current value of a counter.
    pub fn get(&self, id: MetricId) -> u64 {
        self.lock().get(id)
    }

    /// Capture the current table as a labelled snapshot.
    pub fn snapshot(&self, label: impl Into<String>, at: SimTime) {
        self.lock().snapshot(label, at);
    }

    /// A frozen copy of the current state (names + snapshots so far);
    /// the live registry keeps accumulating.
    pub fn report(&self) -> MetricsReport {
        let g = self.lock();
        MetricsReport {
            names: g.names.clone(),
            snapshots: g.snapshots.clone(),
        }
    }

    /// Like [`report`](Self::report), but with the *current* value
    /// table appended as a trailing pseudo-snapshot labelled `live`.
    /// The live registry is not mutated — repeated calls do not grow
    /// its snapshot list the way calling [`snapshot`](Self::snapshot)
    /// before every report would. This is what a long-running service's
    /// metrics endpoint wants: `final_value` on the returned report
    /// always reflects the instant of the call.
    pub fn live_report(&self) -> MetricsReport {
        let g = self.lock();
        let mut snapshots = g.snapshots.clone();
        snapshots.push(MetricsSnapshot {
            label: "live".to_string(),
            at_ticks: 0,
            values: g.values.clone(),
        });
        MetricsReport {
            names: g.names.clone(),
            snapshots,
        }
    }
}

/// Frozen output of a [`MetricsRegistry`]: the metric names plus every
/// snapshot taken during the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Metric paths, in registration order (column headers).
    pub names: Vec<String>,
    /// Snapshots in capture order (rows).
    pub snapshots: Vec<MetricsSnapshot>,
}

impl MetricsReport {
    /// Value of `name` in the snapshot with `label`, if both exist.
    pub fn value(&self, label: &str, name: &str) -> Option<u64> {
        let col = self.names.iter().position(|n| n == name)?;
        let snap = self.snapshots.iter().find(|s| s.label == label)?;
        snap.values.get(col).copied()
    }

    /// Value of `name` in the last snapshot, if present.
    pub fn final_value(&self, name: &str) -> Option<u64> {
        let col = self.names.iter().position(|n| n == name)?;
        self.snapshots.last()?.values.get(col).copied()
    }

    /// Metric names under a `/`-separated prefix (hierarchical query).
    pub fn names_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.names.iter().map(String::as_str).filter(move |n| {
            n.strip_prefix(prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }

    /// Hand-rolled JSON document:
    /// `{"metrics":[...names],"snapshots":[{"label":..,"t_ticks":..,"values":[..]},..]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"metrics\":[");
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", escape(n));
        }
        s.push_str("],\"snapshots\":[");
        for (i, snap) in self.snapshots.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"label\":\"{}\",\"t_ticks\":{},\"values\":[",
                escape(&snap.label),
                snap.at_ticks
            );
            for (j, v) in snap.values.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

fn escape(s: &str) -> String {
    // Metric paths and labels are generated in-repo from ASCII literals;
    // escape the two characters that could still break the document.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.register("bridge/bytes_gathered");
        let b = m.register("bridge/bytes_gathered");
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn counters_and_snapshots() {
        let mut m = MetricsRegistry::new();
        let a = m.register("system/comm_dram_bytes");
        let b = m.register("system/msgs_delivered");
        m.add(a, 100);
        m.inc(b);
        m.snapshot("epoch-0", SimTime::from_ticks(10));
        m.add(a, 50);
        m.set(b, 7);
        m.snapshot("final", SimTime::from_ticks(20));
        assert_eq!(m.get(a), 150);

        let r = m.into_report();
        assert_eq!(r.value("epoch-0", "system/comm_dram_bytes"), Some(100));
        assert_eq!(r.value("final", "system/comm_dram_bytes"), Some(150));
        assert_eq!(r.value("final", "system/msgs_delivered"), Some(7));
        assert_eq!(r.final_value("system/msgs_delivered"), Some(7));
        assert_eq!(r.value("nope", "system/msgs_delivered"), None);
        assert_eq!(r.value("final", "nope"), None);
    }

    #[test]
    fn hierarchical_prefix_query() {
        let mut m = MetricsRegistry::new();
        m.register("bridge/bytes_gathered");
        m.register("bridge/bytes_scattered");
        m.register("bridgex/other");
        m.register("system/epoch");
        let r = m.into_report();
        let under: Vec<&str> = r.names_under("bridge").collect();
        assert_eq!(
            under,
            vec!["bridge/bytes_gathered", "bridge/bytes_scattered"]
        );
    }

    #[test]
    fn json_shape() {
        let mut m = MetricsRegistry::new();
        let a = m.register("a/b");
        m.add(a, 3);
        m.snapshot("epoch-1", SimTime::from_ticks(42));
        let j = m.into_report().to_json();
        assert_eq!(
            j,
            "{\"metrics\":[\"a/b\"],\"snapshots\":[{\"label\":\"epoch-1\",\"t_ticks\":42,\"values\":[3]}]}"
        );
    }

    #[test]
    fn empty_report_is_valid_json() {
        let j = MetricsReport::default().to_json();
        assert_eq!(j, "{\"metrics\":[],\"snapshots\":[]}");
    }

    #[test]
    fn shared_metrics_accumulate_across_clones_and_threads() {
        let shared = SharedMetrics::new();
        let hits = shared.register("sweep/cache_hits");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.inc(hits);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.get(hits), 400);
        shared.snapshot("final", SimTime::ZERO);
        let r = shared.report();
        assert_eq!(r.final_value("sweep/cache_hits"), Some(400));
        // The live registry keeps going after a report.
        shared.add(hits, 1);
        assert_eq!(shared.get(hits), 401);
        assert_eq!(r.final_value("sweep/cache_hits"), Some(400));
    }

    #[test]
    fn live_report_reflects_now_without_mutating_the_registry() {
        let shared = SharedMetrics::new();
        let hits = shared.register("serve/cache_hits");
        shared.add(hits, 3);
        let live = shared.live_report();
        assert_eq!(live.final_value("serve/cache_hits"), Some(3));
        assert_eq!(live.snapshots.last().unwrap().label, "live");

        // No snapshot was recorded; a plain report is still empty, and
        // a second live report sees the newer value with the same shape.
        assert!(shared.report().snapshots.is_empty());
        shared.inc(hits);
        let again = shared.live_report();
        assert_eq!(again.final_value("serve/cache_hits"), Some(4));
        assert_eq!(again.snapshots.len(), 1);
    }
}
