//! Per-run results, matching the metrics the paper's figures report.

use ndpb_dram::EnergyBreakdown;
use ndpb_sim::SimTime;
use ndpb_trace::{MetricsReport, TraceRecord};

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Application name.
    pub app: String,
    /// Design point label (C/B/W/O/H/R/…).
    pub design: String,
    /// Overall execution time — the slowest unit / makespan (the
    /// figures' "maximum" bar).
    pub makespan: SimTime,
    /// Mean of per-unit execution (busy) times (the "average" mark).
    pub avg_unit_time: SimTime,
    /// Maximum per-unit busy time.
    pub max_unit_time: SimTime,
    /// Fraction of the makespan the slowest unit spent *not* executing
    /// tasks — the paper's "wait time" share.
    pub wait_fraction: f64,
    /// `avg_unit_time / makespan`: the load-balance quality metric
    /// (22.4% for B, 47.0% for W, 59.0% for O in the paper).
    pub balance: f64,
    /// Total tasks executed.
    pub tasks_executed: u64,
    /// Tasks that had to be re-routed because their block migrated.
    pub tasks_rerouted: u64,
    /// Cross-unit messages delivered.
    pub messages_delivered: u64,
    /// Bytes moved over intra-rank buses.
    pub rank_bus_bytes: u64,
    /// Bytes moved over the DDR channels.
    pub channel_bytes: u64,
    /// DRAM bytes accessed for communication (mailbox + scatter +
    /// borrowed-region traffic).
    pub comm_dram_bytes: u64,
    /// DRAM bytes accessed for local task data.
    pub local_dram_bytes: u64,
    /// Load-balancing rounds initiated across all bridges.
    pub lb_rounds: u64,
    /// Blocks migrated by load balancing.
    pub blocks_migrated: u64,
    /// Energy breakdown (Figure 13).
    pub energy: EnergyBreakdown,
    /// Application-level checksum for cross-design result validation.
    pub checksum: u64,
    /// Events processed by the simulator (diagnostic).
    pub events: u64,
    /// Per-unit busy time in ticks (index = unit id); the raw data
    /// behind `avg_unit_time`/`max_unit_time`, for histograms.
    pub per_unit_busy: Vec<u64>,
    /// Hierarchical metrics with per-epoch snapshots (serialize with
    /// [`MetricsReport::to_json`]).
    pub metrics: MetricsReport,
    /// Trace events captured during the run; empty unless a sink was
    /// attached (see `System::set_trace`). Serialize with
    /// `ndpb_trace::write_chrome_trace`.
    pub trace: Vec<TraceRecord>,
    /// Event-loop phase profile; `None` unless the run was started with
    /// profiling enabled (`System::set_profile` / `HostOnly::set_profile`,
    /// surfaced as `repro bench --profile`). *Not* serialized by
    /// [`to_json`](Self::to_json): wall-clock attribution must stay
    /// invisible to goldens and the result cache.
    pub profile: Option<ProfileStats>,
}

/// How a profiled run's wall-clock time splits across event-loop
/// phases, plus the same-tick batch-length histogram that makes the
/// batched-dispatch win attributable (DESIGN.md §3c).
///
/// Timings come from `Instant` reads bracketing each phase of the
/// event loop, so enabling the profile adds two clock reads per
/// *batch* (not per event) — cheap, but still a measurement: profiled
/// passes are kept out of bench timing medians.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileStats {
    /// Nanoseconds spent popping runs out of the event queue (head
    /// scans, bitmap walks, bucket drains).
    pub queue_ns: u64,
    /// Nanoseconds spent inside event handlers (task execution, message
    /// routing, load balancing — everything `dispatch` does).
    pub dispatch_ns: u64,
    /// Nanoseconds spent finalizing: draining per-unit counters into
    /// the metrics report and building the [`RunResult`].
    pub finalize_ns: u64,
    /// Same-tick runs handed back by `pop_run` (= pop calls).
    pub batches: u64,
    /// Events dispatched (sum of batch lengths).
    pub events: u64,
    /// Batch-length histogram: runs of length 1, 2, 3–4, 5–8, 9–16,
    /// 17–32, 33–64, 65+.
    pub run_len_hist: [u64; 8],
}

impl ProfileStats {
    /// Upper edge labels for [`run_len_hist`](Self::run_len_hist).
    pub const RUN_LEN_LABELS: [&'static str; 8] =
        ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"];

    /// Records one same-tick run of `n` events.
    #[inline]
    pub fn note_batch(&mut self, n: usize) {
        self.batches += 1;
        self.events += n as u64;
        let bucket = match n {
            0..=1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            17..=32 => 5,
            33..=64 => 6,
            _ => 7,
        };
        self.run_len_hist[bucket] += 1;
    }

    /// Mean events per pop (`1.0` means batching never fused anything).
    pub fn events_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.events as f64 / self.batches as f64
    }

    /// Folds another profile into this one (for aggregating across
    /// runs of a bench pass).
    pub fn merge(&mut self, other: &ProfileStats) {
        self.queue_ns += other.queue_ns;
        self.dispatch_ns += other.dispatch_ns;
        self.finalize_ns += other.finalize_ns;
        self.batches += other.batches;
        self.events += other.events;
        for (a, b) in self.run_len_hist.iter_mut().zip(other.run_len_hist) {
            *a += b;
        }
    }

    /// The phase split as a JSON object (embedded in BENCH_repro.json's
    /// `"profile"` section — never in golden result JSON).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.run_len_hist.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"queue_ns\":{},\"dispatch_ns\":{},\"finalize_ns\":{},",
                "\"batches\":{},\"events\":{},\"events_per_batch\":{:.3},",
                "\"run_len_hist\":[{}]}}"
            ),
            self.queue_ns,
            self.dispatch_ns,
            self.finalize_ns,
            self.batches,
            self.events,
            self.events_per_batch(),
            hist.join(","),
        )
    }
}

impl RunResult {
    /// A 10-bucket histogram of per-unit busy time as fractions of the
    /// makespan (bucket 0 = nearly idle units, bucket 9 = saturated).
    pub fn busy_histogram(&self) -> [u64; 10] {
        let mut h = [0u64; 10];
        let span = self.makespan.ticks().max(1);
        for &b in &self.per_unit_busy {
            let frac = b as f64 / span as f64;
            let idx = ((frac * 10.0) as usize).min(9);
            h[idx] += 1;
        }
        h
    }

    /// Gini coefficient of per-unit busy time: 0 = perfectly balanced,
    /// → 1 = one unit does everything. A scalar imbalance measure
    /// complementing `balance`.
    pub fn busy_gini(&self) -> f64 {
        let mut v: Vec<u64> = self.per_unit_busy.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let n = v.len() as f64;
        let total: f64 = v.iter().map(|&x| x as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = v
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }

    /// Speedup of this run relative to `baseline` (by makespan): > 1
    /// means this run is faster.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        if self.makespan == SimTime::ZERO {
            return f64::INFINITY;
        }
        baseline.makespan.ticks() as f64 / self.makespan.ticks() as f64
    }

    /// Energy reduction relative to `baseline` in `[0, 1)`; negative if
    /// this run uses more energy.
    pub fn energy_reduction_vs(&self, baseline: &RunResult) -> f64 {
        let b = baseline.energy.total_pj();
        if b == 0.0 {
            return 0.0;
        }
        1.0 - self.energy.total_pj() / b
    }

    /// Serializes the result as a self-contained JSON object (used by
    /// the `repro --json` harness output; hand-rolled to keep the
    /// dependency set minimal).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"app\":\"{}\",\"design\":\"{}\",\"makespan_ticks\":{},",
                "\"avg_unit_ticks\":{},\"max_unit_ticks\":{},\"wait_fraction\":{:.6},",
                "\"balance\":{:.6},\"tasks_executed\":{},\"tasks_rerouted\":{},",
                "\"messages_delivered\":{},\"rank_bus_bytes\":{},\"channel_bytes\":{},",
                "\"comm_dram_bytes\":{},\"local_dram_bytes\":{},\"lb_rounds\":{},",
                "\"blocks_migrated\":{},\"energy_pj\":{{\"core_sram\":{:.1},",
                "\"dram_local\":{:.1},\"dram_comm\":{:.1},\"static\":{:.1}}},",
                "\"checksum\":{},\"events\":{},\"busy_gini\":{:.6}}}"
            ),
            self.app,
            self.design,
            self.makespan.ticks(),
            self.avg_unit_time.ticks(),
            self.max_unit_time.ticks(),
            self.wait_fraction,
            self.balance,
            self.tasks_executed,
            self.tasks_rerouted,
            self.messages_delivered,
            self.rank_bus_bytes,
            self.channel_bytes,
            self.comm_dram_bytes,
            self.local_dram_bytes,
            self.lb_rounds,
            self.blocks_migrated,
            self.energy.core_sram_pj,
            self.energy.dram_local_pj,
            self.energy.dram_comm_pj,
            self.energy.static_pj,
            self.checksum,
            self.events,
            self.busy_gini(),
        )
    }

    /// One fixed-width table row (used by the `repro` harness).
    pub fn row(&self) -> String {
        format!(
            "{:<6} {:<7} makespan={:>12.1}us avg={:>10.1}us balance={:>5.1}% wait={:>5.1}% tasks={:<9} msgs={:<9} chan={:>8}KB rank={:>8}KB energy={:>10.1}uJ",
            self.app,
            self.design,
            self.makespan.as_ns() / 1000.0,
            self.avg_unit_time.as_ns() / 1000.0,
            self.balance * 100.0,
            self.wait_fraction * 100.0,
            self.tasks_executed,
            self.messages_delivered,
            self.channel_bytes / 1024,
            self.rank_bus_bytes / 1024,
            self.energy.total_pj() / 1e6,
        )
    }
}

/// Geometric mean of a set of ratios (the paper averages speedups
/// across applications geometrically).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(makespan_ticks: u64, energy: f64) -> RunResult {
        RunResult {
            app: "test".into(),
            design: "O".into(),
            makespan: SimTime::from_ticks(makespan_ticks),
            avg_unit_time: SimTime::from_ticks(makespan_ticks / 2),
            max_unit_time: SimTime::from_ticks(makespan_ticks),
            wait_fraction: 0.1,
            balance: 0.5,
            tasks_executed: 100,
            tasks_rerouted: 0,
            messages_delivered: 10,
            rank_bus_bytes: 1024,
            channel_bytes: 2048,
            comm_dram_bytes: 0,
            local_dram_bytes: 0,
            lb_rounds: 0,
            blocks_migrated: 0,
            energy: EnergyBreakdown {
                core_sram_pj: energy,
                ..EnergyBreakdown::default()
            },
            checksum: 7,
            events: 1,
            per_unit_busy: vec![makespan_ticks, makespan_ticks / 2],
            metrics: MetricsReport::default(),
            trace: Vec::new(),
            profile: None,
        }
    }

    #[test]
    fn speedup_is_ratio_of_makespans() {
        let fast = result(100, 1.0);
        let slow = result(300, 1.0);
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_reduction() {
        let low = result(1, 40.0);
        let high = result(1, 100.0);
        assert!((low.energy_reduction_vs(&high) - 0.6).abs() < 1e-12);
        assert!(high.energy_reduction_vs(&low) < 0.0);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn histogram_buckets_units() {
        let r = result(100, 1.0);
        let h = r.busy_histogram();
        assert_eq!(h.iter().sum::<u64>(), 2);
        assert_eq!(h[9], 1, "the saturated unit lands in the top bucket");
        assert_eq!(h[5], 1, "the half-busy unit lands mid-histogram");
    }

    #[test]
    fn gini_bounds() {
        let mut r = result(100, 1.0);
        assert!(r.busy_gini() >= 0.0 && r.busy_gini() < 1.0);
        // Perfect balance: gini 0.
        r.per_unit_busy = vec![50; 8];
        assert!(r.busy_gini().abs() < 1e-9);
        // Extreme imbalance: gini near 1.
        r.per_unit_busy = vec![0, 0, 0, 0, 0, 0, 0, 1000];
        assert!(r.busy_gini() > 0.8);
    }

    #[test]
    fn row_is_one_line() {
        let r = result(240, 5.0);
        let row = r.row();
        assert!(!row.contains('\n'));
        assert!(row.contains("makespan"));
    }

    #[test]
    fn profile_histogram_buckets_and_merge() {
        let mut p = ProfileStats::default();
        for n in [1usize, 2, 4, 8, 16, 32, 64, 65, 4096] {
            p.note_batch(n);
        }
        assert_eq!(p.run_len_hist, [1, 1, 1, 1, 1, 1, 1, 2]);
        assert_eq!(p.batches, 9);
        assert_eq!(p.events, 1 + 2 + 4 + 8 + 16 + 32 + 64 + 65 + 4096);
        let mut q = ProfileStats {
            queue_ns: 5,
            dispatch_ns: 7,
            ..ProfileStats::default()
        };
        q.merge(&p);
        assert_eq!(q.batches, 9);
        assert_eq!(q.queue_ns, 5);
        let j = q.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"run_len_hist\":[1,1,1,1,1,1,1,2]"));
        assert!(j.contains("\"queue_ns\":5"));
    }

    #[test]
    fn profile_stays_out_of_result_json() {
        let mut r = result(240, 5.0);
        let plain = r.to_json();
        r.profile = Some(ProfileStats::default());
        assert_eq!(r.to_json(), plain, "profile must be invisible to goldens");
    }

    #[test]
    fn json_is_well_formed() {
        let r = result(240, 5.0);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"app\":\"test\""));
        assert!(j.contains("\"makespan_ticks\":240"));
        assert!(j.contains("\"energy_pj\""));
        assert!(!j.contains('\n'));
    }
}
