//! Reproduction harness: run design points over applications and
//! aggregate the numbers each table/figure of the paper reports.
//!
//! The `repro` binary (`src/bin/repro.rs`) exposes one subcommand per
//! table/figure; the `Instant`-based benches under `benches/` (see
//! [`timing`]) reuse the same entry points at reduced scale.
//!
//! All multi-point work routes through a [`Sweeper`]: one resident
//! worker pool with deterministic result merging and an optional
//! content-addressed on-disk [`cache`] keyed by
//! `SystemConfig::fingerprint`, so a warm `repro all` rerun simulates
//! nothing. There is no process-wide engine: the caller builds the
//! `Sweeper` and hands it to [`run_matrix`], which runs a whole figure
//! (apps × configurations × columns) as one sweep. [`json`] holds the
//! matching reader for the workspace's hand-rolled JSON writers.

pub mod cache;
pub mod json;
pub mod sweep;
pub mod timing;

pub use sweep::{SweepPoint, Sweeper};

use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_core::hostonly::{HostOnly, HostOnlyConfig};
use ndpb_core::result::{geomean, RunResult};
use ndpb_core::System;
use ndpb_workloads::{build_app, Scale};

/// Runs one (application, design) pair under `cfg`: builds the
/// workload for `cfg`'s geometry and seed at `scale`, then runs it to
/// completion on a [`System`].
pub fn run_one(app_name: &str, design: DesignPoint, cfg: SystemConfig, scale: Scale) -> RunResult {
    let app = build_app(app_name, &cfg.geometry, scale, cfg.seed);
    System::new(cfg, design, app).run()
}

/// [`run_one`] with tracing: attaches a [`ndpb_trace::RingRecorder`] of
/// `capacity` records, so `RunResult::trace` comes back populated. If
/// the ring overflows the most recent records win, and
/// `RunResult::trace_dropped` counts the evicted ones.
pub fn run_traced(
    app_name: &str,
    design: DesignPoint,
    cfg: SystemConfig,
    scale: Scale,
    capacity: usize,
) -> RunResult {
    let app = build_app(app_name, &cfg.geometry, scale, cfg.seed);
    let mut sys = System::new(cfg, design, app);
    sys.set_trace(ndpb_trace::RingRecorder::new(capacity));
    sys.run()
}

/// Runs the host-only baseline **H** for one application.
pub fn run_host(app_name: &str, cfg: SystemConfig, scale: Scale) -> RunResult {
    let app = build_app(app_name, &cfg.geometry, scale, cfg.seed);
    HostOnly::new(cfg, HostOnlyConfig::paper(), app).run()
}

/// Runs one column with the event-loop phase profiler armed, so
/// `RunResult::profile` comes back populated (`repro bench --profile`).
/// Profiled runs bypass the sweep cache — the point is the wall-clock
/// attribution, not the result — and take the serial path; the result
/// bytes are identical to an unprofiled run.
pub fn run_profiled(app_name: &str, column: Column, cfg: SystemConfig, scale: Scale) -> RunResult {
    match column {
        Column::Ndp(design) => {
            let app = build_app(app_name, &cfg.geometry, scale, cfg.seed);
            let mut sys = System::new(cfg, design, app);
            sys.set_profile();
            sys.run()
        }
        Column::Host => {
            let app = build_app(app_name, &cfg.geometry, scale, cfg.seed);
            let mut host = HostOnly::new(cfg, HostOnlyConfig::paper(), app);
            host.set_profile();
            host.run()
        }
    }
}

/// A labelled design column: either an NDP design point or the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// A simulated NDP design.
    Ndp(DesignPoint),
    /// The host-only baseline.
    Host,
}

impl Column {
    /// Display label.
    pub fn label(self) -> String {
        match self {
            Column::Ndp(d) => d.to_string(),
            Column::Host => "H".to_string(),
        }
    }
}

/// Runs `apps × cfgs × columns` at `scale` as one sweep on `sweeper`
/// and returns results in `[app][config * columns.len() + column]`
/// order: each app's row holds its columns under the first
/// configuration, then under the second, and so on.
///
/// Output is identical for any worker count: each simulation is
/// single-threaded and deterministic, and the engine merges by point
/// index.
pub fn run_matrix(
    sweeper: &Sweeper,
    apps: &[&str],
    cfgs: &[SystemConfig],
    columns: &[Column],
    scale: Scale,
) -> Vec<Vec<RunResult>> {
    let points: Vec<SweepPoint> = apps
        .iter()
        .flat_map(|&app| {
            cfgs.iter().flat_map(move |cfg| {
                columns
                    .iter()
                    .map(move |&col| SweepPoint::new(app, col, cfg.clone(), scale))
            })
        })
        .collect();
    let row = cfgs.len() * columns.len();
    let mut flat = sweeper.run(points).into_iter();
    apps.iter()
        .map(|_| flat.by_ref().take(row).collect())
        .collect()
}

/// Geometric mean of `f(row)` over the rows (apps) of a [`run_matrix`]
/// result.
pub fn matrix_geomean(matrix: &[Vec<RunResult>], f: impl Fn(&[RunResult]) -> f64) -> f64 {
    geomean(&matrix.iter().map(|row| f(row)).collect::<Vec<_>>())
}

/// Geometric-mean speedup of row entry `target` over row entry
/// `baseline` across all rows of a [`run_matrix`] result.
pub fn matrix_geomean_speedup(matrix: &[Vec<RunResult>], target: usize, baseline: usize) -> f64 {
    matrix_geomean(matrix, |row| row[target].speedup_over(&row[baseline]))
}

/// Formats a speedup table (rows = apps, columns relative to the first
/// column's makespan).
pub fn format_speedup_table(
    apps: &[&str],
    columns: &[Column],
    matrix: &[Vec<RunResult>],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<8}", "app"));
    for c in columns {
        out.push_str(&format!("{:>10}", c.label()));
    }
    out.push('\n');
    for (i, &app) in apps.iter().enumerate() {
        out.push_str(&format!("{app:<8}"));
        for j in 0..columns.len() {
            let s = matrix[i][j].speedup_over(&matrix[i][0]);
            out.push_str(&format!("{s:>9.2}x"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<8}", "geomean"));
    for j in 0..columns.len() {
        out.push_str(&format!("{:>9.2}x", matrix_geomean_speedup(matrix, j, 0)));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::Geometry;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::with_geometry(Geometry::with_total_ranks(1))
    }

    #[test]
    fn run_one_produces_work() {
        let r = run_one("ll", DesignPoint::B, tiny_cfg(), Scale::Tiny);
        assert!(r.tasks_executed > 0);
        assert_eq!(r.design, "B");
        assert_eq!(r.app, "ll");
    }

    #[test]
    fn capped_trace_counts_the_records_it_dropped() {
        let run = |cap| run_traced("ll", DesignPoint::O, tiny_cfg(), Scale::Tiny, cap);
        let full = run(1 << 22);
        assert_eq!(full.trace_dropped, 0);
        let cap = full.trace.len() / 3;
        let capped = run(cap);
        assert_eq!(capped.trace.len(), cap);
        assert_eq!(
            capped.trace.len() as u64 + capped.trace_dropped,
            full.trace.len() as u64
        );
        // The ring keeps the run's most recent records.
        assert_eq!(capped.trace[..], full.trace[full.trace.len() - cap..]);
    }

    #[test]
    fn run_host_produces_work() {
        let r = run_host("spmv", tiny_cfg(), Scale::Tiny);
        assert!(r.tasks_executed > 0);
        assert_eq!(r.design, "H");
    }

    #[test]
    fn matrix_shape_and_tables() {
        let apps = ["ll", "spmv"];
        let cols = [Column::Ndp(DesignPoint::C), Column::Ndp(DesignPoint::B)];
        let m = run_matrix(&Sweeper::new(2), &apps, &[tiny_cfg()], &cols, Scale::Tiny);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        let table = format_speedup_table(&apps, &cols, &m);
        assert!(table.contains("geomean"));
        assert!(table.contains("ll"));
        let g = matrix_geomean_speedup(&m, 1, 0);
        assert!(g > 0.0);
    }
}
