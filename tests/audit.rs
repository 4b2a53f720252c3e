//! End-to-end conservation audit over the golden-run reference
//! configuration: every design column, the host-only baseline H
//! included, fully audited, at two worker counts.
//!
//! The auditor (`ndpbridge::core::audit`) runs inside the one run loop
//! that `System::run` and `HostOnly::run` share. It re-derives each
//! model's conservation laws from independent state after the event
//! batch that clears each epoch barrier and at end of run:
//!
//! * messages emitted = delivered + in-flight across every hop
//!   (unit mailboxes, bridge buffers, host buffers, and the
//!   `Deliver`/`LinkDeliver` events read from the event queue);
//! * `toArrive` counters at both bridge and host level equal the
//!   scanned in-flight scheduled workload;
//! * the two-level inclusive `dataBorrowed` tables mirror the `isLent`
//!   bitmaps exactly (no orphans, no stale entries, rank ⊆ host);
//! * the per-cause traffic ledger sums to the system byte totals;
//! * in both models, the task arena holds exactly the outstanding
//!   tasks, and bus busy time never exceeds wall time;
//! * in H, every outstanding task sits in the ready queue, a parked
//!   epoch list or a running worker's completion, and every worker is
//!   idle or runs one task of the open epoch.
//!
//! A single violated law panics the simulation with the full violation
//! list, so these tests assert zero violations simply by completing.
//! Unit tests prove the same machinery *does* trip on deliberately
//! corrupted state (see `audit_trips_on_*` in
//! `crates/core/src/system.rs` and `crates/core/src/hostonly.rs`), so a
//! green run here is meaningful.

use ndpbridge::bench::{Column, SweepPoint, Sweeper};
use ndpbridge::core::audit::AuditLevel;
use ndpbridge::core::config::SystemConfig;
use ndpbridge::core::design::DesignPoint;
use ndpbridge::core::RunResult;
use ndpbridge::dram::Geometry;
use ndpbridge::workloads::Scale;

/// The golden-run reference configuration (2 ranks, seed 11) with the
/// auditor forced to `Full` — explicit, so the checks run in release
/// builds too (where the config default is `Off`).
fn audited_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
    cfg.seed = 11;
    cfg.audit = AuditLevel::Full;
    cfg
}

const APP: &str = "tree";

fn columns() -> [Column; 10] {
    [
        Column::Ndp(DesignPoint::C),
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::O),
        Column::Host,
        Column::Ndp(DesignPoint::R),
        // Gather-aware variants: steals can be rate-limited, deferred
        // past the byte budget, or forwarded task-only — the ledger
        // and toArrive conservation laws must hold through all of it.
        Column::Ndp(DesignPoint::WByte),
        Column::Ndp(DesignPoint::WLent),
        Column::Ndp(DesignPoint::WGather),
        Column::Ndp(DesignPoint::OGather),
    ]
}

fn run_audited(jobs: usize) -> Vec<RunResult> {
    let points = columns()
        .iter()
        .map(|&col| SweepPoint::new(APP, col, audited_cfg(), Scale::Tiny))
        .collect();
    Sweeper::new(jobs).run(points)
}

#[test]
fn all_designs_pass_full_audit_at_jobs_1_and_8() {
    // Any conservation violation panics inside the worker and the
    // sweeper propagates it, so reaching the comparisons below means
    // every epoch of every design audited clean at both worker counts.
    let serial = run_audited(1);
    let parallel = run_audited(8);
    for ((col, a), b) in columns().iter().zip(&serial).zip(&parallel) {
        assert!(a.tasks_executed > 0, "{}: no work done", col.label());
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{}: audited results must not depend on worker count",
            col.label()
        );
    }
}

#[test]
fn audit_level_does_not_change_results() {
    // The auditor is purely observational: a `Full` sweep and an `Off`
    // sweep must be bit-identical, field for field.
    let audited = run_audited(2);
    let plain_points = columns()
        .iter()
        .map(|&col| {
            let mut cfg = audited_cfg();
            cfg.audit = AuditLevel::Off;
            SweepPoint::new(APP, col, cfg, Scale::Tiny)
        })
        .collect();
    let plain = Sweeper::new(2).run(plain_points);
    for ((col, a), p) in columns().iter().zip(&audited).zip(&plain) {
        assert_eq!(a.makespan, p.makespan, "{}: makespan drift", col.label());
        assert_eq!(a.checksum, p.checksum, "{}: checksum drift", col.label());
        assert_eq!(a.events, p.events, "{}: event-count drift", col.label());
        assert_eq!(
            a.comm_dram_bytes,
            p.comm_dram_bytes,
            "{}: traffic drift",
            col.label()
        );
    }
}

#[test]
fn ledger_rows_sum_to_system_totals_for_every_design() {
    // The same identity the auditor enforces at every epoch, re-checked
    // here from the outside against the final metrics report — the
    // ledger is the public interface, so pin it publicly too.
    const COMM_ROWS: [&str; 10] = [
        "ledger/comm/taskq",
        "ledger/comm/rowclone",
        "ledger/comm/mail_task",
        "ledger/comm/mail_sched",
        "ledger/comm/mail_data",
        "ledger/comm/mail_return",
        "ledger/comm/gather",
        "ledger/comm/scatter",
        "ledger/comm/host_gather",
        "ledger/comm/host_scatter",
    ];
    for r in run_audited(4) {
        if r.design == "H" {
            continue; // the host-only baseline has no ledger metrics
        }
        let total: u64 = COMM_ROWS
            .iter()
            .filter_map(|n| r.metrics.final_value(n))
            .sum();
        assert_eq!(
            total, r.comm_dram_bytes,
            "{}/{}: ledger rows must sum to comm_dram_bytes",
            r.app, r.design
        );
    }
}
