//! Conservation auditing for the simulated system.
//!
//! The auditor is an always-compiled, opt-in invariant engine. The one
//! run loop (`crate::driver`) runs every scan, for both models: with
//! [`AuditLevel::Full`] the model re-derives its conservation laws from
//! component state at every epoch boundary (and at end-of-run);
//! [`AuditLevel::Final`] checks only at end-of-run; [`AuditLevel::Off`]
//! skips the scans entirely. The checks are purely observational — they
//! read component state and the pending events but never touch the RNG,
//! the event order, or any counter the simulation consumes — so results
//! are bit-identical across levels.
//!
//! A scan runs only between event batches, never inside a handler: the
//! rest of a handler's batch has left the queue but is not yet
//! delivered, so no scan could see it. The epoch audit therefore runs
//! after the batch in which the barrier cleared, under that epoch's
//! `epoch-N` label.
//!
//! Both models check (the two functions below):
//!
//! - **Task conservation** — the task arena holds exactly the tasks the
//!   epoch tracker counts as outstanding, so no slot leaks and no live
//!   task lost its slot.
//! - **Bus sanity** — accumulated busy time never exceeds the horizon a
//!   bus or channel has been driven to.
//!
//! The NDP system adds (see `System::collect_violations`):
//!
//! - **Message conservation** — every message ever emitted is either
//!   delivered or still identifiable in flight: in unit mailboxes and
//!   pending-out buffers, bridge scatter/backup/up-mailbox buffers, host
//!   scatter buffers, or the `Deliver`/`LinkDeliver` events pending in
//!   the event queue, which the scan reads through `EventQueue::iter`.
//! - **`dataBorrowed` inclusivity** — a borrowed block at a unit has a
//!   matching rank-bridge entry, the rank entry is covered by a host
//!   entry when the block crossed ranks, the home unit's `isLent` bit is
//!   set, and no lent block is orphaned (unreachable through the tables
//!   and not in flight).
//! - **`toArrive` balance** — each bridge's correction counters equal
//!   the workload of scheduled tasks still in flight toward each child.
//! - **Ledger totals** — per-cause traffic ledger entries sum exactly to
//!   the system byte totals.
//!
//! The host-only baseline adds **host queues**: every outstanding task
//! is ready, parked for a later epoch, running, or a running task's
//! child, and every worker is idle or runs one task of the open epoch.

use ndpb_dram::Bus;

use crate::arena::TaskArena;
use crate::epoch::EpochTracker;

/// How much auditing a run performs. Part of
/// [`SystemConfig`](crate::config::SystemConfig); the default is
/// [`Full`](AuditLevel::Full) in debug builds (so `cargo test` audits
/// every run) and [`Off`](AuditLevel::Off) in release builds (opt back
/// in with `repro --audit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditLevel {
    /// No invariant scans.
    Off,
    /// One scan at end-of-run.
    Final,
    /// A scan at every epoch boundary plus end-of-run.
    Full,
}

impl Default for AuditLevel {
    fn default() -> Self {
        if cfg!(debug_assertions) {
            AuditLevel::Full
        } else {
            AuditLevel::Off
        }
    }
}

impl AuditLevel {
    /// Whether epoch-boundary scans run.
    pub fn at_epochs(self) -> bool {
        self == AuditLevel::Full
    }

    /// Whether the end-of-run scan runs.
    pub fn at_end(self) -> bool {
        self >= AuditLevel::Final
    }
}

/// One violated conservation law, as reported by the system auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The law that failed (a stable short name, e.g.
    /// `"message-conservation"`).
    pub law: &'static str,
    /// Human-readable specifics: which component, which block, the
    /// numbers on both sides of the failed equation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.law, self.detail)
    }
}

/// Task conservation: the arena holds exactly the tasks the epoch
/// tracker counts as outstanding (spawned, not yet finished).
pub(crate) fn check_tasks(v: &mut Vec<Violation>, tasks: &TaskArena, epochs: &EpochTracker) {
    let live = tasks.live() as u64;
    let outstanding = epochs.total_outstanding();
    if live != outstanding {
        v.push(Violation {
            law: "task-conservation",
            detail: format!("{live} live arena slots != {outstanding} outstanding tasks"),
        });
    }
}

/// Bus sanity: no bus's accumulated busy time exceeds the horizon it
/// has been driven to.
pub(crate) fn check_buses(v: &mut Vec<Violation>, name: &str, buses: &[Bus]) {
    for (i, b) in buses.iter().enumerate() {
        if b.busy > b.free_at() {
            v.push(Violation {
                law: "bus-sanity",
                detail: format!(
                    "{name} {i}: busy {:?} exceeds horizon {:?}",
                    b.busy,
                    b.free_at()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tracks_build_profile() {
        let d = AuditLevel::default();
        if cfg!(debug_assertions) {
            assert_eq!(d, AuditLevel::Full);
        } else {
            assert_eq!(d, AuditLevel::Off);
        }
    }

    #[test]
    fn level_gates() {
        assert!(!AuditLevel::Off.at_end());
        assert!(!AuditLevel::Off.at_epochs());
        assert!(AuditLevel::Final.at_end());
        assert!(!AuditLevel::Final.at_epochs());
        assert!(AuditLevel::Full.at_end());
        assert!(AuditLevel::Full.at_epochs());
    }

    #[test]
    fn violation_displays_law_and_detail() {
        let v = Violation {
            law: "data-borrowed-inclusivity",
            detail: "block 7 at unit 3 has no bridge entry".to_string(),
        };
        let s = v.to_string();
        assert!(
            s.contains("data-borrowed-inclusivity") && s.contains("block 7"),
            "{s}"
        );
    }
}
