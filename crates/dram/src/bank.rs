//! Per-bank DRAM state machine and access arbitration.
//!
//! In NDPBridge every DRAM access — from the local NDP core, from the
//! level-1 bridge's forged GATHER/SCATTER commands, and (in the baselines)
//! from the host — is coordinated *at the bank* by the access arbiter
//! (Section V-A, following [15]). We model that by serializing all access
//! requests through this per-bank structure: a request issued at `now`
//! starts at `max(now, busy_until)` and the bank tracks its open row to
//! price hits, closed-bank activations and row conflicts.

use ndpb_sim::SimTime;

use crate::timing::DramTiming;

/// The timing outcome of one bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// When the bank actually started serving the request.
    pub start: SimTime,
    /// When the data burst completed (request latency = `end - issue`).
    pub end: SimTime,
    /// Whether a row activation was needed (energy-relevant).
    pub activated: bool,
}

/// One DRAM bank: open-row state and serialization point.
///
/// # Example
///
/// ```
/// use ndpb_dram::{BankModel, DramTiming};
/// use ndpb_sim::SimTime;
/// let t = DramTiming::ddr4_2400();
/// let mut bank = BankModel::new();
/// let a = bank.access(SimTime::ZERO, 7, 64, false, &t);
/// let b = bank.access(SimTime::ZERO, 7, 64, false, &t);
/// assert!(b.start >= a.end); // serialized
/// assert!(!b.activated);     // row hit
/// ```
#[derive(Debug, Clone, Default)]
pub struct BankModel {
    open_row: Option<u64>,
    busy_until: SimTime,
    last_was_write: bool,
}

impl BankModel {
    /// A bank with all rows closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// When the bank becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Issues an access of `bytes` bytes to `row` at time `now`; returns
    /// its service window. The access is appended after any in-flight
    /// access (this *is* the access arbiter: core, bridge and host
    /// requests all call here and are served in arrival order).
    pub fn access(
        &mut self,
        now: SimTime,
        row: u64,
        bytes: u32,
        write: bool,
        timing: &DramTiming,
    ) -> BankAccess {
        let mut start = now.max(self.busy_until);
        // Write-to-read turnaround penalty on direction switch.
        if self.last_was_write && !write {
            start += timing.t_wtr;
        }
        let (latency, activated) = match self.open_row {
            Some(r) if r == row => (timing.row_hit(bytes), false),
            Some(_) => (timing.row_conflict(bytes), true),
            None => (timing.row_closed(bytes), true),
        };
        let end = start + latency;
        self.open_row = Some(row);
        self.busy_until = end;
        self.last_was_write = write;
        BankAccess {
            start,
            end,
            activated,
        }
    }

    /// Precharges the bank (closes the open row); used when RowClone
    /// transfers reset row state.
    pub fn precharge(&mut self) {
        self.open_row = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr4_2400()
    }

    #[test]
    fn first_access_activates() {
        let mut b = BankModel::new();
        let a = b.access(SimTime::ZERO, 3, 64, false, &t());
        assert!(a.activated);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, t().row_closed(64));
    }

    #[test]
    fn row_hit_is_cheaper() {
        let mut b = BankModel::new();
        let first = b.access(SimTime::ZERO, 3, 64, false, &t());
        let hit = b.access(first.end, 3, 64, false, &t());
        assert!(!hit.activated);
        assert_eq!(hit.end - hit.start, t().row_hit(64));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut b = BankModel::new();
        let first = b.access(SimTime::ZERO, 3, 64, false, &t());
        let conflict = b.access(first.end, 9, 64, false, &t());
        assert!(conflict.activated);
        assert_eq!(conflict.end - conflict.start, t().row_conflict(64));
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn concurrent_requests_serialize() {
        let mut b = BankModel::new();
        let a = b.access(SimTime::ZERO, 1, 64, false, &t());
        let c = b.access(SimTime::ZERO, 1, 64, false, &t());
        assert_eq!(c.start, a.end);
        assert!(b.busy_until() >= c.end - SimTime::from_ticks(1));
    }

    #[test]
    fn write_read_turnaround_charged() {
        let mut b = BankModel::new();
        let w = b.access(SimTime::ZERO, 1, 64, true, &t());
        let r = b.access(w.end, 1, 64, false, &t());
        assert_eq!(r.start, w.end + t().t_wtr);
        // Read then read: no penalty.
        let r2 = b.access(r.end, 1, 64, false, &t());
        assert_eq!(r2.start, r.end);
    }

    #[test]
    fn precharge_closes_row() {
        let mut b = BankModel::new();
        b.access(SimTime::ZERO, 5, 64, false, &t());
        b.precharge();
        assert_eq!(b.open_row(), None);
    }
}
