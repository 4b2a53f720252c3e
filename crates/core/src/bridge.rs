//! The hardware bridges (Figure 4(a)).
//!
//! A level-1 (rank) bridge lives in the DIMM buffer chip: per-child
//! scatter buffers, a backup buffer, an upward mailbox for cross-rank
//! messages, a `dataBorrowed` table, per-child state snapshots and the
//! `toArrive` workload-correction counters. The level-2 bridge (host
//! runtime in the paper's evaluation) keeps per-rank scatter queues and
//! a block→rank `dataBorrowed` table.
//!
//! Bridges here are *data* structures; all timing (bus reservations,
//! bank accesses, event scheduling) is orchestrated by
//! [`crate::system::System`].

use std::collections::VecDeque;

use ndpb_dram::{BlockAddr, RankId, UnitId};
use ndpb_proto::{Mailbox, Message};
use ndpb_sim::{SimRng, SimTime};

use crate::config::{SystemConfig, BRIDGE_MAILBOX_BYTES};
use crate::metadata::LruTable;

/// The bridge's last state snapshot of one child unit. STATE-GATHER
/// also reads `W_finish`, which goes straight into the speed estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildState {
    /// `W_queue`: workload waiting in the child's task queue.
    pub queue_workload: u64,
}

/// On buffer exhaustion the bridge hands the message back to the
/// caller, which must pause gathering and re-park it (Section V-A).
pub type BridgeFull = Message;

/// A level-1 (rank) bridge.
#[derive(Debug)]
pub struct RankBridge {
    /// The rank this bridge serves.
    pub rank: RankId,
    /// Per-child scatter buffers (1 kB each in Table I).
    scatter: Vec<VecDeque<Message>>,
    scatter_bytes: Vec<u64>,
    scatter_cap: u64,
    /// Backup buffer shared across children (64 kB).
    backup: VecDeque<(usize, Message)>,
    backup_bytes: u64,
    backup_cap: u64,
    /// Upward mailbox for messages leaving the rank (128 kB SRAM).
    pub up_mailbox: Mailbox,
    /// Block → receiver unit, for blocks lent *within* this rank.
    pub data_borrowed: LruTable<BlockAddr, UnitId>,
    /// Last gathered state per child (local index).
    pub child_state: Vec<ChildState>,
    /// Workload scheduled toward each child but not yet arrived
    /// (`toArrive`, Section VI-C).
    pub to_arrive: Vec<u64>,
    /// EWMA of execution speed: core cycles per workload unit.
    pub s_exe_cycles_per_wl: f64,
    /// When the last transfer round started (the `I_min` rate limit is
    /// measured start-to-start).
    pub last_round_start: SimTime,
    /// When the last transfer round ended.
    pub last_round_end: SimTime,
    /// Whether a transfer round event is scheduled.
    pub round_scheduled: bool,
    /// Bank position where the next gather phase starts (round-robin
    /// fairness across rounds, so a pause cannot starve late positions).
    pub gather_cursor: u32,
    /// Whether the previous round moved nothing (used to back off
    /// instead of re-running immediately).
    pub last_round_idle: bool,
    /// Deterministic RNG for receiver/giver matching.
    pub rng: SimRng,
}

impl RankBridge {
    /// Creates the bridge for `rank` with `children` child units.
    pub fn new(rank: RankId, children: usize, cfg: &SystemConfig, rng: SimRng) -> Self {
        RankBridge {
            rank,
            scatter: vec![VecDeque::new(); children],
            scatter_bytes: vec![0; children],
            scatter_cap: cfg.scatter_buffer_bytes,
            backup: VecDeque::new(),
            backup_bytes: 0,
            backup_cap: cfg.backup_buffer_bytes,
            up_mailbox: Mailbox::new(BRIDGE_MAILBOX_BYTES),
            data_borrowed: LruTable::new(cfg.bridge_borrowed_entries),
            child_state: vec![ChildState::default(); children],
            to_arrive: vec![0; children],
            s_exe_cycles_per_wl: 0.0,
            last_round_start: SimTime::ZERO,
            last_round_end: SimTime::ZERO,
            round_scheduled: false,
            gather_cursor: 0,
            last_round_idle: false,
            rng,
        }
    }

    /// Number of children.
    pub fn children(&self) -> usize {
        self.scatter.len()
    }

    /// Queues a message for scatter to local child `idx`, spilling to
    /// the backup buffer when the child's scatter buffer is full.
    ///
    /// # Errors
    ///
    /// Returns the message back when the backup buffer is also full; the
    /// caller must pause gathering and re-park it.
    pub fn enqueue_scatter(&mut self, idx: usize, msg: Message) -> Result<(), BridgeFull> {
        let sz = msg.wire_bytes() as u64;
        // New messages may not overtake spilled ones: once anything sits
        // in the backup buffer, later arrivals queue behind it, otherwise
        // a large spilled message (e.g. a data block) can be starved
        // forever by a stream of small messages refilling the buffer.
        let fits = self.scatter_bytes[idx] + sz <= self.scatter_cap
            // An empty buffer always accepts one message even when the
            // message (e.g. a G_xfer-sized block) exceeds the buffer:
            // hardware streams it through in pieces.
            || self.scatter[idx].is_empty();
        if self.backup_bytes == 0 && fits {
            self.scatter_bytes[idx] += sz;
            self.scatter[idx].push_back(msg);
            return Ok(());
        }
        if self.backup_bytes + sz <= self.backup_cap {
            self.backup_bytes += sz;
            self.backup.push_back((idx, msg));
            return Ok(());
        }
        Err(msg)
    }

    /// Moves spilled messages from the backup buffer back into scatter
    /// buffers where room has appeared (run at scatter time).
    pub fn refill_from_backup(&mut self) {
        // Strict FIFO: stop at the first message that does not fit, so a
        // large spilled message keeps its place in line.
        while let Some((idx, msg)) = self.backup.front() {
            let sz = msg.wire_bytes() as u64;
            if self.scatter_bytes[*idx] + sz > self.scatter_cap && !self.scatter[*idx].is_empty() {
                break;
            }
            let (idx, msg) = self.backup.pop_front().expect("front exists");
            self.backup_bytes -= sz;
            self.scatter_bytes[idx] += sz;
            self.scatter[idx].push_back(msg);
        }
    }

    /// Drains up to `budget` bytes of messages destined for child `idx`,
    /// appending them to `out` (a buffer the scatter hot path recycles
    /// across rounds).
    pub fn drain_scatter_into(&mut self, idx: usize, budget: u32, out: &mut Vec<Message>) {
        let mut drained = 0u32;
        while let Some(front) = self.scatter[idx].front() {
            let sz = front.wire_bytes();
            if drained != 0 && drained + sz > budget {
                break;
            }
            drained += sz;
            self.scatter_bytes[idx] -= sz as u64;
            out.push(self.scatter[idx].pop_front().expect("front exists"));
            if drained >= budget {
                break;
            }
        }
    }

    /// Bytes pending for child `idx`.
    pub fn scatter_pending(&self, idx: usize) -> u64 {
        self.scatter_bytes[idx]
    }

    /// Whether any scatter buffer, the backup buffer, or the upward
    /// mailbox holds messages.
    pub fn has_pending_output(&self) -> bool {
        self.scatter_bytes.iter().any(|&b| b > 0)
            || self.backup_bytes > 0
            || !self.up_mailbox.is_empty()
    }

    /// Total bytes in backup.
    pub fn backup_pending(&self) -> u64 {
        self.backup_bytes
    }

    /// Iterates over every message buffered in this bridge — scatter
    /// buffers then backup (the upward mailbox has its own iterator).
    /// For auditing; order is unspecified.
    pub fn buffered_messages(&self) -> impl Iterator<Item = &Message> {
        self.scatter
            .iter()
            .flatten()
            .chain(self.backup.iter().map(|(_, m)| m))
    }

    /// Children whose queue plus in-flight scheduled workload
    /// (`toArrive`, the workload correction) falls below `threshold` —
    /// the load-balancing receivers.
    pub fn idle_children(&self, threshold: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.children()).filter(move |&i| {
            self.child_state[i].queue_workload + self.to_arrive[i] < threshold.max(1)
        })
    }

    /// Children with work to give (queue above `threshold`).
    pub fn busy_children(&self, threshold: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.children()).filter(move |&i| self.child_state[i].queue_workload > threshold)
    }

    /// Updates the execution-speed EWMA from one interval's finished
    /// workload across all children.
    pub fn update_speed_estimate(&mut self, interval_cycles: u64, finished_total: u64) {
        if finished_total == 0 {
            return;
        }
        let sample = interval_cycles as f64 * self.children() as f64 / finished_total as f64;
        self.s_exe_cycles_per_wl = if self.s_exe_cycles_per_wl == 0.0 {
            sample
        } else {
            0.5 * self.s_exe_cycles_per_wl + 0.5 * sample
        };
    }
}

/// The level-2 bridge (host runtime): per-rank scatter queues and the
/// block → rank `dataBorrowed` table.
#[derive(Debug)]
pub struct HostBridge {
    scatter: Vec<VecDeque<Message>>,
    /// Block → rank where the block currently lives (for blocks lent
    /// across ranks).
    pub data_borrowed: LruTable<BlockAddr, RankId>,
    /// Aggregate queue workload per rank from the last state pass.
    pub rank_queue_workload: Vec<u64>,
    /// `toArrive` per rank for cross-rank scheduling.
    pub to_arrive: Vec<u64>,
    /// Whether a host transfer round is scheduled.
    pub round_scheduled: bool,
    /// When the last host round started (rate limiting for polling).
    pub last_round_start: SimTime,
    /// When the last host round ended.
    pub last_round_end: SimTime,
    /// Deterministic RNG for cross-rank matching.
    pub rng: SimRng,
}

impl HostBridge {
    /// Creates the host bridge over `ranks` ranks.
    pub fn new(ranks: usize, cfg: &SystemConfig, rng: SimRng) -> Self {
        HostBridge {
            scatter: vec![VecDeque::new(); ranks],
            data_borrowed: LruTable::new(cfg.bridge_borrowed_entries),
            rank_queue_workload: vec![0; ranks],
            to_arrive: vec![0; ranks],
            round_scheduled: false,
            last_round_start: SimTime::ZERO,
            last_round_end: SimTime::ZERO,
            rng,
        }
    }

    /// Queues a message for delivery down to `rank` (unbounded: host
    /// memory).
    pub fn enqueue_scatter(&mut self, rank: usize, msg: Message) {
        self.scatter[rank].push_back(msg);
    }

    /// Drains every message pending for `rank`, appending them to `out`
    /// (a buffer the host-round hot path recycles).
    pub fn drain_scatter_into(&mut self, rank: usize, out: &mut Vec<Message>) {
        out.extend(self.scatter[rank].drain(..));
    }

    /// Bytes pending for `rank`.
    pub fn scatter_pending(&self, rank: usize) -> u64 {
        self.scatter[rank]
            .iter()
            .map(|m| m.wire_bytes() as u64)
            .sum()
    }

    /// Whether anything is queued for any rank.
    pub fn has_pending(&self) -> bool {
        self.scatter.iter().any(|q| !q.is_empty())
    }

    /// Iterates over every message queued for any rank (auditing).
    pub fn buffered_messages(&self) -> impl Iterator<Item = &Message> {
        self.scatter.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::DataAddr;
    use ndpb_proto::TaskMessage;
    use ndpb_tasks::{Task, TaskArgs, TaskFnId, TaskId, Timestamp};

    fn cfg() -> SystemConfig {
        SystemConfig::table1()
    }

    fn bridge(c: &SystemConfig) -> RankBridge {
        RankBridge::new(RankId(0), 64, c, SimRng::new(1))
    }

    fn msg() -> Message {
        let task = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY);
        Message::Task(TaskMessage::new(TaskId(0), &task), None)
    }

    #[test]
    fn scatter_spills_to_backup_then_pauses() {
        let mut c = cfg();
        c.scatter_buffer_bytes = 32; // one ~20 B message fits
        c.backup_buffer_bytes = 32;
        let mut b = RankBridge::new(RankId(0), 2, &c, SimRng::new(1));
        b.enqueue_scatter(0, msg()).unwrap();
        b.enqueue_scatter(0, msg()).unwrap(); // spills (20+20 > 32)
        assert!(b.backup_pending() > 0);
        // Backup (32 B) already holds 20 B; another 20 B message cannot
        // fit anywhere: the bridge pauses gathering and returns the
        // message to the caller.
        let r = b.enqueue_scatter(0, msg());
        assert_eq!(r, Err(msg()));
    }

    #[test]
    fn refill_moves_backup_after_drain() {
        let mut c = cfg();
        c.scatter_buffer_bytes = 32;
        let mut b = RankBridge::new(RankId(0), 1, &c, SimRng::new(1));
        b.enqueue_scatter(0, msg()).unwrap();
        b.enqueue_scatter(0, msg()).unwrap(); // backup
        let mut drained = Vec::new();
        b.drain_scatter_into(0, 1024, &mut drained);
        assert_eq!(drained.len(), 1);
        b.refill_from_backup();
        assert_eq!(b.backup_pending(), 0);
        assert!(b.scatter_pending(0) > 0);
    }

    #[test]
    fn drain_respects_budget() {
        let c = cfg();
        let mut b = bridge(&c);
        for _ in 0..5 {
            b.enqueue_scatter(3, msg()).unwrap();
        }
        let one = msg().wire_bytes();
        let mut got = Vec::new();
        b.drain_scatter_into(3, 2 * one, &mut got);
        assert_eq!(got.len(), 2);
        b.drain_scatter_into(3, u32::MAX, &mut got);
        assert_eq!(got.len(), 5, "appends after the first drain");
        assert_eq!(b.scatter_pending(3), 0);
    }

    #[test]
    fn idle_and_busy_classification() {
        let c = cfg();
        let mut b = bridge(&c);
        b.child_state[0].queue_workload = 0;
        b.child_state[1].queue_workload = 100;
        // Nothing in flight: unit 0 is idle below threshold 10.
        assert!(b.idle_children(10).any(|i| i == 0));
        // The workload correction: 50 in-flight workload disqualifies it.
        b.to_arrive[0] = 50;
        assert!(!b.idle_children(10).any(|i| i == 0));
        assert!(b.busy_children(10).any(|i| i == 1));
        assert!(!b.busy_children(10).any(|i| i == 0));
    }

    #[test]
    fn speed_estimate_converges() {
        let c = cfg();
        let mut b = bridge(&c);
        b.update_speed_estimate(2000, 0); // ignored
        assert_eq!(b.s_exe_cycles_per_wl, 0.0);
        b.update_speed_estimate(2000, 64 * 2000); // 1 cycle per wl unit
        assert!((b.s_exe_cycles_per_wl - 1.0).abs() < 1e-9);
        b.update_speed_estimate(2000, 64 * 1000); // 2 cycles per wl
        assert!(b.s_exe_cycles_per_wl > 1.0 && b.s_exe_cycles_per_wl < 2.0);
    }

    #[test]
    fn host_bridge_scatter_round_trip() {
        let c = cfg();
        let mut h = HostBridge::new(8, &c, SimRng::new(2));
        assert!(!h.has_pending());
        h.enqueue_scatter(5, msg());
        assert!(h.has_pending());
        assert!(h.scatter_pending(5) > 0);
        let mut got = Vec::new();
        h.drain_scatter_into(5, &mut got);
        assert_eq!(got.len(), 1);
        assert!(!h.has_pending());
    }

    #[test]
    fn pending_output_detection() {
        let c = cfg();
        let mut b = bridge(&c);
        assert!(!b.has_pending_output());
        b.enqueue_scatter(0, msg()).unwrap();
        assert!(b.has_pending_output());
        b.drain_scatter_into(0, u32::MAX, &mut Vec::new());
        assert!(!b.has_pending_output());
        assert!(b.up_mailbox.try_push(msg()).is_none());
        assert!(b.has_pending_output());
    }
}
