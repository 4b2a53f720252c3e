//! The NDP unit: one DRAM bank plus its wimpy core, unit controller
//! state, task queues and load-balancing structures (Figure 4(b)).

use std::collections::VecDeque;

use ndpb_dram::{AddressMap, BankModel, BlockAddr, UnitId};
use ndpb_proto::{Mailbox, Message, MAX_MESSAGE_BYTES};
use ndpb_sim::{SimRng, SimTime};
use ndpb_sketch::{HotSketch, ReservedQueue};
use ndpb_tasks::{TaskId, Timestamp};

use crate::arena::TaskArena;
use crate::config::SystemConfig;
use crate::fasthash::{FastMap, FastSet};
use crate::metadata::LentBitmap;
use crate::steal;

/// A selection made by the gather-cost-aware steal path
/// ([`NdpUnit::choose_scheduled_out_aware`]): a scheduled block plus
/// where it must go. `pinned_recv = Some(holder)` marks a *task-only*
/// forward — the block already lives at `holder`, so no data message
/// travels and the block stays marked lent to its current holder.
#[derive(Debug, Clone)]
pub struct AwarePick {
    /// The chosen block and its departing tasks.
    pub sb: ScheduledBlock,
    /// Mandatory receiver for task-only forwards; `None` lets the
    /// bridge assign one round-robin (a normal block move).
    pub pinned_recv: Option<UnitId>,
}

/// A block chosen by a giver for lending, with the tasks that leave
/// alongside it (step ② of Figure 6).
#[derive(Debug, Clone)]
pub struct ScheduledBlock {
    /// The lent block (original address).
    pub block: BlockAddr,
    /// Tasks migrating with the block.
    pub tasks: Vec<TaskId>,
    /// Their cumulative workload.
    pub workload: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Borrow {
    last_use: u64,
    pins: u64,
}

/// How far ahead [`NdpUnit::release_epoch`] prefetches the tasks it
/// releases.
const RELEASE_PREFETCH: usize = 4;

/// One NDP unit. Its queues hold [`TaskId`]s; every method that reads
/// a task's fields takes the system's [`TaskArena`].
#[derive(Debug)]
pub struct NdpUnit {
    /// Unit identity.
    pub id: UnitId,
    /// The unit's DRAM bank (also the access-arbitration point).
    pub bank: BankModel,
    /// Outgoing-message ring buffer in local DRAM.
    pub mailbox: Mailbox,
    /// Messages the core produced while the mailbox was full; the core
    /// stalls until these drain (Section V-A).
    pub pending_out: VecDeque<Message>,
    /// Lent-block bitmap (home blocks currently elsewhere).
    pub is_lent: LentBitmap,
    /// Core busy time: task execution including its DRAM waits.
    pub busy: SimTime,
    /// When the core last finished executing a task.
    pub last_finish: SimTime,
    /// When the core next becomes free.
    pub core_free_at: SimTime,
    /// Whether a core wake event is already scheduled.
    pub wake_scheduled: bool,

    task_queue: VecDeque<TaskId>,
    /// Parked tasks of later epochs: `future[i]` holds epoch
    /// `future_base + i`. Released lists keep their buffers in
    /// `future_spare` for a later epoch.
    future: VecDeque<Vec<TaskId>>,
    future_base: u32,
    future_spare: Vec<Vec<TaskId>>,
    pending_workload: u64,
    sketch: HotSketch,
    reserved: ReservedQueue<TaskId>,
    borrowed: crate::fasthash::FastMap<BlockAddr, Borrow>,
    borrow_clock: u64,
    borrow_capacity: usize,
    finished_workload: u64,
    rng: SimRng,
}

impl NdpUnit {
    /// Creates a unit per the system configuration.
    pub fn new(id: UnitId, cfg: &SystemConfig, rng: SimRng) -> Self {
        NdpUnit {
            id,
            bank: BankModel::new(),
            mailbox: Mailbox::new(cfg.mailbox_bytes),
            pending_out: VecDeque::new(),
            is_lent: LentBitmap::new(),
            busy: SimTime::ZERO,
            last_finish: SimTime::ZERO,
            core_free_at: SimTime::ZERO,
            wake_scheduled: false,
            task_queue: VecDeque::new(),
            future: VecDeque::new(),
            future_base: 0,
            future_spare: Vec::new(),
            pending_workload: 0,
            sketch: HotSketch::new(cfg.sketch.clone()),
            reserved: ReservedQueue::new(cfg.reserved_chunks, cfg.reserved_tasks_per_chunk),
            borrowed: Default::default(),
            borrow_clock: 0,
            borrow_capacity: cfg.borrowed_capacity_blocks(),
            finished_workload: 0,
            rng,
        }
    }

    // ---- task queue -----------------------------------------------------

    /// Whether this unit currently holds the data block (home-and-not-
    /// lent, or borrowed).
    pub fn holds_block(&self, block: BlockAddr, map: &AddressMap) -> bool {
        if map.block_home(block) == self.id {
            !self.is_lent.is_lent(block)
        } else {
            self.borrowed.contains_key(&block)
        }
    }

    /// Enqueues a task that is ready to execute (its epoch is open).
    /// With `hot_tracking` the task may be parked in the reserved queue
    /// behind the sketch.
    pub fn enqueue_ready(
        &mut self,
        id: TaskId,
        tasks: &TaskArena,
        hot_tracking: bool,
        map: &AddressMap,
    ) {
        let task = tasks.get(id);
        let wl = task.workload_or_default();
        let block = map.block_of(task.data);
        // Pin accounting only matters while borrows exist; skip the map
        // probe on the (overwhelmingly common) borrow-free fast path.
        if !self.borrowed.is_empty() {
            if let Some(b) = self.borrowed.get_mut(&block) {
                b.pins += 1;
            }
        }
        self.pending_workload += wl;
        if hot_tracking && self.holds_block(block, map) {
            self.sketch.record(block.0, wl, &mut self.rng);
            if self.sketch.get(block.0).is_some() {
                if let Err(id) = self.reserved.reserve(block.0, id) {
                    self.task_queue.push_back(id);
                }
                return;
            }
        }
        self.task_queue.push_back(id);
    }

    /// Parks a task of epoch `ts`, which has not opened yet. Epochs
    /// open in order and every unit releases each one
    /// ([`release_epoch`](Self::release_epoch)), so `ts` is never an
    /// epoch already released here.
    pub fn enqueue_future(&mut self, id: TaskId, ts: Timestamp) {
        let i =
            ts.0.checked_sub(self.future_base)
                .expect("parked a task of an epoch already released") as usize;
        if i >= self.future.len() {
            let spare = &mut self.future_spare;
            self.future
                .resize_with(i + 1, || spare.pop().unwrap_or_default());
        }
        self.future[i].push(id);
    }

    /// Releases parked tasks of `epoch` into the ready queue, in the
    /// order they were parked; returns how many were released.
    pub fn release_epoch(
        &mut self,
        epoch: Timestamp,
        tasks: &TaskArena,
        hot_tracking: bool,
        map: &AddressMap,
    ) -> usize {
        let mut released = 0;
        while self.future_base <= epoch.0 {
            let Some(mut list) = self.future.pop_front() else {
                self.future_base = epoch.0 + 1;
                break;
            };
            if self.future_base == epoch.0 {
                released = list.len();
                for (i, &id) in list.iter().enumerate() {
                    if let Some(&ahead) = list.get(i + RELEASE_PREFETCH) {
                        tasks.prefetch(ahead);
                    }
                    self.enqueue_ready(id, tasks, hot_tracking, map);
                }
            }
            debug_assert!(self.future_base == epoch.0 || list.is_empty());
            list.clear();
            self.future_spare.push(list);
            self.future_base += 1;
        }
        released
    }

    /// Pops the next ready task, refilling the ready queue from the
    /// reserved queue when needed. Releases the task's borrow pin.
    pub fn pop_task(&mut self, tasks: &TaskArena, map: &AddressMap) -> Option<TaskId> {
        loop {
            if let Some(id) = self.task_queue.pop_front() {
                // This unit's next pop reads the new front.
                if let Some(&next) = self.task_queue.front() {
                    tasks.prefetch(next);
                }
                let t = tasks.get(id);
                self.pending_workload -= t.workload_or_default();
                if !self.borrowed.is_empty() {
                    let block = map.block_of(t.data);
                    if let Some(b) = self.borrowed.get_mut(&block) {
                        b.pins = b.pins.saturating_sub(1);
                    }
                }
                return Some(id);
            }
            if self.reserved.is_empty() {
                return None;
            }
            // Refill: pull the hottest reserved list back into the ready
            // queue (they are local work when no scheduling claims them).
            if let Some((key, _)) = self.sketch.pop_hottest() {
                self.reserved.take_into(key, &mut self.task_queue);
            } else {
                self.reserved.drain_all_into(&mut self.task_queue);
            }
        }
    }

    /// Workload waiting to execute (`W_queue`): ready queue plus
    /// reserved tasks.
    pub fn queue_workload(&self) -> u64 {
        self.pending_workload
    }

    /// Number of ready + reserved tasks.
    pub fn queued_tasks(&self) -> usize {
        self.task_queue.len() + self.reserved.total_tasks()
    }

    /// Lifetime `(hits, overflows)` of the reserved queue: tasks parked
    /// behind the sketch vs. bounced to the ready queue on pool
    /// exhaustion (reported by the metrics registry).
    pub fn reserved_stats(&self) -> (u64, u64) {
        (self.reserved.hits(), self.reserved.overflows())
    }

    /// Reserved-queue occupancy high-water marks `(chunks, tasks)` —
    /// the buffer-sizing figures the metrics registry reports.
    pub fn reserved_peaks(&self) -> (usize, usize) {
        (self.reserved.peak_chunks(), self.reserved.peak_tasks())
    }

    /// Number of parked future-epoch tasks.
    pub fn future_tasks(&self) -> usize {
        self.future.iter().map(Vec::len).sum()
    }

    /// Records `wl` workload as finished (for `W_finish`).
    pub fn add_finished(&mut self, wl: u64) {
        self.finished_workload += wl;
    }

    /// Reads and resets `W_finish` (the state gather consumes it).
    pub fn take_finished(&mut self) -> u64 {
        std::mem::take(&mut self.finished_workload)
    }

    // ---- borrowed data region -------------------------------------------

    /// Whether `block` is currently borrowed here.
    pub fn is_borrowed(&self, block: BlockAddr) -> bool {
        self.borrowed.contains_key(&block)
    }

    /// Admits a borrowed block into the borrowed data region + table.
    /// Returns a block to evict (return home) if capacity was exceeded
    /// and an unpinned victim existed.
    pub fn admit_borrow(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        self.borrow_clock += 1;
        self.borrowed.insert(
            block,
            Borrow {
                last_use: self.borrow_clock,
                pins: 0,
            },
        );
        if self.borrowed.len() <= self.borrow_capacity {
            return None;
        }
        let victim = self
            .borrowed
            .iter()
            .filter(|(k, b)| **k != block && b.pins == 0)
            .min_by_key(|(_, b)| b.last_use)
            .map(|(k, _)| *k);
        // With every candidate pinned by queued tasks the region runs
        // over its nominal capacity until a pin releases.
        if let Some(v) = victim {
            self.borrowed.remove(&v);
        }
        victim
    }

    /// Removes a borrowed block (it is being returned home).
    pub fn remove_borrow(&mut self, block: BlockAddr) -> bool {
        self.borrowed.remove(&block).is_some()
    }

    /// Number of blocks currently borrowed.
    pub fn borrowed_count(&self) -> usize {
        self.borrowed.len()
    }

    /// Iterates over the borrowed blocks in unspecified order (auditing).
    pub fn borrowed_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.borrowed.keys().copied()
    }

    /// Marks a borrowed block as recently used.
    pub fn touch_borrow(&mut self, block: BlockAddr) {
        self.borrow_clock += 1;
        if let Some(b) = self.borrowed.get_mut(&block) {
            b.last_use = self.borrow_clock;
        }
    }

    // ---- giver-side selection (step ② of Figure 6) -----------------------

    /// Chooses blocks + tasks worth `budget` workload to lend out.
    /// With `hot_first`, hot sketch entries are preferred; the task
    /// queue tail is the fallback (and the only source otherwise).
    /// Chosen home blocks are marked lent immediately.
    pub fn choose_scheduled_out(
        &mut self,
        budget: u64,
        hot_first: bool,
        tasks: &TaskArena,
        map: &AddressMap,
    ) -> Vec<ScheduledBlock> {
        let mut out = Vec::new();
        let mut remaining = budget;
        if hot_first {
            while remaining > 0 {
                let Some((key, _)) = self.sketch.pop_hottest() else {
                    break;
                };
                let block = BlockAddr(key);
                let mut ids = Vec::new();
                self.reserved.take_into(key, &mut ids);
                if ids.is_empty() {
                    continue;
                }
                if !self.lendable(block, map) {
                    // Keep the tasks local.
                    self.task_queue.extend(ids);
                    continue;
                }
                let wl = workload_of(&ids, tasks);
                self.is_lent.set(block);
                self.pending_workload -= wl;
                remaining = remaining.saturating_sub(wl);
                out.push(ScheduledBlock {
                    block,
                    tasks: ids,
                    workload: wl,
                });
            }
        }
        if remaining > 0 {
            out.extend(self.choose_from_tail(remaining, tasks, map));
        }
        out
    }

    fn lendable(&self, block: BlockAddr, map: &AddressMap) -> bool {
        map.block_home(block) == self.id && !self.is_lent.is_lent(block)
    }

    /// Tail-of-queue selection (traditional work stealing): walk the
    /// ready queue from the back, grouping tasks by block, until
    /// `budget` workload is gathered.
    fn choose_from_tail(
        &mut self,
        budget: u64,
        tasks: &TaskArena,
        map: &AddressMap,
    ) -> Vec<ScheduledBlock> {
        let mut groups: Vec<(BlockAddr, Vec<TaskId>, u64)> = Vec::new();
        let mut collected = 0u64;
        // Walk back from the tail until the budget is met. Whether a
        // block is lendable cannot change during the walk, so tasks of
        // other blocks are passed over and every examined task of a
        // lendable block is picked.
        let mut stop = self.task_queue.len();
        while collected < budget && stop > 0 {
            stop -= 1;
            let id = self.task_queue[stop];
            let task = tasks.get(id);
            let block = map.block_of(task.data);
            if !self.lendable(block, map) {
                continue;
            }
            let wl = task.workload_or_default();
            collected += wl;
            match groups.iter_mut().find(|(b, _, _)| *b == block) {
                Some((_, ids, gwl)) => {
                    ids.push(id);
                    *gwl += wl;
                }
                None => groups.push((block, vec![id], wl)),
            }
        }
        // Close the picked tasks' gaps in the examined tail; the passed
        // over ones keep their order behind the untouched front.
        let mut kept = stop;
        for i in stop..self.task_queue.len() {
            let id = self.task_queue[i];
            if !self.lendable(map.block_of(tasks.get(id).data), map) {
                self.task_queue[kept] = id;
                kept += 1;
            }
        }
        self.task_queue.truncate(kept);
        let mut out = Vec::new();
        for (block, mut ids, wl) in groups {
            ids.reverse(); // restore original queue order
            self.is_lent.set(block);
            self.pending_workload -= wl;
            out.push(ScheduledBlock {
                block,
                tasks: ids,
                workload: wl,
            });
        }
        out
    }

    /// Distinct home blocks that are currently lent out but still have
    /// tasks queued here. Such tasks would be rerouted to the holder
    /// one-by-one on pop anyway; the gather-aware steal path forwards
    /// them eagerly (task-only, no data transfer) when the holder is
    /// one of the round's receivers.
    pub fn queued_lent_home_blocks(&self, tasks: &TaskArena, map: &AddressMap) -> Vec<BlockAddr> {
        let mut seen = FastSet::default();
        let mut out = Vec::new();
        for &id in &self.task_queue {
            let block = map.block_of(tasks.get(id).data);
            if map.block_home(block) == self.id
                && self.is_lent.is_lent(block)
                && seen.insert(block.0)
            {
                out.push(block);
            }
        }
        out
    }

    /// Gather-cost-aware giver-side selection (`LbPolicy::byte_budget`
    /// / `prefer_lent`): like [`choose_scheduled_out`], but every pick
    /// is charged its wire bytes against `byte_budget`, candidates that
    /// cannot amortize their own transfer (`amortize`, see
    /// [`steal::AmortizeCfg`]) are skipped outright, and tasks whose
    /// blocks are already lent out (the `lent_to` map, block address →
    /// holder) are forwarded task-only, pinned to that holder.
    /// Candidates are ranked by [`crate::steal`]'s preference order;
    /// over-budget candidates are deferred to a later round.
    ///
    /// [`choose_scheduled_out`]: Self::choose_scheduled_out
    #[allow(clippy::too_many_arguments)]
    pub fn choose_scheduled_out_aware(
        &mut self,
        budget: u64,
        byte_budget: u64,
        hot_first: bool,
        lent_to: &FastMap<u64, UnitId>,
        data_wire_bytes: u64,
        amortize: Option<steal::AmortizeCfg>,
        tasks: &TaskArena,
        map: &AddressMap,
    ) -> Vec<AwarePick> {
        let mut out = Vec::new();
        let mut wl_left = budget;
        let mut bytes_left = byte_budget;
        // Hot pre-phase: same source as the non-aware path (sketch +
        // reserved queue), but each block is charged data + task wire
        // bytes. The first unaffordable hot block is deferred back to
        // the ready queue and ends the phase.
        if hot_first {
            while wl_left > 0 {
                let Some((key, _)) = self.sketch.pop_hottest() else {
                    break;
                };
                let block = BlockAddr(key);
                let mut ids = Vec::new();
                self.reserved.take_into(key, &mut ids);
                if ids.is_empty() {
                    continue;
                }
                if !self.lendable(block, map) {
                    self.task_queue.extend(ids);
                    continue;
                }
                let cost = data_wire_bytes + task_wire_bytes(&ids, tasks);
                if cost > bytes_left {
                    self.task_queue.extend(ids);
                    break;
                }
                let wl = workload_of(&ids, tasks);
                self.is_lent.set(block);
                self.pending_workload -= wl;
                wl_left = wl_left.saturating_sub(wl);
                bytes_left -= cost;
                out.push(AwarePick {
                    sb: ScheduledBlock {
                        block,
                        tasks: ids,
                        workload: wl,
                    },
                    pinned_recv: None,
                });
            }
        }
        if wl_left == 0 {
            return out;
        }
        // Candidate scan: group the ready queue by block (back-to-front,
        // matching steal-half's tail preference — earlier-scanned groups
        // win planner ties). Tasks for blocks lent elsewhere (holder not
        // receiving this round) or borrowed here stay put for the
        // ordinary reroute path.
        let mut cands: Vec<steal::StealCandidate> = Vec::new();
        let mut idx_of: FastMap<u64, usize> = FastMap::default();
        for &id in self.task_queue.iter().rev() {
            let task = tasks.get(id);
            let block = map.block_of(task.data);
            let task_only = lent_to.contains_key(&block.0);
            if !task_only && !self.lendable(block, map) {
                continue;
            }
            let tb = u64::from(task.wire_bytes().min(MAX_MESSAGE_BYTES));
            let wl = task.workload_or_default();
            match idx_of.get(&block.0) {
                Some(&i) => {
                    cands[i].workload += wl;
                    cands[i].task_bytes += tb;
                }
                None => {
                    idx_of.insert(block.0, cands.len());
                    cands.push(steal::StealCandidate {
                        key: block.0,
                        workload: wl,
                        task_bytes: tb,
                        data_bytes: if task_only { 0 } else { data_wire_bytes },
                        hot: self.sketch.get(block.0).is_some(),
                    });
                }
            }
        }
        // Payoff filter: a block move whose queued workload cannot hide
        // its own wire bytes is not worth making at any budget — the
        // receiver would stall longer than the stolen work runs.
        if let Some(am) = amortize {
            cands.retain(|c| am.pays(c));
        }
        let picked = steal::plan_steal(&cands, wl_left, bytes_left);
        if picked.is_empty() {
            return out;
        }
        // Extract the picked blocks' tasks in one front-to-back pass
        // (preserves queue order within each group and for the rest).
        let planned_start = out.len();
        let mut slot_of: FastMap<u64, usize> = FastMap::default();
        for i in picked {
            let block = BlockAddr(cands[i].key);
            slot_of.insert(block.0, out.len());
            out.push(AwarePick {
                sb: ScheduledBlock {
                    block,
                    tasks: Vec::new(),
                    workload: 0,
                },
                pinned_recv: lent_to.get(&block.0).copied(),
            });
        }
        let mut remaining: VecDeque<TaskId> = VecDeque::with_capacity(self.task_queue.len());
        for id in self.task_queue.drain(..) {
            let task = tasks.get(id);
            match slot_of.get(&map.block_of(task.data).0) {
                Some(&si) => {
                    let sb = &mut out[si].sb;
                    sb.workload += task.workload_or_default();
                    sb.tasks.push(id);
                }
                None => remaining.push_back(id),
            }
        }
        self.task_queue = remaining;
        for pick in &out[planned_start..] {
            self.pending_workload -= pick.sb.workload;
            if pick.pinned_recv.is_none() {
                self.is_lent.set(pick.sb.block);
            }
        }
        out
    }
}

/// Wire bytes of a batch of task descriptors, as they would be mailed.
fn task_wire_bytes(ids: &[TaskId], tasks: &TaskArena) -> u64 {
    ids.iter()
        .map(|&id| u64::from(tasks.get(id).wire_bytes().min(MAX_MESSAGE_BYTES)))
        .sum()
}

/// Cumulative workload of a batch of tasks.
fn workload_of(ids: &[TaskId], tasks: &TaskArena) -> u64 {
    ids.iter()
        .map(|&id| tasks.get(id).workload_or_default())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_tasks::{Task, TaskArgs, TaskFnId};

    fn cfg() -> SystemConfig {
        SystemConfig::table1()
    }

    fn map(c: &SystemConfig) -> AddressMap {
        AddressMap::new(&c.geometry, c.g_xfer, c.timing.row_bytes)
    }

    fn unit(c: &SystemConfig, id: u32) -> NdpUnit {
        NdpUnit::new(UnitId(id), c, SimRng::new(id as u64))
    }

    fn task_at(m: &AddressMap, u: u32, offset: u64, wl: u32) -> Task {
        Task::new(
            TaskFnId(0),
            Timestamp(0),
            m.addr_in_unit(UnitId(u), offset),
            wl,
            TaskArgs::EMPTY,
        )
    }

    /// Stores a ready task for unit `u`'s block at `offset` and enqueues
    /// it at `unit`.
    fn enqueue(
        unit: &mut NdpUnit,
        a: &mut TaskArena,
        m: &AddressMap,
        u: u32,
        offset: u64,
        wl: u32,
        hot: bool,
    ) {
        let id = a.insert(task_at(m, u, offset, wl));
        unit.enqueue_ready(id, a, hot, m);
    }

    #[test]
    fn enqueue_pop_fifo_without_hot() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        enqueue(&mut u, &mut a, &m, 0, 0, 5, false);
        enqueue(&mut u, &mut a, &m, 0, 256, 7, false);
        assert_eq!(u.queue_workload(), 12);
        assert_eq!(u.queued_tasks(), 2);
        let t = u.pop_task(&a, &m).unwrap();
        assert_eq!(a.get(t).est_workload, 5);
        assert_eq!(u.queue_workload(), 7);
        u.pop_task(&a, &m).unwrap();
        assert!(u.pop_task(&a, &m).is_none());
        assert_eq!(u.queue_workload(), 0);
    }

    #[test]
    fn hot_tracking_parks_in_reserved_and_refills() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        for _ in 0..10 {
            enqueue(&mut u, &mut a, &m, 0, 0, 3, true);
        }
        assert_eq!(u.queued_tasks(), 10);
        assert_eq!(u.queue_workload(), 30);
        // Popping drains through the reserved refill path.
        let mut n = 0;
        while u.pop_task(&a, &m).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(u.queue_workload(), 0);
    }

    #[test]
    fn future_tasks_release_at_barrier() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        let mut t = task_at(&m, 0, 0, 2);
        t.ts = Timestamp(1);
        u.enqueue_future(a.insert(t), Timestamp(1));
        assert_eq!(u.future_tasks(), 1);
        assert_eq!(u.queued_tasks(), 0);
        assert_eq!(u.release_epoch(Timestamp(1), &a, false, &m), 1);
        assert_eq!(u.queued_tasks(), 1);
        assert_eq!(u.release_epoch(Timestamp(2), &a, false, &m), 0);
    }

    #[test]
    fn future_lists_release_in_order_and_reuse_their_buffers() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        // Epochs 2 and 4 park three and one task; epoch 3 parks none.
        let ids: Vec<TaskId> = [2, 4, 2, 2]
            .iter()
            .enumerate()
            .map(|(i, &ts)| {
                let id = a.insert(task_at(&m, 0, 64 * i as u64, 1));
                u.enqueue_future(id, Timestamp(ts));
                id
            })
            .collect();
        assert_eq!(u.future_tasks(), 4);
        assert_eq!(u.release_epoch(Timestamp(2), &a, false, &m), 3);
        let order: Vec<TaskId> = std::iter::from_fn(|| u.pop_task(&a, &m)).collect();
        assert_eq!(order, vec![ids[0], ids[2], ids[3]], "parking order");
        // Epochs 0..=2 are released; their buffers wait for later epochs.
        assert_eq!(u.future_spare.len(), 3);
        u.enqueue_future(a.insert(task_at(&m, 0, 0, 1)), Timestamp(6));
        assert_eq!(u.future_spare.len(), 1, "epochs 5 and 6 took two");
        assert_eq!(u.release_epoch(Timestamp(4), &a, false, &m), 1);
        assert_eq!(u.pop_task(&a, &m), Some(ids[1]));
        assert_eq!(u.release_epoch(Timestamp(6), &a, false, &m), 1);
        assert_eq!(u.future_tasks(), 0);
    }

    #[test]
    fn holds_block_home_and_lent() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let b = m.block_of(m.addr_in_unit(UnitId(0), 0));
        assert!(u.holds_block(b, &m));
        u.is_lent.set(b);
        assert!(!u.holds_block(b, &m));
        // Another unit's block is not held unless borrowed.
        let fb = m.block_of(m.addr_in_unit(UnitId(1), 0));
        assert!(!u.holds_block(fb, &m));
        u.admit_borrow(fb);
        assert!(u.holds_block(fb, &m));
    }

    #[test]
    fn borrow_eviction_lru_unpinned() {
        let c = cfg();
        let mut u = unit(&c, 0);
        u.borrow_capacity = 2;
        assert_eq!(u.admit_borrow(BlockAddr(1)), None);
        assert_eq!(u.admit_borrow(BlockAddr(2)), None);
        u.touch_borrow(BlockAddr(1));
        let e = u.admit_borrow(BlockAddr(3));
        assert_eq!(e, Some(BlockAddr(2)));
        assert_eq!(u.borrowed_count(), 2);
    }

    #[test]
    fn pinned_blocks_survive_eviction() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 1);
        u.borrow_capacity = 1;
        // Borrow unit 0's block and pin it with a queued task.
        let home0 = m.block_of(m.addr_in_unit(UnitId(0), 0));
        u.admit_borrow(home0);
        let mut a = TaskArena::new();
        enqueue(&mut u, &mut a, &m, 0, 0, 1, false); // pins home0
        let e = u.admit_borrow(BlockAddr(99_999));
        assert_eq!(e, None, "pinned LRU must not be evicted");
        assert_eq!(u.borrowed_count(), 2, "admitted over capacity");
        // Popping the task unpins; next admit can evict it.
        u.pop_task(&a, &m).unwrap();
        let e = u.admit_borrow(BlockAddr(99_998));
        assert_eq!(e, Some(home0));
    }

    #[test]
    fn choose_from_tail_groups_by_block() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        // Two tasks on block A (offset 0), one on block B (offset 256).
        enqueue(&mut u, &mut a, &m, 0, 0, 4, false);
        enqueue(&mut u, &mut a, &m, 0, 256, 4, false);
        enqueue(&mut u, &mut a, &m, 0, 16, 4, false);
        let out = u.choose_scheduled_out(8, false, &a, &m);
        let total: u64 = out.iter().map(|s| s.workload).sum();
        assert!(total >= 8);
        // All chosen blocks are marked lent.
        for s in &out {
            assert!(u.is_lent.is_lent(s.block));
        }
        assert_eq!(u.queue_workload() + total, 12);
    }

    #[test]
    fn choose_hot_prefers_sketch_blocks() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        // Hot block: 20 tasks at offset 0; cold: 1 task at 512.
        for _ in 0..20 {
            enqueue(&mut u, &mut a, &m, 0, 0, 2, true);
        }
        enqueue(&mut u, &mut a, &m, 0, 512, 2, true);
        let out = u.choose_scheduled_out(10, true, &a, &m);
        assert!(!out.is_empty());
        let hot = m.block_of(m.addr_in_unit(UnitId(0), 0));
        assert_eq!(out[0].block, hot);
        assert!(out[0].tasks.len() >= 5, "hot block brings its tasks");
    }

    #[test]
    fn lent_blocks_not_rechosen() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        enqueue(&mut u, &mut a, &m, 0, 0, 4, false);
        let first = u.choose_scheduled_out(4, false, &a, &m);
        assert_eq!(first.len(), 1);
        // Re-enqueue a task on the now-lent block; it must not be chosen.
        enqueue(&mut u, &mut a, &m, 0, 8, 4, false);
        let second = u.choose_scheduled_out(4, false, &a, &m);
        assert!(second.is_empty());
        assert_eq!(u.queued_tasks(), 1);
    }

    #[test]
    fn finished_workload_take_resets() {
        let c = cfg();
        let mut u = unit(&c, 0);
        u.add_finished(10);
        u.add_finished(5);
        assert_eq!(u.take_finished(), 15);
        assert_eq!(u.take_finished(), 0);
    }
}
