//! The NDP unit: one DRAM bank plus its wimpy core, unit controller
//! state, task queues and load-balancing structures (Figure 4(b)).

use std::collections::VecDeque;

use ndpb_dram::{AddressMap, BankModel, BlockAddr, UnitId};
use ndpb_proto::{Mailbox, Message, MAX_MESSAGE_BYTES};
use ndpb_sim::{SimRng, SimTime};
use ndpb_sketch::{HotSketch, ReservedQueue};
use ndpb_tasks::{TaskId, Timestamp};

use crate::arena::TaskArena;
use crate::config::{SystemConfig, RESERVED_CHUNKS, RESERVED_TASKS_PER_CHUNK};
use crate::fasthash::FastMap;
use crate::metadata::{LentBitmap, LruTable};
use crate::steal;

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
    /// `Some(holder)` marks a *task-only* forward: the block already
    /// lives at `holder`, so only the tasks travel there and the block
    /// stays lent to it. `None` is a block move to a receiver the
    /// bridge assigns round-robin.
    pub pinned_recv: Option<UnitId>,
}

/// The gather-cost-aware limits of one steal round
/// (`LbPolicy::byte_budget` / `prefer_lent`, DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct GatherAware {
    /// Wire bytes the round's block moves may cost (`u64::MAX` without
    /// `byte_budget`); task-only forwards are exempt.
    pub byte_budget: u64,
    /// Wire bytes of one block's data message.
    pub data_wire_bytes: u64,
    /// Payoff filter: drops block moves whose workload cannot hide
    /// their own wire bytes.
    pub amortize: Option<steal::AmortizeCfg>,
    /// Lent home blocks whose queued tasks forward task-only to their
    /// holder (block address → holder; see [`NdpUnit::lent_holders`]).
    pub lent_to: FastMap<u64, UnitId>,
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
            reserved: ReservedQueue::new(RESERVED_CHUNKS, RESERVED_TASKS_PER_CHUNK),
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
    /// With `hot_first`, hot sketch entries are taken first; the ready
    /// queue is the fallback (and the only source otherwise): its tail
    /// for classic stealing ([`choose_from_tail`]), or the
    /// [`steal::plan_steal`] scan with `aware` ([`plan_from_queue`]),
    /// which also charges every hot block its wire bytes. Moved home
    /// blocks are marked lent immediately.
    ///
    /// [`choose_from_tail`]: Self::choose_from_tail
    /// [`plan_from_queue`]: Self::plan_from_queue
    pub fn choose_scheduled_out(
        &mut self,
        budget: u64,
        hot_first: bool,
        aware: Option<&GatherAware>,
        tasks: &TaskArena,
        map: &AddressMap,
    ) -> Vec<ScheduledBlock> {
        let mut out = Vec::new();
        let mut remaining = budget;
        let mut bytes_left = aware.map_or(0, |g| g.byte_budget);
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
                if let Some(g) = aware {
                    // The first hot block the byte budget cannot afford
                    // goes back to the ready queue and ends the phase.
                    let cost = g.data_wire_bytes + task_wire_bytes(&ids, tasks);
                    if cost > bytes_left {
                        self.task_queue.extend(ids);
                        break;
                    }
                    bytes_left -= cost;
                }
                let wl = workload_of(&ids, tasks);
                self.is_lent.set(block);
                self.pending_workload -= wl;
                remaining = remaining.saturating_sub(wl);
                out.push(ScheduledBlock {
                    block,
                    tasks: ids,
                    workload: wl,
                    pinned_recv: None,
                });
            }
        }
        if remaining > 0 {
            match aware {
                None => self.choose_from_tail(remaining, &mut out, tasks, map),
                Some(g) => self.plan_from_queue(remaining, bytes_left, g, &mut out, tasks, map),
            }
        }
        out
    }

    fn lendable(&self, block: BlockAddr, map: &AddressMap) -> bool {
        map.block_home(block) == self.id && !self.is_lent.is_lent(block)
    }

    /// Tail-of-queue selection (traditional work stealing): walk the
    /// ready queue from the back, grouping tasks by block, until
    /// `budget` workload is gathered; the groups are appended to `out`.
    fn choose_from_tail(
        &mut self,
        budget: u64,
        out: &mut Vec<ScheduledBlock>,
        tasks: &TaskArena,
        map: &AddressMap,
    ) {
        let first = out.len();
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
            match out[first..].iter_mut().find(|sb| sb.block == block) {
                Some(sb) => {
                    sb.tasks.push(id);
                    sb.workload += wl;
                }
                None => out.push(ScheduledBlock {
                    block,
                    tasks: vec![id],
                    workload: wl,
                    pinned_recv: None,
                }),
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
        for sb in &mut out[first..] {
            sb.tasks.reverse(); // restore original queue order
            self.is_lent.set(sb.block);
            self.pending_workload -= sb.workload;
        }
    }

    /// Gather-aware queue selection: group the ready queue by block
    /// and let [`steal::plan_steal`] pick within `budget` workload and
    /// `bytes_left` wire bytes, in its preference order; the picks are
    /// appended to `out`. Tasks of blocks in `aware.lent_to` are
    /// task-only candidates pinned to the holder; tasks of other lent
    /// or borrowed blocks stay put for the ordinary reroute path.
    fn plan_from_queue(
        &mut self,
        budget: u64,
        bytes_left: u64,
        aware: &GatherAware,
        out: &mut Vec<ScheduledBlock>,
        tasks: &TaskArena,
        map: &AddressMap,
    ) {
        // Back to front, matching steal-half's tail preference: earlier-
        // scanned groups win planner ties.
        let mut cands: Vec<steal::StealCandidate> = Vec::new();
        let mut idx_of: FastMap<u64, usize> = FastMap::default();
        for &id in self.task_queue.iter().rev() {
            let task = tasks.get(id);
            let block = map.block_of(task.data);
            let task_only = aware.lent_to.contains_key(&block.0);
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
                        data_bytes: if task_only { 0 } else { aware.data_wire_bytes },
                        hot: self.sketch.get(block.0).is_some(),
                    });
                }
            }
        }
        // Payoff filter: a block move whose queued workload cannot hide
        // its own wire bytes is not worth making at any budget — the
        // receiver would stall longer than the stolen work runs.
        if let Some(am) = aware.amortize {
            cands.retain(|c| am.pays(c));
        }
        let first = out.len();
        let mut slot_of: FastMap<u64, usize> = FastMap::default();
        for i in steal::plan_steal(&cands, budget, bytes_left) {
            let block = BlockAddr(cands[i].key);
            slot_of.insert(block.0, out.len());
            out.push(ScheduledBlock {
                block,
                tasks: Vec::new(),
                workload: 0,
                pinned_recv: aware.lent_to.get(&block.0).copied(),
            });
        }
        if slot_of.is_empty() {
            return;
        }
        // One front-to-back pass moves the picked blocks' tasks out, in
        // queue order within each pick and for the rest.
        self.task_queue.retain(|&id| {
            let task = tasks.get(id);
            let Some(&si) = slot_of.get(&map.block_of(task.data).0) else {
                return true;
            };
            out[si].workload += task.workload_or_default();
            out[si].tasks.push(id);
            false
        });
        for sb in &out[first..] {
            self.pending_workload -= sb.workload;
            if sb.pinned_recv.is_none() {
                self.is_lent.set(sb.block);
            }
        }
    }

    /// The holders of this unit's lent home blocks that still have
    /// tasks queued here (block address → holder), as `data_borrowed`
    /// (the rank bridge's table) records them. Those tasks would be
    /// rerouted to the holder one by one on pop anyway; the gather-
    /// aware steal round forwards them eagerly, task-only. Blocks with
    /// no recorded holder, or recorded at this unit, are left out.
    pub fn lent_holders(
        &self,
        data_borrowed: &LruTable<BlockAddr, UnitId>,
        tasks: &TaskArena,
        map: &AddressMap,
    ) -> FastMap<u64, UnitId> {
        let mut out = FastMap::default();
        for &id in &self.task_queue {
            let block = map.block_of(tasks.get(id).data);
            if map.block_home(block) != self.id || !self.is_lent.is_lent(block) {
                continue;
            }
            match data_borrowed.peek(&block) {
                Some(&holder) if holder != self.id => {
                    out.insert(block.0, holder);
                }
                _ => {}
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
        let out = u.choose_scheduled_out(8, false, None, &a, &m);
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
        let out = u.choose_scheduled_out(10, true, None, &a, &m);
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
        let first = u.choose_scheduled_out(4, false, None, &a, &m);
        assert_eq!(first.len(), 1);
        // Re-enqueue a task on the now-lent block; it must not be chosen.
        enqueue(&mut u, &mut a, &m, 0, 8, 4, false);
        let second = u.choose_scheduled_out(4, false, None, &a, &m);
        assert!(second.is_empty());
        assert_eq!(u.queued_tasks(), 1);
    }

    /// Gather-aware limits with no lent blocks; a data message costs
    /// 264 wire bytes.
    fn aware(byte_budget: u64, amortize: Option<steal::AmortizeCfg>) -> GatherAware {
        GatherAware {
            byte_budget,
            data_wire_bytes: 264,
            amortize,
            lent_to: FastMap::default(),
        }
    }

    #[test]
    fn gather_aware_hot_block_waits_until_its_bytes_fit() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        for _ in 0..20 {
            enqueue(&mut u, &mut a, &m, 0, 0, 2, true);
        }
        assert_eq!(u.reserved.total_tasks(), 20, "the block is hot");
        let hot = m.block_of(m.addr_in_unit(UnitId(0), 0));
        let task_bytes = u64::from(task_at(&m, 0, 0, 2).wire_bytes().min(MAX_MESSAGE_BYTES));
        let cost = 264 + 20 * task_bytes;
        // One byte short: deferred, tasks back in the ready queue.
        let out = u.choose_scheduled_out(100, true, Some(&aware(cost - 1, None)), &a, &m);
        assert!(out.is_empty());
        assert!(!u.is_lent.is_lent(hot));
        assert_eq!((u.task_queue.len(), u.reserved.total_tasks()), (20, 0));
        assert_eq!(u.queue_workload(), 40);
        // Affordable: the whole block leaves.
        let out = u.choose_scheduled_out(100, true, Some(&aware(cost, None)), &a, &m);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].block, out[0].tasks.len()), (hot, 20));
        assert_eq!((out[0].workload, out[0].pinned_recv), (40, None));
        assert!(u.is_lent.is_lent(hot));
        assert_eq!((u.queued_tasks(), u.queue_workload()), (0, 0));
    }

    #[test]
    fn amortize_drops_a_block_that_cannot_hide_its_bytes() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        // Thin block A: one task of workload 1; thick block B: 4 × 200.
        enqueue(&mut u, &mut a, &m, 0, 0, 1, false);
        for _ in 0..4 {
            enqueue(&mut u, &mut a, &m, 0, 256, 200, false);
        }
        let am = steal::AmortizeCfg {
            g_xfer: 256,
            w_th: 256,
        };
        let out = u.choose_scheduled_out(1000, false, Some(&aware(u64::MAX, Some(am))), &a, &m);
        let thick = m.block_of(m.addr_in_unit(UnitId(0), 256));
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].block, out[0].workload), (thick, 800));
        assert_eq!((u.queued_tasks(), u.queue_workload()), (1, 1));
    }

    #[test]
    fn lent_holders_skip_the_giver_unknown_holders_and_unlent_blocks() {
        let c = cfg();
        let m = map(&c);
        let mut u = unit(&c, 0);
        let mut a = TaskArena::new();
        let b: Vec<BlockAddr> = (0..4u64)
            .map(|i| {
                enqueue(&mut u, &mut a, &m, 0, 256 * i, 1, false);
                m.block_of(m.addr_in_unit(UnitId(0), 256 * i))
            })
            .collect();
        let mut table = LruTable::new(16);
        // b0 is lent to u3, b1 "to" the giver itself, b2 to nobody
        // known; b3 is at home despite a (stale) entry.
        for &blk in &b[..3] {
            u.is_lent.set(blk);
        }
        table.insert(b[0], UnitId(3));
        table.insert(b[1], UnitId(0));
        table.insert(b[3], UnitId(5));
        let holders = u.lent_holders(&table, &a, &m);
        assert_eq!(holders.len(), 1);
        assert_eq!(holders.get(&b[0].0), Some(&UnitId(3)));
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
