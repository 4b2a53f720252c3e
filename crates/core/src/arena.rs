//! The task arena: every live task is stored exactly once.
//!
//! Both models own one. [`System`](crate::System) and
//! [`HostOnly`](crate::hostonly::HostOnly) insert a task when they
//! count it as spawned (the initial tasks, then each child as its
//! parent finishes executing) and free the slot when the task's own
//! execution completes. In between, every ready queue, future-epoch
//! list, reserved list, mailbox, bridge buffer, queued event and
//! message carries the task's 4-byte [`TaskId`], and reads the record
//! through the arena.
//!
//! Storage grows in fixed-size chunks, so growth never moves a live
//! task, and freed slots are reused last-in first-out. Peak memory
//! therefore follows the peak number of live tasks instead of the sum
//! of every queue's own high-water mark. Ids are opaque: no queue
//! orders by them, so slot reuse cannot change a result.
//!
//! A queue of ids no longer holds its tasks' records side by side, so
//! once the arena outgrows the core's cache (Full scale) each read of
//! a queued task can miss. Each slot is one cache line, and the
//! simulator [`prefetch`](TaskArena::prefetch)es the slots it is about
//! to read: the next ready task, the tasks of a released epoch and the
//! tasks of the deliveries in an event batch.

use ndpb_tasks::{Task, TaskId};

/// Tasks per chunk (64 KiB of 64-byte tasks).
const CHUNK_SHIFT: u32 = 10;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// One task per cache line, so a read or prefetch touches one line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Slot(Task);

/// Chunked slot storage for live tasks, with a free list.
///
/// # Example
///
/// ```
/// use ndpb_core::arena::TaskArena;
/// use ndpb_dram::DataAddr;
/// use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};
///
/// let mut arena = TaskArena::new();
/// let t = Task::new(TaskFnId(1), Timestamp(0), DataAddr(64), 5, TaskArgs::EMPTY);
/// let id = arena.insert(t);
/// assert_eq!(arena.get(id).data, DataAddr(64));
/// assert_eq!(arena.live(), 1);
/// arena.free(id);
/// assert_eq!(arena.live(), 0);
/// // The freed slot is handed out again.
/// assert_eq!(arena.insert(t), id);
/// ```
#[derive(Debug, Default)]
pub struct TaskArena {
    /// Each chunk is allocated at full capacity and never grows past
    /// it, so pushing into it never reallocates.
    chunks: Vec<Vec<Slot>>,
    free: Vec<TaskId>,
    live: usize,
}

impl TaskArena {
    /// An empty arena; nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `task` and returns its handle, reusing the most recently
    /// freed slot if there is one.
    pub fn insert(&mut self, task: Task) -> TaskId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            let i = id.0 as usize;
            self.chunks[i >> CHUNK_SHIFT][i & (CHUNK - 1)] = Slot(task);
            return id;
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let c = self.chunks.len() - 1;
        let chunk = &mut self.chunks[c];
        let id = TaskId(((c << CHUNK_SHIFT) + chunk.len()) as u32);
        chunk.push(Slot(task));
        id
    }

    /// The task stored under `id`.
    #[inline]
    pub fn get(&self, id: TaskId) -> &Task {
        &self.slot(id).0
    }

    #[inline]
    fn slot(&self, id: TaskId) -> &Slot {
        let i = id.0 as usize;
        &self.chunks[i >> CHUNK_SHIFT][i & (CHUNK - 1)]
    }

    /// Asks the CPU to start loading `id`'s slot into cache, for a read
    /// that follows soon. Only a hint: it changes no state, and it is a
    /// no-op off x86-64.
    #[inline]
    pub fn prefetch(&self, id: TaskId) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let line = self.slot(id) as *const Slot as *const i8;
            // SAFETY: a prefetch reads nothing architecturally and
            // cannot fault; `line` points into a live chunk anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = id;
    }

    /// Frees `id`'s slot. The id must be live and is invalid afterwards.
    pub fn free(&mut self, id: TaskId) {
        self.live -= 1;
        self.free.push(id);
    }

    /// Number of live (inserted and not yet freed) tasks.
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::DataAddr;
    use ndpb_tasks::{TaskArgs, TaskFnId, Timestamp};

    fn task(i: u64) -> Task {
        Task::new(TaskFnId(0), Timestamp(0), DataAddr(i), 1, TaskArgs::EMPTY)
    }

    #[test]
    fn growth_keeps_every_live_task_in_place() {
        let mut a = TaskArena::new();
        let n = 3 * CHUNK as u64 + 5;
        let ids: Vec<TaskId> = (0..n).map(|i| a.insert(task(i))).collect();
        let first = a.get(ids[0]) as *const Task;
        assert_eq!(first as usize % 64, 0, "one slot per cache line");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(a.get(id).data, DataAddr(i as u64));
        }
        assert_eq!(a.get(ids[0]) as *const Task, first, "no chunk moved");
        assert_eq!(a.live(), n as usize);
        assert_eq!(a.chunks.len(), 4);
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut a = TaskArena::new();
        let ids: Vec<TaskId> = (0..8).map(|i| a.insert(task(i))).collect();
        a.free(ids[2]);
        a.free(ids[5]);
        assert_eq!(a.live(), 6);
        assert_eq!(a.insert(task(50)), ids[5]);
        assert_eq!(a.insert(task(20)), ids[2]);
        assert_eq!(a.get(ids[2]).data, DataAddr(20));
        assert_eq!(a.insert(task(8)), TaskId(8), "then fresh slots");
        assert_eq!(a.live(), 9);
    }
}
