//! The in-DRAM reserved task queue (Figure 9, right).
//!
//! Tasks whose data block is tracked by the sketch are parked here,
//! grouped by block, so a chosen hot block can leave together with all
//! its tasks. Storage is accounted in fixed-size chunks (`G_xfer` bytes,
//! ~8 tasks each, 1280 chunks per unit by default); when the chunk pool
//! is exhausted, further tasks overflow to the normal task queue.

use std::collections::hash_map::Entry;

use ndpb_sim::fasthash::FastMap;

/// A chunked, per-key task store with a bounded chunk pool.
///
/// # Example
///
/// ```
/// use ndpb_sketch::ReservedQueue;
/// let mut q: ReservedQueue<&str> = ReservedQueue::new(4, 2);
/// q.reserve(7, "a").unwrap();
/// q.reserve(7, "b").unwrap();
/// let mut out = Vec::new();
/// q.take_into(7, &mut out);
/// assert_eq!(out, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct ReservedQueue<T> {
    chunk_pool: usize,
    tasks_per_chunk: usize,
    lists: FastMap<u64, Vec<T>>,
    /// Emptied list buffers, reused for the next new key.
    spare: Vec<Vec<T>>,
    chunks_used: usize,
    tasks_parked: usize,
    peak_chunks: usize,
    peak_tasks: usize,
    hits: u64,
    overflows: u64,
}

impl<T> ReservedQueue<T> {
    /// Creates a queue with `chunk_pool` chunks of `tasks_per_chunk`
    /// tasks each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(chunk_pool: usize, tasks_per_chunk: usize) -> Self {
        assert!(chunk_pool > 0 && tasks_per_chunk > 0);
        ReservedQueue {
            chunk_pool,
            tasks_per_chunk,
            lists: FastMap::default(),
            spare: Vec::new(),
            chunks_used: 0,
            tasks_parked: 0,
            peak_chunks: 0,
            peak_tasks: 0,
            hits: 0,
            overflows: 0,
        }
    }

    fn chunks_for(&self, tasks: usize) -> usize {
        // Every key holds at least its statically assigned chunk.
        tasks.div_ceil(self.tasks_per_chunk).max(1)
    }

    /// Parks `task` under `key`.
    ///
    /// # Errors
    ///
    /// Returns the task back if admitting it would exceed the chunk
    /// pool; the caller should fall back to the normal task queue.
    pub fn reserve(&mut self, key: u64, task: T) -> Result<(), T> {
        let per_chunk = self.tasks_per_chunk;
        let entry = self.lists.entry(key);
        // A key with no list holds no chunk; its first task takes one.
        let extra = match &entry {
            Entry::Occupied(e) => {
                let len = e.get().len();
                (len + 1).div_ceil(per_chunk) - len.div_ceil(per_chunk)
            }
            Entry::Vacant(_) => 1,
        };
        if self.chunks_used + extra > self.chunk_pool {
            self.overflows += 1;
            return Err(task);
        }
        match entry {
            Entry::Occupied(mut e) => e.get_mut().push(task),
            Entry::Vacant(e) => {
                let mut list = self.spare.pop().unwrap_or_default();
                list.push(task);
                e.insert(list);
            }
        }
        self.chunks_used += extra;
        self.tasks_parked += 1;
        self.peak_chunks = self.peak_chunks.max(self.chunks_used);
        self.peak_tasks = self.peak_tasks.max(self.tasks_parked);
        self.hits += 1;
        Ok(())
    }

    /// High-water mark of chunks in use over the queue's lifetime (the
    /// occupancy figure buffer-sizing reports want).
    pub fn peak_chunks(&self) -> usize {
        self.peak_chunks
    }

    /// High-water mark of tasks parked at once.
    pub fn peak_tasks(&self) -> usize {
        self.peak_tasks
    }

    /// Tasks successfully parked over the queue's lifetime (the
    /// reserved-queue *hit* count the metrics registry reports).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Tasks bounced to the normal queue because the chunk pool was
    /// exhausted.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Moves all tasks parked under `key` into `out` in parking order,
    /// freeing its chunks. Appends nothing for an unknown key.
    pub fn take_into(&mut self, key: u64, out: &mut impl Extend<T>) {
        if let Some(list) = self.lists.remove(&key) {
            self.chunks_used -= self.chunks_for(list.len());
            self.tasks_parked -= list.len();
            self.recycle(list, out);
        }
    }

    /// Moves `list`'s tasks into `out` and keeps its buffer for reuse.
    fn recycle(&mut self, mut list: Vec<T>, out: &mut impl Extend<T>) {
        out.extend(list.drain(..));
        self.spare.push(list);
    }

    /// Number of tasks parked under `key`.
    pub fn len_of(&self, key: u64) -> usize {
        self.lists.get(&key).map_or(0, Vec::len)
    }

    /// Total parked tasks.
    pub fn total_tasks(&self) -> usize {
        self.tasks_parked
    }

    /// Chunks currently allocated.
    pub fn chunks_used(&self) -> usize {
        self.chunks_used
    }

    /// Whether no tasks are parked.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Moves every list into `out`, in ascending key order (the map's
    /// own order is unspecified).
    pub fn drain_all_into(&mut self, out: &mut impl Extend<T>) {
        self.chunks_used = 0;
        self.tasks_parked = 0;
        let mut keys: Vec<u64> = self.lists.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let list = self.lists.remove(&k).expect("key exists");
            self.recycle(list, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take<T>(q: &mut ReservedQueue<T>, key: u64) -> Vec<T> {
        let mut out = Vec::new();
        q.take_into(key, &mut out);
        out
    }

    #[test]
    fn reserve_and_take() {
        let mut q = ReservedQueue::new(10, 2);
        q.reserve(1, 'a').unwrap();
        q.reserve(1, 'b').unwrap();
        q.reserve(2, 'c').unwrap();
        assert_eq!(q.len_of(1), 2);
        assert_eq!(q.total_tasks(), 3);
        assert_eq!(take(&mut q, 1), vec!['a', 'b']);
        assert_eq!(q.len_of(1), 0);
        assert_eq!(q.total_tasks(), 1);
    }

    #[test]
    fn chunk_accounting_grows_and_frees() {
        let mut q = ReservedQueue::new(10, 2);
        q.reserve(1, 0u32).unwrap();
        assert_eq!(q.chunks_used(), 1);
        q.reserve(1, 1).unwrap();
        assert_eq!(q.chunks_used(), 1); // still fits one chunk
        q.reserve(1, 2).unwrap();
        assert_eq!(q.chunks_used(), 2); // linked a second chunk
        take(&mut q, 1);
        assert_eq!(q.chunks_used(), 0);
    }

    #[test]
    fn pool_exhaustion_returns_task() {
        let mut q = ReservedQueue::new(2, 1);
        q.reserve(1, 'a').unwrap();
        q.reserve(2, 'b').unwrap();
        let back = q.reserve(3, 'c');
        assert_eq!(back, Err('c'));
        // Appending to an existing key that needs a new chunk also fails.
        let back = q.reserve(1, 'd');
        assert_eq!(back, Err('d'));
        assert_eq!(q.hits(), 2);
        assert_eq!(q.overflows(), 2);
    }

    #[test]
    fn take_unknown_key_is_empty() {
        let mut q: ReservedQueue<u8> = ReservedQueue::new(4, 4);
        assert!(take(&mut q, 99).is_empty());
    }

    #[test]
    fn drain_all_is_deterministic_and_complete() {
        let mut q = ReservedQueue::new(16, 2);
        q.reserve(5, 50).unwrap();
        q.reserve(1, 10).unwrap();
        q.reserve(5, 51).unwrap();
        q.reserve(3, 30).unwrap();
        let mut out = Vec::new();
        q.drain_all_into(&mut out);
        assert_eq!(out, vec![10, 30, 50, 51]);
        assert!(q.is_empty());
        assert_eq!(q.chunks_used(), 0);
        assert_eq!(q.total_tasks(), 0);
    }

    #[test]
    fn emptied_lists_lend_their_buffers_to_new_keys() {
        let mut q = ReservedQueue::new(16, 2);
        for i in 0..5 {
            q.reserve(1, i).unwrap();
        }
        let buf = q.lists[&1].as_ptr();
        take(&mut q, 1);
        q.reserve(9, 90).unwrap();
        assert_eq!(q.lists[&9].as_ptr(), buf, "key 9 reuses key 1's buffer");
        assert_eq!(take(&mut q, 9), vec![90]);
    }

    #[test]
    #[should_panic]
    fn zero_pool_panics() {
        ReservedQueue::<u8>::new(0, 1);
    }
}
