//! A tiny free-list pool for hot-path `Vec` buffers.
//!
//! The event loop constantly needs short-lived vectors — child-id
//! lists riding `System`'s `TaskDone` events and the host-only model's
//! completion events, per-round message scratch in bridge forwarding.
//! Allocating them per event shows up directly in the profiler's
//! dispatch phase, so both models recycle them instead: `get` hands
//! back a cleared buffer with its old capacity intact, `put` returns
//! it. This generalizes the ad-hoc `spawn_pool`/`vec_pool` fields the
//! simulator grew organically (DESIGN.md §3c).
//!
//! Determinism note: pooling only reuses *capacity*; every buffer is
//! cleared on `put`, so observable state is identical to fresh
//! allocation and goldens cannot see the pool.

/// A LIFO free list of `Vec<T>` buffers.
///
/// LIFO keeps the most recently used (cache-warm, grown-to-size)
/// buffer on top. The pool is bounded so a one-off burst cannot pin
/// its high-water mark of memory forever.
#[derive(Debug)]
pub struct BufPool<T> {
    free: Vec<Vec<T>>,
    cap: usize,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufPool<T> {
    /// Default bound on retained buffers: enough for every in-flight
    /// event class the system model produces per tick, small enough to
    /// be irrelevant memory-wise.
    const DEFAULT_CAP: usize = 64;

    /// Creates an empty pool with the default retention bound.
    pub fn new() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }

    /// Creates an empty pool retaining at most `cap` free buffers.
    pub fn with_cap(cap: usize) -> Self {
        BufPool {
            free: Vec::new(),
            cap,
        }
    }

    /// Takes a buffer from the pool (empty, capacity preserved from its
    /// last use) or allocates a fresh one.
    #[inline]
    pub fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. The buffer is cleared here, so
    /// callers may hand back leftovers; capacity is retained. Buffers
    /// beyond the retention bound are dropped.
    #[inline]
    pub fn put(&mut self, mut buf: Vec<T>) {
        if self.free.len() >= self.cap {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Number of free buffers currently retained.
    #[inline]
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_reuses_cleared_capacity() {
        let mut p: BufPool<u32> = BufPool::new();
        let mut v = p.get();
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        p.put(v);
        assert_eq!(p.idle(), 1);
        let v = p.get();
        assert!(v.is_empty(), "pooled buffers must come back cleared");
        assert_eq!(v.capacity(), cap, "capacity survives the round trip");
        assert_eq!(p.idle(), 0);
    }

    #[test]
    fn lifo_returns_most_recent() {
        let mut p: BufPool<u8> = BufPool::new();
        let mut a = p.get();
        a.reserve_exact(10);
        let mut b = p.get();
        b.reserve_exact(100);
        let (ca, cb) = (a.capacity(), b.capacity());
        p.put(a);
        p.put(b);
        assert_eq!(p.get().capacity(), cb);
        assert_eq!(p.get().capacity(), ca);
    }

    #[test]
    fn retention_is_bounded() {
        let mut p: BufPool<u8> = BufPool::with_cap(2);
        for _ in 0..5 {
            p.put(Vec::with_capacity(8));
        }
        assert_eq!(p.idle(), 2, "excess buffers are dropped, not hoarded");
    }
}
