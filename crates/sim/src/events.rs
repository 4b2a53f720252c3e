//! The discrete-event queue: [`EventQueue`], a two-tier timer wheel.
//!
//! Nearly every event in this simulator is scheduled a bounded DRAM or bus
//! latency ahead of the clock — tens to a few thousand ticks (CAS ≈ 41
//! ticks, a gather round ≈ `I_min` = 4096 ticks at Table I geometry). A
//! comparison-based heap pays `O(log n)` per operation and a cache miss per
//! level for what is almost always a "schedule a few hundred ticks out"
//! pattern. The wheel turns that common case into `O(1)`:
//!
//! * **Near tier** — a calendar of [`WHEEL_SLOTS`] per-tick FIFO buckets,
//!   one revolution wide. An event at absolute tick `t` with
//!   `t - now < WHEEL_SLOTS` lands in bucket `t % WHEEL_SLOTS`. Because the
//!   live window is exactly one revolution wide, a non-empty bucket always
//!   holds a single tick's events, in insertion order — FIFO within the
//!   bucket *is* the `(time, seq)` order. A two-level occupancy bitmap
//!   (summary words over slot words) finds the next non-empty bucket with a
//!   handful of bit operations instead of a scan.
//! * **Far tier** — a sorted overflow heap for events at or beyond the
//!   window (congested bus grants, and the periodic timers of
//!   configurations that stretch `I_state` or `G_xfer`). Overflow entries
//!   are never migrated into the wheel; [`EventQueue::pop`] compares the
//!   wheel front against the heap front by `(time, seq)` and takes the
//!   smaller, so an old far-future event still pops before a younger
//!   same-tick event that was scheduled directly into the wheel.
//!
//! # Near-tier storage: one node slab
//!
//! Every near-tier event lives in one arena, a `Vec` of nodes
//! `{at, seq, next, event}`. A bucket is just a `head`/`tail` pair of
//! `u32` node indices, and `next` links a bucket's nodes in FIFO order,
//! so an insert appends at the tail and a pop unlinks the head. Popped
//! nodes go onto a LIFO free list (threaded through the same `next`
//! field, their `event` left `None`), and the next insert takes the most
//! recently freed — still cache-warm — node. The slab therefore grows
//! only while the pending near-tier count sets a new peak: once a run
//! reaches its peak, schedule and pop allocate nothing, and an empty
//! bucket costs 8 bytes of table and no heap memory. The far tier keeps
//! its payloads in the heap entries themselves.
//!
//! # Near-tier width
//!
//! The width is fixed at [`WHEEL_SLOTS`] = 2^14 ticks, chosen from
//! measured traffic. It holds Table I's `I_state` timers (12,000 ticks),
//! the round triggers (`I_min` or `2 × I_min` = 8,192 ticks after the last
//! round) and every delay of the host-only model (at most 10,851 ticks at
//! any scale). Over the eight apps × C/B/W/O/R/W+GA/O+GA/H, 1,431 of
//! 2.76 M inserts reach the heap at Tiny, 36,212 of 25.5 M at Small and
//! 153,161 of 107 M at Full, the worst run (pr on R at Full) sending 3.7%
//! of its inserts there.
//!
//! Pop order is defined purely by `(time, seq)`, where `seq` is the
//! global schedule order, whichever tier an event sits in, so the width
//! changes no result (the golden suites pin this). `crates/sim/tests/`
//! pins the order against a reference model with randomized schedules.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of per-tick buckets in the near tier. Events scheduled fewer
/// than this many ticks ahead of the clock go to the wheel; everything
/// else goes to the overflow heap.
pub const WHEEL_SLOTS: usize = 1 << 14;

/// `tick & SLOT_MASK` is the tick's bucket.
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Node index meaning "none": the end of a bucket list or of the free
/// list.
const NIL: u32 = u32::MAX;

/// An event queue ordering events by timestamp, breaking ties in
/// first-scheduled-first-popped (FIFO) order so simulations are
/// deterministic: events pop in strictly nondecreasing `(time, seq)`
/// order, where `seq` is the global schedule order.
///
/// Storage is a two-tier timer wheel — per-tick FIFO buckets for the
/// near window (`O(1)` schedule/pop for the bounded DRAM/bus latencies
/// that dominate this simulator) backed by a sorted overflow heap for
/// far-future events. The tie-break contract is independent of which tier
/// an event lands in; see the [module docs](self) for the geometry.
///
/// # Example
///
/// ```
/// use ndpb_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(5), 'b');
/// q.schedule(SimTime::from_ticks(5), 'c');
/// q.schedule(SimTime::from_ticks(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    /// Sequence number of the next scheduled event.
    seq: u64,
    popped: u64,
    /// One FIFO list of slab nodes per slot.
    buckets: Vec<Bucket>,
    /// Bit `i % 64` of word `i / 64` set ⇔ bucket `i` is non-empty.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` set ⇔ `words[w] != 0`.
    summary: Vec<u64>,
    /// The node slab behind every bucket list. Its length is the peak
    /// near-tier count so far: nodes are only ever recycled, never
    /// removed.
    nodes: Vec<Node<E>>,
    /// Most recently freed node, heading the LIFO free list (`NIL` when
    /// every node is in use).
    free: u32,
    /// Events currently in the near tier (linked nodes).
    wheel_len: usize,
    overflow: BinaryHeap<Overflow<E>>,
}

/// A bucket's node list: `head` is its oldest node (`NIL` when the
/// bucket is empty), `tail` its newest, valid only while `head` is not
/// `NIL`. All linked nodes share one `at` and are in `seq` order.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// One slab slot. Linked into a bucket it holds `Some(event)`; on the
/// free list it holds `None` and `next` points at the next free node.
#[derive(Debug)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

#[derive(Debug)]
struct Overflow<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // surfaces first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`]. Only
    /// the bucket and bitmap tables are allocated; the node slab grows on
    /// the first schedules.
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            buckets: vec![EMPTY_BUCKET; WHEEL_SLOTS],
            words: vec![0; WHEEL_SLOTS / 64],
            summary: vec![0; (WHEEL_SLOTS / 64).div_ceil(64)],
            nodes: Vec::new(),
            free: NIL,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far; useful as a progress/abort metric.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of pending events across both tiers.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pending event, in no particular order: the slab nodes that
    /// hold an event (free nodes hold none), then the overflow heap.
    /// Pop order is untouched; this serves observers that need the
    /// pending set, not its order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let near = self.nodes.iter().filter_map(|n| n.event.as_ref());
        near.chain(self.overflow.iter().map(|o| &o.event))
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling at exactly [`now`](Self::now) — e.g. from inside the
    /// handler of the event that advanced the clock to `at` — is legal
    /// and ordered FIFO *after* every event already pending at that
    /// tick: ties break strictly by schedule order, never by storage
    /// internals (bucket, heap tier, or bitmap position).
    /// `crates/sim/tests/event_order.rs` pins this contract.
    ///
    /// # Panics
    ///
    /// Panics if `at` is strictly earlier than the current time: the
    /// simulation cannot travel backwards.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        if at.ticks() - self.now.ticks() >= WHEEL_SLOTS as u64 {
            self.overflow.push(Overflow { at, seq, event });
            return;
        }
        let idx = (at.ticks() & SLOT_MASK) as usize;
        // The live window is exactly one wheel revolution wide, so a
        // live bucket holds a single tick.
        debug_assert!({
            let head = self.buckets[idx].head;
            head == NIL || self.nodes[head as usize].at == at
        });
        let n = self.alloc(at, seq, event);
        let bucket = &mut self.buckets[idx];
        if bucket.head == NIL {
            bucket.head = n;
            self.words[idx >> 6] |= 1 << (idx & 63);
            self.summary[idx >> 12] |= 1 << ((idx >> 6) & 63);
        } else {
            self.nodes[bucket.tail as usize].next = n;
        }
        bucket.tail = n;
        self.wheel_len += 1;
    }

    /// Fills the most recently freed node, or appends a new one when the
    /// free list is empty, and returns its index (unlinked: `next` is
    /// `NIL`).
    #[inline]
    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        let node = Node {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let n = self.free;
            let slot = &mut self.nodes[n as usize];
            self.free = slot.next;
            *slot = node;
            n
        } else {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("event queue node slab is full");
            self.nodes.push(node);
            n
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match self.front_bucket() {
            Some(idx) => {
                let entry = self.take_head(idx);
                if self.buckets[idx].head == NIL {
                    self.mark_empty(idx);
                }
                entry
            }
            None => {
                let o = self.overflow.pop()?;
                (o.at, o.event)
            }
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Pops the run of events at the head of the queue — a same-tick
    /// batch, in exactly the order repeated [`pop`](Self::pop) calls
    /// would yield it — appending the events to `out` and advancing the
    /// clock to the shared timestamp.
    ///
    /// Returns that timestamp, or `None` if the queue is empty. A run is
    /// either the whole front bucket (one occupancy-bitmap scan and one
    /// overflow compare for the batch, where a pop-at-a-time loop
    /// re-pays both per event) or, when the overflow front comes first,
    /// that single heap entry; the tick's remaining events then come in
    /// later runs. Draining a queue through `pop_run` is byte-identical to
    /// draining it through `pop` (`crates/sim/tests/wheel_prop.rs` pins
    /// this).
    #[inline]
    pub fn pop_run(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let before = out.len();
        let at = match self.front_bucket() {
            Some(idx) => {
                let at = self.nodes[self.buckets[idx].head as usize].at;
                // A tick's overflow entries were all scheduled before it
                // entered the window, so they are older than every event
                // in its bucket and have already popped: the run never
                // has to stop at the overflow front.
                debug_assert!(self.overflow.peek().is_none_or(|o| o.at > at));
                while self.buckets[idx].head != NIL {
                    out.push(self.take_head(idx).1);
                }
                self.mark_empty(idx);
                at
            }
            None => {
                let o = self.overflow.pop()?;
                out.push(o.event);
                o.at
            }
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += (out.len() - before) as u64;
        Some(at)
    }

    /// Unlinks the head node of the non-empty bucket `idx`, puts the node
    /// on the free list and returns its entry. The caller clears the
    /// occupancy bit if the bucket is now empty.
    #[inline]
    fn take_head(&mut self, idx: usize) -> (SimTime, E) {
        let n = self.buckets[idx].head;
        let node = &mut self.nodes[n as usize];
        let event = node.event.take().expect("linked node without an event");
        self.buckets[idx].head = node.next;
        node.next = self.free;
        self.free = n;
        self.wheel_len -= 1;
        (node.at, event)
    }

    /// Clears bucket `idx`'s occupancy bit (and its summary bit when the
    /// whole word empties). Called once the bucket's list is empty.
    #[inline]
    fn mark_empty(&mut self, idx: usize) {
        self.words[idx >> 6] &= !(1 << (idx & 63));
        if self.words[idx >> 6] == 0 {
            self.summary[idx >> 12] &= !(1 << ((idx >> 6) & 63));
        }
    }

    /// Bucket of the earliest near-tier event when it precedes the
    /// overflow front in `(time, seq)` order; `None` when the overflow
    /// front comes first or the near tier is empty.
    #[inline]
    fn front_bucket(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let idx = self.next_occupied((self.now.ticks() & SLOT_MASK) as usize);
        let head = &self.nodes[self.buckets[idx].head as usize];
        match self.overflow.peek() {
            Some(o) if (o.at, o.seq) < (head.at, head.seq) => None,
            _ => Some(idx),
        }
    }

    /// First word index `>= w` whose occupancy word is non-empty, if any
    /// (no wrap-around).
    #[inline]
    fn next_word_at_or_after(&self, w: usize) -> Option<usize> {
        let sw = w >> 6;
        if sw >= self.summary.len() {
            return None;
        }
        let first = self.summary[sw] & (!0u64 << (w & 63));
        if first != 0 {
            return Some((sw << 6) | first.trailing_zeros() as usize);
        }
        for (i, &s) in self.summary.iter().enumerate().skip(sw + 1) {
            if s != 0 {
                return Some((i << 6) | s.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the first non-empty bucket at or after `start` in circular
    /// slot order. Requires `wheel_len > 0`.
    ///
    /// Circular order from `now % WHEEL_SLOTS` is tick order: every
    /// pending near-tier event lies in `[now, now + WHEEL_SLOTS)`, and
    /// that window maps one-to-one onto the slots.
    #[inline]
    fn next_occupied(&self, start: usize) -> usize {
        debug_assert!(self.wheel_len > 0);
        let sw = start >> 6;
        let sb = start & 63;
        // Bits of the start word at or after the start slot.
        let hi = self.words[sw] & (!0u64 << sb);
        if hi != 0 {
            return (sw << 6) | hi.trailing_zeros() as usize;
        }
        // Whole words strictly after the start word.
        if let Some(w) = self.next_word_at_or_after(sw + 1) {
            return (w << 6) | self.words[w].trailing_zeros() as usize;
        }
        // Wrapped: whole words before (or at) the start word…
        if let Some(w) = self.next_word_at_or_after(0) {
            if w != sw {
                return (w << 6) | self.words[w].trailing_zeros() as usize;
            }
        }
        // …then the low bits of the start word itself.
        let lo = self.words[sw] & !(!0u64 << sb);
        debug_assert!(lo != 0, "wheel_len > 0 but no occupancy bit set");
        (sw << 6) | lo.trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(30), 3);
        q.schedule(SimTime::from_ticks(10), 1);
        q.schedule(SimTime::from_ticks(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ticks(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ticks(42));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), ());
        q.pop();
        q.schedule(SimTime::from_ticks(5), ());
    }

    #[test]
    fn far_future_and_near_events_interleave_in_time_order() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(SimTime::from_ticks(far), 'z');
        q.schedule(SimTime::from_ticks(2), 'a');
        q.schedule(SimTime::from_ticks(far), 'y'); // same far tick, later seq
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(2), 'a'));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(far), 'z'));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(far), 'y'));
    }

    #[test]
    fn popped_counts() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        q.pop();
        q.pop();
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn single_bucket_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_ticks(3), i);
        }
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_interleaves_with_wheel_by_seq() {
        let mut q = EventQueue::new();
        let far = SimTime::from_ticks(2 * WHEEL_SLOTS as u64);
        // seq 0 goes far-future (overflow tier).
        q.schedule(far, "overflow");
        // Move the clock close enough that the same tick is near-tier.
        q.schedule(SimTime::from_ticks(far.ticks() - 10), "clock");
        assert_eq!(q.pop().unwrap().1, "clock");
        q.schedule(far, "wheel");
        assert_eq!((q.wheel_len, q.overflow.len()), (1, 1));
        assert_eq!(q.pop().unwrap(), (far, "overflow"));
        assert_eq!(q.pop().unwrap(), (far, "wheel"));
    }

    #[test]
    fn slot_collision_across_revolutions_is_impossible_but_ordered() {
        // Tick t and t + WHEEL_SLOTS share a slot; the second must sit in
        // the overflow tier until the window advances past t.
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(100);
        let t2 = SimTime::from_ticks(100 + WHEEL_SLOTS as u64);
        q.schedule(t, "near");
        q.schedule(t2, "far");
        assert_eq!(q.pop().unwrap(), (t, "near"));
        assert_eq!(q.pop().unwrap(), (t2, "far"));
    }

    #[test]
    fn occupancy_bitmap_survives_sparse_times() {
        let mut q = EventQueue::new();
        // One event per occupancy word, popped in order.
        for i in 0..(WHEEL_SLOTS / 64) as u64 {
            q.schedule(SimTime::from_ticks(i * 64 + 7), i);
        }
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..(WHEEL_SLOTS / 64) as u64).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert!(q.summary.iter().all(|&s| s == 0));
    }

    /// Length of the free list, walked through the nodes' `next` links.
    fn free_len<E>(q: &EventQueue<E>) -> usize {
        let mut len = 0;
        let mut n = q.free;
        while n != NIL {
            assert!(
                q.nodes[n as usize].event.is_none(),
                "free node holds an event"
            );
            len += 1;
            n = q.nodes[n as usize].next;
        }
        len
    }

    #[test]
    fn dropping_the_queue_drops_each_pending_payload_once() {
        use std::rc::Rc;
        let payload = Rc::new(());
        let far = 3 * WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        for i in 0..12 {
            q.schedule(SimTime::from_ticks(i % 4), Rc::clone(&payload));
        }
        for i in 0..11 {
            q.schedule(SimTime::from_ticks(far + i), Rc::clone(&payload));
        }
        // Popped payloads leave `None` nodes on the free list behind.
        let mut run = Vec::new();
        q.pop_run(&mut run);
        let popped = q.pop().unwrap();
        assert_eq!(run.len() + 1, 4);
        assert!(q.wheel_len > 0 && !q.overflow.is_empty());
        assert_eq!(free_len(&q), 4);
        assert_eq!(Rc::strong_count(&payload), 1 + 23);
        drop((run, popped));
        assert_eq!(Rc::strong_count(&payload), 1 + 19);
        drop(q);
        assert_eq!(
            Rc::strong_count(&payload),
            1,
            "a payload leaked or dropped twice"
        );
    }

    #[test]
    fn slab_length_is_the_peak_near_tier_count() {
        // A long random interleaving of inserts (same-tick bursts, near
        // and far deltas) with both pop paths. The slab only grows when
        // the free list is empty, i.e. when the near tier sets a new
        // peak, so its final length *is* that peak.
        let mut rng = crate::SimRng::new(0x51AB);
        let mut q = EventQueue::new();
        let mut id = 0u64;
        let mut peak = 0usize;
        let mut run = Vec::new();
        for _ in 0..40_000 {
            if rng.chance(0.55) || q.is_empty() {
                let delta = match rng.next_below(8) {
                    0 => 0,
                    1..=3 => rng.next_below(64),
                    4..=6 => rng.next_below(4 * WHEEL_SLOTS as u64),
                    _ => rng.next_below(1 << 20),
                };
                let at = SimTime::from_ticks(q.now().ticks() + delta);
                for _ in 0..1 + rng.next_below(3) {
                    q.schedule(at, id);
                    id += 1;
                }
            } else if rng.next_below(3) < 2 {
                q.pop().unwrap();
            } else {
                run.clear();
                q.pop_run(&mut run).unwrap();
            }
            peak = peak.max(q.wheel_len);
            assert_eq!(q.nodes.len(), q.wheel_len + free_len(&q));
        }
        assert!(
            q.nodes.len() < id as usize / 4,
            "freed nodes were not reused"
        );
        assert_eq!(q.nodes.len(), peak);
        while q.pop().is_some() {}
        assert_eq!(
            q.nodes.len(),
            peak,
            "draining must not shrink or grow the slab"
        );
        assert_eq!(free_len(&q), peak);
    }

    #[test]
    fn iter_yields_exactly_the_pending_payloads() {
        // Schedules into both tiers, interleaved with both pop paths:
        // after every step `iter` yields each pending payload once and
        // nothing from a freed node.
        let mut rng = crate::SimRng::new(0x17E2);
        let mut q = EventQueue::new();
        let mut pending = std::collections::BTreeSet::new();
        let mut id = 0u64;
        let mut run = Vec::new();
        let mut saw_overflow = false;
        for _ in 0..5_000 {
            if rng.chance(0.55) || q.is_empty() {
                let delta = match rng.next_below(4) {
                    0 => 0,
                    1 | 2 => rng.next_below(WHEEL_SLOTS as u64),
                    _ => WHEEL_SLOTS as u64 + rng.next_below(1 << 16),
                };
                q.schedule(SimTime::from_ticks(q.now().ticks() + delta), id);
                pending.insert(id);
                id += 1;
            } else if rng.chance(0.5) {
                assert!(pending.remove(&q.pop().unwrap().1));
            } else {
                run.clear();
                q.pop_run(&mut run).unwrap();
                for e in &run {
                    assert!(pending.remove(e));
                }
            }
            saw_overflow |= !q.overflow.is_empty();
            let mut seen: Vec<u64> = q.iter().copied().collect();
            assert_eq!(seen.len(), q.len());
            seen.sort_unstable();
            assert!(seen.iter().eq(pending.iter()));
        }
        assert!(saw_overflow, "no event reached the overflow heap");
        assert!(free_len(&q) > 0, "no freed node was left to skip");
    }
}
