//! Two-tier timer wheel: the storage backend of [`EventQueue`].
//!
//! Nearly every event in this simulator is scheduled a bounded DRAM or bus
//! latency ahead of the clock — tens to a few thousand ticks (CAS ≈ 41
//! ticks, a gather round ≈ `I_min` = 4096 ticks at Table I geometry). A
//! comparison-based heap pays `O(log n)` per operation and a cache miss per
//! level for what is almost always a "schedule a few hundred ticks out"
//! pattern. The wheel turns that common case into `O(1)`:
//!
//! * **Near tier** — a calendar of per-tick FIFO buckets, one revolution
//!   wide. An event at absolute tick `t` with `t - now < horizon` lands in
//!   bucket `t % horizon`. Because the live window is exactly one
//!   revolution wide, a non-empty bucket always holds a single tick's
//!   events, in insertion order — FIFO within the bucket *is* the
//!   `(time, seq)` order. A two-level occupancy bitmap (summary words over
//!   slot words) finds the next non-empty bucket with a handful of bit
//!   operations instead of a scan.
//! * **Far tier** — a sorted overflow heap for events at or beyond the
//!   horizon (periodic `I_state` timers, congested bus grants). Overflow
//!   entries are never migrated into the wheel during steady state;
//!   [`TimerWheel::pop`] compares the wheel front against the heap front
//!   by `(time, seq)` and takes the smaller, so an old far-future event
//!   still pops before a younger same-tick event that was scheduled
//!   directly into the wheel.
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
//! its payloads in the heap entries themselves; it holds few events,
//! and an entry moves into the slab only when growth pulls it into the
//! near tier.
//!
//! # Horizon configuration and auto-tuning
//!
//! The near-tier horizon defaults to [`WHEEL_SLOTS`] ticks, which covers
//! every DRAM/bus latency of the NDP designs. Some schedules are
//! *far-heavy* — the host-only baseline accumulates multi-revolution
//! completion times under channel contention, pushing most inserts into
//! the overflow heap and losing the wheel's O(1) advantage (the H-design
//! regression noted after the wheel landed). Two mechanisms address this:
//!
//! * [`TimerWheel::with_horizon`] / [`EventQueue::with_horizon`] pick a
//!   larger initial horizon when the caller knows its latency profile.
//! * **Auto-tuning:** the wheel counts overflow inserts whose delta would
//!   fit under [`MAX_WHEEL_SLOTS`]; once [`GROW_TRIGGER`] such inserts
//!   accumulate, the horizon doubles (at least) to cover the largest of
//!   them, relinking the pending near-tier nodes into the wider calendar
//!   in `(time, seq)` order (payloads stay where they are in the slab)
//!   and pulling newly capturable overflow entries into the wheel.
//!   Growth is bounded by [`MAX_WHEEL_SLOTS`], so a stray far-future
//!   timer cannot balloon the calendar.
//!
//! Re-tiering never reorders anything: pop order is defined purely by
//! `(time, seq)`, independent of which tier an event happens to sit in,
//! so results are byte-identical for any horizon (the golden suites pin
//! this).
//!
//! The determinism contract is exactly the one the old `BinaryHeap`
//! implementation had: events pop in strictly nondecreasing `(time, seq)`
//! order, where `seq` is the global schedule order. `crates/sim/tests/`
//! pins this against a reference heap model with randomized schedules.
//!
//! [`EventQueue`]: crate::EventQueue
//! [`EventQueue::with_horizon`]: crate::EventQueue::with_horizon

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Default number of per-tick buckets in the near tier. Events scheduled
/// fewer than this many ticks ahead of the clock go to the wheel;
/// everything else goes to the overflow heap (until auto-tuning widens
/// the window).
///
/// 4096 ticks ≈ 1.7 µs covers every DRAM/bus latency and the Table I
/// gather interval; only the coarse periodic timers (`I_state` = 12000
/// ticks) and heavily congested bus grants overflow, and those are rare
/// enough in the NDP designs that heap cost on them is noise.
pub const WHEEL_SLOTS: usize = 4096;

/// Upper bound on the auto-tuned horizon (2^17 ticks ≈ 55 µs). Bounds
/// the calendar's memory: a far-future outlier beyond this never
/// triggers growth.
pub const MAX_WHEEL_SLOTS: usize = 1 << 17;

/// Capturable overflow inserts tolerated before the horizon grows. Each
/// pre-growth overflow insert costs one heap push — a few thousand of
/// them are noise, while a persistent far-heavy schedule (millions of
/// events) amortizes the one-off relinking instantly.
const GROW_TRIGGER: u64 = 2048;

/// Node index meaning "none": the end of a bucket list or of the free
/// list.
const NIL: u32 = u32::MAX;

/// A two-tier calendar queue ordering `(time, seq, event)` triples by
/// `(time, seq)`.
///
/// The wheel does not own the clock or the sequence counter — the caller
/// ([`EventQueue`]) passes `now` into [`insert`](Self::insert),
/// [`pop`](Self::pop) and [`peek`](Self::peek) and guarantees that
/// * every inserted `at` is `>= now`,
/// * `seq` values are inserted in strictly increasing order, and
/// * `now` only advances to timestamps returned by `pop` (so no pending
///   event is ever earlier than `now`).
///
/// [`EventQueue`]: crate::EventQueue
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// Current near-tier width in ticks; always a power of two in
    /// `[64, MAX_WHEEL_SLOTS]`.
    slots: usize,
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
    /// Overflow inserts since the last growth that a `MAX_WHEEL_SLOTS`
    /// wheel would have captured, and the widest such delta.
    capturable: u64,
    capturable_max: u64,
    /// Times the horizon grew (observability for tests/tuning).
    grows: u32,
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

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the default [`WHEEL_SLOTS`] horizon.
    /// Only the bucket and bitmap tables are allocated; the node slab
    /// grows on the first inserts.
    pub fn new() -> Self {
        Self::with_horizon(WHEEL_SLOTS as u64)
    }

    /// Creates an empty wheel whose near tier covers at least `horizon`
    /// ticks (rounded up to a power of two, clamped to
    /// `[64, MAX_WHEEL_SLOTS]`). Auto-tuning can still widen it later.
    pub fn with_horizon(horizon: u64) -> Self {
        let slots = horizon
            .clamp(64, MAX_WHEEL_SLOTS as u64)
            .next_power_of_two() as usize;
        TimerWheel {
            slots,
            buckets: vec![EMPTY_BUCKET; slots],
            words: vec![0; slots / 64],
            summary: vec![0; (slots / 64).div_ceil(64)],
            nodes: Vec::new(),
            free: NIL,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            capturable: 0,
            capturable_max: 0,
            grows: 0,
        }
    }

    /// Current near-tier width in ticks.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.slots
    }

    /// How many times auto-tuning widened the horizon.
    #[inline]
    pub fn grows(&self) -> u32 {
        self.grows
    }

    /// Total pending events across both tiers.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot_mask(&self) -> u64 {
        self.slots as u64 - 1
    }

    /// Places an event that is known to fall inside the near window.
    #[inline]
    fn insert_near(&mut self, at: SimTime, seq: u64, event: E) {
        let idx = (at.ticks() & self.slot_mask()) as usize;
        // The live window is exactly one wheel revolution wide, so a
        // live bucket holds a single tick.
        debug_assert!({
            let head = self.buckets[idx].head;
            head == NIL || self.nodes[head as usize].at == at
        });
        let n = self.alloc(at, seq, event);
        self.link(idx, n);
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
                .expect("timer wheel node slab is full");
            self.nodes.push(node);
            n
        }
    }

    /// Appends the unlinked node `n` to bucket `idx`, marking the bucket
    /// occupied if it was empty.
    #[inline]
    fn link(&mut self, idx: usize, n: u32) {
        let bucket = &mut self.buckets[idx];
        if bucket.head == NIL {
            bucket.head = n;
            self.words[idx >> 6] |= 1 << (idx & 63);
            self.summary[idx >> 12] |= 1 << ((idx >> 6) & 63);
        } else {
            self.nodes[bucket.tail as usize].next = n;
        }
        bucket.tail = n;
    }

    /// Unlinks the head node of the non-empty bucket `idx`, puts the node
    /// on the free list and returns its entry. The caller clears the
    /// occupancy bit if the bucket is now empty.
    #[inline]
    fn take_head(&mut self, idx: usize) -> (SimTime, u64, E) {
        let n = self.buckets[idx].head;
        let node = &mut self.nodes[n as usize];
        let event = node.event.take().expect("linked node without an event");
        self.buckets[idx].head = node.next;
        node.next = self.free;
        self.free = n;
        self.wheel_len -= 1;
        (node.at, node.seq, event)
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

    /// `(at, seq)` of bucket `idx`'s head node, or `None` if the bucket
    /// is empty.
    #[inline]
    fn head_key(&self, idx: usize) -> Option<(SimTime, u64)> {
        let head = self.buckets[idx].head;
        (head != NIL).then(|| {
            let node = &self.nodes[head as usize];
            (node.at, node.seq)
        })
    }

    /// Inserts `event` at `(at, seq)`. The caller guarantees `at >= now`
    /// and that `seq` is strictly greater than every previously inserted
    /// sequence number.
    #[inline]
    pub fn insert(&mut self, now: SimTime, at: SimTime, seq: u64, event: E) {
        debug_assert!(at >= now);
        let delta = at.ticks() - now.ticks();
        if delta < self.slots as u64 {
            self.insert_near(at, seq, event);
            return;
        }
        if delta < MAX_WHEEL_SLOTS as u64 && self.slots < MAX_WHEEL_SLOTS {
            self.capturable += 1;
            self.capturable_max = self.capturable_max.max(delta);
            if self.capturable >= GROW_TRIGGER {
                let target = self.capturable_max + 1;
                self.capturable = 0;
                self.capturable_max = 0;
                self.grow(now, target);
                if delta < self.slots as u64 {
                    self.insert_near(at, seq, event);
                    return;
                }
            }
        }
        self.overflow.push(Overflow { at, seq, event });
    }

    /// Widens the near tier to cover at least `target` ticks, relinking
    /// pending near-tier nodes into the wider calendar and pulling newly
    /// capturable overflow entries in. Pop order is unaffected — it is
    /// defined by `(time, seq)` regardless of tier.
    fn grow(&mut self, now: SimTime, target: u64) {
        let new_slots = target
            .min(MAX_WHEEL_SLOTS as u64)
            .next_power_of_two()
            .clamp(self.slots as u64 * 2, MAX_WHEEL_SLOTS as u64) as usize;
        if new_slots <= self.slots {
            return;
        }
        let old_buckets = std::mem::replace(&mut self.buckets, vec![EMPTY_BUCKET; new_slots]);
        self.slots = new_slots;
        self.words = vec![0; new_slots / 64];
        self.summary = vec![0; (new_slots / 64).div_ceil(64)];
        self.grows += 1;
        // Collect every node that belongs in the widened window: the old
        // near tier plus overflow entries now inside it (the heap front
        // carries the minimum time, so the first non-capturable entry
        // means the rest are non-capturable too). An overflow entry can
        // share a tick with near-tier events while carrying a *smaller*
        // seq — see `overflow_interleaves_with_wheel_by_seq` — so the
        // merged set is sorted by (time, seq) before relinking to keep
        // FIFO-within-bucket equal to seq order. Only the keys and node
        // indices move; payloads stay in their slab nodes.
        let mut pending: Vec<(SimTime, u64, u32)> = Vec::with_capacity(self.wheel_len);
        for bucket in &old_buckets {
            let mut n = bucket.head;
            while n != NIL {
                let node = &self.nodes[n as usize];
                pending.push((node.at, node.seq, n));
                n = node.next;
            }
        }
        while let Some(o) = self.overflow.peek() {
            if o.at.ticks() - now.ticks() >= new_slots as u64 {
                break;
            }
            let o = self.overflow.pop().expect("peeked entry vanished");
            let n = self.alloc(o.at, o.seq, o.event);
            self.wheel_len += 1;
            pending.push((o.at, o.seq, n));
        }
        pending.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        let mask = self.slot_mask();
        for (at, _, n) in pending {
            self.nodes[n as usize].next = NIL;
            self.link((at.ticks() & mask) as usize, n);
        }
    }

    /// Removes and returns the pending event with the smallest
    /// `(time, seq)`, or `None` if the wheel is empty.
    #[inline]
    pub fn pop(&mut self, now: SimTime) -> Option<(SimTime, u64, E)> {
        let wheel_front = self.front_bucket(now);
        let take_overflow = match (wheel_front, self.overflow.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((at, seq, _)), Some(o)) => (o.at, o.seq) < (at, seq),
        };
        if take_overflow {
            let o = self.overflow.pop().expect("peeked entry vanished");
            return Some((o.at, o.seq, o.event));
        }
        let (_, _, idx) = wheel_front.expect("non-overflow pop with empty wheel");
        let entry = self.take_head(idx);
        if self.buckets[idx].head == NIL {
            self.mark_empty(idx);
        }
        Some(entry)
    }

    /// Timestamp of the next pending event, without removing it.
    #[inline]
    pub fn peek(&self, now: SimTime) -> Option<SimTime> {
        let wheel = self.front_bucket(now).map(|(at, _, _)| at);
        let heap = self.overflow.peek().map(|o| o.at);
        match (wheel, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drains the *run* at the head of the queue — the maximal prefix of
    /// same-tick events whose `(time, seq)` keys are strictly below this
    /// wheel's overflow front — appending the events to `out` in pop
    /// order.
    ///
    /// A live bucket holds exactly one tick's events in seq order, so
    /// the run is a prefix of its node list: one occupancy-bitmap scan
    /// and one overflow compare cover the whole batch, where a
    /// pop-at-a-time loop re-pays both per event. When the overflow
    /// front is the global minimum (rare — far-future timers), the run
    /// is that single heap entry.
    ///
    /// Returns the run's timestamp, or `None` if the wheel is empty. Pop
    /// order over repeated calls is byte-identical to single pops
    /// because the run boundary only ever *stops early* at a key that
    /// must interleave with the overflow tier.
    #[inline]
    pub fn pop_run(&mut self, now: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let wheel_front = self.front_bucket(now);
        let overflow_key = self.overflow.peek().map(|o| (o.at, o.seq));
        let take_overflow = match (wheel_front, overflow_key) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((at, seq, _)), Some(ok)) => ok < (at, seq),
        };
        if take_overflow {
            let o = self.overflow.pop().expect("peeked entry vanished");
            out.push(o.event);
            return Some(o.at);
        }
        let (at, _, idx) = wheel_front.expect("non-overflow pop with empty wheel");
        // The run must stop at the overflow front: an overflow entry can
        // share the tick with a *smaller* seq (see
        // `overflow_interleaves_with_wheel_by_seq`).
        let cap_seq = match overflow_key {
            Some((ot, os)) if ot == at => os,
            _ => u64::MAX,
        };
        while self.head_key(idx).is_some_and(|(_, seq)| seq < cap_seq) {
            out.push(self.take_head(idx).2);
        }
        if self.buckets[idx].head == NIL {
            self.mark_empty(idx);
        }
        Some(at)
    }

    /// `(at, seq, bucket_index)` of the earliest near-tier event, if any.
    #[inline]
    fn front_bucket(&self, now: SimTime) -> Option<(SimTime, u64, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let idx = self.next_occupied((now.ticks() & self.slot_mask()) as usize);
        let (at, seq) = self
            .head_key(idx)
            .expect("occupancy bit set on empty bucket");
        Some((at, seq, idx))
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
    /// Circular order from `now % slots` is tick order: every pending
    /// near-tier event lies in `[now, now + slots)`, and that window maps
    /// one-to-one onto the slots.
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

    fn drain<E>(w: &mut TimerWheel<E>) -> Vec<(SimTime, u64, E)> {
        let mut now = SimTime::ZERO;
        std::iter::from_fn(|| {
            let e = w.pop(now)?;
            now = e.0;
            Some(e)
        })
        .collect()
    }

    #[test]
    fn single_bucket_is_fifo() {
        let mut w = TimerWheel::new();
        for seq in 0..10u64 {
            w.insert(SimTime::ZERO, SimTime::from_ticks(3), seq, seq);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_interleaves_with_wheel_by_seq() {
        let mut w = TimerWheel::new();
        let far = SimTime::from_ticks(2 * WHEEL_SLOTS as u64);
        // seq 0 goes far-future (overflow tier).
        w.insert(SimTime::ZERO, far, 0, "overflow");
        // Clock moves close enough that the same tick is now near-tier.
        let now = SimTime::from_ticks(far.ticks() - 10);
        w.insert(now, far, 1, "wheel");
        assert_eq!(w.len(), 2);
        let (t1, s1, e1) = w.pop(now).unwrap();
        let (t2, s2, e2) = w.pop(far).unwrap();
        assert_eq!((t1, s1, e1), (far, 0, "overflow"));
        assert_eq!((t2, s2, e2), (far, 1, "wheel"));
    }

    #[test]
    fn slot_collision_across_revolutions_is_impossible_but_ordered() {
        // Tick t and t + WHEEL_SLOTS share a slot; the second must sit in
        // the overflow tier until the window advances past t.
        let mut w = TimerWheel::new();
        let t = SimTime::from_ticks(100);
        let t2 = SimTime::from_ticks(100 + WHEEL_SLOTS as u64);
        w.insert(SimTime::ZERO, t, 0, "near");
        w.insert(SimTime::ZERO, t2, 1, "far");
        let (a, _, ea) = w.pop(SimTime::ZERO).unwrap();
        let (b, _, eb) = w.pop(a).unwrap();
        assert_eq!((a, ea), (t, "near"));
        assert_eq!((b, eb), (t2, "far"));
    }

    #[test]
    fn occupancy_bitmap_survives_sparse_times() {
        let mut w = TimerWheel::new();
        // One event per occupancy word, popped in order.
        for i in 0..(WHEEL_SLOTS / 64) as u64 {
            w.insert(SimTime::ZERO, SimTime::from_ticks(i * 64 + 7), i, i);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..(WHEEL_SLOTS / 64) as u64).collect::<Vec<_>>());
        assert!(w.is_empty());
        assert!(w.summary.iter().all(|&s| s == 0));
    }

    #[test]
    fn horizon_is_configurable_and_clamped() {
        let w: TimerWheel<()> = TimerWheel::with_horizon(10_000);
        assert_eq!(w.horizon(), 16_384, "rounded up to a power of two");
        let w: TimerWheel<()> = TimerWheel::with_horizon(1);
        assert_eq!(w.horizon(), 64, "clamped below");
        let w: TimerWheel<()> = TimerWheel::with_horizon(u64::MAX);
        assert_eq!(w.horizon(), MAX_WHEEL_SLOTS, "clamped above");
    }

    #[test]
    fn wide_horizon_keeps_midrange_events_near_tier() {
        let mut w = TimerWheel::with_horizon(1 << 16);
        w.insert(SimTime::ZERO, SimTime::from_ticks(40_000), 0, "mid");
        assert_eq!(w.overflow.len(), 0, "inside the configured horizon");
        let (t, _, e) = w.pop(SimTime::ZERO).unwrap();
        assert_eq!((t, e), (SimTime::from_ticks(40_000), "mid"));
    }

    #[test]
    fn auto_growth_captures_far_heavy_schedules_in_order() {
        // Far-heavy, H-style: every event lands a few revolutions out.
        let mut w = TimerWheel::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..3 * GROW_TRIGGER {
            let at = SimTime::from_ticks(now.ticks() + 3 * WHEEL_SLOTS as u64 + round % 97);
            w.insert(now, at, seq, seq);
            seq += 1;
            if round % 2 == 0 {
                let (t, s, e) = w.pop(now).unwrap();
                now = t;
                popped.push((t, s, e));
            }
        }
        while let Some((t, s, e)) = w.pop(now) {
            now = t;
            popped.push((t, s, e));
        }
        assert!(w.grows() > 0, "far-heavy schedule must trigger growth");
        assert!(w.horizon() > WHEEL_SLOTS);
        // The pop stream respects the (time, seq) contract and is
        // complete, growth or not.
        assert!(popped
            .windows(2)
            .all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        let mut events: Vec<u64> = popped.iter().map(|&(_, _, e)| e).collect();
        events.sort_unstable();
        assert_eq!(events, (0..seq).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn growth_merges_same_tick_overflow_before_younger_near_events() {
        let mut w = TimerWheel::new();
        // seq 0 lands far-future (overflow tier) at tick t…
        let t = SimTime::from_ticks(WHEEL_SLOTS as u64 + 100);
        w.insert(SimTime::ZERO, t, 0, "old-overflow");
        // …then the clock advances until t is near-tier and seq 1 is
        // scheduled directly into the wheel at the same tick.
        let now = SimTime::from_ticks(101);
        w.insert(now, t, 1, "young-near");
        // A growth at this point merges both tiers into one bucket; the
        // overflow entry must keep its earlier-seq position.
        w.grow(now, 4 * WHEEL_SLOTS as u64);
        assert_eq!(w.overflow.len(), 0, "entry migrated into the wheel");
        let (t1, s1, e1) = w.pop(now).unwrap();
        let (t2, s2, e2) = w.pop(t).unwrap();
        assert_eq!((t1, s1, e1), (t, 0, "old-overflow"));
        assert_eq!((t2, s2, e2), (t, 1, "young-near"));
    }

    /// Length of the free list, walked through the nodes' `next` links.
    fn free_len<E>(w: &TimerWheel<E>) -> usize {
        let mut len = 0;
        let mut n = w.free;
        while n != NIL {
            assert!(
                w.nodes[n as usize].event.is_none(),
                "free node holds an event"
            );
            len += 1;
            n = w.nodes[n as usize].next;
        }
        len
    }

    #[test]
    fn dropping_the_wheel_drops_each_pending_payload_once() {
        use std::rc::Rc;
        let payload = Rc::new(());
        let far = SimTime::from_ticks(3 * WHEEL_SLOTS as u64);
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut insert = |w: &mut TimerWheel<Rc<()>>, now: SimTime, at: SimTime| {
            w.insert(now, at, seq, Rc::clone(&payload));
            seq += 1;
        };
        for i in 0..12 {
            insert(&mut w, SimTime::ZERO, SimTime::from_ticks(i % 4));
        }
        for i in 0..6 {
            insert(&mut w, SimTime::ZERO, SimTime::from_ticks(far.ticks() + i));
        }
        // Relink everything into a wider calendar (pulling the overflow
        // entries into the slab), then schedule past the new horizon so
        // both tiers hold events again.
        w.grow(SimTime::ZERO, 8 * WHEEL_SLOTS as u64);
        assert!(w.overflow.is_empty());
        for i in 0..5 {
            insert(
                &mut w,
                SimTime::ZERO,
                SimTime::from_ticks(64 * WHEEL_SLOTS as u64 + i),
            );
        }
        // Popped payloads leave `None` nodes on the free list behind.
        let mut run = Vec::new();
        w.pop_run(SimTime::ZERO, &mut run);
        let popped = w.pop(SimTime::ZERO).unwrap();
        assert_eq!(run.len() + 1, 4);
        assert!(w.wheel_len > 0 && !w.overflow.is_empty());
        assert_eq!(free_len(&w), 4);
        assert_eq!(Rc::strong_count(&payload), 1 + 23);
        drop((run, popped));
        assert_eq!(Rc::strong_count(&payload), 1 + 19);
        drop(w);
        assert_eq!(
            Rc::strong_count(&payload),
            1,
            "a payload leaked or dropped twice"
        );
    }

    #[test]
    fn slab_length_is_the_peak_near_tier_count() {
        // A long random interleaving of inserts (same-tick bursts, near,
        // far and growth-triggering deltas) with both pop paths.
        // The slab only grows when the free list is empty, i.e. when the
        // near tier sets a new peak, so its final length *is* that peak.
        let mut rng = crate::SimRng::new(0x51AB);
        let mut w = TimerWheel::with_horizon(64);
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let mut peak = 0usize;
        let mut run = Vec::new();
        for _ in 0..40_000 {
            if rng.chance(0.55) || w.is_empty() {
                let delta = match rng.next_below(8) {
                    0 => 0,
                    1..=3 => rng.next_below(64),
                    4..=6 => rng.next_below(4 * w.horizon() as u64),
                    _ => MAX_WHEEL_SLOTS as u64 + rng.next_below(1 << 20),
                };
                let at = SimTime::from_ticks(now.ticks() + delta);
                for _ in 0..1 + rng.next_below(3) {
                    w.insert(now, at, seq, seq);
                    seq += 1;
                }
            } else {
                now = if rng.next_below(3) < 2 {
                    w.pop(now).unwrap().0
                } else {
                    run.clear();
                    w.pop_run(now, &mut run).unwrap()
                };
            }
            peak = peak.max(w.wheel_len);
            assert_eq!(w.nodes.len(), w.wheel_len + free_len(&w));
        }
        assert!(w.grows() >= 2, "schedule must exercise relinking");
        assert!(
            w.nodes.len() < seq as usize / 4,
            "freed nodes were not reused"
        );
        assert_eq!(w.nodes.len(), peak);
        while let Some((t, _, _)) = w.pop(now) {
            now = t;
        }
        assert_eq!(
            w.nodes.len(),
            peak,
            "draining must not shrink or grow the slab"
        );
        assert_eq!(free_len(&w), peak);
    }

    #[test]
    fn growth_is_capped_and_ignores_uncapturable_outliers() {
        let mut w = TimerWheel::new();
        for seq in 0..3 * GROW_TRIGGER {
            // Far beyond MAX_WHEEL_SLOTS: never worth growing for.
            w.insert(
                SimTime::ZERO,
                SimTime::from_ticks(10 * MAX_WHEEL_SLOTS as u64 + seq),
                seq,
                seq,
            );
        }
        assert_eq!(w.grows(), 0);
        assert_eq!(w.horizon(), WHEEL_SLOTS);
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..3 * GROW_TRIGGER).collect::<Vec<_>>());
    }
}
