//! Sharded event queues: conservative parallel-DES building blocks.
//!
//! Two pieces live here, one per determinism regime:
//!
//! * [`ShardedEventQueue`] — N per-shard [`TimerWheel`]s merged through
//!   one global `(time, seq)` key. `seq` is assigned globally in
//!   schedule order and every pop takes the minimum `(time, seq)` over
//!   cached per-shard head keys, so the pop sequence is *identical* to
//!   a single [`EventQueue`](crate::EventQueue) for any shard count, by
//!   construction. This is the exact-merge (degenerate-window) mode the
//!   system simulator runs in: shard count is observationally invisible
//!   and results stay byte-identical to the serial engine.
//! * [`WindowedEngine`] — a lock-step windowed conservative engine
//!   (YAWNS/CMB-style). Shards advance in windows bounded by the
//!   minimum cross-shard hop latency (the *lookahead*), execute their
//!   windows on parallel threads, and exchange cross-shard messages at
//!   window barriers through per-`(src, dst)` FIFO channels merged in
//!   canonical `(time, src_shard, seq)` order. Differentially tested
//!   against a scan-minimum serial reference in
//!   `crates/sim/tests/shard_prop.rs`.
//!
//! See `DESIGN.md` §9 for the lookahead derivation and the merge-order
//! contract both pieces share.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// An event queue partitioned into per-shard timer wheels whose pop
/// order is byte-for-byte identical to a single [`EventQueue`].
///
/// Each event is scheduled onto a caller-chosen shard (in the system
/// simulator: the rank the event touches). Scheduling stamps a *global*
/// sequence number; popping compares the cached head key `(time, seq)`
/// of every shard and takes the minimum. Since a single queue pops in
/// exactly nondecreasing `(time, seq)` order, the merged sequence is
/// the same no matter how events are distributed across shards — the
/// property `tests/determinism.rs` pins end-to-end.
///
/// [`EventQueue`]: crate::EventQueue
///
/// # Example
///
/// ```
/// use ndpb_sim::shard::ShardedEventQueue;
/// use ndpb_sim::SimTime;
///
/// let mut q = ShardedEventQueue::new(2);
/// q.schedule(SimTime::from_ticks(5), 1, 'b');
/// q.schedule(SimTime::from_ticks(5), 0, 'c');
/// q.schedule(SimTime::from_ticks(1), 1, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct ShardedEventQueue<E> {
    wheels: Vec<TimerWheel<E>>,
    /// Cached `(time, seq)` of each shard's earliest pending event.
    /// Maintained incrementally: a schedule can only improve its own
    /// shard's head, and a pop re-peeks only the shard it popped from.
    heads: Vec<Option<(SimTime, u64)>>,
    seq: u64,
    now: SimTime,
    /// Per-wheel scan clocks: the timestamp of each wheel's last pop.
    /// A wheel's circular near-tier scan is only correct from a base
    /// that is ≤ every event pending in *that* wheel; under windowed
    /// execution the wheels advance at different rates, so the global
    /// clock alone is not a valid base for every wheel. Insert/pop on
    /// wheel `s` always use `max(now, nows[s])` — in exact-merge mode
    /// `now >= nows[s]` holds and behavior is identical to a single
    /// global clock.
    nows: Vec<SimTime>,
    popped: u64,
}

impl<E> ShardedEventQueue<E> {
    /// Creates an empty queue with `shards` wheels and the clock at
    /// [`SimTime::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::build(shards, TimerWheel::new)
    }

    /// Creates an empty queue whose wheels' near tiers initially cover
    /// at least `horizon` ticks (see [`TimerWheel::with_horizon`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_horizon(shards: usize, horizon: u64) -> Self {
        Self::build(shards, || TimerWheel::with_horizon(horizon))
    }

    fn build(shards: usize, mk: impl Fn() -> TimerWheel<E>) -> Self {
        assert!(shards > 0, "a sharded queue needs at least one shard");
        ShardedEventQueue {
            wheels: (0..shards).map(|_| mk()).collect(),
            heads: vec![None; shards],
            seq: 0,
            now: SimTime::ZERO,
            nows: vec![SimTime::ZERO; shards],
            popped: 0,
        }
    }

    /// Number of shards (fixed at construction).
    #[inline]
    pub fn shards(&self) -> usize {
        self.wheels.len()
    }

    /// Current simulation time: the timestamp of the most recently
    /// popped event (zero before the first pop). Global — all shards
    /// share one clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far across all shards.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of pending events across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheels.iter().map(TimerWheel::len).sum()
    }

    /// Whether no events are pending on any shard.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.wheels.iter().all(TimerWheel::is_empty)
    }

    /// Schedules `event` at absolute time `at` on `shard`.
    ///
    /// The sequence number is global, so ties at one timestamp break in
    /// schedule order even across shards — exactly the single-queue
    /// FIFO contract.
    ///
    /// # Panics
    ///
    /// Panics if `at` is strictly earlier than the current time, or if
    /// `shard` is out of range.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, shard: usize, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let base = self.now.max(self.nows[shard]);
        self.wheels[shard].insert(base, at, seq, event);
        // Later seq: this event only becomes the shard head on a
        // strictly earlier timestamp.
        match self.heads[shard] {
            Some((t, _)) if t <= at => {}
            _ => self.heads[shard] = Some((at, seq)),
        }
    }

    /// Pops the globally next event — minimum `(time, seq)` over all
    /// shard heads — advancing the shared clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (s, head) in self.heads.iter().enumerate() {
            if let Some((t, q)) = *head {
                if best.is_none_or(|(bt, bq, _)| (t, q) < (bt, bq)) {
                    best = Some((t, q, s));
                }
            }
        }
        let (_, _, s) = best?;
        let base = self.now.max(self.nows[s]);
        let ((at, _seq, event), next) = self.wheels[s]
            .pop_with_key(base)
            .expect("cached head vanished");
        debug_assert!(at >= self.now);
        self.now = at;
        self.nows[s] = at;
        self.popped += 1;
        self.heads[s] = next;
        Some((at, event))
    }

    /// Pops a maximal run of globally-consecutive events from one
    /// shard — in exactly the order repeated [`pop`](Self::pop) calls
    /// would yield them — appending the events to `out` and advancing
    /// the shared clock to their common timestamp, which is returned.
    ///
    /// One scan over the cached heads finds both the winning shard
    /// *and* the best key on any other shard; the winner's wheel then
    /// drains its front bucket up to that bound
    /// ([`TimerWheel::pop_run`]), so the per-event cost of the batch is
    /// unlinking one slab node from the bucket's list instead of a head
    /// scan + bitmap walk + heap peek. Equivalence with single pops
    /// holds because keys are globally unique and every event scheduled
    /// *during* the batch's dispatch gets a strictly larger seq at
    /// `at >= now`, i.e. it cannot order before anything already in the
    /// batch.
    #[inline]
    pub fn pop_run(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let mut best: Option<((SimTime, u64), usize)> = None;
        let mut second: Option<(SimTime, u64)> = None;
        for (s, head) in self.heads.iter().enumerate() {
            let Some(k) = *head else { continue };
            match best {
                Some((bk, _)) if bk < k => {
                    if second.is_none_or(|sk| k < sk) {
                        second = Some(k);
                    }
                }
                _ => {
                    second = best.map(|(bk, _)| bk);
                    best = Some((k, s));
                }
            }
        }
        let (_, s) = best?;
        let base = self.now.max(self.nows[s]);
        let before = out.len();
        let (at, next) = self.wheels[s]
            .pop_run(base, second, out)
            .expect("cached head vanished");
        debug_assert!(at >= self.now);
        self.now = at;
        self.nows[s] = at;
        self.popped += (out.len() - before) as u64;
        self.heads[s] = next;
        Some(at)
    }

    /// Timestamp of the next pending event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heads.iter().flatten().min().map(|&(t, _)| t)
    }

    /// Minimum `(time, seq)` key over all shard heads — the key the
    /// next [`pop`](Self::pop) would take, without popping it.
    #[inline]
    pub fn min_head_key(&self) -> Option<(SimTime, u64)> {
        self.heads.iter().flatten().min().copied()
    }

    /// How many shards have a pending event with key strictly below
    /// `key`. The windowed engine uses this to skip opening a parallel
    /// window (and paying its barrier) when at most one lane would have
    /// any work before the stop key.
    #[inline]
    pub fn shards_with_head_below(&self, key: (SimTime, u64)) -> usize {
        self.heads.iter().flatten().filter(|&&k| k < key).count()
    }

    /// Next global sequence number to be assigned (without consuming
    /// it). Every event already scheduled has a strictly smaller seq.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Consumes and returns the next global sequence number, exactly as
    /// [`schedule`](Self::schedule) would stamp it. Used by callers that
    /// keep time-equal events *outside* the wheels (the windowed
    /// engine's global-class heap) but must preserve the single
    /// schedule-order tie-break across both populations.
    #[inline]
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Records a pop that happened outside the wheels (an event the
    /// caller stored externally, e.g. on the windowed engine's
    /// global-class heap): advances the shared clock and the popped
    /// counter exactly as [`pop`](Self::pop) would have.
    #[inline]
    pub fn note_external_pop(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "external pop in the past");
        self.now = at;
        self.popped += 1;
    }

    /// Splits the queue into one pop-only [`ShardLane`] per shard, for
    /// a parallel window. Each lane independently drains *its own*
    /// wheel (it can never insert); when the window closes, fold the
    /// [`LaneOutcome`]s back with [`absorb_lanes`](Self::absorb_lanes).
    pub fn lane_views(&mut self) -> Vec<ShardLane<'_, E>> {
        let now = self.now;
        let heads = &self.heads;
        let nows = &self.nows;
        self.wheels
            .iter_mut()
            .enumerate()
            .map(|(s, wheel)| ShardLane {
                wheel,
                now: now.max(nows[s]),
                head: heads[s],
                popped: 0,
                shard: s,
            })
            .collect()
    }

    /// Folds parallel-window [`LaneOutcome`]s back into the queue:
    /// per-wheel clocks and cached heads take the lanes' final values
    /// and the popped counter absorbs the lanes' pops. The global clock
    /// is *not* advanced — the next leader pop does that.
    pub fn absorb_lanes(&mut self, outcomes: impl IntoIterator<Item = LaneOutcome>) {
        for o in outcomes {
            self.nows[o.shard] = o.now;
            self.heads[o.shard] = o.head;
            self.popped += o.popped;
        }
    }
}

/// A pop-only view of one shard's wheel, handed out by
/// [`ShardedEventQueue::lane_views`] for the duration of one parallel
/// window. The lane can peek and pop its own wheel but never insert —
/// window-created events stay in lane-local storage until the barrier,
/// which is what keeps the global sequence numbering serial-exact.
pub struct ShardLane<'a, E> {
    wheel: &'a mut TimerWheel<E>,
    /// This wheel's clock: timestamp of its last pop (the insert/scan
    /// base for the underlying wheel).
    pub now: SimTime,
    head: Option<(SimTime, u64)>,
    /// Events popped by this lane during the window.
    pub popped: u64,
    /// The shard index this lane drains.
    pub shard: usize,
}

impl<E> ShardLane<'_, E> {
    /// `(time, seq)` key of this wheel's earliest pending event.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.head
    }

    /// Pops this wheel's earliest event, advancing the lane clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.head?;
        let ((at, seq, event), next) = self
            .wheel
            .pop_with_key(self.now)
            .expect("cached lane head vanished");
        debug_assert!(at >= self.now);
        self.now = at;
        self.head = next;
        self.popped += 1;
        Some((at, seq, event))
    }

    /// Closes the lane, returning the state [`ShardedEventQueue::absorb_lanes`]
    /// folds back in.
    #[inline]
    pub fn finish(self) -> LaneOutcome {
        LaneOutcome {
            shard: self.shard,
            now: self.now,
            head: self.head,
            popped: self.popped,
        }
    }
}

/// Final state of a [`ShardLane`] after one parallel window.
#[derive(Debug, Clone, Copy)]
pub struct LaneOutcome {
    /// Shard index the lane drained.
    pub shard: usize,
    /// The wheel's clock after the lane's last pop.
    pub now: SimTime,
    /// The wheel's head key after the lane's last pop.
    pub head: Option<(SimTime, u64)>,
    /// Events the lane popped.
    pub popped: u64,
}

/// Places the next conservative window from per-shard minimum pending
/// times: the window is `lookahead` wide, aligned to multiples of it,
/// and chosen so it contains the globally earliest pending event —
/// `start = floor(min/lookahead) * lookahead`, `end = start + lookahead`.
///
/// Returns `None` when no shard has anything pending (the run is done).
/// This is the YAWNS-style horizon rule both [`WindowedEngine`] and the
/// system simulator's windowed mode share; the property suite pins it
/// against a serial scan-minimum reference with randomized hop
/// latencies.
///
/// # Panics
///
/// Panics if `lookahead` is zero.
pub fn safe_horizon(
    mins: impl IntoIterator<Item = Option<SimTime>>,
    lookahead: SimTime,
) -> Option<(SimTime, SimTime)> {
    assert!(
        lookahead > SimTime::ZERO,
        "safe horizon needs a positive lookahead"
    );
    let gmin = mins.into_iter().flatten().min()?;
    let la = lookahead.ticks();
    let start = SimTime::from_ticks(gmin.ticks() / la * la);
    Some((start, start + lookahead))
}

/// Per-shard behavior driven by the [`WindowedEngine`].
pub trait ShardLogic: Send {
    /// Event payload delivered to [`handle`](Self::handle).
    type Event: Send;

    /// Handles one event at `now`, emitting follow-up events through
    /// `out` ([`Outbox::local`] for same-shard, [`Outbox::remote`] for
    /// cross-shard).
    fn handle(&mut self, now: SimTime, ev: Self::Event, out: &mut Outbox<'_, Self::Event>);
}

/// A cross-shard message in flight: emitted during one window, merged
/// into the destination's wheel at the next window barrier.
#[derive(Debug)]
struct Envelope<E> {
    at: SimTime,
    src: usize,
    dst: usize,
    /// Per-source emission counter: the canonical-merge tie-breaker.
    seq: u64,
    ev: E,
}

/// Handler-side view of a shard's outgoing schedule during one event.
///
/// Local events may land at any time at or after the current event.
/// Cross-shard events must arrive at least one *lookahead* later — that
/// bound is exactly what makes the lock-step window safe to execute in
/// parallel (no message emitted inside a window can be due inside it).
pub struct Outbox<'a, E> {
    src: usize,
    now: SimTime,
    lookahead: SimTime,
    local: &'a mut Vec<(SimTime, E)>,
    remote: &'a mut Vec<Envelope<E>>,
    emit_seq: &'a mut u64,
    min_remote: &'a mut Option<SimTime>,
}

impl<E> Outbox<'_, E> {
    /// Timestamp of the event being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` on this shard at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current event.
    pub fn local(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "local event scheduled in the past: at={:?} now={:?}",
            at,
            self.now
        );
        self.local.push((at, ev));
    }

    /// Sends `ev` to shard `dst`, arriving at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this shard, or if `at` violates the engine's
    /// lookahead — a cross-shard message may never arrive sooner than
    /// its minimum hop latency.
    pub fn remote(&mut self, at: SimTime, dst: usize, ev: E) {
        assert!(dst != self.src, "remote() to own shard {dst}; use local()");
        assert!(
            at >= self.now + self.lookahead,
            "cross-shard message under the lookahead: at={:?} now={:?} lookahead={:?}",
            at,
            self.now,
            self.lookahead
        );
        let seq = *self.emit_seq;
        *self.emit_seq += 1;
        *self.min_remote = Some(match *self.min_remote {
            Some(m) => m.min(at),
            None => at,
        });
        self.remote.push(Envelope {
            at,
            src: self.src,
            dst,
            seq,
            ev,
        });
    }
}

/// A lock-step windowed conservative parallel-DES engine.
///
/// Each shard owns a [`ShardLogic`] and a [`TimerWheel`] and runs on
/// its own thread. Execution proceeds in global windows of width
/// `lookahead`, aligned to multiples of it: a window starts at
/// `floor(min pending time / lookahead) * lookahead`, so the window
/// containing the globally earliest pending event is always executed
/// next (no shard is ever starved, and empty stretches of virtual time
/// are skipped in one hop). Within a window every shard pops and
/// handles its own events independently — safe because cross-shard
/// messages arrive at least one lookahead after emission, i.e. never
/// inside the window they were emitted in.
///
/// At the window barrier, emitted envelopes move through per-
/// `(src, dst)` FIFO channels and each destination merges its inbound
/// batch in canonical `(time, src_shard, seq)` order before stamping
/// destination-local sequence numbers. That single rule makes the
/// parallel schedule deterministic: reruns and the serial reference
/// produce identical per-shard handle logs.
pub struct WindowedEngine<L: ShardLogic> {
    shards: Vec<ShardState<L>>,
    lookahead: SimTime,
}

struct ShardState<L: ShardLogic> {
    logic: L,
    wheel: TimerWheel<L::Event>,
    now: SimTime,
    /// Local insertion order — the FIFO tie-break within this wheel.
    seq: u64,
    /// Emission counter for outbound envelopes (canonical-merge key).
    emit_seq: u64,
}

impl<L: ShardLogic> WindowedEngine<L> {
    /// Creates an engine with one shard per element of `logics`.
    ///
    /// `lookahead` is the minimum cross-shard hop latency: the engine's
    /// window width and the bound [`Outbox::remote`] enforces.
    ///
    /// # Panics
    ///
    /// Panics if `logics` is empty or `lookahead` is zero.
    pub fn new(logics: Vec<L>, lookahead: SimTime) -> Self {
        assert!(
            !logics.is_empty(),
            "windowed engine needs at least one shard"
        );
        assert!(
            lookahead > SimTime::ZERO,
            "windowed engine needs a positive lookahead"
        );
        WindowedEngine {
            shards: logics
                .into_iter()
                .map(|logic| ShardState {
                    logic,
                    wheel: TimerWheel::new(),
                    now: SimTime::ZERO,
                    seq: 0,
                    emit_seq: 0,
                })
                .collect(),
            lookahead,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Seeds an initial event on `shard` at absolute time `at`.
    pub fn seed(&mut self, shard: usize, at: SimTime, ev: L::Event) {
        let st = &mut self.shards[shard];
        let seq = st.seq;
        st.seq += 1;
        st.wheel.insert(st.now, at, seq, ev);
    }

    /// Runs every shard to completion in parallel and returns the
    /// logics (in shard order) for inspection.
    ///
    /// Deterministic: the per-shard sequence of handled events is a
    /// pure function of the seeds and the logics, independent of thread
    /// scheduling. A panic inside a [`ShardLogic::handle`] is caught,
    /// the engine winds down at the next barrier, and the first panic
    /// payload is re-raised on the calling thread.
    pub fn run(self) -> Vec<L> {
        let WindowedEngine { shards, lookahead } = self;
        let n = shards.len();
        // Per-(src, dst) FIFO channels, double-buffered by round parity
        // so a destination drains round r-1's envelopes while round r's
        // writes land in the other buffer — no ordering race.
        type Channel<E> = [Mutex<Vec<Envelope<E>>>; 2];
        let chan: Vec<Vec<Channel<L::Event>>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                    .collect()
            })
            .collect();
        // Each shard's earliest pending time (wheel head or undelivered
        // emission), republished every round; the barrier leader takes
        // the global minimum to place the next window.
        let mins: Vec<Mutex<Option<SimTime>>> = shards
            .iter()
            .map(|st| Mutex::new(st.wheel.peek(st.now)))
            .collect();
        let window = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let panicked = AtomicBool::new(false);
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let barrier = Barrier::new(n);

        let logics = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(me, mut st)| {
                    let (chan, mins, window, done, panicked, panic_slot, barrier) = (
                        &chan,
                        &mins,
                        &window,
                        &done,
                        &panicked,
                        &panic_slot,
                        &barrier,
                    );
                    scope.spawn(move || {
                        let mut round: usize = 0;
                        let mut local: Vec<(SimTime, L::Event)> = Vec::new();
                        let mut remote: Vec<Envelope<L::Event>> = Vec::new();
                        loop {
                            if barrier.wait().is_leader() {
                                let horizon = safe_horizon(
                                    mins.iter().map(|m| *m.lock().unwrap()),
                                    lookahead,
                                );
                                match horizon {
                                    Some((ws, _)) if !panicked.load(Ordering::SeqCst) => {
                                        window.store(ws.ticks(), Ordering::SeqCst);
                                    }
                                    _ => done.store(true, Ordering::SeqCst),
                                }
                            }
                            barrier.wait();
                            if done.load(Ordering::SeqCst) {
                                break;
                            }
                            let ws = SimTime::from_ticks(window.load(Ordering::SeqCst));
                            let we = ws + lookahead;
                            // Merge last round's inbound envelopes in
                            // canonical order, stamping local seqs.
                            let mut inbox: Vec<Envelope<L::Event>> = Vec::new();
                            for from_src in chan {
                                inbox.append(&mut from_src[me][round & 1].lock().unwrap());
                            }
                            inbox.sort_by_key(|e| (e.at, e.src, e.seq));
                            for env in inbox {
                                let seq = st.seq;
                                st.seq += 1;
                                st.wheel.insert(st.now, env.at, seq, env.ev);
                            }
                            // Execute everything due inside [ws, we).
                            let mut min_remote: Option<SimTime> = None;
                            let caught = catch_unwind(AssertUnwindSafe(|| {
                                while let Some(t) = st.wheel.peek(st.now) {
                                    if t >= we {
                                        break;
                                    }
                                    let (at, _, ev) =
                                        st.wheel.pop(st.now).expect("peeked event vanished");
                                    st.now = at;
                                    let mut out = Outbox {
                                        src: me,
                                        now: at,
                                        lookahead,
                                        local: &mut local,
                                        remote: &mut remote,
                                        emit_seq: &mut st.emit_seq,
                                        min_remote: &mut min_remote,
                                    };
                                    st.logic.handle(at, ev, &mut out);
                                    for (lat, lev) in local.drain(..) {
                                        let seq = st.seq;
                                        st.seq += 1;
                                        st.wheel.insert(st.now, lat, seq, lev);
                                    }
                                }
                            }));
                            if let Err(payload) = caught {
                                panicked.store(true, Ordering::SeqCst);
                                let mut slot = panic_slot.lock().unwrap();
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                            }
                            // Hand this round's emissions to their
                            // destinations for the next round's drain
                            // (push order preserves per-(src,dst) FIFO).
                            for env in remote.drain(..) {
                                let dst = env.dst;
                                chan[me][dst][(round + 1) & 1].lock().unwrap().push(env);
                            }
                            *mins[me].lock().unwrap() = match (st.wheel.peek(st.now), min_remote) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                (a, b) => a.or(b),
                            };
                            round += 1;
                        }
                        st
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(st) => st.logic,
                    Err(payload) => resume_unwind(payload),
                })
                .collect()
        });
        if let Some(payload) = panic_slot.lock().unwrap().take() {
            resume_unwind(payload);
        }
        logics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventQueue;
    use crate::rng::SimRng;
    use crate::wheel::WHEEL_SLOTS;

    /// The headline contract: for ANY shard assignment, the merged pop
    /// sequence equals a single queue's, byte for byte.
    #[test]
    fn sharded_pop_order_matches_single_queue() {
        for &shards in &[1usize, 2, 3, 4, 7] {
            let mut rng = SimRng::new(0xBEEF + shards as u64);
            let mut single = EventQueue::new();
            let mut sharded = ShardedEventQueue::with_horizon(shards, 128);
            let mut id = 0u32;
            let mut got = Vec::new();
            let mut want = Vec::new();
            for _ in 0..4_000 {
                if rng.chance(0.6) || single.is_empty() {
                    let off = match rng.next_below(8) {
                        0 => 0,
                        1..=4 => rng.next_below(64),
                        5..=6 => rng.next_below(WHEEL_SLOTS as u64),
                        _ => WHEEL_SLOTS as u64 * rng.next_below(4) + rng.next_below(10_000),
                    };
                    let at = SimTime::from_ticks(single.now().ticks() + off);
                    let shard = rng.next_below(shards as u64) as usize;
                    single.schedule(at, id);
                    sharded.schedule(at, shard, id);
                    id += 1;
                } else {
                    want.push(single.pop());
                    got.push(sharded.pop());
                }
            }
            loop {
                let w = single.pop();
                let g = sharded.pop();
                let end = w.is_none() && g.is_none();
                want.push(w);
                got.push(g);
                if end {
                    break;
                }
            }
            assert_eq!(got, want, "divergence at shards={shards}");
            assert_eq!(sharded.popped(), single.popped());
            assert_eq!(sharded.now(), single.now());
        }
    }

    #[test]
    fn counters_and_peek() {
        let mut q = ShardedEventQueue::new(2);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ticks(9), 1, 'a');
        q.schedule(SimTime::from_ticks(4), 0, 'b');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(4)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(4), 'b')));
        assert_eq!(q.now(), SimTime::from_ticks(4));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(9), 'a')));
        assert_eq!(q.popped(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_ties_break_by_global_schedule_order_across_shards() {
        let mut q = ShardedEventQueue::new(3);
        for i in 0..30u32 {
            q.schedule(SimTime::from_ticks(7), (i % 3) as usize, i);
        }
        for i in 0..30 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_before_now_panics() {
        let mut q = ShardedEventQueue::new(2);
        q.schedule(SimTime::from_ticks(10), 0, ());
        q.pop();
        q.schedule(SimTime::from_ticks(5), 1, ());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedEventQueue::<()>::new(0);
    }

    // ---- windowed engine smoke tests (the property suite lives in
    // tests/shard_prop.rs) ------------------------------------------------

    /// Logs every handled event; forwards a token around the ring a
    /// fixed number of hops.
    #[derive(Clone)]
    struct Ring {
        me: usize,
        n: usize,
        log: Vec<(u64, u32)>,
    }

    impl ShardLogic for Ring {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hop: u32, out: &mut Outbox<'_, u32>) {
            self.log.push((now.ticks(), hop));
            if hop == 0 {
                return;
            }
            let dst = (self.me + 1) % self.n;
            if dst == self.me {
                out.local(now + SimTime::from_ticks(10), hop - 1);
            } else {
                out.remote(now + SimTime::from_ticks(10), dst, hop - 1);
            }
        }
    }

    fn ring(n: usize, hops: u32) -> WindowedEngine<Ring> {
        let logics = (0..n)
            .map(|me| Ring {
                me,
                n,
                log: Vec::new(),
            })
            .collect();
        let mut eng = WindowedEngine::new(logics, SimTime::from_ticks(10));
        eng.seed(0, SimTime::from_ticks(3), hops);
        eng
    }

    #[test]
    fn ring_token_visits_every_shard_in_order() {
        let n = 4;
        let hops = 11;
        let logics = ring(n, hops).run();
        let all: Vec<(usize, u64, u32)> = {
            let mut v: Vec<_> = logics
                .iter()
                .enumerate()
                .flat_map(|(s, l)| l.log.iter().map(move |&(t, h)| (s, t, h)))
                .collect();
            v.sort_by_key(|&(_, t, _)| t);
            v
        };
        assert_eq!(all.len(), hops as usize + 1);
        for (i, &(s, t, h)) in all.iter().enumerate() {
            assert_eq!(s, i % n);
            assert_eq!(t, 3 + 10 * i as u64);
            assert_eq!(h, hops - i as u32);
        }
    }

    #[test]
    fn engine_is_deterministic_across_runs() {
        let a: Vec<Vec<(u64, u32)>> = ring(3, 20).run().into_iter().map(|l| l.log).collect();
        let b: Vec<Vec<(u64, u32)>> = ring(3, 20).run().into_iter().map(|l| l.log).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cross-shard message under the lookahead")]
    fn lookahead_violation_panics_on_the_calling_thread() {
        struct Bad;
        impl ShardLogic for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), out: &mut Outbox<'_, ()>) {
                out.remote(now + SimTime::from_ticks(1), 1, ());
            }
        }
        let mut eng = WindowedEngine::new(vec![Bad, Bad], SimTime::from_ticks(100));
        eng.seed(0, SimTime::ZERO, ());
        eng.run();
    }
}
