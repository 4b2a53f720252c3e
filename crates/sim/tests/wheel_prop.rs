//! Property tests for the two-tier timer-wheel event queue.
//!
//! The queue's determinism contract — pops come out in strictly
//! nondecreasing `(time, seq)` order, where `seq` is global schedule
//! order — is checked against a deliberately dumb reference model (a
//! flat list scanned for its minimum) over randomized workloads that
//! exercise every storage path: same-tick bucket FIFO, near-horizon
//! buckets, far-future overflow-heap entries, events landing exactly at
//! `now`, and interleaved pops that slide the wheel window mid-stream.
//! The reference-model and batched-drain properties also run on a
//! 64-tick wheel under schedules that make its horizon grow several
//! times while events are pending, so relinking the node slab into a
//! wider calendar is covered too.

use ndpb_sim::wheel::{MAX_WHEEL_SLOTS, WHEEL_SLOTS};
use ndpb_sim::{EventQueue, SimRng, SimTime};

/// Reference model: every scheduled event in a flat list; popping scans
/// for the minimum `(time, seq)`. Obviously correct, O(n) per pop.
#[derive(Default)]
struct RefModel {
    pending: Vec<(u64, u64, u32)>, // (ticks, seq, id)
    seq: u64,
}

impl RefModel {
    fn schedule(&mut self, at: u64, id: u32) {
        self.pending.push((at, self.seq, id));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)?;
        let (t, _, id) = self.pending.swap_remove(i);
        Some((t, id))
    }
}

/// One random offset, mixing all tiers of the queue:
/// same-tick (`0`), near horizon, just-past-horizon, and far future.
fn random_offset(rng: &mut SimRng) -> u64 {
    match rng.next_below(10) {
        0 => 0,                                                                // lands at `now`
        1..=4 => rng.next_below(64),                                           // near bucket
        5..=7 => rng.next_below(WHEEL_SLOTS as u64),                           // anywhere in window
        8 => WHEEL_SLOTS as u64 + rng.next_below(64),                          // just past horizon
        _ => WHEEL_SLOTS as u64 * rng.next_below(5) + rng.next_below(100_000), // far
    }
}

/// One random offset scaled to the queue's current horizon: inside it,
/// one to three horizons past it (overflow inserts a wider wheel would
/// capture, which make the horizon grow), at `now`, or beyond
/// [`MAX_WHEEL_SLOTS`] (never captured).
fn growth_offset(rng: &mut SimRng, horizon: usize) -> u64 {
    let h = horizon as u64;
    match rng.next_below(10) {
        0 => 0,
        1..=3 => rng.next_below(h),
        4..=8 => h + rng.next_below(3 * h),
        _ => MAX_WHEEL_SLOTS as u64 + rng.next_below(100_000),
    }
}

/// Runs `ops` random schedule/pop steps on `q` and on the reference
/// model, drains both, and asserts identical pop streams. `offset`
/// draws each delay from the rng and the queue's current horizon.
/// Returns how many times the horizon changed while events were
/// pending.
fn check_against_reference(
    mut q: EventQueue<u32>,
    seed: u64,
    ops: usize,
    offset: fn(&mut SimRng, usize) -> u64,
) -> usize {
    let mut rng = SimRng::new(seed);
    let mut model = RefModel::default();
    let mut id = 0u32;
    let mut popped = Vec::new();
    let mut expected = Vec::new();
    let mut horizon = q.horizon();
    let mut growths = 0;
    for _ in 0..ops {
        // Bias toward scheduling so the queue stays populated, but
        // interleave enough pops to advance `now` through several
        // wheel revolutions.
        if rng.chance(0.6) || model.pending.is_empty() {
            // Duplicate ticks on purpose: reuse the previous offset
            // sometimes so bucket FIFO order is exercised.
            let at = q.now().ticks() + offset(&mut rng, q.horizon());
            let copies = if rng.chance(0.2) { 3 } else { 1 };
            for _ in 0..copies {
                q.schedule(SimTime::from_ticks(at), id);
                model.schedule(at, id);
                id += 1;
            }
        } else {
            popped.push(q.pop().map(|(t, e)| (t.ticks(), e)));
            expected.push(model.pop());
        }
        if q.horizon() != horizon {
            assert!(!q.is_empty(), "growth must happen mid-drain");
            horizon = q.horizon();
            growths += 1;
        }
    }
    // Drain both completely.
    loop {
        let got = q.pop().map(|(t, e)| (t.ticks(), e));
        let want = model.pop();
        let done = got.is_none() && want.is_none();
        popped.push(got);
        expected.push(want);
        if done {
            break;
        }
    }
    assert_eq!(popped, expected, "divergence from reference (seed {seed})");
    growths
}

#[test]
fn random_schedules_pop_identically_to_reference_model() {
    for seed in 0..8u64 {
        check_against_reference(EventQueue::new(), 0xF00D + seed, 4_000, |rng, _| {
            random_offset(rng)
        });
    }
}

#[test]
fn growing_horizon_pops_identically_to_reference_model() {
    for seed in 0..3u64 {
        let growths = check_against_reference(
            EventQueue::with_horizon(64),
            0x6E0 + seed,
            10_000,
            growth_offset,
        );
        assert!(growths >= 2, "horizon grew {growths} times (seed {seed})");
    }
}

#[test]
fn pop_order_is_nondecreasing_time_and_fifo_within_tick() {
    let mut rng = SimRng::new(99);
    let mut q = EventQueue::new();
    for id in 0..2_000u64 {
        q.schedule(
            SimTime::from_ticks(q.now().ticks() + random_offset(&mut rng)),
            id,
        );
        if rng.chance(0.3) {
            q.pop();
        }
    }
    let mut prev: Option<(SimTime, u64)> = None;
    let mut last_per_tick: Option<(SimTime, u64)> = None;
    while let Some((t, e)) = q.pop() {
        if let Some((pt, _)) = prev {
            assert!(t >= pt, "time went backwards: {t:?} after {pt:?}");
        }
        // Within one tick, ids that were scheduled in order must pop in
        // order (FIFO). Ids scheduled later *while draining* can have
        // larger values; the reference-model test covers full ordering,
        // this one just pins the monotone-time invariant plus per-tick
        // monotone seq.
        if let Some((lt, le)) = last_per_tick {
            if lt == t {
                assert!(e > le, "same-tick FIFO violated: {e} after {le}");
            }
        }
        last_per_tick = Some((t, e));
        prev = Some((t, e));
    }
}

#[test]
fn horizon_wraparound_keeps_revolutions_apart() {
    // Two events WHEEL_SLOTS ticks apart map to the same wheel slot.
    // The earlier one sits in the near window; the later one must wait
    // in the overflow tier (never the same bucket) and pop second, even
    // after the window slides across the slot multiple times.
    let mut q = EventQueue::new();
    let slots = WHEEL_SLOTS as u64;
    for rev in 0..4u64 {
        q.schedule(SimTime::from_ticks(17 + rev * slots), rev);
    }
    // Interleave filler so pops slide `now` through whole revolutions.
    for i in 0..4 * WHEEL_SLOTS as u64 {
        q.schedule(SimTime::from_ticks(i), 100 + i);
    }
    let mut revs_seen = Vec::new();
    while let Some((t, e)) = q.pop() {
        if e < 100 {
            assert_eq!(t.ticks(), 17 + e * slots, "revolution event mistimed");
            revs_seen.push(e);
        }
    }
    assert_eq!(revs_seen, [0, 1, 2, 3]);
}

#[test]
fn schedule_exactly_at_horizon_boundary() {
    // `now + WHEEL_SLOTS` is the first tick the near window cannot
    // hold; one tick earlier is the last it can. Both must round-trip.
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ticks(50), 0u32); // advance now to 50 first
    assert_eq!(q.pop().unwrap().1, 0);
    let now = q.now().ticks();
    q.schedule(SimTime::from_ticks(now + WHEEL_SLOTS as u64), 2);
    q.schedule(SimTime::from_ticks(now + WHEEL_SLOTS as u64 - 1), 1);
    assert_eq!(q.pop().unwrap().1, 1);
    assert_eq!(q.pop().unwrap().1, 2);
    assert!(q.pop().is_none());
}

#[test]
#[should_panic(expected = "scheduled event in the past")]
fn scheduling_before_now_panics() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ticks(10), ());
    q.pop();
    q.schedule(SimTime::from_ticks(9), ());
}

// ---- batched same-tick drains (`pop_run`) ------------------------------
//
// The batched dispatch loop replaces repeated `pop` calls with
// `pop_run`, so these properties pin the tentpole contract: draining a
// queue through runs yields the byte-identical event sequence, run
// timestamps match the events they carry, and a run never spans ticks —
// over randomized schedules that cross the horizon (wrap-around) and
// migrate events from the overflow heap into the near window.

/// Builds two identically-scheduled queues from one random script,
/// returning (batched queue, single-pop queue). `mk` builds each queue
/// and `offset` draws each delay from the rng and the current horizon.
fn twin_queues(
    seed: u64,
    ops: usize,
    mk: fn() -> EventQueue<u32>,
    offset: fn(&mut SimRng, usize) -> u64,
) -> (EventQueue<u32>, EventQueue<u32>) {
    let mut rng = SimRng::new(seed);
    let mut a = mk();
    let mut b = mk();
    let mut id = 0u32;
    for _ in 0..ops {
        let at = a.now().ticks() + offset(&mut rng, a.horizon());
        let copies = if rng.chance(0.25) { 4 } else { 1 };
        for _ in 0..copies {
            a.schedule(SimTime::from_ticks(at), id);
            b.schedule(SimTime::from_ticks(at), id);
            id += 1;
        }
        // Interleaved draining slides the window so later schedules
        // exercise wrap-around and overflow→near migration in both.
        if rng.chance(0.3) {
            let mut run = Vec::new();
            a.pop_run(&mut run);
            for _ in 0..run.len() {
                b.pop();
            }
        }
    }
    (a, b)
}

/// Drains `a` through `pop_run` and `b` through `pop` and asserts the
/// two `(tick, event)` streams are identical.
fn assert_batched_drain_matches(mut a: EventQueue<u32>, mut b: EventQueue<u32>, seed: u64) {
    let mut batched = Vec::new();
    let mut run = Vec::new();
    while let Some(at) = a.pop_run(&mut run) {
        for &e in &run {
            batched.push((at.ticks(), e));
        }
        run.clear();
    }
    let mut single = Vec::new();
    while let Some((t, e)) = b.pop() {
        single.push((t.ticks(), e));
    }
    assert_eq!(batched, single, "pop_run diverged from pop (seed {seed})");
    assert!(a.is_empty() && b.is_empty());
    assert_eq!(a.popped(), b.popped());
}

#[test]
fn batched_drain_is_byte_identical_to_single_pops() {
    for seed in 0..8u64 {
        let (a, b) = twin_queues(0xBA7C + seed, 3_000, EventQueue::new, |rng, _| {
            random_offset(rng)
        });
        assert_batched_drain_matches(a, b, seed);
    }
}

#[test]
fn batched_drain_across_horizon_growth_matches_single_pops() {
    for seed in 0..4u64 {
        let (a, b) = twin_queues(
            0x6B7C + seed,
            12_000,
            || EventQueue::with_horizon(64),
            growth_offset,
        );
        // `growth_offset` never asks a wheel of horizon `h` to cover more
        // than `4h`, so one growth takes 64 ticks to at most 256: a
        // horizon of 1024 or more took at least two.
        assert!(a.horizon() >= 1024, "horizon {} (seed {seed})", a.horizon());
        assert_eq!(a.horizon(), b.horizon());
        assert_batched_drain_matches(a, b, seed);
    }
}

#[test]
fn runs_never_span_ticks_and_clock_matches() {
    for seed in 0..4u64 {
        let (mut q, _) = twin_queues(0x5EED + seed, 2_000, EventQueue::new, |rng, _| {
            random_offset(rng)
        });
        let mut run = Vec::new();
        let mut prev: Option<u64> = None;
        while let Some(at) = q.pop_run(&mut run) {
            assert!(!run.is_empty(), "empty run returned Some");
            assert_eq!(q.now(), at, "clock must land on the run's tick");
            if let Some(p) = prev {
                assert!(at.ticks() >= p, "run time went backwards");
            }
            // All events of one run share one tick by construction; ids
            // within it are strictly increasing (same-tick FIFO).
            for w in run.windows(2) {
                assert!(w[0] < w[1], "same-tick FIFO violated inside a run");
            }
            prev = Some(at.ticks());
            run.clear();
        }
    }
}

#[test]
fn split_tick_runs_continue_on_the_next_call() {
    // An event just inside the horizon and one far beyond it can share
    // a tick once the window slides; the near/overflow split means one
    // tick may take several runs. The concatenation must still be the
    // FIFO order.
    let slots = WHEEL_SLOTS as u64;
    let mut q = EventQueue::new();
    let tick = slots + 40;
    q.schedule(SimTime::from_ticks(3), 0u32); // advances the window
    q.schedule(SimTime::from_ticks(tick), 1); // overflow at schedule time
    q.schedule(SimTime::from_ticks(3), 2);
    q.schedule(SimTime::from_ticks(tick), 3); // also overflow
    let mut order = Vec::new();
    let mut run = Vec::new();
    while let Some(at) = q.pop_run(&mut run) {
        for &e in &run {
            order.push((at.ticks(), e));
        }
        run.clear();
    }
    assert_eq!(order, [(3, 0), (3, 2), (tick, 1), (tick, 3)]);
}

#[test]
fn sharded_batched_drain_matches_sharded_single_pops() {
    use ndpb_sim::ShardedEventQueue;
    for &shards in &[1usize, 2, 3, 4] {
        for seed in 0..4u64 {
            let mut rng = SimRng::new(0xD0_0D + seed);
            let mut a = ShardedEventQueue::new(shards);
            let mut b = ShardedEventQueue::new(shards);
            for id in 0..2_000u32 {
                let at = a.now().ticks() + random_offset(&mut rng);
                let shard = rng.next_below(shards as u64) as usize;
                a.schedule(SimTime::from_ticks(at), shard, id);
                b.schedule(SimTime::from_ticks(at), shard, id);
                if rng.chance(0.3) {
                    let mut run = Vec::new();
                    a.pop_run(&mut run);
                    for _ in 0..run.len() {
                        b.pop();
                    }
                }
            }
            let mut batched = Vec::new();
            let mut run = Vec::new();
            while let Some(at) = a.pop_run(&mut run) {
                for &e in &run {
                    batched.push((at.ticks(), e));
                }
                run.clear();
            }
            let mut single = Vec::new();
            while let Some((t, e)) = b.pop() {
                single.push((t.ticks(), e));
            }
            assert_eq!(
                batched, single,
                "sharded pop_run diverged (shards {shards}, seed {seed})"
            );
            assert_eq!(a.popped(), b.popped());
        }
    }
}
