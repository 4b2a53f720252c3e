//! Property tests for the two-tier timer-wheel event queue.
//!
//! The queue's determinism contract — pops come out in strictly
//! nondecreasing `(time, seq)` order, where `seq` is global schedule
//! order — is checked against a deliberately dumb reference model (a
//! flat list scanned for its minimum) over randomized workloads that
//! exercise every storage path: same-tick bucket FIFO, near-window
//! buckets, far-future overflow-heap entries, events landing exactly at
//! `now`, ticks shared by an overflow entry and younger near-tier events,
//! and interleaved pops that slide the wheel window mid-stream.

use ndpb_sim::{EventQueue, SimRng, SimTime, WHEEL_SLOTS};

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

/// Spacing of the shared ticks that [`random_at`] snaps to.
const GRID: u64 = 1024;

/// One random absolute tick at or after `now`, mixing all tiers of the
/// queue: `now` itself, near buckets, anywhere in the window, just past
/// it, far future, and a grid of shared ticks up to two windows out. A
/// grid tick is often scheduled first from beyond the window (overflow)
/// and again once the window has reached it (near tier), so the older
/// overflow entry must pop before the younger near-tier events.
fn random_at(rng: &mut SimRng, now: u64) -> u64 {
    let slots = WHEEL_SLOTS as u64;
    match rng.next_below(12) {
        0 => now,                                                       // lands at `now`
        1..=4 => now + rng.next_below(64),                              // near bucket
        5..=7 => now + rng.next_below(slots),                           // anywhere in window
        8 => now + slots + rng.next_below(64),                          // just past the window
        9 => now + slots * rng.next_below(5) + rng.next_below(100_000), // far
        _ => (now + rng.next_below(2 * slots)).next_multiple_of(GRID),  // shared
    }
}

/// Runs `ops` random schedule/pop steps on a queue and on the reference
/// model, drains both, and asserts identical pop streams.
fn check_against_reference(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::new();
    let mut model = RefModel::default();
    let mut id = 0u32;
    let mut popped = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..ops {
        // Bias toward scheduling so the queue stays populated, but
        // interleave enough pops to advance `now` through several
        // wheel revolutions.
        if rng.chance(0.6) || model.pending.is_empty() {
            // Duplicate ticks on purpose: reuse the previous offset
            // sometimes so bucket FIFO order is exercised.
            let at = random_at(&mut rng, q.now().ticks());
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
}

#[test]
fn random_schedules_pop_identically_to_reference_model() {
    for seed in 0..8u64 {
        check_against_reference(0xF00D + seed, 4_000);
    }
}

#[test]
fn pop_order_is_nondecreasing_time_and_fifo_within_tick() {
    let mut rng = SimRng::new(99);
    let mut q = EventQueue::new();
    for id in 0..2_000u64 {
        q.schedule(
            SimTime::from_ticks(random_at(&mut rng, q.now().ticks())),
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
// `pop_run`, so these properties pin its contract: draining a queue
// through runs yields the byte-identical event sequence, run timestamps
// match the events they carry, and a run never spans ticks — over
// randomized schedules that cross the window (wrap-around) and share
// ticks between the overflow heap and the near tier.

/// Builds two identically-scheduled queues from one random script,
/// returning (batched queue, single-pop queue).
fn twin_queues(seed: u64, ops: usize) -> (EventQueue<u32>, EventQueue<u32>) {
    let mut rng = SimRng::new(seed);
    let mut a = EventQueue::new();
    let mut b = EventQueue::new();
    let mut id = 0u32;
    for _ in 0..ops {
        let at = random_at(&mut rng, a.now().ticks());
        let copies = if rng.chance(0.25) { 4 } else { 1 };
        for _ in 0..copies {
            a.schedule(SimTime::from_ticks(at), id);
            b.schedule(SimTime::from_ticks(at), id);
            id += 1;
        }
        // Interleaved draining slides the window so later schedules
        // exercise wrap-around and shared ticks in both.
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
        let (a, b) = twin_queues(0xBA7C + seed, 3_000);
        assert_batched_drain_matches(a, b, seed);
    }
}

#[test]
fn runs_never_span_ticks_and_clock_matches() {
    for seed in 0..4u64 {
        let (mut q, _) = twin_queues(0x5EED + seed, 2_000);
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
    // Two events scheduled beyond the window wait in the overflow tier;
    // once the window reaches their tick, two younger events for the
    // same tick go to the near tier. The tick then takes one run per
    // overflow entry and one for the bucket, and the concatenation is
    // still the FIFO order.
    let tick = WHEEL_SLOTS as u64 + 40;
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ticks(tick), 0u32); // overflow at schedule time
    q.schedule(SimTime::from_ticks(tick), 1); // also overflow
    q.schedule(SimTime::from_ticks(41), 2); // advances the window
    let mut runs = Vec::new();
    let mut run = Vec::new();
    let at = q.pop_run(&mut run).unwrap();
    runs.push((at.ticks(), std::mem::take(&mut run)));
    q.schedule(SimTime::from_ticks(tick), 3); // near tier now
    q.schedule(SimTime::from_ticks(tick), 4);
    while let Some(at) = q.pop_run(&mut run) {
        runs.push((at.ticks(), std::mem::take(&mut run)));
    }
    assert_eq!(
        runs,
        [
            (41, vec![2]),
            (tick, vec![0]),
            (tick, vec![1]),
            (tick, vec![3, 4])
        ]
    );
}
