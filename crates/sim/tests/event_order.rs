//! Regression tests pinning the event queue's same-tick ordering
//! contract.
//!
//! The simulator relies on two properties for determinism:
//!
//! 1. events at the same `SimTime` pop in first-scheduled order (FIFO),
//!    regardless of how the timer wheel stores them (bucket FIFO or
//!    overflow heap);
//! 2. an event scheduled *at* `now()` from inside a handler (i.e. while
//!    popping another event of the same tick) neither panics nor jumps
//!    ahead of events already pending at that tick.
//!
//! Property 2 is the subtle one: a naive `at > now` guard would panic,
//! and a queue without a sequence tie-break could pop the late arrival
//! before earlier same-tick events.

use ndpb_sim::{EventQueue, SimTime};

#[test]
fn same_tick_events_pop_fifo_under_interleaved_scheduling() {
    let mut q = EventQueue::new();
    // Interleave two ticks; FIFO must hold per tick, time order across.
    q.schedule(SimTime::from_ticks(20), "t20-a");
    q.schedule(SimTime::from_ticks(10), "t10-a");
    q.schedule(SimTime::from_ticks(20), "t20-b");
    q.schedule(SimTime::from_ticks(10), "t10-b");
    q.schedule(SimTime::from_ticks(10), "t10-c");
    let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, ["t10-a", "t10-b", "t10-c", "t20-a", "t20-b"]);
}

#[test]
fn scheduling_at_now_during_pop_does_not_panic() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ticks(5), ());
    q.pop().unwrap();
    assert_eq!(q.now(), SimTime::from_ticks(5));
    // At exactly now(): legal (a handler chaining a zero-latency event).
    q.schedule(q.now(), ());
    q.schedule(SimTime::from_ticks(5), ());
    assert_eq!(q.pop().unwrap().0, SimTime::from_ticks(5));
    assert_eq!(q.pop().unwrap().0, SimTime::from_ticks(5));
}

#[test]
fn handler_spawned_same_tick_events_run_after_pending_ones() {
    // Drive a miniature event loop: popping event 0 at tick 7 schedules
    // a new event at tick 7. The new event must run after the events
    // that were already queued for tick 7, and before tick 8.
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ticks(7), 0u32);
    q.schedule(SimTime::from_ticks(7), 1);
    q.schedule(SimTime::from_ticks(7), 2);
    q.schedule(SimTime::from_ticks(8), 3);
    let mut order = Vec::new();
    while let Some((t, ev)) = q.pop() {
        order.push((t.ticks(), ev));
        if ev == 0 {
            // Same-tick chain, scheduled while now() == 7.
            q.schedule(q.now(), 100);
            q.schedule(q.now(), 101);
        }
    }
    assert_eq!(
        order,
        [(7, 0), (7, 1), (7, 2), (7, 100), (7, 101), (8, 3)],
        "same-tick arrivals must not overtake pending same-tick events"
    );
}

#[test]
fn recursive_same_tick_chains_stay_fifo() {
    // Each popped event at tick 3 spawns one follow-up at tick 3 until a
    // depth limit: the chain must interleave in schedule order and the
    // clock must never move backwards.
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ticks(3), 0u32);
    let mut seen = Vec::new();
    while let Some((t, depth)) = q.pop() {
        assert_eq!(t, SimTime::from_ticks(3));
        assert!(t >= q.now());
        seen.push(depth);
        if depth < 9 {
            q.schedule(q.now(), depth + 1);
        }
    }
    assert_eq!(seen, (0..10).collect::<Vec<u32>>());
    assert_eq!(q.popped(), 10);
}

#[test]
fn fifo_survives_bucket_stress() {
    // Enough same-tick events to grow the per-tick bucket well past its
    // initial capacity; a tie-break by storage position instead of
    // sequence number would shuffle these.
    let mut q = EventQueue::new();
    for wave in 0..3u64 {
        for i in 0..500u64 {
            q.schedule(SimTime::from_ticks(wave), wave * 1000 + i);
        }
    }
    let mut prev = None;
    while let Some((_, v)) = q.pop() {
        if let Some(p) = prev {
            assert!(v > p, "popped {v} after {p}");
        }
        prev = Some(v);
    }
}
