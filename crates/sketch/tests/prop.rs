//! Randomized tests for the hot-data sketch and reserved queue, driven
//! by the in-repo deterministic `SimRng`.

use ndpb_sim::SimRng;
use ndpb_sketch::{HotSketch, ReservedQueue, SketchConfig};

const CASES: usize = 48;

fn take<T>(q: &mut ReservedQueue<T>, key: u64) -> Vec<T> {
    let mut out = Vec::new();
    q.take_into(key, &mut out);
    out
}

/// The sketch never tracks more entries than its geometry allows.
#[test]
fn sketch_respects_capacity() {
    let mut meta = SimRng::new(0x5C47_0001);
    for _ in 0..CASES {
        let buckets = 1 + meta.next_index(7);
        let entries = 1 + meta.next_index(7);
        let n = 1 + meta.next_index(499);
        let mut s = HotSketch::new(SketchConfig::with_geometry(buckets, entries));
        let mut rng = SimRng::new(meta.next_u64());
        for _ in 0..n {
            let k = meta.next_below(100);
            let w = 1 + meta.next_below(49);
            s.record(k, w, &mut rng);
            assert!(s.len() <= buckets * entries);
        }
    }
}

/// Without bucket pressure, the sketch counts exactly.
#[test]
fn sketch_exact_when_uncontended() {
    let mut meta = SimRng::new(0x5C47_0002);
    for _ in 0..CASES {
        // 8 keys over 1x16: one bucket, never full.
        let mut s = HotSketch::new(SketchConfig::with_geometry(1, 16));
        let mut rng = SimRng::new(meta.next_u64());
        let n = 1 + meta.next_index(199);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..n {
            let k = meta.next_below(8);
            let w = 1 + meta.next_below(99);
            s.record(k, w, &mut rng);
            *truth.entry(k).or_insert(0u64) += w;
        }
        for (k, w) in truth {
            assert_eq!(s.get(k), Some(w));
        }
    }
}

/// pop_hottest returns entries in non-increasing workload order when
/// the sketch is drained without new inserts.
#[test]
fn pop_hottest_is_sorted() {
    let mut meta = SimRng::new(0x5C47_0003);
    for _ in 0..CASES {
        let mut s = HotSketch::new(SketchConfig::paper());
        let mut rng = SimRng::new(meta.next_u64());
        let n = 1 + meta.next_index(49);
        for i in 0..n {
            let k = 1 + meta.next_below(999);
            s.record(k, (i as u64 % 17) + 1, &mut rng);
        }
        let mut prev = u64::MAX;
        while let Some((_, w)) = s.pop_hottest() {
            assert!(w <= prev);
            prev = w;
        }
    }
}

/// Capacity bounds and high-water marks: the queue never admits a task
/// that would push `chunks_used` past the pool, overflow leaves the
/// queue untouched, and the reported peaks match a reference model of
/// the occupancy trajectory.
#[test]
fn reserved_queue_capacity_bounds_and_peaks() {
    let mut rng = SimRng::new(0x5C47_0005);
    for _ in 0..CASES {
        let pool = 1 + rng.next_index(15);
        let per_chunk = 1 + rng.next_index(3);
        let mut q: ReservedQueue<u32> = ReservedQueue::new(pool, per_chunk);
        let mut model: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let (mut peak_chunks, mut peak_tasks) = (0usize, 0usize);
        for op in 0..300u32 {
            let key = rng.next_below(8);
            if rng.chance(0.7) {
                let before = (q.chunks_used(), q.total_tasks());
                match q.reserve(key, op) {
                    Ok(()) => *model.entry(key).or_insert(0) += 1,
                    Err(back) => {
                        assert_eq!(back, op, "overflow must hand the task back");
                        assert_eq!(
                            (q.chunks_used(), q.total_tasks()),
                            before,
                            "overflow must not change occupancy"
                        );
                    }
                }
            } else {
                model.remove(&key);
                q.take_into(key, &mut Vec::new());
            }
            assert!(q.chunks_used() <= pool, "pool bound violated");
            let tasks: usize = model.values().sum();
            peak_chunks = peak_chunks.max(q.chunks_used());
            peak_tasks = peak_tasks.max(tasks);
            assert_eq!(q.peak_chunks(), peak_chunks);
            assert_eq!(q.peak_tasks(), peak_tasks);
        }
        assert!(q.peak_chunks() <= pool);
    }
}

/// Hot-key retention: with an uncontended sketch (exact counts), the
/// key the sketch reports hottest holds every task reserved under it,
/// in reservation order — parking by block and leaving together is the
/// whole point of the reserved queue.
#[test]
fn reserved_queue_retains_hot_key_tasks_vs_sketch_estimates() {
    let mut meta = SimRng::new(0x5C47_0006);
    for _ in 0..CASES {
        // 1x16 over ≤ 8 keys: one never-full bucket, so HeavyGuardian
        // estimates are exact and "hottest" is unambiguous ground truth.
        let mut s = HotSketch::new(SketchConfig::with_geometry(1, 16));
        let mut q: ReservedQueue<u32> = ReservedQueue::new(64, 4);
        let mut rng = SimRng::new(meta.next_u64());
        let mut truth: std::collections::HashMap<u64, (u64, Vec<u32>)> =
            std::collections::HashMap::new();
        let n = 1 + meta.next_index(149);
        for i in 0..n as u32 {
            let k = meta.next_below(8);
            let w = 1 + meta.next_below(99);
            s.record(k, w, &mut rng);
            let e = truth.entry(k).or_default();
            e.0 += w;
            if q.reserve(k, i).is_ok() {
                e.1.push(i);
            }
        }
        // The sketch estimate matches the true workload for every key...
        for (k, (w, _)) in &truth {
            assert_eq!(s.get(*k), Some(*w));
        }
        // ...and taking the hottest key releases exactly its tasks, in
        // reservation order.
        let (hot, est) = s.pop_hottest().expect("nonempty sketch");
        let (true_w, expect_tasks) = truth.remove(&hot).expect("hot key was recorded");
        assert_eq!(est, true_w);
        assert_eq!(take(&mut q, hot), expect_tasks);
        for (k, (_, tasks)) in truth {
            assert_eq!(take(&mut q, k), tasks, "cold keys keep their tasks too");
        }
    }
}

/// drain_all_into is complete and deterministic: ascending key order,
/// reservation order within a key, and it resets the occupancy.
#[test]
fn reserved_queue_drain_order() {
    let mut rng = SimRng::new(0x5C47_0007);
    for _ in 0..CASES {
        let mut q: ReservedQueue<(u64, u32)> = ReservedQueue::new(256, 2);
        let mut model: std::collections::HashMap<u64, Vec<(u64, u32)>> =
            std::collections::HashMap::new();
        let n = 1 + rng.next_index(199);
        for i in 0..n as u32 {
            let k = rng.next_below(32);
            if q.reserve(k, (k, i)).is_ok() {
                model.entry(k).or_default().push((k, i));
            }
        }
        let mut keys: Vec<u64> = model.keys().copied().collect();
        keys.sort_unstable();
        let expect: Vec<(u64, u32)> = keys.into_iter().flat_map(|k| model[&k].clone()).collect();
        let mut all = Vec::new();
        q.drain_all_into(&mut all);
        assert_eq!(all, expect);
        assert!(q.is_empty());
        assert_eq!(q.chunks_used(), 0);
        assert_eq!(q.total_tasks(), 0);
    }
}

/// Chunk accounting: chunks in use always equal the sum of each
/// list's ceil(len / tasks_per_chunk), and never exceed the pool.
#[test]
fn reserved_queue_chunk_invariant() {
    let mut rng = SimRng::new(0x5C47_0004);
    for _ in 0..CASES {
        let pool = 1 + rng.next_index(31);
        let per_chunk = 1 + rng.next_index(7);
        let n_ops = 1 + rng.next_index(299);
        let mut q: ReservedQueue<u32> = ReservedQueue::new(pool, per_chunk);
        let mut model: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for _ in 0..n_ops {
            let key = rng.next_below(16);
            if rng.chance(0.5) {
                if q.reserve(key, 0).is_ok() {
                    *model.entry(key).or_insert(0) += 1;
                }
            } else {
                let got = take(&mut q, key);
                let want = model.remove(&key).unwrap_or(0);
                assert_eq!(got.len(), want);
            }
            let expect_chunks: usize = model.values().map(|&n| n.div_ceil(per_chunk).max(1)).sum();
            assert_eq!(q.chunks_used(), expect_chunks);
            assert!(q.chunks_used() <= pool);
            let expect_tasks: usize = model.values().sum();
            assert_eq!(q.total_tasks(), expect_tasks);
        }
    }
}
