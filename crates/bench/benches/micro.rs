//! Microbenchmarks of the substrate data structures the system is
//! built on: the event queue, RNG, Zipfian sampler, hot-data sketch,
//! mailbox, bank timing model, graph generator, all eight apps' Tiny
//! set-up and tree's on its own, and the sweep engine's substrate (FNV
//! fingerprinting, the result-cache codec, the JSON reader).
//!
//! `harness = false` binary using the in-repo `Instant` timer
//! (`ndpb_bench::timing`) so no external bench framework is needed.

use ndpb_bench::timing::bench;
use ndpb_dram::{BankModel, Bus, DataAddr, DramTiming};
use ndpb_proto::{Mailbox, Message, TaskMessage};
use ndpb_sim::{EventQueue, SimRng, SimTime, WHEEL_SLOTS};
use ndpb_sketch::{HotSketch, SketchConfig};
use ndpb_tasks::{Task, TaskArgs, TaskFnId, TaskId, Timestamp};
use ndpb_workloads::{build_app, Graph, Scale, Zipfian, APP_NAMES};

const ITERS: u32 = 20;

/// The pre-wheel event queue — a plain `BinaryHeap` with a `(time,
/// seq)` tie-break — kept here as the reference implementation for the
/// head-to-head benches below. Same observable contract as
/// [`EventQueue`], so both sides run identical schedules.
mod heap_queue {
    use ndpb_sim::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-queue via inverted compare, FIFO within a tick.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now);
            self.heap.push(Entry {
                at,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let e = self.heap.pop()?;
            self.now = e.at;
            Some((e.at, e.event))
        }
    }
}

/// A payload as large as the simulator's event enum (`Ev` in
/// `ndpb-core`) was while events carried task records (96 bytes; with
/// the task arena it is 40): what the queue moved per schedule and pop,
/// where a `u64` payload hides the cost of moving entries.
type Fat = [u64; 12];

/// Drives `schedule`/`pop` through one workload mix. `offset(rng, i)`
/// yields the delay of the `i`-th event after the queue's `now`; the
/// driver keeps ~1k events in flight (steady-state churn, like the
/// simulator) and then drains. The `u64` form schedules `i` itself;
/// the `Fat` form schedules a 96-byte [`Fat`] carrying `i`.
macro_rules! queue_workload {
    ($q:expr, $offset:expr) => {
        queue_workload!($q, $offset, |i: u64| i, |e: u64| e)
    };
    ($q:expr, $offset:expr, Fat) => {
        queue_workload!($q, $offset, |i: u64| -> Fat { [i; 12] }, |e: Fat| e[0])
    };
    ($q:expr, $offset:expr, $make:expr, $read:expr) => {{
        let mut q = $q;
        let mut rng = SimRng::new(7);
        let mut sum = 0u64;
        for i in 0..50_000u64 {
            let at = SimTime::from_ticks(q.now().ticks() + $offset(&mut rng, i));
            q.schedule(at, $make(i));
            if i >= 1_000 {
                sum += $read(q.pop().expect("queue holds 1k events").1);
            }
        }
        while let Some((_, e)) = q.pop() {
            sum += $read(e);
        }
        sum
    }};
}

/// Head-to-head: timer-wheel `EventQueue` vs the old `BinaryHeap`
/// queue on the three mixes that matter — near-horizon (bucket tier),
/// far-future (one to four wheel widths out: the overflow tier), and
/// same-tick bursts (FIFO churn) — the near-horizon and same-tick mixes
/// also with event-sized payloads.
fn event_queue_head_to_head() {
    let near = |rng: &mut SimRng, _i: u64| rng.next_below(256);
    bench("micro/evq_wheel_near_horizon_50k", ITERS, || {
        queue_workload!(EventQueue::new(), near)
    });
    bench("micro/evq_heap_near_horizon_50k", ITERS, || {
        queue_workload!(heap_queue::HeapQueue::new(), near)
    });
    bench("micro/evq_wheel_near_horizon_96b_50k", ITERS, || {
        queue_workload!(EventQueue::new(), near, Fat)
    });
    bench("micro/evq_heap_near_horizon_96b_50k", ITERS, || {
        queue_workload!(heap_queue::HeapQueue::new(), near, Fat)
    });

    let slots = WHEEL_SLOTS as u64;
    let far = |rng: &mut SimRng, _i: u64| slots + rng.next_below(3 * slots);
    bench("micro/evq_wheel_far_future_50k", ITERS, || {
        queue_workload!(EventQueue::new(), far)
    });
    bench("micro/evq_heap_far_future_50k", ITERS, || {
        queue_workload!(heap_queue::HeapQueue::new(), far)
    });

    // Bursts of 64 events on one tick, then jump ahead.
    let same_tick = |rng: &mut SimRng, i: u64| {
        if i.is_multiple_of(64) {
            rng.next_below(32)
        } else {
            0
        }
    };
    bench("micro/evq_wheel_same_tick_50k", ITERS, || {
        queue_workload!(EventQueue::new(), same_tick)
    });
    bench("micro/evq_heap_same_tick_50k", ITERS, || {
        queue_workload!(heap_queue::HeapQueue::new(), same_tick)
    });
    bench("micro/evq_wheel_same_tick_96b_50k", ITERS, || {
        queue_workload!(EventQueue::new(), same_tick, Fat)
    });
    bench("micro/evq_heap_same_tick_96b_50k", ITERS, || {
        queue_workload!(heap_queue::HeapQueue::new(), same_tick, Fat)
    });
}

fn main() {
    event_queue_head_to_head();

    bench("micro/event_queue_10k", ITERS, || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_ticks((i * 7919) % 100_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum += e;
        }
        sum
    });

    let mut rng = SimRng::new(1);
    bench("micro/simrng_1m", ITERS, || {
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc ^= rng.next_u64();
        }
        acc
    });

    let z = Zipfian::new(1 << 20, 0.75);
    let mut zrng = SimRng::new(2);
    bench("micro/zipf_100k", ITERS, || {
        let mut acc = 0u64;
        for _ in 0..100_000 {
            acc += z.sample(&mut zrng);
        }
        acc
    });

    let mut srng = SimRng::new(3);
    bench("micro/sketch_record_100k", ITERS, || {
        let mut s = HotSketch::new(SketchConfig::paper());
        for i in 0..100_000u64 {
            s.record(i % 1000, (i % 7) + 1, &mut srng);
        }
        s.hottest()
    });

    let task = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY);
    let msg = Message::Task(TaskMessage::new(TaskId(0), &task), None);
    bench("micro/mailbox_push_drain_10k", ITERS, || {
        let mut mb = Mailbox::new(1 << 20);
        for _ in 0..10_000 {
            assert!(mb.try_push(msg.clone()).is_none());
        }
        let mut n = 0;
        while !mb.is_empty() {
            n += mb.drain_up_to(256).len();
        }
        n
    });

    let timing = DramTiming::ddr4_2400();
    bench("micro/bank_access_100k", ITERS, || {
        let mut bank = BankModel::new();
        let mut t = SimTime::ZERO;
        for i in 0..100_000u64 {
            t = bank.access(t, i % 64, 64, i % 3 == 0, &timing).end;
        }
        t
    });

    bench("micro/bus_reserve_100k", ITERS, || {
        let mut bus = Bus::new(64);
        let mut t = SimTime::ZERO;
        for _ in 0..100_000 {
            t = bus.reserve(t, 256).end;
        }
        t
    });

    bench("micro/rmat_scale12", ITERS, || Graph::rmat(12, 32_768, 5));

    // A cold start's set-up: every paper app's dataset at Tiny on
    // Table I geometry and seed.
    let table1 = ndpb_dram::Geometry::table1();
    bench("micro/build_app_tiny", ITERS, || {
        APP_NAMES
            .iter()
            .map(|app| build_app(app, &table1, Scale::Tiny, 0x5EED))
            .collect::<Vec<_>>()
    });
    // The largest of them on its own: tree's placement shuffle.
    bench("micro/tree_build_tiny", ITERS, || {
        build_app("tree", &table1, Scale::Tiny, 0x5EED)
    });

    bench("micro/fnv1a_config_fingerprint_1k", ITERS, || {
        let cfg = ndpb_core::config::SystemConfig::table1();
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc ^= cfg.fingerprint();
        }
        acc
    });

    let result = {
        let cfg = ndpb_core::config::SystemConfig::with_geometry(
            ndpb_dram::Geometry::with_total_ranks(1),
        );
        ndpb_bench::run_one("ll", ndpb_core::design::DesignPoint::O, cfg, Scale::Tiny)
    };
    bench("micro/cache_encode_100", ITERS, || {
        let mut bytes = 0usize;
        for _ in 0..100 {
            bytes += ndpb_bench::cache::encode_result(&result).len();
        }
        bytes
    });
    let doc = ndpb_bench::cache::encode_result(&result);
    bench("micro/cache_decode_100", ITERS, || {
        let mut tasks = 0u64;
        for _ in 0..100 {
            tasks += ndpb_bench::cache::decode_result(&doc)
                .expect("valid document")
                .tasks_executed;
        }
        tasks
    });
    bench("micro/json_parse_100", ITERS, || {
        let mut nodes = 0usize;
        for _ in 0..100 {
            let j = ndpb_bench::json::Json::parse(&doc).expect("valid document");
            nodes += j
                .get("per_unit_busy")
                .and_then(|v| v.as_arr())
                .map_or(0, <[_]>::len);
        }
        nodes
    });
}
