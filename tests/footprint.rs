//! Memory footprint pins: the size of the records every queue moves,
//! the allocator traffic of one simulation, and the largest block
//! set-up asks for.
//!
//! Tasks live once in a task arena, in both `System` and `HostOnly`;
//! messages and events carry a 4-byte `TaskId`. These tests fail if a
//! task record creeps back into `Message`, if either model's `run`
//! starts allocating per task again or asks for a large block, or if
//! an app's set-up asks for one large block again. This file is its
//! own test binary because it installs a counting global allocator.
//!
//! `cargo test --release --test footprint -- --nocapture` prints the
//! measured counts.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::mem::size_of;

use ndpbridge::bench::Column;
use ndpbridge::core::hostonly::{HostOnly, HostOnlyConfig};
use ndpbridge::core::{AuditLevel, DesignPoint, RunResult, System, SystemConfig};
use ndpbridge::proto::Message;
use ndpbridge::tasks::TaskId;
use ndpbridge::workloads::{build_app, Scale, APP_NAMES};

/// Counts allocator calls (alloc, alloc_zeroed, realloc), the bytes
/// they request and the largest single request, on threads that armed
/// the count.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
        LARGEST.with(|l| l.set(l.get().max(bytes)));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls, requested bytes and the largest block inside the
/// model's `run` for one Tiny point on Table I (seed 24301, audit off),
/// set-up excluded.
fn run_allocations(app: &str, column: Column) -> (u64, u64, usize) {
    let mut cfg = SystemConfig::table1();
    cfg.seed = 24301;
    cfg.audit = AuditLevel::Off;
    let built = build_app(app, &cfg.geometry, Scale::Tiny, cfg.seed);
    let run: Box<dyn FnOnce() -> RunResult> = match column {
        Column::Ndp(design) => {
            let sys = System::new(cfg, design, built);
            Box::new(move || sys.run())
        }
        Column::Host => {
            let host = HostOnly::new(cfg, HostOnlyConfig::paper(), built);
            Box::new(move || host.run())
        }
    };
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let result = run();
    ARMED.with(|a| a.set(false));
    assert!(result.tasks_executed > 0);
    (
        CALLS.with(Cell::get),
        BYTES.with(Cell::get),
        LARGEST.with(Cell::get),
    )
}

#[test]
fn records_stay_small() {
    // A `Task` is 64 bytes; a task message carries its id, data address
    // and wire size (32 bytes on x86-64 Linux).
    let (id, msg) = (size_of::<TaskId>(), size_of::<Message>());
    println!("TaskId {id} B, Message {msg} B");
    assert_eq!(id, 4);
    assert!(msg <= 40, "Message is {msg} B");
}

#[test]
fn run_allocations_stay_within_budget() {
    // Bounds are 10% above the counts measured on x86-64 Linux, which
    // are the same in debug and release builds: wcc on W 15,094 calls
    // for 7,197,632 bytes, tree on O 15,141 calls for 2,146,593 bytes.
    // Since the steal path's tail phase appends to its one output `Vec`
    // they read 14,182 calls for 7,066,304 bytes and 15,043 calls for
    // 2,148,065 bytes. Before the load-balancing rounds reused
    // `System`'s buffers the same runs made 22,429 calls for 8,055,296
    // bytes and 17,610 calls for 2,393,737 bytes, and before the task
    // arena 32,437 calls for 36,371,472 bytes and 29,408 calls for
    // 7,222,797 bytes. On the host-only model wcc makes 206 calls for
    // 1,746,096 bytes and bfs 192 for 1,093,012; before H stored its
    // tasks in the arena, wcc made 168 calls for 7,544,292 bytes, the
    // largest 1,048,576 bytes. No run asks for a block above 128 KiB
    // (wcc on W and on H ask for exactly 131,072 bytes).
    const BLOCK_MAX: usize = 128 << 10;
    for (app, column, calls_max, bytes_max) in [
        ("wcc", Column::Ndp(DesignPoint::W), 16_600, 7_920_000),
        ("tree", Column::Ndp(DesignPoint::O), 16_660, 2_362_000),
        ("wcc", Column::Host, 227, 1_921_000),
        ("bfs", Column::Host, 212, 1_203_000),
    ] {
        let (calls, bytes, largest) = run_allocations(app, column);
        let on = format!("{app} on {}", column.label());
        println!(
            "{on}: {calls} allocator calls, {bytes} bytes requested, largest block \
             {largest} bytes in run()"
        );
        assert!(calls <= calls_max, "{on}: {calls} calls > {calls_max}");
        assert!(bytes <= bytes_max, "{on}: {bytes} bytes > {bytes_max}");
        assert!(
            largest <= BLOCK_MAX,
            "{on}: a {largest}-byte block > {BLOCK_MAX}"
        );
    }
}

#[test]
fn set_up_allocates_no_large_block() {
    // Blocks above the allocator's 128 KiB mmap threshold are mapped
    // fresh, or grow the heap once that threshold has risen, instead of
    // reusing memory an earlier point freed. Measured on x86-64 Linux:
    // bfs and wcc ask for exactly 131,072 bytes, and tree's placement
    // table asked for one 4,190,208-byte block before it was stored in
    // 64 KiB chunks.
    const BLOCK_MAX: usize = 128 << 10;
    let cfg = SystemConfig::table1();
    let mut over = Vec::new();
    for app in APP_NAMES {
        LARGEST.with(|l| l.set(0));
        ARMED.with(|a| a.set(true));
        let _ = build_app(app, &cfg.geometry, Scale::Tiny, cfg.seed);
        ARMED.with(|a| a.set(false));
        let largest = LARGEST.with(Cell::get);
        println!("{app}: largest block {largest} bytes in build_app");
        if largest > BLOCK_MAX {
            over.push(format!("{app}: {largest} bytes"));
        }
    }
    assert!(
        over.is_empty(),
        "set-up blocks above {BLOCK_MAX} bytes: {}",
        over.join(", ")
    );
}
