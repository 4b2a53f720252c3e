//! The non-NDP baseline **H**: the same task-based applications run on
//! the host CPU alone (Section VII: 16 out-of-order cores at 2.6 GHz,
//! 20 MB LLC, two DDR4-2400 channels, free shared-memory work stealing).
//!
//! Because all cores share one memory, work stealing is free and
//! perfectly balanced (a single global ready queue); the costs are the
//! far smaller core count and the two channels' worth of DRAM bandwidth
//! that every access contends for.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use ndpb_dram::{Bus, EnergyBreakdown};
use ndpb_sim::stats::BusyTime;
use ndpb_sim::{EventQueue, SimTime, TICKS_PER_CORE_CYCLE};
use ndpb_tasks::{Application, ExecCtx, Task};

use crate::config::SystemConfig;
use crate::epoch::EpochTracker;
use crate::pool::BufPool;
use crate::result::{ProfileStats, RunResult};

/// Host CPU model parameters.
#[derive(Debug, Clone)]
pub struct HostOnlyConfig {
    /// Number of out-of-order cores.
    pub workers: usize,
    /// Host clock relative to the 400 MHz NDP core (2.6 GHz ⇒ 6.5).
    pub clock_ratio: f64,
    /// IPC advantage of the OoO pipeline over the wimpy in-order core.
    pub ipc_ratio: f64,
    /// Active power per host core in watts.
    pub core_active_w: f64,
    /// Static power of the host socket + DIMMs in watts.
    pub static_w: f64,
}

impl HostOnlyConfig {
    /// The paper's host configuration.
    pub fn paper() -> Self {
        HostOnlyConfig {
            workers: 16,
            clock_ratio: 6.5,
            // Pointer-chasing, cache-missing task code gains little IPC
            // from the wide pipeline.
            ipc_ratio: 1.5,
            core_active_w: 1.5,
            static_w: 10.0,
        }
    }
}

impl Default for HostOnlyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[derive(Debug)]
struct Done {
    worker: u32,
    task: Task,
    children: Vec<Task>,
}

/// Runs `app` on the host-only baseline and reports metrics comparable
/// to [`crate::System::run`].
pub struct HostOnly {
    cfg: SystemConfig,
    host: HostOnlyConfig,
    app: Box<dyn Application>,
    /// Completion queue.
    q: EventQueue<Done>,
    ready: VecDeque<Task>,
    future: BTreeMap<u32, Vec<Task>>,
    worker_free: Vec<SimTime>,
    worker_busy: Vec<BusyTime>,
    worker_last: Vec<SimTime>,
    idle: Vec<usize>,
    channels: Vec<Bus>,
    epochs: EpochTracker,
    tasks_executed: u64,
    dram_bytes: u64,
    /// Persistent execution context plus spawn-`Vec` free list: the run
    /// loop executes every task without per-task heap allocation (same
    /// recycling scheme as `System`).
    ctx: ExecCtx,
    spawn_pool: BufPool<Task>,
    /// Event-loop phase profile, armed by [`Self::set_profile`] and
    /// surfaced as [`RunResult::profile`] (kept out of `to_json`, like
    /// `System`'s).
    profile: Option<ProfileStats>,
}

impl HostOnly {
    /// Builds the baseline from the NDP system config (for the shared
    /// DRAM timing/energy parameters) and the host model.
    pub fn new(cfg: SystemConfig, host: HostOnlyConfig, app: Box<dyn Application>) -> Self {
        let channels = (0..cfg.geometry.channels)
            .map(|_| Bus::new(cfg.geometry.channel_dq_bits()))
            .collect();
        let w = host.workers;
        HostOnly {
            cfg,
            host,
            app,
            // Host completion times pile up multiple wheel revolutions
            // ahead of the clock (per-access activation latency plus
            // shared-channel queueing across 16 workers), which made the
            // default 4096-tick horizon overflow-dominated — the 0.96x
            // H regression vs the old heap. Start the calendar wide; the
            // wheel still auto-tunes if contention pushes further out.
            q: EventQueue::with_horizon(1 << 16),
            ready: VecDeque::new(),
            future: BTreeMap::new(),
            worker_free: vec![SimTime::ZERO; w],
            worker_busy: vec![BusyTime::default(); w],
            worker_last: vec![SimTime::ZERO; w],
            idle: (0..w).rev().collect(),
            channels,
            epochs: EpochTracker::new(),
            tasks_executed: 0,
            dram_bytes: 0,
            ctx: ExecCtx::new(ndpb_dram::UnitId(0)),
            spawn_pool: BufPool::new(),
            profile: None,
        }
    }

    /// Arms the event-loop phase profiler (see [`crate::System::set_profile`]).
    pub fn set_profile(&mut self) {
        self.profile = Some(ProfileStats::default());
    }

    /// Ticks a host core needs for `cycles` NDP-core-equivalent cycles.
    fn host_compute_ticks(&self, cycles: u64) -> u64 {
        let scale = self.host.clock_ratio * self.host.ipc_ratio;
        ((cycles as f64 * TICKS_PER_CORE_CYCLE as f64) / scale).ceil() as u64
    }

    fn dispatch(&mut self, now: SimTime) {
        while let (Some(&w), false) = (self.idle.last(), self.ready.is_empty()) {
            let task = self.ready.pop_front().expect("non-empty");
            self.idle.pop();
            self.start(w, task, now);
        }
    }

    fn start(&mut self, w: usize, task: Task, now: SimTime) {
        let begin = now.max(self.worker_free[w]);
        let spawn_buf = self.spawn_pool.get();
        self.ctx.reset(ndpb_dram::UnitId(0), spawn_buf);
        self.app.execute(&task, &mut self.ctx);
        let ctx = &self.ctx;
        let mut t = begin + SimTime::from_ticks(self.host_compute_ticks(ctx.compute_cycles()));
        // Each declared access is a cache-missing DRAM access. The
        // accesses a task declares are data-dependent (pointer chases,
        // index lookups), so the out-of-order core exposes one full
        // activation latency per access on top of the shared channels'
        // bandwidth occupancy — this, not compute, is why the host loses
        // to near-bank processing on these workloads.
        // Random accesses under 16-core pressure conflict in the open
        // banks: precharge + activate + CAS.
        let latency = self.cfg.timing.t_rp + self.cfg.timing.t_rcd + self.cfg.timing.t_cas;
        let mut total_bytes = 0u64;
        for &(addr, bytes) in ctx.reads().iter().chain(ctx.writes().iter()) {
            let ch = (addr.0 / 64) as usize % self.channels.len();
            let grant = self.channels[ch].reserve(t, bytes as u64);
            t = grant.end.max(t + latency);
            total_bytes += bytes as u64;
        }
        self.dram_bytes += total_bytes;
        self.worker_free[w] = t;
        self.worker_busy[w].record(begin, t);
        self.worker_last[w] = t;
        for c in ctx.spawned() {
            self.epochs.spawned(c.ts);
        }
        self.q.schedule(
            t,
            Done {
                worker: w as u32,
                task,
                children: self.ctx.take_spawned(),
            },
        );
    }

    fn enqueue(&mut self, task: Task) {
        if self.epochs.is_ready(task.ts) {
            self.ready.push_back(task);
        } else {
            self.future.entry(task.ts.0).or_default().push(task);
        }
    }

    /// Processes one completion exactly as the pop-at-a-time loop did;
    /// batching changes how completions are *fetched*, never what each
    /// one does, so results stay byte-identical.
    fn complete(&mut self, now: SimTime, mut done: Done) {
        self.tasks_executed += 1;
        for child in done.children.drain(..) {
            self.enqueue(child);
        }
        self.spawn_pool.put(done.children);
        if let Some(next) = self.epochs.completed(done.task.ts) {
            if let Some(released) = self.future.remove(&next.0) {
                self.ready.extend(released);
            }
        }
        self.idle.push(done.worker as usize);
        self.dispatch(now);
    }

    /// Runs to completion.
    pub fn run(mut self) -> RunResult {
        for t in self.app.initial_tasks() {
            self.epochs.spawned(t.ts);
            self.enqueue(t);
        }
        self.dispatch(SimTime::ZERO);
        // Batched same-tick dispatch (DESIGN.md §3c): one head scan per
        // run of equal-time completions instead of one per pop. The
        // phase profiler's clock reads are per-batch hooks in this loop.
        let mut batch: Vec<Done> = Vec::with_capacity(32);
        loop {
            let t0 = self.profile.is_some().then(Instant::now);
            let now = self.q.pop_run(&mut batch);
            if let (Some(p), Some(t0)) = (self.profile.as_mut(), t0) {
                p.queue_ns += t0.elapsed().as_nanos() as u64;
            }
            let Some(now) = now else { break };
            let t1 = self.profile.as_mut().map(|p| {
                p.note_batch(batch.len());
                Instant::now()
            });
            for done in batch.drain(..) {
                self.complete(now, done);
            }
            if let (Some(p), Some(t1)) = (self.profile.as_mut(), t1) {
                p.dispatch_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        assert!(
            self.epochs.all_done(),
            "host-only run drained events with tasks outstanding"
        );
        self.finalize()
    }

    fn finalize(mut self) -> RunResult {
        let finalize_start = self.profile.is_some().then(Instant::now);
        let makespan = self
            .worker_last
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        let busy_total: SimTime = self
            .worker_busy
            .iter()
            .fold(SimTime::ZERO, |a, b| a + b.total());
        let max_busy = self
            .worker_busy
            .iter()
            .map(|b| b.total())
            .fold(SimTime::ZERO, SimTime::max);
        let avg_busy = if self.worker_busy.is_empty() {
            SimTime::ZERO
        } else {
            SimTime::from_ticks(busy_total.ticks() / self.worker_busy.len() as u64)
        };
        let e = &self.cfg.energy;
        let energy = EnergyBreakdown {
            core_sram_pj: self.host.core_active_w * busy_total.as_secs() * 1e12,
            dram_local_pj: e.dram_pj(self.dram_bytes) + e.channel_pj(self.dram_bytes),
            dram_comm_pj: 0.0,
            static_pj: self.host.static_w * makespan.as_secs() * 1e12,
        };
        let channel_bytes = self.channels.iter().map(|c| c.bytes.get()).sum();
        RunResult {
            app: self.app.name().to_string(),
            design: "H".to_string(),
            makespan,
            avg_unit_time: avg_busy,
            max_unit_time: max_busy,
            wait_fraction: if makespan == SimTime::ZERO {
                0.0
            } else {
                1.0 - max_busy.ticks() as f64 / makespan.ticks() as f64
            },
            balance: if makespan == SimTime::ZERO {
                1.0
            } else {
                avg_busy.ticks() as f64 / makespan.ticks() as f64
            },
            tasks_executed: self.tasks_executed,
            tasks_rerouted: 0,
            messages_delivered: 0,
            rank_bus_bytes: 0,
            channel_bytes,
            comm_dram_bytes: 0,
            local_dram_bytes: self.dram_bytes,
            lb_rounds: 0,
            blocks_migrated: 0,
            energy,
            checksum: self.app.checksum(),
            events: self.q.popped(),
            per_unit_busy: self.worker_busy.iter().map(|b| b.total().ticks()).collect(),
            metrics: ndpb_trace::MetricsReport::default(),
            trace: Vec::new(),
            profile: self.profile.take().map(|mut p| {
                p.finalize_ns = finalize_start
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0);
                p
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::DataAddr;
    use ndpb_tasks::{TaskArgs, TaskFnId, Timestamp};

    /// N independent tasks of fixed compute.
    struct Flat {
        n: usize,
        executed: u64,
    }

    impl Application for Flat {
        fn name(&self) -> &str {
            "flat"
        }
        fn initial_tasks(&mut self) -> Vec<Task> {
            (0..self.n)
                .map(|i| {
                    Task::new(
                        TaskFnId(0),
                        Timestamp(0),
                        DataAddr(i as u64 * 64),
                        100,
                        TaskArgs::EMPTY,
                    )
                })
                .collect()
        }
        fn execute(&mut self, _t: &Task, ctx: &mut ExecCtx) {
            ctx.compute(100);
            self.executed += 1;
        }
        fn checksum(&self) -> u64 {
            self.executed
        }
    }

    #[test]
    fn executes_all_tasks() {
        let app = Flat { n: 64, executed: 0 };
        let r = HostOnly::new(
            SystemConfig::table1(),
            HostOnlyConfig::paper(),
            Box::new(app),
        )
        .run();
        assert_eq!(r.tasks_executed, 64);
        assert_eq!(r.checksum, 64);
        assert!(r.makespan > SimTime::ZERO);
    }

    #[test]
    fn parallel_speedup_vs_single_worker() {
        let mk = |workers| {
            let app = Flat {
                n: 160,
                executed: 0,
            };
            let host = HostOnlyConfig {
                workers,
                ..HostOnlyConfig::paper()
            };
            HostOnly::new(SystemConfig::table1(), host, Box::new(app)).run()
        };
        let one = mk(1);
        let sixteen = mk(16);
        let speedup = one.makespan.ticks() as f64 / sixteen.makespan.ticks() as f64;
        assert!(speedup > 10.0, "compute-bound tasks scale: {speedup}");
    }

    #[test]
    fn epochs_are_barriers() {
        /// Two-epoch app: each epoch-0 task spawns one epoch-1 task.
        struct TwoPhase {
            phase1_seen: u64,
        }
        impl Application for TwoPhase {
            fn name(&self) -> &str {
                "two-phase"
            }
            fn initial_tasks(&mut self) -> Vec<Task> {
                (0..32)
                    .map(|i| {
                        Task::new(
                            TaskFnId(0),
                            Timestamp(0),
                            DataAddr(i * 64),
                            10,
                            TaskArgs::EMPTY,
                        )
                    })
                    .collect()
            }
            fn execute(&mut self, t: &Task, ctx: &mut ExecCtx) {
                ctx.compute(10);
                if t.ts == Timestamp(0) {
                    ctx.enqueue_task(TaskFnId(1), Timestamp(1), t.data, 10, TaskArgs::EMPTY);
                } else {
                    self.phase1_seen += 1;
                }
            }
            fn checksum(&self) -> u64 {
                self.phase1_seen
            }
        }
        let r = HostOnly::new(
            SystemConfig::table1(),
            HostOnlyConfig::paper(),
            Box::new(TwoPhase { phase1_seen: 0 }),
        )
        .run();
        assert_eq!(r.tasks_executed, 64);
        assert_eq!(r.checksum, 32);
    }

    #[test]
    fn memory_bound_tasks_contend_on_channels() {
        /// Tasks that each stream 4 kB from memory.
        struct Stream;
        impl Application for Stream {
            fn name(&self) -> &str {
                "stream"
            }
            fn initial_tasks(&mut self) -> Vec<Task> {
                (0..64)
                    .map(|i| {
                        Task::new(
                            TaskFnId(0),
                            Timestamp(0),
                            DataAddr(i * 4096),
                            1,
                            TaskArgs::EMPTY,
                        )
                    })
                    .collect()
            }
            fn execute(&mut self, t: &Task, ctx: &mut ExecCtx) {
                ctx.compute(1);
                ctx.read(t.data, 4096);
            }
        }
        let r = HostOnly::new(
            SystemConfig::table1(),
            HostOnlyConfig::paper(),
            Box::new(Stream),
        )
        .run();
        // 64 × 4 kB over 2 channels at 8 B/tick ⇒ ≥ 16384 ticks.
        assert!(r.makespan.ticks() >= 16000, "{}", r.makespan.ticks());
        assert_eq!(r.local_dram_bytes, 64 * 4096);
    }
}
