//! The non-NDP baseline **H**: the same task-based applications run on
//! the host CPU alone (Section VII: 16 out-of-order cores at 2.6 GHz,
//! 20 MB LLC, two DDR4-2400 channels, free shared-memory work stealing).
//!
//! Because all cores share one memory, work stealing is free and
//! perfectly balanced (a single global ready queue); the costs are the
//! far smaller core count and the two channels' worth of DRAM bandwidth
//! that every access contends for.
//!
//! Tasks live in the same [`TaskArena`] as [`System`](crate::System)'s,
//! and the model runs through the same driver, so the watchdog, the
//! profiler and the audit reach H too.

use std::collections::{BTreeMap, VecDeque};

use ndpb_dram::{Bus, EnergyBreakdown};
use ndpb_sim::{EventQueue, SimTime, TICKS_PER_CORE_CYCLE};
use ndpb_tasks::{Application, ExecCtx, TaskId};

use crate::arena::TaskArena;
use crate::audit::{self, AuditLevel, Violation};
use crate::config::SystemConfig;
use crate::driver::{self, Model};
use crate::epoch::EpochTracker;
use crate::pool::BufPool;
use crate::result::{ProfileStats, RunResult};

/// Out-of-order host cores.
const WORKERS: usize = 16;
/// How many times faster a host core runs task code than an NDP core:
/// a 2.6 GHz clock (6.5× the 400 MHz NDP core) at 1.5× the IPC, since
/// pointer-chasing, cache-missing task code gains little from the wide
/// pipeline.
const SPEEDUP: f64 = 9.75;
/// Active power per host core, in watts.
const CORE_ACTIVE_W: f64 = 1.5;
/// Static power of the host socket and DIMMs, in watts.
const STATIC_W: f64 = 10.0;

/// The host CPU model. The paper's configuration is the only one; its
/// parameters are this module's constants.
#[derive(Debug, Clone, Default)]
pub struct HostOnlyConfig;

impl HostOnlyConfig {
    /// The paper's host configuration.
    pub fn paper() -> Self {
        HostOnlyConfig
    }
}

/// A task running on a worker, as its completion event.
#[derive(Debug)]
pub(crate) struct Done {
    worker: u32,
    task: TaskId,
    children: Vec<TaskId>,
}

/// Runs `app` on the host-only baseline and reports metrics comparable
/// to [`crate::System::run`].
pub struct HostOnly {
    cfg: SystemConfig,
    app: Box<dyn Application>,
    /// Completion queue.
    q: EventQueue<Done>,
    /// Every live task, stored once from spawn until its execution
    /// completes.
    tasks: TaskArena,
    ready: VecDeque<TaskId>,
    /// Tasks parked until their epoch opens.
    future: BTreeMap<u32, Vec<TaskId>>,
    worker_busy: Vec<SimTime>,
    /// When each worker's last task finished.
    worker_last: Vec<SimTime>,
    idle: Vec<usize>,
    channels: Vec<Bus>,
    epochs: EpochTracker,
    dram_bytes: u64,
    /// Persistent execution context plus child-id `Vec` free list: the
    /// run loop executes every task without per-task heap allocation
    /// (same recycling scheme as `System`).
    ctx: ExecCtx,
    spawn_pool: BufPool<TaskId>,
    /// Event-loop phase profile, armed by [`Self::set_profile`] and
    /// surfaced as [`RunResult::profile`] (kept out of `to_json`, like
    /// `System`'s).
    profile: Option<ProfileStats>,
}

impl HostOnly {
    /// Builds the baseline from the NDP system config (for the shared
    /// DRAM timing/energy parameters) and the host model.
    pub fn new(cfg: SystemConfig, _host: HostOnlyConfig, app: Box<dyn Application>) -> Self {
        let channels = (0..cfg.geometry.channels)
            .map(|_| Bus::new(cfg.geometry.channel_dq_bits()))
            .collect();
        HostOnly {
            cfg,
            app,
            // Host completion times run up to 10,851 ticks ahead of the
            // clock (activation latency plus shared-channel queueing
            // across 16 workers): inside the queue's 16,384-tick near
            // tier at every scale. The old 4096-tick tier made them
            // overflow-dominated, the 0.96x H regression against a
            // plain heap.
            q: EventQueue::new(),
            tasks: TaskArena::new(),
            ready: VecDeque::new(),
            future: BTreeMap::new(),
            worker_busy: vec![SimTime::ZERO; WORKERS],
            worker_last: vec![SimTime::ZERO; WORKERS],
            idle: (0..WORKERS).rev().collect(),
            channels,
            epochs: EpochTracker::new(),
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

    /// Runs to completion.
    pub fn run(self) -> RunResult {
        driver::run(self)
    }

    /// Starts ready tasks on idle workers.
    fn start_ready(&mut self, now: SimTime) {
        while let (Some(&w), false) = (self.idle.last(), self.ready.is_empty()) {
            let id = self.ready.pop_front().expect("non-empty");
            self.idle.pop();
            self.execute(w, id, now);
        }
    }

    /// Runs task `id` on idle worker `w` from `now` and schedules its
    /// completion.
    fn execute(&mut self, w: usize, id: TaskId, now: SimTime) {
        self.ctx.reset(ndpb_dram::UnitId(0));
        self.app.execute(self.tasks.get(id), &mut self.ctx);
        let cycles = self.ctx.compute_cycles() as f64 * TICKS_PER_CORE_CYCLE as f64;
        let mut t = now + SimTime::from_ticks((cycles / SPEEDUP).ceil() as u64);
        // Each declared access is a cache-missing DRAM access. The
        // accesses a task declares are data-dependent (pointer chases,
        // index lookups), so the out-of-order core exposes one full
        // activation latency per access on top of the shared channels'
        // bandwidth occupancy — this, not compute, is why the host loses
        // to near-bank processing on these workloads.
        // Random accesses under 16-core pressure conflict in the open
        // banks: precharge + activate + CAS.
        let latency = self.cfg.timing.t_rp + self.cfg.timing.t_rcd + self.cfg.timing.t_cas;
        for &(addr, bytes) in self.ctx.reads().iter().chain(self.ctx.writes()) {
            let ch = (addr.0 / 64) as usize % self.channels.len();
            let grant = self.channels[ch].reserve(t, bytes as u64);
            t = grant.end.max(t + latency);
            self.dram_bytes += bytes as u64;
        }
        self.worker_busy[w] += t - now;
        self.worker_last[w] = t;
        // A child is stored and counted as spawned in one step, so the
        // arena's live count always equals the tracker's outstanding one.
        let mut children = self.spawn_pool.get();
        for c in self.ctx.spawned() {
            self.epochs.spawned(c.ts);
            children.push(self.tasks.insert(*c));
        }
        let done = Done {
            worker: w as u32,
            task: id,
            children,
        };
        self.q.schedule(t, done);
    }

    fn enqueue(&mut self, id: TaskId) {
        let ts = self.tasks.get(id).ts;
        if self.epochs.is_ready(ts) {
            self.ready.push_back(id);
        } else {
            self.future.entry(ts.0).or_default().push(id);
        }
    }
}

impl Model for HostOnly {
    type Ev = Done;

    fn start(&mut self) {
        for t in self.app.initial_tasks() {
            self.epochs.spawned(t.ts);
            let id = self.tasks.insert(t);
            self.enqueue(id);
        }
        self.start_ready(SimTime::ZERO);
    }

    fn dispatch(&mut self, mut done: Done) {
        for child in done.children.drain(..) {
            self.enqueue(child);
        }
        self.spawn_pool.put(done.children);
        let opened = self.epochs.completed(self.tasks.get(done.task).ts);
        self.tasks.free(done.task);
        if let Some(released) = opened.and_then(|next| self.future.remove(&next.0)) {
            self.ready.extend(released);
        }
        self.idle.push(done.worker as usize);
        self.start_ready(self.q.now());
    }

    fn violations(&self) -> Vec<Violation> {
        let mut v = Vec::new();
        audit::check_tasks(&mut v, &self.tasks, &self.epochs);
        audit::check_buses(&mut v, "channel", &self.channels);
        // Host queues: every outstanding task is ready, parked, running
        // or a running task's child, and every worker is idle or runs
        // one task of the open epoch.
        let parked: usize = self.future.values().map(Vec::len).sum();
        let (mut running, mut children) = ([0usize; WORKERS], 0);
        for done in self.q.iter() {
            running[done.worker as usize] += 1;
            children += done.children.len();
            let ts = self.tasks.get(done.task).ts;
            if ts != self.epochs.current() {
                v.push(Violation {
                    law: "host-queues",
                    detail: format!("worker {} runs a task of epoch {}", done.worker, ts.0),
                });
            }
        }
        let (ready, run) = (self.ready.len(), running.iter().sum::<usize>());
        let outstanding = self.epochs.total_outstanding();
        if (ready + parked + run + children) as u64 != outstanding {
            v.push(Violation {
                law: "host-queues",
                detail: format!(
                    "{outstanding} outstanding tasks != {ready} ready + {parked} parked + \
                     {run} running + {children} children"
                ),
            });
        }
        for (w, &n) in running.iter().enumerate() {
            let idle = self.idle.iter().filter(|&&i| i == w).count();
            if idle + n != 1 {
                v.push(Violation {
                    law: "host-queues",
                    detail: format!("worker {w} is idle {idle} times and runs {n} tasks"),
                });
            }
        }
        v
    }

    fn finish(self) -> RunResult {
        let makespan = self
            .worker_last
            .iter()
            .fold(SimTime::ZERO, |m, &t| m.max(t));
        let busy_total = self.worker_busy.iter().fold(SimTime::ZERO, |a, &b| a + b);
        let per_unit_busy = self.worker_busy.iter().map(|b| b.ticks()).collect();
        let e = &self.cfg.energy;
        RunResult {
            energy: EnergyBreakdown {
                core_sram_pj: CORE_ACTIVE_W * busy_total.as_secs() * 1e12,
                dram_local_pj: e.dram_pj(self.dram_bytes) + e.channel_pj(self.dram_bytes),
                dram_comm_pj: 0.0,
                static_pj: STATIC_W * makespan.as_secs() * 1e12,
            },
            // Every event is one task's completion.
            tasks_executed: self.q.popped(),
            channel_bytes: self.channels.iter().map(|c| c.bytes).sum(),
            local_dram_bytes: self.dram_bytes,
            ..RunResult::new(self.app.as_ref(), "H".to_string(), makespan, per_unit_busy)
        }
    }

    fn queue(&mut self) -> &mut EventQueue<Done> {
        &mut self.q
    }

    fn epochs(&self) -> &EpochTracker {
        &self.epochs
    }

    fn audit_level(&self) -> AuditLevel {
        self.cfg.audit
    }

    fn take_profile(&mut self) -> Option<ProfileStats> {
        self.profile.take()
    }

    fn who(&self) -> String {
        format!("H on {}", self.app.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::DataAddr;
    use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};

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
        let run = |n| {
            let app = Flat { n, executed: 0 };
            HostOnly::new(SystemConfig::table1(), HostOnlyConfig, Box::new(app)).run()
        };
        let one = run(1);
        let many = run(160);
        let speedup = 160.0 * one.makespan.ticks() as f64 / many.makespan.ticks() as f64;
        assert!(speedup > 10.0, "compute-bound tasks scale: {speedup}");
    }

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

    #[test]
    fn epochs_are_barriers() {
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

    // ---- conservation audit ----------------------------------------------

    /// `app` on a fully audited model, started: its initial tasks are
    /// stored and the first 16 are running.
    fn audited(app: impl Application + 'static) -> HostOnly {
        let mut cfg = SystemConfig::table1();
        cfg.audit = AuditLevel::Full;
        let mut h = HostOnly::new(cfg, HostOnlyConfig, Box::new(app));
        h.start();
        assert!(h.violations().is_empty());
        h
    }

    #[test]
    fn audit_trips_on_leaked_task() {
        let mut h = audited(Flat { n: 64, executed: 0 });
        // A stored task nobody counts as outstanding: a completion that
        // forgot to free its slot looks exactly like this.
        let id = h.tasks.insert(*h.tasks.get(h.ready[0]));
        let v = h.violations();
        assert!(
            v.iter().any(|x| x.law == "task-conservation"
                && x.detail == "65 live arena slots != 64 outstanding tasks"),
            "{v:?}"
        );
        h.tasks.free(id);
        assert!(h.violations().is_empty());
    }

    #[test]
    fn audit_trips_on_task_dropped_at_epoch_release() {
        let mut h = audited(TwoPhase { phase1_seen: 0 });
        while h.epochs.current() == Timestamp(0) {
            let (_, done) = h.q.pop().expect("epoch 1 opens before the queue drains");
            h.dispatch(done);
        }
        assert!(h.violations().is_empty());
        // The barrier released 32 tasks and 16 started: one released
        // task that no queue holds is still counted as outstanding.
        let id = h.ready.pop_back().expect("released tasks wait");
        let v = h.violations();
        assert!(
            v.iter().any(|x| x.law == "host-queues"
                && x.detail
                    == "32 outstanding tasks != 15 ready + 0 parked + 16 running + 0 children"),
            "{v:?}"
        );
        h.ready.push_back(id);
        assert!(h.violations().is_empty());
    }

    #[test]
    fn audit_trips_on_worker_idle_while_running() {
        let mut h = audited(Flat { n: 64, executed: 0 });
        h.idle.push(3);
        let v = h.violations();
        assert!(
            v.iter().any(|x| x.law == "host-queues"
                && x.detail == "worker 3 is idle 1 times and runs 1 tasks"),
            "{v:?}"
        );
        h.idle.pop();
        assert!(h.violations().is_empty());
    }

    #[test]
    fn audit_trips_on_channel_busy_past_its_horizon() {
        let mut h = audited(Flat { n: 1, executed: 0 });
        h.channels[0].reserve(SimTime::ZERO, 64);
        assert!(h.violations().is_empty());
        h.channels[0].busy = h.channels[0].free_at() + SimTime::from_ticks(1);
        let v = h.violations();
        assert!(
            v.iter().any(|x| x.law == "bus-sanity"
                && x.detail.starts_with("channel 0: busy")
                && x.detail.contains("exceeds horizon")),
            "{v:?}"
        );
        h.channels[0].busy = h.channels[0].free_at();
        assert!(h.violations().is_empty());
    }
}
