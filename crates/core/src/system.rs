//! The full-system discrete-event simulation.
//!
//! [`System`] wires the NDP units, rank bridges, host bridge, buses and
//! an [`Application`] together and runs the workload to completion under
//! one [`DesignPoint`]. Everything the paper evaluates flows through
//! here: data-local task execution, mailbox-based message passing,
//! bridge gather/scatter rounds with dynamic triggering (Section V),
//! and hierarchical data-transfer-aware load balancing (Section VI).

use crate::fasthash::FastMap;

use ndpb_dram::bank::BankAccess;
use ndpb_dram::bus::BusGrant;
use ndpb_dram::{AddressMap, BlockAddr, Bus, EnergyBreakdown, UnitId};
use ndpb_proto::message::DataMessage;
use ndpb_proto::{Message, TaskMessage};
use ndpb_sim::{EventQueue, SimRng, SimTime, TICKS_PER_CORE_CYCLE};
use ndpb_tasks::{Application, ExecCtx, TaskId, Timestamp};
use ndpb_trace::{ComponentId, MetricId, MetricsRegistry, RingRecorder, TraceEvent, TraceRecord};

use crate::arena::TaskArena;
use crate::audit::{self, AuditLevel, Violation};
use crate::bridge::{HostBridge, RankBridge};
use crate::config::{w_threshold, SystemConfig, TriggerPolicy, HOST_ROUND_LATENCY};
use crate::design::{CommPath, DesignPoint, LbPolicy};
use crate::driver::{self, Model};
use crate::epoch::EpochTracker;
use crate::result::{ProfileStats, RunResult};
use crate::steal;
use crate::unit::{GatherAware, NdpUnit, ScheduledBlock};

/// Synthetic row ids for controller-managed bank regions (beyond the
/// data rows, like the paper's reserved addresses).
pub(crate) const MAILBOX_ROW: u64 = 1 << 21;
pub(crate) const TASKQ_ROW: u64 = (1 << 21) + 1;
const BORROW_ROW: u64 = (1 << 21) + 2;

#[derive(Debug)]
pub(crate) enum Ev {
    /// Wake a unit's core to execute the next task.
    CoreWake(u32),
    /// A task finished executing at a unit; deliver its children.
    TaskDone(u32, TaskId, Vec<TaskId>),
    /// A message arrives at a unit.
    Deliver(u32, Message),
    /// Periodic STATE-GATHER + load-balancing pass at a rank bridge.
    RankState(u32),
    /// A gather/scatter round at a rank bridge.
    RankRound(u32),
    /// Periodic host-side state poll (level-2 LB + round triggering).
    HostState,
    /// A host (level-2 / baseline-C) forwarding round.
    HostRound,
    /// A DIMM-Link round: drain one rank bridge's upward mailbox over
    /// its peer-to-peer link (bypassing the host).
    LinkRound(u32),
    /// A message arriving at a rank bridge over a DIMM-Link.
    LinkDeliver(u32, Message),
}

// Every slab node of the event queue holds one `Ev` inline, and every
// batch moves them by value. Tasks live in the arena, so no variant
// carries a task record (a `Task` is 64 bytes).
const _: () = assert!(std::mem::size_of::<Ev>() <= 48);

/// The simulated NDP system.
pub struct System {
    cfg: SystemConfig,
    design: DesignPoint,
    comm: CommPath,
    lb: LbPolicy,
    map: AddressMap,
    app: Box<dyn Application>,
    /// The event queue: pops in exact `(time, seq)` order, so every
    /// result is a pure function of the configuration and seed.
    q: EventQueue<Ev>,
    units: Vec<NdpUnit>,
    bridges: Vec<RankBridge>,
    host: HostBridge,
    rank_bus: Vec<Bus>,
    channel: Vec<Bus>,
    /// Per-rank egress DIMM-Links (empty unless `cfg.dimm_link`).
    link_bus: Vec<Bus>,
    link_scheduled: Vec<bool>,
    epochs: EpochTracker,
    /// Every live task, stored once from spawn until its execution
    /// completes; queues, messages and events carry its [`TaskId`].
    tasks: TaskArena,
    /// Optional event trace (`None` = tracing off: each record site
    /// costs one branch), written only through [`Self::record`].
    /// Attached via [`System::set_trace`], drained by `finalize`.
    trace: Option<RingRecorder>,
    /// Hierarchical run metrics, snapshotted at every epoch barrier.
    /// A counter registered here has no other copy.
    metrics: MetricsRegistry,
    m: SysMetrics,
    /// Task-data DRAM bytes read and written by the cores
    /// ([`RunResult::local_dram_bytes`]).
    local_dram_bytes: u64,
    /// Messages ever put into a unit mailbox, the message-conservation
    /// law's left-hand side.
    msgs_emitted: u64,
    /// Violations caught at update sites while the audit is on (a
    /// `toArrive` counter that would have gone negative), reported by
    /// the next scan.
    flagged: Vec<Violation>,
    /// Recycled staging buffer for gather/scatter message batches. Round
    /// handlers `mem::take` it, drain a mailbox or scatter buffer into
    /// it, consume it, and hand it back — so the steady-state event loop
    /// does no per-batch heap allocation.
    msg_scratch: Vec<Message>,
    /// Recycled per-destination grouping table for the direct (C/R)
    /// scatter path; inner `Vec`s cycle through [`Self::vec_pool`].
    per_unit_scratch: Vec<(usize, Vec<Message>)>,
    /// Free list of empty message `Vec`s backing `per_unit_scratch`.
    vec_pool: crate::pool::BufPool<Message>,
    /// Persistent execution context: task reads/writes/spawns land in
    /// recycled buffers instead of three fresh `Vec`s per task.
    exec_ctx: ExecCtx,
    /// Free list of child-id `Vec`s riding [`Ev::TaskDone`] events.
    spawn_pool: crate::pool::BufPool<TaskId>,
    /// Recycled buffers of the load-balancing rounds, so a round
    /// allocates nothing once they have grown.
    lb_scratch: LbScratch,
    /// Event-loop phase profile, armed by [`System::set_profile`] and
    /// surfaced as [`RunResult::profile`]. Deliberately *not* part of
    /// [`SystemConfig`]: the config's debug representation is hashed
    /// into cache fingerprints, and a wall-clock measurement toggle
    /// must never change a result's identity.
    profile: Option<ProfileStats>,
}

/// Recycled buffers of `System::lb_rank` and `System::lb_cross_rank`.
#[derive(Default)]
struct LbScratch {
    /// Idle units (receivers) of a rank, or idle ranks.
    idle: Vec<usize>,
    /// Busy units (givers) of a rank, or busy ranks.
    busy: Vec<usize>,
    /// (giver, budget) per matched giver, in first-matched order.
    budgets: Vec<(usize, u64)>,
    /// (index into `budgets`, receiver), in receiver order.
    matches: Vec<(usize, usize)>,
    /// The receivers handed to one `schedule_giver` call.
    recvs: Vec<usize>,
}

/// Per-cause attribution of communication-DRAM traffic. Every byte
/// added to `system/comm_dram_bytes` is also charged to exactly one
/// cause (via [`System::charge_comm`]), so the ledger rows sum to the
/// total — an equality the auditor checks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CommCause {
    /// Local in-DRAM task-queue appends (same-unit spawns).
    Taskq,
    /// RowClone bank-to-bank copies (design R).
    RowClone,
    /// Mailbox writes of ordinary task messages.
    MailTask,
    /// Mailbox writes of LB-scheduled task messages.
    MailSched,
    /// Mailbox writes of block-assignment data messages.
    MailData,
    /// Mailbox writes of return-home data messages.
    MailReturn,
    /// Bridge gather reads of bank mailbox regions.
    Gather,
    /// Bridge scatter writes into destination banks.
    Scatter,
    /// Host direct-poll gather reads (designs C/R).
    HostGather,
    /// Host direct scatter writes (designs C/R).
    HostScatter,
}

impl CommCause {
    const NAMES: [&'static str; 10] = [
        "ledger/comm/taskq",
        "ledger/comm/rowclone",
        "ledger/comm/mail_task",
        "ledger/comm/mail_sched",
        "ledger/comm/mail_data",
        "ledger/comm/mail_return",
        "ledger/comm/gather",
        "ledger/comm/scatter",
        "ledger/comm/host_gather",
        "ledger/comm/host_scatter",
    ];
}

/// Per-cause attribution of SRAM staging traffic (the
/// `system/sram_staged_bytes` counterpart of [`CommCause`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum SramCause {
    /// Borrowed-region metadata updates on block admission.
    BorrowMeta,
    /// Messages staged into bridge buffers during gathers.
    BridgeGather,
    /// Messages staged out of bridge buffers during scatters.
    BridgeScatter,
    /// STATE-GATHER child-state bytes.
    State,
    /// DIMM-Link staging.
    Link,
    /// Host-bridge gather staging (level-2 rounds).
    HostGather,
}

impl SramCause {
    const NAMES: [&'static str; 6] = [
        "ledger/sram/borrow_meta",
        "ledger/sram/bridge_gather",
        "ledger/sram/bridge_scatter",
        "ledger/sram/state",
        "ledger/sram/link",
        "ledger/sram/host_gather",
    ];
}

/// Every in-flight message: in mailboxes, buffers and queued
/// delivery events.
#[derive(Default)]
struct InFlight {
    msgs: u64,
    data_blocks: FastMap<u64, u32>,
    task_toward: FastMap<u32, u64>,
}

/// Pre-registered [`MetricId`]s for the system's counters, so hot paths
/// update by index instead of by name.
struct SysMetrics {
    // Updated inline, at the site of the simulated event.
    comm_dram_bytes: MetricId,
    msgs_delivered: MetricId,
    blocks_migrated: MetricId,
    sram_staged_bytes: MetricId,
    epoch: MetricId,
    unit_tasks_executed: MetricId,
    unit_tasks_rerouted: MetricId,
    unit_mailbox_stalls: MetricId,
    bridge_gathers: MetricId,
    bridge_wasted_gathers: MetricId,
    bridge_scatters: MetricId,
    bridge_bytes_gathered: MetricId,
    bridge_bytes_scattered: MetricId,
    bridge_lb_rounds: MetricId,
    bridge_schedules: MetricId,
    host_bytes_gathered: MetricId,
    host_bytes_scattered: MetricId,
    host_lb_rounds: MetricId,
    // Gauges `harvest_metrics` reads at snapshot time from state other
    // crates own: the units' reserved queues and the buses.
    sketch_reserved_hits: MetricId,
    sketch_reserved_overflows: MetricId,
    sketch_reserved_peak_chunks: MetricId,
    sketch_reserved_peak_tasks: MetricId,
    bus_rank_bytes: MetricId,
    bus_channel_bytes: MetricId,
    /// Per-cause traffic ledger rows, indexed by [`CommCause`].
    ledger_comm: [MetricId; 10],
    /// Per-cause SRAM staging rows, indexed by [`SramCause`].
    ledger_sram: [MetricId; 6],
}

impl SysMetrics {
    fn register(reg: &mut MetricsRegistry) -> Self {
        SysMetrics {
            comm_dram_bytes: reg.register("system/comm_dram_bytes"),
            msgs_delivered: reg.register("system/msgs_delivered"),
            blocks_migrated: reg.register("system/blocks_migrated"),
            sram_staged_bytes: reg.register("system/sram_staged_bytes"),
            epoch: reg.register("system/epoch"),
            unit_tasks_executed: reg.register("unit/tasks_executed"),
            unit_tasks_rerouted: reg.register("unit/tasks_rerouted"),
            unit_mailbox_stalls: reg.register("unit/mailbox_stalls"),
            sketch_reserved_hits: reg.register("sketch/reserved_hits"),
            sketch_reserved_overflows: reg.register("sketch/reserved_overflows"),
            bridge_gathers: reg.register("bridge/gathers"),
            bridge_wasted_gathers: reg.register("bridge/wasted_gathers"),
            bridge_scatters: reg.register("bridge/scatters"),
            bridge_bytes_gathered: reg.register("bridge/bytes_gathered"),
            bridge_bytes_scattered: reg.register("bridge/bytes_scattered"),
            bridge_lb_rounds: reg.register("bridge/lb_rounds"),
            bridge_schedules: reg.register("bridge/schedules"),
            host_bytes_gathered: reg.register("host/bytes_gathered"),
            host_bytes_scattered: reg.register("host/bytes_scattered"),
            host_lb_rounds: reg.register("host/lb_rounds"),
            bus_rank_bytes: reg.register("bus/rank_bytes"),
            bus_channel_bytes: reg.register("bus/channel_bytes"),
            sketch_reserved_peak_chunks: reg.register("sketch/reserved_peak_chunks"),
            sketch_reserved_peak_tasks: reg.register("sketch/reserved_peak_tasks"),
            ledger_comm: CommCause::NAMES.map(|n| reg.register(n)),
            ledger_sram: SramCause::NAMES.map(|n| reg.register(n)),
        }
    }
}

// The sweep engine builds a `System` on one thread and may run it on
// another, and ships `RunResult`s back over channels. Every field is
// owned data; the boxed `Application` carries `Send` as a supertrait.
// This assertion turns any future `Rc`/non-`Send` regression into a
// compile error at the source.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<RunResult>();
};

impl System {
    /// Builds a system running `app` under `design` with `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]).
    pub fn new(cfg: SystemConfig, design: DesignPoint, app: Box<dyn Application>) -> Self {
        cfg.validate();
        // Every component gets its own RNG stream, forked in a fixed
        // order (units, then rank bridges, then the host bridge):
        // forking mutates the parent, so this order is part of every
        // result's identity.
        let mut rng = SimRng::new(cfg.seed);
        let map = AddressMap::new(&cfg.geometry, cfg.g_xfer, cfg.timing.row_bytes);
        let units: Vec<NdpUnit> = cfg
            .geometry
            .all_units()
            .map(|id| NdpUnit::new(id, &cfg, rng.fork(id.0 as u64)))
            .collect();
        let bridges: Vec<RankBridge> = (0..cfg.geometry.total_ranks())
            .map(|r| {
                RankBridge::new(
                    ndpb_dram::RankId(r),
                    cfg.geometry.units_per_rank() as usize,
                    &cfg,
                    rng.fork(1_000_000 + r as u64),
                )
            })
            .collect();
        let host = HostBridge::new(
            cfg.geometry.total_ranks() as usize,
            &cfg,
            rng.fork(2_000_000),
        );
        let rank_bus = (0..cfg.geometry.total_ranks())
            .map(|_| Bus::new(cfg.geometry.intra_rank_data_bits()))
            .collect();
        let channel = (0..cfg.geometry.channels)
            .map(|_| Bus::new(cfg.geometry.channel_dq_bits()))
            .collect();
        let link_bus = match cfg.dimm_link {
            Some(bits) => (0..cfg.geometry.total_ranks())
                .map(|_| Bus::new(bits))
                .collect(),
            None => Vec::new(),
        };
        let link_scheduled = vec![false; cfg.geometry.total_ranks() as usize];
        let mut metrics = MetricsRegistry::new();
        let m = SysMetrics::register(&mut metrics);
        // Each unit has at most a few `TaskDone`s in flight, so one
        // child list per unit keeps every list in circulation.
        let spawn_pool = crate::pool::BufPool::with_cap(units.len());
        System {
            comm: design.comm_path(),
            lb: design.lb_policy(),
            design,
            map,
            app,
            q: EventQueue::new(),
            units,
            bridges,
            host,
            rank_bus,
            channel,
            link_bus,
            link_scheduled,
            epochs: EpochTracker::new(),
            tasks: TaskArena::new(),
            trace: None,
            metrics,
            m,
            local_dram_bytes: 0,
            msgs_emitted: 0,
            flagged: Vec::new(),
            cfg,
            msg_scratch: Vec::new(),
            per_unit_scratch: Vec::new(),
            vec_pool: crate::pool::BufPool::new(),
            exec_ctx: ExecCtx::new(ndpb_dram::UnitId(0)),
            spawn_pool,
            lb_scratch: LbScratch::default(),
            profile: None,
        }
    }

    /// Schedules `ev` at `at`.
    #[inline]
    fn sched(&mut self, at: SimTime, ev: Ev) {
        self.q.schedule(at, ev);
    }

    /// The message that carries task `id`.
    fn task_msg(&self, id: TaskId) -> TaskMessage {
        TaskMessage::new(id, self.tasks.get(id))
    }

    /// Charges communication-DRAM traffic to the system total and the
    /// matching per-cause ledger row (the audit checks they stay equal).
    fn charge_comm(&mut self, cause: CommCause, bytes: u64) {
        self.metrics.add(self.m.comm_dram_bytes, bytes);
        self.metrics.add(self.m.ledger_comm[cause as usize], bytes);
    }

    /// Charges SRAM staging traffic to the total and its ledger row.
    fn charge_sram(&mut self, cause: SramCause, bytes: u64) {
        self.metrics.add(self.m.sram_staged_bytes, bytes);
        self.metrics.add(self.m.ledger_sram[cause as usize], bytes);
    }

    // ---- traced hardware actions ------------------------------------------
    // `System` alone records trace events (only it knows component ids);
    // the bank, bus and mailbox models are trace-free. Untraced calls
    // (RowClone's bank accesses, gather put-backs, the upward mailbox) go
    // to the models directly.

    /// Records `rec` if a trace is attached.
    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        if let Some(t) = &mut self.trace {
            t.record(rec);
        }
    }

    /// Unit `u`'s bank serves an access (the access arbiter). An access
    /// that opens a row is recorded as a `BankActivate` span over its
    /// service window; row hits, the common case, are not recorded.
    fn bank_access(
        &mut self,
        u: usize,
        at: SimTime,
        row: u64,
        bytes: u32,
        write: bool,
    ) -> BankAccess {
        let a = self.units[u]
            .bank
            .access(at, row, bytes, write, &self.cfg.timing);
        if a.activated {
            self.record(TraceRecord::span(
                a.start,
                a.end - a.start,
                ComponentId::Unit(u as u32),
                TraceEvent::BankActivate { row, write },
            ));
        }
        a
    }

    /// Closes unit `u`'s open row, recording a `BankPrecharge` at `at`.
    fn bank_precharge(&mut self, u: usize, at: SimTime) {
        self.units[u].bank.precharge();
        self.record(TraceRecord::instant(
            at,
            ComponentId::Unit(u as u32),
            TraceEvent::BankPrecharge,
        ));
    }

    /// Reserves `bytes` on the link `comp` names (a rank bus, channel or
    /// DIMM-Link) no sooner than `at`, recording a `BusTransfer` span
    /// over the granted window.
    fn reserve(&mut self, comp: ComponentId, at: SimTime, bytes: u64) -> BusGrant {
        let bus = match comp {
            ComponentId::RankBus(r) => &mut self.rank_bus[r as usize],
            ComponentId::Channel(ch) => &mut self.channel[ch as usize],
            ComponentId::Link(r) => &mut self.link_bus[r as usize],
            other => unreachable!("{other:?} is not a link"),
        };
        let g = bus.reserve(at, bytes);
        self.record(TraceRecord::span(
            g.start,
            g.end - g.start,
            comp,
            TraceEvent::BusTransfer { bytes },
        ));
        g
    }

    /// Offers `msg` to unit `u`'s mailbox and hands it back if the
    /// mailbox is full. Records a `MailboxEnqueue`, or a `MailboxFull`
    /// only on the rejection that opens a full episode, so a stalled
    /// core emits one event per stall however often it retries.
    fn mailbox_push(&mut self, u: usize, msg: Message, now: SimTime) -> Option<Message> {
        let mb = &mut self.units[u].mailbox;
        let (opens_episode, size) = (!mb.full_latched(), msg.wire_bytes());
        let back = mb.try_push(msg);
        let used = mb.bytes_used();
        let event = match back {
            None => TraceEvent::MailboxEnqueue { bytes: size, used },
            Some(_) if opens_episode => TraceEvent::MailboxFull { needed: size, used },
            Some(_) => return back,
        };
        let comp = ComponentId::Unit(u as u32);
        self.record(TraceRecord::instant(now, comp, event));
        back
    }

    /// Attaches a trace recorder; events recorded during
    /// [`run`](Self::run) are drained into [`RunResult::trace`], and the
    /// count the ring evicted into [`RunResult::trace_dropped`]. Without
    /// a recorder every record site costs a single branch.
    pub fn set_trace(&mut self, recorder: RingRecorder) {
        self.trace = Some(recorder);
    }

    /// Arms the event-loop phase profiler: [`run`](Self::run) will
    /// attribute wall time to queue ops vs. handler dispatch vs.
    /// finalization and record the same-tick batch-length histogram,
    /// surfacing it as [`RunResult::profile`]. A profiled run takes the
    /// same event loop as an unprofiled one (the timers are per-batch
    /// hooks in it) and produces byte-identical results; the profile
    /// itself never reaches golden JSON or the result cache.
    pub fn set_profile(&mut self) {
        self.profile = Some(ProfileStats::default());
    }

    /// The address map in force (for tests and workload setup).
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Runs the application to completion and returns the metrics.
    pub fn run(self) -> RunResult {
        driver::run(self)
    }

    // ---- setup ------------------------------------------------------------

    fn inject_initial(&mut self) {
        let initial = self.app.initial_tasks();
        let hot = self.lb.hot_data;
        for task in initial {
            self.epochs.spawned(task.ts);
            let id = self.tasks.insert(task);
            let idx = self.map.home_unit(task.data).index();
            if self.epochs.is_ready(task.ts) {
                self.units[idx].enqueue_ready(id, &self.tasks, hot, &self.map);
            } else {
                self.units[idx].enqueue_future(id, task.ts);
            }
        }
        for u in 0..self.units.len() {
            if self.units[u].queued_tasks() > 0 {
                self.wake_unit(u, SimTime::ZERO);
            }
        }
    }

    fn wake_unit(&mut self, u: usize, at: SimTime) {
        let unit = &mut self.units[u];
        if unit.wake_scheduled {
            return;
        }
        unit.wake_scheduled = true;
        let at = at.max(self.q.now());
        self.sched(at, Ev::CoreWake(u as u32));
    }

    // ---- core execution ---------------------------------------------------

    fn on_core_wake(&mut self, u: usize) {
        self.units[u].wake_scheduled = false;
        let now = self.q.now();
        if now < self.units[u].core_free_at {
            let at = self.units[u].core_free_at;
            self.wake_unit(u, at);
            return;
        }
        // A core with undelivered outgoing messages is stalled until the
        // next gather drains the mailbox (Section V-A).
        if !self.units[u].pending_out.is_empty() {
            self.flush_pending_out(u);
            if !self.units[u].pending_out.is_empty() {
                self.metrics.inc(self.m.unit_mailbox_stalls);
                return;
            }
        }
        let Some(id) = self.units[u].pop_task(&self.tasks, &self.map) else {
            return;
        };
        let task = self.tasks.get(id);
        let (data, func, wl) = (task.data, task.func, task.workload_or_default());
        let block = self.map.block_of(data);
        if !self.units[u].holds_block(block, &self.map) {
            // The block migrated while this task waited: re-route it.
            self.metrics.inc(self.m.unit_tasks_rerouted);
            let msg = Message::Task(self.task_msg(id), None);
            self.emit_message(u, msg, now);
            self.wake_unit(u, now);
            return;
        }
        if self.units[u].is_borrowed(block) {
            self.units[u].touch_borrow(block);
        }
        // Execute, reusing the persistent context: reads, writes and
        // spawns land in buffers that keep their capacity across tasks.
        self.exec_ctx.reset(self.units[u].id);
        self.app.execute(self.tasks.get(id), &mut self.exec_ctx);
        let cycles = self.exec_ctx.compute_cycles();
        let mut t = now + SimTime::from_ticks(cycles * TICKS_PER_CORE_CYCLE);
        for i in 0..self.exec_ctx.reads().len() {
            let (addr, bytes) = self.exec_ctx.reads()[i];
            let row = self.map.row_of(addr);
            t = self.bank_access(u, t, row, bytes, false).end;
            self.local_dram_bytes += bytes as u64;
        }
        for i in 0..self.exec_ctx.writes().len() {
            let (addr, bytes) = self.exec_ctx.writes()[i];
            let row = self.map.row_of(addr);
            t = self.bank_access(u, t, row, bytes, true).end;
            self.local_dram_bytes += bytes as u64;
        }
        let unit = &mut self.units[u];
        unit.core_free_at = t;
        unit.busy += t - now;
        unit.last_finish = t;
        unit.add_finished(wl);
        self.metrics.inc(self.m.unit_tasks_executed);
        self.record(TraceRecord::span(
            now,
            t - now,
            ComponentId::Unit(u as u32),
            TraceEvent::TaskExec {
                func: func.0,
                workload: wl,
            },
        ));
        // A child is stored and counted as spawned in one step, so the
        // arena's live count always equals the tracker's outstanding one.
        let mut children = self.spawn_pool.get();
        for c in self.exec_ctx.spawned() {
            self.epochs.spawned(c.ts);
            children.push(self.tasks.insert(*c));
        }
        self.sched(t, Ev::TaskDone(u as u32, id, children));
    }

    fn on_task_done(&mut self, u: usize, id: TaskId, mut children: Vec<TaskId>) {
        let now = self.q.now();
        for child in children.drain(..) {
            self.route_spawn(u, child, now);
        }
        self.spawn_pool.put(children);
        let opened = self.epochs.completed(self.tasks.get(id).ts);
        self.tasks.free(id);
        if let Some(new_epoch) = opened {
            self.note_epoch_advance(new_epoch, now);
            let hot = self.lb.hot_data;
            for i in 0..self.units.len() {
                let released = self.units[i].release_epoch(new_epoch, &self.tasks, hot, &self.map);
                if released > 0 {
                    self.wake_unit(i, now);
                }
            }
        }
        self.wake_unit(u, now);
    }

    /// Routes a freshly spawned child task from unit `u`.
    fn route_spawn(&mut self, u: usize, id: TaskId, now: SimTime) {
        let task = self.tasks.get(id);
        let (ts, bytes) = (task.ts, task.wire_bytes());
        let block = self.map.block_of(task.data);
        if self.units[u].holds_block(block, &self.map) {
            // Local: enqueue directly (a cheap in-DRAM task-queue append).
            self.charge_comm(CommCause::Taskq, bytes as u64);
            self.bank_access(u, now, TASKQ_ROW, bytes, true);
            let hot = self.lb.hot_data;
            if self.epochs.is_ready(ts) {
                self.units[u].enqueue_ready(id, &self.tasks, hot, &self.map);
                self.wake_unit(u, now);
            } else {
                self.units[u].enqueue_future(id, ts);
            }
            return;
        }
        // RowClone fast path: same-chip destination.
        if self.comm == CommPath::RowClone {
            let home = self.map.block_home(block);
            if self.cfg.geometry.same_chip(self.units[u].id, home) {
                self.rowclone_transfer(u, home.index(), id, now);
                return;
            }
        }
        self.emit_message(u, Message::Task(self.task_msg(id), None), now);
    }

    /// Direct bank-to-bank transfer over the chip-internal bus (R).
    fn rowclone_transfer(&mut self, src: usize, dst: usize, id: TaskId, now: SimTime) {
        let copy = self.cfg.timing.rowclone_row_copy();
        let timing = &self.cfg.timing;
        // Both banks are busy for the copy; serialize behind each.
        let s = self.units[src]
            .bank
            .access(now, MAILBOX_ROW, 64, false, timing)
            .end;
        let start = s.max(self.units[dst].bank.busy_until());
        let end = start + copy;
        // Occupy the destination bank for the copy window.
        self.units[dst]
            .bank
            .access(start, BORROW_ROW, 64, true, timing);
        self.bank_precharge(src, s);
        self.bank_precharge(dst, end);
        self.charge_comm(CommCause::RowClone, 128);
        self.msgs_emitted += 1;
        let msg = Message::Task(self.task_msg(id), None);
        self.sched(end, Ev::Deliver(dst as u32, msg));
    }

    /// Puts a message into `u`'s mailbox (stalling the core when full),
    /// charging the in-DRAM mailbox write.
    fn emit_message(&mut self, u: usize, msg: Message, now: SimTime) {
        let bytes = msg.wire_bytes();
        let cause = match &msg {
            Message::Task(_, None) => CommCause::MailTask,
            Message::Task(_, Some(_)) => CommCause::MailSched,
            Message::Data(dm, dest) => {
                if *dest == self.map.block_home(dm.block) {
                    CommCause::MailReturn
                } else {
                    CommCause::MailData
                }
            }
        };
        self.charge_comm(cause, bytes as u64);
        self.bank_access(u, now, MAILBOX_ROW, bytes, true);
        self.msgs_emitted += 1;
        if !self.units[u].pending_out.is_empty() {
            self.units[u].pending_out.push_back(msg);
        } else if let Some(back) = self.mailbox_push(u, msg, now) {
            // Mailbox full: park the message and stall the core until a
            // gather frees space (Section V-A).
            self.units[u].pending_out.push_back(back);
            self.metrics.inc(self.m.unit_mailbox_stalls);
        }
        self.consider_comm(u, now);
    }

    fn consider_comm(&mut self, u: usize, now: SimTime) {
        match self.comm {
            CommPath::Bridges => {
                let r = self.cfg.geometry.rank_of(self.units[u].id).index();
                self.consider_rank_round(r, now);
            }
            CommPath::HostForward | CommPath::RowClone => {
                self.consider_host_round(now);
            }
        }
    }

    /// Moves messages parked in `pending_out` into the mailbox as space
    /// allows; wakes the core when fully drained.
    fn flush_pending_out(&mut self, u: usize) {
        let now = self.q.now();
        while let Some(front) = self.units[u].pending_out.pop_front() {
            if let Some(back) = self.mailbox_push(u, front, now) {
                self.units[u].pending_out.push_front(back);
                break;
            }
        }
        if self.units[u].pending_out.is_empty() {
            self.wake_unit(u, now);
        }
    }

    // ---- message delivery --------------------------------------------------

    fn on_deliver(&mut self, u: usize, msg: Message) {
        let now = self.q.now();
        self.metrics.inc(self.m.msgs_delivered);
        match msg {
            Message::Task(tm, scheduled) => {
                let task = self.tasks.get(tm.id);
                let (ts, block) = (task.ts, self.map.block_of(tm.data));
                // First delivery of an LB-scheduled task settles the
                // `toArrive` correction for its *intended* receiver at
                // both hierarchy levels (both were incremented at
                // SCHEDULE time), no matter where the task actually
                // lands; a reroute below clears the marker so this
                // happens exactly once.
                if let Some(intended) = scheduled {
                    if self.comm == CommPath::Bridges {
                        let wl = task.workload_or_default();
                        let ir = self.cfg.geometry.rank_of(intended).index();
                        let il = self.local_index(intended.index());
                        if self.cfg.audit != AuditLevel::Off
                            && self.flagged.len() < 16
                            && (self.bridges[ir].to_arrive[il] < wl || self.host.to_arrive[ir] < wl)
                        {
                            let detail = format!(
                                "toArrive underflow settling a scheduled task for u{}: \
                                 bridge {} / host {} against workload {wl}",
                                intended.0, self.bridges[ir].to_arrive[il], self.host.to_arrive[ir],
                            );
                            self.flagged.push(Violation {
                                law: "to-arrive",
                                detail,
                            });
                        }
                        self.bridges[ir].to_arrive[il] =
                            self.bridges[ir].to_arrive[il].saturating_sub(wl);
                        self.host.to_arrive[ir] = self.host.to_arrive[ir].saturating_sub(wl);
                    }
                }
                if !self.units[u].holds_block(block, &self.map) {
                    // Stale routing: forward to the current holder.
                    self.metrics.inc(self.m.unit_tasks_rerouted);
                    self.emit_message(u, Message::Task(tm, None), now);
                    return;
                }
                let hot = self.lb.hot_data;
                if self.epochs.is_ready(ts) {
                    self.units[u].enqueue_ready(tm.id, &self.tasks, hot, &self.map);
                    self.wake_unit(u, now);
                } else {
                    self.units[u].enqueue_future(tm.id, ts);
                }
            }
            Message::Data(dm, _dest) => {
                let home = self.map.block_home(dm.block);
                if home.index() == u {
                    // The block returned home.
                    self.units[u].is_lent.clear(dm.block);
                    self.wake_unit(u, now);
                } else {
                    // An assignment is only admitted while the rank
                    // bridge still maps the block to this unit; a stale
                    // arrival (metadata evicted while the data was in
                    // flight) bounces straight home instead of creating
                    // an orphan borrow.
                    let uid = self.units[u].id;
                    let r = self.cfg.geometry.rank_of(uid).index();
                    let stale = self.comm == CommPath::Bridges
                        && self.bridges[r].data_borrowed.peek(&dm.block) != Some(&uid);
                    if stale {
                        self.return_block_home(u, dm.block, now);
                    } else {
                        self.admit_borrowed_block(u, dm, now);
                    }
                }
            }
        }
    }

    fn admit_borrowed_block(&mut self, u: usize, dm: DataMessage, now: SimTime) {
        let evicted = self.units[u].admit_borrow(dm.block);
        // Borrowed-region write charged during scatter already; the
        // metadata update is an SRAM access.
        self.charge_sram(SramCause::BorrowMeta, 16);
        if let Some(victim) = evicted {
            self.return_block_home(u, victim, now);
        }
    }

    /// Sends an evicted borrowed block back to its home unit, cleaning
    /// bridge metadata along the way.
    fn return_block_home(&mut self, u: usize, block: BlockAddr, now: SimTime) {
        let home = self.map.block_home(block);
        let my_rank = self.cfg.geometry.rank_of(self.units[u].id);
        self.bridges[my_rank.index()].data_borrowed.remove(&block);
        self.host.data_borrowed.remove(&block);
        let dm = DataMessage {
            block,
            bytes: self.cfg.g_xfer,
            workload: 0,
        };
        self.emit_message(u, Message::Data(dm, home), now);
    }

    // ---- routing -----------------------------------------------------------

    fn local_index(&self, u: usize) -> usize {
        // Per-gathered-message hot path: mask instead of hardware
        // divide for power-of-two per-rank unit counts (identical
        // results; every evaluated geometry qualifies).
        let upr = self.cfg.geometry.units_per_rank() as usize;
        if upr.is_power_of_two() {
            u & (upr - 1)
        } else {
            u % upr
        }
    }

    /// Rank-bridge routing decision for a gathered message: a local
    /// destination unit, or `None` meaning "send to the upper level".
    fn route_at_rank(&mut self, r: usize, msg: &Message) -> Option<usize> {
        let g = &self.cfg.geometry;
        match msg {
            Message::Task(tm, _) => {
                let block = self.map.block_of(tm.data);
                if let Some(&unit) = self.bridges[r].data_borrowed.peek(&block) {
                    return Some(unit.index());
                }
                let home = self.map.block_home(block);
                if g.rank_of(home).index() == r {
                    if self.units[home.index()].is_lent.is_lent(block) {
                        // Lent out of this rank entirely.
                        None
                    } else {
                        Some(home.index())
                    }
                } else {
                    None
                }
            }
            Message::Data(_, dest) => {
                if g.rank_of(*dest).index() == r {
                    Some(dest.index())
                } else {
                    None
                }
            }
        }
    }

    /// Host-level routing: which rank should receive this message.
    fn route_at_host(&mut self, msg: &Message) -> usize {
        let g = &self.cfg.geometry;
        match msg {
            Message::Task(tm, _) => {
                let block = self.map.block_of(tm.data);
                if let Some(&rank) = self.host.data_borrowed.peek(&block) {
                    return rank.index();
                }
                g.rank_of(self.map.block_home(block)).index()
            }
            Message::Data(_, dest) => g.rank_of(*dest).index(),
        }
    }

    // ---- rank bridge rounds -------------------------------------------------

    fn consider_rank_round(&mut self, r: usize, now: SimTime) {
        if self.epochs.all_done()
            || self.bridges[r].round_scheduled
            || self.comm != CommPath::Bridges
        {
            return;
        }
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        let n = self.cfg.geometry.units_per_rank() as usize;
        let units = &self.units[base..base + n];
        let any_msgs =
            units.iter().any(|u| !u.mailbox.is_empty()) || self.bridges[r].has_pending_output();
        let at = match self.cfg.trigger {
            TriggerPolicy::Dynamic => {
                if !any_msgs {
                    return;
                }
                let big = units
                    .iter()
                    .any(|u| u.mailbox.bytes_used() >= self.cfg.g_xfer as u64);
                let pending_scatter = (0..n).any(|i| self.bridges[r].scatter_pending(i) > 0)
                    || self.bridges[r].backup_pending() > 0;
                if big || pending_scatter {
                    // An unproductive round (nothing gathered or
                    // scattered) must back off instead of re-running at
                    // the same instant.
                    if self.bridges[r].last_round_idle {
                        now.max(self.bridges[r].last_round_end + self.cfg.i_min())
                    } else {
                        now.max(self.bridges[r].last_round_end)
                    }
                } else {
                    let idle = units.iter().any(|u| u.queue_workload() == 0);
                    if idle {
                        now.max(self.bridges[r].last_round_start + self.cfg.i_min())
                            .max(self.bridges[r].last_round_end)
                    } else {
                        return; // wait for the next state gather to re-check
                    }
                }
            }
            TriggerPolicy::FixedIMin => now
                .max(self.bridges[r].last_round_start + self.cfg.i_min())
                .max(self.bridges[r].last_round_end),
            TriggerPolicy::Fixed2IMin => {
                let two = self.cfg.i_min() + self.cfg.i_min();
                now.max(self.bridges[r].last_round_start + two)
                    .max(self.bridges[r].last_round_end)
            }
        };
        self.bridges[r].round_scheduled = true;
        self.sched(at, Ev::RankRound(r as u32));
    }

    fn on_rank_round(&mut self, r: usize) {
        self.bridges[r].round_scheduled = false;
        let now = self.q.now();
        let gxfer = self.cfg.g_xfer;
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        let chips = self.cfg.geometry.chips_per_rank as usize;
        let banks = self.cfg.geometry.banks_per_chip as usize;
        // One GATHER/SCATTER command moves `G_xfer` from every chip.
        let burst = chips as u64 * gxfer as u64;
        let fixed_trigger = self.cfg.trigger != TriggerPolicy::Dynamic;
        self.bridges[r].last_round_start = now;
        let mut t = now;
        let mut paused = false;
        let mut moved = 0u64;

        // GATHER phase: one command per bank position serves all chips.
        // Positions are visited round-robin starting at the bridge's
        // cursor so a buffer-full pause cannot starve late positions.
        let start_pos = self.bridges[r].gather_cursor as usize % banks;
        'positions: for step in 0..banks {
            let pos = (start_pos + step) % banks;
            let unit_at = |c: usize| base + c * banks + pos;
            let wanted = fixed_trigger
                || (0..chips).map(unit_at).any(|u| {
                    !self.units[u].mailbox.is_empty() || !self.units[u].pending_out.is_empty()
                });
            if !wanted {
                continue;
            }
            let grant = self.reserve(ComponentId::RankBus(r as u32), t, burst);
            t = grant.end;
            for u in (0..chips).map(unit_at) {
                self.metrics.inc(self.m.bridge_gathers);
                // The bank read of the mailbox region (access arbiter).
                self.bank_access(u, grant.start, MAILBOX_ROW, gxfer, false);
                self.charge_comm(CommCause::Gather, gxfer as u64);
                let mut msgs = std::mem::take(&mut self.msg_scratch);
                self.units[u].mailbox.drain_up_to_into(gxfer, &mut msgs);
                let msg_count = msgs.len() as u32;
                if msgs.is_empty() {
                    self.metrics.inc(self.m.bridge_wasted_gathers);
                } else {
                    moved += msgs.len() as u64;
                }
                let mut gathered = 0u64;
                for msg in msgs.drain(..) {
                    gathered += msg.wire_bytes() as u64;
                    if paused {
                        // Put it back; we stopped absorbing.
                        let unit = &mut self.units[u];
                        if let Some(back) = unit.mailbox.try_push(msg) {
                            unit.pending_out.push_front(back);
                        }
                        continue;
                    }
                    if let Err(back) = self.absorb_at_rank(r, msg) {
                        paused = true;
                        let unit = &mut self.units[u];
                        if let Some(back) = unit.mailbox.try_push(back) {
                            unit.pending_out.push_front(back);
                        }
                    }
                }
                self.msg_scratch = msgs;
                self.metrics.add(self.m.bridge_bytes_gathered, gathered);
                self.charge_sram(SramCause::BridgeGather, gathered);
                self.record(TraceRecord::span(
                    grant.start,
                    grant.end - grant.start,
                    ComponentId::Bridge(r as u32),
                    TraceEvent::Gather {
                        bytes: gathered,
                        msgs: msg_count,
                        wasted: msg_count == 0,
                    },
                ));
                // Space freed: unblock a stalled core.
                if !self.units[u].pending_out.is_empty() {
                    self.flush_pending_out(u);
                }
                if paused {
                    self.bridges[r].gather_cursor = (pos as u32 + 1) % banks as u32;
                    break 'positions;
                }
            }
            if step == banks - 1 {
                self.bridges[r].gather_cursor = (pos as u32 + 1) % banks as u32;
            }
        }

        // SCATTER phase.
        self.bridges[r].refill_from_backup();
        for pos in 0..banks {
            let unit_at = |c: usize| base + c * banks + pos;
            let wanted = (0..chips)
                .map(unit_at)
                .any(|u| self.bridges[r].scatter_pending(self.local_index(u)) > 0);
            if !wanted {
                continue;
            }
            let grant = self.reserve(ComponentId::RankBus(r as u32), t, burst);
            t = grant.end;
            for u in (0..chips).map(unit_at) {
                let local = self.local_index(u);
                let mut msgs = std::mem::take(&mut self.msg_scratch);
                self.bridges[r].drain_scatter_into(local, gxfer, &mut msgs);
                if msgs.is_empty() {
                    self.msg_scratch = msgs;
                    continue;
                }
                self.metrics.inc(self.m.bridge_scatters);
                moved += msgs.len() as u64;
                let bytes: u64 = msgs.iter().map(|m| m.wire_bytes() as u64).sum();
                self.metrics.add(self.m.bridge_bytes_scattered, bytes);
                self.charge_sram(SramCause::BridgeScatter, bytes);
                // Bank write of the delivered messages.
                self.bank_access(u, grant.start, BORROW_ROW, bytes as u32, true);
                self.charge_comm(CommCause::Scatter, bytes);
                self.record(TraceRecord::span(
                    grant.start,
                    grant.end - grant.start,
                    ComponentId::Bridge(r as u32),
                    TraceEvent::Scatter {
                        bytes,
                        msgs: msgs.len() as u32,
                    },
                ));
                for msg in msgs.drain(..) {
                    self.sched(grant.end, Ev::Deliver(u as u32, msg));
                }
                self.msg_scratch = msgs;
            }
        }

        // Move spilled messages into the just-drained scatter buffers so
        // the backup cannot be starved by freshly gathered traffic.
        self.bridges[r].refill_from_backup();
        self.bridges[r].last_round_idle = moved == 0;
        self.bridges[r].last_round_end = t;
        // Anything still pending chains another round.
        self.consider_rank_round(r, t);
        // Upward messages leave via DIMM-Links when present, else via a
        // host (level-2) round.
        if !self.bridges[r].up_mailbox.is_empty() {
            if self.cfg.dimm_link.is_some() {
                self.consider_link_round(r, t);
            } else {
                self.consider_host_round(t);
            }
        }
    }

    // ---- DIMM-Link rounds (optional extension, Section V-A) ---------------

    fn consider_link_round(&mut self, r: usize, now: SimTime) {
        if self.epochs.all_done() || self.link_scheduled[r] || self.bridges[r].up_mailbox.is_empty()
        {
            return;
        }
        self.link_scheduled[r] = true;
        self.sched(now.max(self.q.now()), Ev::LinkRound(r as u32));
    }

    fn on_link_round(&mut self, r: usize) {
        self.link_scheduled[r] = false;
        let now = self.q.now();
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        self.bridges[r]
            .up_mailbox
            .drain_up_to_into(u32::MAX, &mut msgs);
        for msg in msgs.drain(..) {
            let dest_rank = self.route_at_host(&msg);
            let bytes = msg.wire_bytes() as u64;
            let grant = self.reserve(ComponentId::Link(r as u32), now, bytes);
            self.charge_sram(SramCause::Link, bytes);
            self.sched(grant.end, Ev::LinkDeliver(dest_rank as u32, msg));
        }
        self.msg_scratch = msgs;
    }

    fn on_link_deliver(&mut self, dest: usize, msg: Message) {
        let now = self.q.now();
        match self.absorb_at_rank(dest, msg) {
            Ok(()) => self.consider_rank_round(dest, now),
            Err(back) => {
                // Destination bridge full: hold the message on the link
                // and retry after a round's worth of draining.
                let retry = now + self.cfg.i_min();
                self.sched(retry, Ev::LinkDeliver(dest as u32, back));
            }
        }
    }

    /// Routes one gathered message at rank `r`. On buffer exhaustion the
    /// message is handed back and gathering must pause.
    fn absorb_at_rank(&mut self, r: usize, msg: Message) -> Result<(), Message> {
        match self.route_at_rank(r, &msg) {
            Some(dest_unit) => {
                let local = dest_unit % self.cfg.geometry.units_per_rank() as usize;
                if self.is_data_block_assignment(&msg, r) {
                    self.note_block_in_rank(r, &msg);
                }
                self.bridges[r].enqueue_scatter(local, msg)
            }
            None => match self.bridges[r].up_mailbox.try_push(msg) {
                None => Ok(()),
                Some(back) => Err(back),
            },
        }
    }

    fn is_data_block_assignment(&self, msg: &Message, r: usize) -> bool {
        match msg {
            Message::Data(dm, dest) => {
                let home = self.map.block_home(dm.block);
                // Arriving at the receiver's rank and not a return-home.
                self.cfg.geometry.rank_of(*dest).index() == r && home != *dest
            }
            _ => false,
        }
    }

    /// Records block→receiver metadata when a lent block enters the
    /// receiver's rank (inclusive two-level dataBorrowed).
    fn note_block_in_rank(&mut self, r: usize, msg: &Message) {
        if let Message::Data(dm, dest) = msg {
            // A cross-rank assignment must mirror a live host entry: if
            // the host evicted or reassigned the block while the data
            // was in flight, recording it here would orphan the
            // metadata — skip, and let the arrival bounce home via the
            // stale check in `on_deliver`.
            let home = self.map.block_home(dm.block);
            if self.cfg.geometry.rank_of(home).index() != r {
                let recv_rank = self.cfg.geometry.rank_of(*dest);
                if self.host.data_borrowed.peek(&dm.block) != Some(&recv_rank) {
                    return;
                }
            }
            if let Some((evicted_block, holder)) =
                self.bridges[r].data_borrowed.insert(dm.block, *dest)
            {
                // Inclusive metadata overflow: force the evicted block
                // home to keep tables consistent. If its data has not
                // been admitted yet (still in flight), there is nothing
                // to send back; dropping the host entry as well lets
                // the arrival bounce home on its own.
                let at = self.q.now();
                if self.units[holder.index()].remove_borrow(evicted_block) {
                    self.return_block_home(holder.index(), evicted_block, at);
                } else {
                    self.host.data_borrowed.remove(&evicted_block);
                }
            }
        }
    }

    // ---- state gathering + rank-level load balancing -------------------------

    fn on_rank_state(&mut self, r: usize) {
        if self.epochs.all_done() {
            return;
        }
        let now = self.q.now();
        let n = self.cfg.geometry.units_per_rank() as usize;
        let base = r * n;
        // STATE-GATHER: one 64 B state message per child, all chips in
        // parallel per bank position.
        let state_bytes = 64u64 * n as u64;
        let grant = self.reserve(ComponentId::RankBus(r as u32), now, state_bytes);
        self.record(TraceRecord::span(
            grant.start,
            grant.end - grant.start,
            ComponentId::Bridge(r as u32),
            TraceEvent::StateGather { bytes: state_bytes },
        ));
        let mut finished_total = 0u64;
        for i in 0..n {
            let u = base + i;
            self.bridges[r].child_state[i].queue_workload = self.units[u].queue_workload();
            finished_total += self.units[u].take_finished();
        }
        self.charge_sram(SramCause::State, state_bytes);
        self.bridges[r].update_speed_estimate(self.cfg.i_state_cycles, finished_total);
        // Host's aggregate view (used by level-2 LB).
        self.host.rank_queue_workload[r] = self.bridges[r]
            .child_state
            .iter()
            .map(|s| s.queue_workload)
            .sum();

        if self.lb.enabled {
            self.lb_rank(r, grant.end);
        }
        self.consider_rank_round(r, grant.end);
        if self.cfg.dimm_link.is_some() && !self.bridges[r].up_mailbox.is_empty() {
            self.consider_link_round(r, grant.end);
        }

        // Re-arm.
        self.sched(now + self.cfg.i_state(), Ev::RankState(r as u32));
    }

    /// Workload-transfer threshold `W_th` for rank `r`, in workload
    /// units.
    fn rank_w_threshold(&self, r: usize) -> u64 {
        let per_chip_bits =
            self.cfg.geometry.intra_rank_data_bits() / self.cfg.geometry.chips_per_rank;
        let s_xfer_bytes_per_cycle = per_chip_bits as f64 * TICKS_PER_CORE_CYCLE as f64 / 8.0;
        w_threshold(
            self.cfg.g_xfer,
            self.bridges[r].s_exe_cycles_per_wl,
            s_xfer_bytes_per_cycle,
        )
    }

    /// Rank-level load balancing (Figure 6): match idle receivers to
    /// random givers, SCHEDULE budgets, move blocks + tasks.
    fn lb_rank(&mut self, r: usize, now: SimTime) {
        let mut scratch = std::mem::take(&mut self.lb_scratch);
        self.lb_rank_in(r, now, &mut scratch);
        self.lb_scratch = scratch;
    }

    fn lb_rank_in(&mut self, r: usize, now: SimTime, s: &mut LbScratch) {
        let LbScratch {
            idle: receivers,
            busy: givers,
            budgets,
            matches,
            recvs,
        } = s;
        let w_th = if self.lb.in_advance {
            self.rank_w_threshold(r)
        } else {
            1 // steal only when the queue is empty
        };
        receivers.clear();
        receivers.extend(self.bridges[r].idle_children(w_th));
        if receivers.is_empty() {
            return;
        }
        let giver_floor = if self.lb.fine_grained {
            2 * w_th
        } else {
            w_th.max(1)
        };
        givers.clear();
        givers.extend(self.bridges[r].busy_children(giver_floor));
        if givers.is_empty() {
            return;
        }
        self.metrics.inc(self.m.bridge_lb_rounds);
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        // Random matching: receiver → giver; budgets accumulate per
        // giver, in the order givers are first matched.
        budgets.clear();
        matches.clear();
        for &recv in receivers.iter() {
            let gi = self.bridges[r].rng.next_index(givers.len());
            let giver = givers[gi];
            if giver == recv {
                continue;
            }
            let amount = if self.lb.fine_grained {
                2 * w_th
            } else {
                self.bridges[r].child_state[giver].queue_workload / 2
            };
            if amount == 0 {
                continue;
            }
            let slot = match budgets.iter().position(|&(g, _)| g == giver) {
                Some(k) => {
                    budgets[k].1 += amount;
                    k
                }
                None => {
                    budgets.push((giver, amount));
                    budgets.len() - 1
                }
            };
            matches.push((slot, recv));
        }
        for (k, &(giver, budget)) in budgets.iter().enumerate() {
            recvs.clear();
            recvs.extend(
                matches
                    .iter()
                    .filter(|&&(slot, _)| slot == k)
                    .map(|&(_, recv)| recv),
            );
            // Traditional stealing takes at most half the victim's queue
            // per round, no matter how many receivers matched to it.
            let cap = (self.bridges[r].child_state[giver].queue_workload / 2).max(1);
            self.schedule_giver(r, base + giver, budget.min(cap), recvs, now, false);
        }
    }

    /// Sends a SCHEDULE to a giver unit and moves its chosen blocks +
    /// tasks into its mailbox, assigning receivers round-robin; a
    /// task-only forward goes to its block's holder and takes no
    /// receiver. `cross_rank` receivers are global unit indices already.
    fn schedule_giver(
        &mut self,
        r: usize,
        giver: usize,
        budget: u64,
        receivers: &[usize],
        now: SimTime,
        cross_rank: bool,
    ) {
        self.metrics.inc(self.m.bridge_schedules);
        self.record(TraceRecord::instant(
            now,
            ComponentId::Bridge(r as u32),
            TraceEvent::Schedule {
                budget,
                receivers: receivers.len() as u32,
            },
        ));
        let aware = (self.lb.byte_budget || self.lb.prefer_lent)
            .then(|| self.gather_aware(r, giver, budget, cross_rank));
        let chosen = self.units[giver].choose_scheduled_out(
            budget,
            self.lb.hot_data,
            aware.as_ref(),
            &self.tasks,
            &self.map,
        );
        if chosen.is_empty() {
            return;
        }
        let base = if cross_rank {
            0
        } else {
            r * self.cfg.geometry.units_per_rank() as usize
        };
        let mut rr = 0usize;
        for sb in chosen {
            let recv_global = match sb.pinned_recv {
                Some(holder) => holder.index(),
                None => {
                    let g = base + receivers[rr % receivers.len()];
                    rr += 1;
                    g
                }
            };
            self.emit_scheduled_block(r, giver, sb, recv_global, cross_rank, now);
        }
        self.consider_comm(giver, now);
    }

    /// The gather-cost-aware limits of one SCHEDULE
    /// (`LbPolicy::byte_budget` / `prefer_lent`, DESIGN.md §10): the
    /// round's workload budget converted into a wire-byte budget via
    /// `steal::steal_byte_budget`, the payoff filter, and the giver's
    /// lent blocks whose queued tasks become task-only forwards.
    fn gather_aware(&self, r: usize, giver: usize, budget: u64, cross_rank: bool) -> GatherAware {
        let w_th = self.rank_w_threshold(r);
        let byte_budget = if !self.lb.byte_budget {
            u64::MAX
        } else if self.units[giver].queue_workload() < steal::STEAL_GATE_WTH * w_th.max(1) {
            // Overload gate: moving a block only pays when the giver is
            // genuinely backlogged (DESIGN.md §10). Each block move
            // provokes a full gather-round sweep — `chips · G_xfer` of
            // ledger traffic, far more than the message's own wire
            // bytes — so a queue shallower than `STEAL_GATE_WTH · W_th`
            // (transient imbalance that drains on its own) gets a zero
            // *data* budget. Task-only forwards, which ride the reroute
            // path's mail anyway, are still allowed. This is what stops
            // low-parallelism apps from re-stealing thin blocks every
            // idle round.
            0
        } else {
            // Rate-limit: the *byte* allowance per round is what the
            // fine-grained policy would move (2·W_th per giver round),
            // even when the workload budget is steal-half's much larger
            // half-queue. Deliberately NOT multiplied by the receiver
            // count: a starved rank has many idle receivers, and that is
            // exactly when per-round traffic must stay bounded. Task-
            // only forwards cost almost no bytes, so they can still fill
            // the rest of the workload budget past this cap.
            let fine_equiv = 2 * w_th.max(1);
            steal::steal_byte_budget(budget.min(fine_equiv), w_th, self.cfg.g_xfer)
        };
        // Blocks this giver owns that are lent out with a known holder
        // in this rank. Intra-rank only — at the host level borrowed
        // blocks are tracked per rank, not per holder unit.
        let lent_to = if self.lb.prefer_lent && !cross_rank {
            self.units[giver].lent_holders(&self.bridges[r].data_borrowed, &self.tasks, &self.map)
        } else {
            FastMap::default()
        };
        GatherAware {
            byte_budget,
            data_wire_bytes: u64::from(
                DataMessage {
                    block: BlockAddr(0),
                    bytes: self.cfg.g_xfer,
                    workload: 0,
                }
                .wire_bytes(),
            ),
            amortize: self.lb.byte_budget.then_some(steal::AmortizeCfg {
                g_xfer: self.cfg.g_xfer,
                w_th,
            }),
            lent_to,
        }
    }

    /// Emits one scheduled block toward `recv_global`: migration
    /// metadata, `toArrive` accounting at both levels, the data message
    /// and the task messages. A task-only forward (`pinned_recv`, sent
    /// to the block's current holder) skips everything data-related —
    /// no migration count, no metadata update, no data message —
    /// because the block does not move; only the task descriptors
    /// travel.
    fn emit_scheduled_block(
        &mut self,
        r: usize,
        giver: usize,
        sb: ScheduledBlock,
        recv_global: usize,
        cross_rank: bool,
        now: SimTime,
    ) {
        let recv_id = UnitId(recv_global as u32);
        let task_only = sb.pinned_recv.is_some();
        if !task_only {
            self.metrics.inc(self.m.blocks_migrated);
            self.record(TraceRecord::instant(
                now,
                ComponentId::Bridge(r as u32),
                TraceEvent::Migrate {
                    block: sb.block.0,
                    from: giver as u32,
                    to: recv_global as u32,
                    tasks: sb.tasks.len() as u32,
                },
            ));
            // Metadata at assignment time (step ④).
            if cross_rank {
                let recv_rank = self.cfg.geometry.rank_of(recv_id);
                if let Some((evb, evr)) = self.host.data_borrowed.insert(sb.block, recv_rank) {
                    // Overflow: return that block home from wherever it
                    // is. A holder that has not admitted it yet (data
                    // still in flight) has nothing to send back; drop
                    // the rank entry too and let the arrival bounce.
                    if let Some(&holder) = self.bridges[evr.index()].data_borrowed.peek(&evb) {
                        let h = holder.index();
                        if self.units[h].remove_borrow(evb) {
                            self.return_block_home(h, evb, now);
                        } else {
                            self.bridges[evr.index()].data_borrowed.remove(&evb);
                        }
                    }
                }
            } else {
                self.note_block_in_rank(
                    r,
                    &Message::Data(
                        DataMessage {
                            block: sb.block,
                            bytes: self.cfg.g_xfer,
                            workload: sb.workload,
                        },
                        recv_id,
                    ),
                );
            }
        }
        // Both `toArrive` levels track the in-flight scheduled
        // workload toward the intended receiver from SCHEDULE until
        // first delivery, so host-level idle detection also sees
        // intra-rank transfers under way (Section VI-C).
        let recv_rank_idx = self.cfg.geometry.rank_of(recv_id).index();
        let recv_local = self.local_index(recv_global);
        self.host.to_arrive[recv_rank_idx] += sb.workload;
        self.bridges[recv_rank_idx].to_arrive[recv_local] += sb.workload;
        if !task_only {
            // Giver reads the block from its bank and mails it out.
            let dm = DataMessage {
                block: sb.block,
                bytes: self.cfg.g_xfer,
                workload: sb.workload,
            };
            self.emit_message(giver, Message::Data(dm, recv_id), now);
        }
        for id in sb.tasks {
            let msg = Message::Task(self.task_msg(id), Some(recv_id));
            self.emit_message(giver, msg, now);
        }
    }

    // ---- host-level state + rounds -------------------------------------------

    fn on_host_state(&mut self) {
        if self.epochs.all_done() {
            return;
        }
        let now = self.q.now();
        match self.comm {
            CommPath::Bridges => {
                // Hierarchical LB: only ranks whose units are ALL idle
                // become receivers (Section VI-A).
                if self.lb.enabled {
                    self.lb_cross_rank(now);
                }
                self.consider_host_round(now);
            }
            CommPath::HostForward | CommPath::RowClone => {
                // C/R poll units directly.
                self.consider_host_round(now);
            }
        }
        self.sched(now + self.cfg.i_state(), Ev::HostState);
    }

    fn lb_cross_rank(&mut self, now: SimTime) {
        let mut scratch = std::mem::take(&mut self.lb_scratch);
        self.lb_cross_rank_in(now, &mut scratch);
        self.lb_scratch = scratch;
    }

    fn lb_cross_rank_in(&mut self, now: SimTime, s: &mut LbScratch) {
        let LbScratch {
            idle: idle_ranks,
            busy: busy_ranks,
            recvs,
            ..
        } = s;
        let ranks = self.bridges.len();
        let w_th_global: u64 = (0..ranks)
            .map(|r| self.rank_w_threshold(r))
            .max()
            .unwrap_or(1);
        idle_ranks.clear();
        // Every unit idle, in-flight scheduled workload included:
        // aggregate under one unit's threshold.
        idle_ranks.extend((0..ranks).filter(|&r| {
            self.host.rank_queue_workload[r] + self.host.to_arrive[r] < w_th_global.max(1)
        }));
        if idle_ranks.is_empty() {
            return;
        }
        let upr = self.cfg.geometry.units_per_rank() as u64;
        busy_ranks.clear();
        busy_ranks.extend(
            (0..ranks)
                .filter(|&r| self.host.rank_queue_workload[r] > 4 * w_th_global.max(1) * upr / 8),
        );
        if busy_ranks.is_empty() {
            return;
        }
        self.metrics.inc(self.m.host_lb_rounds);
        for &recv_rank in idle_ranks.iter() {
            let gi = self.host.rng.next_index(busy_ranks.len());
            let giver_rank = busy_ranks[gi];
            if giver_rank == recv_rank {
                continue;
            }
            // Budget: cross-rank transfers are slow; move a few units'
            // worth of fine-grained budgets (or steal-half without).
            let budget = if self.lb.fine_grained {
                2 * w_th_global * 4
            } else {
                self.host.rank_queue_workload[giver_rank] / 2
            };
            if budget == 0 {
                continue;
            }
            // The giver rank's bridge picks its busiest child.
            let gbase = giver_rank * self.cfg.geometry.units_per_rank() as usize;
            let giver_local = (0..self.cfg.geometry.units_per_rank() as usize)
                .max_by_key(|&i| self.bridges[giver_rank].child_state[i].queue_workload)
                .unwrap_or(0);
            // Receivers: idle units of the receiving rank.
            let rbase = recv_rank * self.cfg.geometry.units_per_rank() as usize;
            recvs.clear();
            recvs.extend(
                (0..self.cfg.geometry.units_per_rank() as usize)
                    .filter(|&i| self.bridges[recv_rank].child_state[i].queue_workload == 0)
                    .map(|i| rbase + i),
            );
            if recvs.is_empty() {
                continue;
            }
            self.schedule_giver(giver_rank, gbase + giver_local, budget, recvs, now, true);
        }
    }

    fn consider_host_round(&mut self, now: SimTime) {
        if self.epochs.all_done() || self.host.round_scheduled {
            return;
        }
        let pending = match self.comm {
            CommPath::Bridges if self.cfg.dimm_link.is_some() => {
                // Links handle bridge-to-bridge traffic; the host only
                // drains its own leftovers.
                self.host.has_pending()
            }
            CommPath::Bridges => {
                self.bridges.iter().any(|b| !b.up_mailbox.is_empty()) || self.host.has_pending()
            }
            CommPath::HostForward | CommPath::RowClone => {
                self.units.iter().any(|u| !u.mailbox.is_empty())
                    || self.host.has_pending()
                    || self.units.iter().any(|u| !u.pending_out.is_empty())
            }
        };
        if !pending {
            return;
        }
        self.host.round_scheduled = true;
        // Host rounds are software polling loops. With bridges the host
        // only forwards pre-aggregated cross-rank batches and can chain
        // rounds; in C/R it pays a full every-bank poll per round, which
        // real runtimes rate-limit (we use the I_state period).
        let at = match self.comm {
            CommPath::Bridges => now.max(self.host.last_round_end),
            CommPath::HostForward | CommPath::RowClone => now
                .max(self.host.last_round_start + self.cfg.i_min())
                .max(self.host.last_round_end),
        };
        self.sched(at, Ev::HostRound);
    }

    fn on_host_round(&mut self) {
        self.host.round_scheduled = false;
        self.host.last_round_start = self.q.now();
        match self.comm {
            CommPath::Bridges => self.host_round_bridges(),
            CommPath::HostForward | CommPath::RowClone => self.host_round_direct(),
        }
    }

    /// Level-2 round: move cross-rank messages bridge → host → bridge
    /// over the DDR channels.
    fn host_round_bridges(&mut self) {
        let now = self.q.now();
        let mut t_end = now;
        // Gather from rank bridges' upward mailboxes.
        for r in 0..self.bridges.len() {
            if self.bridges[r].up_mailbox.is_empty() {
                continue;
            }
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            let bytes = self.bridges[r].up_mailbox.bytes_used();
            let grant = self.reserve(ComponentId::Channel(ch as u32), now, bytes);
            t_end = t_end.max(grant.end);
            let mut msgs = std::mem::take(&mut self.msg_scratch);
            self.bridges[r]
                .up_mailbox
                .drain_up_to_into(u32::MAX, &mut msgs);
            self.metrics.add(self.m.host_bytes_gathered, bytes);
            self.charge_sram(SramCause::HostGather, bytes);
            self.record(TraceRecord::span(
                grant.start,
                grant.end - grant.start,
                ComponentId::Host,
                TraceEvent::Gather {
                    bytes,
                    msgs: msgs.len() as u32,
                    wasted: msgs.is_empty(),
                },
            ));
            for msg in msgs.drain(..) {
                let dest_rank = self.route_at_host(&msg);
                self.host.enqueue_scatter(dest_rank, msg);
            }
            self.msg_scratch = msgs;
        }
        let t = t_end + HOST_ROUND_LATENCY;
        // Scatter down to rank bridges.
        let mut final_end = t;
        for r in 0..self.bridges.len() {
            if self.host.scatter_pending(r) == 0 {
                continue;
            }
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            let bytes = self.host.scatter_pending(r);
            let grant = self.reserve(ComponentId::Channel(ch as u32), t, bytes);
            final_end = final_end.max(grant.end);
            let mut msgs = std::mem::take(&mut self.msg_scratch);
            self.host.drain_scatter_into(r, &mut msgs);
            self.metrics.add(self.m.host_bytes_scattered, bytes);
            self.record(TraceRecord::span(
                grant.start,
                grant.end - grant.start,
                ComponentId::Host,
                TraceEvent::Scatter {
                    bytes,
                    msgs: msgs.len() as u32,
                },
            ));
            // `absorb_at_rank` never touches the host scatter queues, so
            // rejected messages re-enqueue directly in encounter order —
            // same final order the old leftover buffer produced.
            for msg in msgs.drain(..) {
                if let Err(back) = self.absorb_at_rank(r, msg) {
                    self.host.enqueue_scatter(r, back);
                }
            }
            self.msg_scratch = msgs;
            self.consider_rank_round(r, grant.end);
        }
        self.host.last_round_end = final_end;
        self.consider_host_round(final_end);
    }

    /// Baseline C/R round: the host gathers directly from every bank
    /// over both the rank bus and the channel, forwards, and scatters
    /// back.
    fn host_round_direct(&mut self) {
        let now = self.q.now();
        let gxfer = self.cfg.g_xfer;
        let chips = self.cfg.geometry.chips_per_rank as usize;
        let banks = self.cfg.geometry.banks_per_chip as usize;
        let upr = self.cfg.geometry.units_per_rank() as usize;
        let mut t_end = now;
        // Gather: per rank, per bank position (all chips parallel), the
        // data crosses the intra-rank wires AND the shared channel. The
        // host is software: it cannot see remote mailbox state, so every
        // round polls every bank position — the fundamental bandwidth
        // waste of host forwarding (Section II-C).
        for r in 0..self.bridges.len() {
            let base = r * upr;
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            for pos in 0..banks {
                let unit_at = |c: usize| base + c * banks + pos;
                let bytes = (chips as u64) * gxfer as u64;
                let start = self.rank_bus[r]
                    .free_at()
                    .max(self.channel[ch].free_at())
                    .max(now);
                let cg = self.reserve(ComponentId::Channel(ch as u32), start, bytes);
                self.reserve(ComponentId::RankBus(r as u32), start, bytes);
                t_end = t_end.max(cg.end);
                for u in (0..chips).map(unit_at) {
                    self.bank_access(u, cg.start, MAILBOX_ROW, gxfer, false);
                    self.charge_comm(CommCause::HostGather, gxfer as u64);
                    let mut msgs = std::mem::take(&mut self.msg_scratch);
                    self.units[u].mailbox.drain_up_to_into(gxfer, &mut msgs);
                    let mut gathered = 0u64;
                    let msg_count = msgs.len() as u32;
                    for msg in msgs.drain(..) {
                        gathered += msg.wire_bytes() as u64;
                        let dest_rank = self.route_at_host(&msg);
                        self.host.enqueue_scatter(dest_rank, msg);
                    }
                    self.msg_scratch = msgs;
                    self.metrics.add(self.m.host_bytes_gathered, gathered);
                    self.record(TraceRecord::span(
                        cg.start,
                        cg.end - cg.start,
                        ComponentId::Host,
                        TraceEvent::Gather {
                            bytes: gathered,
                            msgs: msg_count,
                            wasted: msg_count == 0,
                        },
                    ));
                    if !self.units[u].pending_out.is_empty() {
                        self.flush_pending_out(u);
                    }
                }
            }
        }
        let t = t_end + HOST_ROUND_LATENCY;
        // Scatter: host → banks, again over channel + rank bus.
        let mut final_end = t;
        for r in 0..self.bridges.len() {
            if self.host.scatter_pending(r) == 0 {
                continue;
            }
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            let mut drained = std::mem::take(&mut self.msg_scratch);
            self.host.drain_scatter_into(r, &mut drained);
            // Group by destination unit, recycling the grouping table and
            // its inner `Vec`s across rounds.
            let mut per_unit = std::mem::take(&mut self.per_unit_scratch);
            for msg in drained.drain(..) {
                let dest = self.direct_dest_unit(&msg);
                match per_unit.iter_mut().find(|(u, _)| *u == dest) {
                    Some((_, v)) => v.push(msg),
                    None => {
                        let mut v = self.vec_pool.get();
                        v.push(msg);
                        per_unit.push((dest, v));
                    }
                }
            }
            self.msg_scratch = drained;
            for (u, mut msgs) in per_unit.drain(..) {
                let bytes: u64 = msgs.iter().map(|m| m.wire_bytes() as u64).sum();
                let start = self.rank_bus[r]
                    .free_at()
                    .max(self.channel[ch].free_at())
                    .max(t);
                let cg = self.reserve(ComponentId::Channel(ch as u32), start, bytes);
                self.reserve(ComponentId::RankBus(r as u32), start, bytes);
                final_end = final_end.max(cg.end);
                self.metrics.add(self.m.host_bytes_scattered, bytes);
                self.bank_access(u, cg.start, BORROW_ROW, bytes as u32, true);
                self.charge_comm(CommCause::HostScatter, bytes);
                self.record(TraceRecord::span(
                    cg.start,
                    cg.end - cg.start,
                    ComponentId::Host,
                    TraceEvent::Scatter {
                        bytes,
                        msgs: msgs.len() as u32,
                    },
                ));
                for msg in msgs.drain(..) {
                    self.sched(cg.end, Ev::Deliver(u as u32, msg));
                }
                self.vec_pool.put(msgs);
            }
            self.per_unit_scratch = per_unit;
        }
        self.host.last_round_end = final_end;
        self.consider_host_round(final_end);
    }

    /// Destination unit for direct (C/R) forwarding: home unit (no
    /// migration exists without load balancing).
    fn direct_dest_unit(&self, msg: &Message) -> usize {
        match msg {
            Message::Task(tm, _) => self.map.home_unit(tm.data).index(),
            Message::Data(_, dest) => dest.index(),
        }
    }

    // ---- conservation audit ---------------------------------------------------

    /// Collects every in-flight message: in unit mailboxes and
    /// pending-out buffers, bridge and host buffers, and the queued
    /// `Deliver`/`LinkDeliver` events.
    fn scan_in_flight(&self) -> InFlight {
        let mut f = InFlight::default();
        let tasks = &self.tasks;
        let note = |f: &mut InFlight, msg: &Message| {
            f.msgs += 1;
            match msg {
                Message::Task(tm, Some(dest)) => {
                    *f.task_toward.entry(dest.0).or_insert(0) +=
                        tasks.get(tm.id).workload_or_default();
                }
                Message::Data(dm, _) => {
                    *f.data_blocks.entry(dm.block.0).or_insert(0) += 1;
                }
                _ => {}
            }
        };
        for u in &self.units {
            for m in u.mailbox.iter() {
                note(&mut f, m);
            }
            for m in &u.pending_out {
                note(&mut f, m);
            }
        }
        for b in &self.bridges {
            for m in b.buffered_messages() {
                note(&mut f, m);
            }
            for m in b.up_mailbox.iter() {
                note(&mut f, m);
            }
        }
        for m in self.host.buffered_messages() {
            note(&mut f, m);
        }
        for ev in self.q.iter() {
            if let Ev::Deliver(_, m) | Ev::LinkDeliver(_, m) = ev {
                note(&mut f, m);
            }
        }
        f
    }

    /// Scans the whole system for conservation-law violations (see
    /// [`crate::audit`] for the laws). Purely observational: no
    /// simulator state changes, so audited results are bit-identical to
    /// unaudited ones. Called between event handlers only, where all
    /// component state is consistent.
    pub fn collect_violations(&self) -> Vec<Violation> {
        let mut v: Vec<Violation> = self.flagged.clone();
        let f = self.scan_in_flight();
        let g = &self.cfg.geometry;

        // Message conservation: every message ever emitted was either
        // delivered or sits in exactly one queue, buffer, or event.
        let emitted = self.msgs_emitted;
        let delivered = self.metrics.get(self.m.msgs_delivered);
        if emitted != delivered + f.msgs {
            v.push(Violation {
                law: "message-conservation",
                detail: format!(
                    "emitted {emitted} != delivered {delivered} + in-flight {}",
                    f.msgs
                ),
            });
        }

        audit::check_tasks(&mut v, &self.tasks, &self.epochs);

        // toArrive balance: each correction counter equals the workload
        // of scheduled tasks still in flight toward that child, and the
        // host-level counter covers its whole rank.
        let upr = g.units_per_rank() as usize;
        for (r, b) in self.bridges.iter().enumerate() {
            let mut rank_expect = 0u64;
            for (i, &ta) in b.to_arrive.iter().enumerate() {
                let expect = f
                    .task_toward
                    .get(&((r * upr + i) as u32))
                    .copied()
                    .unwrap_or(0);
                rank_expect += expect;
                if ta != expect {
                    v.push(Violation {
                        law: "to-arrive",
                        detail: format!(
                            "bridge {r} child {i}: toArrive {ta} != in-flight scheduled \
                             workload {expect}"
                        ),
                    });
                }
            }
            if self.host.to_arrive[r] != rank_expect {
                v.push(Violation {
                    law: "to-arrive",
                    detail: format!(
                        "host toArrive[{r}] = {} != in-flight scheduled workload {rank_expect}",
                        self.host.to_arrive[r]
                    ),
                });
            }
        }

        // dataBorrowed inclusivity, bottom-up: unit borrow ⊆ bridge
        // entry ⊆ host entry (for cross-rank blocks), all covered by
        // the home's isLent bit.
        for u in &self.units {
            let r = g.rank_of(u.id).index();
            for blk in u.borrowed_blocks() {
                let home = self.map.block_home(blk);
                if !self.units[home.index()].is_lent.is_lent(blk) {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "block {} borrowed at u{} but not lent at home",
                            blk.0, u.id
                        ),
                    });
                }
                if self.bridges[r].data_borrowed.peek(&blk) != Some(&u.id) {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "block {} borrowed at u{} without matching bridge {r} entry",
                            blk.0, u.id
                        ),
                    });
                }
                if g.rank_of(home).index() != r
                    && self.host.data_borrowed.peek(&blk) != Some(&g.rank_of(u.id))
                {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "cross-rank block {} borrowed at u{} without host entry",
                            blk.0, u.id
                        ),
                    });
                }
            }
        }
        for (r, br) in self.bridges.iter().enumerate() {
            for (&blk, &holder) in br.data_borrowed.iter() {
                let home = self.map.block_home(blk);
                if g.rank_of(holder).index() != r {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "bridge {r} entry for block {} names foreign u{holder}",
                            blk.0
                        ),
                    });
                }
                if !self.units[home.index()].is_lent.is_lent(blk) {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!("bridge {r} entry for block {} but home not lent", blk.0),
                    });
                }
                if !self.units[holder.index()].is_borrowed(blk)
                    && !f.data_blocks.contains_key(&blk.0)
                {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "bridge {r} entry for block {} orphaned: u{holder} does not hold \
                             it and no data message is in flight",
                            blk.0
                        ),
                    });
                }
            }
        }
        for (&blk, &rank) in self.host.data_borrowed.iter() {
            let home = self.map.block_home(blk);
            if !self.units[home.index()].is_lent.is_lent(blk) {
                v.push(Violation {
                    law: "data-borrowed-inclusivity",
                    detail: format!("host entry for block {} but home not lent", blk.0),
                });
            }
            if self.bridges[rank.index()]
                .data_borrowed
                .peek(&blk)
                .is_none()
                && !f.data_blocks.contains_key(&blk.0)
            {
                v.push(Violation {
                    law: "data-borrowed-inclusivity",
                    detail: format!(
                        "host entry for block {} orphaned: rank {rank} has no bridge entry \
                         and no data message is in flight",
                        blk.0
                    ),
                });
            }
        }
        // No lent block may be unreachable: it is either borrowed
        // somewhere, tracked by a table, or its data is in flight.
        for u in &self.units {
            for blk in u.is_lent.iter() {
                let tracked = f.data_blocks.contains_key(&blk.0)
                    || self.host.data_borrowed.peek(&blk).is_some()
                    || self
                        .bridges
                        .iter()
                        .any(|b| b.data_borrowed.peek(&blk).is_some())
                    || self.units.iter().any(|w| w.is_borrowed(blk));
                if !tracked {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "block {} lent by u{} is unreachable (no borrow, no table \
                             entry, nothing in flight)",
                            blk.0, u.id
                        ),
                    });
                }
            }
        }

        // Ledger totals: per-cause rows sum exactly to the system byte
        // totals they decompose.
        let comm_total = self.metrics.get(self.m.comm_dram_bytes);
        let comm_ledger: u64 = self
            .m
            .ledger_comm
            .iter()
            .map(|&id| self.metrics.get(id))
            .sum();
        if comm_total != comm_ledger {
            v.push(Violation {
                law: "ledger-totals",
                detail: format!("comm ledger rows sum to {comm_ledger}, total is {comm_total}"),
            });
        }
        let sram_total = self.metrics.get(self.m.sram_staged_bytes);
        let sram_ledger: u64 = self
            .m
            .ledger_sram
            .iter()
            .map(|&id| self.metrics.get(id))
            .sum();
        if sram_total != sram_ledger {
            v.push(Violation {
                law: "ledger-totals",
                detail: format!("sram ledger rows sum to {sram_ledger}, total is {sram_total}"),
            });
        }

        audit::check_buses(&mut v, "rank bus", &self.rank_bus);
        audit::check_buses(&mut v, "channel", &self.channel);
        audit::check_buses(&mut v, "link", &self.link_bus);
        v
    }

    // ---- metrics + finalize ---------------------------------------------------

    /// Refreshes the gauges read from reserved-queue and bus state, so a
    /// snapshot sees a consistent picture.
    fn harvest_metrics(&mut self) {
        let mut hits = 0u64;
        let mut overflows = 0u64;
        let mut peak_chunks = 0u64;
        let mut peak_tasks = 0u64;
        for u in &self.units {
            let (h, o) = u.reserved_stats();
            hits += h;
            overflows += o;
            let (pc, pt) = u.reserved_peaks();
            peak_chunks = peak_chunks.max(pc as u64);
            peak_tasks = peak_tasks.max(pt as u64);
        }
        self.metrics.set(self.m.sketch_reserved_hits, hits);
        self.metrics
            .set(self.m.sketch_reserved_overflows, overflows);
        self.metrics
            .set(self.m.sketch_reserved_peak_chunks, peak_chunks);
        self.metrics
            .set(self.m.sketch_reserved_peak_tasks, peak_tasks);
        self.metrics.set(
            self.m.bus_rank_bytes,
            self.rank_bus.iter().map(|b| b.bytes).sum(),
        );
        self.metrics.set(
            self.m.bus_channel_bytes,
            self.channel.iter().map(|b| b.bytes).sum(),
        );
    }

    /// A bulk-synchronization barrier cleared: snapshot the metrics for
    /// this epoch and note it in the trace.
    fn note_epoch_advance(&mut self, new_epoch: Timestamp, now: SimTime) {
        self.harvest_metrics();
        self.metrics.set(self.m.epoch, new_epoch.0 as u64);
        self.metrics.snapshot(format!("epoch-{}", new_epoch.0), now);
        self.record(TraceRecord::instant(
            now,
            ComponentId::Host,
            TraceEvent::EpochAdvance { epoch: new_epoch.0 },
        ));
    }
}

impl Model for System {
    type Ev = Ev;

    fn start(&mut self) {
        self.inject_initial();
        // An application with no tasks is already done; don't arm the
        // periodic machinery at all.
        if self.epochs.all_done() {
            return;
        }
        if self.comm == CommPath::Bridges {
            for r in 0..self.bridges.len() {
                self.sched(self.cfg.i_state(), Ev::RankState(r as u32));
            }
        }
        self.sched(self.cfg.i_state(), Ev::HostState);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::CoreWake(u) => self.on_core_wake(u as usize),
            Ev::TaskDone(u, task, children) => self.on_task_done(u as usize, task, children),
            Ev::Deliver(u, msg) => self.on_deliver(u as usize, msg),
            Ev::RankState(r) => self.on_rank_state(r as usize),
            Ev::RankRound(r) => self.on_rank_round(r as usize),
            Ev::HostState => self.on_host_state(),
            Ev::HostRound => self.on_host_round(),
            Ev::LinkRound(r) => self.on_link_round(r as usize),
            Ev::LinkDeliver(r, msg) => self.on_link_deliver(r as usize, msg),
        }
    }

    /// Deliveries read their tasks from the arena: start those loads
    /// for the whole batch before the first handler runs.
    fn prefetch(&self, batch: &[Ev]) {
        for ev in batch {
            if let Ev::Deliver(_, Message::Task(tm, _)) = ev {
                self.tasks.prefetch(tm.id);
            }
        }
    }

    fn violations(&self) -> Vec<Violation> {
        self.collect_violations()
    }

    fn finish(mut self) -> RunResult {
        let makespan = self
            .units
            .iter()
            .fold(SimTime::ZERO, |m, u| m.max(u.last_finish));
        let core_busy_total = self.units.iter().fold(SimTime::ZERO, |t, u| t + u.busy);
        let per_unit_busy = self.units.iter().map(|u| u.busy.ticks()).collect();
        self.harvest_metrics();
        self.metrics.snapshot("final", makespan);
        let (trace, trace_dropped) = match self.trace.take() {
            Some(mut ring) => (ring.take_records(), ring.dropped()),
            None => (Vec::new(), 0),
        };
        let comm_dram_bytes = self.metrics.get(self.m.comm_dram_bytes);
        let sram_staged_bytes = self.metrics.get(self.m.sram_staged_bytes);
        let rank_bus_bytes = self.metrics.get(self.m.bus_rank_bytes);
        let channel_bytes = self.metrics.get(self.m.bus_channel_bytes);
        let lb_rounds =
            self.metrics.get(self.m.bridge_lb_rounds) + self.metrics.get(self.m.host_lb_rounds);

        let e = &self.cfg.energy;
        let energy = EnergyBreakdown {
            core_sram_pj: e.core_pj(core_busy_total) + e.sram_pj(sram_staged_bytes),
            dram_local_pj: e.dram_pj(self.local_dram_bytes),
            dram_comm_pj: e.dram_pj(comm_dram_bytes)
                + e.channel_pj(channel_bytes)
                + e.rank_pj(rank_bus_bytes),
            static_pj: e.static_pj(
                self.cfg.geometry.total_units(),
                self.cfg.geometry.total_ranks(),
                makespan,
            ),
        };
        RunResult {
            tasks_executed: self.metrics.get(self.m.unit_tasks_executed),
            tasks_rerouted: self.metrics.get(self.m.unit_tasks_rerouted),
            messages_delivered: self.metrics.get(self.m.msgs_delivered),
            rank_bus_bytes,
            channel_bytes,
            comm_dram_bytes,
            local_dram_bytes: self.local_dram_bytes,
            lb_rounds,
            blocks_migrated: self.metrics.get(self.m.blocks_migrated),
            energy,
            metrics: self.metrics.into_report(),
            trace,
            trace_dropped,
            ..RunResult::new(
                self.app.as_ref(),
                self.design.to_string(),
                makespan,
                per_unit_busy,
            )
        }
    }

    fn queue(&mut self) -> &mut EventQueue<Ev> {
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
        format!("{} on {}", self.design, self.app.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::Geometry;
    use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};

    /// A do-nothing app for constructing systems in unit tests.
    struct Noop;

    impl Application for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn initial_tasks(&mut self) -> Vec<Task> {
            Vec::new()
        }
        fn execute(&mut self, _t: &Task, ctx: &mut ExecCtx) {
            ctx.compute(1);
        }
    }

    fn sys(design: DesignPoint) -> System {
        let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
        cfg.seed = 5;
        System::new(cfg, design, Box::new(Noop))
    }

    fn task_on(s: &System, unit: u32, offset: u64) -> Task {
        Task::new(
            TaskFnId(0),
            Timestamp(0),
            s.map.addr_in_unit(UnitId(unit), offset),
            3,
            TaskArgs::EMPTY,
        )
    }

    /// A message carrying [`task_on`]'s task, stored and counted as
    /// spawned the way the system does it.
    fn task_message(s: &mut System, unit: u32, offset: u64, scheduled: Option<UnitId>) -> Message {
        let t = task_on(s, unit, offset);
        s.epochs.spawned(t.ts);
        let id = s.tasks.insert(t);
        Message::Task(s.task_msg(id), scheduled)
    }

    #[test]
    fn route_at_rank_sends_home_by_default() {
        let mut s = sys(DesignPoint::B);
        let msg = task_message(&mut s, 5, 0, None);
        assert_eq!(s.route_at_rank(0, &msg), Some(5));
        // A unit of the other rank routes upward.
        let far = task_message(&mut s, 64, 0, None);
        assert_eq!(s.route_at_rank(0, &far), None);
        assert_eq!(s.route_at_rank(1, &far), Some(64));
    }

    #[test]
    fn route_follows_bridge_metadata_for_borrowed_blocks() {
        let mut s = sys(DesignPoint::O);
        let t = task_on(&s, 5, 0);
        let block = s.map.block_of(t.data);
        // Simulate a migration: home marks lent, bridge maps to unit 9.
        s.units[5].is_lent.set(block);
        s.bridges[0].data_borrowed.insert(block, UnitId(9));
        let msg = task_message(&mut s, 5, 0, None);
        assert_eq!(s.route_at_rank(0, &msg), Some(9));
    }

    #[test]
    fn lent_block_without_local_entry_routes_upward() {
        let mut s = sys(DesignPoint::O);
        let t = task_on(&s, 5, 0);
        let block = s.map.block_of(t.data);
        // Lent cross-rank: home bitmap set, no rank-bridge entry, host
        // knows the rank.
        s.units[5].is_lent.set(block);
        s.host.data_borrowed.insert(block, ndpb_dram::RankId(1));
        let msg = task_message(&mut s, 5, 0, None);
        assert_eq!(s.route_at_rank(0, &msg), None, "must escalate");
        assert_eq!(s.route_at_host(&msg), 1);
    }

    #[test]
    fn data_messages_route_by_explicit_destination() {
        let mut s = sys(DesignPoint::O);
        let dm = DataMessage {
            block: BlockAddr(0),
            bytes: 256,
            workload: 1,
        };
        let msg = Message::Data(dm, UnitId(70));
        assert_eq!(s.route_at_rank(0, &msg), None);
        assert_eq!(s.route_at_rank(1, &msg), Some(70));
        assert_eq!(s.route_at_host(&msg), 1);
    }

    #[test]
    fn direct_dest_is_home_unit() {
        let mut s = sys(DesignPoint::C);
        let msg = task_message(&mut s, 42, 128, None);
        assert_eq!(s.direct_dest_unit(&msg), 42);
    }

    #[test]
    fn w_threshold_falls_back_before_estimates() {
        let s = sys(DesignPoint::O);
        // No state gathers yet: S_exe estimate is 0 → conservative
        // G_xfer fallback.
        assert_eq!(s.rank_w_threshold(0), s.cfg.g_xfer as u64);
    }

    #[test]
    fn emit_stalls_into_pending_when_mailbox_full() {
        let mut s = sys(DesignPoint::B);
        // Shrink unit 0's mailbox to one message.
        s.units[0].mailbox = ndpb_proto::Mailbox::new(24);
        let m1 = task_message(&mut s, 7, 0, None);
        let m2 = task_message(&mut s, 8, 0, None);
        s.emit_message(0, m1, SimTime::ZERO);
        assert!(s.units[0].pending_out.is_empty());
        s.emit_message(0, m2, SimTime::ZERO);
        assert_eq!(s.units[0].pending_out.len(), 1);
        assert_eq!(s.metrics.get(s.m.unit_mailbox_stalls), 1);
    }

    #[test]
    fn return_block_home_clears_all_metadata() {
        let mut s = sys(DesignPoint::O);
        let t = task_on(&s, 5, 0);
        let block = s.map.block_of(t.data);
        s.units[5].is_lent.set(block);
        s.bridges[0].data_borrowed.insert(block, UnitId(9));
        s.host.data_borrowed.insert(block, ndpb_dram::RankId(0));
        s.units[9].admit_borrow(block);
        s.return_block_home(9, block, SimTime::ZERO);
        assert!(s.bridges[0].data_borrowed.peek(&block).is_none());
        assert!(s.host.data_borrowed.peek(&block).is_none());
        // The return data message is in unit 9's mailbox.
        assert!(!s.units[9].mailbox.is_empty());
    }

    #[test]
    fn noop_system_terminates_immediately() {
        let r = sys(DesignPoint::O).run();
        assert_eq!(r.tasks_executed, 0);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.balance, 1.0);
        // No sink attached: the trace comes back empty, metrics still
        // carry the final snapshot.
        assert!(r.trace.is_empty());
        assert_eq!(r.metrics.final_value("unit/tasks_executed"), Some(0));
    }

    /// Epoch-0 tasks on unit 0 that each spawn an epoch-1 child on the
    /// far rank: forces mailbox traffic, bridge rounds and an epoch
    /// barrier, i.e. every traced subsystem.
    struct Fan {
        map: AddressMap,
    }

    impl Application for Fan {
        fn name(&self) -> &str {
            "fan"
        }
        fn initial_tasks(&mut self) -> Vec<Task> {
            (0..8)
                .map(|i| {
                    Task::new(
                        TaskFnId(0),
                        Timestamp(0),
                        self.map.addr_in_unit(UnitId(0), 64 * i),
                        3,
                        TaskArgs::EMPTY,
                    )
                })
                .collect()
        }
        fn execute(&mut self, t: &Task, ctx: &mut ExecCtx) {
            ctx.compute(10);
            ctx.read(t.data, 64);
            if t.func.0 == 0 {
                ctx.spawn(Task::new(
                    TaskFnId(1),
                    Timestamp(1),
                    self.map.addr_in_unit(UnitId(70), t.data.0 % 512),
                    3,
                    TaskArgs::EMPTY,
                ));
            }
        }
    }

    #[test]
    fn traced_run_captures_bridge_mailbox_and_task_events() {
        let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
        cfg.seed = 5;
        let map = AddressMap::new(&cfg.geometry, cfg.g_xfer, cfg.timing.row_bytes);
        let mut s = System::new(cfg, DesignPoint::O, Box::new(Fan { map }));
        s.set_trace(RingRecorder::new(1 << 16));
        let r = s.run();
        assert_eq!(r.tasks_executed, 16);
        let names: std::collections::HashSet<&str> =
            r.trace.iter().map(|t| t.event.name()).collect();
        for required in [
            "task",
            "gather",
            "scatter",
            "mailbox-enqueue",
            "epoch",
            "bus-transfer",
        ] {
            assert!(names.contains(required), "missing {required} in {names:?}");
        }
        // The metrics report agrees with the headline result fields and
        // holds one snapshot per epoch barrier plus the final one.
        assert_eq!(
            r.metrics.final_value("system/msgs_delivered"),
            Some(r.messages_delivered)
        );
        assert_eq!(
            r.metrics.final_value("unit/tasks_executed"),
            Some(r.tasks_executed)
        );
        let labels: Vec<&str> = r
            .metrics
            .snapshots
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert!(labels.contains(&"epoch-1"), "snapshots: {labels:?}");
        assert_eq!(labels.last(), Some(&"final"));
        // Chrome export of a real trace is structurally valid JSON.
        let json = ndpb_trace::chrome_trace_string(&r.trace);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    // ---- traced hardware actions -------------------------------------------

    /// A system with a trace ring attached, for the record-site tests.
    fn traced(design: DesignPoint) -> System {
        let mut s = sys(design);
        s.set_trace(RingRecorder::new(64));
        s
    }

    fn records(s: &mut System) -> Vec<TraceRecord> {
        s.trace.as_mut().expect("trace attached").take_records()
    }

    #[test]
    fn bank_spans_record_activations_only_over_the_access_window() {
        let mut s = traced(DesignPoint::B);
        let t = SimTime::ZERO;
        let cold = s.bank_access(4, t, 3, 64, false);
        let hit = s.bank_access(4, cold.end, 3, 64, false);
        let conflict = s.bank_access(4, hit.end, 9, 64, true);
        assert!(cold.activated && !hit.activated && conflict.activated);
        let out = records(&mut s);
        assert_eq!(out.len(), 2, "the row hit is not recorded: {out:?}");
        for (rec, (a, row, write)) in out.iter().zip([(cold, 3, false), (conflict, 9, true)]) {
            assert_eq!(rec.comp, ComponentId::Unit(4));
            assert_eq!(rec.event, TraceEvent::BankActivate { row, write });
            assert_eq!((rec.at, rec.dur), (a.start, a.end - a.start));
        }
        // Untraced, the same access records nothing and times the same.
        let mut plain = sys(DesignPoint::B);
        assert_eq!(plain.bank_access(4, t, 3, 64, false), cold);
        assert!(plain.trace.is_none());
    }

    #[test]
    fn bus_spans_cover_exactly_the_granted_window() {
        let mut s = traced(DesignPoint::B);
        let first = s.reserve(ComponentId::RankBus(1), SimTime::ZERO, 100);
        let queued = s.reserve(ComponentId::RankBus(1), SimTime::ZERO, 100);
        let channel = s.reserve(ComponentId::Channel(0), SimTime::from_ticks(5), 8);
        assert_eq!(queued.start, first.end, "the second transfer waits");
        assert_eq!(s.rank_bus[1].bytes, 200);
        assert_eq!(s.rank_bus[0].bytes, 0, "only the named bus is reserved");
        assert_eq!(s.channel[0].bytes, 8);
        let out = records(&mut s);
        assert_eq!(out.len(), 3);
        for (rec, (comp, g, bytes)) in out.iter().zip([
            (ComponentId::RankBus(1), first, 100),
            (ComponentId::RankBus(1), queued, 100),
            (ComponentId::Channel(0), channel, 8),
        ]) {
            assert_eq!(rec.comp, comp);
            assert_eq!(rec.event, TraceEvent::BusTransfer { bytes });
            assert_eq!((rec.at, rec.dur), (g.start, g.end - g.start));
        }
    }

    #[test]
    fn mailbox_full_is_recorded_once_per_stall_episode() {
        let mut s = traced(DesignPoint::B);
        // Unit 0's mailbox holds exactly one task message.
        s.units[0].mailbox = ndpb_proto::Mailbox::new(24);
        let msg = |s: &mut System, i: u64| task_message(s, 7, 64 * i, None);
        let full_events = |s: &mut System| {
            records(s)
                .iter()
                .filter(|r| r.event.name() == "mailbox-full")
                .count()
        };
        for episode in 0..2 {
            let m = msg(&mut s, 2 * episode);
            s.emit_message(0, m, SimTime::ZERO);
            let m = msg(&mut s, 2 * episode + 1);
            s.emit_message(0, m, SimTime::ZERO);
            assert_eq!(s.units[0].pending_out.len(), 1, "the core stalls");
            // The stalled core retries on every wake; none of the
            // retries is a new episode.
            for _ in 0..5 {
                s.on_core_wake(0);
            }
            assert_eq!(s.units[0].pending_out.len(), 1);
            assert_eq!(full_events(&mut s), 1, "episode {episode}");
            // A gather frees space: the parked message goes through and
            // the next rejection opens a new episode.
            s.units[0].mailbox.drain_up_to(u32::MAX);
            s.flush_pending_out(0);
            assert!(s.units[0].pending_out.is_empty());
            s.units[0].mailbox.drain_up_to(u32::MAX);
        }
        assert_eq!(s.metrics.get(s.m.unit_mailbox_stalls), 2 + 2 * 5);
    }

    // ---- conservation audit ----------------------------------------------

    #[test]
    fn audit_trips_on_corrupted_data_borrowed_entry() {
        let mut s = sys(DesignPoint::O);
        s.cfg.audit = AuditLevel::Full;
        // Fabricate a bridge entry for a block whose home never lent it
        // and which nobody holds: two inclusivity laws must fire.
        let t = task_on(&s, 5, 0);
        let block = s.map.block_of(t.data);
        s.bridges[0].data_borrowed.insert(block, UnitId(9));
        let v = s.collect_violations();
        assert!(
            v.iter().any(|x| x.law == "data-borrowed-inclusivity"),
            "corruption not detected: {v:?}"
        );
        assert!(v.iter().any(|x| x.detail.contains("orphaned")), "{v:?}");
        // Repairing the entry silences the auditor again.
        s.bridges[0].data_borrowed.remove(&block);
        assert!(s.collect_violations().is_empty());
    }

    #[test]
    fn audit_trips_on_corrupted_to_arrive_counter() {
        let mut s = sys(DesignPoint::W);
        s.cfg.audit = AuditLevel::Full;
        assert!(s.collect_violations().is_empty());
        s.bridges[1].to_arrive[3] = 7; // no scheduled task is in flight
        let v = s.collect_violations();
        assert!(
            v.iter()
                .any(|x| x.law == "to-arrive" && x.detail.contains("bridge 1 child 3")),
            "{v:?}"
        );
        // Corrupting the host-level counter trips its own law.
        s.bridges[1].to_arrive[3] = 0;
        s.host.to_arrive[0] = 9;
        let v = s.collect_violations();
        assert!(
            v.iter()
                .any(|x| x.law == "to-arrive" && x.detail.contains("host toArrive[0]")),
            "{v:?}"
        );
    }

    fn audited(design: DesignPoint) -> System {
        let mut s = sys(design);
        s.cfg.audit = AuditLevel::Full;
        assert!(s.collect_violations().is_empty());
        s
    }

    #[test]
    fn audit_trips_on_corrupted_emitted_count() {
        let mut s = audited(DesignPoint::O);
        // An emitted message that was neither delivered nor queued.
        s.msgs_emitted += 1;
        let v = s.collect_violations();
        assert!(
            v.iter().any(|x| x.law == "message-conservation"
                && x.detail == "emitted 1 != delivered 0 + in-flight 0"),
            "{v:?}"
        );
        s.msgs_emitted -= 1;
        assert!(s.collect_violations().is_empty());
    }

    #[test]
    fn audit_trips_on_bus_busy_past_its_horizon() {
        let mut s = audited(DesignPoint::O);
        s.rank_bus[0].reserve(SimTime::ZERO, 64);
        assert!(s.collect_violations().is_empty());
        s.rank_bus[0].busy = s.rank_bus[0].free_at() + SimTime::from_ticks(1);
        let v = s.collect_violations();
        assert!(
            v.iter().any(|x| x.law == "bus-sanity"
                && x.detail.starts_with("rank bus 0: busy")
                && x.detail.contains("exceeds horizon")),
            "{v:?}"
        );
        s.rank_bus[0].busy = s.rank_bus[0].free_at();
        assert!(s.collect_violations().is_empty());
    }

    #[test]
    fn audit_trips_on_ledger_row_without_its_total() {
        let mut s = audited(DesignPoint::O);
        s.metrics
            .add(s.m.ledger_comm[CommCause::Gather as usize], 1);
        let v = s.collect_violations();
        assert!(
            v.iter()
                .any(|x| x.law == "ledger-totals"
                    && x.detail == "comm ledger rows sum to 1, total is 0"),
            "{v:?}"
        );
        // Charging the matching system total balances the ledger again.
        s.metrics.add(s.m.comm_dram_bytes, 1);
        assert!(s.collect_violations().is_empty());
    }

    #[test]
    fn audit_trips_on_leaked_task() {
        let mut s = audited(DesignPoint::O);
        // A stored task nobody counts as outstanding: a completion
        // that forgot to free its slot looks exactly like this.
        let id = s.tasks.insert(task_on(&s, 5, 0));
        let v = s.collect_violations();
        assert!(
            v.iter().any(|x| x.law == "task-conservation"
                && x.detail == "1 live arena slots != 0 outstanding tasks"),
            "{v:?}"
        );
        s.tasks.free(id);
        assert!(s.collect_violations().is_empty());
    }

    #[test]
    fn audit_reads_messages_inside_queued_deliveries() {
        // A scheduled task for u9 is gathered from u5's mailbox and
        // scattered by a real rank round, which leaves it inside a
        // queued `Deliver` event.
        let mut s = audited(DesignPoint::W);
        let wl = task_on(&s, 5, 0).workload_or_default();
        s.bridges[0].to_arrive[9] = wl;
        s.host.to_arrive[0] = wl;
        let msg = task_message(&mut s, 5, 0, Some(UnitId(9)));
        s.emit_message(5, msg, SimTime::ZERO);
        assert!(s.collect_violations().is_empty());
        s.on_rank_round(0);
        assert!(s.units[5].mailbox.is_empty());
        assert!(s.q.iter().any(|ev| matches!(ev, Ev::Deliver(5, _))));
        assert!(s.collect_violations().is_empty());
        // Dropping the event loses the message and its workload.
        while !matches!(s.q.pop(), Some((_, Ev::Deliver(..)))) {}
        let v = s.collect_violations();
        assert!(
            v.iter().any(|x| x.law == "message-conservation"
                && x.detail == "emitted 1 != delivered 0 + in-flight 0"),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.law == "to-arrive" && x.detail.contains("bridge 0 child 9")),
            "{v:?}"
        );
    }

    #[test]
    fn audited_run_is_bit_identical_to_unaudited() {
        let run = |audit| {
            let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
            cfg.seed = 5;
            cfg.audit = audit;
            let map = AddressMap::new(&cfg.geometry, cfg.g_xfer, cfg.timing.row_bytes);
            System::new(cfg, DesignPoint::W, Box::new(Fan { map })).run()
        };
        let a = run(AuditLevel::Full);
        let b = run(AuditLevel::Off);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.events, b.events);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.comm_dram_bytes, b.comm_dram_bytes);
        assert_eq!(a.energy.total_pj(), b.energy.total_pj());
    }

    #[test]
    fn scheduled_task_settles_to_arrive_for_intended_receiver_once() {
        let mut s = sys(DesignPoint::W);
        s.cfg.audit = AuditLevel::Full;
        // A scheduled task intended for u9 is delivered at u9, which
        // does not hold the block: the reroute must still settle both
        // toArrive levels (u9 was the intended receiver) and clear the
        // marker so the forwarded copy settles nothing further.
        let wl = task_on(&s, 5, 0).workload_or_default();
        s.bridges[0].to_arrive[9] = wl;
        s.host.to_arrive[0] = wl;
        let msg = task_message(&mut s, 5, 0, Some(UnitId(9)));
        s.on_deliver(9, msg);
        assert_eq!(s.bridges[0].to_arrive[9], 0);
        assert_eq!(s.host.to_arrive[0], 0);
        assert_eq!(s.metrics.get(s.m.unit_tasks_rerouted), 1);
        // The re-emitted copy carries no marker.
        let mut fwd = s.units[9].mailbox.iter();
        assert!(matches!(fwd.next(), Some(Message::Task(_, None))));
        assert!(fwd.next().is_none());
    }

    #[test]
    fn lent_tasks_forward_task_only_and_moves_take_receivers_in_order() {
        let mut s = sys(DesignPoint::WLent);
        let g = u64::from(s.cfg.g_xfer);
        let a = s.map.block_of(task_on(&s, 5, 0).data);
        let b = s.map.block_of(task_on(&s, 5, g).data);
        // u5's block a is lent to u9; block b is at home.
        s.units[5].is_lent.set(a);
        s.bridges[0].data_borrowed.insert(a, UnitId(9));
        s.units[9].admit_borrow(a);
        for offset in [0, g, 16] {
            let t = task_on(&s, 5, offset);
            s.epochs.spawned(t.ts);
            let id = s.tasks.insert(t);
            s.units[5].enqueue_ready(id, &s.tasks, false, &s.map);
        }
        s.schedule_giver(0, 5, 100, &[10, 11], SimTime::ZERO, false);
        // a's two tasks go task-only to its holder and take no receiver;
        // b moves to the first receiver, u10, with its task.
        assert_eq!(s.metrics.get(s.m.blocks_migrated), 1);
        let mail: Vec<&Message> = s.units[5].mailbox.iter().collect();
        assert!(
            matches!(
                mail[..],
                [
                    Message::Task(_, Some(UnitId(9))),
                    Message::Task(_, Some(UnitId(9))),
                    Message::Data(d, UnitId(10)),
                    Message::Task(_, Some(UnitId(10))),
                ] if d.block == b
            ),
            "{mail:?}"
        );
        assert_eq!(s.bridges[0].to_arrive[9], 6);
        assert_eq!(s.bridges[0].to_arrive[10], 3);
        assert_eq!(s.bridges[0].data_borrowed.peek(&a), Some(&UnitId(9)));
        assert_eq!(s.bridges[0].data_borrowed.peek(&b), Some(&UnitId(10)));
    }

    #[test]
    fn evicting_an_in_flight_block_leaves_no_orphan() {
        let mut s = sys(DesignPoint::O);
        s.cfg.audit = AuditLevel::Full;
        let cap = s.bridges[0].data_borrowed.capacity();
        // Block A is scheduled toward u9 but its data is still in
        // flight (not admitted anywhere).
        let a = s.map.block_of(task_on(&s, 5, 0).data);
        s.units[5].is_lent.set(a);
        let gx = s.cfg.g_xfer;
        let dm = move |block| DataMessage {
            block,
            bytes: gx,
            workload: 1,
        };
        s.note_block_in_rank(0, &Message::Data(dm(a), UnitId(9)));
        assert_eq!(s.bridges[0].data_borrowed.peek(&a), Some(&UnitId(9)));
        // Fill the table until A's entry is evicted while in flight.
        for i in 0..cap as u64 {
            let b = s.map.block_of(task_on(&s, 6, s.cfg.g_xfer as u64 * i).data);
            s.units[6].is_lent.set(b);
            s.note_block_in_rank(0, &Message::Data(dm(b), UnitId(10)));
        }
        assert!(s.bridges[0].data_borrowed.peek(&a).is_none());
        // No bogus return was emitted from u9 (it never held A).
        assert!(s.units[9].mailbox.is_empty());
        // When A's data finally arrives, the stale check bounces it
        // home instead of admitting an orphan borrow.
        s.on_deliver(9, Message::Data(dm(a), UnitId(9)));
        assert!(!s.units[9].is_borrowed(a));
        let mut bounced = s.units[9].mailbox.iter();
        match bounced.next() {
            Some(Message::Data(d, dest)) if d.block == a && *dest == UnitId(5) => {}
            other => panic!("expected a bounce-home data message, got {other:?}"),
        }
    }

    #[test]
    fn returned_block_can_be_relent_cleanly() {
        let mut s = sys(DesignPoint::O);
        s.cfg.audit = AuditLevel::Full;
        let a = s.map.block_of(task_on(&s, 5, 0).data);
        let dmsg = Message::Data(
            DataMessage {
                block: a,
                bytes: s.cfg.g_xfer,
                workload: 1,
            },
            UnitId(9),
        );
        // First lend: u5 → u9, admitted.
        s.units[5].is_lent.set(a);
        s.note_block_in_rank(0, &dmsg);
        s.on_deliver(9, dmsg.clone());
        assert!(s.units[9].is_borrowed(a));
        // Return home: metadata cleared, lent bit dropped.
        assert!(s.units[9].remove_borrow(a));
        s.return_block_home(9, a, SimTime::ZERO);
        let ret = Message::Data(
            DataMessage {
                block: a,
                bytes: s.cfg.g_xfer,
                workload: 0,
            },
            UnitId(5),
        );
        s.on_deliver(5, ret);
        assert!(!s.units[5].is_lent.is_lent(a));
        // Immediate re-lend of the just-returned block is clean.
        s.units[5].is_lent.set(a);
        s.note_block_in_rank(0, &dmsg);
        s.on_deliver(9, dmsg);
        assert!(s.units[9].is_borrowed(a));
        assert_eq!(s.bridges[0].data_borrowed.peek(&a), Some(&UnitId(9)));
    }
}
