//! Batch workloads: one caller, one thread, no sweep pool and no result
//! cache. Each point calls `build_app`, `System::new` (or
//! `HostOnly::new`) and `run` directly, so set-up and run time are
//! timed apart.
//!
//! * `tiny-sweep` — the eight paper apps × columns C, B, W, O, H, R at
//!   `Scale::Tiny` on Table I: 48 short cold-start runs, where set-up
//!   and per-run fixed costs weigh most. The only workload that runs
//!   the host-only (H) and RowClone (R) models.
//! * `tiny-ablation` — the eight apps × five mechanism columns (W+Adv,
//!   W+Fine, W+Hot, W+GA, O+GA) at Tiny: each load-balancing technique
//!   and the gather-aware steal planner on its own.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use ndpb_bench::Column;
use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_core::hostonly::{HostOnly, HostOnlyConfig};
use ndpb_core::result::{ProfileStats, RunResult};
use ndpb_core::System;
use ndpb_workloads::{build_app, Scale, APP_NAMES};

use crate::host::{self, Noise};
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, quartiles};
use crate::{refs, Opts, Report};

/// Seconds one pass of either workload took on the machine the
/// benchmark was set up on (see the README). A run makes as many passes
/// as fit its budget at that speed, so the count never follows the
/// speed being measured.
const PASS_S: f64 = 1.0;

/// Passes for a budget of `seconds`: at least `min`.
fn passes_for(seconds: f64, min: usize) -> usize {
    ((seconds / PASS_S) as usize).max(min)
}

/// A batch workload: the eight paper apps on each of a list of design
/// columns, at `Scale::Tiny` on Table I.
#[derive(Debug)]
pub struct Workload {
    /// (app, column) points in run order.
    points: Vec<(&'static str, Column)>,
}

impl Workload {
    fn new(columns: &'static [Column]) -> Workload {
        Workload {
            points: APP_NAMES
                .iter()
                .flat_map(|&app| columns.iter().map(move |&c| (app, c)))
                .collect(),
        }
    }
}

/// The six golden columns of the Fig 10/11 matrix.
const TINY_COLUMNS: [Column; 6] = [
    Column::Ndp(DesignPoint::C),
    Column::Ndp(DesignPoint::B),
    Column::Ndp(DesignPoint::W),
    Column::Ndp(DesignPoint::O),
    Column::Host,
    Column::Ndp(DesignPoint::R),
];

/// Figure 14a's techniques one at a time on top of W (in-advance
/// scheduling, fine-grained stealing, hot-data selection), then the
/// gather-aware steal planner on top of W and of O. The planner's two
/// halves on their own (W+Byte, W+Lent) are left out so a pass stays
/// near a second and a run repeats each point as often as `tiny-sweep`.
const ABLATION_COLUMNS: [Column; 5] = [
    Column::Ndp(DesignPoint::WAdv),
    Column::Ndp(DesignPoint::WFine),
    Column::Ndp(DesignPoint::WHot),
    Column::Ndp(DesignPoint::WGather),
    Column::Ndp(DesignPoint::OGather),
];

/// The batch workload called `name`, if there is one.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "tiny-sweep" => Some(Workload::new(&TINY_COLUMNS)),
        "tiny-ablation" => Some(Workload::new(&ABLATION_COLUMNS)),
        _ => None,
    }
}

/// One simulated point: the three timed calls, the process CPU they
/// took, and the result.
struct PointRun {
    build_s: f64,
    new_s: f64,
    run_s: f64,
    cpu_s: f64,
    result: RunResult,
}

/// Runs one point on this thread. With `trace`, arms the event-loop
/// profiler and records one span per public call under the pass span.
fn run_point(
    app: &'static str,
    column: Column,
    seed: u64,
    trace: Option<(&mut Tracer, SpanId, u64)>,
) -> PointRun {
    let mut cfg = SystemConfig::table1();
    cfg.seed = seed;
    cfg.audit = AuditLevel::Off;
    let profile = trace.is_some();
    let cpu0 = host::self_cpu_s();
    let t0 = Instant::now();
    let application = build_app(app, &cfg.geometry, Scale::Tiny, seed);
    let t1 = Instant::now();
    let (t2, result) = match column {
        Column::Ndp(design) => {
            let mut sys = System::new(cfg, design, application);
            let t2 = Instant::now();
            if profile {
                sys.set_profile();
            }
            (t2, sys.run())
        }
        Column::Host => {
            let mut sys = HostOnly::new(cfg, HostOnlyConfig::paper(), application);
            let t2 = Instant::now();
            if profile {
                sys.set_profile();
            }
            (t2, sys.run())
        }
    };
    let t3 = Instant::now();
    let cpu_s = host::self_cpu_s() - cpu0;
    if let Some((tracer, pass, req)) = trace {
        let tag = format!("{app}/{}", column.label());
        tracer.record("workloads.build_app", t0, t1, Some(pass), req, tag.clone());
        tracer.record("core.new", t1, t2, Some(pass), req, tag.clone());
        tracer.record("core.run", t2, t3, Some(pass), req, tag);
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    PointRun {
        build_s: secs(t0, t1),
        new_s: secs(t1, t2),
        run_s: secs(t2, t3),
        cpu_s,
        result,
    }
}

/// The simulated statistics the traced run reports, summed over one
/// pass. A change that only speeds up the simulator must leave every
/// one identical.
#[derive(Debug, Default)]
struct Model {
    local_bytes: u64,
    comm_bytes: u64,
    rank_bytes: u64,
    channel_bytes: u64,
    msgs: u64,
    mailbox_stalls: u64,
    rerouted: u64,
    gathers: u64,
    wasted_gathers: u64,
    lb_rounds: u64,
    blocks_migrated: u64,
    reserved_hits: u64,
    reserved_overflows: u64,
    events: u64,
    makespans: Vec<f64>,
    /// (app, column label) → makespan ticks, for the Fig 10 geomeans.
    by_cell: BTreeMap<(String, String), f64>,
}

impl Model {
    fn add(&mut self, r: &RunResult) {
        let m = |name: &str| r.metrics.final_value(name).unwrap_or(0);
        self.local_bytes += r.local_dram_bytes;
        self.comm_bytes += r.comm_dram_bytes;
        self.rank_bytes += r.rank_bus_bytes;
        self.channel_bytes += r.channel_bytes;
        self.msgs += r.messages_delivered;
        self.mailbox_stalls += m("unit/mailbox_stalls");
        self.rerouted += r.tasks_rerouted;
        self.gathers += m("bridge/gathers");
        self.wasted_gathers += m("bridge/wasted_gathers");
        self.lb_rounds += r.lb_rounds;
        self.blocks_migrated += r.blocks_migrated;
        self.reserved_hits += m("sketch/reserved_hits");
        self.reserved_overflows += m("sketch/reserved_overflows");
        self.events += r.events;
        let ticks = r.makespan.ticks() as f64;
        self.makespans.push(ticks);
        self.by_cell
            .insert((r.app.clone(), r.design.clone()), ticks);
    }

    /// Writes the `dram.*` … `model.*` metrics.
    fn report(&self, rep: &mut Report) {
        rep.set("dram.local_bytes", self.local_bytes as f64);
        rep.set("dram.comm_bytes", self.comm_bytes as f64);
        rep.set("bus.rank_bytes", self.rank_bytes as f64);
        rep.set("bus.channel_bytes", self.channel_bytes as f64);
        rep.set("proto.msgs_delivered", self.msgs as f64);
        rep.set("unit.mailbox_stalls", self.mailbox_stalls as f64);
        rep.set("unit.tasks_rerouted", self.rerouted as f64);
        rep.set("bridge.gathers", self.gathers as f64);
        if self.gathers > 0 {
            rep.set(
                "bridge.gather_useful_frac",
                1.0 - self.wasted_gathers as f64 / self.gathers as f64,
            );
        }
        rep.set("bridge.lb_rounds", self.lb_rounds as f64);
        rep.set("lb.blocks_migrated", self.blocks_migrated as f64);
        rep.set("sketch.reserved_hits", self.reserved_hits as f64);
        rep.set("sketch.reserved_overflows", self.reserved_overflows as f64);
        rep.set("model.events", self.events as f64);
        rep.set(
            "model.makespan_geo_ticks",
            ndpb_core::result::geomean(&self.makespans),
        );
        for (design, name) in [
            ("B", "model.fig10_geo.B"),
            ("W", "model.fig10_geo.W"),
            ("O", "model.fig10_geo.O"),
        ] {
            let ratios: Vec<f64> = self
                .by_cell
                .iter()
                .filter(|((_, d), _)| d == "C")
                .filter_map(|((app, _), &c)| {
                    let x = self.by_cell.get(&(app.clone(), design.to_string()))?;
                    Some(c / x)
                })
                .collect();
            if !ratios.is_empty() {
                rep.set(name, ndpb_core::result::geomean(&ratios));
            }
        }
    }
}

/// One point's outcome in one pass.
#[derive(Debug, Clone, Copy)]
struct Point {
    events: u64,
    checksum: u64,
    /// `build_app` + construction seconds.
    setup: f64,
    /// `run` seconds.
    run: f64,
    /// Process CPU seconds over all three calls.
    cpu: f64,
}

/// One pass over every point of the workload.
struct Pass {
    wall: f64,
    noise: Noise,
    /// Per point, in workload order; `None` if it panicked.
    points: Vec<Option<Point>>,
    /// Traced passes only.
    span: Option<SpanId>,
    profile: ProfileStats,
    model: Option<Model>,
}

impl Pass {
    /// `f` summed over the points that completed.
    fn sum(&self, f: fn(&Point) -> f64) -> f64 {
        self.points.iter().flatten().map(f).sum()
    }

    fn setup(&self) -> f64 {
        self.sum(|p| p.setup)
    }

    fn run(&self) -> f64 {
        self.sum(|p| p.run)
    }
}

fn run_pass(w: &Workload, seed: u64, mut tracer: Option<&mut Tracer>) -> Pass {
    let noise0 = Noise::now();
    let start = Instant::now();
    let span = tracer
        .as_deref_mut()
        .map(|t| t.record("pass", start, start, None, 0, ""));
    let mut pass = Pass {
        wall: 0.0,
        noise: Noise::default(),
        points: Vec::with_capacity(w.points.len()),
        span,
        profile: ProfileStats::default(),
        model: span.map(|_| Model::default()),
    };
    for (i, &(app, column)) in w.points.iter().enumerate() {
        let trace = match (tracer.as_deref_mut(), span) {
            (Some(t), Some(s)) => Some((t, s, i as u64)),
            _ => None,
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_point(app, column, seed, trace)));
        match outcome {
            Ok(p) => {
                if let Some(prof) = &p.result.profile {
                    pass.profile.merge(prof);
                }
                if let Some(m) = pass.model.as_mut() {
                    m.add(&p.result);
                }
                pass.points.push(Some(Point {
                    events: p.result.events,
                    checksum: p.result.checksum,
                    setup: p.build_s + p.new_s,
                    run: p.run_s,
                    cpu: p.cpu_s,
                }));
            }
            Err(_) => pass.points.push(None),
        }
    }
    let end = Instant::now();
    pass.wall = (end - start).as_secs_f64();
    pass.noise = Noise::now().since(&noise0);
    if let (Some(t), Some(s)) = (tracer, span) {
        t.close(s, end);
    }
    pass
}

/// The reference checksum for every app of the workload: the recorded
/// value for this (app, seed), or else the host-only model's
/// checksum, computed here before anything is timed. `None` if that
/// reference run panicked.
fn references(w: &Workload, seed: u64) -> BTreeMap<&'static str, Option<u64>> {
    let mut out = BTreeMap::new();
    for &(app, _) in &w.points {
        out.entry(app).or_insert_with(|| {
            refs::checksum(app, seed).or_else(|| {
                panic::catch_unwind(|| run_point(app, Column::Host, seed, None))
                    .ok()
                    .map(|p| p.result.checksum)
            })
        });
    }
    out
}

/// Runs `n` passes.
fn passes(w: &Workload, seed: u64, n: usize, mut tracer: Option<&mut Tracer>) -> Vec<Pass> {
    (1..=n)
        .map(|k| {
            let p = run_pass(w, seed, tracer.as_deref_mut());
            println!(
                "pass {k:>3}/{n}: wall {:.4} s, setup {:.4} s, run {:.4} s, cpu {:.4} s, {}{}",
                p.wall,
                p.setup(),
                p.run(),
                p.sum(|q| q.cpu),
                p.noise.brief(),
                if p.span.is_some() { " (traced)" } else { "" }
            );
            p
        })
        .collect()
}

/// Checks every point of every pass and counts operations: a panic, a
/// checksum off its reference, or an event count that differs from the
/// first pass fails the point.
fn check(
    w: &Workload,
    refs: &BTreeMap<&'static str, Option<u64>>,
    all: &[&Pass],
    rep: &mut Report,
) {
    let first = &all[0].points;
    for pass in all {
        for (i, p) in pass.points.iter().enumerate() {
            let (app, column) = w.points[i];
            let ok = match (p, first[i]) {
                (Some(p), Some(p0)) => {
                    let want = refs[app];
                    let ok = p.events == p0.events && want == Some(p.checksum);
                    if !ok {
                        eprintln!(
                            "perfbench: {app}/{} events {} (first pass {}), checksum {} (reference {want:?})",
                            column.label(),
                            p.events,
                            p0.events,
                            p.checksum
                        );
                    }
                    ok
                }
                _ => {
                    eprintln!("perfbench: {app}/{} panicked", column.label());
                    false
                }
            };
            rep.op(ok);
        }
    }
}

/// The timed run (end-to-end metrics) or the traced run (per-layer).
pub fn run(w: &Workload, o: &Opts, tracer: Option<&mut Tracer>) -> Report {
    let refs = references(w, o.seed);
    let mut rep = Report::default();
    match tracer {
        None => {
            let ps = passes(w, o.seed, passes_for(o.seconds, 2), None);
            let all: Vec<&Pass> = ps.iter().collect();
            check(w, &refs, &all, &mut rep);
            timed_metrics(&ps, &mut rep);
            for p in &ps {
                rep.noise.add(&p.noise);
            }
        }
        Some(t) => {
            // Untraced passes in the first half of the budget, traced
            // ones in the second: the ratio of their medians is the
            // tracing overhead.
            let n = passes_for(o.seconds / 2.0, 1);
            let plain = passes(w, o.seed, n, None);
            let traced = passes(w, o.seed, n, Some(&mut *t));
            let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
            check(w, &refs, &all, &mut rep);
            layer_metrics(&traced, t, &mut rep);
            let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall).collect::<Vec<_>>());
            rep.set("trace.overhead_frac", wall(&traced) / wall(&plain) - 1.0);
            for p in all {
                rep.noise.add(&p.noise);
            }
        }
    }
    rep
}

/// End-to-end metrics from the timed passes. The host's speed swings
/// by a third from one second to the next on a shared machine, with no
/// steal time to show for it, so a pass median mostly measures how much
/// of the run fell in slow moments. Each point therefore counts at its
/// fastest repetition in the run, and every timed metric sums those
/// over the workload's points. The number of repetitions follows only
/// the budget (see [`passes_for`]), so the minimum is taken over the
/// same count on both sides of a comparison.
fn timed_metrics(ps: &[Pass], rep: &mut Report) {
    let walls: Vec<f64> = ps.iter().map(|p| p.wall).collect();
    if let Some([q1, q2, q3]) = quartiles(&walls) {
        println!(
            "pass wall quartiles: {q1:.4} / {q2:.4} / {q3:.4} s over {} passes",
            ps.len()
        );
    }
    let fastest = |f: fn(&Point) -> f64| -> f64 {
        (0..ps[0].points.len())
            .map(|i| {
                ps.iter()
                    .filter_map(|p| p.points[i].as_ref().map(f))
                    .fold(f64::INFINITY, f64::min)
            })
            .filter(|t| t.is_finite())
            .sum()
    };
    let events: u64 = ps[0].points.iter().flatten().map(|p| p.events).sum();
    rep.set("wall_s", fastest(|p| p.setup + p.run));
    rep.set("setup_s", fastest(|p| p.setup));
    rep.set("events_per_s", events as f64 / fastest(|p| p.run));
    rep.set("cpu_s", fastest(|p| p.cpu));
    rep.set("peak_rss_mb", host::peak_rss_mib("self").unwrap_or(0.0));
}

fn layer_metrics(traced: &[Pass], t: &Tracer, rep: &mut Report) {
    // Per traced pass: a span sum, then the median over passes.
    let per_pass = |name: &str, keep: &dyn Fn(&str) -> bool| {
        median(
            &traced
                .iter()
                .filter_map(|p| p.span)
                .map(|s| t.sum_under(name, s, keep))
                .collect::<Vec<f64>>(),
        )
    };
    let any = |_: &str| true;
    rep.set("workloads.build_s", per_pass("workloads.build_app", &any));
    rep.set("core.new_s", per_pass("core.new", &any));
    let run_s = per_pass("core.run", &any);
    rep.set("core.run_s", run_s);
    for (label, name) in [
        ("C", "core.run_s.C"),
        ("B", "core.run_s.B"),
        ("W", "core.run_s.W"),
        ("O", "core.run_s.O"),
        ("H", "core.run_s.H"),
        ("R", "core.run_s.R"),
    ] {
        let suffix = format!("/{label}");
        rep.set(
            name,
            per_pass("core.run", &|tag: &str| tag.ends_with(&suffix)),
        );
    }
    for (app, name) in APP_NAMES.iter().zip([
        "core.run_s.ll",
        "core.run_s.ht",
        "core.run_s.tree",
        "core.run_s.spmv",
        "core.run_s.bfs",
        "core.run_s.sssp",
        "core.run_s.pr",
        "core.run_s.wcc",
    ]) {
        let prefix = format!("{app}/");
        rep.set(
            name,
            per_pass("core.run", &|tag: &str| tag.starts_with(&prefix)),
        );
    }
    let prof = |f: fn(&ProfileStats) -> f64| {
        median(&traced.iter().map(|p| f(&p.profile)).collect::<Vec<f64>>())
    };
    let events = prof(|p| p.events as f64);
    rep.set("core.ns_per_event", run_s * 1e9 / events);
    rep.set("sim.queue_s", prof(|p| p.queue_ns as f64 * 1e-9));
    rep.set("core.dispatch_s", prof(|p| p.dispatch_ns as f64 * 1e-9));
    rep.set("core.finalize_s", prof(|p| p.finalize_ns as f64 * 1e-9));
    rep.set("sim.batches", prof(|p| p.batches as f64));
    rep.set("sim.events_per_batch", prof(ProfileStats::events_per_batch));
    if let Some(m) = traced[0].model.as_ref() {
        m.report(rep);
    }
}
