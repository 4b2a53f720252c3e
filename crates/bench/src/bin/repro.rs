//! `repro` — regenerate every table and figure of the NDPBridge paper.
//!
//! ```text
//! cargo run --release --bin repro -- <subcommand> \
//!     [--tiny|--small|--full] [--apps a,b,c] [--jobs N] \
//!     [--cache-dir path] [--no-cache]
//! ```
//!
//! Subcommands: `table1 table2 fig2 fig10 fig11 fig12 fig13 fig14a
//! fig14b fig15 fig16a fig16b fig16c fig16d split-dimm dimm-link
//! audit gather all`, plus `serve` (the resident ndpb-serve front-end)
//! and `bench` (engine throughput; `--small-tier` appends the
//! Small-scale W vs W+GA gather-traffic section).
//!
//! `serve [--port N] [--jobs N] [--cache-dir D] [--max-queue N]
//! [--max-points N]` runs the simulator as a long-running service:
//! `POST /run`, `GET /job/{id}`, `GET /metrics`, `GET /healthz`,
//! `POST /shutdown` (see `crates/serve`). The service shares the CLI's
//! on-disk result cache, so warm CLI runs make the service fast and
//! vice versa.
//!
//! `--audit` forces the conservation auditor on for every simulated
//! point (message conservation, toArrive balance, dataBorrowed
//! inclusivity, traffic-ledger totals, bus sanity — checked at every
//! epoch boundary; a violation aborts with the full list). The `audit`
//! subcommand additionally prints the per-cause traffic-ledger
//! breakdown for designs B and W.
//!
//! Simulations fan out over one sweep engine that `main` builds from the
//! flags and hands to every figure: `--jobs N` sizes its resident worker
//! pool (default: all hardware threads) and results are merged
//! deterministically, so any `--jobs` value prints identical output.
//! Each figure, `audit` and `gather` is one sweep: a single
//! `run_matrix` call over its apps × configurations × design columns.
//! An unknown option or `--apps` name exits 2 with the usage line
//! before anything is simulated.
//! Results are cached under `target/repro-cache` (override with
//! `--cache-dir`, disable with `--no-cache`); a warm rerun simulates
//! nothing — the stderr sweep summary shows the hit/miss counters.
//!
//! Absolute numbers will not match the paper (different substrate); the
//! *shape* — orderings, approximate factors, crossovers — is the
//! reproduction target. Each section prints the paper's reported
//! numbers for comparison.

use ndpb_bench::{
    format_speedup_table, matrix_geomean, matrix_geomean_speedup, run_matrix, Column, Sweeper,
};
use ndpb_core::audit::AuditLevel;
use ndpb_core::config::{SystemConfig, TriggerPolicy, BORROWED_REGION_BYTES, BRIDGE_MAILBOX_BYTES};
use ndpb_core::design::DesignPoint;
use ndpb_core::hostonly::{HostOnly, HostOnlyConfig};
use ndpb_core::result::geomean;
use ndpb_core::steal::STEAL_BUDGET_GXFER;
use ndpb_core::{RunResult, System};
use ndpb_dram::Geometry;
use ndpb_sketch::SketchConfig;
use ndpb_workloads::{build_app, known_app, Scale, APP_NAMES};
use std::time::{Duration, Instant};

struct Opts {
    scale: Scale,
    /// Whether a scale flag was given explicitly (`bench` defaults to
    /// tiny rather than the sweep default of small).
    scale_explicit: bool,
    apps: Vec<String>,
    json: Option<String>,
    trace: Option<String>,
    metrics_json: Option<String>,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    no_cache: bool,
    audit: bool,
    /// `bench --small-tier`: append the Small-scale W vs W+GA section
    /// (gather bytes + makespan) to the JSON report.
    small_tier: bool,
    /// `bench`: repetitions per design (default 5, or 2 with --quick).
    reps: Option<u32>,
    /// `bench --profile`: append a profiled pass per design attributing
    /// wall time to queue ops vs. handler dispatch vs. finalize, plus
    /// the same-tick run-length histogram.
    profile: bool,
    /// `bench --full-tier`: append a Scale::Full per-design tier with a
    /// budgeted rep count (Full runs cost minutes, not milliseconds).
    full_tier: bool,
    /// `bench`: fewer reps for a CI smoke.
    quick: bool,
    /// `serve`: TCP port (0 picks an ephemeral one).
    port: u16,
    /// `serve`: admission bound on unique in-flight points.
    max_queue: usize,
    /// `serve`: admission bound on points per request.
    max_points: usize,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        scale: Scale::Small,
        scale_explicit: false,
        apps: APP_NAMES.iter().map(|s| s.to_string()).collect(),
        json: None,
        trace: None,
        metrics_json: None,
        jobs: None,
        cache_dir: None,
        no_cache: false,
        audit: false,
        small_tier: false,
        reps: None,
        profile: false,
        full_tier: false,
        quick: false,
        port: 7878,
        max_queue: 256,
        max_points: 64,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => (o.scale, o.scale_explicit) = (Scale::Tiny, true),
            "--small" => (o.scale, o.scale_explicit) = (Scale::Small, true),
            "--full" => (o.scale, o.scale_explicit) = (Scale::Full, true),
            "--apps" => {
                o.apps = value(&mut it, a).split(',').map(str::to_string).collect();
                if let Some(bad) = o.apps.iter().find(|app| !known_app(app)) {
                    usage_error(&format!("unknown app {bad:?} in --apps"));
                }
            }
            "--json" => o.json = Some(value(&mut it, a).to_string()),
            "--trace" => o.trace = Some(value(&mut it, a).to_string()),
            "--metrics-json" => o.metrics_json = Some(value(&mut it, a).to_string()),
            "--jobs" => o.jobs = Some(number(&mut it, a, "a worker count, e.g. --jobs 8")),
            "--cache-dir" => o.cache_dir = Some(value(&mut it, a).to_string()),
            "--no-cache" => o.no_cache = true,
            "--audit" => o.audit = true,
            "--small-tier" => o.small_tier = true,
            "--profile" => o.profile = true,
            "--full-tier" => o.full_tier = true,
            "--reps" => o.reps = Some(number(&mut it, a, "a count, e.g. --reps 5")),
            "--quick" => o.quick = true,
            "--port" => o.port = number(&mut it, a, "a TCP port, e.g. --port 7878"),
            "--max-queue" => o.max_queue = number(&mut it, a, "a count, e.g. --max-queue 256"),
            "--max-points" => o.max_points = number(&mut it, a, "a count, e.g. --max-points 64"),
            other => usage_error(&format!("unknown option {other:?}")),
        }
    }
    o
}

/// The argument after option `flag`.
fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> &'a str {
    match it.next() {
        Some(v) => v,
        None => usage_error(&format!("{flag} expects a value")),
    }
}

/// The argument after option `flag`, parsed; `what` describes it.
fn number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> T {
    value(it, flag)
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects {what}")))
}

/// Reports a command-line mistake with the usage line and exits 2,
/// before anything is simulated.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    let commands: Vec<&str> = FIGURES
        .iter()
        .map(|&(name, _)| name)
        .chain(["audit", "gather", "bench", "serve", "trace", "all"])
        .collect();
    eprintln!("usage: repro <{}> [--tiny|--small|--full] [--apps a,b,c] [--jobs N] [--cache-dir path] [--no-cache] [--audit] [--json path] [--trace path] [--metrics-json path] [--reps N] [--quick] [--small-tier] [--profile] [--full-tier] [--port N] [--max-queue N] [--max-points N]", commands.join("|"));
    std::process::exit(2);
}

/// `repro serve`: run the resident simulation service (see
/// `crates/serve`) until SIGINT or `POST /shutdown`.
fn serve(o: &Opts) {
    let cfg = ndpb_serve::ServerConfig {
        port: o.port,
        jobs: o.jobs.unwrap_or_else(ndpb_bench::sweep::default_jobs),
        cache_dir: if o.no_cache {
            None
        } else {
            Some(
                o.cache_dir
                    .clone()
                    .unwrap_or_else(|| "target/repro-cache".to_string())
                    .into(),
            )
        },
        max_queue: o.max_queue,
        max_points: o.max_points,
    };
    let server = match ndpb_serve::Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind port {}: {e}", o.port);
            std::process::exit(1);
        }
    };
    eprintln!(
        "[serve] jobs={} cache={} max-queue={} max-points={}",
        cfg.jobs,
        cfg.cache_dir
            .as_ref()
            .map_or("off".to_string(), |d| d.display().to_string()),
        cfg.max_queue,
        cfg.max_points
    );
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}

/// Builds the sweep engine from the CLI flags. Caching is on by default
/// (`target/repro-cache`) so a rerun of an unchanged figure costs file
/// reads, not simulations; `--no-cache` forces fresh simulations and
/// `--cache-dir` relocates the store.
fn sweeper(o: &Opts) -> Sweeper {
    let mut sweeper = Sweeper::new(o.jobs.unwrap_or_else(ndpb_bench::sweep::default_jobs));
    if !o.no_cache {
        let dir = o
            .cache_dir
            .clone()
            .unwrap_or_else(|| "target/repro-cache".to_string());
        sweeper = sweeper.with_cache(dir);
    }
    if o.audit {
        // Conservation audit at every epoch boundary; any violated
        // invariant aborts the run with the full violation list.
        sweeper = sweeper.with_audit(AuditLevel::Full);
    }
    sweeper
}

/// Writes one JSON array of per-run records for a matrix (only when
/// `--json` was given).
fn dump_json(o: &Opts, matrix: &[Vec<RunResult>]) {
    let Some(path) = &o.json else { return };
    let records: Vec<String> = matrix.iter().flatten().map(|r| r.to_json()).collect();
    let body = format!("[\n{}\n]\n", records.join(",\n"));
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("failed to write {path}: {e}");
    } else {
        eprintln!("[wrote {} records to {path}]", records.len());
    }
}

fn app_refs(o: &Opts) -> Vec<&str> {
    o.apps.iter().map(String::as_str).collect()
}

/// The Table II design columns C, B, W and O.
fn table2_cols() -> Vec<Column> {
    DesignPoint::table2().map(Column::Ndp).to_vec()
}

/// Runs design O over the selected apps under each of `cfgs`, as one
/// sweep; results are `[app][config]`.
fn run_o(o: &Opts, sw: &Sweeper, cfgs: &[SystemConfig]) -> Vec<Vec<RunResult>> {
    run_matrix(
        sw,
        &app_refs(o),
        cfgs,
        &[Column::Ndp(DesignPoint::O)],
        o.scale,
    )
}

/// The index of the Table I configuration in `cfgs`, the point a
/// parameter sweep compares every other value against.
fn table1_index(cfgs: &[SystemConfig]) -> usize {
    let table1 = SystemConfig::table1().fingerprint();
    cfgs.iter()
        .position(|c| c.fingerprint() == table1)
        .expect("the sweep includes the Table I configuration")
}

/// A run's makespan in ticks.
fn ticks(r: &RunResult) -> f64 {
    r.makespan.ticks() as f64
}

/// Trace ring capacity of the instrumented run: the most recent records
/// win, and the run reports how many earlier ones the ring dropped.
const TRACE_RING: usize = 1 << 20;

/// One instrumented run of design O (`--trace` / `--metrics-json`):
/// records events into a bounded ring, writes a Chrome `trace_event`
/// JSON (open in chrome://tracing or https://ui.perfetto.dev) and the
/// per-epoch metric snapshots.
fn traced_run(o: &Opts) {
    let app = if o.apps.len() == APP_NAMES.len() {
        // Whole default list: pick an iterative app so the timeline shows
        // several epoch barriers (and the metrics JSON several snapshots).
        "pr"
    } else {
        o.apps.first().map(String::as_str).unwrap_or("pr")
    };
    let design = DesignPoint::O;
    println!("== instrumented run: {app} on design {design} ==");
    let mut cfg = SystemConfig::table1();
    if o.audit {
        cfg.audit = AuditLevel::Full;
    }
    let r = ndpb_bench::run_traced(app, design, cfg, o.scale, TRACE_RING);
    println!("{}", r.row());
    println!(
        "trace: kept the last {} of {} records; the {TRACE_RING}-record ring dropped {}",
        r.trace.len(),
        r.trace.len() as u64 + r.trace_dropped,
        r.trace_dropped
    );
    if let Some(path) = &o.trace {
        let write = || -> std::io::Result<()> {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            ndpb_trace::write_chrome_trace(&mut f, &r.trace)
        };
        match write() {
            Ok(()) => eprintln!(
                "[wrote {} trace events to {path}; open in chrome://tracing or https://ui.perfetto.dev]",
                r.trace.len()
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(path) = &o.metrics_json {
        match std::fs::write(path, r.metrics.to_json()) {
            Ok(()) => eprintln!(
                "[wrote {} metric snapshots to {path}]",
                r.metrics.snapshots.len()
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

fn table1() {
    let c = SystemConfig::table1();
    println!("== Table I: system configuration ==");
    println!(
        "NDP system   : {} channels x {} ranks x {} chips x {} banks = {} units",
        c.geometry.channels,
        c.geometry.ranks_per_channel,
        c.geometry.chips_per_rank,
        c.geometry.banks_per_chip,
        c.geometry.total_units()
    );
    println!(
        "Capacity     : {} GB total ({} MB per bank)",
        (c.geometry.total_units() as u64 * c.geometry.bank_bytes) >> 30,
        c.geometry.bank_bytes >> 20
    );
    println!("NDP core     : in-order, 400 MHz, 10 mW");
    println!(
        "DRAM bank    : {} ns CAS/RCD/RP, 150 pJ / 64-bit access",
        c.timing.t_cas.as_ns().round()
    );
    println!(
        "Unit SRAM    : isLent bitmap; dataBorrowed {} entries",
        c.unit_borrowed_entries
    );
    println!(
        "Unit DRAM    : {} MB mailbox, {} MB borrowed region",
        c.mailbox_bytes >> 20,
        BORROWED_REGION_BYTES >> 20
    );
    println!(
        "Bridge SRAM  : {} kB scatter bufs, {} kB backup, {} kB mailbox, dataBorrowed {} entries",
        (c.scatter_buffer_bytes * c.geometry.units_per_rank() as u64) >> 10,
        c.backup_buffer_bytes >> 10,
        BRIDGE_MAILBOX_BYTES >> 10,
        c.bridge_borrowed_entries
    );
    println!(
        "Sketch       : {} buckets x {} entries",
        c.sketch.buckets, c.sketch.entries_per_bucket
    );
    println!(
        "Comm         : G_xfer = {} B, I_state = {} cycles, I_min = {} ticks",
        c.g_xfer,
        c.i_state_cycles,
        c.i_min().ticks()
    );
}

fn table2() {
    println!("== Table II: evaluated designs ==");
    println!("{:<8}{:<26}load balancing", "design", "communication");
    for d in DesignPoint::table2() {
        let comm = match d.comm_path() {
            ndpb_core::CommPath::HostForward => "forwarded by host CPU",
            ndpb_core::CommPath::Bridges => "bridges (ours)",
            ndpb_core::CommPath::RowClone => "RowClone intra-chip",
        };
        let lb = d.lb_policy();
        let lbs = if !lb.enabled {
            "none".to_string()
        } else if lb.hot_data {
            "data-transfer-aware (ours)".to_string()
        } else {
            "work stealing".to_string()
        };
        println!("{:<8}{:<26}{}", d.to_string(), comm, lbs);
    }
}

fn fig2(o: &Opts, sw: &Sweeper) {
    println!("== Figure 2: tree traversal on baseline DRAM-bank NDP (design C) ==");
    println!("paper: 32.9% wait time; large max-vs-average gap (512 units)\n");
    let m = run_matrix(
        sw,
        &["tree"],
        &[SystemConfig::table1()],
        &[Column::Ndp(DesignPoint::C)],
        o.scale,
    );
    let r = &m[0][0];
    println!(
        "total (slowest unit): {:>12.1} us\naverage across units: {:>12.1} us  ({:.1}% of total)\nwait time fraction  : {:>11.1} %",
        r.makespan.as_ns() / 1000.0,
        r.avg_unit_time.as_ns() / 1000.0,
        r.balance * 100.0,
        r.wait_fraction * 100.0,
    );
}

fn fig10(o: &Opts, sw: &Sweeper) {
    println!("== Figure 10: C / B / W / O across applications ==");
    println!("paper: B=1.51x, W=2.23x, O=2.98x over C on average; W can hurt tree\n");
    let apps = app_refs(o);
    let cols = table2_cols();
    let m = run_matrix(sw, &apps, &[SystemConfig::table1()], &cols, o.scale);
    dump_json(o, &m);
    print!("{}", format_speedup_table(&apps, &cols, &m));
    println!("\nbalance (avg unit time / total, paper: B 22.4%, W 47.0%, O 59.0%):");
    print_per_app(&apps, &cols, &m, |r| format!("{:>9.1}%", r.balance * 100.0));
    println!("\nwait fraction of total time (paper: C large, B 1.4%, W 18.6%, O 10.0%):");
    print_per_app(&apps, &cols, &m, |r| {
        format!("{:>9.1}%", r.wait_fraction * 100.0)
    });
}

/// Prints a column-labelled table with one row per app, formatting each
/// of the app's results with `cell`.
fn print_per_app(
    apps: &[&str],
    cols: &[Column],
    m: &[Vec<RunResult>],
    cell: impl Fn(&RunResult) -> String,
) {
    print!("{:<8}", "app");
    for c in cols {
        print!("{:>10}", c.label());
    }
    println!();
    for (app, row) in apps.iter().zip(m) {
        let cells: String = row.iter().map(&cell).collect();
        println!("{app:<8}{cells}");
    }
}

fn fig11(o: &Opts, sw: &Sweeper) {
    println!("== Figure 11: vs host-only (H) and RowClone (R) ==");
    println!("paper: O=3.59x over H; R=1.35x over C; B=1.12x over R; O=2.23x over R\n");
    let apps = app_refs(o);
    let cols = [
        Column::Host,
        Column::Ndp(DesignPoint::C),
        Column::Ndp(DesignPoint::R),
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::O),
    ];
    let m = run_matrix(sw, &apps, &[SystemConfig::table1()], &cols, o.scale);
    print!("{}", format_speedup_table(&apps, &cols, &m));
    println!(
        "\nO over H: {:.2}x   R over C: {:.2}x   B over R: {:.2}x   O over R: {:.2}x",
        matrix_geomean_speedup(&m, 4, 0),
        matrix_geomean_speedup(&m, 2, 1),
        matrix_geomean_speedup(&m, 3, 2),
        matrix_geomean_speedup(&m, 4, 2),
    );
}

fn fig12(o: &Opts, sw: &Sweeper) {
    println!("== Figure 12: scalability on pr, 64..1024 units ==");
    println!("paper: speedups over baselines grow with scale; O@1024 = 1.68x O@512;");
    println!("       W fails to beat B at 1024 units\n");
    let cols = table2_cols();
    let cfgs = [1u32, 2, 4, 8, 16]
        .map(|ranks| SystemConfig::with_geometry(Geometry::with_total_ranks(ranks)));
    let m = run_matrix(sw, &["pr"], &cfgs, &cols, o.scale);
    println!(
        "{:<8}{:>10}{:>10}{:>10}{:>10}   (makespan us)",
        "units", "C", "B", "W", "O"
    );
    for (cfg, cells) in cfgs.iter().zip(m[0].chunks(cols.len())) {
        print!("{:<8}", cfg.geometry.total_units());
        for cell in cells {
            print!("{:>10.1}", cell.makespan.as_ns() / 1000.0);
        }
        println!();
    }
}

fn fig13(o: &Opts, sw: &Sweeper) {
    println!("== Figure 13: energy breakdown (core+SRAM / local DRAM / comm DRAM / static) ==");
    println!("paper: O reduces total energy 56.4% vs C on average\n");
    let apps = app_refs(o);
    let cols = table2_cols();
    let m = run_matrix(sw, &apps, &[SystemConfig::table1()], &cols, o.scale);
    println!(
        "{:<8}{:<8}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "app", "design", "core+sram", "dram-local", "dram-comm", "static", "total(uJ)"
    );
    for (i, app) in apps.iter().enumerate() {
        for (j, c) in cols.iter().enumerate() {
            let e = &m[i][j].energy;
            println!(
                "{:<8}{:<8}{:>11.1}%{:>11.1}%{:>11.1}%{:>11.1}%{:>12.1}",
                app,
                c.label(),
                e.fractions()[0] * 100.0,
                e.fractions()[1] * 100.0,
                e.fractions()[2] * 100.0,
                e.fractions()[3] * 100.0,
                e.total_pj() / 1e6,
            );
        }
    }
    let reduction = matrix_geomean(&m, |row| {
        row[3].energy.total_pj() / row[0].energy.total_pj()
    });
    println!(
        "\nO total energy vs C (geomean): {:.1}% (paper: 43.6%, i.e. a 56.4% reduction)",
        reduction * 100.0
    );
}

fn fig14a(o: &Opts, sw: &Sweeper) {
    println!("== Figure 14a: data-transfer-aware LB ablation over W ==");
    println!("paper: +Adv 1.046x, +Fine 1.19x, +Hot 1.29x, O 1.35x over W (geomean)\n");
    let apps = app_refs(o);
    let cols = [
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::WAdv),
        Column::Ndp(DesignPoint::WFine),
        Column::Ndp(DesignPoint::WHot),
        Column::Ndp(DesignPoint::O),
    ];
    let m = run_matrix(sw, &apps, &[SystemConfig::table1()], &cols, o.scale);
    print!("{}", format_speedup_table(&apps, &cols, &m));
}

fn fig14b(o: &Opts, sw: &Sweeper) {
    println!("== Figure 14b: dynamic communication triggering ==");
    println!("paper: dynamic saves 29.5% access energy vs fixed I_min at -0.4% perf;");
    println!("       fixed 2*I_min loses 31% performance\n");
    let policies = [
        ("dynamic", TriggerPolicy::Dynamic),
        ("I_min", TriggerPolicy::FixedIMin),
        ("2*I_min", TriggerPolicy::Fixed2IMin),
    ];
    let cfgs = policies.map(|(_, trigger)| SystemConfig {
        trigger,
        ..SystemConfig::table1()
    });
    // Each row holds one result per policy; entry 0, the dynamic
    // policy, is the one every policy is compared with.
    let m = run_o(o, sw, &cfgs);
    println!(
        "{:<10}{:>14}{:>18}{:>16}",
        "trigger", "perf vs dyn", "comm energy", "wasted gathers"
    );
    for (k, (label, _)) in policies.iter().enumerate() {
        let perf = matrix_geomean(&m, |row| ticks(&row[0]) / ticks(&row[k]));
        let energy = matrix_geomean(&m, |row| {
            row[k].energy.dram_comm_pj / row[0].energy.dram_comm_pj.max(1.0)
        });
        let wasted: u64 = m
            .iter()
            .filter_map(|row| row[k].metrics.final_value("bridge/wasted_gathers"))
            .sum();
        println!(
            "{:<10}{:>13.2}x{:>17.1}%{:>16}",
            label,
            perf,
            energy * 100.0,
            wasted,
        );
    }
}

fn fig15(o: &Opts, sw: &Sweeper) {
    println!("== Figure 15: chip DQ widths x4 / x8 / x16 ==");
    println!("paper: O = 3.26x/2.98x/2.58x over C; B gains most at x4 (2.33x),");
    println!("       LB gains most at x16 (W 1.79x, O 2.3x over B)\n");
    let cols = table2_cols();
    let dqs = [4u32, 8, 16];
    let cfgs = dqs.map(|dq| SystemConfig::with_geometry(Geometry::with_dq_bits(dq)));
    let m = run_matrix(sw, &app_refs(o), &cfgs, &cols, o.scale);
    for (k, dq) in dqs.iter().enumerate() {
        // Design `t` over design `b`, both under DQ width `dq`.
        let over =
            |t: usize, b: usize| matrix_geomean_speedup(&m, k * cols.len() + t, k * cols.len() + b);
        println!(
            "x{dq:<3} B/C {:>5.2}x  W/C {:>5.2}x  O/C {:>5.2}x  |  W/B {:>5.2}x  O/B {:>5.2}x",
            over(1, 0),
            over(2, 0),
            over(3, 0),
            over(2, 1),
            over(3, 1),
        );
    }
}

fn fig16a(o: &Opts, sw: &Sweeper) {
    println!("== Figure 16a: G_xfer x metadata-size sweep (design O) ==");
    println!("paper: 256 B is the sweet spot; 64 B needs 4x metadata to win\n");
    println!(
        "{:<10}{:>12}{:>12}{:>12}   (geomean makespan vs 256B/1x)",
        "G_xfer", "1/4x meta", "1x meta", "4x meta"
    );
    let gxfers = [64u32, 256, 1024];
    let metas = [0.25f64, 1.0, 4.0];
    let cfgs: Vec<SystemConfig> = gxfers
        .iter()
        .flat_map(|&g_xfer| {
            metas.map(|meta| SystemConfig {
                g_xfer,
                ..SystemConfig::table1().scale_metadata(meta)
            })
        })
        .collect();
    let m = run_o(o, sw, &cfgs);
    let geo: Vec<f64> = (0..cfgs.len())
        .map(|k| matrix_geomean(&m, |row| ticks(&row[k])))
        .collect();
    // 256 B with 1x metadata is the Table I configuration.
    let base = geo[table1_index(&cfgs)];
    for (gx, row) in gxfers.iter().zip(geo.chunks(metas.len())) {
        println!(
            "{:<10}{:>11.2}x{:>11.2}x{:>11.2}x",
            format!("{gx}B"),
            row[0] / base,
            row[1] / base,
            row[2] / base
        );
    }
    println!("(>1 means slower than the default)");
}

fn fig16b(o: &Opts, sw: &Sweeper) {
    println!("== Figure 16b: I_state sweep (design O) ==");
    println!("paper: 2000 cycles retains performance\n");
    let i_states = [500u64, 1000, 2000, 4000, 8000];
    let cfgs = i_states.map(|i_state_cycles| SystemConfig {
        i_state_cycles,
        ..SystemConfig::table1()
    });
    let m = run_o(o, sw, &cfgs);
    // The 2000-cycle entry is the Table I configuration.
    let base = table1_index(&cfgs);
    for (k, i_state) in i_states.iter().enumerate() {
        let rel = matrix_geomean(&m, |row| ticks(&row[base]) / ticks(&row[k]));
        println!("I_state={i_state:<6} perf vs 2000-cycle default: {rel:.3}x");
    }
}

fn fig16cd(o: &Opts, sw: &Sweeper, buckets: bool) {
    let (name, what) = if buckets {
        ("16c", "sketch bucket count")
    } else {
        ("16d", "sketch entries per bucket")
    };
    println!("== Figure {name}: {what} sweep (design O) ==");
    println!("paper: the 16x16 default is sufficient\n");
    let sizes = [4usize, 8, 16, 32];
    let cfgs = sizes.map(|k| SystemConfig {
        sketch: if buckets {
            SketchConfig::with_geometry(k, 16)
        } else {
            SketchConfig::with_geometry(16, k)
        },
        ..SystemConfig::table1()
    });
    let m = run_o(o, sw, &cfgs);
    // The 16x16 sketch is the Table I configuration.
    let base = table1_index(&cfgs);
    for (k, size) in sizes.iter().enumerate() {
        let rel = matrix_geomean(&m, |row| ticks(&row[base]) / ticks(&row[k]));
        println!("{what} = {size:<4} perf vs default: {rel:.3}x");
    }
}

fn split_dimm(o: &Opts, sw: &Sweeper) {
    println!("== Section VIII-A: split DIMM buffers (chameleon-s) ==");
    println!("paper: 9.1% performance degradation, 35.3% more wait time\n");
    // Entry 0 of each row is the unified buffer, entry 1 the split one.
    let m = run_o(
        o,
        sw,
        &[
            SystemConfig::table1(),
            SystemConfig::with_geometry(Geometry::split_dimm_buffer()),
        ],
    );
    let perf = matrix_geomean(&m, |row| ticks(&row[1]) / ticks(&row[0]));
    let waits = matrix_geomean(&m, |row| {
        (row[1].wait_fraction + 1e-9) / (row[0].wait_fraction + 1e-9)
    });
    println!(
        "split-DIMM slowdown: {:.1}% (geomean)   wait-time ratio: {:.2}x",
        (perf - 1.0) * 100.0,
        waits
    );
}

fn dimm_link(o: &Opts, sw: &Sweeper) {
    println!("== Extension: NDPBridge + DIMM-Link cross-rank links ==");
    println!("(Section V-A: NDPBridge is orthogonal to and can work in tandem");
    println!(" with DIMM-Link; the paper's evaluation uses plain DDR channels.)\n");
    let apps = app_refs(o);
    // Entry 0 of each row runs on plain DDR channels, entry 1 with the
    // links.
    let m = run_o(
        o,
        sw,
        &[
            SystemConfig::table1(),
            SystemConfig::table1().with_dimm_link(),
        ],
    );
    println!(
        "{:<8}{:>12}{:>14}{:>14}",
        "app", "speedup", "chan KB", "chan KB+link"
    );
    let mut sp = Vec::new();
    for (app, row) in apps.iter().zip(&m) {
        let s = row[1].speedup_over(&row[0]);
        sp.push(s);
        println!(
            "{:<8}{:>11.2}x{:>14}{:>14}",
            app,
            s,
            row[0].channel_bytes / 1024,
            row[1].channel_bytes / 1024,
        );
    }
    println!("geomean {:>11.2}x", geomean(&sp));
}

/// `repro bench`: wall-clock benchmark of the simulation engine itself.
///
/// Times the fig10-style sweep (all apps × the six golden-column
/// designs C/B/W/O/H/R) with [`time_tier`] and writes
/// `BENCH_repro.json` (or `--json path`) for machine consumption.
/// Defaults to `--tiny` so a full bench stays in seconds.
fn bench_engine(o: &Opts) {
    let reps = o.reps.unwrap_or(if o.quick { 2 } else { 5 });
    let scale = if o.scale_explicit {
        o.scale
    } else {
        Scale::Tiny
    };
    let apps = app_refs(o);
    let cols: Vec<Column> = vec![
        Column::Ndp(DesignPoint::C),
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::O),
        Column::Host,
        Column::Ndp(DesignPoint::R),
    ];
    println!(
        "== engine bench: {} apps x {} designs, {} rep(s), scale {:?} ==\n",
        apps.len(),
        cols.len(),
        reps,
        scale
    );
    let tier = time_tier(&apps, &cols, scale, reps);
    let mut sections = vec![tier.json];
    let baseline = load_baseline(&apps);
    // --small-tier: the Small-scale gather-traffic tier (ROADMAP item
    // 1 acceptance: W+GA moves >= 2x fewer gather bytes than W with
    // makespan no worse). One pass per design — the numbers recorded
    // are deterministic byte counts and makespans, not wall times.
    if o.small_tier {
        let tier_cols = [DesignPoint::W, DesignPoint::WGather];
        let mut tier_rows = Vec::new();
        let mut gathers = [0u64; 2];
        let mut app_gathers: Vec<Vec<f64>> = vec![Vec::new(); 2];
        let mut makespans: Vec<Vec<f64>> = vec![Vec::new(); 2];
        println!(
            "\n{:<8}{:>14}{:>18}{:>12}   (Small-scale gather tier)",
            "design", "gather KB", "geomean ticks", "events"
        );
        for (ci, d) in tier_cols.iter().enumerate() {
            let mut ev = 0u64;
            for app in &apps {
                let r = ndpb_bench::run_one(app, *d, SystemConfig::table1(), Scale::Small);
                let g = r.metrics.final_value("ledger/comm/gather").unwrap_or(0);
                gathers[ci] += g;
                app_gathers[ci].push(g.max(1) as f64);
                makespans[ci].push(r.makespan.ticks() as f64);
                ev += r.events;
            }
            let gm = geomean(&makespans[ci]);
            println!(
                "{:<8}{:>14}{:>18.0}{:>12}",
                d.to_string(),
                gathers[ci] >> 10,
                gm,
                ev
            );
            tier_rows.push(format!(
                "{{\"design\":\"{d}\",\"gather_bytes\":{},\"geomean_makespan_ticks\":{gm:.1},\"events\":{ev}}}",
                gathers[ci]
            ));
        }
        // Geomean of per-app gather ratios (== ratio of geomeans), the
        // same statistic the invariants suite pins — a sum would let
        // one heavy app's traffic floor mask the per-app reduction.
        let reduction = geomean(&app_gathers[0]) / geomean(&app_gathers[1]);
        let perf = geomean(&makespans[0]) / geomean(&makespans[1]);
        println!("gather reduction W+GA vs W: {reduction:.2}x   W+GA speedup over W: {perf:.3}x");
        // Non-gating delta against the committed baseline's small tier.
        if let Some(br) = baseline
            .as_ref()
            .and_then(|b| b.get("small_tier"))
            .and_then(|t| t.get("gather_reduction_x"))
            .and_then(|v| v.as_f64())
        {
            println!("[baseline small-tier gather reduction {br:.2}x, this run {reduction:.2}x]");
        }
        sections.push(format!(
            "\"small_tier\":{{\"scale\":\"Small\",\"designs\":[\n{}\n],\"gather_reduction_x\":{reduction:.3},\"speedup_x\":{perf:.4}}}",
            tier_rows.join(",\n")
        ));
    }
    // --profile: one extra profiled pass per design, run *after* the
    // timing reps so the profiler's clock reads never contaminate the
    // medians above. Attribution: queue ops vs. handler dispatch vs.
    // finalize, plus the same-tick run-length histogram that shows what
    // batched dispatch is fusing (DESIGN.md §3c).
    let mut profile_rows: Vec<(String, ndpb_core::result::ProfileStats)> = Vec::new();
    if o.profile {
        println!(
            "\n{:<8}{:>9}{:>10}{:>11}{:>11}{:>12}   (profiled pass)",
            "design", "queue%", "dispatch%", "finalize%", "ev/batch", "batches"
        );
        let mut agg_rows = Vec::new();
        for col in &cols {
            let mut agg = ndpb_core::result::ProfileStats::default();
            for app in &apps {
                let r = ndpb_bench::run_profiled(app, *col, SystemConfig::table1(), scale);
                agg.merge(
                    r.profile
                        .as_ref()
                        .expect("profiled run must report a profile"),
                );
            }
            let total = (agg.queue_ns + agg.dispatch_ns + agg.finalize_ns).max(1) as f64;
            println!(
                "{:<8}{:>8.1}%{:>9.1}%{:>10.1}%{:>11.2}{:>12}",
                col.label(),
                100.0 * agg.queue_ns as f64 / total,
                100.0 * agg.dispatch_ns as f64 / total,
                100.0 * agg.finalize_ns as f64 / total,
                agg.events_per_batch(),
                agg.batches
            );
            agg_rows.push(format!(
                "{{\"design\":\"{}\",\"stats\":{}}}",
                col.label(),
                agg.to_json()
            ));
            profile_rows.push((col.label(), agg));
        }
        let mut hist = [0u64; 8];
        for (_, p) in &profile_rows {
            for (h, v) in hist.iter_mut().zip(p.run_len_hist) {
                *h += v;
            }
        }
        let total_batches: u64 = hist.iter().sum::<u64>().max(1);
        let line: Vec<String> = ndpb_core::result::ProfileStats::RUN_LEN_LABELS
            .iter()
            .zip(hist)
            .map(|(l, v)| format!("{l}:{:.1}%", 100.0 * v as f64 / total_batches as f64))
            .collect();
        println!("events-per-pop histogram  {}", line.join("  "));
        sections.push(format!("\"profile\":[\n{}\n]", agg_rows.join(",\n")));
    }
    // --full-tier: the first Scale::Full per-design tier. Full runs
    // cost minutes, not milliseconds, so the rep count is budgeted
    // (default 1 with --quick, else 2) — the numbers are a trajectory
    // marker, not a micro-benchmark.
    let mut full_rows = Vec::new();
    if o.full_tier {
        let full_reps = if o.quick { 1 } else { 2 };
        println!(
            "\n== Full tier: {} apps x {} designs, {} rep(s), scale Full ==",
            apps.len(),
            cols.len(),
            full_reps
        );
        let full = time_tier(&apps, &cols, Scale::Full, full_reps);
        sections.push(format!(
            "\"full_tier\":{{\"scale\":\"Full\",\"reps\":{full_reps},{}}}",
            full.json
        ));
        full_rows = full.rows;
    }
    // Recorded so a throughput delta is only read against a baseline
    // taken on a comparable host.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let apps_json: Vec<String> = apps.iter().map(|a| format!("\"{a}\"")).collect();
    let body = format!(
        "{{\"bench\":\"fig10\",\"scale\":\"{scale:?}\",\"reps\":{reps},\"host_parallelism\":{host_parallelism},\"apps\":[{}],{}}}\n",
        apps_json.join(","),
        sections.join(",")
    );
    let path = o.json.as_deref().unwrap_or("BENCH_repro.json");
    match std::fs::write(path, &body) {
        Ok(()) => eprintln!("[wrote {path}]"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    if let Some(base) = &baseline {
        print_baseline_delta(base, &tier.rows, scale, &profile_rows, &full_rows);
    }
}

/// One `repro bench` tier: per design, its label, event count and
/// events/sec, plus the tier's JSON fields.
struct Tier {
    rows: Vec<(String, u64, f64)>,
    /// `"designs":[...],"total_events":..,"total_median_wall_seconds":..,
    /// "total_median_setup_seconds":..,"total_events_per_sec":..`
    json: String,
}

/// Times each column over `apps` at `scale`, `reps` passes per design —
/// sequentially, bypassing the result cache so every run is a real
/// simulation — and prints per design the median wall seconds, the
/// median set-up seconds within them (`build_app` plus the model's
/// constructor, before `run`), and events/sec over the whole wall time.
fn time_tier(apps: &[&str], cols: &[Column], scale: Scale, reps: u32) -> Tier {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
    let mut events: Vec<u64> = vec![0; cols.len()];
    for rep in 0..reps {
        for (ci, col) in cols.iter().enumerate() {
            let start = Instant::now();
            let mut setup = Duration::ZERO;
            let mut ev = 0u64;
            for app in apps {
                let setup_start = Instant::now();
                let cfg = SystemConfig::table1();
                let workload = build_app(app, &cfg.geometry, scale, cfg.seed);
                let r = match *col {
                    Column::Ndp(d) => {
                        let sys = System::new(cfg, d, workload);
                        setup += setup_start.elapsed();
                        sys.run()
                    }
                    Column::Host => {
                        let host = HostOnly::new(cfg, HostOnlyConfig::paper(), workload);
                        setup += setup_start.elapsed();
                        host.run()
                    }
                };
                ev += r.events;
            }
            walls[ci].push(start.elapsed().as_secs_f64());
            setups[ci].push(setup.as_secs_f64());
            // Simulations are deterministic: the event count per design
            // must not vary across reps.
            if rep == 0 {
                events[ci] = ev;
            } else {
                assert_eq!(events[ci], ev, "nondeterministic event count for {col:?}");
            }
        }
    }
    let per_sec = |events: u64, secs: f64| {
        if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        }
    };
    println!(
        "{:<8}{:>12}{:>14}{:>12}{:>16}",
        "design", "events", "median s", "setup s", "events/sec"
    );
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let (mut total_events, mut total_median, mut total_setup) = (0u64, 0.0, 0.0);
    for (((col, walls), setups), events) in cols.iter().zip(&walls).zip(&setups).zip(events) {
        let med = ndpb_bench::timing::median(walls);
        let setup = ndpb_bench::timing::median(setups);
        let eps = per_sec(events, med);
        let label = col.label();
        println!("{label:<8}{events:>12}{med:>14.4}{setup:>12.4}{eps:>16.0}");
        total_events += events;
        total_median += med;
        total_setup += setup;
        let wall_list: Vec<String> = walls.iter().map(|w| format!("{w:.6}")).collect();
        json_rows.push(format!(
            "{{\"design\":\"{label}\",\"events\":{events},\"wall_seconds\":[{}],\"median_wall_seconds\":{med:.6},\"median_setup_seconds\":{setup:.6},\"events_per_sec\":{eps:.1}}}",
            wall_list.join(",")
        ));
        rows.push((label, events, eps));
    }
    let total_eps = per_sec(total_events, total_median);
    println!(
        "{:<8}{total_events:>12}{total_median:>14.4}{total_setup:>12.4}{total_eps:>16.0}",
        "total"
    );
    Tier {
        rows,
        json: format!(
            "\"designs\":[\n{}\n],\"total_events\":{total_events},\"total_median_wall_seconds\":{total_median:.6},\"total_median_setup_seconds\":{total_setup:.6},\"total_events_per_sec\":{total_eps:.1}",
            json_rows.join(",\n")
        ),
    }
}

/// Where `repro bench` finds the committed baseline it compares with.
const BASELINE: &str = "docs/repro/BENCH_repro.json";

/// The committed baseline, when it can be read, parses, and covers the
/// same apps as this run. Every number it holds is a sum over its apps,
/// so a run over other apps would be compared with different work. Each
/// case that yields `None` prints one skip note, so a run from outside
/// the repository root says why it has no delta.
fn load_baseline(apps: &[&str]) -> Option<ndpb_bench::json::Json> {
    let text = match std::fs::read_to_string(BASELINE) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[no baseline at {BASELINE} ({e}); skipping delta]");
            return None;
        }
    };
    let Ok(base) = ndpb_bench::json::Json::parse(&text) else {
        eprintln!("[baseline {BASELINE} is not valid JSON; skipping delta]");
        return None;
    };
    let base_apps: Vec<&str> = base
        .get("apps")
        .and_then(|a| a.as_arr())
        .map_or_else(Vec::new, |a| a.iter().filter_map(|v| v.as_str()).collect());
    if base_apps != apps {
        eprintln!(
            "[baseline {BASELINE} covers apps {}, this run {}; skipping delta]",
            base_apps.join(","),
            apps.join(",")
        );
        return None;
    }
    Some(base)
}

/// Compares a `repro bench` run against the committed baseline `base`
/// (see [`load_baseline`]). Throughput ratios are informational
/// (machines differ); event-count drift is called out loudly because
/// the simulator is deterministic — a changed count means changed
/// behaviour, not noise.
fn print_baseline_delta(
    base: &ndpb_bench::json::Json,
    rows: &[(String, u64, f64)],
    scale: Scale,
    profile_rows: &[(String, ndpb_core::result::ProfileStats)],
    full_rows: &[(String, u64, f64)],
) {
    let base_scale = base.str_field("scale").unwrap_or("?");
    if base_scale != format!("{scale:?}") {
        eprintln!(
            "[baseline {BASELINE} is scale {base_scale}, this run is {scale:?}; skipping delta]"
        );
        return;
    }
    let Some(designs) = base.get("designs").and_then(|d| d.as_arr()) else {
        return;
    };
    println!(
        "\nvs committed baseline ({BASELINE}, reps={}):",
        base.u64_field("reps").unwrap_or(0)
    );
    println!(
        "{:<8}{:>14}{:>14}{:>10}",
        "design", "base ev/s", "now ev/s", "ratio"
    );
    compare_rows(designs, rows, 8);
    // Newer sections diff only when both sides carry them: old
    // baselines (and runs without the flags) silently skip.
    if !profile_rows.is_empty() {
        if let Some(base_prof) = base.get("profile").and_then(|p| p.as_arr()) {
            println!(
                "\nprofile vs baseline: {:<8}{:>12}{:>12}{:>14}{:>14}",
                "design", "base q%", "now q%", "base ev/b", "now ev/b"
            );
            for (label, p) in profile_rows {
                let Some(stats) = base_prof
                    .iter()
                    .find(|d| d.str_field("design") == Some(label.as_str()))
                    .and_then(|d| d.get("stats"))
                else {
                    continue;
                };
                let f = |k: &str| stats.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                let base_total = (f("queue_ns") + f("dispatch_ns") + f("finalize_ns")).max(1.0);
                let now_total = (p.queue_ns + p.dispatch_ns + p.finalize_ns).max(1) as f64;
                println!(
                    "{:<29}{:>11.1}%{:>11.1}%{:>14.2}{:>14.2}",
                    label,
                    100.0 * f("queue_ns") / base_total,
                    100.0 * p.queue_ns as f64 / now_total,
                    f("events_per_batch"),
                    p.events_per_batch()
                );
            }
        }
    }
    if !full_rows.is_empty() {
        if let Some(base_full) = base
            .get("full_tier")
            .and_then(|t| t.get("designs"))
            .and_then(|d| d.as_arr())
        {
            println!(
                "\nfull tier vs baseline: {:<8}{:>14}{:>14}{:>10}",
                "design", "base ev/s", "now ev/s", "ratio"
            );
            compare_rows(base_full, full_rows, 31);
        }
    }
}

/// Prints baseline vs current events/sec for each `(design, events,
/// events/sec)` row, labels padded to `width`; a design missing from the
/// baseline prints `new`.
fn compare_rows(base: &[ndpb_bench::json::Json], rows: &[(String, u64, f64)], width: usize) {
    for (label, events, eps) in rows {
        let Some(b) = base
            .iter()
            .find(|d| d.str_field("design") == Some(label.as_str()))
        else {
            println!("{label:<width$}{:>14}{eps:>14.0}{:>10}", "-", "new");
            continue;
        };
        let base_eps = b.f64_field("events_per_sec").unwrap_or(0.0);
        let ratio = if base_eps > 0.0 { eps / base_eps } else { 0.0 };
        print!("{label:<width$}{base_eps:>14.0}{eps:>14.0}{ratio:>9.2}x");
        match b.u64_field("events") {
            Some(be) if be != *events => println!("   EVENT-COUNT DRIFT: {be} -> {events}"),
            _ => println!(),
        }
    }
}

/// `repro audit`: fully-audited B-vs-W runs with the per-cause traffic
/// ledger broken down Figure-13-style. Every epoch boundary checks
/// message conservation, toArrive balance, dataBorrowed inclusivity,
/// ledger totals and bus sanity; any violation aborts the run, so a
/// completed table doubles as an invariant certificate.
fn audit_breakdown(o: &Opts, sw: &Sweeper) {
    println!("== Traffic ledger: per-cause DRAM data movement, B vs W (audited) ==");
    println!("(W adds work stealing over B; the ledger shows where the extra bytes");
    println!(" go — scheduled-task mail, block migration, return traffic.)\n");
    let apps = app_refs(o);
    let cols = [
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::WGather),
    ];
    let cfg = SystemConfig {
        audit: AuditLevel::Full,
        ..SystemConfig::table1()
    };
    let m = run_matrix(sw, &apps, &[cfg], &cols, o.scale);
    let groups: [(&str, &[&str]); 6] = [
        ("taskq", &["ledger/comm/taskq"]),
        (
            "mailbox",
            &[
                "ledger/comm/mail_task",
                "ledger/comm/mail_sched",
                "ledger/comm/mail_data",
                "ledger/comm/mail_return",
            ],
        ),
        ("gather", &["ledger/comm/gather"]),
        ("scatter", &["ledger/comm/scatter"]),
        (
            "host",
            &["ledger/comm/host_gather", "ledger/comm/host_scatter"],
        ),
        ("rowclone", &["ledger/comm/rowclone"]),
    ];
    let bytes = |r: &RunResult, names: &[&str]| -> u64 {
        names.iter().filter_map(|n| r.metrics.final_value(n)).sum()
    };
    print!("{:<8}{:<8}", "app", "design");
    for (g, _) in &groups {
        print!("{g:>10}");
    }
    println!("{:>10}{:>12}", "total", "makespan");
    for (i, app) in apps.iter().enumerate() {
        for (j, c) in cols.iter().enumerate() {
            let r = &m[i][j];
            print!("{:<8}{:<8}", app, c.label());
            for (_, names) in &groups {
                print!("{:>10}", bytes(r, names) >> 10);
            }
            println!(
                "{:>10}{:>10.1}us",
                r.comm_dram_bytes >> 10,
                r.makespan.as_ns() / 1000.0
            );
        }
    }
    println!("(traffic columns in KB; the ledger rows sum to `total` exactly —");
    println!(" the auditor checks that identity at every epoch)\n");
    println!("W vs B per cause (geomean bytes ratio; >1 = W moves more):");
    for (g, names) in &groups {
        let ratio = matrix_geomean(&m, |row| {
            bytes(&row[1], names).max(1) as f64 / bytes(&row[0], names).max(1) as f64
        });
        println!("  {g:<10}{ratio:>8.2}x");
    }
    let perf = matrix_geomean(&m, |row| ticks(&row[0]) / ticks(&row[1]));
    let comm = matrix_geomean(&m, |row| {
        row[1].comm_dram_bytes.max(1) as f64 / row[0].comm_dram_bytes.max(1) as f64
    });
    println!("\nW speedup over B (geomean): {perf:.2}x   W/B total comm bytes: {comm:.2}x");
    println!("auditor: zero violations (a violation would have aborted the sweep)");
}

/// `repro gather`: the gather-cost-aware stealing ablation (ROADMAP
/// item 1 / DESIGN.md §10) — a fig10-analog sweep over B, the W
/// ablation ladder (byte budget, lent preference, both) and O±GA, with
/// the per-design `ledger/comm/gather` bytes that motivated the policy.
/// The ledger rows are always registered, so no `--audit` is needed.
fn gather_aware(o: &Opts, sw: &Sweeper) {
    println!(
        "== Gather-cost-aware stealing: W ablations + O, scale {:?} ==",
        o.scale
    );
    println!("(steal batches budgeted by wire bytes; tasks for already-lent blocks");
    println!(
        " forward task-only — see DESIGN.md §10; budget {} x G_xfer per W_th)\n",
        STEAL_BUDGET_GXFER
    );
    let apps = app_refs(o);
    let cols = [
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::WByte),
        Column::Ndp(DesignPoint::WLent),
        Column::Ndp(DesignPoint::WGather),
        Column::Ndp(DesignPoint::O),
        Column::Ndp(DesignPoint::OGather),
    ];
    let m = run_matrix(sw, &apps, &[SystemConfig::table1()], &cols, o.scale);
    dump_json(o, &m);
    print!("{}", format_speedup_table(&apps, &cols, &m));
    let gather =
        |r: &RunResult| -> u64 { r.metrics.final_value("ledger/comm/gather").unwrap_or(0) };
    println!("\ngather traffic (KB; the bytes the byte budget rations):");
    print_per_app(&apps, &cols, &m, |r| format!("{:>10}", gather(r) >> 10));
    // Per-design geomean ratios vs plain W: the acceptance metric is
    // W+GA moving >= 2x fewer gather bytes at makespan no worse.
    println!("\nvs W (geomean over apps; gather <1 = fewer bytes, perf >1 = faster):");
    println!("{:<10}{:>12}{:>12}", "design", "gather", "perf");
    for (j, c) in cols.iter().enumerate() {
        if c.label() == "W" {
            continue;
        }
        let gr = matrix_geomean(&m, |row| {
            gather(&row[j]).max(1) as f64 / gather(&row[1]).max(1) as f64
        });
        let perf = matrix_geomean(&m, |row| ticks(&row[1]) / ticks(&row[j]));
        println!("{:<10}{gr:>11.3}x{perf:>11.3}x", c.label());
    }
    let wga_gather = matrix_geomean(&m, |row| {
        gather(&row[1]).max(1) as f64 / gather(&row[4]).max(1) as f64
    });
    let wga_perf = matrix_geomean(&m, |row| ticks(&row[1]) / ticks(&row[4]));
    println!(
        "\ngather reduction W+GA vs W: {wga_gather:.2}x   W+GA speedup over W: {wga_perf:.3}x"
    );
}

/// A subcommand that prints one table or figure; a figure runs its
/// points as one sweep on the given engine.
type Figure = fn(&Opts, &Sweeper);

/// Every table and figure, in `repro all` order.
const FIGURES: &[(&str, Figure)] = &[
    ("table1", |_, _| table1()),
    ("table2", |_, _| table2()),
    ("fig2", fig2),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14a", fig14a),
    ("fig14b", fig14b),
    ("fig15", fig15),
    ("fig16a", fig16a),
    ("fig16b", fig16b),
    ("fig16c", |o, sw| fig16cd(o, sw, true)),
    ("fig16d", |o, sw| fig16cd(o, sw, false)),
    ("split-dimm", split_dimm),
    ("dimm-link", dimm_link),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Flags-first invocation (`repro --trace out.json`) implies the
    // instrumented run, so tracing needs no subcommand.
    let cmd = match args.first().map(String::as_str) {
        Some(f) if f.starts_with("--") => "trace",
        Some(c) => c,
        None => "all",
    };
    let skip = usize::from(!args.first().is_none_or(|a| a.starts_with("--")));
    let o = parse_opts(&args[skip.min(args.len())..]);
    let sweeper = sweeper(&o);
    let start = Instant::now();
    match cmd {
        "trace" => traced_run(&o),
        "audit" => audit_breakdown(&o, &sweeper),
        "gather" => gather_aware(&o, &sweeper),
        "bench" => bench_engine(&o),
        "serve" => serve(&o),
        "all" => {
            for (i, (_, figure)) in FIGURES.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                figure(&o, &sweeper);
            }
        }
        name => match FIGURES.iter().find(|&&(n, _)| n == name) {
            Some((_, figure)) => figure(&o, &sweeper),
            None => usage_error(&format!("unknown subcommand {name:?}")),
        },
    }
    if let Some(summary) = sweeper.summary() {
        eprintln!("\n{summary}");
    }
    // For sweep subcommands, `--metrics-json` dumps the engine's
    // counters (cache hits/misses, per-worker progress, one snapshot
    // per sweep); the `trace` subcommand already wrote the simulation's
    // own per-epoch metrics above.
    if cmd != "trace" {
        if let Some(path) = &o.metrics_json {
            let report = sweeper.metrics().report();
            match std::fs::write(path, report.to_json()) {
                Ok(()) => eprintln!("[wrote sweep metrics to {path}]"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
    eprintln!("\n[{} completed in {:.1?}]", cmd, start.elapsed());
    if cmd == "all" {
        let (flag, file) = match o.scale {
            Scale::Full => ("--full", "docs/repro/repro_full.txt"),
            Scale::Tiny => ("--tiny", "docs/repro/repro_tiny.txt"),
            Scale::Small => ("--small", "docs/repro/repro_small.txt"),
        };
        eprintln!("[reference outputs live in docs/repro/; regenerate with:");
        eprintln!(" cargo run --release --bin repro -- all {flag} > {file}]");
    }
}
