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
//! Simulations fan out over the sweep engine: `--jobs N` bounds the
//! worker pool (default: all hardware threads) and results are merged
//! deterministically, so any `--jobs` value prints identical output.
//! Results are cached under `target/repro-cache` (override with
//! `--cache-dir`, disable with `--no-cache`); a warm rerun simulates
//! nothing — the stderr sweep summary shows the hit/miss counters.
//!
//! Absolute numbers will not match the paper (different substrate); the
//! *shape* — orderings, approximate factors, crossovers — is the
//! reproduction target. Each section prints the paper's reported
//! numbers for comparison.

use ndpb_bench::{format_speedup_table, matrix_geomean_speedup, run_matrix, Column};
use ndpb_core::audit::AuditLevel;
use ndpb_core::config::{SystemConfig, TriggerPolicy};
use ndpb_core::design::DesignPoint;
use ndpb_core::result::geomean;
use ndpb_dram::Geometry;
use ndpb_sketch::SketchConfig;
use ndpb_workloads::{Scale, APP_NAMES};

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
    /// `gather`: override `SystemConfig::steal_budget_gxfer` (`G_xfer`
    /// multiples of steal bytes per `W_th` stolen; default 2).
    steal_budget: Option<u32>,
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
    let mut scale = Scale::Small;
    let mut scale_explicit = false;
    let mut apps: Vec<String> = APP_NAMES.iter().map(|s| s.to_string()).collect();
    let mut reps = None;
    let mut quick = false;
    let mut json = None;
    let mut trace = None;
    let mut metrics_json = None;
    let mut jobs = None;
    let mut cache_dir = None;
    let mut no_cache = false;
    let mut audit = false;
    let mut steal_budget = None;
    let mut small_tier = false;
    let mut profile = false;
    let mut full_tier = false;
    let mut port = 7878u16;
    let mut max_queue = 256usize;
    let mut max_points = 64usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => (scale, scale_explicit) = (Scale::Tiny, true),
            "--small" => (scale, scale_explicit) = (Scale::Small, true),
            "--full" => (scale, scale_explicit) = (Scale::Full, true),
            "--apps" => {
                if let Some(list) = it.next() {
                    apps = list.split(',').map(str::to_string).collect();
                }
            }
            "--json" => json = it.next().cloned(),
            "--trace" => trace = it.next().cloned(),
            "--metrics-json" => metrics_json = it.next().cloned(),
            "--jobs" => {
                jobs = it.next().and_then(|v| v.parse().ok());
                if jobs.is_none() {
                    eprintln!("--jobs expects a worker count, e.g. --jobs 8");
                    std::process::exit(2);
                }
            }
            "--cache-dir" => cache_dir = it.next().cloned(),
            "--no-cache" => no_cache = true,
            "--audit" => audit = true,
            "--steal-budget" => {
                steal_budget = it.next().and_then(|v| v.parse().ok());
            }
            "--small-tier" => small_tier = true,
            "--profile" => profile = true,
            "--full-tier" => full_tier = true,
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok());
                if reps.is_none() {
                    eprintln!("--reps expects a count, e.g. --reps 5");
                    std::process::exit(2);
                }
            }
            "--quick" => quick = true,
            "--port" => {
                port = match it.next().and_then(|v| v.parse().ok()) {
                    Some(p) => p,
                    None => {
                        eprintln!("--port expects a TCP port, e.g. --port 7878");
                        std::process::exit(2);
                    }
                };
            }
            "--max-queue" => {
                max_queue = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--max-queue expects a count, e.g. --max-queue 256");
                        std::process::exit(2);
                    }
                };
            }
            "--max-points" => {
                max_points = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--max-points expects a count, e.g. --max-points 64");
                        std::process::exit(2);
                    }
                };
            }
            _ => {}
        }
    }
    Opts {
        scale,
        scale_explicit,
        apps,
        json,
        trace,
        metrics_json,
        jobs,
        cache_dir,
        no_cache,
        audit,
        steal_budget,
        small_tier,
        reps,
        quick,
        profile,
        full_tier,
        port,
        max_queue,
        max_points,
    }
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

/// Installs the process-wide sweep engine from the CLI flags. Caching
/// is on by default (`target/repro-cache`) so a rerun of an unchanged
/// figure costs file reads, not simulations; `--no-cache` forces fresh
/// simulations and `--cache-dir` relocates the store.
fn configure_sweep(o: &Opts) {
    let mut sweeper =
        ndpb_bench::Sweeper::new(o.jobs.unwrap_or_else(ndpb_bench::sweep::default_jobs));
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
    ndpb_bench::sweep::configure(sweeper);
}

/// Writes one JSON array of per-run records for a matrix (only when
/// `--json` was given).
fn dump_json(o: &Opts, matrix: &[Vec<ndpb_core::RunResult>]) {
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
    let r = ndpb_bench::run_traced(app, design, cfg, o.scale, 1 << 20);
    println!("{}", r.row());
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
        c.borrowed_region_bytes >> 20
    );
    println!(
        "Bridge SRAM  : {} kB scatter bufs, {} kB backup, {} kB mailbox, dataBorrowed {} entries",
        (c.scatter_buffer_bytes * c.geometry.units_per_rank() as u64) >> 10,
        c.backup_buffer_bytes >> 10,
        c.bridge_mailbox_bytes >> 10,
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

fn fig2(o: &Opts) {
    println!("== Figure 2: tree traversal on baseline DRAM-bank NDP (design C) ==");
    println!("paper: 32.9% wait time; large max-vs-average gap (512 units)\n");
    let m = run_matrix(
        &["tree"],
        &[Column::Ndp(DesignPoint::C)],
        SystemConfig::table1,
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

fn fig10(o: &Opts) {
    println!("== Figure 10: C / B / W / O across applications ==");
    println!("paper: B=1.51x, W=2.23x, O=2.98x over C on average; W can hurt tree\n");
    let apps = app_refs(o);
    let cols: Vec<Column> = DesignPoint::table2()
        .iter()
        .map(|&d| Column::Ndp(d))
        .collect();
    let m = run_matrix(&apps, &cols, SystemConfig::table1, o.scale);
    dump_json(o, &m);
    print!("{}", format_speedup_table(&apps, &cols, &m));
    println!("\nbalance (avg unit time / total, paper: B 22.4%, W 47.0%, O 59.0%):");
    print!("{:<8}", "app");
    for c in &cols {
        print!("{:>10}", c.label());
    }
    println!();
    for (i, app) in apps.iter().enumerate() {
        print!("{app:<8}");
        for row in &m[i][..cols.len()] {
            print!("{:>9.1}%", row.balance * 100.0);
        }
        println!();
    }
    println!("\nwait fraction of total time (paper: C large, B 1.4%, W 18.6%, O 10.0%):");
    print!("{:<8}", "app");
    for c in &cols {
        print!("{:>10}", c.label());
    }
    println!();
    for (i, app) in apps.iter().enumerate() {
        print!("{app:<8}");
        for row in &m[i][..cols.len()] {
            print!("{:>9.1}%", row.wait_fraction * 100.0);
        }
        println!();
    }
}

fn fig11(o: &Opts) {
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
    let m = run_matrix(&apps, &cols, SystemConfig::table1, o.scale);
    print!("{}", format_speedup_table(&apps, &cols, &m));
    println!(
        "\nO over H: {:.2}x   R over C: {:.2}x   B over R: {:.2}x   O over R: {:.2}x",
        matrix_geomean_speedup(&m, 4, 0),
        matrix_geomean_speedup(&m, 2, 1),
        matrix_geomean_speedup(&m, 3, 2),
        matrix_geomean_speedup(&m, 4, 2),
    );
}

fn fig12(o: &Opts) {
    println!("== Figure 12: scalability on pr, 64..1024 units ==");
    println!("paper: speedups over baselines grow with scale; O@1024 = 1.68x O@512;");
    println!("       W fails to beat B at 1024 units\n");
    let cols: Vec<Column> = DesignPoint::table2()
        .iter()
        .map(|&d| Column::Ndp(d))
        .collect();
    println!(
        "{:<8}{:>10}{:>10}{:>10}{:>10}   (makespan us; speedup vs C-at-64-units)",
        "units", "C", "B", "W", "O"
    );
    let mut base: Option<f64> = None;
    for ranks in [1u32, 2, 4, 8, 16] {
        let geom = Geometry::with_total_ranks(ranks);
        let units = geom.total_units();
        let m = run_matrix(
            &["pr"],
            &cols,
            || SystemConfig::with_geometry(Geometry::with_total_ranks(ranks)),
            o.scale,
        );
        let c0 = m[0][0].makespan.as_ns() / 1000.0;
        if base.is_none() {
            base = Some(c0);
        }
        print!("{units:<8}");
        for cell in &m[0][..4] {
            print!("{:>10.1}", cell.makespan.as_ns() / 1000.0);
        }
        println!();
    }
    let _ = base;
}

fn fig13(o: &Opts) {
    println!("== Figure 13: energy breakdown (core+SRAM / local DRAM / comm DRAM / static) ==");
    println!("paper: O reduces total energy 56.4% vs C on average\n");
    let apps = app_refs(o);
    let cols: Vec<Column> = DesignPoint::table2()
        .iter()
        .map(|&d| Column::Ndp(d))
        .collect();
    let m = run_matrix(&apps, &cols, SystemConfig::table1, o.scale);
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
    let reductions: Vec<f64> = (0..apps.len())
        .map(|i| m[i][3].energy.total_pj() / m[i][0].energy.total_pj())
        .collect();
    println!(
        "\nO total energy vs C (geomean): {:.1}% (paper: 43.6%, i.e. a 56.4% reduction)",
        geomean(&reductions) * 100.0
    );
}

fn fig14a(o: &Opts) {
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
    let m = run_matrix(&apps, &cols, SystemConfig::table1, o.scale);
    print!("{}", format_speedup_table(&apps, &cols, &m));
}

fn fig14b(o: &Opts) {
    println!("== Figure 14b: dynamic communication triggering ==");
    println!("paper: dynamic saves 29.5% access energy vs fixed I_min at -0.4% perf;");
    println!("       fixed 2*I_min loses 31% performance\n");
    let apps = app_refs(o);
    let policies = [
        ("dynamic", TriggerPolicy::Dynamic),
        ("I_min", TriggerPolicy::FixedIMin),
        ("2*I_min", TriggerPolicy::Fixed2IMin),
    ];
    let mut results = Vec::new();
    for (label, pol) in policies {
        let m = run_matrix(
            &app_refs(o),
            &[Column::Ndp(DesignPoint::O)],
            move || {
                let mut c = SystemConfig::table1();
                c.trigger = pol;
                c
            },
            o.scale,
        );
        results.push((label, m));
    }
    println!(
        "{:<10}{:>14}{:>18}{:>16}",
        "trigger", "perf vs dyn", "comm energy", "wasted gathers"
    );
    let dyn_m = &results[0].1;
    for (label, m) in &results {
        let perf: Vec<f64> = (0..apps.len())
            .map(|i| dyn_m[i][0].makespan.ticks() as f64 / m[i][0].makespan.ticks() as f64)
            .collect();
        let energy: Vec<f64> = (0..apps.len())
            .map(|i| m[i][0].energy.dram_comm_pj / dyn_m[i][0].energy.dram_comm_pj.max(1.0))
            .collect();
        let wasted: u64 = (0..apps.len()).map(|i| m[i][0].comm_dram_bytes).sum();
        println!(
            "{:<10}{:>13.2}x{:>17.1}%{:>16}",
            label,
            geomean(&perf),
            geomean(&energy) * 100.0,
            wasted / 1024,
        );
    }
}

fn fig15(o: &Opts) {
    println!("== Figure 15: chip DQ widths x4 / x8 / x16 ==");
    println!("paper: O = 3.26x/2.98x/2.58x over C; B gains most at x4 (2.33x),");
    println!("       LB gains most at x16 (W 1.79x, O 2.3x over B)\n");
    let apps = app_refs(o);
    let cols: Vec<Column> = DesignPoint::table2()
        .iter()
        .map(|&d| Column::Ndp(d))
        .collect();
    for dq in [4u32, 8, 16] {
        let m = run_matrix(
            &apps,
            &cols,
            move || SystemConfig::with_geometry(Geometry::with_dq_bits(dq)),
            o.scale,
        );
        println!(
            "x{dq:<3} B/C {:>5.2}x  W/C {:>5.2}x  O/C {:>5.2}x  |  W/B {:>5.2}x  O/B {:>5.2}x",
            matrix_geomean_speedup(&m, 1, 0),
            matrix_geomean_speedup(&m, 2, 0),
            matrix_geomean_speedup(&m, 3, 0),
            matrix_geomean_speedup(&m, 2, 1),
            matrix_geomean_speedup(&m, 3, 1),
        );
    }
}

fn fig16a(o: &Opts) {
    println!("== Figure 16a: G_xfer x metadata-size sweep (design O) ==");
    println!("paper: 256 B is the sweet spot; 64 B needs 4x metadata to win\n");
    let apps = app_refs(o);
    println!(
        "{:<10}{:>12}{:>12}{:>12}   (geomean makespan vs 256B/1x)",
        "G_xfer", "1/4x meta", "1x meta", "4x meta"
    );
    let mut baseline: Option<f64> = None;
    let mut rows = Vec::new();
    for gx in [64u32, 256, 1024] {
        let mut row = Vec::new();
        for meta in [0.25f64, 1.0, 4.0] {
            let m = run_matrix(
                &apps,
                &[Column::Ndp(DesignPoint::O)],
                move || {
                    let mut c = SystemConfig::table1().scale_metadata(meta);
                    c.g_xfer = gx;
                    c
                },
                o.scale,
            );
            let g = geomean(
                &(0..apps.len())
                    .map(|i| m[i][0].makespan.ticks() as f64)
                    .collect::<Vec<_>>(),
            );
            if gx == 256 && meta == 1.0 {
                baseline = Some(g);
            }
            row.push(g);
        }
        rows.push((gx, row));
    }
    let base = baseline.expect("256/1x in sweep");
    for (gx, row) in rows {
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

fn fig16b(o: &Opts) {
    println!("== Figure 16b: I_state sweep (design O) ==");
    println!("paper: 2000 cycles retains performance\n");
    let apps = app_refs(o);
    let base = run_matrix(
        &apps,
        &[Column::Ndp(DesignPoint::O)],
        SystemConfig::table1,
        o.scale,
    );
    for i_state in [500u64, 1000, 2000, 4000, 8000] {
        let m = run_matrix(
            &apps,
            &[Column::Ndp(DesignPoint::O)],
            move || {
                let mut c = SystemConfig::table1();
                c.i_state_cycles = i_state;
                c
            },
            o.scale,
        );
        let rel: Vec<f64> = (0..apps.len())
            .map(|i| base[i][0].makespan.ticks() as f64 / m[i][0].makespan.ticks() as f64)
            .collect();
        println!(
            "I_state={i_state:<6} perf vs 2000-cycle default: {:.3}x",
            geomean(&rel)
        );
    }
}

fn fig16cd(o: &Opts, buckets: bool) {
    let (name, what) = if buckets {
        ("fig16c", "sketch bucket count")
    } else {
        ("fig16d", "sketch entries per bucket")
    };
    println!("== Figure {name}: {what} sweep (design O) ==");
    println!("paper: the 16x16 default is sufficient\n");
    let apps = app_refs(o);
    let base = run_matrix(
        &apps,
        &[Column::Ndp(DesignPoint::O)],
        SystemConfig::table1,
        o.scale,
    );
    for k in [4usize, 8, 16, 32] {
        let m = run_matrix(
            &apps,
            &[Column::Ndp(DesignPoint::O)],
            move || {
                let mut c = SystemConfig::table1();
                c.sketch = if buckets {
                    SketchConfig::with_geometry(k, 16)
                } else {
                    SketchConfig::with_geometry(16, k)
                };
                c
            },
            o.scale,
        );
        let rel: Vec<f64> = (0..apps.len())
            .map(|i| base[i][0].makespan.ticks() as f64 / m[i][0].makespan.ticks() as f64)
            .collect();
        println!("{what} = {k:<4} perf vs default: {:.3}x", geomean(&rel));
    }
}

fn split_dimm(o: &Opts) {
    println!("== Section VIII-A: split DIMM buffers (chameleon-s) ==");
    println!("paper: 9.1% performance degradation, 35.3% more wait time\n");
    let apps = app_refs(o);
    let unified = run_matrix(
        &apps,
        &[Column::Ndp(DesignPoint::O)],
        SystemConfig::table1,
        o.scale,
    );
    let split = run_matrix(
        &apps,
        &[Column::Ndp(DesignPoint::O)],
        || SystemConfig::with_geometry(Geometry::split_dimm_buffer()),
        o.scale,
    );
    let perf: Vec<f64> = (0..apps.len())
        .map(|i| split[i][0].makespan.ticks() as f64 / unified[i][0].makespan.ticks() as f64)
        .collect();
    let waits: Vec<f64> = (0..apps.len())
        .map(|i| (split[i][0].wait_fraction + 1e-9) / (unified[i][0].wait_fraction + 1e-9))
        .collect();
    println!(
        "split-DIMM slowdown: {:.1}% (geomean)   wait-time ratio: {:.2}x",
        (geomean(&perf) - 1.0) * 100.0,
        geomean(&waits)
    );
}

fn dimm_link(o: &Opts) {
    println!("== Extension: NDPBridge + DIMM-Link cross-rank links ==");
    println!("(Section V-A: NDPBridge is orthogonal to and can work in tandem");
    println!(" with DIMM-Link; the paper's evaluation uses plain DDR channels.)\n");
    let apps = app_refs(o);
    let base = run_matrix(
        &apps,
        &[Column::Ndp(DesignPoint::O)],
        SystemConfig::table1,
        o.scale,
    );
    let linked = run_matrix(
        &apps,
        &[Column::Ndp(DesignPoint::O)],
        || SystemConfig::table1().with_dimm_link(),
        o.scale,
    );
    println!(
        "{:<8}{:>12}{:>14}{:>14}",
        "app", "speedup", "chan KB", "chan KB+link"
    );
    let mut sp = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let s = linked[i][0].speedup_over(&base[i][0]);
        sp.push(s);
        println!(
            "{:<8}{:>11.2}x{:>14}{:>14}",
            app,
            s,
            base[i][0].channel_bytes / 1024,
            linked[i][0].channel_bytes / 1024,
        );
    }
    println!("geomean {:>11.2}x", geomean(&sp));
}

/// `repro bench`: wall-clock benchmark of the simulation engine itself.
///
/// Runs the fig10-style sweep (all apps × the six golden-column
/// designs C/B/W/O/H/R) `reps` times per design — sequentially,
/// bypassing the result cache so every run is a real simulation — and
/// reports the median wall seconds and events/sec per design. Writes
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
        "== engine bench: {} apps x {} designs, {} rep(s), scale {:?} ==",
        apps.len(),
        cols.len(),
        reps,
        scale
    );
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
    let mut events: Vec<u64> = vec![0; cols.len()];
    for rep in 0..reps {
        for (ci, col) in cols.iter().enumerate() {
            let start = std::time::Instant::now();
            let mut ev = 0u64;
            for app in &apps {
                let r = match col {
                    Column::Ndp(d) => ndpb_bench::run_one(app, *d, SystemConfig::table1(), scale),
                    Column::Host => ndpb_bench::run_host(app, SystemConfig::table1(), scale),
                };
                ev += r.events;
            }
            walls[ci].push(start.elapsed().as_secs_f64());
            // Simulations are deterministic: the event count per design
            // must not vary across reps.
            if rep == 0 {
                events[ci] = ev;
            } else {
                assert_eq!(events[ci], ev, "nondeterministic event count for {col:?}");
            }
        }
    }
    println!(
        "\n{:<8}{:>12}{:>14}{:>16}",
        "design", "events", "median s", "events/sec"
    );
    let mut rows = Vec::new();
    let mut stat_rows: Vec<(String, u64, f64)> = Vec::new();
    let mut total_events = 0u64;
    let mut total_median = 0.0;
    for (ci, col) in cols.iter().enumerate() {
        let med = ndpb_bench::timing::median(&walls[ci]);
        let eps = if med > 0.0 {
            events[ci] as f64 / med
        } else {
            0.0
        };
        println!(
            "{:<8}{:>12}{:>14.4}{:>16.0}",
            col.label(),
            events[ci],
            med,
            eps
        );
        total_events += events[ci];
        total_median += med;
        stat_rows.push((col.label(), events[ci], eps));
        let wall_list = walls[ci]
            .iter()
            .map(|w| format!("{w:.6}"))
            .collect::<Vec<_>>()
            .join(",");
        rows.push(format!(
            "{{\"design\":\"{}\",\"events\":{},\"wall_seconds\":[{}],\"median_wall_seconds\":{:.6},\"events_per_sec\":{:.1}}}",
            col.label(),
            events[ci],
            wall_list,
            med,
            eps
        ));
    }
    let total_eps = if total_median > 0.0 {
        total_events as f64 / total_median
    } else {
        0.0
    };
    println!(
        "{:<8}{:>12}{:>14.4}{:>16.0}",
        "total", total_events, total_median, total_eps
    );
    // --small-tier: the Small-scale gather-traffic tier (ROADMAP item
    // 1 acceptance: W+GA moves >= 2x fewer gather bytes than W with
    // makespan no worse). One pass per design — the numbers recorded
    // are deterministic byte counts and makespans, not wall times.
    let mut small_tier_json = String::new();
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
        if let Ok(text) = std::fs::read_to_string("docs/repro/BENCH_repro.json") {
            if let Ok(base) = ndpb_bench::json::Json::parse(&text) {
                if let Some(br) = base
                    .get("small_tier")
                    .and_then(|t| t.get("gather_reduction_x"))
                    .and_then(|v| v.as_f64())
                {
                    println!(
                        "[baseline small-tier gather reduction {br:.2}x, this run {reduction:.2}x]"
                    );
                }
            }
        }
        small_tier_json = format!(
            "\"small_tier\":{{\"scale\":\"Small\",\"designs\":[\n{}\n],\"gather_reduction_x\":{reduction:.3},\"speedup_x\":{perf:.4}}},",
            tier_rows.join(",\n")
        );
    }
    // --profile: one extra profiled pass per design, run *after* the
    // timing reps so the profiler's clock reads never contaminate the
    // medians above. Attribution: queue ops vs. handler dispatch vs.
    // finalize, plus the same-tick run-length histogram that shows what
    // batched dispatch is fusing (DESIGN.md §3c).
    let mut profile_rows: Vec<(String, ndpb_core::result::ProfileStats)> = Vec::new();
    let mut profile_json = String::new();
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
        profile_json = format!("\"profile\":[\n{}\n],", agg_rows.join(",\n"));
    }
    // --full-tier: the first Scale::Full per-design tier. Full runs
    // cost minutes, not milliseconds, so the rep count is budgeted
    // (default 1 with --quick, else 2) — the numbers are a trajectory
    // marker, not a micro-benchmark.
    let mut full_rows: Vec<(String, u64, f64)> = Vec::new();
    let mut full_json = String::new();
    if o.full_tier {
        let full_reps = if o.quick { 1 } else { 2 };
        println!(
            "\n== Full tier: {} apps x {} designs, {} rep(s), scale Full ==",
            apps.len(),
            cols.len(),
            full_reps
        );
        let mut fwalls: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
        let mut fevents: Vec<u64> = vec![0; cols.len()];
        for rep in 0..full_reps {
            for (ci, col) in cols.iter().enumerate() {
                let start = std::time::Instant::now();
                let mut ev = 0u64;
                for app in &apps {
                    let r = match col {
                        Column::Ndp(d) => {
                            ndpb_bench::run_one(app, *d, SystemConfig::table1(), Scale::Full)
                        }
                        Column::Host => {
                            ndpb_bench::run_host(app, SystemConfig::table1(), Scale::Full)
                        }
                    };
                    ev += r.events;
                }
                fwalls[ci].push(start.elapsed().as_secs_f64());
                if rep == 0 {
                    fevents[ci] = ev;
                } else {
                    assert_eq!(fevents[ci], ev, "nondeterministic event count for {col:?}");
                }
            }
        }
        println!(
            "{:<8}{:>12}{:>14}{:>16}",
            "design", "events", "median s", "events/sec"
        );
        let mut frows = Vec::new();
        let (mut ftotal_events, mut ftotal_median) = (0u64, 0.0f64);
        for (ci, col) in cols.iter().enumerate() {
            let med = ndpb_bench::timing::median(&fwalls[ci]);
            let eps = if med > 0.0 {
                fevents[ci] as f64 / med
            } else {
                0.0
            };
            println!(
                "{:<8}{:>12}{:>14.4}{:>16.0}",
                col.label(),
                fevents[ci],
                med,
                eps
            );
            ftotal_events += fevents[ci];
            ftotal_median += med;
            full_rows.push((col.label(), fevents[ci], eps));
            frows.push(format!(
                "{{\"design\":\"{}\",\"events\":{},\"median_wall_seconds\":{:.6},\"events_per_sec\":{:.1}}}",
                col.label(),
                fevents[ci],
                med,
                eps
            ));
        }
        let ftotal_eps = if ftotal_median > 0.0 {
            ftotal_events as f64 / ftotal_median
        } else {
            0.0
        };
        println!(
            "{:<8}{:>12}{:>14.4}{:>16.0}",
            "total", ftotal_events, ftotal_median, ftotal_eps
        );
        full_json = format!(
            "\"full_tier\":{{\"scale\":\"Full\",\"reps\":{full_reps},\"designs\":[\n{}\n],\"total_events\":{ftotal_events},\"total_median_wall_seconds\":{ftotal_median:.6},\"total_events_per_sec\":{ftotal_eps:.1}}},",
            frows.join(",\n")
        );
    }
    // Recorded so a throughput delta is only read against a baseline
    // taken on a comparable host.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body = format!(
        "{{\"bench\":\"fig10\",\"scale\":\"{:?}\",\"reps\":{},\"host_parallelism\":{host_parallelism},\"apps\":[{}],\"designs\":[\n{}\n],{}{}{}\"total_events\":{},\"total_median_wall_seconds\":{:.6},\"total_events_per_sec\":{:.1}}}\n",
        scale,
        reps,
        apps.iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(","),
        rows.join(",\n"),
        small_tier_json,
        profile_json,
        full_json,
        total_events,
        total_median,
        total_eps
    );
    let path = o.json.as_deref().unwrap_or("BENCH_repro.json");
    match std::fs::write(path, &body) {
        Ok(()) => eprintln!("[wrote {path}]"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    print_baseline_delta(&stat_rows, scale, &profile_rows, &full_rows);
}

/// Compares a `repro bench` run against the committed baseline in
/// `docs/repro/BENCH_repro.json`, when one exists. Throughput ratios
/// are informational (machines differ); event-count drift is called
/// out loudly because the simulator is deterministic — a changed count
/// means changed behaviour, not noise.
fn print_baseline_delta(
    rows: &[(String, u64, f64)],
    scale: Scale,
    profile_rows: &[(String, ndpb_core::result::ProfileStats)],
    full_rows: &[(String, u64, f64)],
) {
    let path = std::path::Path::new("docs/repro/BENCH_repro.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let Ok(base) = ndpb_bench::json::Json::parse(&text) else {
        eprintln!(
            "[baseline {} is not valid JSON; skipping delta]",
            path.display()
        );
        return;
    };
    let base_scale = base.str_field("scale").unwrap_or("?");
    if base_scale != format!("{scale:?}") {
        eprintln!(
            "[baseline {} is scale {base_scale}, this run is {scale:?}; skipping delta]",
            path.display()
        );
        return;
    }
    let Some(designs) = base.get("designs").and_then(|d| d.as_arr()) else {
        return;
    };
    println!(
        "\nvs committed baseline ({}, reps={}):",
        path.display(),
        base.u64_field("reps").unwrap_or(0)
    );
    println!(
        "{:<8}{:>14}{:>14}{:>10}",
        "design", "base ev/s", "now ev/s", "ratio"
    );
    for (label, events, eps) in rows {
        let Some(b) = designs
            .iter()
            .find(|d| d.str_field("design") == Some(label.as_str()))
        else {
            println!("{label:<8}{:>14}{:>14.0}{:>10}", "-", eps, "new");
            continue;
        };
        let base_eps = b
            .get("events_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let ratio = if base_eps > 0.0 { eps / base_eps } else { 0.0 };
        print!("{label:<8}{base_eps:>14.0}{eps:>14.0}{ratio:>9.2}x");
        match b.u64_field("events") {
            Some(be) if be != *events => {
                println!("   EVENT-COUNT DRIFT: {be} -> {events}");
            }
            _ => println!(),
        }
    }
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
            for (label, events, eps) in full_rows {
                let Some(b) = base_full
                    .iter()
                    .find(|d| d.str_field("design") == Some(label.as_str()))
                else {
                    continue;
                };
                let base_eps = b
                    .get("events_per_sec")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                let ratio = if base_eps > 0.0 { eps / base_eps } else { 0.0 };
                print!("{label:<31}{base_eps:>14.0}{eps:>14.0}{ratio:>9.2}x");
                match b.u64_field("events") {
                    Some(be) if be != *events => {
                        println!("   EVENT-COUNT DRIFT: {be} -> {events}");
                    }
                    _ => println!(),
                }
            }
        }
    }
}

/// `repro audit`: fully-audited B-vs-W runs with the per-cause traffic
/// ledger broken down Figure-13-style. Every epoch boundary checks
/// message conservation, toArrive balance, dataBorrowed inclusivity,
/// ledger totals and bus sanity; any violation aborts the run, so a
/// completed table doubles as an invariant certificate.
fn audit_breakdown(o: &Opts) {
    println!("== Traffic ledger: per-cause DRAM data movement, B vs W (audited) ==");
    println!("(W adds work stealing over B; the ledger shows where the extra bytes");
    println!(" go — scheduled-task mail, block migration, return traffic.)\n");
    let apps = app_refs(o);
    let cols = [
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::WGather),
    ];
    let m = run_matrix(
        &apps,
        &cols,
        || {
            let mut c = SystemConfig::table1();
            c.audit = AuditLevel::Full;
            c
        },
        o.scale,
    );
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
    let bytes = |r: &ndpb_core::RunResult, names: &[&str]| -> u64 {
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
        let ratios: Vec<f64> = (0..apps.len())
            .map(|i| bytes(&m[i][1], names).max(1) as f64 / bytes(&m[i][0], names).max(1) as f64)
            .collect();
        println!("  {g:<10}{:>8.2}x", geomean(&ratios));
    }
    let perf: Vec<f64> = (0..apps.len())
        .map(|i| m[i][0].makespan.ticks() as f64 / m[i][1].makespan.ticks() as f64)
        .collect();
    let comm: Vec<f64> = (0..apps.len())
        .map(|i| m[i][1].comm_dram_bytes.max(1) as f64 / m[i][0].comm_dram_bytes.max(1) as f64)
        .collect();
    println!(
        "\nW speedup over B (geomean): {:.2}x   W/B total comm bytes: {:.2}x",
        geomean(&perf),
        geomean(&comm)
    );
    println!("auditor: zero violations (a violation would have aborted the sweep)");
}

/// `repro gather`: the gather-cost-aware stealing ablation (ROADMAP
/// item 1 / DESIGN.md §10) — a fig10-analog sweep over B, the W
/// ablation ladder (byte budget, lent preference, both) and O±GA, with
/// the per-design `ledger/comm/gather` bytes that motivated the policy.
/// The ledger rows are always registered, so no `--audit` is needed.
fn gather_aware(o: &Opts) {
    println!(
        "== Gather-cost-aware stealing: W ablations + O, scale {:?} ==",
        o.scale
    );
    println!("(steal batches budgeted by wire bytes; tasks for already-lent blocks");
    println!(
        " forward task-only — see DESIGN.md §10; budget {} x G_xfer per W_th)\n",
        o.steal_budget
            .unwrap_or_else(|| SystemConfig::table1().steal_budget_gxfer)
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
    let steal_budget = o.steal_budget;
    let m = run_matrix(
        &apps,
        &cols,
        move || {
            let mut c = SystemConfig::table1();
            if let Some(b) = steal_budget {
                c.steal_budget_gxfer = b;
            }
            c
        },
        o.scale,
    );
    dump_json(o, &m);
    print!("{}", format_speedup_table(&apps, &cols, &m));
    let gather = |r: &ndpb_core::RunResult| -> u64 {
        r.metrics.final_value("ledger/comm/gather").unwrap_or(0)
    };
    println!("\ngather traffic (KB; the bytes the byte budget rations):");
    print!("{:<8}", "app");
    for c in &cols {
        print!("{:>10}", c.label());
    }
    println!();
    for (i, app) in apps.iter().enumerate() {
        print!("{app:<8}");
        for cell in &m[i][..cols.len()] {
            print!("{:>10}", gather(cell) >> 10);
        }
        println!();
    }
    // Per-design geomean ratios vs plain W: the acceptance metric is
    // W+GA moving >= 2x fewer gather bytes at makespan no worse.
    println!("\nvs W (geomean over apps; gather <1 = fewer bytes, perf >1 = faster):");
    println!("{:<10}{:>12}{:>12}", "design", "gather", "perf");
    for (j, c) in cols.iter().enumerate() {
        if c.label() == "W" {
            continue;
        }
        let gr: Vec<f64> = (0..apps.len())
            .map(|i| gather(&m[i][j]).max(1) as f64 / gather(&m[i][1]).max(1) as f64)
            .collect();
        let perf: Vec<f64> = (0..apps.len())
            .map(|i| m[i][1].makespan.ticks() as f64 / m[i][j].makespan.ticks() as f64)
            .collect();
        println!(
            "{:<10}{:>11.3}x{:>11.3}x",
            c.label(),
            geomean(&gr),
            geomean(&perf)
        );
    }
    let wga_gather: Vec<f64> = (0..apps.len())
        .map(|i| gather(&m[i][1]).max(1) as f64 / gather(&m[i][4]).max(1) as f64)
        .collect();
    let wga_perf: Vec<f64> = (0..apps.len())
        .map(|i| m[i][1].makespan.ticks() as f64 / m[i][4].makespan.ticks() as f64)
        .collect();
    println!(
        "\ngather reduction W+GA vs W: {:.2}x   W+GA speedup over W: {:.3}x",
        geomean(&wga_gather),
        geomean(&wga_perf)
    );
}

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
    configure_sweep(&o);
    let start = std::time::Instant::now();
    match cmd {
        "trace" => traced_run(&o),
        "table1" => table1(),
        "table2" => table2(),
        "fig2" => fig2(&o),
        "fig10" => fig10(&o),
        "fig11" => fig11(&o),
        "fig12" => fig12(&o),
        "fig13" => fig13(&o),
        "fig14a" => fig14a(&o),
        "fig14b" => fig14b(&o),
        "fig15" => fig15(&o),
        "fig16a" => fig16a(&o),
        "fig16b" => fig16b(&o),
        "fig16c" => fig16cd(&o, true),
        "fig16d" => fig16cd(&o, false),
        "split-dimm" => split_dimm(&o),
        "dimm-link" => dimm_link(&o),
        "audit" => audit_breakdown(&o),
        "gather" => gather_aware(&o),
        "bench" => bench_engine(&o),
        "serve" => serve(&o),
        "all" => {
            table1();
            println!();
            table2();
            for f in [
                fig2 as fn(&Opts),
                fig10,
                fig11,
                fig12,
                fig13,
                fig14a,
                fig14b,
                fig15,
                fig16a,
                fig16b,
            ] {
                println!();
                f(&o);
            }
            println!();
            fig16cd(&o, true);
            println!();
            fig16cd(&o, false);
            println!();
            split_dimm(&o);
            println!();
            dimm_link(&o);
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            eprintln!("usage: repro <table1|table2|fig2|fig10|fig11|fig12|fig13|fig14a|fig14b|fig15|fig16a|fig16b|fig16c|fig16d|split-dimm|dimm-link|audit|gather|bench|serve|trace|all> [--tiny|--small|--full] [--apps a,b,c] [--jobs N] [--cache-dir path] [--no-cache] [--audit] [--steal-budget N] [--json path] [--trace path] [--metrics-json path] [--reps N] [--quick] [--small-tier] [--profile] [--full-tier] [--port N] [--max-queue N] [--max-points N]");
            std::process::exit(2);
        }
    }
    let engine = ndpb_bench::sweep::global();
    if let Some(summary) = engine.summary() {
        eprintln!("\n{summary}");
    }
    // For sweep subcommands, `--metrics-json` dumps the engine's
    // counters (cache hits/misses, per-worker progress, one snapshot
    // per sweep); the `trace` subcommand already wrote the simulation's
    // own per-epoch metrics above.
    if cmd != "trace" {
        if let Some(path) = &o.metrics_json {
            let report = engine.metrics().report();
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
            _ => ("--small", "docs/repro/repro_small.txt"),
        };
        eprintln!("[reference outputs live in docs/repro/; regenerate with:");
        eprintln!(" cargo run --release --bin repro -- all {flag} > {file}]");
    }
}
