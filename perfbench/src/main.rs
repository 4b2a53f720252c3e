//! The repository benchmark. Its workloads run through the public
//! entry points of `ndpb-workloads` and `ndpb-core`; the traced
//! `tiny-sweep` run also drives the shipped `repro serve` through
//! `ndpb-serve` and `ndpb-bench`. Each run checks its outputs; a timed
//! run prints the end-to-end metrics, a separate traced run the
//! per-layer ones.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--repro PATH] [--work-dir DIR]
//! ```
//!
//! `BENCHMARK.json` at the repository root names the workloads and the
//! metrics, with their units, in the order they are printed.
//! `perfbench/run.py` builds this binary and `repro` and runs it; see
//! `perfbench/README.md`. The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

mod batch;
mod host;
mod refs;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use ndpb_bench::json::Json;

/// A metric's name and unit, as `BENCHMARK.json` lists it.
#[derive(Debug)]
pub struct Metric {
    name: String,
    unit: String,
}

/// The parts of `BENCHMARK.json` the harness follows.
#[derive(Debug)]
pub struct Spec {
    /// Workload names, in order.
    workloads: Vec<String>,
    /// Printed by every timed run.
    end_to_end: Vec<Metric>,
    /// Printed by every traced run (zero where the workload does not
    /// reach the layer).
    per_layer: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("no {key} list"))
        };
        let field = |j: &Json, key: &str| {
            j.str_field(key)
                .map(str::to_string)
                .ok_or(format!("an entry without a {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

/// `BENCHMARK.json`, read once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid")
    })
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: datasets and system seed of every simulated
    /// point, and the request key stream of the service session.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// The `repro` binary the service session drives.
    pub repro: PathBuf,
    /// Scratch directory for server caches, logs and span files.
    pub work_dir: PathBuf,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (simulation points or requests).
    pub attempted: u64,
    /// Operations that failed a check, panicked, were refused or never
    /// finished.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Host noise over the measured interval.
    pub noise: host::Noise,
}

impl Report {
    /// Sets metric `name`, which `BENCHMARK.json` must list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec().metrics().any(|m| m.name == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Counts one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every metric of `table`.
    fn result_line(&self, table: &[Metric]) -> String {
        let mut metrics = String::new();
        for (i, Metric { name, unit }) in table.iter().enumerate() {
            let v = value(&self.values, name);
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(metrics, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
        )
    }
}

/// A metric's value for printing: zero when the run did not reach the
/// layer (or the value is not finite), and never `-0`.
fn value(values: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    match values.get(name) {
        Some(&v) if v.is_finite() => v + 0.0,
        _ => 0.0,
    }
}

fn parse_args() -> Result<Opts, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let mut o = Opts {
        workload: String::new(),
        seed: refs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        repro: target.join("release").join("repro"),
        work_dir: target.join("perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repro" => o.repro = value()?.into(),
            "--work-dir" => o.work_dir = value()?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec().workloads.contains(&o.workload) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            spec().workloads.join(", "),
            o.workload
        ));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = opts.trace.then(spans::Tracer::new);
    println!(
        "== {} seed {} for {} s, {} run ==",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "timed" }
    );
    let Some(workload) = batch::by_name(&opts.workload) else {
        eprintln!(
            "perfbench: BENCHMARK.json names {:?}, which this harness lacks",
            opts.workload
        );
        return ExitCode::FAILURE;
    };
    let report = match tracer.as_mut() {
        // The traced tiny-sweep run also carries the service session,
        // so the `serve.*`, `result.*` and `cache.*` layers are measured
        // on a workload the benchmark keeps: half the budget each.
        Some(t) if opts.workload == "tiny-sweep" => {
            let half = Opts {
                seconds: opts.seconds / 2.0,
                ..opts.clone()
            };
            let mut rep = batch::run(&workload, &half, Some(&mut *t));
            serve::session(&half, t, &mut rep).map(|()| rep)
        }
        t => Ok(batch::run(&workload, &opts, t)),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tracer {
        let path = opts
            .work_dir
            .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
        match t.write_chrome(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let table = if opts.trace {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    for Metric { name, unit } in table {
        let v = value(&report.values, name);
        println!("{name:<28} {v:>16.6} {unit}");
    }
    println!("host {}", report.noise.record(opts.seed));
    println!(
        "operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{}", report.result_line(table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_exists() {
        assert!(spec().workloads.len() >= 2);
        for w in &spec().workloads {
            assert!(batch::by_name(w).is_some(), "no workload {w}");
        }
        assert!(spec().metrics().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut r = Report::default();
        r.op(true);
        r.set("wall_s", 1.25);
        let line = Json::parse(&r.result_line(&spec().end_to_end)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let m = line.get("metrics").expect("metrics");
        for Metric { name, unit } in &spec().end_to_end {
            assert_eq!(
                m.get(name).and_then(|v| v.str_field("unit")),
                Some(unit.as_str())
            );
        }
        assert_eq!(
            m.get("wall_s").and_then(|v| v.f64_field("value")),
            Some(1.25)
        );
        r.op(false);
        let traced = Json::parse(&r.result_line(&spec().per_layer)).expect("valid JSON");
        assert_eq!(traced.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(traced.u64_field("failed"), Some(1));
        let m = traced.get("metrics").expect("metrics");
        assert!(spec().per_layer.iter().all(|x| m.get(&x.name).is_some()));
    }
}
