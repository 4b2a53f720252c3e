//! The job subsystem: typed requests, admission control, and the
//! dedup/fan-out layer between HTTP handlers and the sweep pool.
//!
//! A request names one or more (app × design) cells at one scale; each
//! cell becomes a [`SweepPoint`] whose content-addressed key (the same
//! key the on-disk cache uses) also identifies it for *in-flight
//! deduplication*: all concurrently submitted requests for one key
//! share a single [`PointCell`], the simulation runs exactly once, and
//! the result fans back out to every waiter. Keys whose result is
//! already on disk are served straight from the cache and never touch
//! the pool.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use ndpb_bench::json::Json;
use ndpb_bench::{Column, SweepPoint};
use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_workloads::{Scale, APP_NAMES, EXTRA_APP_NAMES};

/// A typed `/run` request: the cross product `apps × designs` at one
/// scale, with an optional audit-level override.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Application names (validated against the workload registry).
    pub apps: Vec<String>,
    /// Design columns.
    pub columns: Vec<Column>,
    /// Workload scale (defaults to `tiny`).
    pub scale: Scale,
    /// Audit override; `None` keeps the config default.
    pub audit: Option<AuditLevel>,
}

fn parse_column(s: &str) -> Option<Column> {
    // Labels match `Column::label()` / the CLI tables; lowercase
    // aliases are accepted for hand-typed curl bodies.
    Some(match s.to_ascii_uppercase().as_str() {
        "C" => Column::Ndp(DesignPoint::C),
        "B" => Column::Ndp(DesignPoint::B),
        "W" => Column::Ndp(DesignPoint::W),
        "O" => Column::Ndp(DesignPoint::O),
        "R" => Column::Ndp(DesignPoint::R),
        "W+ADV" => Column::Ndp(DesignPoint::WAdv),
        "W+FINE" => Column::Ndp(DesignPoint::WFine),
        "W+HOT" => Column::Ndp(DesignPoint::WHot),
        "W+BYTE" => Column::Ndp(DesignPoint::WByte),
        "W+LENT" => Column::Ndp(DesignPoint::WLent),
        "W+GA" => Column::Ndp(DesignPoint::WGather),
        "O+GA" => Column::Ndp(DesignPoint::OGather),
        "H" => Column::Host,
        _ => return None,
    })
}

fn parse_scale(s: &str) -> Option<Scale> {
    Some(match s.to_ascii_lowercase().as_str() {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "full" => Scale::Full,
        _ => return None,
    })
}

fn parse_audit(s: &str) -> Option<AuditLevel> {
    Some(match s.to_ascii_lowercase().as_str() {
        "off" => AuditLevel::Off,
        "final" => AuditLevel::Final,
        "full" => AuditLevel::Full,
        _ => return None,
    })
}

fn known_app(name: &str) -> bool {
    APP_NAMES
        .iter()
        .chain(EXTRA_APP_NAMES.iter())
        .any(|&a| a == name)
}

/// One-or-many string field: `"app": "ll"` or `"apps": ["ll","pr"]`.
fn string_list(j: &Json, one: &str, many: &str) -> Result<Option<Vec<String>>, String> {
    if let Some(v) = j.get(many) {
        let arr = v
            .as_arr()
            .ok_or_else(|| format!("{many:?} must be an array"))?;
        let items = arr
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or_else(|| format!("{many:?} must be an array of strings"))?;
        if items.is_empty() {
            return Err(format!("{many:?} must not be empty"));
        }
        return Ok(Some(items));
    }
    if let Some(v) = j.get(one) {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{one:?} must be a string"))?;
        return Ok(Some(vec![s.to_string()]));
    }
    Ok(None)
}

impl RunRequest {
    /// Parses the JSON body of `POST /run`. Errors are returned as
    /// plain-text messages suitable for a 400 body.
    pub fn parse(body: &str) -> Result<RunRequest, String> {
        let j = Json::parse(body).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let apps = string_list(&j, "app", "apps")?
            .ok_or_else(|| "missing \"app\" (or \"apps\")".to_string())?;
        for a in &apps {
            if !known_app(a) {
                return Err(format!("unknown app {a:?}"));
            }
        }
        let columns = match string_list(&j, "design", "designs")? {
            Some(labels) => labels
                .iter()
                .map(|l| parse_column(l).ok_or_else(|| format!("unknown design {l:?}")))
                .collect::<Result<Vec<Column>, String>>()?,
            None => vec![Column::Ndp(DesignPoint::O)],
        };
        let scale = match j.get("scale") {
            Some(v) => {
                let s = v.as_str().ok_or("\"scale\" must be a string")?;
                parse_scale(s).ok_or_else(|| format!("unknown scale {s:?}"))?
            }
            None => Scale::Tiny,
        };
        let audit = match j.get("audit") {
            Some(v) => {
                let s = v.as_str().ok_or("\"audit\" must be a string")?;
                Some(parse_audit(s).ok_or_else(|| format!("unknown audit level {s:?}"))?)
            }
            None => None,
        };
        Ok(RunRequest {
            apps,
            columns,
            scale,
            audit,
        })
    }

    /// Expands the request into sweep points, apps-major like the CLI's
    /// `run_matrix`. Every point uses the paper's Table-1 configuration
    /// — the same one the CLI figures run — so service results are
    /// byte-identical to `repro` output for the same cell.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.apps
            .iter()
            .flat_map(|app| {
                self.columns.iter().map(move |&col| {
                    let mut cfg = SystemConfig::table1();
                    if let Some(level) = self.audit {
                        cfg.audit = level;
                    }
                    SweepPoint::new(app.clone(), col, cfg, self.scale)
                })
            })
            .collect()
    }
}

/// The rendezvous for one in-flight (or already-served) point: filled
/// with the result's JSON exactly once, then read by every job that
/// attached to it.
#[derive(Debug, Default)]
pub struct PointCell {
    result: Mutex<Option<String>>,
    done: Condvar,
}

impl PointCell {
    /// A cell already holding `json` (cache fast path).
    pub fn ready(json: String) -> Arc<Self> {
        let cell = PointCell::default();
        *cell.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(json);
        Arc::new(cell)
    }

    /// Fills the cell and wakes blocked waiters. Filling twice is a
    /// logic error upstream (each key has one owner).
    pub fn fill(&self, json: String) {
        let mut g = self.result.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.is_none(), "point cell filled twice");
        *g = Some(json);
        self.done.notify_all();
    }

    /// The result, if the point has completed.
    pub fn peek(&self) -> Option<String> {
        self.result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Blocks until the cell is filled and returns the result.
    pub fn wait(&self) -> String {
        let mut g = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(json) = g.as_ref() {
                return json.clone();
            }
            g = self.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One accepted job: an ordered list of point cells (shared with other
/// jobs that requested the same points).
#[derive(Debug, Clone)]
pub struct Job {
    /// Cells in request point order.
    pub cells: Vec<Arc<PointCell>>,
}

impl Job {
    /// `queued` / `running` / `done` for `GET /job/{id}`: `done` once
    /// every cell is filled, `running` once any is (progress exists),
    /// `queued` before that.
    pub fn status(&self) -> &'static str {
        let filled = self.cells.iter().filter(|c| c.peek().is_some()).count();
        if filled == self.cells.len() {
            "done"
        } else if filled > 0 {
            "running"
        } else {
            "queued"
        }
    }

    /// Renders the job document. `results` appears only when done, as
    /// an array of `RunResult` JSON documents in point order.
    pub fn to_json(&self, id: u64) -> String {
        let status = self.status();
        if status != "done" {
            return format!(
                "{{\"id\":{id},\"status\":\"{status}\",\"points\":{}}}",
                self.cells.len()
            );
        }
        let results: Vec<String> = self.cells.iter().map(|c| c.wait()).collect();
        format!(
            "{{\"id\":{id},\"status\":\"done\",\"points\":{},\"results\":[{}]}}",
            self.cells.len(),
            results.join(",")
        )
    }
}

/// The in-flight dedup table: point key → the cell its simulation will
/// fill. Entries are removed *after* the cell is filled and the result
/// is stored in the on-disk cache, so a key is always obtainable from
/// exactly one of {inflight table, cache} once submitted.
pub type Inflight = Mutex<HashMap<u64, Arc<PointCell>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_minimal_and_full_bodies() {
        let r = RunRequest::parse("{\"app\":\"ll\"}").unwrap();
        assert_eq!(r.apps, vec!["ll"]);
        assert_eq!(r.columns, vec![Column::Ndp(DesignPoint::O)]);
        assert!(matches!(r.scale, Scale::Tiny));
        assert!(r.audit.is_none());

        let r = RunRequest::parse(
            "{\"apps\":[\"ll\",\"pr\"],\"designs\":[\"C\",\"h\",\"W+Hot\"],\"scale\":\"small\",\"audit\":\"full\"}",
        )
        .unwrap();
        assert_eq!(r.apps.len(), 2);
        assert_eq!(
            r.columns,
            vec![
                Column::Ndp(DesignPoint::C),
                Column::Host,
                Column::Ndp(DesignPoint::WHot)
            ]
        );
        assert!(matches!(r.scale, Scale::Small));
        assert_eq!(r.audit, Some(AuditLevel::Full));
        assert_eq!(r.points().len(), 6, "apps x designs cross product");
    }

    #[test]
    fn parse_accepts_gather_aware_designs() {
        let r = RunRequest::parse(
            "{\"app\":\"tree\",\"designs\":[\"W+Byte\",\"w+lent\",\"W+GA\",\"o+ga\"]}",
        )
        .unwrap();
        assert_eq!(
            r.columns,
            vec![
                Column::Ndp(DesignPoint::WByte),
                Column::Ndp(DesignPoint::WLent),
                Column::Ndp(DesignPoint::WGather),
                Column::Ndp(DesignPoint::OGather),
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_bodies() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"app\":\"nope\"}",
            "{\"app\":\"ll\",\"design\":\"Z\"}",
            "{\"app\":\"ll\",\"scale\":\"huge\"}",
            "{\"app\":\"ll\",\"audit\":\"maybe\"}",
            "{\"apps\":[]}",
            "{\"apps\":[3]}",
        ] {
            assert!(RunRequest::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn audit_override_lands_in_the_point_config() {
        let r = RunRequest::parse("{\"app\":\"ll\",\"audit\":\"off\"}").unwrap();
        assert_eq!(r.points()[0].cfg.audit, AuditLevel::Off);
        let r = RunRequest::parse("{\"app\":\"ll\",\"audit\":\"final\"}").unwrap();
        assert_eq!(r.points()[0].cfg.audit, AuditLevel::Final);
    }

    #[test]
    fn leftover_shards_key_leaves_the_point_key_unchanged() {
        // Clients written against older servers may still send
        // `"shards"`. Like any unknown key it is ignored, so such a
        // request dedups against, and hits the cache entries of, the
        // same request without it.
        let plain = RunRequest::parse("{\"app\":\"ll\"}").unwrap();
        let leftover = RunRequest::parse("{\"app\":\"ll\",\"shards\":4}").unwrap();
        assert_eq!(plain.points()[0].key(), leftover.points()[0].key());
    }

    #[test]
    fn job_status_progresses_with_cell_fills() {
        let a = Arc::new(PointCell::default());
        let b = Arc::new(PointCell::default());
        let job = Job {
            cells: vec![a.clone(), b.clone()],
        };
        assert_eq!(job.status(), "queued");
        a.fill("{\"x\":1}".to_string());
        assert_eq!(job.status(), "running");
        b.fill("{\"y\":2}".to_string());
        assert_eq!(job.status(), "done");
        assert_eq!(
            job.to_json(7),
            "{\"id\":7,\"status\":\"done\",\"points\":2,\"results\":[{\"x\":1},{\"y\":2}]}"
        );
    }

    #[test]
    fn waiters_block_until_fill() {
        let cell = Arc::new(PointCell::default());
        let waiter = {
            let cell = cell.clone();
            std::thread::spawn(move || cell.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.fill("{}".to_string());
        assert_eq!(waiter.join().unwrap(), "{}");
        assert_eq!(cell.peek(), Some("{}".to_string()));
    }
}
