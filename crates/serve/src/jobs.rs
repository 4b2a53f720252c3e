//! The job subsystem: typed requests and the jobs that collect their
//! points' outcomes.
//!
//! A request names one or more (app × design) cells at one scale; each
//! cell becomes a [`SweepPoint`], which admission submits to the
//! `Sweeper`. The sweeper's key table shares one simulation among every
//! request for the same key and answers finished keys at once; each
//! job keeps one [`PointCell`] per point, filled by the point's
//! callback.

use std::sync::{Arc, OnceLock};

use ndpb_bench::json::Json;
use ndpb_bench::{Column, SweepPoint};
use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_workloads::{known_app, Scale};

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

/// One point of a job: set exactly once — by the pool worker that ran
/// the point's key, or at admission when the key had finished — with
/// the result's JSON or the message its simulation failed with.
pub type PointCell = OnceLock<Result<String, String>>;

/// One accepted job: an ordered list of point cells.
#[derive(Debug, Clone)]
pub struct Job {
    /// Cells in request point order.
    pub cells: Vec<Arc<PointCell>>,
}

impl Job {
    /// `queued` / `running` / `done` / `failed` for `GET /job/{id}`:
    /// `failed` as soon as any point failed (the job can no longer
    /// finish), else `done` once every cell is filled, `running` once
    /// any is (progress exists), `queued` before that.
    pub fn status(&self) -> &'static str {
        let mut filled = 0;
        for cell in &self.cells {
            match cell.get() {
                Some(Err(_)) => return "failed",
                Some(Ok(_)) => filled += 1,
                None => {}
            }
        }
        if filled == self.cells.len() {
            "done"
        } else if filled > 0 {
            "running"
        } else {
            "queued"
        }
    }

    /// Renders the job document. `results` appears only when done, as
    /// an array of `RunResult` JSON documents in point order; a failed
    /// job carries its first failed point's message as `error`.
    pub fn to_json(&self, id: u64) -> String {
        let points = self.cells.len();
        match self.status() {
            "done" => {
                let results: Vec<&str> = self
                    .cells
                    .iter()
                    .filter_map(|c| c.get()?.as_deref().ok())
                    .collect();
                format!(
                    "{{\"id\":{id},\"status\":\"done\",\"points\":{points},\"results\":[{}]}}",
                    results.join(",")
                )
            }
            "failed" => {
                let error = self
                    .cells
                    .iter()
                    .find_map(|c| c.get()?.as_ref().err())
                    .map_or("", String::as_str);
                format!(
                    "{{\"id\":{id},\"status\":\"failed\",\"points\":{points},\"error\":\"{}\"}}",
                    escape_json(error)
                )
            }
            status => format!("{{\"id\":{id},\"status\":\"{status}\",\"points\":{points}}}"),
        }
    }
}

/// Escapes `s` for use inside a JSON string literal. Panic messages
/// can span lines (an audit failure lists its violations), and a raw
/// newline would also split a line-protocol reply.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

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
        let a = Arc::new(PointCell::new());
        let b = Arc::new(PointCell::new());
        let job = Job {
            cells: vec![a.clone(), b.clone()],
        };
        assert_eq!(job.status(), "queued");
        a.set(Ok("{\"x\":1}".to_string())).unwrap();
        assert_eq!(job.status(), "running");
        b.set(Ok("{\"y\":2}".to_string())).unwrap();
        assert_eq!(job.status(), "done");
        assert_eq!(
            job.to_json(7),
            "{\"id\":7,\"status\":\"done\",\"points\":2,\"results\":[{\"x\":1},{\"y\":2}]}"
        );
    }

    #[test]
    fn a_failed_point_fails_the_job_with_its_message() {
        let a = Arc::new(PointCell::new());
        let b = Arc::new(PointCell::new());
        let job = Job {
            cells: vec![a.clone(), b.clone()],
        };
        b.set(Err(
            "simulation panicked: audit\n  \"law\" broke".to_string()
        ))
        .unwrap();
        assert_eq!(job.status(), "failed", "a failed point fails the job early");
        a.set(Ok("{\"x\":1}".to_string())).unwrap();
        let doc = job.to_json(3);
        assert_eq!(
            doc,
            "{\"id\":3,\"status\":\"failed\",\"points\":2,\"error\":\"simulation panicked: audit\\n  \\\"law\\\" broke\"}"
        );
        let j = Json::parse(&doc).expect("valid JSON");
        assert_eq!(
            j.str_field("error"),
            Some("simulation panicked: audit\n  \"law\" broke")
        );
    }
}
