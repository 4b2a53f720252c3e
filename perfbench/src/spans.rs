//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer
//! (`build_app`, `System::new`, `run`, an HTTP round trip, a cache
//! read, ...) in a span: name, start, end, parent span and request id.
//! Spans stay in memory while the run measures and are written out as
//! a Chrome `trace_event` file once it ends; the per-layer metrics are
//! sums and medians over them.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.run`.
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation (point or request) the span belongs to.
    pub req: u64,
    /// Free-form qualifier, e.g. `ll/O` for a simulation point.
    pub tag: String,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans relative to one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished call and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
        tag: impl Into<String>,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            req,
            tag: tag.into(),
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `id`, recorded open (with `end == start`)
    /// so that its children could name it as their parent.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end = end.saturating_duration_since(self.epoch).as_secs_f64();
    }

    /// Times `f` as a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0, Instant::now(), parent, req, "");
        r
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Total seconds of the spans named `name` under `parent` whose tag
    /// satisfies `keep`.
    pub fn sum_under(&self, name: &str, parent: SpanId, keep: impl Fn(&str) -> bool) -> f64 {
        self.named(name)
            .filter(|s| s.parent == Some(parent) && keep(&s.tag))
            .map(Span::secs)
            .sum()
    }

    /// Writes the spans as a Chrome `trace_event` JSON document.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{},\"tag\":\"{}\"}}}}",
                s.name,
                s.start * 1e6,
                s.secs() * 1e6,
                s.req,
                s.tag.replace('\\', "\\\\").replace('"', "\\\""),
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sums_follow_parent_and_tag() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let pass = t.record("pass", t0, t0 + Duration::from_secs(3), None, 0, "");
        t.record(
            "core.run",
            t0,
            t0 + Duration::from_secs(1),
            Some(pass),
            0,
            "ll/C",
        );
        t.record(
            "core.run",
            t0,
            t0 + Duration::from_secs(2),
            Some(pass),
            1,
            "ll/O",
        );
        t.record("core.run", t0, t0 + Duration::from_secs(5), None, 2, "ll/O");
        let all = t.sum_under("core.run", pass, |_| true);
        assert!((all - 3.0).abs() < 1e-9);
        let o = t.sum_under("core.run", pass, |tag| tag.ends_with("/O"));
        assert!((o - 2.0).abs() < 1e-9);
        assert_eq!(t.durations("core.run").len(), 3);
        let x = t.time("noop", None, 9, || 42);
        assert_eq!(x, 42);
        assert_eq!(t.named("noop").next().unwrap().req, 9);
    }
}
