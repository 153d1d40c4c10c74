//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, the span that caused it and the
//! request it served. Spans stay in memory until the run ends and are then
//! written as JSON lines. With tracing off, [`Tracer::span`] is a plain
//! call, so the end-to-end run pays one branch per wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use swhybrid::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span on the recording thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `simd.search_arena`.
    pub name: &'static str,
    /// The request the span served, if it served one.
    pub req: Option<u64>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

/// Self-time summary of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the part covered by child spans, seconds.
    pub self_s: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled == false` nothing is recorded.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name,
            req,
            start: self.secs(start),
            end: self.secs(end),
        });
        out
    }

    /// Record an interval observed from outside (e.g. a request from send
    /// to reply), as a child of `parent` or else of the span open on this
    /// thread. Returns the new span's id (0 when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        req: Option<u64>,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = parent.or_else(|| OPEN.with(|open| open.borrow().last().copied()));
        self.push(Span {
            id,
            parent,
            name,
            req,
            start: self.secs(start),
            end: self.secs(end),
        });
        id
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Per-name totals; self time is a span's duration minus its
    /// children's (children of one span run one after another on its
    /// thread, so their durations do not overlap).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &spans {
            let dur = s.end - s.start;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur;
            t.self_s += (dur - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", opt(s.parent)),
                ("name", Json::str(s.name)),
                ("req", opt(s.req)),
                ("start_s", Json::Num(s.start)),
                ("end_s", Json::Num(s.end)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", Some(1), || {
            t.span("inner", Some(1), || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let totals = t.totals();
        let o = totals["outer"];
        assert!(o.total_s >= 0.030 && o.self_s < o.total_s - 0.015, "{o:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
