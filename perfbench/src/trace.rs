//! In-memory span and count recorder for the traced runs.
//!
//! A span records its name, start, end and parent; the harness derives
//! per-layer self time from them (a span's duration minus the part its
//! children cover). The layer is the first dot-separated component of
//! the name. Spans are kept in memory and written once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// Work the untraced workload does not do (a warm re-run, a
    /// reference run); excluded when the tracing overhead is computed.
    extra: bool,
}

/// Span/count sink. Recording costs a clock read per span; the spans
/// reach disk only when a trace path is given.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn push(&mut self, name: &str, extra: bool) -> usize {
        let span = Span {
            name: name.to_string(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            extra: extra || self.open.iter().any(|&i| self.spans[i].extra),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that later spans nest under until [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.push(name, false);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Times `f` as one span and returns its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.timed(name, false, f).0
    }

    /// Times `f` as one span; returns its result and the span id.
    /// `extra` marks work the untraced workload does not do.
    pub fn timed<T>(&mut self, name: &str, extra: bool, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.push(name, extra);
        let out = f();
        self.spans[id].end = self.now();
        (out, id)
    }

    /// Duration of a closed span, in seconds.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Adds a child of `parent` covering its first `secs` seconds, for a
    /// time computed from two timed spans rather than timed itself (cold
    /// study minus warm re-run = profiling).
    pub fn derive_child(&mut self, parent: usize, name: &str, secs: f64) {
        let p = &self.spans[parent];
        let secs = secs.clamp(0.0, p.end - p.start);
        let span = Span {
            name: name.to_string(),
            start: p.start,
            end: p.start + secs,
            parent: Some(parent),
            extra: p.extra,
        };
        self.spans.push(span);
    }

    /// Adds `n` to a deterministic count.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Writes `{"spans": [...], "counts": {...}}` to `path`, if given.
    pub fn write(&self, path: Option<&str>) -> std::io::Result<()> {
        let Some(path) = path else { return Ok(()) };
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"extra\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start,
                s.end,
                s.extra
            );
        }
        out.push_str("\n], \"counts\": {");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}
