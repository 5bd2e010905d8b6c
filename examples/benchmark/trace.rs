//! Spans recorded by the harness around its calls into each layer.
//!
//! One span is `(name, start, end, parent, stmt)`; the spans of one
//! statement share its `stmt` id and hang off a root span named `stmt`.
//! Spans stay in memory and are written as JSON lines when the run ends.
//! A layer's metric is the median *self time* of its span name: the span's
//! duration minus the time its child spans cover. Spans inside the crates
//! are a later change; these sit at the public-function boundaries only.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a statement's root.
    pub parent: Option<u32>,
    /// Statement the span belongs to.
    pub stmt: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for a single-threaded traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    stmt: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as one statement: a root span named `stmt` under a fresh
    /// statement id.
    pub fn statement<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.stmt += 1;
        self.span("stmt", f)
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Record a child of the span that just closed, for time the layer
    /// below measured itself (the recycler reports its match time through
    /// `QueryHandle::match_ns`; the harness cannot wrap a call inside
    /// `Prepared::execute`). The child starts with its parent: where in
    /// the parent it really ran is not known.
    pub fn child_of_last(&mut self, name: &'static str, duration_ns: u64) {
        let parent = self.spans.len() as u32 - 1;
        let p = &self.spans[parent as usize];
        let (start_ns, stmt) = (p.start_ns, p.stmt);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns.min(p.duration_ns()),
            parent: Some(parent),
            stmt,
        });
    }

    /// Self time in nanoseconds of every span, by index.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Root self time over root duration, summed over all statements: the
    /// share of traced time no layer span accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        let own = self.self_times();
        let (mut unattributed, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                unattributed += own;
                total += s.duration_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            unattributed as f64 / total as f64
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"stmt\":{}}}",
                s.name, s.start_ns, s.end_ns, s.stmt
            )?;
        }
        out.flush()
    }
}
