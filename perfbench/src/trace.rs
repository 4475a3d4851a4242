//! In-memory spans around the benchmark's calls into each public layer.
//! Each thread records into its own [`Spans`]; the buffers are merged and
//! written out as JSON lines when the run ends, and the per-layer numbers
//! are derived from them.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call: what ran, when, under which parent span, for which
/// request.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The run's clock and span-id source; shared by reference across threads.
pub struct Clock {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Clock {
    pub fn new(epoch: Instant) -> Clock {
        Clock { epoch, next_id: AtomicU64::new(1) }
    }

    /// A fresh span id (ids only need to be unique).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// A thread's span buffer. When disabled, recording is a no-op.
pub struct Spans<'c> {
    clock: &'c Clock,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl<'c> Spans<'c> {
    pub fn new(clock: &'c Clock, enabled: bool) -> Spans<'c> {
        Spans { clock, enabled, spans: Vec::new() }
    }

    /// A fresh span id, for a span recorded later with [`Spans::record_as`].
    pub fn new_id(&self) -> u64 {
        self.clock.id()
    }

    /// Record a finished span with a caller-chosen id (so children recorded
    /// on another thread can name it as parent).
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.clock.ns(start), self.clock.ns(end));
            self.spans.push(Span { id, parent, name, request, start_ns, end_ns });
        }
    }

    /// Record a finished span under a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.clock.id();
            self.record_as(id, name, parent, request, start, end);
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, None, start, Instant::now());
        out
    }
}

/// Durations, in milliseconds, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Write `spans` as JSON lines (one object per span, in start order).
pub fn write_jsonl(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.request),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
