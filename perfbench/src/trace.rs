//! Spans around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] keeps spans in memory — name (`layer.call`), start,
//! end, parent and op id — and writes them out once the run is over.
//! A layer's self time is the duration of its spans minus the part
//! covered by their children. When tracing is off, `open`/`close` cost
//! one branch and no clock read.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.query`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op id within the timed loop (0 outside it).
    pub op: u64,
}

/// An open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off (between spans).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// End a span returned by [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Record `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, op);
        let v = f();
        self.close(open);
        v
    }

    /// Append another thread's spans (same epoch), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time in ms per layer (the span name's prefix before `.`).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as a tab-separated line, then the per-layer
    /// self times as `# self_ms` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (layer, ms) in self.self_ms_by_layer() {
            writeln!(out, "# self_ms\t{layer}\t{ms:.3}")?;
        }
        out.flush()
    }
}
