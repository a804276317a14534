//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the library, around calls into each layer's
//! public functions: a name, a start and an end (nanoseconds since the
//! run's epoch), the span that caused it, and the id of the operation it
//! belongs to. They stay in memory while the run measures and are written
//! out once, as JSON lines, when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`].
    parent: Option<usize>,
    /// The operation (request) this span belongs to.
    request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of a span opened with [`Trace::enter`].
#[must_use = "a span must be closed with Trace::exit"]
pub struct Open(usize);

/// Spans of one thread; threads merge theirs with [`Trace::absorb`].
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace { epoch, spans: Vec::new(), stack: Vec::new() }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it is the parent of every span opened before its exit.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.stack.push(id);
        Open(id)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Appends another thread's spans (taken against the same epoch),
    /// keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        assert!(other.stack.is_empty(), "absorbed trace has open spans");
        assert_eq!(other.epoch, self.epoch, "absorbed trace has another epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total time of the spans named `name`, per request, in milliseconds.
    /// Only requests with at least one such span appear.
    fn ms_by_request(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.request).or_default() += s.duration_ns() as f64 / 1e6;
        }
        totals
    }

    /// Per-request total of `name`, for each request that has a `root`
    /// span (0 where that request has no `name` span).
    pub fn per_root_ms(&self, root: &str, name: &str) -> Vec<f64> {
        let by_request = self.ms_by_request(name);
        self.ms_by_request(root).keys().map(|r| by_request.get(r).copied().unwrap_or(0.0)).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
