//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions (nothing inside the program is changed),
//! kept in memory, and written out once the run is over. A span's
//! parent is the span open on the recorder when it began, so a layer's
//! self time is its duration minus that of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `machine.measure_batch`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (session or serve phase) every span of one request
    /// shares.
    pub op: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared handle to one run's span log.
#[derive(Debug, Clone)]
pub struct Trace(Arc<Mutex<Log>>);

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by direct children.
    pub self_s: f64,
}

impl Trace {
    /// A new, empty recorder whose clock starts now.
    pub fn new() -> Trace {
        Trace(Arc::new(Mutex::new(Log {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.0
            .lock()
            .expect("trace log poisoned by a panicking span")
    }

    /// Opens a span nested in the currently open one.
    fn begin(&self, name: &'static str, op: u32) -> usize {
        let mut log = self.log();
        let start_ns = log.epoch.elapsed().as_nanos() as u64;
        let parent = log.open.last().copied();
        log.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        let id = log.spans.len() - 1;
        log.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it).
    fn end(&self, id: usize) {
        let mut log = self.log();
        let now = log.epoch.elapsed().as_nanos() as u64;
        log.spans[id].end_ns = now;
        while let Some(top) = log.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Per-name totals with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let log = self.log();
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        let mut child_time = vec![0.0; log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                child_time[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in log.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur(s);
            t.self_s += dur(s) - child_time[i];
        }
        out
    }

    /// The full span list as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let log = self.log();
        let mut out = String::new();
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"parent":{parent},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
