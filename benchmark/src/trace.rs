//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions; the program itself carries no spans.
//! Completed spans are kept in memory and written once, at the end, as
//! Chrome trace-event JSON. Calls too frequent for one span each (a
//! governor's `on_sample`, a capture link's `capture`) are timed in
//! aggregate by the probes in `probes.rs` and attached to the enclosing
//! span as `inner` time, which is subtracted from that span's self time
//! and credited to the probed layer instead.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::json_str;

/// Span names that structure the trace but belong to no layer: the
/// per-thread roots and the main thread's wait for its workers.
pub const ROOT: &str = "iteration";
/// A worker thread's root span.
pub const WORKER: &str = "worker";
/// The main thread blocked joining its workers.
pub const JOIN: &str = "join";

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span on the same thread, or 0 for a thread root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `device.run`.
    pub name: &'static str,
    /// Trace track: 0 for the main thread, `1..` for workers.
    pub tid: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Aggregate-timed sub-layer work inside this span.
    pub inner: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Tags the calling thread's spans with trace track `tid`.
pub fn set_tid(tid: u32) {
    TID.with(|t| t.set(tid));
}

/// An in-memory span recorder shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span on the calling thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard { tracer: self, id, parent, name, start: Instant::now(), inner: Vec::new() }
    }

    /// Number of spans completed so far: iteration boundaries are taken
    /// as indices into the record list.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Duration of the most recent completed span named `name`, seconds.
    pub fn last_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
    }

    /// A copy of spans `from..to`.
    pub fn slice(&self, from: usize, to: usize) -> Vec<SpanRecord> {
        self.spans.lock().expect("span list poisoned")[from..to].to_vec()
    }

    /// Writes every span as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mut args = format!("\"id\":{},\"parent\":{}", s.id, s.parent);
            for (layer, ns) in &s.inner {
                args.push_str(&format!(
                    ",{}:{:.3}",
                    json_str(&format!("{layer}_us")),
                    *ns as f64 / 1e3
                ));
            }
            let cat = s.name.split('.').next().unwrap_or(s.name);
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                json_str(s.name),
                json_str(cat),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                args
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        std::fs::write(path, out)
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    inner: Vec<(&'static str, u64)>,
}

impl SpanGuard<'_> {
    /// Credits `ns` of this span's time to the aggregate-timed `layer`.
    pub fn inner(&mut self, layer: &'static str, ns: u64) {
        self.inner.push((layer, ns));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let ns = |t: Instant| t.duration_since(self.tracer.epoch).as_nanos() as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tid: TID.with(Cell::get),
            start_ns: ns(self.start),
            end_ns: ns(end),
            inner: std::mem::take(&mut self.inner),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

/// One iteration's time split by layer.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self seconds per layer-qualified span name (and per probed layer).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Inclusive seconds per span name.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Inclusive durations of each span, per name, in seconds.
    pub each_s: BTreeMap<&'static str, Vec<f64>>,
    /// Share of busy thread time (thread roots minus the main thread's
    /// joins) not covered by any layer's self time.
    pub unattributed_share: f64,
}

/// Splits `spans` (one iteration) into layer self times. A span's self
/// time is its duration minus its children's and minus its `inner` time.
pub fn attribute(spans: &[SpanRecord]) -> Attribution {
    let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *children_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut a = Attribution::default();
    let mut layer_ns = 0u64;
    let mut busy_ns = 0i128;
    for s in spans {
        let inner: u64 = s.inner.iter().map(|(_, ns)| ns).sum();
        let own = s
            .dur_ns()
            .saturating_sub(children_ns.get(&s.id).copied().unwrap_or(0))
            .saturating_sub(inner);
        match s.name {
            JOIN => busy_ns -= i128::from(s.dur_ns()),
            ROOT | WORKER => {}
            name => {
                *a.self_s.entry(name).or_default() += own as f64 / 1e9;
                layer_ns += own;
                for (layer, ns) in &s.inner {
                    *a.self_s.entry(layer).or_default() += *ns as f64 / 1e9;
                    layer_ns += ns;
                }
            }
        }
        if s.parent == 0 {
            busy_ns += i128::from(s.dur_ns());
        }
        *a.total_s.entry(s.name).or_default() += s.dur_ns() as f64 / 1e9;
        a.each_s.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e9);
    }
    a.unattributed_share =
        if busy_ns > 0 { (1.0 - layer_ns as f64 / busy_ns as f64).max(0.0) } else { 0.0 };
    a
}

/// Runs `count` jobs over `workers` threads (a shared-counter queue, as
/// the library's own pools do) and returns results in job order. Each
/// worker is a trace track with a root span; the caller's wait is a
/// `join` span.
pub fn par_map<T: Send>(
    tracer: &Tracer,
    workers: usize,
    count: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let workers = workers.clamp(1, count.max(1));
    {
        let _join = tracer.span(JOIN);
        std::thread::scope(|s| {
            for w in 0..workers {
                let (next, slots, job) = (&next, &slots, &job);
                s.spawn(move || {
                    set_tid(w as u32 + 1);
                    let _root = tracer.span(WORKER);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= count {
                            break;
                        }
                        let out = job(i);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("every job ran"))
        .collect()
}
