//! The recording implementation (compiled under the `record` feature).
//!
//! A [`Recorder`] is a cheaply clonable handle; disabled handles carry no
//! state and every operation on them is a null check. Enabled handles
//! share one [`Inner`]: counters and histogram buckets are lock-free
//! atomics (safe to hammer from worker threads), spans append under a
//! mutex (stage granularity — a few hundred per study, never per frame).
//!
//! Determinism contract: everything derived from *simulated* time —
//! counters, non-wall histograms, sim-axis spans — is identical for any
//! worker count, because atomic sums commute and the exporters sort sim
//! spans by `(track name, start, end, name)` rather than arrival order.
//! Wall-clock data (span wall times, worker busy/idle) is inherently
//! nondeterministic and is segregated into clearly-marked sections the
//! deterministic exporters never touch.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::{self, SimSpan, Snapshot, WallRec};
use crate::metrics::{Counter, Hist};

thread_local! {
    /// Which study worker the current thread is; 0 is the main thread.
    static WORKER: Cell<u32> = const { Cell::new(0) };
}

/// Tags the current thread as study worker `id` (0 = the main thread).
/// Wall spans recorded afterwards land on that worker's trace track.
pub fn set_worker(id: u32) {
    WORKER.with(|w| w.set(id));
}

/// An interned span track (one row of the simulated-time timeline,
/// typically one `configuration/repetition`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(pub(crate) u32);

/// One histogram's storage: `bounds.len() + 1` buckets plus count/sum.
struct HistSlot {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

struct Inner {
    epoch: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    hists: Vec<HistSlot>,
    tracks: Mutex<TrackTable>,
    sim_spans: Mutex<Vec<SimSpan>>,
    wall_spans: Mutex<Vec<WallRec>>,
    /// Per-worker wall busy/idle nanoseconds, reported once per worker.
    workers: Mutex<Vec<(u32, u64, u64)>>,
}

#[derive(Default)]
struct TrackTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").finish_non_exhaustive()
    }
}

/// The observability handle threaded through the pipeline.
///
/// # Examples
///
/// ```
/// use interlag_obs::{Counter, Recorder};
///
/// let rec = Recorder::enabled();
/// rec.count(Counter::MatchLags, 3);
/// let track = rec.track("fixed-0.30 GHz/rep0");
/// rec.sim_span("replay", track, 0, 25_000_000);
/// assert!(rec.chrome_trace_json().contains("\"replay\""));
///
/// let off = Recorder::disabled();
/// off.count(Counter::MatchLags, 1); // no-op, no storage behind it
/// assert!(!off.is_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

/// A statically allocated disabled recorder, for call sites that take
/// `&Recorder` but have none threaded in.
pub static DISABLED: Recorder = Recorder { inner: None };

impl Recorder {
    /// A recorder that records nothing; every operation is a null check.
    pub const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder with fresh, empty storage.
    pub fn enabled() -> Self {
        let hists = Hist::ALL
            .iter()
            .map(|h| HistSlot {
                buckets: (0..=h.bounds().len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })
            .collect();
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists,
                tracks: Mutex::new(TrackTable::default()),
                sim_spans: Mutex::new(Vec::new()),
                wall_spans: Mutex::new(Vec::new()),
                workers: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` when operations actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A counter's current value; `0` on a disabled recorder.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.counters[c as usize].load(Ordering::Relaxed))
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        if let Some(inner) = &self.inner {
            let slot = &inner.hists[h as usize];
            let bucket = h.bounds().partition_point(|&b| b < value);
            slot.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            slot.count.fetch_add(1, Ordering::Relaxed);
            slot.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Interns a track name for simulated-time spans. Disabled recorders
    /// return a dummy id without touching the name.
    pub fn track(&self, name: &str) -> TrackId {
        let Some(inner) = &self.inner else { return TrackId(0) };
        let mut table = inner.tracks.lock().expect("track table poisoned");
        if let Some(&id) = table.index.get(name) {
            return TrackId(id);
        }
        let id = table.names.len() as u32;
        table.names.push(name.to_string());
        table.index.insert(name.to_string(), id);
        TrackId(id)
    }

    /// Records a completed span on the simulated-time axis.
    pub fn sim_span(&self, name: &'static str, track: TrackId, start_us: u64, end_us: u64) {
        if let Some(inner) = &self.inner {
            inner.sim_spans.lock().expect("sim span log poisoned").push(SimSpan {
                name: name.into(),
                track: track.0,
                start_us,
                end_us: end_us.max(start_us),
            });
        }
    }

    /// Opens a wall-clock span; the guard records it when dropped, on the
    /// current thread's worker track.
    #[must_use = "the span ends when the guard drops"]
    pub fn wall_span(&self, name: &'static str) -> WallSpan<'_> {
        WallSpan {
            state: self.inner.as_deref().map(|inner| (inner, name, WORKER.get(), Instant::now())),
        }
    }

    /// Reports one worker's wall-clock busy/idle split (called once per
    /// worker as it exits a work queue). A worker id that served several
    /// pools keeps one row, summing their busy and idle times.
    pub fn worker_time(&self, worker: u32, busy_ns: u64, idle_ns: u64) {
        if let Some(inner) = &self.inner {
            let mut workers = inner.workers.lock().expect("worker log poisoned");
            match workers.iter_mut().find(|w| w.0 == worker) {
                Some(row) => {
                    row.1 += busy_ns;
                    row.2 += idle_ns;
                }
                None => workers.push((worker, busy_ns, idle_ns)),
            }
            self.observe(Hist::WorkerBusyMs, busy_ns / 1_000_000);
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        Snapshot {
            counters: inner.counters.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            hists: inner
                .hists
                .iter()
                .map(|s| {
                    (
                        s.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        s.count.load(Ordering::Relaxed),
                        s.sum.load(Ordering::Relaxed),
                    )
                })
                .collect(),
            tracks: inner.tracks.lock().expect("track table poisoned").names.clone(),
            sim_spans: inner.sim_spans.lock().expect("sim span log poisoned").clone(),
            wall_spans: inner.wall_spans.lock().expect("wall span log poisoned").clone(),
            workers: inner.workers.lock().expect("worker log poisoned").clone(),
        }
    }

    /// The full Chrome trace-event JSON: wall-clock process (per-worker
    /// threads) plus simulated-time process (per-track threads). Loadable
    /// in `about:tracing` and Perfetto. Contains wall-clock timings, so it
    /// is *not* byte-stable across runs.
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace(&self.snapshot(), true)
    }

    /// The simulated-time subset of the trace: byte-stable across runs and
    /// worker counts for the same study inputs.
    pub fn chrome_trace_json_sim_only(&self) -> String {
        export::chrome_trace(&self.snapshot(), false)
    }

    /// The full trace as one CRC-framed binary record: the same data as
    /// [`chrome_trace_json`](Self::chrome_trace_json) at a fraction of the
    /// size. Convert back with [`crate::binary_trace_to_chrome_json`],
    /// which reproduces that JSON byte for byte.
    pub fn binary_trace(&self) -> Vec<u8> {
        crate::codec::encode_trace(&self.snapshot(), true)
    }

    /// The plain-text run report: the deterministic section followed by
    /// the wall-clock section.
    pub fn text_report(&self) -> String {
        export::text_report(&self.snapshot(), true)
    }

    /// Only the deterministic section of the run report: byte-stable
    /// across runs and worker counts for the same study inputs.
    pub fn text_report_deterministic(&self) -> String {
        export::text_report(&self.snapshot(), false)
    }
}

/// Guard for one wall-clock span; records on drop.
#[derive(Debug)]
pub struct WallSpan<'a> {
    state: Option<(&'a Inner, &'static str, u32, Instant)>,
}

impl Drop for WallSpan<'_> {
    fn drop(&mut self) {
        if let Some((inner, name, worker, started)) = self.state.take() {
            let start_ns = started.duration_since(inner.epoch).as_nanos() as u64;
            let end_ns = start_ns + started.elapsed().as_nanos() as u64;
            inner.wall_spans.lock().expect("wall span log poisoned").push(WallRec {
                name: name.into(),
                worker,
                start_ns,
                end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = Recorder::disabled();
        rec.count(Counter::MatchLags, 5);
        rec.observe(Hist::MatchWalkFrames, 12);
        let t = rec.track("ignored");
        rec.sim_span("replay", t, 0, 10);
        drop(rec.wall_span("annotate"));
        assert!(!rec.is_enabled());
        assert_eq!(rec.counter(Counter::MatchLags), 0);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.sim_spans.is_empty());
        assert!(snap.wall_spans.is_empty());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::enabled();
        rec.count(Counter::RetryAttempts, 2);
        rec.count(Counter::RetryAttempts, 1);
        rec.observe(Hist::EscalationDepth, 0);
        rec.observe(Hist::EscalationDepth, 3);
        rec.observe(Hist::EscalationDepth, 99); // overflow bucket
        let snap = rec.snapshot();
        assert_eq!(snap.counters[Counter::RetryAttempts as usize], 3);
        assert_eq!(rec.counter(Counter::RetryAttempts), 3);
        assert_eq!(rec.counter(Counter::MatchLags), 0);
        let (buckets, count, sum) = &snap.hists[Hist::EscalationDepth as usize];
        assert_eq!(*count, 3);
        assert_eq!(*sum, 102);
        assert_eq!(buckets[0], 1, "value 0 lands in the <=0 bucket");
        assert_eq!(*buckets.last().unwrap(), 1, "value 99 overflows");
    }

    #[test]
    fn tracks_intern_by_name() {
        let rec = Recorder::enabled();
        let a = rec.track("ondemand/rep0");
        let b = rec.track("ondemand/rep1");
        let a2 = rec.track("ondemand/rep0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(rec.snapshot().tracks.len(), 2);
    }

    #[test]
    fn wall_span_guard_records_on_drop_with_worker_tag() {
        let rec = Recorder::enabled();
        set_worker(3);
        {
            let _g = rec.wall_span("match");
        }
        set_worker(0);
        let snap = rec.snapshot();
        assert_eq!(snap.wall_spans.len(), 1);
        assert_eq!(snap.wall_spans[0].name, "match");
        assert_eq!(snap.wall_spans[0].worker, 3);
        assert!(snap.wall_spans[0].end_ns >= snap.wall_spans[0].start_ns);
    }

    #[test]
    fn sim_span_clamps_backwards_ends() {
        let rec = Recorder::enabled();
        let t = rec.track("t");
        rec.sim_span("lag", t, 100, 40);
        let snap = rec.snapshot();
        assert_eq!(snap.sim_spans[0].end_us, 100);
    }

    #[test]
    fn binary_trace_converts_back_to_the_exact_json() {
        let rec = Recorder::enabled();
        rec.count(Counter::MatchLags, 4);
        rec.observe(Hist::MatchWalkFrames, 17);
        let t = rec.track("ondemand/rep0");
        rec.sim_span("replay", t, 0, 25_000);
        rec.sim_span("match", t, 25_000, 26_000);
        drop(rec.wall_span("annotate"));
        rec.worker_time(0, 1_000, 2_000);
        let json = crate::binary_trace_to_chrome_json(&rec.binary_trace());
        assert_eq!(json, Some(rec.chrome_trace_json()));
    }

    #[test]
    fn worker_time_folds_pools_into_one_row_per_worker() {
        let rec = Recorder::enabled();
        rec.worker_time(1, 10, 1);
        rec.worker_time(2, 20, 2);
        rec.worker_time(1, 30, 3);
        assert_eq!(rec.snapshot().workers, [(1, 40, 4), (2, 20, 2)]);
    }

    #[test]
    fn clones_share_storage() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.count(Counter::StudyReps, 1);
        assert_eq!(rec.snapshot().counters[Counter::StudyReps as usize], 1);
    }
}
