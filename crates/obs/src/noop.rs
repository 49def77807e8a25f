//! The no-op implementation (compiled when the `record` feature is off).
//!
//! Exposes exactly the API of [`crate::imp`] so instrumented crates keep
//! their call sites unconditionally; every method here is an empty inline
//! body the optimiser erases, and the exporters return the same "empty
//! recorder" renderings the real implementation produces for a disabled
//! handle.

use crate::metrics::{Counter, Hist};

/// Tags the current thread as study worker `id`. No-op in this build.
pub fn set_worker(_id: u32) {}

/// An interned span track. Carries nothing in this build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(pub(crate) u32);

/// The observability handle threaded through the pipeline. In this build
/// it records nothing and occupies no storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recorder;

/// A statically allocated disabled recorder, for call sites that take
/// `&Recorder` but have none threaded in.
pub static DISABLED: Recorder = Recorder;

impl Recorder {
    /// A recorder that records nothing.
    pub const fn disabled() -> Self {
        Recorder
    }

    /// "Enabled" recorders still record nothing in this build.
    pub fn enabled() -> Self {
        Recorder
    }

    /// Always `false`: nothing records in this build.
    pub fn is_enabled(&self) -> bool {
        false
    }

    /// No-op.
    #[inline]
    pub fn count(&self, _c: Counter, _n: u64) {}

    /// Always `0`: nothing records in this build.
    #[inline]
    pub fn counter(&self, _c: Counter) -> u64 {
        0
    }

    /// No-op.
    #[inline]
    pub fn observe(&self, _h: Hist, _value: u64) {}

    /// Returns a dummy id without touching the name.
    pub fn track(&self, _name: &str) -> TrackId {
        TrackId(0)
    }

    /// No-op.
    pub fn sim_span(&self, _name: &'static str, _track: TrackId, _start_us: u64, _end_us: u64) {}

    /// Returns an inert guard.
    #[must_use = "the span ends when the guard drops"]
    pub fn wall_span(&self, _name: &'static str) -> WallSpan<'_> {
        WallSpan { _marker: std::marker::PhantomData }
    }

    /// No-op.
    pub fn worker_time(&self, _worker: u32, _busy_ns: u64, _idle_ns: u64) {}

    /// An empty (but valid) Chrome trace document.
    pub fn chrome_trace_json(&self) -> String {
        crate::export::chrome_trace(&Default::default(), true)
    }

    /// An empty (but valid) Chrome trace document.
    pub fn chrome_trace_json_sim_only(&self) -> String {
        crate::export::chrome_trace(&Default::default(), false)
    }

    /// The binary encoding of an empty trace.
    pub fn binary_trace(&self) -> Vec<u8> {
        crate::codec::encode_trace(&Default::default(), true)
    }

    /// The "empty recorder" run report.
    pub fn text_report(&self) -> String {
        crate::export::text_report(&Default::default(), true)
    }

    /// The "empty recorder" run report, deterministic section only.
    pub fn text_report_deterministic(&self) -> String {
        crate::export::text_report(&Default::default(), false)
    }
}

/// Guard for one wall-clock span. Inert in this build.
#[derive(Debug)]
pub struct WallSpan<'a> {
    _marker: std::marker::PhantomData<&'a ()>,
}
