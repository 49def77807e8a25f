//! Wrappers that time calls too frequent for one span each, and the
//! per-device-run probe that gathers a run's exact counts.
//!
//! Both wrappers forward every trait method unchanged, so a wrapped run
//! makes exactly the decisions an unwrapped one does; the traced run's
//! bit-exact comparison against the untraced output checks that.

use std::sync::Arc;
use std::time::Instant;

use interlag::device::device::{Device, RunArtifacts};
use interlag::device::dvfs::{Governor, LoadSample};
use interlag::device::error::DeviceError;
use interlag::evdev::replay::ReplayAgent;
use interlag::evdev::time::{SimDuration, SimTime};
use interlag::evdev::trace::EventTrace;
use interlag::power::opp::{Frequency, OppTable};
use interlag::video::capture::{CaptureLink, HdmiCapture};
use interlag::video::frame::FrameBuffer;
use interlag::workloads::gen::Workload;

use crate::trace::Tracer;

/// Times a governor's callbacks and counts its decisions.
pub struct TimedGovernor<'a> {
    inner: &'a mut dyn Governor,
    current: Option<Frequency>,
    /// Host nanoseconds inside the wrapped governor.
    pub ns: u64,
    /// `on_sample` calls.
    pub sample_calls: u64,
    /// `on_input` calls.
    pub input_calls: u64,
    /// Samples after which the (OPP-quantised) frequency changed.
    pub transitions: u64,
}

impl<'a> TimedGovernor<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Governor) -> Self {
        TimedGovernor {
            inner,
            current: None,
            ns: 0,
            sample_calls: 0,
            input_calls: 0,
            transitions: 0,
        }
    }
}

impl Governor for TimedGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        let t0 = Instant::now();
        let f = self.inner.init(table);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.current = Some(table.quantize_up(f));
        f
    }

    fn sample_period(&self) -> SimDuration {
        self.inner.sample_period()
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        let t0 = Instant::now();
        let f = self.inner.on_sample(now, load, table);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.sample_calls += 1;
        let q = table.quantize_up(f);
        if self.current != Some(q) {
            self.transitions += 1;
        }
        self.current = Some(q);
        f
    }

    fn on_input(&mut self, now: SimTime, table: &OppTable) -> Option<Frequency> {
        let t0 = Instant::now();
        let f = self.inner.on_input(now, table);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.input_calls += 1;
        if let Some(f) = f {
            self.current = Some(table.quantize_up(f));
        }
        f
    }
}

/// Times an HDMI capture link and counts the frames it produces.
pub struct TimedCapture {
    inner: HdmiCapture,
    last: usize,
    /// Host nanoseconds inside `capture`.
    pub ns: u64,
    /// Frames captured.
    pub calls: u64,
    /// Captures that produced a new frame allocation (a changed screen).
    pub distinct: u64,
}

impl TimedCapture {
    /// A fresh HDMI link.
    pub fn new() -> Self {
        TimedCapture { inner: HdmiCapture::new(), last: 0, ns: 0, calls: 0, distinct: 0 }
    }
}

impl CaptureLink for TimedCapture {
    fn capture(&mut self, time: SimTime, screen: &FrameBuffer) -> Arc<FrameBuffer> {
        let t0 = Instant::now();
        let frame = self.inner.capture(time, screen);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        // The link keeps the previous frame alive, so a new allocation
        // can never reuse its address.
        let addr = Arc::as_ptr(&frame) as usize;
        if addr != self.last {
            self.distinct += 1;
            self.last = addr;
        }
        frame
    }
}

/// Exact counts and host timings gathered over a set of device runs.
#[derive(Debug, Clone, Default)]
pub struct RunProbe {
    /// Device runs made.
    pub runs: u64,
    /// Simulated microseconds covered.
    pub sim_us: u64,
    /// Quanta executed.
    pub quanta: u64,
    /// Activity-trace samples after merging identical quanta.
    pub activity_samples: u64,
    /// Input events replayed.
    pub events: u64,
    /// Summed replay lateness, simulated microseconds.
    pub drift_total_us: u64,
    /// Worst replay lateness, simulated microseconds.
    pub drift_max_us: u64,
    /// Governor `on_sample` calls.
    pub sample_calls: u64,
    /// Governor `on_input` calls.
    pub input_calls: u64,
    /// Quantised frequency changes after a sample.
    pub transitions: u64,
    /// Capture calls.
    pub capture_calls: u64,
    /// Frames in the captured videos.
    pub frames: u64,
    /// New frame allocations among the captures.
    pub distinct_frames: u64,
    /// Lags the matcher resolved.
    pub lags: u64,
    /// Lags the matcher could not resolve.
    pub match_failures: u64,
    /// Summed |matched lag − true lag|, simulated microseconds.
    pub lag_err_total_us: u64,
    /// Matched lags with a ground-truth lag to compare against.
    pub lag_err_count: u64,
    /// Host seconds per device run, excluding governor and capture time.
    pub run_self_s: Vec<f64>,
}

impl RunProbe {
    /// Folds another probe in.
    pub fn absorb(&mut self, o: &RunProbe) {
        self.runs += o.runs;
        self.sim_us += o.sim_us;
        self.quanta += o.quanta;
        self.activity_samples += o.activity_samples;
        self.events += o.events;
        self.drift_total_us += o.drift_total_us;
        self.drift_max_us = self.drift_max_us.max(o.drift_max_us);
        self.sample_calls += o.sample_calls;
        self.input_calls += o.input_calls;
        self.transitions += o.transitions;
        self.capture_calls += o.capture_calls;
        self.frames += o.frames;
        self.distinct_frames += o.distinct_frames;
        self.lags += o.lags;
        self.match_failures += o.match_failures;
        self.lag_err_total_us += o.lag_err_total_us;
        self.lag_err_count += o.lag_err_count;
        self.run_self_s.extend_from_slice(&o.run_self_s);
    }

    /// Records the matcher's verdicts for one marked-up run against the
    /// run's ground truth.
    pub fn matched(
        &mut self,
        run: &RunArtifacts,
        profile: &interlag::core::LagProfile,
        failures: usize,
    ) {
        self.lags += profile.len() as u64;
        self.match_failures += failures as u64;
        for e in profile.entries() {
            let truth = run.interactions.get(e.interaction_id).and_then(|r| r.true_lag());
            if let Some(truth) = truth {
                self.lag_err_total_us += e.lag.as_micros().abs_diff(truth.as_micros());
                self.lag_err_count += 1;
            }
        }
    }
}

/// One device run under the probes, as a `device.run` span: with HDMI
/// capture through a [`TimedCapture`] when `capture` is set (the study's
/// path), otherwise through the device's configured capture mode (the
/// tuning sweep's capture-free replica).
pub fn probed_run(
    tracer: &Tracer,
    device: &Device,
    workload: &Workload,
    trace: EventTrace,
    governor: &mut dyn Governor,
    capture: bool,
    probe: &mut RunProbe,
) -> Result<RunArtifacts, DeviceError> {
    let mut gov = TimedGovernor::new(governor);
    let mut link = TimedCapture::new();
    let mut span = tracer.span("device.run");
    let t0 = Instant::now();
    let script = &workload.script;
    let agent = ReplayAgent::new(trace);
    let until = workload.run_until();
    let run = if capture {
        device.run_with_capture(script, agent, &mut gov, until, &mut link)?
    } else {
        device.run(script, agent, &mut gov, until)?
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    span.inner("governors", gov.ns);
    span.inner("video", link.ns);
    drop(span);

    let quantum = device.config().quantum.as_micros().max(1);
    probe.runs += 1;
    probe.sim_us += run.end_time.as_micros();
    probe.quanta += run.end_time.as_micros() / quantum;
    probe.activity_samples += run.activity.samples().len() as u64;
    probe.events += run.replay.events_replayed as u64;
    probe.drift_total_us += run.replay.total_drift.as_micros();
    probe.drift_max_us = probe.drift_max_us.max(run.replay.max_drift.as_micros());
    probe.sample_calls += gov.sample_calls;
    probe.input_calls += gov.input_calls;
    probe.transitions += gov.transitions;
    probe.capture_calls += link.calls;
    probe.frames += run.video.as_ref().map_or(0, |v| v.len() as u64);
    probe.distinct_frames += link.distinct;
    probe.run_self_s.push(wall_ns.saturating_sub(gov.ns + link.ns) as f64 / 1e9);
    Ok(run)
}
