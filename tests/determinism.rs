//! Repeatability: the property the whole methodology stands on.
//!
//! "These need to be repeatable without major deviations in order to
//! compare multiple executions" (§I-B). In simulation we can demand more
//! than the paper could: bit-identical repetition.

use interlag::core::experiment::{Lab, LabConfig};
use interlag::device::device::{CaptureMode, Device, DeviceConfig};
use interlag::device::dvfs::{FixedGovernor, Governor};
use interlag::device::script::InteractionCategory;
use interlag::evdev::replay::{ReplayAgent, SendeventReplayer};
use interlag::evdev::time::SimDuration;
use interlag::governors::{Interactive, Ondemand};
use interlag::power::opp::Frequency;
use interlag::workloads::datasets::Dataset;
use interlag::workloads::gen::{Workload, WorkloadBuilder, MCYCLES};

fn workload() -> Workload {
    let mut b = WorkloadBuilder::new(77);
    b.app_launch("launch", 600 * MCYCLES, 5, InteractionCategory::Common);
    b.think_ms(2_000, 3_000);
    for i in 0..3 {
        b.quick_tap(&format!("tap {i}"), 200 * MCYCLES, InteractionCategory::SimpleFrequent);
        b.think_ms(1_500, 2_500);
    }
    b.build("det", "determinism workload")
}

#[test]
fn identical_replays_are_bit_identical() {
    let w = workload();
    let trace = w.script.record_trace();
    let device = Device::new(DeviceConfig::default());
    let run = |gov_mhz: u32| {
        let mut gov = FixedGovernor::new(Frequency::from_mhz(gov_mhz));
        device
            .run(&w.script, ReplayAgent::new(trace.clone()), &mut gov, w.run_until())
            .expect("clean run")
    };
    let a = run(960);
    let b = run(960);
    assert_eq!(a.interactions, b.interactions);
    assert_eq!(a.activity, b.activity);
    let (va, vb) = (a.video.unwrap(), b.video.unwrap());
    assert_eq!(va.len(), vb.len());
    for (x, y) in va.iter().zip(vb.iter()) {
        assert_eq!(x.time, y.time);
        assert_eq!(x.buf.as_ref(), y.buf.as_ref());
    }
}

#[test]
fn governor_runs_are_also_deterministic() {
    let w = workload();
    let trace = w.script.record_trace();
    let device = Device::new(DeviceConfig::default());
    let run = || {
        let mut gov = Ondemand::default();
        device
            .run(&w.script, ReplayAgent::new(trace.clone()), &mut gov, w.run_until())
            .expect("clean run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.activity, b.activity);
    assert_eq!(a.interactions, b.interactions);
}

/// Capture only observes: on a real workload, with spinners, background
/// work and I/O waits under load-driven governors, a capture-free run must
/// reach exactly the ground truth and activity of an HDMI-captured one.
#[test]
fn capture_free_runs_match_hdmi_ground_truth_under_governors() {
    let w = Dataset::Mini.build();
    let trace = w.script.record_trace();
    let hdmi = Device::new(DeviceConfig::default());
    let quiet = Device::new(DeviceConfig { capture: CaptureMode::None, ..DeviceConfig::default() });
    let opps = hdmi.config().opps.clone();
    for name in ["ondemand", "interactive"] {
        let run = |device: &Device| {
            let mut gov: Box<dyn Governor> = match name {
                "ondemand" => Box::new(Ondemand::default()),
                _ => Box::new(Interactive::for_table(&opps)),
            };
            device
                .run(&w.script, ReplayAgent::new(trace.clone()), gov.as_mut(), w.run_until())
                .expect("clean run")
        };
        let (with_video, without) = (run(&hdmi), run(&quiet));
        assert!(with_video.video.is_some() && without.video.is_none());
        assert!(with_video.interactions.iter().any(|r| r.service_time.is_some()));
        assert_eq!(without.interactions, with_video.interactions, "{name}: interactions differ");
        assert_eq!(without.activity, with_video.activity, "{name}: activity differs");
    }
}

#[test]
fn dataset_builds_and_their_traces_are_reproducible() {
    for ds in [Dataset::D01, Dataset::D05] {
        let a = ds.build();
        let b = ds.build();
        assert_eq!(a.script, b.script);
        assert_eq!(a.script.record_trace(), b.script.record_trace());
    }
}

#[test]
fn getevent_text_reimport_reproduces_the_execution() {
    // Export a trace to text (as if recorded on real hardware), parse it
    // back, and verify the replayed execution is identical.
    let w = workload();
    let trace = w.script.record_trace();
    let text = trace.to_getevent_text();
    let reimported: interlag::evdev::trace::EventTrace = text.parse().expect("parses");

    let device = Device::new(DeviceConfig::default());
    let mut gov_a = FixedGovernor::new(Frequency::from_mhz(960));
    let a = device
        .run(&w.script, ReplayAgent::new(trace), &mut gov_a, w.run_until())
        .expect("clean run");
    let mut gov_b = FixedGovernor::new(Frequency::from_mhz(960));
    let b = device
        .run(&w.script, ReplayAgent::new(reimported), &mut gov_b, w.run_until())
        .expect("clean run");
    assert_eq!(a.interactions, b.interactions);
    assert_eq!(a.activity, b.activity);
}

#[test]
fn sendevent_replay_perturbs_measured_lags() {
    // The end-to-end consequence of inaccurate replay: lags measured from
    // a sendevent-driven execution differ from the accurate ones.
    let w = workload();
    let trace = w.script.record_trace();
    let config = DeviceConfig { capture: CaptureMode::None, ..Default::default() };
    let device = Device::new(config);

    let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
    let accurate = device
        .run(&w.script, ReplayAgent::new(trace.clone()), &mut gov, w.run_until())
        .expect("clean run");
    let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
    let smeared = device
        .run(&w.script, SendeventReplayer::new(trace), &mut gov, w.run_until())
        .expect("clean run");

    // Every interaction still triggers (order is preserved)…
    assert_eq!(
        accurate.interactions.iter().filter(|r| r.triggered).count(),
        smeared.interactions.iter().filter(|r| r.triggered).count()
    );
    // …but input timestamps drifted.
    let drift: Vec<SimDuration> = accurate
        .interactions
        .iter()
        .zip(&smeared.interactions)
        .map(|(a, s)| s.input_time.saturating_since(a.input_time))
        .collect();
    assert!(drift.iter().any(|d| *d > SimDuration::from_millis(5)), "{drift:?}");
}

#[test]
fn study_results_are_reproducible_for_equal_seeds() {
    let lab = Lab::new(LabConfig { reps: 1, ..Default::default() });
    let w = workload();
    let a = lab.study(&w).expect("study");
    let b = lab.study(&w).expect("study");
    for (ca, cb) in a.all_configs().zip(b.all_configs()) {
        assert_eq!(ca.name, cb.name);
        assert_eq!(ca.reps[0].profile, cb.reps[0].profile);
        assert_eq!(ca.reps[0].dynamic_energy_mj, cb.reps[0].dynamic_energy_mj);
        assert_eq!(ca.reps[0].irritation, cb.reps[0].irritation);
    }
}
