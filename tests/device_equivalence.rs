//! The skipping device loop against its one-quantum reference.
//!
//! `run_quanta` advances every quiet quantum before its next event
//! horizon in one step; `interlag_device::reference` runs the same loop
//! one quantum at a time. Over random scripts, governors, fault
//! configurations, replayers, capture paths, quantum lengths and one- and
//! two-cluster topologies the two must agree on everything a run
//! produces: interactions, activity traces, replay statistics, every
//! governor call with its arguments, and every captured frame's timestamp
//! and pixels.
//!
//! Governors whose decision is a pure function of time (plans, pinned
//! frequencies) are sampled only where [`Governor::quiet_until`] allows a
//! change; against the same governor sampled every period they must
//! produce the same run.

use interlag::device::cluster::{ClusterDevice, ClusterDeviceConfig, ClusterTopology};
use interlag::device::device::{CaptureMode, Device, DeviceConfig, RunArtifacts};
use interlag::device::dvfs::{FixedGovernor, Governor, LoadSample};
use interlag::device::reference;
use interlag::device::script::{DeviceScript, InteractionCategory, PeriodicTick};
use interlag::evdev::event::TimedEvent;
use interlag::evdev::gesture::HardKey;
use interlag::evdev::replay::{ReplayAgent, ReplayStats, Replayer, SendeventReplayer};
use interlag::evdev::rng::SplitMix64;
use interlag::evdev::time::{SimDuration, SimTime};
use interlag::evdev::trace::EventTrace;
use interlag::faults::{
    FaultConfig, FaultStreams, FaultyCapture, FaultyGovernor, FaultyReplayer, ThermalEnvelope,
    ThermalFaults,
};
use interlag::governors::{
    Conservative, ConservativeTunables, FrequencyPlan, Interactive, Ondemand, OndemandTunables,
    PlanGovernor,
};
use interlag::power::opp::{Frequency, OppTable};
use interlag::video::capture::HdmiCapture;
use interlag::workloads::gen::{WorkloadBuilder, MCYCLES};
use proptest::prelude::*;

/// One governor call, as the device made it.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Init,
    Sample(SimTime, LoadSample, Frequency),
    Input(SimTime, Option<Frequency>),
}

/// Records every call the device makes into the wrapped governor.
struct Logged<'a> {
    inner: &'a mut dyn Governor,
    calls: Vec<Call>,
}

impl<'a> Logged<'a> {
    fn new(inner: &'a mut dyn Governor) -> Self {
        Logged { inner, calls: Vec::new() }
    }
}

impl Governor for Logged<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        self.calls.push(Call::Init);
        self.inner.init(table)
    }

    fn sample_period(&self) -> SimDuration {
        self.inner.sample_period()
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        let f = self.inner.on_sample(now, load, table);
        self.calls.push(Call::Sample(now, load, f));
        f
    }

    fn on_input(&mut self, now: SimTime, table: &OppTable) -> Option<Frequency> {
        let f = self.inner.on_input(now, table);
        self.calls.push(Call::Input(now, f));
        f
    }

    fn quiet_until(&self, at: SimTime) -> SimTime {
        self.inner.quiet_until(at)
    }
}

/// Hides the wrapped governor's quiet horizon, so the device samples it
/// every period.
struct Dense<'a>(&'a mut dyn Governor);

impl Governor for Dense<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        self.0.init(table)
    }

    fn sample_period(&self) -> SimDuration {
        self.0.sample_period()
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        self.0.on_sample(now, load, table)
    }

    fn on_input(&mut self, now: SimTime, table: &OppTable) -> Option<Frequency> {
        self.0.on_input(now, table)
    }
}

/// The timing-accurate replay agent, or the stock-`sendevent` model whose
/// events arrive late and re-stamped.
enum Input {
    Agent(ReplayAgent),
    Sendevent(SendeventReplayer),
}

impl Input {
    fn new(trace: &EventTrace, sendevent: bool) -> Self {
        if sendevent {
            Input::Sendevent(SendeventReplayer::new(trace.clone()))
        } else {
            Input::Agent(ReplayAgent::new(trace.clone()))
        }
    }
}

impl Replayer for Input {
    fn poll(&mut self, now: SimTime) -> Vec<TimedEvent> {
        match self {
            Input::Agent(r) => r.poll(now),
            Input::Sendevent(r) => r.poll(now),
        }
    }

    fn is_finished(&self) -> bool {
        match self {
            Input::Agent(r) => r.is_finished(),
            Input::Sendevent(r) => r.is_finished(),
        }
    }

    fn stats(&self) -> ReplayStats {
        match self {
            Input::Agent(r) => r.stats(),
            Input::Sendevent(r) => r.stats(),
        }
    }

    fn next_due(&self) -> Option<SimTime> {
        match self {
            Input::Agent(r) => r.next_due(),
            Input::Sendevent(r) => r.next_due(),
        }
    }
}

/// A random session: each op one interaction family (spinners, cursors,
/// I/O waits, background bursts, hard keys), separated by think times
/// that include multi-second idle stretches.
fn script(seed: u64, ops: &[u8], tick: u8) -> (DeviceScript, SimTime) {
    let mut b = WorkloadBuilder::new(seed);
    match tick {
        0 => {
            b.set_tick(None);
        }
        1 => {
            b.set_tick(Some(PeriodicTick {
                period: SimDuration::from_millis(37),
                cycles: 3 * MCYCLES,
            }));
        }
        _ => {} // the builder's default 80 ms tick
    }
    let mut content = SplitMix64::new(seed ^ 0x5eed);
    for (i, op) in ops.iter().enumerate() {
        let label = format!("op{i}");
        match op % 12 {
            0 => b.app_launch(&label, 300 * MCYCLES, 4, InteractionCategory::Common),
            1 => b.page_load(&label, 200 * MCYCLES, 3, SimDuration::from_millis(120), &mut content),
            2 => b.quick_tap(&label, 40 * MCYCLES, InteractionCategory::SimpleFrequent),
            3 => b.typing_burst(&label, 3, 6 * MCYCLES),
            4 => b.heavy_with_progress(&label, 900 * MCYCLES, InteractionCategory::Complex),
            5 => b.game_session(&label, SimDuration::from_millis(900), 4 * MCYCLES),
            6 => b.spurious_tap(&label),
            7 => b.key_press(&label, HardKey::Back, 30 * MCYCLES),
            8 => b.background_burst(&label, SimDuration::from_millis(150), 120 * MCYCLES),
            9 => b.scroll(&label, 60 * MCYCLES, InteractionCategory::SimpleFrequent),
            10 => b.think_ms(2_000, 3_000),
            _ => b.app_launch_with_content(
                &label,
                250 * MCYCLES,
                3,
                InteractionCategory::Common,
                &mut content,
            ),
        };
        b.think_ms(100, 1_200);
    }
    let w = b.build("equivalence", "random session");
    let slack = SimDuration::from_millis(300 + seed % 2_500);
    (w.script.clone(), SimTime::ZERO + w.duration + slack)
}

/// Governor `which` for a cluster with table `opps`.
fn governor(which: u8, opps: &OppTable, seed: u64) -> Box<dyn Governor> {
    match which % 5 {
        0 => Box::new(FixedGovernor::new(
            opps.frequencies().nth(seed as usize % opps.len()).unwrap(),
        )),
        1 => Box::new(Ondemand::new(OndemandTunables::default())),
        2 => Box::new(Interactive::for_table(opps)),
        3 => Box::new(Conservative::new(ConservativeTunables::default())),
        _ => {
            // A staircase plan with a change every 700 ms.
            let freqs: Vec<Frequency> = opps.frequencies().collect();
            let mut plan = FrequencyPlan::new(freqs[0]);
            for step in 1..20u64 {
                let f = freqs[(seed.wrapping_add(step * 7) % freqs.len() as u64) as usize];
                plan.set_from(SimTime::from_millis(700 * step), f);
            }
            Box::new(PlanGovernor::new("plan", plan))
        }
    }
}

/// Quanta that keep event grids (100 ms spinner, 20 ms sampling, 33.3 ms
/// frames) aligned, and ones that do not.
fn quantum(which: u8) -> SimDuration {
    SimDuration::from_micros([1_000, 1_000, 700, 3_000][which as usize % 4])
}

fn fault_config(which: u8, seed: u64) -> FaultConfig {
    match which % 3 {
        0 => FaultConfig::quiescent(seed),
        1 => FaultConfig::uniform(seed, 0.05),
        _ => {
            let mut c = FaultConfig::uniform(seed, 0.2);
            c.replay.max_delay_us = 40_000;
            c
        }
    }
}

fn assert_same_run(fast: &RunArtifacts, slow: &RunArtifacts) -> Result<(), TestCaseError> {
    prop_assert_eq!(&fast.governor_name, &slow.governor_name);
    prop_assert_eq!(&fast.interactions, &slow.interactions);
    prop_assert_eq!(&fast.activity, &slow.activity);
    prop_assert_eq!(fast.replay, slow.replay);
    prop_assert_eq!(fast.input_faults, slow.input_faults);
    prop_assert_eq!(fast.end_time, slow.end_time);
    prop_assert_eq!(fast.video.is_some(), slow.video.is_some());
    if let (Some(a), Some(b)) = (&fast.video, &slow.video) {
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.time, y.time);
            prop_assert!(x.buf == y.buf, "frames at {} differ", x.time);
        }
    }
    Ok(())
}

proptest! {
    /// One cluster, the paper's device: HDMI (clean tap or fault-injected
    /// link), camera or no capture; either replayer.
    #[test]
    fn single_cluster_runs_equal_the_one_quantum_reference(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(0u8..12, 1..6),
        (which, fault, capture, tick, q, replay) in
            (0u8..5, 0u8..3, 0u8..4, 0u8..3, 0u8..4, 0u8..4),
    ) {
        let (script, until) = script(seed, &ops, tick);
        let trace = script.record_trace();
        let fc = fault_config(fault, seed);
        let mode = match capture {
            0 | 1 => CaptureMode::Hdmi,
            2 => CaptureMode::Camera { seed },
            _ => CaptureMode::None,
        };
        let config = DeviceConfig { capture: mode, quantum: quantum(q), ..DeviceConfig::default() };
        let device = Device::new(config);
        let opps = device.config().opps.clone();
        let run = |skip: bool| {
            let streams = FaultStreams::derive(fc.seed, which as u64, 0, 0);
            let input = Input::new(&trace, replay == 0);
            let replayer = FaultyReplayer::new(input, fc.replay, streams.replay);
            let mut inner = governor(which, &opps, seed);
            let mut faulty = FaultyGovernor::new(inner.as_mut(), fc.dvfs, streams.dvfs);
            let mut gov = Logged::new(&mut faulty);
            let run = if capture == 1 {
                // The fault-injected capture link, as a study rep wires it.
                let mut link = FaultyCapture::new(HdmiCapture::new(), fc.capture, streams.capture);
                if skip {
                    device.run_with_capture(&script, replayer, &mut gov, until, &mut link)
                } else {
                    reference::run_with_capture(&device, &script, replayer, &mut gov, until, &mut link)
                }
            } else if skip {
                device.run(&script, replayer, &mut gov, until)
            } else {
                reference::run(&device, &script, replayer, &mut gov, until)
            };
            (run.expect("clean run"), gov.calls)
        };
        let (fast, fast_calls) = run(true);
        let (slow, slow_calls) = run(false);
        assert_same_run(&fast, &slow)?;
        prop_assert_eq!(fast_calls, slow_calls);
    }

    /// Two clusters: migration, pins and a thermal envelope on big.
    #[test]
    fn big_little_runs_equal_the_one_quantum_reference(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(0u8..12, 1..6),
        (little_gov, big_gov, fault, tick, pinned, q) in
            (0u8..5, 0u8..5, 0u8..3, 0u8..3, 0u8..2, 0u8..4),
    ) {
        let (script, until) = script(seed, &ops, tick);
        let trace = script.record_trace();
        let fc = fault_config(fault, seed);
        let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
        config.quantum = quantum(q);
        if pinned == 1 {
            config.pins = vec![(0, 1), (2, 1)];
        }
        let device = ClusterDevice::new(config);
        let tables: Vec<OppTable> =
            device.config().topology.clusters().iter().map(|c| c.opps.clone()).collect();
        let run = |skip: bool| {
            let streams = FaultStreams::derive(fc.seed, 7, 0, 0);
            let replayer =
                FaultyReplayer::new(ReplayAgent::new(trace.clone()), fc.replay, streams.replay);
            let mut little = governor(little_gov, &tables[0], seed);
            let mut big = governor(big_gov, &tables[1], seed >> 3);
            let mut thermal = ThermalFaults::for_table(&tables[1]);
            thermal.budget = SimDuration::from_millis(80);
            let mut hot = ThermalEnvelope::new(big.as_mut(), thermal);
            let mut faulty = FaultyGovernor::new(&mut hot, fc.dvfs, streams.dvfs);
            let mut l = Logged::new(little.as_mut());
            let mut b = Logged::new(&mut faulty);
            let run = {
                let govs: &mut [&mut dyn Governor] = &mut [&mut l, &mut b];
                if skip {
                    device.run(&script, replayer, govs, until)
                } else {
                    reference::run_clusters(&device, &script, replayer, govs, until)
                }
            };
            (run.expect("clean run"), l.calls, b.calls)
        };
        let (fast, fast_little, fast_big) = run(true);
        let (slow, slow_little, slow_big) = run(false);
        prop_assert_eq!(&fast.governor_names, &slow.governor_names);
        prop_assert_eq!(&fast.interactions, &slow.interactions);
        prop_assert_eq!(&fast.activity, &slow.activity);
        prop_assert_eq!(fast.replay, slow.replay);
        prop_assert_eq!(fast.input_faults, slow.input_faults);
        prop_assert_eq!(fast.migrations, slow.migrations);
        prop_assert_eq!(fast.end_time, slow.end_time);
        prop_assert_eq!(fast_little, slow_little);
        prop_assert_eq!(fast_big, slow_big);
    }

    /// Plans with steps off the quantum grid, and pinned frequencies,
    /// sampled only at their quiet horizons against the same governors
    /// sampled every period: one cluster under each capture path, and two
    /// clusters.
    #[test]
    fn quiet_horizon_runs_equal_dense_sampling(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(0u8..12, 1..5),
        little_steps in plan_steps(),
        big_steps in plan_steps(),
        (little_kind, big_kind, capture, q, clusters) in (0u8..2, 0u8..2, 0u8..3, 0u8..4, 1u8..3),
    ) {
        let (script, until) = script(seed, &ops, 2);
        let trace = script.record_trace();
        let quantum = SimDuration::from_micros([700, 1_000, 1_300, 3_000][q as usize]);
        let quiet = |kind: u8, steps: &[(u64, usize)], opps: &OppTable| -> Box<dyn Governor> {
            if kind == 0 {
                Box::new(PlanGovernor::new("plan", plan(steps, opps)))
            } else {
                let f = opps.frequencies().nth(steps.len() % opps.len()).unwrap();
                Box::new(FixedGovernor::new(f))
            }
        };
        if clusters == 1 {
            let mode = match capture {
                0 => CaptureMode::Hdmi,
                1 => CaptureMode::Camera { seed },
                _ => CaptureMode::None,
            };
            let config = DeviceConfig { capture: mode, quantum, ..DeviceConfig::default() };
            let device = Device::new(config);
            let opps = device.config().opps.clone();
            let run = |dense: bool| {
                let mut inner = quiet(little_kind, &little_steps, &opps);
                let mut hidden = Dense(inner.as_mut());
                let target: &mut dyn Governor = if dense { &mut hidden } else { hidden.0 };
                let mut gov = Logged::new(target);
                let run = device.run(&script, ReplayAgent::new(trace.clone()), &mut gov, until);
                (run.expect("clean run"), gov.calls)
            };
            let (sparse, sparse_calls) = run(false);
            let (dense, dense_calls) = run(true);
            assert_same_run(&sparse, &dense)?;
            assert_samples_agree(&sparse_calls, &dense_calls)?;
        } else {
            let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
            config.quantum = quantum;
            let device = ClusterDevice::new(config);
            let tables: Vec<OppTable> =
                device.config().topology.clusters().iter().map(|c| c.opps.clone()).collect();
            let run = |dense: bool| {
                let mut little = quiet(little_kind, &little_steps, &tables[0]);
                let mut big = quiet(big_kind, &big_steps, &tables[1]);
                let (mut dl, mut db) = (Dense(little.as_mut()), Dense(big.as_mut()));
                let (l, b): (&mut dyn Governor, &mut dyn Governor) =
                    if dense { (&mut dl, &mut db) } else { (dl.0, db.0) };
                let (mut l, mut b) = (Logged::new(l), Logged::new(b));
                let run = {
                    let govs: &mut [&mut dyn Governor] = &mut [&mut l, &mut b];
                    device.run(&script, ReplayAgent::new(trace.clone()), govs, until)
                };
                (run.expect("clean run"), l.calls, b.calls)
            };
            let (sparse, sparse_little, sparse_big) = run(false);
            let (dense, dense_little, dense_big) = run(true);
            prop_assert_eq!(&sparse.interactions, &dense.interactions);
            prop_assert_eq!(&sparse.activity, &dense.activity);
            prop_assert_eq!(sparse.replay, dense.replay);
            prop_assert_eq!(sparse.migrations, dense.migrations);
            prop_assert_eq!(sparse.end_time, dense.end_time);
            assert_samples_agree(&sparse_little, &dense_little)?;
            assert_samples_agree(&sparse_big, &dense_big)?;
        }
    }
}

/// Up to 30 plan steps at arbitrary microseconds within the first 12 s,
/// about the length of a `script` session: (time, OPP index).
fn plan_steps() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..12_000_000, 0usize..64), 0..30)
}

fn plan(steps: &[(u64, usize)], opps: &OppTable) -> FrequencyPlan {
    let freqs: Vec<Frequency> = opps.frequencies().collect();
    let mut plan = FrequencyPlan::new(freqs[steps.len() % freqs.len()]);
    for &(us, i) in steps {
        plan.set_from(SimTime::from_micros(us), freqs[i % freqs.len()]);
    }
    plan
}

/// Every sample the sparse run took, the dense run took too, at the same
/// instant and with the same frequency; the inputs match call for call.
fn assert_samples_agree(sparse: &[Call], dense: &[Call]) -> Result<(), TestCaseError> {
    let samples = |calls: &[Call]| -> Vec<(SimTime, Frequency)> {
        calls
            .iter()
            .filter_map(|c| match c {
                Call::Sample(at, _, f) => Some((*at, *f)),
                _ => None,
            })
            .collect()
    };
    let inputs = |calls: &[Call]| -> Vec<Call> {
        calls.iter().filter(|c| !matches!(c, Call::Sample(..))).cloned().collect()
    };
    prop_assert_eq!(inputs(sparse), inputs(dense));
    let dense_samples = samples(dense);
    for (at, f) in samples(sparse) {
        let i = dense_samples.binary_search_by_key(&at, |&(t, _)| t);
        prop_assert!(i.is_ok(), "sparse sample at {} missing from the dense run", at);
        prop_assert_eq!(dense_samples[i.unwrap()].1, f, "frequency at {}", at);
    }
    Ok(())
}
