//! Per-cluster conformance oracles for the heterogeneous device.
//!
//! The single-cluster suite pins the simulator to analytic ground truth;
//! this file extends the same discipline to [`ClusterDevice`]:
//!
//! 1. **Compute-bound, pinned to big** — a pure-compute interaction
//!    pinned to the big cluster must service in `cycles / f_big` to
//!    within quantum rounding, for every big-cluster frequency, and the
//!    lag must shrink strictly monotonically as the big cluster speeds
//!    up while the LITTLE cluster's frequency is irrelevant.
//! 2. **Wait-bound on LITTLE** — an interaction dominated by an I/O wait
//!    executes on the efficiency cluster and its lag must not move with
//!    frequency at all (beyond quantum rounding).
//! 3. **Quiescent thermal transparency** — a single-cluster topology
//!    under a quiescent [`ThermalEnvelope`] is bit-identical to the
//!    plain [`Device`] baseline: same interactions, same activity trace.
//! 4. **big.LITTLE golden** — a `mini` run on the big.LITTLE topology,
//!    with migration, a big pin and thermal trips, rendered as CSV and
//!    held byte for byte against `tests/golden/big_little.csv`.

use interlag_device::cluster::{ClusterDevice, ClusterDeviceConfig, ClusterTopology};
use interlag_device::device::{CaptureMode, Device, DeviceConfig};
use interlag_device::dvfs::FixedGovernor;
use interlag_device::scene::{Scene, SceneUpdate};
use interlag_device::script::{DeviceScript, InteractionCategory, InteractionSpec};
use interlag_device::task::{Phase, TaskSpec};
use interlag_evdev::gesture::Gesture;
use interlag_evdev::mt::Point;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_faults::{ThermalEnvelope, ThermalFaults};
use interlag_governors::Interactive;
use interlag_power::opp::{Frequency, OppTable};

/// One tap driving a single response task.
fn one_tap_script(response: TaskSpec) -> DeviceScript {
    DeviceScript {
        interactions: vec![InteractionSpec {
            label: "probe".into(),
            start: SimTime::from_millis(500),
            gesture: Gesture::tap(Point::new(20, 30)),
            widget: Some(interlag_video::frame::Rect::new(10, 20, 30, 30)),
            response: Some(response),
            category: InteractionCategory::Common,
        }],
        background: Vec::new(),
        tick: None,
    }
}

/// Lag tolerance for analytic comparisons: the loop quantizes execution
/// to 1 ms quanta at both the dispatch and the service edge.
const QUANTUM_SLACK: SimDuration = SimDuration::from_millis(3);

fn close(measured: SimDuration, analytic: SimDuration) -> bool {
    let delta = measured.saturating_sub(analytic).max(analytic.saturating_sub(measured));
    delta <= QUANTUM_SLACK
}

#[test]
fn compute_bound_pinned_to_big_matches_the_analytic_lag() {
    const CYCLES: u64 = 200_000_000;
    let script = one_tap_script(TaskSpec::single(CYCLES, SceneUpdate::replace(Scene::new(7))));
    let trace = script.record_trace();
    let big_table = OppTable::snapdragon_8074();

    let mut lags = Vec::new();
    for opp in [big_table.opps()[0], big_table.opps()[6], big_table.opps()[13]] {
        let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
        config.pins = vec![(0, 1)]; // the probe runs on the big cluster
        let device = ClusterDevice::new(config);
        let mut little = FixedGovernor::new(Frequency::from_mhz(300));
        let mut big = FixedGovernor::new(opp.freq);
        let run = device
            .run(
                &script,
                ReplayAgent::new(trace.clone()),
                &mut [&mut little, &mut big],
                SimTime::from_secs(4),
            )
            .expect("clean run");
        let lag = run.interactions[0].true_lag().expect("probe serviced");
        let analytic = opp.freq.time_for(CYCLES);
        assert!(close(lag, analytic), "big @ {}: measured {lag} vs analytic {analytic}", opp.freq,);
        lags.push(lag);
    }
    assert!(
        lags.windows(2).all(|w| w[0] > w[1]),
        "compute-bound lag must shrink with big-cluster frequency: {lags:?}"
    );
}

#[test]
fn compute_bound_on_big_ignores_the_little_frequency() {
    const CYCLES: u64 = 200_000_000;
    let script = one_tap_script(TaskSpec::single(CYCLES, SceneUpdate::replace(Scene::new(7))));
    let trace = script.record_trace();
    let little_table = OppTable::cortex_a7_little();

    let lag_at = |little_freq: Frequency| {
        let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
        config.pins = vec![(0, 1)];
        let device = ClusterDevice::new(config);
        let mut little = FixedGovernor::new(little_freq);
        let mut big = FixedGovernor::new(Frequency::from_khz(2_150_400));
        let run = device
            .run(
                &script,
                ReplayAgent::new(trace.clone()),
                &mut [&mut little, &mut big],
                SimTime::from_secs(4),
            )
            .expect("clean run");
        run.interactions[0].true_lag().expect("probe serviced")
    };

    let slow = lag_at(little_table.min_freq());
    let fast = lag_at(little_table.max_freq());
    assert!(
        close(slow, fast),
        "a big-pinned probe must not see the LITTLE frequency: {slow} vs {fast}"
    );
}

#[test]
fn wait_bound_on_little_is_frequency_independent() {
    const WAIT: SimDuration = SimDuration::from_millis(300);
    let script = one_tap_script(TaskSpec::new(vec![Phase::with_wait(
        100_000,
        WAIT,
        SceneUpdate::replace(Scene::new(9)),
    )]));
    let trace = script.record_trace();
    let little_table = OppTable::cortex_a7_little();

    let mut lags = Vec::new();
    for freq in [little_table.min_freq(), Frequency::from_khz(652_800), little_table.max_freq()] {
        let device = ClusterDevice::new(ClusterDeviceConfig::new(ClusterTopology::big_little()));
        let mut little = FixedGovernor::new(freq);
        let mut big = FixedGovernor::new(Frequency::from_mhz(300));
        let run = device
            .run(
                &script,
                ReplayAgent::new(trace.clone()),
                &mut [&mut little, &mut big],
                SimTime::from_secs(4),
            )
            .expect("clean run");
        let lag = run.interactions[0].true_lag().expect("probe serviced");
        assert!(lag >= WAIT, "lag {lag} cannot undercut the scripted wait");
        lags.push(lag);
    }
    for pair in lags.windows(2) {
        assert!(
            close(pair[0], pair[1]),
            "wait-bound lag moved with the LITTLE frequency: {lags:?}"
        );
    }
}

#[test]
fn quiescent_thermal_off_is_bit_identical_to_the_single_cluster_baseline() {
    let script = one_tap_script(TaskSpec::single(120_000_000, SceneUpdate::replace(Scene::new(3))));
    let trace = script.record_trace();
    let until = SimTime::from_secs(4);
    let table = OppTable::snapdragon_8074();

    // Baseline: the plain device under a naked interactive governor.
    let device = Device::new(DeviceConfig { capture: CaptureMode::None, ..Default::default() });
    let mut naked = Interactive::for_table(&table);
    let baseline =
        device.run(&script, ReplayAgent::new(trace.clone()), &mut naked, until).expect("clean run");

    // Candidate: single-cluster topology, same governor wrapped in a
    // quiescent thermal envelope.
    let cluster =
        ClusterDevice::new(ClusterDeviceConfig::new(ClusterTopology::single(table.clone())));
    let mut inner = Interactive::for_table(&table);
    let mut envelope = ThermalEnvelope::new(&mut inner, ThermalFaults::quiescent());
    let run = cluster
        .run(&script, ReplayAgent::new(trace), &mut [&mut envelope], until)
        .expect("clean run");

    assert_eq!(run.interactions, baseline.interactions, "ground truth must not move");
    assert_eq!(run.activity.len(), 1);
    assert_eq!(run.activity[0], baseline.activity, "activity trace must be bit-identical");
    assert_eq!(run.migrations, 0);
    assert_eq!(envelope.trips(), 0, "a quiescent envelope never trips");
}

/// FNV-1a over every merged activity sample: pins the whole per-cluster
/// trace, not just its totals.
fn trace_digest(trace: &interlag_power::energy::ActivityTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in trace.samples() {
        let words = [
            s.start.as_micros(),
            s.duration.as_micros(),
            u64::from(s.freq.as_khz()),
            s.busy.as_micros(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pins a big.LITTLE run of the `mini` dataset bit for bit: background
/// work, ticks, spinners and I/O waits on both clusters, migration, a
/// foreground pin to big and thermal trips on the big cluster, under
/// each load-driven governor family.
#[test]
fn big_little_mini_run_matches_golden() {
    use interlag_governors::{Ondemand, Schedutil};
    use std::fmt::Write;

    let workload = interlag_workloads::Dataset::Mini.build();
    let trace = workload.script.record_trace();
    let until = workload.run_until();
    let topology = ClusterTopology::big_little();
    let little_table = topology.clusters()[0].opps.clone();
    let big_table = topology.clusters()[1].opps.clone();

    let mut csv = String::from("governor,row,key,value\n");
    for family in ["interactive", "ondemand", "schedutil"] {
        let make = |table: &OppTable| -> Box<dyn interlag_device::dvfs::Governor> {
            match family {
                "interactive" => Box::new(Interactive::for_table(table)),
                "ondemand" => Box::new(Ondemand::default()),
                _ => Box::new(Schedutil::default()),
            }
        };
        let mut config = ClusterDeviceConfig::new(topology.clone());
        config.pins = vec![(0, 1)]; // the app launch runs on big
        let device = ClusterDevice::new(config);
        let mut little = make(&little_table);
        let mut big_inner = make(&big_table);
        // `mini` is too short to exhaust the stock 2 s heat budget; a
        // 50 ms budget trips the cap on every governor.
        let thermal = ThermalFaults {
            budget: SimDuration::from_millis(50),
            ..ThermalFaults::for_table(&big_table)
        };
        let mut big = ThermalEnvelope::new(big_inner.as_mut(), thermal);
        let run = device
            .run(
                &workload.script,
                ReplayAgent::new(trace.clone()),
                &mut [little.as_mut(), &mut big],
                until,
            )
            .expect("clean run");

        for rec in &run.interactions {
            let service = rec.service_time.map_or("-".to_string(), |t| t.as_micros().to_string());
            writeln!(csv, "{family},interaction,{},{service}", rec.id).unwrap();
        }
        for (ci, activity) in run.activity.iter().enumerate() {
            let name = &topology.clusters()[ci].name;
            writeln!(csv, "{family},{name},samples,{}", activity.samples().len()).unwrap();
            writeln!(csv, "{family},{name},busy_us,{}", activity.busy_time().as_micros()).unwrap();
            for (freq, busy) in activity.busy_by_freq() {
                writeln!(csv, "{family},{name},busy_us@{},{}", freq.as_khz(), busy.as_micros())
                    .unwrap();
            }
            writeln!(csv, "{family},{name},digest,{:016x}", trace_digest(activity)).unwrap();
        }
        writeln!(csv, "{family},run,migrations,{}", run.migrations).unwrap();
        writeln!(csv, "{family},run,trips,{}", big.trips()).unwrap();
    }
    interlag_conformance::assert_matches_golden("big_little.csv", &csv);
}
