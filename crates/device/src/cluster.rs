//! The heterogeneous big.LITTLE device.
//!
//! The paper's testbed is a single active Krait core, but the phones that
//! followed it are heterogeneous: clusters of efficiency and performance
//! cores with distinct OPP tables, a scheduler migrating tasks between
//! them on load thresholds, and a thermal envelope capping the big
//! cluster under sustained load. [`ClusterDevice`] extends the paper's
//! simulator to that shape: each cluster runs one active core under its
//! own [`Governor`] and [`OppTable`], foreground work is dispatched to a
//! pinned cluster, and an HMP-style [`MigrationModel`] moves unpinned
//! tasks up and down on the per-cluster load signal.
//!
//! This module holds the topology, migration model and configuration; the
//! quantum loop itself lives in [`crate::device`] and is the one
//! [`Device`] runs. A [`ClusterTopology::single`] run is therefore
//! **bit-identical** (interactions and activity trace) to [`Device::run`]
//! with capture off, which tests here and in the conformance suite pin.
//! Thermal pressure is not modelled here: wrap the big cluster's governor
//! in the `interlag-faults` thermal envelope, which composes through the
//! [`Governor`] trait.

use interlag_evdev::replay::{ReplayStats, Replayer};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::CancelToken;
use interlag_power::energy::ActivityTrace;
use interlag_power::opp::OppTable;

use crate::device::{run_quanta, DeviceConfig, InteractionRecord, Stepping};
use crate::dvfs::Governor;
use crate::error::DeviceError;
use crate::script::DeviceScript;

#[cfg(doc)]
use crate::device::{Device, CANCEL_INTERVAL};

/// One CPU cluster: a name, its core count and its OPP table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Cluster name (`"LITTLE"`, `"big"`, `"cpu"`).
    pub name: String,
    /// Cores in the cluster (descriptive; like the paper's testbed, one
    /// core per cluster is active in the simulation).
    pub cores: u32,
    /// The cluster's operating points.
    pub opps: OppTable,
}

/// The device's cluster layout, efficiency clusters first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    clusters: Vec<ClusterSpec>,
}

impl ClusterTopology {
    /// A homogeneous single-cluster topology — the paper's device,
    /// expressed in cluster terms. Runs of this topology are
    /// bit-identical to [`Device::run`].
    pub fn single(opps: OppTable) -> Self {
        ClusterTopology { clusters: vec![ClusterSpec { name: "cpu".to_string(), cores: 1, opps }] }
    }

    /// The 4×LITTLE + 4×big reference topology: a Cortex-A7-class
    /// efficiency cluster (index 0) under the full Snapdragon table on
    /// the big cluster (index 1).
    pub fn big_little() -> Self {
        ClusterTopology {
            clusters: vec![
                ClusterSpec {
                    name: "LITTLE".to_string(),
                    cores: 4,
                    opps: OppTable::cortex_a7_little(),
                },
                ClusterSpec {
                    name: "big".to_string(),
                    cores: 4,
                    opps: OppTable::snapdragon_8074(),
                },
            ],
        }
    }

    /// The clusters, efficiency first.
    pub fn clusters(&self) -> &[ClusterSpec] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `false`: topologies always hold at least one cluster.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// HMP-style task migration thresholds on the per-cluster load signal.
///
/// Every `eval_period` the device computes each cluster's load over the
/// elapsed window; a cluster at or above `up_threshold` hands its oldest
/// migratable task to the next-bigger cluster, one at or below
/// `down_threshold` hands it to the next-smaller one. Pinned foreground
/// work and UI render passes never migrate. With a single cluster the
/// model is inert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Load percentage at or above which a task up-migrates.
    pub up_threshold: f64,
    /// Load percentage at or below which a task down-migrates.
    pub down_threshold: f64,
    /// How often migration is evaluated.
    pub eval_period: SimDuration,
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel {
            up_threshold: 80.0,
            down_threshold: 20.0,
            eval_period: SimDuration::from_millis(20),
        }
    }
}

/// Static configuration of the heterogeneous device.
#[derive(Debug, Clone)]
pub struct ClusterDeviceConfig {
    /// The cluster layout.
    pub topology: ClusterTopology,
    /// The migration thresholds.
    pub migration: MigrationModel,
    /// Simulation step.
    pub quantum: SimDuration,
    /// Kernel + framework cost of handling one input packet, in cycles.
    pub input_cost_cycles: u64,
    /// UI-thread cost of producing one animation frame, in cycles.
    pub ui_render_cycles: u64,
    /// Foreground pinning: `(interaction id, cluster index)` pairs.
    /// Unpinned interactions dispatch to cluster 0, like all background
    /// work, and may then migrate.
    pub pins: Vec<(usize, usize)>,
}

impl ClusterDeviceConfig {
    /// [`DeviceConfig::default`]'s quantum and input and render costs on
    /// the given topology, with no pins.
    pub fn new(topology: ClusterTopology) -> Self {
        let device = DeviceConfig::default();
        ClusterDeviceConfig {
            topology,
            migration: MigrationModel::default(),
            quantum: device.quantum,
            input_cost_cycles: device.input_cost_cycles,
            ui_render_cycles: device.ui_render_cycles,
            pins: Vec::new(),
        }
    }

    /// The cluster an interaction's foreground task is pinned to
    /// (cluster 0 when unpinned), clamped onto the topology.
    pub(crate) fn pin_of(&self, id: usize) -> usize {
        self.pins
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, c)| (*c).min(self.topology.len() - 1))
            .unwrap_or(0)
    }
}

/// Everything one heterogeneous workload execution produces.
#[derive(Debug, Clone)]
pub struct ClusterRunArtifacts {
    /// Per-cluster governor names, cluster order.
    pub governor_names: Vec<String>,
    /// Per-cluster frequency/busy traces for the energy model.
    pub activity: Vec<ActivityTrace>,
    /// Ground-truth interaction log (shared across clusters).
    pub interactions: Vec<InteractionRecord>,
    /// Replay-agent timing statistics.
    pub replay: ReplayStats,
    /// Malformed input events the device tolerated.
    pub input_faults: usize,
    /// Tasks moved between clusters by the migration model.
    pub migrations: u64,
    /// When the run ended.
    pub end_time: SimTime,
}

/// The simulated heterogeneous phone.
///
/// # Examples
///
/// ```
/// use interlag_device::cluster::{ClusterDevice, ClusterDeviceConfig, ClusterTopology};
/// use interlag_device::dvfs::FixedGovernor;
/// use interlag_device::scene::{Scene, SceneUpdate};
/// use interlag_device::script::{DeviceScript, InteractionCategory, InteractionSpec};
/// use interlag_device::task::TaskSpec;
/// use interlag_evdev::gesture::Gesture;
/// use interlag_evdev::mt::Point;
/// use interlag_evdev::replay::ReplayAgent;
/// use interlag_evdev::time::SimTime;
/// use interlag_video::frame::Rect;
///
/// let script = DeviceScript {
///     interactions: vec![InteractionSpec {
///         label: "launch".into(),
///         start: SimTime::from_millis(500),
///         gesture: Gesture::tap(Point::new(20, 40)),
///         widget: Some(Rect::new(10, 30, 20, 20)),
///         response: Some(TaskSpec::single(50_000_000, SceneUpdate::replace(Scene::new(7)))),
///         category: InteractionCategory::Common,
///     }],
///     background: Vec::new(),
///     tick: None,
/// };
/// let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
/// config.pins = vec![(0, 1)]; // pin the launch to the big cluster
/// let device = ClusterDevice::new(config);
/// let trace = script.record_trace();
/// let mut little = FixedGovernor::new(interlag_power::opp::Frequency::from_mhz(300));
/// let mut big = FixedGovernor::new(interlag_power::opp::Frequency::from_mhz(2_150));
/// let run = device
///     .run(&script, ReplayAgent::new(trace), &mut [&mut little, &mut big], SimTime::from_secs(3))
///     .expect("clean run");
/// assert!(run.interactions[0].true_lag().expect("serviced").as_millis() < 100);
/// ```
#[derive(Debug)]
pub struct ClusterDevice {
    config: ClusterDeviceConfig,
}

impl ClusterDevice {
    /// Creates a heterogeneous device.
    ///
    /// # Panics
    ///
    /// Panics if the quantum is zero.
    pub fn new(config: ClusterDeviceConfig) -> Self {
        assert!(!config.quantum.is_zero(), "quantum must be positive");
        ClusterDevice { config }
    }

    /// The device configuration.
    pub fn config(&self) -> &ClusterDeviceConfig {
        &self.config
    }

    /// Executes one workload run from a freshly-booted state, one
    /// governor per cluster in cluster order.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] as for [`Device::run`] (without the capture
    /// family: the cluster device records ground truth, not video).
    ///
    /// # Panics
    ///
    /// Panics if `governors` does not match the topology's cluster count.
    pub fn run<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governors: &mut [&mut dyn Governor],
        until: SimTime,
    ) -> Result<ClusterRunArtifacts, DeviceError> {
        self.run_cancellable(script, replayer, governors, until, &CancelToken::none())
    }

    /// Like [`ClusterDevice::run`], with a watchdog token polled every
    /// [`CANCEL_INTERVAL`] of simulated time.
    ///
    /// # Errors
    ///
    /// As for [`ClusterDevice::run`], plus [`DeviceError::Cancelled`] if
    /// the token fires mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `governors` does not match the topology's cluster count.
    pub fn run_cancellable<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governors: &mut [&mut dyn Governor],
        until: SimTime,
        cancel: &CancelToken,
    ) -> Result<ClusterRunArtifacts, DeviceError> {
        let disabled = &interlag_obs::DISABLED;
        let (config, skip) = (&self.config, Stepping::Skip);
        let (run, _) =
            run_quanta(config, disabled, script, replayer, governors, until, None, cancel, skip)?;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{CaptureMode, Device};
    use crate::dvfs::FixedGovernor;
    use crate::scene::{Scene, SceneUpdate};
    use crate::script::{BackgroundWork, InteractionCategory, InteractionSpec, PeriodicTick};
    use crate::task::TaskSpec;
    use interlag_evdev::gesture::Gesture;
    use interlag_evdev::mt::Point;
    use interlag_evdev::replay::ReplayAgent;
    use interlag_power::opp::Frequency;
    use interlag_video::frame::Rect;

    fn simple_script() -> DeviceScript {
        let widget = Rect::new(10, 20, 30, 30);
        DeviceScript {
            interactions: vec![
                InteractionSpec {
                    label: "open app".into(),
                    start: SimTime::from_millis(500),
                    gesture: Gesture::tap(Point::new(20, 30)),
                    widget: Some(widget),
                    response: Some(TaskSpec::single(
                        60_000_000,
                        SceneUpdate::replace(Scene::new(99)),
                    )),
                    category: InteractionCategory::SimpleFrequent,
                },
                InteractionSpec {
                    label: "tap more".into(),
                    start: SimTime::from_millis(2_000),
                    gesture: Gesture::tap(Point::new(20, 30)),
                    widget: Some(widget),
                    response: Some(TaskSpec::single(
                        30_000_000,
                        SceneUpdate::replace(Scene::new(44)),
                    )),
                    category: InteractionCategory::SimpleFrequent,
                },
            ],
            background: vec![BackgroundWork {
                label: "sync".into(),
                start: SimTime::from_millis(3_000),
                cycles: 3_000_000,
            }],
            tick: Some(PeriodicTick::default()),
        }
    }

    #[test]
    fn single_cluster_is_bit_identical_to_the_device() {
        let script = simple_script();
        let trace = script.record_trace();
        let until = SimTime::from_secs(5);

        let device = Device::new(DeviceConfig { capture: CaptureMode::None, ..Default::default() });
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let baseline = device
            .run(&script, ReplayAgent::new(trace.clone()), &mut gov, until)
            .expect("clean run");

        let cluster = ClusterDevice::new(ClusterDeviceConfig::new(ClusterTopology::single(
            OppTable::snapdragon_8074(),
        )));
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = cluster
            .run(&script, ReplayAgent::new(trace), &mut [&mut gov], until)
            .expect("clean run");

        assert_eq!(run.interactions, baseline.interactions);
        assert_eq!(run.activity.len(), 1);
        assert_eq!(run.activity[0], baseline.activity);
        assert_eq!(run.migrations, 0);
    }

    #[test]
    fn pinned_compute_runs_at_the_big_clusters_speed() {
        let script = simple_script();
        let trace = script.record_trace();
        let until = SimTime::from_secs(5);

        let lag_with_pin = |pin_cluster: usize| {
            let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
            config.pins = vec![(0, pin_cluster), (1, pin_cluster)];
            let device = ClusterDevice::new(config);
            let mut little = FixedGovernor::new(Frequency::from_mhz(300));
            let mut big = FixedGovernor::new(Frequency::from_khz(2_150_400));
            let run = device
                .run(&script, ReplayAgent::new(trace.clone()), &mut [&mut little, &mut big], until)
                .expect("clean run");
            run.interactions[0].true_lag().expect("serviced")
        };

        let on_little = lag_with_pin(0);
        let on_big = lag_with_pin(1);
        // 60 M cycles: ~200 ms at 300 MHz, ~28 ms at 2.15 GHz.
        assert!(on_little > on_big * 4, "{on_little} vs {on_big}");
    }

    #[test]
    fn sustained_background_load_up_migrates() {
        // Saturate the LITTLE cluster with background work: the migration
        // model must move some of it to the (idle, faster) big cluster.
        let script = DeviceScript {
            interactions: Vec::new(),
            background: (0..8)
                .map(|i| BackgroundWork {
                    label: format!("bg{i}"),
                    start: SimTime::from_millis(100),
                    cycles: 400_000_000,
                })
                .collect(),
            tick: None,
        };
        let device = ClusterDevice::new(ClusterDeviceConfig::new(ClusterTopology::big_little()));
        let mut little = FixedGovernor::new(Frequency::from_mhz(1_190));
        let mut big = FixedGovernor::new(Frequency::from_khz(2_150_400));
        let run = device
            .run(
                &script,
                ReplayAgent::new(interlag_evdev::trace::EventTrace::new()),
                &mut [&mut little, &mut big],
                SimTime::from_secs(3),
            )
            .expect("clean run");
        assert!(run.migrations > 0, "no up-migration under saturation");
        assert!(
            run.activity[1].busy_time() > SimDuration::from_millis(100),
            "big cluster never picked up migrated work"
        );
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let script = simple_script();
        let trace = script.record_trace();
        let run = |_: usize| {
            let mut config = ClusterDeviceConfig::new(ClusterTopology::big_little());
            config.pins = vec![(0, 1)];
            let device = ClusterDevice::new(config);
            let mut little = FixedGovernor::new(Frequency::from_mhz(600));
            let mut big = FixedGovernor::new(Frequency::from_mhz(1_500));
            device
                .run(
                    &script,
                    ReplayAgent::new(trace.clone()),
                    &mut [&mut little, &mut big],
                    SimTime::from_secs(5),
                )
                .expect("clean run")
        };
        let (a, b) = (run(0), run(1));
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.activity, b.activity);
        assert_eq!(a.migrations, b.migrations);
    }
}
