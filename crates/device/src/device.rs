//! The simulated mobile device and its execution loop.
//!
//! [`Device::run`] replays a recorded input trace against a
//! [`DeviceScript`] under a chosen [`Governor`], reproducing one "workload
//! execution" of the paper: input events are delivered from the replay
//! agent, the scripted app reacts by spawning compute tasks, the active
//! core executes them at the governor-selected frequency, the screen
//! repaints as phases complete, and the HDMI tap captures the video —
//! while frequency/load traces accumulate for the energy model.
//!
//! One quantum loop drives every device model. It runs N clusters, each
//! one active core with its own OPP table, governor, run queues and
//! activity trace; input, the scene, interactions and deferred updates
//! are shared. [`Device`] runs it over one cluster — the paper's single
//! active core (it disables the other three, §III-C) — and records the
//! video; [`ClusterDevice`](crate::cluster::ClusterDevice) runs it over a
//! topology's clusters with pins and task migration, and records none.
//!
//! The loop advances in 1 ms quanta: well below the 33 ms frame period and
//! the 20 ms governor sampling period, so every externally visible timing
//! is accurate to a fraction of the measurement resolution. Most quanta
//! change nothing but the clock — an idle core, or a long phase
//! grinding on at a fixed frequency — so each step of the loop computes
//! its *next event horizon* and runs every quantum up to it at once, with
//! byte-identical results. [`reference`](mod@reference) runs the same
//! loop one quantum per step, as the ground truth for that equivalence.
//! Likewise a governor whose decision is a pure function of time is
//! sampled only where a sample can change the frequency
//! ([`Governor::quiet_until`]).

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use interlag_evdev::event::codes::BTN_TOUCH;
use interlag_evdev::event::{EventType, TimedEvent};
use interlag_evdev::mt::{ContactEvent, MtDecoder, Point};
use interlag_evdev::replay::{ReplayStats, Replayer};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::CancelToken;
use interlag_power::energy::{ActivitySample, ActivityTrace};
use interlag_power::opp::{Frequency, OppTable};
use interlag_video::capture::{capture_due, CameraCapture, CaptureLink};
use interlag_video::frame::FrameBuffer;
use interlag_video::stream::VideoStream;

use crate::cluster::{ClusterDeviceConfig, ClusterRunArtifacts, ClusterSpec, ClusterTopology};
use crate::dvfs::{Governor, LoadSample};
use crate::error::DeviceError;
use crate::render::{DecorationState, Renderer, ScreenConfig};
use crate::scene::{Scene, SceneUpdate};
use crate::script::{DeviceScript, InteractionCategory};
use crate::task::{Task, TaskKind, TaskSpec};

/// How often, in simulated time, the execution loop polls its watchdog
/// token: on the first quantum that starts at or after each multiple of
/// the interval, whether it runs alone or inside a longer step. Skipping
/// therefore never stretches cancellation latency past one interval of
/// simulated work — far below any sensible rep deadline.
pub const CANCEL_INTERVAL: SimDuration = SimDuration::from_millis(64);

/// The run's watchdog token, polled on the first quantum that starts at
/// or after each multiple of [`CANCEL_INTERVAL`], so the common
/// (no-watchdog) case costs one compare per poll point and deadline
/// tokens read the clock rarely.
struct Watchdog<'a> {
    cancel: &'a CancelToken,
    /// The next multiple of the interval.
    next: SimTime,
}

impl Watchdog<'_> {
    /// Polls the token if a quantum starting at `now` is due to.
    fn poll(&mut self, now: SimTime) -> Result<(), DeviceError> {
        if now >= self.next {
            if self.cancel.is_cancelled() {
                return Err(DeviceError::Cancelled);
            }
            let every = CANCEL_INTERVAL.as_micros();
            self.next = SimTime::from_micros((now.as_micros() / every + 1) * every);
        }
        Ok(())
    }
}

/// How far one step of the execution loop advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stepping {
    /// Up to the next event horizon.
    Skip,
    /// One quantum: the [`reference`](mod@reference) semantics.
    EveryQuantum,
}

/// How the screen output is captured during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaptureMode {
    /// No video (fastest; enough for energy/ground-truth studies).
    None,
    /// Clean HDMI capture (the paper's setup).
    Hdmi,
    /// Camera pointed at the screen, with sensor noise (the paper's
    /// abandoned first attempt; kept for the ablation).
    Camera {
        /// Noise seed.
        seed: u64,
    },
}

/// Static configuration of the simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Panel geometry.
    pub screen: ScreenConfig,
    /// The CPU's operating points.
    pub opps: OppTable,
    /// Simulation step.
    pub quantum: SimDuration,
    /// Interval between captured frames.
    pub frame_period: SimDuration,
    /// Video capture path.
    pub capture: CaptureMode,
    /// Kernel + framework cost of handling one input packet, in cycles.
    pub input_cost_cycles: u64,
    /// UI-thread cost of producing one animation frame, in cycles. Render
    /// passes share the foreground queue, so heavy foreground work makes
    /// animations drop frames — jank.
    pub ui_render_cycles: u64,
    /// Observability sink for the execution loop (governor sampling,
    /// input boosts, captured frames). Disabled by default; the lab
    /// injects its own recorder so study telemetry includes device-level
    /// counters. Counts are accumulated locally and flushed once per run,
    /// so the quantum loop never touches shared state.
    pub obs: interlag_obs::Recorder,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            screen: ScreenConfig::default(),
            opps: OppTable::snapdragon_8074(),
            quantum: SimDuration::from_millis(1),
            frame_period: interlag_video::stream::FRAME_PERIOD_30FPS,
            capture: CaptureMode::Hdmi,
            input_cost_cycles: 150_000,
            ui_render_cycles: 8_000_000,
            obs: interlag_obs::Recorder::disabled(),
        }
    }
}

/// Ground truth about one interaction from the simulator's privileged
/// viewpoint. The video pipeline must *recover* these numbers without
/// looking at them; tests compare the two.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionRecord {
    /// Interaction index within the run (and the script).
    pub id: usize,
    /// The script's label.
    pub label: String,
    /// When the triggering input packet was delivered; for untriggered
    /// interactions (trace ended early) the scripted start.
    pub input_time: SimTime,
    /// HCI category from the script.
    pub category: InteractionCategory,
    /// `true` if the input produced no app reaction (missed widget or
    /// swallowed event): a *spurious lag*.
    pub spurious: bool,
    /// `true` if the input was actually delivered during the run.
    pub triggered: bool,
    /// When the final phase of the response completed, if it did.
    pub service_time: Option<SimTime>,
}

impl InteractionRecord {
    /// The ground-truth interaction lag, if the interaction was serviced.
    pub fn true_lag(&self) -> Option<SimDuration> {
        self.service_time.map(|s| s.saturating_since(self.input_time))
    }
}

/// Everything one workload execution produces.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The governor that ran.
    pub governor_name: String,
    /// Captured video, unless capture was off.
    pub video: Option<VideoStream>,
    /// Frequency/busy trace for the energy model.
    pub activity: ActivityTrace,
    /// Ground-truth interaction log.
    pub interactions: Vec<InteractionRecord>,
    /// Replay-agent timing statistics.
    pub replay: ReplayStats,
    /// Malformed input events the device tolerated (out-of-range slots,
    /// double downs, ups without a contact). Zero on clean traces; fault
    /// injection and corrupted recordings raise it.
    pub input_faults: usize,
    /// When the run ended.
    pub end_time: SimTime,
}

impl RunArtifacts {
    /// Input timestamps of non-spurious, triggered interactions — the lag
    /// beginnings the matcher walks from.
    pub fn lag_beginnings(&self) -> Vec<(usize, SimTime)> {
        self.interactions
            .iter()
            .filter(|r| r.triggered && !r.spurious)
            .map(|r| (r.id, r.input_time))
            .collect()
    }
}

/// The simulated phone.
///
/// # Examples
///
/// See the crate-level documentation for a complete record→replay→capture
/// round trip.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    renderer: Renderer,
    /// The same CPU as a one-cluster topology: what the quantum loop runs.
    machine: ClusterDeviceConfig,
}

impl Device {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the quantum is zero or larger than the frame period.
    pub fn new(config: DeviceConfig) -> Self {
        assert!(!config.quantum.is_zero(), "quantum must be positive");
        assert!(config.quantum <= config.frame_period, "quantum must not exceed the frame period");
        let renderer = Renderer::new(config.screen);
        let machine = ClusterDeviceConfig {
            quantum: config.quantum,
            input_cost_cycles: config.input_cost_cycles,
            ui_render_cycles: config.ui_render_cycles,
            ..ClusterDeviceConfig::new(ClusterTopology::single(config.opps.clone()))
        };
        Device { config, renderer, machine }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Executes one workload run from a freshly-booted state.
    ///
    /// `replayer` feeds the recorded input events; `script` describes how
    /// the apps react; `governor` picks frequencies; the run lasts until
    /// `until` (wall-clock), which should leave slack after the last input
    /// for the final interaction to be serviced.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] if a stage boundary rejects data — today only the
    /// capture path, which refuses non-monotonic frame timestamps.
    pub fn run<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
    ) -> Result<RunArtifacts, DeviceError> {
        self.run_cancellable(script, replayer, governor, until, &CancelToken::none())
    }

    /// Like [`Device::run`], with a watchdog token polled cooperatively in
    /// the quantum loop (every [`CANCEL_INTERVAL`] of simulated time, so a
    /// wedged governor cannot stall a sweep for longer than its deadline
    /// plus one interval).
    ///
    /// # Errors
    ///
    /// As for [`Device::run`], plus [`DeviceError::Cancelled`] if the
    /// token fires mid-run.
    pub fn run_cancellable<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        cancel: &CancelToken,
    ) -> Result<RunArtifacts, DeviceError> {
        self.run_configured(script, replayer, governor, until, cancel, Stepping::Skip)
    }

    /// Runs with the configured capture path (a camera link for
    /// [`CaptureMode::Camera`]).
    fn run_configured<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        cancel: &CancelToken,
        stepping: Stepping,
    ) -> Result<RunArtifacts, DeviceError> {
        match self.config.capture {
            CaptureMode::Camera { seed } => {
                let camera = &mut CameraCapture::new(seed);
                self.run_inner(script, replayer, governor, until, Some(camera), cancel, stepping)
            }
            _ => self.run_inner(script, replayer, governor, until, None, cancel, stepping),
        }
    }

    /// Like [`Device::run`], but captures the screen through an explicit
    /// [`CaptureLink`] instead of the configured one — the seam where
    /// fault injection wraps the capture path. Ignored when capture is
    /// [`CaptureMode::None`].
    ///
    /// # Errors
    ///
    /// As for [`Device::run`].
    pub fn run_with_capture<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        link: &mut dyn CaptureLink,
    ) -> Result<RunArtifacts, DeviceError> {
        let none = &CancelToken::none();
        self.run_inner(script, replayer, governor, until, Some(link), none, Stepping::Skip)
    }

    /// [`Device::run_with_capture`] with a watchdog token, as
    /// [`Device::run_cancellable`] is to [`Device::run`].
    ///
    /// # Errors
    ///
    /// As for [`Device::run_cancellable`].
    pub fn run_with_capture_cancellable<R: Replayer>(
        &self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        link: &mut dyn CaptureLink,
        cancel: &CancelToken,
    ) -> Result<RunArtifacts, DeviceError> {
        self.run_inner(script, replayer, governor, until, Some(link), cancel, Stepping::Skip)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner<'a, R: Replayer>(
        &'a self,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        link: Option<&'a mut dyn CaptureLink>,
        cancel: &CancelToken,
        stepping: Stepping,
    ) -> Result<RunArtifacts, DeviceError> {
        let cfg = &self.config;
        // Boot screen: the default scene, rendered before the first quantum.
        let recording = (cfg.capture != CaptureMode::None).then(|| {
            let boot = Scene::default();
            let deco = DecorationState::at(SimTime::ZERO, &boot, 0);
            let screen = Arc::new(self.renderer.render(&boot, &deco));
            let stream = VideoStream::new(cfg.frame_period);
            let renderer = &self.renderer;
            Recording { renderer, link, stream, deco, screen }
        });
        let (run, video) = run_quanta(
            &self.machine,
            &cfg.obs,
            script,
            replayer,
            &mut [governor],
            until,
            recording,
            cancel,
            stepping,
        )?;
        Ok(RunArtifacts {
            governor_name: run.governor_names.into_iter().next().unwrap_or_default(),
            video,
            activity: run.activity.into_iter().next().unwrap_or_default(),
            interactions: run.interactions,
            replay: run.replay,
            input_faults: run.input_faults,
            end_time: run.end_time,
        })
    }
}

/// The screen side of a recorded run: the framebuffer the renderer keeps
/// current and the stream the capture link (the clean HDMI tap when
/// `None`) fills. Nothing else reads the screen, so runs without a video
/// neither repaint nor capture.
pub(crate) struct Recording<'a> {
    renderer: &'a Renderer,
    link: Option<&'a mut dyn CaptureLink>,
    stream: VideoStream,
    deco: DecorationState,
    screen: Arc<FrameBuffer>,
}

impl Recording<'_> {
    /// Captures the current screen for every frame due by `qend`.
    fn capture_due(&mut self, qend: SimTime) -> Result<(), DeviceError> {
        let link = self.link.as_deref_mut();
        Ok(capture_due(&mut self.stream, link, &self.screen, qend)?)
    }
}

/// One active core's execution state: a cluster of a `ClusterDevice`, or
/// the whole CPU of a [`Device`].
#[derive(Default)]
struct Core {
    freq: Frequency,
    fg: VecDeque<Task>,
    bg: VecDeque<Task>,
    activity: ActivityTrace,
    busy_acc: SimDuration,
    last_sample_at: SimTime,
    next_sample_at: SimTime,
    /// Tasks blocked on a phase wait, with their resume times.
    parked: Vec<(SimTime, Task)>,
    /// Busy time since the last migration evaluation.
    mig_busy: SimDuration,
}

impl Core {
    /// The task the core runs next: foreground work first.
    fn front(&self) -> Option<&Task> {
        self.fg.front().or_else(|| self.bg.front())
    }

    /// Runs `quanta` quanta from `start` in which no phase completes: the
    /// front task, if any, consumes every cycle of each.
    fn run_steady(&mut self, start: SimTime, quanta: u64, quantum: SimDuration) {
        let budget = self.freq.cycles_in(quantum);
        let queue = if self.fg.is_empty() { &mut self.bg } else { &mut self.fg };
        let consumed = match queue.front_mut() {
            Some(task) => {
                let (_, completions) = task.advance(budget * quanta);
                debug_assert!(completions.is_empty(), "a phase completed mid-step");
                budget
            }
            None => 0,
        };
        let busy = busy_time(consumed, budget, self.freq, quantum) * quanta;
        self.account(start, quantum * quanta, busy);
    }

    /// Logs `span` from `start` at the current frequency, `busy` of it
    /// executing, into the activity trace and both load windows.
    fn account(&mut self, start: SimTime, span: SimDuration, busy: SimDuration) {
        self.activity.push(ActivitySample { start, duration: span, freq: self.freq, busy });
        self.busy_acc += busy;
        self.mig_busy += busy;
    }
}

/// When `g`, sampled at `at` (a quantum's end, or boot), samples next:
/// `at + sample_period`, or, when its [`Governor::quiet_until`] horizon
/// lies beyond that, the first multiple at or after the horizon of the
/// period rounded up to whole quanta — an instant at which sampling every
/// period from boot samples too.
fn next_sample_at(g: &dyn Governor, at: SimTime, quantum: SimDuration) -> SimTime {
    let period = g.sample_period();
    let every = at.saturating_add(period);
    let quiet = g.quiet_until(at);
    if quiet <= every {
        return every;
    }
    let q_us = quantum.as_micros();
    let stride = period.as_micros().div_ceil(q_us).max(1) * q_us;
    SimTime::from_micros(quiet.as_micros().div_ceil(stride).saturating_mul(stride))
}

/// Samples, in cluster order, every governor whose sample is due at
/// `at`, a quantum's end, counting samples and frequency transitions;
/// `true` if a frequency changed.
fn sample_due(
    cores: &mut [Core],
    governors: &mut [&mut dyn Governor],
    clusters: &[ClusterSpec],
    at: SimTime,
    quantum: SimDuration,
    samples: &mut u64,
    transitions: &mut u64,
) -> bool {
    let mut changed = false;
    for ((core, g), spec) in cores.iter_mut().zip(governors.iter_mut()).zip(clusters) {
        if at >= core.next_sample_at {
            let sample = LoadSample { busy: core.busy_acc, window: at - core.last_sample_at };
            let before = core.freq;
            core.freq = spec.opps.quantize_up(g.on_sample(at, sample, &spec.opps));
            *samples += 1;
            *transitions += u64::from(core.freq != before);
            changed |= core.freq != before;
            core.busy_acc = SimDuration::ZERO;
            core.last_sample_at = at;
            core.next_sample_at = next_sample_at(&**g, at, quantum);
        }
    }
    changed
}

/// The longest step, in quanta, in which only the last quantum may
/// complete a phase: every front task's current phase must outlast the
/// quanta before it.
fn phase_quanta(cores: &[Core], quantum: SimDuration) -> u64 {
    let per_core = cores.iter().filter_map(|core| {
        let budget = core.freq.cycles_in(quantum);
        let whole = core.front()?.remaining_in_phase().saturating_sub(1).checked_div(budget);
        Some(whole.map_or(1, |quanta| quanta + 1))
    });
    per_core.min().unwrap_or(u64::MAX)
}

/// Busy time of one quantum in which a core at `freq` consumed `consumed`
/// of its `budget` cycles.
fn busy_time(consumed: u64, budget: u64, freq: Frequency, quantum: SimDuration) -> SimDuration {
    if consumed >= budget {
        quantum
    } else {
        SimDuration::from_micros(consumed * 1_000 / freq.as_khz() as u64).min(quantum)
    }
}

/// The device execution loop: runs `script` against `replayer` from a
/// freshly-booted state until `until`, one governor per cluster of
/// `machine` in cluster order, recording video only when `recording` is
/// given. Loop counters are flushed to `obs` once, at the end.
///
/// Each step runs one quantum or, with [`Stepping::Skip`], every quantum
/// up to the next event horizon at once.
///
/// # Panics
///
/// Panics if `governors` does not match the topology's cluster count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_quanta<R: Replayer>(
    machine: &ClusterDeviceConfig,
    obs: &interlag_obs::Recorder,
    script: &DeviceScript,
    mut replayer: R,
    governors: &mut [&mut dyn Governor],
    until: SimTime,
    mut recording: Option<Recording<'_>>,
    cancel: &CancelToken,
    stepping: Stepping,
) -> Result<(ClusterRunArtifacts, Option<VideoStream>), DeviceError> {
    let clusters = machine.topology.clusters();
    let n = clusters.len();
    assert_eq!(governors.len(), n, "one governor per cluster");
    let quantum = machine.quantum;
    let q_us = quantum.as_micros();
    // Work that burns cycles and changes nothing on screen.
    let task = |cycles, kind| Task::new(TaskSpec::single(cycles, SceneUpdate::Nop), kind);

    // --- state: one active core per cluster --------------------------
    let mut cores: Vec<Core> = clusters
        .iter()
        .zip(governors.iter_mut())
        .map(|(spec, g)| Core {
            freq: spec.opps.quantize_up(g.init(&spec.opps)),
            next_sample_at: next_sample_at(&**g, SimTime::ZERO, quantum),
            ..Core::default()
        })
        .collect();

    // --- state: UI ----------------------------------------------------
    let mut scene = Scene::default();
    let mut spinner_frame = 0u64;
    let mut next_render_spawn = SimTime::ZERO;
    // Whether the scene changed since the last repaint.
    let mut dirty = false;

    // --- state: input dispatch ----------------------------------------
    let mut decoder = MtDecoder::new();
    let mut input_faults = 0usize;
    let mut next_interaction = 0usize;
    let mut interactions: Vec<InteractionRecord> = script
        .interactions
        .iter()
        .enumerate()
        .map(|(id, spec)| InteractionRecord {
            id,
            label: spec.label.clone(),
            input_time: spec.start,
            category: spec.category,
            spurious: spec.is_spurious(),
            triggered: false,
            service_time: None,
        })
        .collect();

    // --- state: scripted background work ------------------------------
    let mut next_bg = 0usize;
    let mut next_tick_at = script.tick.map(|_| SimTime::ZERO + quantum);

    // --- state: I/O waits and migration -------------------------------
    // Scene updates whose visibility is deferred behind a wait.
    let mut pending_updates: Vec<(SimTime, SceneUpdate, TaskKind, bool)> = Vec::new();
    let mut migrations = 0u64;
    let mut next_mig_at = SimTime::ZERO + machine.migration.eval_period;

    // --- state: observability -----------------------------------------
    // Local accumulators, flushed to the recorder once per run: the
    // quantum loop stays free of shared-state traffic even when
    // recording is on.
    let mut obs_input_boosts = 0u64;
    let mut obs_samples = 0u64;
    let mut obs_transitions = 0u64;

    let mut now = SimTime::ZERO;
    let mut watchdog = Watchdog { cancel, next: SimTime::ZERO };
    while now < until {
        watchdog.poll(now)?;
        // The end of the step's first quantum: steps 1–4 run in it.
        let qend = now + quantum;

        // 1. Deliver input events due by `now`. Every cluster's governor
        // sees the input hook, as a cpufreq input notifier fans out to
        // every policy. Input handling runs on cluster 0.
        for te in replayer.poll(now) {
            for ((core, g), spec) in cores.iter_mut().zip(governors.iter_mut()).zip(clusters) {
                if let Some(f) = g.on_input(te.time, &spec.opps) {
                    core.freq = spec.opps.quantize_up(f);
                    obs_input_boosts += 1;
                }
            }
            if te.event.is_syn_report() && machine.input_cost_cycles > 0 {
                cores[0].bg.push_back(task(machine.input_cost_cycles, TaskKind::Background));
            }
            // Each trigger goes to the next scripted interaction; its
            // response task joins the pinned cluster's foreground queue.
            for pos in triggers(&mut decoder, &te, &mut input_faults) {
                let id = next_interaction;
                let Some(spec) = script.interactions.get(id) else {
                    continue; // inputs beyond the script are ignored
                };
                next_interaction += 1;
                let rec = &mut interactions[id]; // records mirror the script
                rec.triggered = true;
                rec.input_time = te.time;
                let hit = match (spec.widget, pos) {
                    (Some(w), Some(p)) => {
                        p.x >= 0 && p.y >= 0 && w.contains(p.x as u32, p.y as u32)
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                match (&spec.response, hit) {
                    (Some(task), true) => {
                        let fg = &mut cores[machine.pin_of(id)].fg;
                        fg.push_back(Task::new(task.clone(), TaskKind::Foreground { id }));
                        rec.spurious = false;
                    }
                    _ => rec.spurious = true,
                }
            }
        }

        // 2. Spawn scripted background work that has become runnable, on
        // cluster 0 (it starts on the efficiency cluster and migrates up).
        while next_bg < script.background.len() && script.background[next_bg].start <= now {
            let cycles = script.background[next_bg].cycles;
            cores[0].bg.push_back(task(cycles, TaskKind::Background));
            next_bg += 1;
        }

        // 3. Periodic system tick, also on cluster 0.
        if let (Some(tick), Some(due)) = (script.tick, next_tick_at.as_mut()) {
            while *due <= now {
                cores[0].bg.push_back(task(tick.cycles, TaskKind::Background));
                *due += tick.period;
            }
        }

        // 3b. Animation render passes, on cluster 0's UI thread: while a
        // spinner shows, the UI thread must produce a frame every
        // SPINNER_FRAME_PERIOD; the pass costs CPU on the foreground
        // queue, so a busy core misses deadlines and the animation
        // visibly stutters (jank).
        if scene.spinner {
            while next_render_spawn <= now {
                // The compositor drops frames at the source rather than
                // queueing unboundedly.
                let ui = &mut cores[0].fg;
                let pending = ui.iter().filter(|t| t.kind() == TaskKind::UiRender).count();
                if pending < 2 {
                    let cycles = (machine.ui_render_cycles + scene.animation_load).max(1);
                    ui.push_back(task(cycles, TaskKind::UiRender));
                }
                next_render_spawn += crate::render::SPINNER_FRAME_PERIOD;
            }
        } else if next_render_spawn <= now {
            // No animation: the next one starts on its own grid.
            next_render_spawn = now + crate::render::SPINNER_FRAME_PERIOD;
        }

        // 3c. Task migration on the per-cluster load signal, with more
        // than one cluster. Down-migrations run first: an idle bigger
        // cluster drains before the up pass refills it, so a task
        // up-migrated in this round is never bounced straight back by the
        // same round's stale load snapshot.
        if n > 1 && qend >= next_mig_at {
            let model = &machine.migration;
            let loads: Vec<f64> = cores
                .iter()
                .map(|c| LoadSample { busy: c.mig_busy, window: model.eval_period }.load_percent())
                .collect();
            for ci in (1..n).rev() {
                if loads[ci] <= model.down_threshold {
                    migrations += u64::from(migrate(&mut cores, ci, ci - 1, &machine.pins));
                }
            }
            for (ci, &load) in loads.iter().enumerate().take(n - 1) {
                if load >= model.up_threshold {
                    migrations += u64::from(migrate(&mut cores, ci, ci + 1, &machine.pins));
                }
            }
            for core in cores.iter_mut() {
                core.mig_busy = SimDuration::ZERO;
            }
            next_mig_at = qend + model.eval_period;
        }

        // 4a. Resume tasks whose I/O wait has elapsed (earliest first;
        // resumed work jumps the queue, as a woken thread would).
        for core in cores.iter_mut() {
            if core.parked.is_empty() {
                continue;
            }
            core.parked.sort_by_key(|(at, _)| *at);
            while core.parked.first().is_some_and(|(at, _)| *at <= now) {
                let (_, task) = core.parked.remove(0);
                match task.kind() {
                    TaskKind::Foreground { .. } | TaskKind::UiRender => core.fg.push_front(task),
                    TaskKind::Background => core.bg.push_front(task),
                }
            }
        }

        // 4b. Apply scene updates whose I/O wait has elapsed.
        if !pending_updates.is_empty() {
            pending_updates.sort_by_key(|(at, ..)| *at);
            while pending_updates.first().is_some_and(|(at, ..)| *at <= qend) {
                let (at, update, kind, task_finished) = pending_updates.remove(0);
                dirty |= scene.apply(&update);
                if let (true, TaskKind::Foreground { id }) = (task_finished, kind) {
                    interactions[id].service_time = Some(at.max(now));
                }
            }
        }

        // 4c. The step: this quantum and, when skipping, every quantum
        // after it up to the next event horizon — the earliest instant at
        // which steps 1–4 would fire again (an event tested against a
        // quantum's end counts one quantum early) or the decorations
        // change. Until its last quantum every core is idle or grinds
        // through a phase that cannot complete, and the screen stands
        // still; a scene change in this quantum repaints at its end, so
        // it runs alone when recording. Governor samples end a step only
        // if they change a frequency, and the watchdog is polled within
        // it (step 5).
        let mut steps = 1;
        // The scene step 3b of the step's later quanta sees.
        let spinning = scene.spinner;
        if stepping == Stepping::Skip && !(dirty && recording.is_some()) {
            let ending = |at: SimTime| SimTime::from_micros(at.as_micros().saturating_sub(q_us));
            let mut horizon = until;
            // Without a spinner the spawn grid only re-anchors; that is
            // replayed after the step rather than ending it.
            if spinning {
                horizon = horizon.min(next_render_spawn);
            }
            if let Some(at) = replayer.next_due() {
                horizon = horizon.min(at);
            }
            if let Some(work) = script.background.get(next_bg) {
                horizon = horizon.min(work.start);
            }
            if let Some(at) = next_tick_at {
                horizon = horizon.min(at);
            }
            for (at, ..) in &pending_updates {
                horizon = horizon.min(ending(*at));
            }
            if n > 1 {
                horizon = horizon.min(ending(next_mig_at));
            }
            if recording.is_some() {
                horizon = horizon.min(DecorationState::next_change(now, &scene));
            }
            for core in &cores {
                for (at, _) in &core.parked {
                    horizon = horizon.min(*at);
                }
            }
            let before_horizon = horizon.saturating_since(now).as_micros().div_ceil(q_us);
            steps = before_horizon.max(1).min(phase_quanta(&cores, quantum));
        }

        // 5. Execute and account the step on every cluster, in cluster
        // order: the steady quanta in bulk, stopping at each quantum
        // boundary where a governor samples (6) — a new frequency changes
        // every later quantum's budget, so phases may complete sooner —
        // or the watchdog is due; then the last quantum cycle by cycle.
        let mut done = 0;
        while done + 1 < steps {
            let due = cores.iter().map(|c| c.next_sample_at).fold(watchdog.next, SimTime::min);
            let upto =
                due.saturating_since(now).as_micros().div_ceil(q_us).clamp(done + 1, steps - 1);
            for core in cores.iter_mut() {
                core.run_steady(now + quantum * done, upto - done, quantum);
            }
            done = upto;
            let at = now + quantum * done;
            let (samples, transitions) = (&mut obs_samples, &mut obs_transitions);
            if sample_due(&mut cores, governors, clusters, at, quantum, samples, transitions) {
                steps = steps.min(done.saturating_add(phase_quanta(&cores, quantum)));
            }
            watchdog.poll(at)?;
        }
        // The start and end of the step's last quantum.
        let last = now + quantum * (steps - 1);
        let end = last + quantum;
        // 3b for the later quanta: with no spinner, the spawn grid
        // re-anchors at each quantum start that reaches it.
        while !spinning && next_render_spawn <= last {
            let behind = next_render_spawn.saturating_since(now).as_micros().div_ceil(q_us);
            next_render_spawn = now + quantum * behind + crate::render::SPINNER_FRAME_PERIOD;
        }
        for core in cores.iter_mut() {
            let budget = core.freq.cycles_in(quantum);
            let khz = core.freq.as_khz() as u64;
            let mut consumed = 0u64;
            while consumed < budget {
                let queue = if core.fg.is_empty() { &mut core.bg } else { &mut core.fg };
                let Some(task) = queue.front_mut() else { break };
                let before = consumed;
                let (c, completions) = task.advance(budget - consumed);
                consumed += c;
                let finished = task.is_finished();
                // When the task blocks on a wait, until when.
                let mut block_at = None;
                for comp in completions {
                    let at = before + comp.at_consumed_cycles;
                    let ts = last + SimDuration::from_micros((at * 1_000).div_ceil(khz));
                    if comp.wait.is_zero() {
                        dirty |= scene.apply(&comp.update);
                        match comp.kind {
                            TaskKind::Foreground { id } if comp.task_finished => {
                                interactions[id].service_time = Some(ts.min(end));
                            }
                            TaskKind::UiRender if comp.task_finished => spinner_frame += 1,
                            _ => {}
                        }
                    } else {
                        // The update (and, for final phases, the service
                        // point) becomes visible only after the wait.
                        let visible_at = ts.min(end) + comp.wait;
                        block_at = Some(visible_at);
                        pending_updates.push((
                            visible_at,
                            comp.update,
                            comp.kind,
                            comp.task_finished,
                        ));
                    }
                }
                if finished {
                    queue.pop_front();
                } else if let Some(at) = block_at {
                    if let Some(task) = queue.pop_front() {
                        core.parked.push((at, task));
                    }
                } else if c == 0 {
                    break; // cannot happen, but never spin
                }
            }
            let busy = busy_time(consumed, budget, core.freq, quantum);
            core.account(last, quantum, busy);
        }

        // 6. Governor sampling, per cluster.
        let (samples, transitions) = (&mut obs_samples, &mut obs_transitions);
        sample_due(&mut cores, governors, clusters, end, quantum, samples, transitions);

        // 7. When recording video: capture the frames due before the last
        // quantum (the screen stood still), repaint if the scene changed
        // or just the decorations that changed, and 8. capture the frames
        // due in the last quantum.
        if let Some(rec) = recording.as_mut() {
            rec.capture_due(last)?;
            let deco = DecorationState::at(end, &scene, spinner_frame);
            if dirty {
                rec.screen = Arc::new(rec.renderer.render(&scene, &deco));
                dirty = false;
            } else if deco != rec.deco {
                rec.screen = Arc::new(rec.renderer.redecorate(&rec.screen, &scene, &deco));
            }
            rec.deco = deco;
            rec.capture_due(end)?;
        }

        now = end;
    }

    let video = recording.map(|r| r.stream);
    obs.count(interlag_obs::Counter::InputBoosts, obs_input_boosts);
    obs.count(interlag_obs::Counter::GovernorSamples, obs_samples);
    obs.count(interlag_obs::Counter::FreqTransitions, obs_transitions);
    obs.count(interlag_obs::Counter::FramesCaptured, video.as_ref().map_or(0, |v| v.len() as u64));

    let run = ClusterRunArtifacts {
        governor_names: governors.iter().map(|g| g.name().to_string()).collect(),
        activity: cores.into_iter().map(|c| c.activity).collect(),
        interactions,
        replay: replayer.stats(),
        input_faults,
        migrations,
        end_time: now,
    };
    Ok((run, video))
}

/// Moves the oldest migratable task from cluster `from` to cluster `to`;
/// `true` if a task moved. Background work migrates first; foreground
/// work migrates unless pinned; UI render passes never do.
fn migrate(cores: &mut [Core], from: usize, to: usize, pins: &[(usize, usize)]) -> bool {
    if let Some(task) = cores[from].bg.pop_front() {
        cores[to].bg.push_back(task);
        return true;
    }
    let movable = cores[from].fg.front().is_some_and(|t| match t.kind() {
        TaskKind::Foreground { id } => !pins.iter().any(|(i, _)| *i == id),
        _ => false,
    });
    if movable {
        if let Some(task) = cores[from].fg.pop_front() {
            cores[to].fg.push_back(task);
            return true;
        }
    }
    false
}

/// Extracts interaction triggers (finger-down, hardware-key-down) from one
/// raw event. Malformed multitouch events are counted into `faults` and
/// otherwise tolerated.
fn triggers(decoder: &mut MtDecoder, te: &TimedEvent, faults: &mut usize) -> Vec<Option<Point>> {
    let mut out = Vec::new();
    if te.device == 1 {
        let contacts = decoder.try_push(te.time, te.event).unwrap_or_else(|_| {
            *faults += 1;
            Vec::new()
        });
        for c in contacts {
            if let ContactEvent::Down { pos, .. } = c {
                out.push(Some(pos));
            }
        }
    } else if te.event.kind == EventType::Key && te.event.code != BTN_TOUCH && te.event.value == 1 {
        out.push(None);
    }
    out
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

/// The execution loop with every step clamped to one quantum: the
/// per-quantum semantics the skipping loop must reproduce byte for byte.
/// Kept as the ground truth for the equivalence property tests
/// (`tests/device_equivalence.rs`) and as the baseline the `perf` bench
/// measures the skip speedup against.
pub mod reference {
    use super::*;

    /// [`Device::run`], one quantum per step.
    ///
    /// # Errors
    ///
    /// As for [`Device::run`].
    pub fn run<R: Replayer>(
        device: &Device,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
    ) -> Result<RunArtifacts, DeviceError> {
        let (none, every) = (&CancelToken::none(), Stepping::EveryQuantum);
        device.run_configured(script, replayer, governor, until, none, every)
    }

    /// [`Device::run_with_capture`], one quantum per step.
    ///
    /// # Errors
    ///
    /// As for [`Device::run`].
    pub fn run_with_capture<R: Replayer>(
        device: &Device,
        script: &DeviceScript,
        replayer: R,
        governor: &mut dyn Governor,
        until: SimTime,
        link: &mut dyn CaptureLink,
    ) -> Result<RunArtifacts, DeviceError> {
        let (none, every) = (&CancelToken::none(), Stepping::EveryQuantum);
        device.run_inner(script, replayer, governor, until, Some(link), none, every)
    }

    /// [`ClusterDevice::run`](crate::cluster::ClusterDevice::run), one
    /// quantum per step.
    ///
    /// # Errors
    ///
    /// As for [`ClusterDevice::run`](crate::cluster::ClusterDevice::run).
    ///
    /// # Panics
    ///
    /// Panics if `governors` does not match the topology's cluster count.
    pub fn run_clusters<R: Replayer>(
        device: &crate::cluster::ClusterDevice,
        script: &DeviceScript,
        replayer: R,
        governors: &mut [&mut dyn Governor],
        until: SimTime,
    ) -> Result<ClusterRunArtifacts, DeviceError> {
        let (none, disabled) = (&CancelToken::none(), &interlag_obs::DISABLED);
        let (config, every) = (device.config(), Stepping::EveryQuantum);
        let (run, _) =
            run_quanta(config, disabled, script, replayer, governors, until, None, none, every)?;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::FixedGovernor;
    use crate::scene::SceneUpdate;
    use crate::script::{BackgroundWork, InteractionSpec, PeriodicTick};
    use interlag_evdev::gesture::Gesture;
    use interlag_evdev::replay::ReplayAgent;
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
                        60_000_000, // 200 ms at 300 MHz
                        SceneUpdate::replace(Scene::new(99)),
                    )),
                    category: InteractionCategory::SimpleFrequent,
                },
                InteractionSpec {
                    label: "tap nothing".into(),
                    start: SimTime::from_millis(2_000),
                    gesture: Gesture::tap(Point::new(60, 100)),
                    widget: Some(widget), // tap lands outside it
                    response: Some(TaskSpec::single(1_000, SceneUpdate::Nop)),
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

    fn run_fixed(mhz: u32, script: &DeviceScript) -> RunArtifacts {
        let device = Device::default();
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(mhz));
        device
            .run(script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(5))
            .expect("clean run")
    }

    #[test]
    fn interaction_is_serviced_and_lag_scales_with_frequency() {
        let script = simple_script();
        let slow = run_fixed(300, &script);
        let fast = run_fixed(2_150, &script);

        let lag_slow = slow.interactions[0].true_lag().expect("serviced");
        let lag_fast = fast.interactions[0].true_lag().expect("serviced");
        // 60 M cycles at 300 MHz ≈ 200 ms; at 2.15 GHz ≈ 28 ms (plus
        // queueing behind input-handling costs).
        assert!(lag_slow > lag_fast * 4, "{lag_slow} vs {lag_fast}");
        assert!(lag_slow >= SimDuration::from_millis(190));
        assert!(lag_slow <= SimDuration::from_millis(320));
    }

    #[test]
    fn missed_tap_is_spurious() {
        let script = simple_script();
        let run = run_fixed(960, &script);
        assert!(run.interactions[1].triggered);
        assert!(run.interactions[1].spurious);
        assert_eq!(run.interactions[1].service_time, None);
        assert_eq!(run.lag_beginnings().len(), 1);
    }

    #[test]
    fn video_shows_the_final_scene_after_service() {
        let script = simple_script();
        let run = run_fixed(960, &script);
        let video = run.video.expect("hdmi capture on");
        let service = run.interactions[0].service_time.unwrap();
        // The frame displayed well after service must differ from the
        // boot screen; the frame just before input must not.
        let before = video.frame_at(SimTime::from_millis(400)).unwrap();
        let after = video.frame_at(service + SimDuration::from_millis(100)).unwrap();
        assert!(before.buf.count_diff(after.buf, 0) > 0);
        let boot = video.frame_at(SimTime::from_millis(100)).unwrap();
        assert_eq!(boot.buf.count_diff(before.buf, 0), 0);
    }

    #[test]
    fn recording_holds_every_frame_across_skipped_stretches() {
        // The loop crosses idle stretches in one step and captures the
        // frames they owe afterwards: the video must still hold one frame
        // per period on the capture grid, exactly as the one-quantum
        // reference records it, with still screens collapsed into runs.
        let script = simple_script();
        let device = Device::default();
        let trace = script.record_trace();
        let until = SimTime::from_secs(5);
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let fast = device
            .run(&script, ReplayAgent::new(trace.clone()), &mut gov, until)
            .expect("clean run");
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let slow = reference::run(&device, &script, ReplayAgent::new(trace), &mut gov, until)
            .expect("clean run");
        let video = fast.video.expect("hdmi capture on");
        let reference = slow.video.expect("hdmi capture on");
        let period = device.config().frame_period.as_micros();
        assert_eq!(video.len() as u64, fast.end_time.as_micros() / period + 1);
        for f in video.iter() {
            assert_eq!(f.time.as_micros(), u64::from(f.index) * period);
        }
        assert_eq!(video.times(), reference.times());
        assert_eq!(video.runs(), reference.runs());
        assert!(video.runs().len() * 10 < video.len(), "{} runs", video.runs().len());
    }

    #[test]
    fn activity_trace_covers_the_whole_run() {
        let script = simple_script();
        let run = run_fixed(960, &script);
        assert_eq!(run.activity.total_duration(), SimDuration::from_secs(5));
        assert!(run.activity.busy_time() > SimDuration::from_millis(50));
        assert!(run.activity.busy_time() < SimDuration::from_secs(1));
    }

    #[test]
    fn untriggered_interactions_are_reported() {
        let script = simple_script();
        let device = Device::default();
        // Empty trace: nothing is ever delivered.
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run(
                &script,
                ReplayAgent::new(interlag_evdev::trace::EventTrace::new()),
                &mut gov,
                SimTime::from_secs(1),
            )
            .expect("clean run");
        assert!(run.interactions.iter().all(|r| !r.triggered));
        assert!(run.lag_beginnings().is_empty());
    }

    #[test]
    fn capture_none_produces_no_video_and_matches_hdmi_ground_truth() {
        let script = simple_script();
        let config = DeviceConfig { capture: CaptureMode::None, ..Default::default() };
        let device = Device::new(config);
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run(&script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(5))
            .expect("clean run");
        assert!(run.video.is_none());

        let with_video = run_fixed(960, &script);
        assert_eq!(
            run.interactions[0].service_time, with_video.interactions[0].service_time,
            "capture must not perturb execution"
        );
    }

    #[test]
    fn io_wait_extends_service_time_frequency_independently() {
        let widget = Rect::new(10, 20, 30, 30);
        let spec = |wait_ms: u64| DeviceScript {
            interactions: vec![InteractionSpec {
                label: "open".into(),
                start: SimTime::from_millis(500),
                gesture: Gesture::tap(Point::new(20, 30)),
                widget: Some(widget),
                response: Some(TaskSpec::new(vec![crate::task::Phase::with_wait(
                    30_000_000,
                    SimDuration::from_millis(wait_ms),
                    SceneUpdate::replace(Scene::new(77)),
                )])),
                category: InteractionCategory::Common,
            }],
            background: Vec::new(),
            tick: None,
        };
        let run_lag = |mhz: u32, wait_ms: u64| {
            let device = Device::default();
            let script = spec(wait_ms);
            let trace = script.record_trace();
            let mut gov = FixedGovernor::new(Frequency::from_mhz(mhz));
            let run = device
                .run(&script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(4))
                .expect("clean run");
            run.interactions[0].true_lag().expect("serviced")
        };
        // The wait adds ~300 ms at any frequency.
        let fast_no_wait = run_lag(2_150, 0);
        let fast_wait = run_lag(2_150, 300);
        let slow_wait = run_lag(300, 300);
        let added_fast = fast_wait - fast_no_wait;
        assert!(
            (added_fast.as_millis_f64() - 300.0).abs() < 5.0,
            "wait should add ~300 ms, added {added_fast}"
        );
        // Compute scales with frequency; the wait does not.
        let slow_compute = slow_wait - SimDuration::from_millis(300);
        assert!(slow_compute > fast_no_wait * 5, "{slow_compute} vs {fast_no_wait}");
    }

    #[test]
    fn core_is_free_for_background_work_during_waits() {
        // One interaction whose task blocks 1 s on I/O after tiny compute,
        // plus heavy background work: the background work must execute
        // during the wait (busy time well above the foreground compute).
        let widget = Rect::new(10, 20, 30, 30);
        let script = DeviceScript {
            interactions: vec![InteractionSpec {
                label: "io heavy".into(),
                start: SimTime::from_millis(200),
                gesture: Gesture::tap(Point::new(20, 30)),
                widget: Some(widget),
                response: Some(TaskSpec::new(vec![
                    crate::task::Phase::with_wait(
                        1_000_000,
                        SimDuration::from_secs(1),
                        SceneUpdate::Nop,
                    ),
                    crate::task::Phase::new(1_000_000, SceneUpdate::replace(Scene::new(5))),
                ])),
                category: InteractionCategory::Common,
            }],
            background: vec![BackgroundWork {
                label: "bg".into(),
                start: SimTime::from_millis(300),
                cycles: 300_000_000, // 1 s at 300 MHz
            }],
            tick: None,
        };
        let device = Device::default();
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(300));
        let run = device
            .run(&script, ReplayAgent::new(trace), &mut gov, SimTime::from_secs(3))
            .expect("clean run");
        // Service ends ~200 ms (input) + ~3 ms + 1 s wait + ~3 ms ≈ 1.21 s,
        // even though a full second of background work ran meanwhile.
        let service = run.interactions[0].service_time.expect("serviced");
        assert!(service < SimTime::from_millis(1_300), "service at {service}");
        assert!(run.activity.busy_time() > SimDuration::from_millis(900));
    }

    #[test]
    fn cancelled_token_aborts_the_run() {
        let script = simple_script();
        let device = Device::default();
        let trace = script.record_trace();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let cancel = CancelToken::manual();
        cancel.cancel();
        let err = device
            .run_cancellable(
                &script,
                ReplayAgent::new(trace),
                &mut gov,
                SimTime::from_secs(5),
                &cancel,
            )
            .expect_err("pre-fired token must abort the run");
        assert_eq!(err, DeviceError::Cancelled);
    }

    #[test]
    fn unfired_token_does_not_perturb_the_run() {
        let script = simple_script();
        let device = Device::default();
        let mut gov = FixedGovernor::new(Frequency::from_mhz(960));
        let run = device
            .run_cancellable(
                &script,
                ReplayAgent::new(script.record_trace()),
                &mut gov,
                SimTime::from_secs(5),
                &CancelToken::manual(),
            )
            .expect("clean run");
        let baseline = run_fixed(960, &script);
        assert_eq!(run.interactions, baseline.interactions);
        assert_eq!(run.activity, baseline.activity);
    }

    /// 960 MHz, sampled every 30 ms — off the 100 ms spinner grid — and
    /// remembering when it last sampled.
    struct Probe {
        pinned: FixedGovernor,
        last_sample: Option<SimTime>,
    }

    impl Probe {
        const PERIOD: SimDuration = SimDuration::from_millis(30);

        fn new() -> Self {
            Probe { pinned: FixedGovernor::new(Frequency::from_mhz(960)), last_sample: None }
        }
    }

    impl Governor for Probe {
        fn name(&self) -> &str {
            self.pinned.name()
        }

        fn init(&mut self, table: &OppTable) -> Frequency {
            self.pinned.init(table)
        }

        fn sample_period(&self) -> SimDuration {
            Probe::PERIOD
        }

        fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
            self.last_sample = Some(now);
            self.pinned.on_sample(now, load, table)
        }
    }

    /// Replays a trace and fires `token` from inside its poll at `at`.
    struct CancelAt {
        agent: ReplayAgent,
        token: CancelToken,
        at: SimTime,
    }

    impl Replayer for CancelAt {
        fn poll(&mut self, now: SimTime) -> Vec<TimedEvent> {
            if now >= self.at {
                self.token.cancel();
            }
            self.agent.poll(now)
        }

        fn is_finished(&self) -> bool {
            self.agent.is_finished()
        }

        fn stats(&self) -> ReplayStats {
            self.agent.stats()
        }

        fn next_due(&self) -> Option<SimTime> {
            // Asks to be polled at `at`, so the token fires exactly then.
            let at = Some(self.at).filter(|_| !self.token.is_cancelled());
            self.agent.next_due().into_iter().chain(at).min()
        }
    }

    #[test]
    fn watchdog_latency_is_bounded_in_simulated_time_across_idle_stretches() {
        // One tap, then seconds of idle the loop crosses in long steps.
        let mut script = simple_script();
        script.interactions.truncate(1);
        script.background.clear();
        script.tick = None;
        let device = Device::default();
        let token = CancelToken::manual();
        let at = SimTime::from_millis(2_500);
        let replayer =
            CancelAt { agent: ReplayAgent::new(script.record_trace()), token: token.clone(), at };
        let mut gov = Probe::new();
        let err = device
            .run_cancellable(&script, replayer, &mut gov, SimTime::from_secs(10), &token)
            .expect_err("the token fires mid-run");
        assert_eq!(err, DeviceError::Cancelled);
        let last = gov.last_sample.expect("sampled before the cancel");
        assert!(last >= at, "the run reached the cancel point ({last})");
        assert!(
            last <= at + CANCEL_INTERVAL + Probe::PERIOD,
            "sampled at {last} after a cancel at {at}"
        );
    }

    #[test]
    fn render_spawn_grid_survives_a_long_idle_stretch() {
        // 2.5 s of idle, then a tap starts a ~417 ms phase that ends by
        // showing a spinner for ~0.9 s. The spawn grid is the one piece of
        // loop state an idle device changes: it is re-anchored every
        // SPINNER_FRAME_PERIOD while no spinner shows, across long steps.
        let script = DeviceScript {
            interactions: vec![InteractionSpec {
                label: "spin".into(),
                start: SimTime::from_millis(2_537),
                gesture: Gesture::tap(Point::new(20, 30)),
                widget: Some(Rect::new(10, 20, 30, 30)),
                response: Some(TaskSpec::new(vec![
                    crate::task::Phase::new(
                        400_000_000,
                        SceneUpdate::replace(Scene::new(3).with_spinner()),
                    ),
                    crate::task::Phase::with_wait(
                        1_000_000,
                        SimDuration::from_millis(900),
                        SceneUpdate::SetSpinner(false),
                    ),
                ])),
                category: InteractionCategory::Common,
            }],
            background: Vec::new(),
            tick: None,
        };
        // One frame per quantum: the video shows the screen at every
        // quantum's end, so it times each completed render pass exactly.
        let period = SimDuration::from_millis(1);
        let device = Device::new(DeviceConfig { frame_period: period, ..DeviceConfig::default() });
        let trace = script.record_trace();
        let until = SimTime::from_secs(4);
        let fast = device
            .run(&script, ReplayAgent::new(trace.clone()), &mut Probe::new(), until)
            .expect("clean run");
        let slow =
            reference::run(&device, &script, ReplayAgent::new(trace), &mut Probe::new(), until)
                .expect("clean run");
        assert_eq!(fast.interactions, slow.interactions);
        assert_eq!(fast.activity, slow.activity);

        // When the spinner area changed: it appears, advances once per
        // completed render pass (one spinner frame each), disappears.
        let spinner_changes = |run: &RunArtifacts| -> Vec<SimTime> {
            let rect = device.config().screen.spinner_rect;
            let video = run.video.as_ref().expect("hdmi capture on");
            video
                .iter()
                .zip(video.iter().skip(1))
                .filter(|(a, b)| a.buf.crop(rect) != b.buf.crop(rect))
                .map(|(_, b)| b.time)
                .collect()
        };
        let changes = spinner_changes(&fast);
        assert_eq!(changes, spinner_changes(&slow));
        let passes = &changes[1..changes.len() - 1];
        // Spawns sit on the boot-anchored 100 ms grid from 3.0 s to 3.8 s;
        // 8 M cycles at 960 MHz finish in each spawn's ninth quantum.
        let expected: Vec<SimTime> =
            (30..=38).map(|tenth| SimTime::from_millis(tenth * 100 + 9)).collect();
        assert_eq!(passes, expected.as_slice());
    }

    #[test]
    fn replay_runs_are_deterministic() {
        let script = simple_script();
        let a = run_fixed(960, &script);
        let b = run_fixed(960, &script);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.activity, b.activity);
        let (va, vb) = (a.video.unwrap(), b.video.unwrap());
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb.iter()) {
            assert_eq!(x.buf.as_ref(), y.buf.as_ref());
        }
    }
}
