//! Speedup gates for the optimised hot paths of the study pipeline, each
//! timed in this process against the baseline it replaced:
//!
//! 1. **kernel** — the chunked-u64 diff kernels against the per-pixel
//!    scalar reference, on 1080p-class frames.
//! 2. **matcher** — one batched forward walk marking up every pending lag
//!    against the per-lag walker it replaced.
//! 3. **device** — the device loop skipping steady-state quanta against
//!    its one-quantum-per-step reference, on a paper dataset.
//! 4. **sampling** — the oracle's plan sampled only where it steps
//!    (`Governor::quiet_until`) against the same plan sampled every
//!    period, on a paper dataset.
//! 5. **workers** — a study on as many workers as the host has cores
//!    against the serial sweep; skipped on a one-core host.
//!
//! Every figure is a ratio of two timings on the same host, so the gate
//! holds on any machine: the bench panics if an optimised path is not
//! faster than its baseline, or the parallel study not
//! [`MIN_WORKER_SPEEDUP`] times faster than the serial one. End-to-end and
//! per-layer performance is measured by `python3 benchmark/run.py`.
//!
//! Usage: `cargo bench -p interlag-bench --bench perf`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use interlag_bench::banner;
use interlag_core::experiment::{Lab, LabConfig};
use interlag_core::matcher::{mark_up_with_policy, MatchPolicy, Matcher};
use interlag_device::device::{Device, DeviceConfig, RunArtifacts};
use interlag_device::dvfs::{Governor, LoadSample};
use interlag_device::reference;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_governors::{Ondemand, OndemandTunables, PlanGovernor};
use interlag_power::opp::{Frequency, OppTable};
use interlag_video::frame::FrameBuffer;
use interlag_video::kernel;
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
use interlag_workloads::datasets::Dataset;

/// Timed calls per path; the kernel and matcher sections together take
/// about a second.
const SAMPLES: usize = 25;
/// Timed device runs per loop: each is a ten-minute paper dataset.
const DEVICE_SAMPLES: usize = 7;
/// Timed studies per worker count: each is every configuration of a paper
/// dataset, one repetition each.
const STUDY_SAMPLES: usize = 5;
/// The least speedup a study on every core must show over the serial
/// sweep. Annotation and the oracle's construction run serially between
/// the parallel stages, and a shared host lends its cores unevenly, so
/// the gate asks for a tenth of a core's gain, not a linear speedup.
const MIN_WORKER_SPEEDUP: f64 = 1.1;

/// Median seconds per call over `samples` timed invocations (after one
/// warm-up call).
fn time_median<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct KernelNumbers {
    pixels: u64,
    scalar_px_per_s: f64,
    kernel_px_per_s: f64,
    speedup: f64,
}

/// The matcher's hot decision — "does this frame differ from the
/// annotation by more than the pixel budget?" — on 1080p-class frames,
/// kernel vs the scalar early-exit reference.
fn kernel_section(samples: usize) -> KernelNumbers {
    let (width, height) = (1920u32, 1080u32);
    let mut a = FrameBuffer::new(width, height);
    let mut b = FrameBuffer::new(width, height);
    a.hash_paint(a.bounds(), 1);
    b.hash_paint(b.bounds(), 2);
    let (pa, pb) = (a.pixels().to_vec(), b.pixels().to_vec());
    let pixels = pa.len() as u64;
    // Nearly every pixel differs and the budget is unbounded, so neither
    // side can exit early: both scan the full frame, like a non-matching
    // frame does in a real walk.
    let (tol, limit) = (MatchTolerance::CAMERA.value_tolerance, u64::MAX - 1);

    let scalar = time_median(samples, || kernel::reference::exceeds(&pa, &pb, tol, limit));
    let fast = time_median(samples, || kernel::exceeds(&pa, &pb, tol, limit));
    KernelNumbers {
        pixels,
        scalar_px_per_s: pixels as f64 / scalar,
        kernel_px_per_s: pixels as f64 / fast,
        speedup: scalar / fast,
    }
}

fn synthetic_video(frames: u32, change_every: u32) -> VideoStream {
    let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
    let mut current = {
        let mut f = FrameBuffer::new(72, 120);
        f.hash_paint(f.bounds(), 1);
        Arc::new(f)
    };
    for i in 0..frames {
        if i % change_every == 0 && i > 0 {
            let mut f = FrameBuffer::new(72, 120);
            f.hash_paint(f.bounds(), 1 + (i / change_every) as u64);
            current = Arc::new(f);
        }
        v.push(SimTime::from_micros(i as u64 * 33_333), current.clone()).unwrap();
    }
    v
}

struct MatcherNumbers {
    lags: usize,
    frames: u32,
    per_lag_ms: f64,
    batched_ms: f64,
    speedup: f64,
}

/// Marks up many pending lags over one video: the batched single walk
/// (shared content runs, masks and verdict caches) against the per-lag walker.
///
/// Paper-scale rep: a ten-minute 30 fps capture, a few dozen
/// interactions whose endings are spread across the whole video. The
/// per-lag walker visits every frame from each lag's beginning to its
/// ending; the batched walk visits compressed runs, once.
fn matcher_section(samples: usize) -> MatcherNumbers {
    let frames = 18_000u32; // ten minutes at 30 fps: one paper dataset
    let change_every = 300u32;
    let lags = 40u32;
    let video = synthetic_video(frames, change_every);
    // One annotation per interaction, its ending spread through the video;
    // a fuzzy tolerance defeats the digest-equality shortcut so every
    // verdict runs the diff kernels.
    let mut db = interlag_core::annotation::AnnotationDb::new("perf");
    for id in 0..lags as usize {
        let frame_idx = (id as u32 * frames / lags).min(frames - 1);
        db.insert(interlag_core::annotation::LagAnnotation {
            interaction_id: id,
            image: video.get(frame_idx).expect("in range").buf.as_ref().clone(),
            mask: Mask::new(),
            tolerance: MatchTolerance::CAMERA,
            occurrence: 1,
            threshold: SimDuration::from_secs(1),
        });
    }
    // Every lag starts at the beginning, so each per-lag walk re-scans the
    // same prefix the batched walk shares.
    let beginnings: Vec<(usize, SimTime)> =
        (0..lags as usize).map(|id| (id, SimTime::ZERO)).collect();
    let policy = MatchPolicy::strict();

    let batched =
        time_median(samples, || mark_up_with_policy(&video, &beginnings, &db, "perf", &policy));
    let matcher = Matcher::new();
    let per_lag = time_median(samples, || {
        let mut found = 0usize;
        for &(id, input_time) in &beginnings {
            let ann = db.get(id).expect("annotated");
            if matcher.match_lag_with_policy(&video, input_time, ann, &policy).is_ok() {
                found += 1;
            }
        }
        found
    });
    MatcherNumbers {
        lags: beginnings.len(),
        frames,
        per_lag_ms: per_lag * 1e3,
        batched_ms: batched * 1e3,
        speedup: per_lag / batched,
    }
}

struct DeviceNumbers {
    sim_s: f64,
    fixed_step_ms: f64,
    skip_ms: f64,
    speedup: f64,
}

/// One study repetition's device run — dataset 01 under ondemand with
/// HDMI capture — through the skipping loop and through the
/// one-quantum-per-step reference.
fn device_section(samples: usize) -> DeviceNumbers {
    let w = Dataset::D01.build();
    let trace = w.script.record_trace();
    let device = Device::new(DeviceConfig::default());
    let until = w.run_until();
    let run = |skip: bool| -> RunArtifacts {
        let mut gov = Ondemand::new(OndemandTunables::default());
        let replayer = ReplayAgent::new(trace.clone());
        if skip {
            device.run(&w.script, replayer, &mut gov, until)
        } else {
            reference::run(&device, &w.script, replayer, &mut gov, until)
        }
        .expect("clean run")
    };
    let (fast, slow) = (run(true), run(false));
    assert_eq!(fast.activity, slow.activity, "skipping changed the activity trace");
    assert_eq!(fast.interactions, slow.interactions, "skipping changed the interactions");

    let fixed_step = time_median(samples, || run(false));
    let skip = time_median(samples, || run(true));
    DeviceNumbers {
        sim_s: until.as_secs_f64(),
        fixed_step_ms: fixed_step * 1e3,
        skip_ms: skip * 1e3,
        speedup: fixed_step / skip,
    }
}

/// Hides a governor's quiet horizon, so the device samples it every
/// period: the sampling the device did before `Governor::quiet_until`.
struct Dense(PlanGovernor);

impl Governor for Dense {
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
}

struct SamplingNumbers {
    steps: usize,
    dense_ms: f64,
    sparse_ms: f64,
    speedup: f64,
}

/// The oracle's run of a study repetition — dataset 01's oracle plan with
/// HDMI capture — sampled at the plan's steps and sampled every period.
fn sampling_section(samples: usize) -> SamplingNumbers {
    let w = Dataset::D01.build();
    let lab = Lab::new(LabConfig { reps: 1, ..LabConfig::default() });
    let plan = lab.study(&w).expect("study").oracle_detail.plan;
    let trace = w.script.record_trace();
    let device = Device::new(DeviceConfig::default());
    let until = w.run_until();
    let run = |dense: bool| -> RunArtifacts {
        let mut plan = PlanGovernor::new("oracle", plan.clone());
        let replayer = ReplayAgent::new(trace.clone());
        if dense {
            device.run(&w.script, replayer, &mut Dense(plan), until)
        } else {
            device.run(&w.script, replayer, &mut plan, until)
        }
        .expect("clean run")
    };
    let (sparse, dense) = (run(false), run(true));
    assert_eq!(sparse.activity, dense.activity, "sparse sampling changed the activity trace");
    assert_eq!(sparse.interactions, dense.interactions, "sparse sampling changed the interactions");

    let dense_s = time_median(samples, || run(true));
    let sparse_s = time_median(samples, || run(false));
    SamplingNumbers {
        steps: plan.steps().len(),
        dense_ms: dense_s * 1e3,
        sparse_ms: sparse_s * 1e3,
        speedup: dense_s / sparse_s,
    }
}

struct WorkerNumbers {
    workers: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

/// A one-repetition study of dataset 01 on one worker and on one worker
/// per core; `None` on a one-core host, where there is nothing to gate.
fn workers_section(samples: usize) -> Option<WorkerNumbers> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workers < 2 {
        return None;
    }
    let w = Dataset::D01.build();
    let study = |workers: usize| {
        let lab = Lab::new(LabConfig { reps: 1, workers, ..LabConfig::default() });
        lab.study(&w).expect("study")
    };
    let (serial, parallel) = (study(1), study(workers));
    assert_eq!(serial.oracle_detail, parallel.oracle_detail, "workers changed the oracle");

    let serial_s = time_median(samples, || study(1));
    let parallel_s = time_median(samples, || study(workers));
    Some(WorkerNumbers {
        workers,
        serial_ms: serial_s * 1e3,
        parallel_ms: parallel_s * 1e3,
        speedup: serial_s / parallel_s,
    })
}

fn main() {
    banner("PERF — optimised hot paths vs their baselines", "speedup = baseline / optimised");

    let k = kernel_section(SAMPLES);
    println!(
        "kernel   1080p diff vs scalar reference: scalar {:.0} Mpx/s, kernel {:.0} Mpx/s, \
         speedup {:.1}x ({} px/frame)",
        k.scalar_px_per_s / 1e6,
        k.kernel_px_per_s / 1e6,
        k.speedup,
        k.pixels
    );

    let m = matcher_section(SAMPLES);
    println!(
        "matcher  batched markup vs per-lag walks: per-lag {:.2} ms, batched {:.2} ms, \
         speedup {:.1}x ({} lags, {} frames)",
        m.per_lag_ms, m.batched_ms, m.speedup, m.lags, m.frames
    );

    let d = device_section(DEVICE_SAMPLES);
    println!(
        "device   skip vs fixed-step loop: fixed-step {:.2} ms, skip {:.2} ms, speedup {:.1}x \
         (dataset 01, ondemand, HDMI, {:.0} sim-s)",
        d.fixed_step_ms, d.skip_ms, d.speedup, d.sim_s
    );

    let p = sampling_section(DEVICE_SAMPLES);
    println!(
        "sampling quiet horizons vs every period: every period {:.2} ms, quiet {:.2} ms, \
         speedup {:.1}x (dataset 01 oracle, {} plan steps, HDMI)",
        p.dense_ms, p.sparse_ms, p.speedup, p.steps
    );

    let workers = workers_section(STUDY_SAMPLES);
    match &workers {
        Some(s) => println!(
            "workers  study on {} workers vs 1: serial {:.1} ms, parallel {:.1} ms, \
             speedup {:.2}x (dataset 01, 1 rep, gate > {MIN_WORKER_SPEEDUP}x)",
            s.workers, s.serial_ms, s.parallel_ms, s.speedup
        ),
        None => println!("workers  skipped: one core, nothing to parallelise"),
    }

    assert!(k.speedup > 1.0, "kernel not faster than scalar reference: {:.3}x", k.speedup);
    assert!(m.speedup > 1.0, "batched markup not faster than per-lag walks: {:.3}x", m.speedup);
    assert!(d.speedup > 1.0, "skipping device loop not faster than fixed-step: {:.3}x", d.speedup);
    assert!(p.speedup > 1.0, "quiet-horizon sampling not faster than dense: {:.3}x", p.speedup);
    if let Some(s) = workers {
        assert!(
            s.speedup > MIN_WORKER_SPEEDUP,
            "study on {} workers not {MIN_WORKER_SPEEDUP}x faster than serial: {:.3}x",
            s.workers,
            s.speedup
        );
    }
}
