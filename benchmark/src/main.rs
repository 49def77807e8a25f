//! `interlag-perfbench` — the end-to-end and per-layer benchmark.
//!
//! ```text
//! interlag-perfbench --workload study|tune|fleet --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each workload is a closed loop with one client: the next iteration
//! starts when the last one returns. `--trace 0` times untraced
//! iterations and prints the end-to-end metrics; `--trace 1` times
//! untraced iterations for half the budget and traced ones for the
//! other half, and prints the per-layer metrics. Every iteration's
//! output is digested and checked; the last stdout line is the JSON
//! result. `NOTES.md` explains the workloads and metrics.

mod fleet;
mod probes;
mod study;
mod trace;
mod tune;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use interlag::workloads::datasets::Dataset;

use probes::RunProbe;
use trace::{attribute, Tracer};
use util::{json_num, json_str, median, quantile};

/// End-to-end metrics, printed with `--trace 0`, on every workload.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("iter_rel", "ratio"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio")];

/// Per-layer metrics, printed with `--trace 1`, on every workload (zero
/// where the workload does not reach the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("evdev.events", "count"),
    ("evdev.drift_mean_us", "us"),
    ("evdev.drift_max_us", "us"),
    ("device.runs", "count"),
    ("device.sim_s", "s"),
    ("device.run_s", "s"),
    ("device.sim_s_per_s", "s/s"),
    ("device.run_ms_p50", "ms"),
    ("device.run_ms_p90", "ms"),
    ("device.quanta", "count"),
    ("device.activity_samples", "count"),
    ("device.quanta_per_sample", "ratio"),
    ("governors.on_sample_calls", "count"),
    ("governors.on_input_calls", "count"),
    ("governors.on_sample_us", "us"),
    ("governors.freq_transitions", "count"),
    ("video.capture_calls", "count"),
    ("video.capture_s", "s"),
    ("video.frames", "count"),
    ("video.distinct_frames", "count"),
    ("matcher.markup_s", "s"),
    ("matcher.lags", "count"),
    ("matcher.failures", "count"),
    ("matcher.lag_err_ms_mean", "ms"),
    ("annotate_s", "s"),
    ("power.measure_s", "s"),
    ("power.calibrate_s", "s"),
    ("irritation_s", "s"),
    ("oracle.build_s", "s"),
    ("tune.reference_s", "s"),
    ("tune.slot_ms_p50", "ms"),
    ("tune.slot_ms_p90", "ms"),
    ("tune.slots", "count"),
    ("journal.append_us_p50", "us"),
    ("journal.append_us_p90", "us"),
    ("journal.resume_records_per_s", "1/s"),
    ("merge.records_per_s", "1/s"),
    ("sweep.run_s", "s"),
    ("sweep.final_replay_s", "s"),
    ("sweep.overhead_s", "s"),
    ("sweep.attempts", "count"),
    ("sweep.duplicates", "count"),
    ("sweep.straggler_kills", "count"),
    ("sweep.quarantined", "count"),
    ("db.ingest_us_p50", "us"),
    ("db.ingest_us_p90", "us"),
    ("db.ingest_records_per_s", "1/s"),
    ("db.query_us_p50", "us"),
    ("db.query_us_p90", "us"),
    ("db.records_folded", "count"),
    ("db.groups", "count"),
    ("db.export_ms", "ms"),
    ("trace.iter_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("failed_ratio", "ratio"),
    ("host.iter_wall_s", "s"),
    ("host.ref_ms", "ms"),
    ("host.cores", "count"),
    ("host.effective_workers", "count"),
];

/// Output digests of the full-size workloads at the default seed (0).
/// A speed-only change to the program must leave every one unchanged.
const STORED_DIGESTS: [(&str, &str); 3] =
    [("study", "d55fd7d428607bd7"), ("tune", "392a1fb9c36da8e9"), ("fleet", "a8877ad8b195c492")];

/// Set-ups timed before the loop, and after every iteration; `setup_s`
/// is the median of them all, so its samples span the whole run.
const SETUP_REPEATS: usize = 11;
const SETUP_REPEATS_PER_ITERATION: usize = 3;

/// One closed-loop iteration's outcome.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds of the timed operation.
    pub secs: f64,
    /// Digest of the iteration's outputs.
    pub digest: String,
    /// Operations attempted (repetitions, slots, shards, ingests).
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
}

impl Iteration {
    /// An iteration that could not finish.
    pub fn failed(secs: f64, why: String) -> Self {
        eprintln!("[perfbench] {why}");
        Iteration { secs, digest: format!("failed: {why}"), attempted: 1, failed: 1 }
    }
}

/// One traced iteration's per-layer figures: exact counts, which must
/// repeat across iterations, apart from timings and timing-dependent
/// counts, which are reported as medians.
#[derive(Debug, Default, Clone)]
pub struct Sheet {
    counts: BTreeMap<&'static str, f64>,
    times: BTreeMap<&'static str, f64>,
}

impl Sheet {
    /// Records an exact count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        self.counts.insert(name, v);
    }

    /// Records a timing (or a count that depends on timing).
    pub fn time(&mut self, name: &'static str, v: f64) {
        self.times.insert(name, v);
    }
}

/// The per-layer figures of a set of device runs.
pub fn device_sheet(p: &RunProbe) -> Sheet {
    let mut s = Sheet::default();
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    s.count("evdev.events", p.events as f64);
    s.count("evdev.drift_mean_us", per(p.drift_total_us, p.events));
    s.count("evdev.drift_max_us", p.drift_max_us as f64);
    s.count("device.runs", p.runs as f64);
    s.count("device.sim_s", p.sim_us as f64 / 1e6);
    s.count("device.quanta", p.quanta as f64);
    s.count("device.activity_samples", p.activity_samples as f64);
    s.count("device.quanta_per_sample", per(p.quanta, p.activity_samples));
    s.count("governors.on_sample_calls", p.sample_calls as f64);
    s.count("governors.on_input_calls", p.input_calls as f64);
    s.count("governors.freq_transitions", p.transitions as f64);
    s.count("video.capture_calls", p.capture_calls as f64);
    s.count("video.frames", p.frames as f64);
    s.count("video.distinct_frames", p.distinct_frames as f64);
    s.count("matcher.lags", p.lags as f64);
    s.count("matcher.failures", p.match_failures as f64);
    s.count("matcher.lag_err_ms_mean", per(p.lag_err_total_us, p.lag_err_count) / 1e3);
    let run_s: f64 = p.run_self_s.iter().sum();
    s.time("device.run_s", run_s);
    s.time("device.sim_s_per_s", if run_s > 0.0 { p.sim_us as f64 / 1e6 / run_s } else { 0.0 });
    let ms: Vec<f64> = p.run_self_s.iter().map(|s| s * 1e3).collect();
    s.time("device.run_ms_p50", quantile(&ms, 0.5));
    s.time("device.run_ms_p90", quantile(&ms, 0.9));
    s
}

/// A workload under the benchmark's closed loop.
pub trait Bench {
    /// Work done once before the loop and outside every timing: the
    /// references the output checks compare against.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One untraced iteration.
    fn untraced(&mut self) -> Iteration;

    /// One traced iteration, filling `sheet`; returns the output digest,
    /// which must equal the untraced one.
    fn traced(&mut self, tracer: &Tracer, sheet: &mut Sheet) -> Result<String, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["study", "tune", "fleet"].contains(&args.workload.as_str()) {
        return Err("--workload must be study, tune or fleet".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    fleet::install_panic_hook();
    let cores = util::cores();
    let workers = cores;
    let seed = args.seed;
    let work = args.out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(1);
    }

    // Each arm builds the workload once to keep, plus a closure that
    // builds (and drops) a fresh one for the set-up timing.
    type Setup = Box<dyn Fn()>;
    let (mut bench, setup, shape): (Box<dyn Bench>, Setup, String) = match args.workload.as_str() {
        "study" => {
            let sizes = if args.smoke {
                study::Sizes { dataset: Dataset::Mini, reps: 2 }
            } else {
                study::Sizes { dataset: Dataset::D01, reps: 5 }
            };
            let b = study::setup(sizes, seed, workers);
            let shape = format!(
                "dataset {} ({:.1} sim-s), reps {}, workers {workers}",
                sizes.dataset.name(),
                b.sim_span_s(),
                sizes.reps
            );
            (Box::new(b), Box::new(move || drop(study::setup(sizes, seed, workers))), shape)
        }
        "tune" => {
            let sizes = if args.smoke {
                tune::Sizes { dataset: Dataset::Mini, points: 2, reps: 1 }
            } else {
                tune::Sizes { dataset: Dataset::D02, points: 8, reps: 2 }
            };
            let b = tune::setup(sizes, seed, workers);
            let shape = format!(
                "dataset {}, interactive go-hispeed-load {} points x {} reps, workers {workers}, shards 1",
                sizes.dataset.name(),
                sizes.points,
                sizes.reps
            );
            let setup = Box::new(move || drop(tune::setup(sizes, seed, workers)));
            (Box::new(b), setup, shape)
        }
        _ => {
            let sizes = if args.smoke {
                fleet::Sizes { reps: 2, shards: 2, fleet: 3 }
            } else {
                fleet::Sizes { reps: 20, shards: 2, fleet: 64 }
            };
            let b = fleet::setup(sizes, seed, &work, workers);
            let shape = format!(
                "dataset mini, reps {}, ThreadTransport {} shards (1 worker each), fleet {} submissions",
                sizes.reps, sizes.shards, sizes.fleet
            );
            let dir = work.clone();
            let setup = Box::new(move || drop(fleet::setup(sizes, seed, &dir, workers)));
            (Box::new(b), setup, shape)
        }
    };

    let code = run(&mut *bench, &*setup, &args, cores, workers, &shape);
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(code);
}

/// The closed loop, the checks and the result line. Returns the exit code.
fn run(
    bench: &mut dyn Bench,
    setup: &dyn Fn(),
    args: &Args,
    cores: usize,
    workers: usize,
    shape: &str,
) -> i32 {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems: Vec<String> = Vec::new();
    let mut setup_times = Vec::new();
    let mut time_setups = |n: usize| {
        for _ in 0..n {
            setup_times.push(util::timed(setup).1);
        }
    };
    time_setups(SETUP_REPEATS);

    if let Err(e) = bench.prepare() {
        problems.push(format!("prepare: {e}"));
    }
    // Warm-up: fills caches, and its output is the reference every later
    // iteration must reproduce.
    let warm = bench.untraced();
    attempted += warm.attempted;
    failed += warm.failed;
    let reference = warm.digest.clone();
    if args.seed == 0 && !args.smoke {
        let stored = STORED_DIGESTS.iter().find(|(w, _)| *w == args.workload).map(|(_, d)| *d);
        if stored != Some(reference.as_str()) {
            problems.push(format!("digest {reference} differs from the stored {stored:?}"));
        }
    }

    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let min_iters = if args.trace { 2 } else { 3 };
    // The host-speed reference runs between iterations; each iteration
    // is divided by the mean of the runs just before and just after it.
    let mut secs = Vec::new();
    let mut rel = Vec::new();
    let mut refs = vec![util::reference_kernel(workers)];
    let started = Instant::now();
    while secs.len() < min_iters || started.elapsed().as_secs_f64() < budget {
        let it = bench.untraced();
        attempted += it.attempted;
        failed += it.failed;
        if it.digest != reference {
            problems.push(format!("untraced digest {} != {reference}", it.digest));
        }
        secs.push(it.secs);
        time_setups(SETUP_REPEATS_PER_ITERATION);
        refs.push(util::reference_kernel(workers));
        let host = (refs[refs.len() - 2] + refs[refs.len() - 1]) / 2.0;
        rel.push(it.secs / host);
        eprintln!(
            "[perfbench] iteration {}: {:.4} s, reference {:.4} s",
            secs.len(),
            it.secs,
            host
        );
    }
    let untraced_s = median(&secs);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let names: &[(&str, &str)] = if !args.trace {
        let ok = (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64;
        values.insert("setup_s", median(&setup_times));
        values.insert("iter_rel", median(&rel));
        values.insert("peak_rss_mb", util::peak_rss_mb());
        values.insert("ok_ratio", ok);
        END_TO_END
    } else {
        let tracer = Tracer::new();
        let mut sheets: Vec<Sheet> = Vec::new();
        let mut iter_s = Vec::new();
        let started = Instant::now();
        while sheets.len() < min_iters || started.elapsed().as_secs_f64() < budget {
            let from = tracer.mark();
            let mut sheet = Sheet::default();
            let digest = {
                let _root = tracer.span(trace::ROOT);
                bench.traced(&tracer, &mut sheet)
            };
            let spans = tracer.slice(from, tracer.mark());
            let a = attribute(&spans);
            attempted += 1;
            match digest {
                Ok(d) if d == reference => {}
                Ok(d) => {
                    failed += 1;
                    problems.push(format!("traced digest {d} != untraced {reference}"));
                }
                Err(e) => {
                    failed += 1;
                    problems.push(format!("traced run: {e}"));
                }
            }
            // The traced time of the work an untraced iteration does
            // (the fleet's traced iteration re-runs stages besides).
            let root = spans.iter().rev().find(|s| s.name == trace::ROOT);
            let root_s = root.map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
            iter_s.push(sheet.times.get("trace.iter_s").copied().unwrap_or(root_s));
            layer_times(&a, &mut sheet);
            if let Some(first) = sheets.first() {
                if first.counts != sheet.counts {
                    failed += 1;
                    problems.push("exact counts differ between traced iterations".to_string());
                }
            }
            sheets.push(sheet);
        }
        let trace_path = args.out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write_chrome(&trace_path) {
            problems.push(format!("{}: {e}", trace_path.display()));
        } else {
            eprintln!("[perfbench] wrote {}", trace_path.display());
        }
        let traced_s = median(&iter_s);
        if let Some(first) = sheets.first() {
            values.extend(first.counts.iter().map(|(k, v)| (*k, *v)));
        }
        let keys: std::collections::BTreeSet<&'static str> =
            sheets.iter().flat_map(|s| s.times.keys().copied()).collect();
        for key in keys {
            let v: Vec<f64> = sheets.iter().filter_map(|s| s.times.get(key).copied()).collect();
            values.insert(key, median(&v));
        }
        values.insert("trace.iter_s", traced_s);
        values.insert("trace.overhead_ratio", traced_s / untraced_s.max(1e-9));
        values.insert("failed_ratio", failed as f64 / attempted.max(1) as f64);
        values.insert("host.iter_wall_s", untraced_s);
        values.insert("host.ref_ms", median(&refs) * 1e3);
        values.insert("host.cores", cores as f64);
        values.insert("host.effective_workers", workers.min(cores) as f64);
        PER_LAYER
    };
    let metrics: Vec<(&str, &str, f64)> =
        names.iter().map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0))).collect();

    let correct = problems.is_empty() && failed == 0;
    problems.dedup();
    for p in &problems {
        eprintln!("[perfbench] CHECK FAILED: {p}");
    }
    println!(
        "{{\"env\": {{\"workload\": {}, \"shape\": {}, \"seed\": {}, \"cores\": {cores}, \
         \"workers\": {workers}, \"effective_workers\": {}, \"rust_backtrace\": {}, \
         \"rustc\": {}, \"commit\": {}, \"digest\": {}, \"untraced_iterations\": {}}}}}",
        json_str(&args.workload),
        json_str(shape),
        args.seed,
        workers.min(cores),
        json_str(&std::env::var("RUST_BACKTRACE").unwrap_or_else(|_| "unset".to_string())),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string())),
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())),
        json_str(&reference),
        secs.len(),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Adds the span-derived layer timings of one traced iteration.
fn layer_times(a: &trace::Attribution, sheet: &mut Sheet) {
    let self_s = |name: &str| a.self_s.get(name).copied().unwrap_or(0.0);
    let total_s = |name: &str| a.total_s.get(name).copied().unwrap_or(0.0);
    sheet.time("governors.on_sample_us", self_s("governors") * 1e6);
    sheet.time("video.capture_s", self_s("video"));
    sheet.time("matcher.markup_s", total_s("matcher.markup"));
    sheet.time("annotate_s", total_s("core.annotate"));
    sheet.time("power.measure_s", total_s("power.measure"));
    sheet.time("power.calibrate_s", total_s("power.calibrate"));
    sheet.time("irritation_s", total_s("core.irritation"));
    sheet.time("oracle.build_s", total_s("core.oracle"));
    sheet.time("tune.reference_s", total_s("tune.reference"));
    if let Some(slots) = a.each_s.get("tune.slot") {
        let ms: Vec<f64> = slots.iter().map(|s| s * 1e3).collect();
        sheet.time("tune.slot_ms_p50", quantile(&ms, 0.5));
        sheet.time("tune.slot_ms_p90", quantile(&ms, 0.9));
    }
    sheet.time("trace.unattributed_share", a.unattributed_share);
}
