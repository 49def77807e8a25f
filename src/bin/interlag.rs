//! `interlag` — command-line front end for the reproduction.
//!
//! ```text
//! interlag datasets                          list the study's workloads
//! interlag record <DS> [-o FILE]             write a dataset's getevent trace
//! interlag classify <FILE>                   classify a getevent trace
//! interlag replay <DS> -g <GOVERNOR>         one run: lags + energy
//! interlag study <DS> [-r REPS] [--csv DIR] [--trace FILE]
//!                    [--events FILE] [--strict]
//!                    [--journal FILE] [--resume]  the full §III study
//! interlag oracle <DS>                       the oracle's per-lag decisions
//! interlag sweep <DS> [-r REPS] [--shards N] [--journal-dir DIR]
//!                     [--retry-budget N] [--heartbeat-ms MS]
//!                     [--watchdog-ms MS]       the study, sharded across
//!                                              supervised agent processes
//! interlag sweep <DS> --transport tcp [--listen ADDR] [--remote-agents]
//!                     [--net-chaos PROFILE@SEED]  the same sweep over TCP
//!                                              sessions with lease fencing
//! interlag agent <DS> -r REPS --shard S --of N --stage STAGE
//!                     --journal FILE           one shard (spawned by sweep)
//! interlag agent <DS> --worker --connect ADDR [--scratch DIR]
//!                                              a self-registering remote
//!                                              worker for a TCP sweep
//! interlag tune <DS> '<GROUP>' [--workers N] [--shards N]
//!                    [--csv] [--out DIR]       score a governor-tunable grid
//!                                              against the oracle; Pareto
//!                                              frontier, byte-stable at any
//!                                              worker/shard count
//! interlag db ingest --db DIR <ARTIFACT>...    fold sealed submissions in
//! interlag db query --db DIR '<GROUP>'         query the aggregates
//! interlag db export --db DIR [--markdown]     render the whole database
//! ```
//!
//! Datasets: `01 02 03 04 05 24hour mini`. Governors: `ondemand
//! conservative interactive schedutil performance powersave` or a
//! frequency like `0.96GHz`. Property groups (`sweep --matrix`, `db
//! query`) use `key=val:key=val,val2` with `k-min/k-max/k-intvs`
//! interval expansion.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error,
//! `3` corrupt dataset, `4` study resumed but some repetitions remain
//! timed out or abandoned, `5` sweep completed degraded (some shards
//! were abandoned; their repetitions carry `Abandoned` causes), `6` db
//! ingest rejected (quarantined or duplicate) submissions, `7` a TCP
//! agent's lease epoch was fenced (a newer attempt superseded it), `8` a
//! TCP agent exhausted its reconnect budget (link dead; the supervisor's
//! local retry path takes over).

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use interlag::core::checkpoint::{study_fingerprint, StudyJournal};
use interlag::core::experiment::StudyScope;
use interlag::core::experiment::{Lab, LabConfig, StudyOptions, SweepStage};
use interlag::core::ingest::{load_trace_bytes, IngestMode, IngestReport};
use interlag::core::propgroup::PropGroup;
use interlag::core::report::{oracle_csv, profile_csv, study_csv, study_markdown_with_ingest};
use interlag::db::Db;
use interlag::device::dvfs::{FixedGovernor, Governor};
use interlag::evdev::classify::{classify_trace, count_inputs, ClassifierConfig};
use interlag::evdev::trace::EventTrace;
use interlag::faults::{AgentSabotage, ChaosProxy, NetFaults, SabotageKind, TransportFaults};
use interlag::governors::{Conservative, Interactive, Ondemand, Performance, Powersave, Schedutil};
use interlag::journal::atomic_write;
use interlag::obs::{Counter, Recorder};
use interlag::orchestrator::agent::{AgentDeath, KillSwitch};
use interlag::orchestrator::{
    parse_stage, run_agent, run_sweep, run_tcp_agent, run_tcp_worker, run_tune, tune_csv,
    tune_markdown, AgentConfig, ClientPolicy, ProcessTransport, SweepConfig, TcpAgentMode,
    TcpClientOpts, TcpTransport, TuneConfig, TuneError, EXIT_FENCED, EXIT_LINK_DEAD,
};
use interlag::power::opp::Frequency;
use interlag::workloads::datasets::Dataset;
use interlag::workloads::gen::Workload;

/// Exit code for usage errors.
const EXIT_USAGE: u8 = 2;
/// Exit code for a dataset the loaders rejected as corrupt.
const EXIT_CORRUPT_DATASET: u8 = 3;
/// Exit code for a resumed study that completed with timed-out or
/// abandoned repetitions still in it.
const EXIT_RESUMED_DEGRADED: u8 = 4;
/// Exit code for a sharded sweep that completed but abandoned one or
/// more shards: the report is whole, some repetitions are synthesised
/// `Abandoned` placeholders rather than measurements.
const EXIT_SWEEP_DEGRADED: u8 = 5;
/// Exit code for a `db ingest` that rejected one or more submissions
/// (quarantined or duplicate); accepted artifacts were still folded.
const EXIT_INGEST_REJECTED: u8 = 6;

fn usage() -> ExitCode {
    eprintln!(
        "usage: interlag <command> [args]\n\
         \n\
         commands:\n\
         \x20 datasets                         list the study's workloads\n\
         \x20 record <DS> [-o FILE]            write a dataset's getevent trace\n\
         \x20 classify <FILE>                  classify a getevent trace\n\
         \x20 replay <DS> -g <GOVERNOR>        one run: lag + energy summary\n\
         \x20 study <DS> [-r REPS] [--csv DIR] [--trace FILE]\n\
         \x20            [--events FILE] [--strict] [--journal FILE] [--resume]\n\
         \x20                                  the full 18-configuration study;\n\
         \x20                                  --trace writes a Chrome trace (.json:\n\
         \x20                                  JSON text, else compact binary);\n\
         \x20                                  --events replays an ingested getevent log\n\
         \x20                                  (--strict fails fast on corrupt datasets,\n\
         \x20                                  the default salvages what parses);\n\
         \x20                                  --journal checkpoints each repetition\n\
         \x20                                  (.json/.jsonl: JSON lines, else binary),\n\
         \x20                                  --resume replays a prior journal\n\
         \x20 oracle <DS>                      the oracle's per-lag decisions\n\
         \x20 sweep <DS> [-r REPS] [--shards N] [--journal-dir DIR]\n\
         \x20            [--retry-budget N] [--heartbeat-ms MS] [--watchdog-ms MS]\n\
         \x20            [--markdown] [--sabotage KIND@CKPT:SHARD:ATTEMPT]\n\
         \x20            [--jitter-us US] [--matrix GROUP] [--db DIR]\n\
         \x20            [--transport process|tcp] [--listen ADDR]\n\
         \x20            [--remote-agents] [--net-chaos PROFILE@SEED]\n\
         \x20                                  the study, sharded across supervised\n\
         \x20                                  agent processes; exits 5 if any shard\n\
         \x20                                  was abandoned (degraded report);\n\
         \x20                                  --matrix expands a property group\n\
         \x20                                  (keys reps, jitter-us, shards) into one\n\
         \x20                                  sweep per point; --db ingests each\n\
         \x20                                  sweep's sealed submission artifact;\n\
         \x20                                  --transport tcp runs agents as epoch-\n\
         \x20                                  fenced TCP sessions (--listen, default\n\
         \x20                                  127.0.0.1:0; --remote-agents waits for\n\
         \x20                                  self-registering workers instead of\n\
         \x20                                  spawning local ones; --net-chaos fronts\n\
         \x20                                  the listener with a seeded fault proxy:\n\
         \x20                                  partition rst reorder duplicate delay storm)\n\
         \x20 agent <DS> -r REPS --shard S --of N --stage stage1|oracle\n\
         \x20            --journal FILE [--heartbeat-ms MS] [--sabotage KIND@CKPT]\n\
         \x20            [--jitter-us US] [--connect ADDR --epoch N --attempt N]\n\
         \x20                                  one shard of a sweep (spawned by sweep;\n\
         \x20                                  speaks framed messages on stdout, or as\n\
         \x20                                  a resumable TCP session with --connect)\n\
         \x20 agent <DS> --worker --connect ADDR [--scratch DIR] [--jitter-us US]\n\
         \x20                                  loop as a remote worker: register with a\n\
         \x20                                  --remote-agents sweep supervisor, run\n\
         \x20                                  assigned shards until drained\n\
         \x20 tune <DS> GROUP [--workers N] [--shards N] [--csv] [--out DIR]\n\
         \x20                                  score a governor-tunable grid against\n\
         \x20                                  the per-workload oracle, e.g.\n\
         \x20                                  governor=interactive:go-hispeed-load-min=60:\n\
         \x20                                  go-hispeed-load-max=95:go-hispeed-load-intvs=8\n\
         \x20                                  (fleet keys reps, jitter-us); prints the\n\
         \x20                                  Pareto frontier as Markdown (--csv for CSV),\n\
         \x20                                  --out writes both frontier.md and frontier.csv\n\
         \x20 db ingest --db DIR <ARTIFACT>... fold sealed submissions into the\n\
         \x20                                  results database (exit 6 if any were\n\
         \x20                                  quarantined or duplicates)\n\
         \x20 db query --db DIR GROUP          query aggregates, e.g.\n\
         \x20                                  governor=ondemand:device=sim14:stat=p95-lag\n\
         \x20 db export --db DIR [--markdown]  render the whole database (CSV default)\n\
         \n\
         datasets: 01 02 03 04 05 24hour mini\n\
         governors: ondemand conservative interactive schedutil performance powersave <freq>GHz\n\
         property groups: key=val:key=val,val2  (k-min=A:k-max=B:k-intvs=N expands)\n\
         exit codes: 0 ok, 1 failure, 2 usage, 3 corrupt dataset,\n\
         \x20           4 resumed study still has timed-out/abandoned reps,\n\
         \x20           5 sweep completed degraded (abandoned shards),\n\
         \x20           6 db ingest rejected submissions,\n\
         \x20           {EXIT_FENCED} tcp agent fenced (lease superseded by a newer attempt),\n\
         \x20           {EXIT_LINK_DEAD} tcp agent link dead (reconnect budget exhausted)"
    );
    ExitCode::from(EXIT_USAGE)
}

fn dataset(name: &str) -> Option<Dataset> {
    match name {
        "01" => Some(Dataset::D01),
        "02" => Some(Dataset::D02),
        "03" => Some(Dataset::D03),
        "04" => Some(Dataset::D04),
        "05" => Some(Dataset::D05),
        "24hour" | "24h" => Some(Dataset::Day24h),
        "mini" => Some(Dataset::Mini),
        _ => None,
    }
}

fn flag_value(args: &[String], names: &[&str]) -> Option<String> {
    args.iter().position(|a| names.contains(&a.as_str())).and_then(|i| args.get(i + 1)).cloned()
}

/// A numeric flag: absent is `Ok(None)`; present but malformed is a
/// usage rejection naming the flag and the offending text. This replaces
/// the old `parse().ok().unwrap_or(default)` idiom, which turned a typo
/// like `--reps abc` into a silent run with 1 repetition.
fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    names: &[&str],
) -> Result<Option<T>, ExitCode> {
    match flag_value(args, names) {
        None => Ok(None),
        Some(v) => match v.parse() {
            Ok(n) => Ok(Some(n)),
            Err(_) => {
                let flag = names.last().copied().unwrap_or("flag");
                eprintln!("interlag: {flag} wants a number, got {v:?}");
                Err(usage())
            }
        },
    }
}

/// `numeric_flag` with a default, early-returning the usage exit code on
/// a malformed value.
macro_rules! flag_or {
    ($args:expr, $names:expr, $default:expr) => {
        match numeric_flag($args, $names) {
            Ok(v) => v.unwrap_or($default),
            Err(code) => return code,
        }
    };
}

/// Optional `numeric_flag`, early-returning the usage exit code on a
/// malformed value.
macro_rules! flag_opt {
    ($args:expr, $names:expr) => {
        match numeric_flag($args, $names) {
            Ok(v) => v,
            Err(code) => return code,
        }
    };
}

fn governor_by_name(name: &str, lab: &Lab) -> Option<Box<dyn Governor>> {
    let table = &lab.device().config().opps;
    Some(match name {
        "ondemand" => Box::new(Ondemand::default()),
        "conservative" => Box::new(Conservative::default()),
        "interactive" => Box::new(Interactive::for_table(table)),
        "schedutil" => Box::new(Schedutil::default()),
        "performance" => Box::new(Performance),
        "powersave" => Box::new(Powersave),
        other => {
            let ghz: f64 = other.trim_end_matches("GHz").trim_end_matches("ghz").parse().ok()?;
            Box::new(FixedGovernor::new(Frequency::from_khz((ghz * 1e6) as u32)))
        }
    })
}

fn cmd_datasets() -> ExitCode {
    println!("{:<8} {:<52} {:>7} {:>8}", "dataset", "description", "inputs", "length");
    for ds in Dataset::TEN_MINUTE.iter().copied().chain([Dataset::Day24h, Dataset::Mini]) {
        let w = ds.build();
        println!(
            "{:<8} {:<52} {:>7} {:>7.0}s",
            w.name,
            w.description,
            w.script.interactions.len(),
            w.duration.as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_record(w: &Workload, out: Option<String>) -> ExitCode {
    let trace = w.script.record_trace();
    let text = trace.to_getevent_text();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("interlag: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} events ({} bytes) to {path}", trace.len(), text.len());
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(text.as_bytes());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_classify(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("interlag: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace: EventTrace = match text.parse() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("interlag: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inputs = classify_trace(&trace, &ClassifierConfig::default());
    let counts = count_inputs(&inputs);
    println!(
        "{} raw events over {:.1} s -> {} inputs: {} taps, {} swipes, {} keys",
        trace.len(),
        trace.span().as_secs_f64(),
        counts.total(),
        counts.taps,
        counts.swipes,
        counts.keys
    );
    for i in &inputs {
        println!(
            "  {:>10.3}s {:?} at ({}, {}) travel {:.0}px hold {}",
            i.time.as_secs_f64(),
            i.class,
            i.pos.x,
            i.pos.y,
            i.travel,
            i.duration
        );
    }
    ExitCode::SUCCESS
}

fn cmd_replay(w: &Workload, gov_name: &str) -> ExitCode {
    let lab = Lab::new(LabConfig::default());
    let Some(mut gov) = governor_by_name(gov_name, &lab) else {
        eprintln!("interlag: unknown governor {gov_name:?}");
        return ExitCode::from(2);
    };
    let run = match lab.run(w, w.script.record_trace(), gov.as_mut()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("interlag: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let energy = lab.meter().measure(&run.activity);
    let lags: Vec<f64> =
        run.interactions.iter().filter_map(|r| r.true_lag()).map(|l| l.as_millis_f64()).collect();
    let mean = if lags.is_empty() { 0.0 } else { lags.iter().sum::<f64>() / lags.len() as f64 };
    println!(
        "dataset {} under {}: {} interactions serviced, mean lag {:.0} ms, max {:.0} ms",
        w.name,
        gov_name,
        lags.len(),
        mean,
        lags.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "dynamic CPU energy {:.2} J; busy {:.1} s of {:.1} s",
        energy.dynamic_mj / 1_000.0,
        run.activity.busy_time().as_secs_f64(),
        run.activity.total_duration().as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// Everything `interlag study` takes from the command line.
struct StudyArgs {
    reps: u32,
    csv_dir: Option<String>,
    markdown: bool,
    trace_out: Option<String>,
    /// Replay an externally recorded getevent log through the hardened
    /// loader instead of recording the trace from the script.
    events: Option<String>,
    /// Fail fast on the first dataset defect instead of salvaging.
    strict: bool,
    journal: Option<String>,
    resume: bool,
}

fn cmd_study(w: &Workload, args: StudyArgs) -> ExitCode {
    let mode = if args.strict { IngestMode::Strict } else { IngestMode::Salvage };
    let mut ingest = IngestReport::default();

    // The trace the study will replay: recorded from the script, or
    // loaded from disk through the hardened loader.
    let events_trace = match &args.events {
        None => None,
        Some(path) => {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("interlag: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match load_trace_bytes(&bytes, mode) {
                Ok((trace, report)) => {
                    ingest.merge(report);
                    Some(trace)
                }
                Err(e) => {
                    eprintln!("interlag: {path}: corrupt dataset: {e}");
                    return ExitCode::from(EXIT_CORRUPT_DATASET);
                }
            }
        }
    };
    if !ingest.is_clean() {
        eprintln!(
            "interlag: salvage mode dropped {} unparseable input(s); \
             re-run with --strict to fail instead",
            ingest.total_dropped()
        );
    }

    let obs = if args.trace_out.is_some() {
        interlag::obs::Recorder::enabled()
    } else {
        Default::default()
    };
    let lab_config = LabConfig { reps: args.reps, obs: obs.clone(), ..Default::default() };

    // The journal fingerprints the exact trace bytes the study replays
    // plus the result-affecting lab settings, so resuming against a
    // different dataset or configuration re-runs instead of splicing.
    let trace = events_trace.unwrap_or_else(|| w.script.record_trace());
    let journal = match &args.journal {
        None => None,
        Some(path) => {
            let fp = study_fingerprint(&trace.to_getevent_text(), &lab_config);
            let opened = if args.resume {
                StudyJournal::resume(path, fp)
            } else {
                StudyJournal::create(path, fp)
            };
            match opened {
                Ok(j) => {
                    if args.resume {
                        eprintln!(
                            "interlag: resuming from {path}: {} repetition(s) journalled, \
                             {} torn record(s) dropped, {} foreign record(s) ignored",
                            j.replayable(),
                            j.torn(),
                            j.foreign(),
                        );
                    }
                    Some(j)
                }
                Err(e) => {
                    eprintln!("interlag: cannot open journal {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let lab = Lab::new(lab_config);
    let options = StudyOptions { journal: journal.as_ref(), trace: Some(trace), scope: None };
    let study = match lab.study_with(w, options) {
        Ok(study) => study,
        Err(e) => {
            eprintln!("interlag: study failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(j) = &journal {
        if j.write_errors() > 0 {
            eprintln!(
                "interlag: warning: {} journal append(s) failed; \
                 the study completed but a resume may repeat work",
                j.write_errors()
            );
        }
    }

    if args.markdown {
        print!("{}", study_markdown_with_ingest(&study, &ingest));
        if args.trace_out.is_some() {
            print!("\n{}", obs.text_report());
        }
    } else {
        print!("{}", study_csv(&study));
    }
    if let Some(path) = &args.trace_out {
        // `.json` gets the Chrome trace-event text; any other extension
        // gets the compact CRC-framed binary form, convertible back to the
        // identical JSON with interlag_obs::binary_trace_to_chrome_json.
        let result = if path.ends_with(".json") {
            atomic_write(path, obs.chrome_trace_json())
        } else {
            atomic_write(path, obs.binary_trace())
        };
        if let Err(e) = result {
            eprintln!("interlag: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (load it in about:tracing or ui.perfetto.dev)");
    }
    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("interlag: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        let files = [
            (format!("{dir}/study-{}.csv", w.name), study_csv(&study)),
            (format!("{dir}/oracle-{}.csv", w.name), oracle_csv(&study)),
        ];
        for (path, data) in files {
            if let Err(e) = atomic_write(&path, data) {
                eprintln!("interlag: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        for c in study.all_configs() {
            let path = format!("{dir}/profile-{}-{}.csv", w.name, c.name.replace(' ', ""));
            if atomic_write(&path, profile_csv(c)).is_ok() {
                eprintln!("wrote {path}");
            }
        }
    }

    // A resumed sweep that still carries holes must say so in its exit
    // code: downstream automation treats 4 as "reports written, but
    // incomplete — inspect before trusting aggregates".
    let degraded: usize = study.all_configs().map(|c| c.abandoned() + c.timed_out()).sum();
    if args.resume && degraded > 0 {
        eprintln!("interlag: resumed study still has {degraded} timed-out/abandoned repetition(s)");
        return ExitCode::from(EXIT_RESUMED_DEGRADED);
    }
    ExitCode::SUCCESS
}

/// Every occurrence of a repeatable flag's value (`--sabotage A --sabotage B`).
fn flag_values(args: &[String], names: &[&str]) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| names.contains(&a.as_str()))
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parses an agent-side sabotage flag: `crash@N`, `wedge@N`, `tear@N`.
fn parse_agent_sabotage(flag: &str) -> Option<SabotageKind> {
    let (kind, at) = flag.split_once('@')?;
    let at: u32 = at.parse().ok()?;
    match kind {
        "crash" => Some(SabotageKind::CrashAtCheckpoint(at)),
        "wedge" => Some(SabotageKind::WedgeAtCheckpoint(at)),
        "tear" => Some(SabotageKind::TearJournal(at)),
        _ => None,
    }
}

/// Parses a supervisor sabotage schedule entry,
/// `KIND@CKPT:SHARD:ATTEMPT` (e.g. `crash@2:0:0`; `ATTEMPT` may be `*`
/// for every attempt the retry budget allows). `kill` is the
/// supervisor-side kill at the Nth received checkpoint frame.
fn parse_sweep_sabotage(entry: &str, budget: u32) -> Option<Vec<AgentSabotage>> {
    let mut parts = entry.split(':');
    let kind_at = parts.next()?;
    let shard: u32 = parts.next()?.parse().ok()?;
    let attempt = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    let (kind, at) = kind_at.split_once('@')?;
    let at: u32 = at.parse().ok()?;
    let kind = match kind {
        "crash" => SabotageKind::CrashAtCheckpoint(at),
        "wedge" => SabotageKind::WedgeAtCheckpoint(at),
        "tear" => SabotageKind::TearJournal(at),
        "kill" => SabotageKind::KillAfterRecords(at),
        _ => return None,
    };
    let attempts: Vec<u32> =
        if attempt == "*" { (0..=budget).collect() } else { vec![attempt.parse().ok()?] };
    Some(attempts.into_iter().map(|attempt| AgentSabotage { shard, attempt, kind }).collect())
}

/// `interlag agent`: one shard of a sweep, normally spawned by
/// `interlag sweep`. Speaks framed [`interlag::orchestrator::WireMsg`]s
/// on stdout — or, with `--connect`, as a resumable epoch-fenced TCP
/// session; the shard journal on disk is the durable result either way.
/// With `--worker` it instead loops as a self-registering remote worker.
fn cmd_agent(w: &Workload, args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--worker") {
        return cmd_worker(w, args);
    }
    let reps = flag_or!(args, &["-r", "--reps"], 1);
    let Some(shard) = flag_opt!(args, &["--shard"]) else {
        eprintln!("interlag: agent requires --shard N");
        return usage();
    };
    let Some(of) = flag_opt!(args, &["--of"]) else {
        eprintln!("interlag: agent requires --of N");
        return usage();
    };
    let Some(stage) = flag_value(args, &["--stage"]).as_deref().and_then(parse_stage) else {
        eprintln!("interlag: agent requires --stage stage1|oracle");
        return usage();
    };
    let Some(journal) = flag_value(args, &["--journal"]) else {
        eprintln!("interlag: agent requires --journal FILE");
        return usage();
    };
    let heartbeat = flag_or!(args, &["--heartbeat-ms"], 1_000u64);
    let sabotage = match flag_value(args, &["--sabotage"]) {
        None => None,
        Some(flag) => match parse_agent_sabotage(&flag) {
            Some(kind) => Some(kind),
            None => {
                eprintln!("interlag: bad --sabotage {flag:?} (crash@N, wedge@N, tear@N)");
                return usage();
            }
        },
    };
    let mut lab = LabConfig { reps, ..Default::default() };
    if let Some(jitter) = flag_opt!(args, &["--jitter-us"]) {
        // Part of the study fingerprint: must match the supervisor's lab.
        lab.jitter_us = jitter;
    }
    let cfg = AgentConfig {
        workload: w.clone(),
        lab,
        scope: StudyScope { shard, of, stage },
        journal_path: journal.into(),
        heartbeat: Duration::from_millis(heartbeat),
        sabotage,
        abort_on_crash: true,
        kill: None,
    };
    let outcome = match flag_value(args, &["--connect"]) {
        None => run_agent(cfg, Box::new(std::io::stdout())),
        Some(addr) => {
            let opts = TcpClientOpts {
                addr,
                epoch: flag_or!(args, &["--epoch"], 1u64),
                attempt: flag_or!(args, &["--attempt"], 0u32),
                policy: match client_policy(args) {
                    Ok(policy) => policy,
                    Err(code) => return code,
                },
            };
            run_tcp_agent(opts, cfg)
        }
    };
    match outcome {
        Ok(report) => {
            eprintln!(
                "interlag agent {shard}/{of}: {} repetition(s) journalled, {} write error(s)",
                report.completed, report.write_errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("interlag: agent failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reconnect policy shared by `agent --connect` and `agent --worker`:
/// defaults unless overridden by `--retry-budget` / `--backoff-seed`.
fn client_policy(args: &[String]) -> Result<ClientPolicy, ExitCode> {
    let mut policy = ClientPolicy::default();
    if let Some(budget) = numeric_flag(args, &["--retry-budget"])? {
        policy.retry_budget = budget;
    }
    if let Some(seed) = numeric_flag(args, &["--backoff-seed"])? {
        policy.backoff_seed = seed;
    }
    Ok(policy)
}

/// `interlag agent --worker`: connect to a `sweep --transport tcp
/// --remote-agents` supervisor, announce availability, and run every
/// assigned shard as its own epoch-fenced TCP session until drained.
fn cmd_worker(w: &Workload, args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, &["--connect"]) else {
        eprintln!("interlag: agent --worker requires --connect ADDR");
        return usage();
    };
    let policy = match client_policy(args) {
        Ok(policy) => policy,
        Err(code) => return code,
    };
    let scratch = flag_value(args, &["--scratch"]).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("interlag-worker-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("interlag: cannot create scratch dir {scratch}: {e}");
        return ExitCode::FAILURE;
    }
    let jitter = flag_opt!(args, &["--jitter-us"]);
    // A supervisor kill (lease revoked, watchdog fired) unwinds the task
    // as `AgentDeath` by design; the worker catches it and goes back to
    // the queue. Keep the default hook's backtrace for real panics only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<AgentDeath>().is_none() {
            default_hook(info);
        }
    }));
    let outcome = run_tcp_worker(&addr, &policy, std::path::Path::new(&scratch), |task| {
        let mut lab = LabConfig { reps: task.reps, ..Default::default() };
        if let Some(us) = jitter {
            lab.jitter_us = us;
        }
        AgentConfig {
            workload: w.clone(),
            lab,
            scope: StudyScope {
                shard: task.shard,
                of: task.of,
                // An unknown stage name can only come from a foreign
                // supervisor; the fingerprint check kills the attempt
                // either way, so any valid stage serves as the probe.
                stage: parse_stage(&task.stage).unwrap_or(SweepStage::Stage1),
            },
            journal_path: task.journal_path.clone(),
            heartbeat: task.heartbeat,
            sabotage: None,
            abort_on_crash: false,
            kill: Some(std::sync::Arc::new(KillSwitch::new())),
        }
    });
    match outcome {
        Ok(tasks) => {
            eprintln!("interlag worker: drained after {tasks} task(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("interlag: worker failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--net-chaos PROFILE@SEED` (seed decimal or `0x` hex).
fn parse_net_chaos(text: &str) -> Option<(NetFaults, u64)> {
    let (name, seed) = text.split_once('@')?;
    let faults = NetFaults::profile(name)?;
    let seed = match seed.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok()?,
        None => seed.parse().ok()?,
    };
    Some((faults, seed))
}

/// Extracts one counter's value from a [`Recorder::text_report`]
/// Markdown table (`| name | value |`); `0` when absent.
fn counter_row(report: &str, name: &str) -> u64 {
    let needle = format!("| {name} | ");
    report
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|rest| rest.trim_end_matches(" |").trim().parse().ok())
        .unwrap_or(0)
}

/// One expanded matrix point's effective sweep knobs.
struct SweepPoint {
    reps: u32,
    jitter_us: Option<u64>,
    shards: u32,
    /// Canonical `key=value` bindings recorded in the sealed submission
    /// manifest (and printed as the point's label).
    props: Vec<String>,
    /// The canonical point text, `None` for an unparameterised sweep.
    label: Option<String>,
}

/// Expands `--matrix GROUP` into sweep points over the base knobs.
/// Supported keys: `reps`, `jitter-us`, `shards`.
fn sweep_points(matrix: Option<&str>, reps: u32, shards: u32) -> Result<Vec<SweepPoint>, String> {
    let Some(text) = matrix else {
        return Ok(vec![SweepPoint {
            reps,
            jitter_us: None,
            shards,
            props: Vec::new(),
            label: None,
        }]);
    };
    let group: PropGroup = text.parse().map_err(|e| format!("bad --matrix: {e}"))?;
    let points = group.expand().map_err(|e| format!("bad --matrix: {e}"))?;
    points
        .into_iter()
        .map(|point| {
            let mut p = SweepPoint {
                reps,
                jitter_us: None,
                shards,
                props: point.pairs().iter().map(|(k, v)| format!("{k}={v}")).collect(),
                label: Some(point.to_string()),
            };
            for (key, value) in point.pairs() {
                let parsed = value
                    .parse()
                    .map_err(|_| format!("bad --matrix: {key}={value} is not an unsigned integer"));
                match key.as_str() {
                    "reps" => p.reps = parsed? as u32,
                    "jitter-us" => p.jitter_us = Some(parsed?),
                    "shards" => p.shards = parsed? as u32,
                    other => {
                        return Err(format!(
                            "bad --matrix: unsupported key {other:?} (reps, jitter-us, shards)"
                        ))
                    }
                }
            }
            Ok(p)
        })
        .collect()
}

/// `interlag sweep`: the full study, partitioned across supervised
/// `interlag agent` child processes and merged byte-identically. With
/// `--matrix` the whole sweep runs once per expanded point; with `--db`
/// each point's sealed submission is folded into the results database.
fn cmd_sweep(w: &Workload, dataset: &str, args: &[String]) -> ExitCode {
    let reps = flag_or!(args, &["-r", "--reps"], 1);
    let shards = flag_or!(args, &["--shards"], 4u32);
    let journal_dir = flag_value(args, &["--journal-dir"]).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("interlag-sweep-{}-{}", w.name, std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let matrix = flag_value(args, &["--matrix"]);
    let points = match sweep_points(matrix.as_deref(), reps, shards) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("interlag: {e}");
            return usage();
        }
    };
    let base_jitter = flag_opt!(args, &["--jitter-us"]);
    let mut db = match flag_value(args, &["--db"]) {
        None => None,
        Some(dir) => match Db::open(&dir, Default::default()) {
            Ok(db) => Some(db),
            Err(e) => {
                eprintln!("interlag: cannot open db {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("interlag: cannot locate own binary to spawn agents: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tcp = match flag_value(args, &["--transport"]).as_deref() {
        None | Some("process") => false,
        Some("tcp") => true,
        Some(other) => {
            eprintln!("interlag: unknown --transport {other:?} (process, tcp)");
            return usage();
        }
    };
    let listen = flag_value(args, &["--listen"]).unwrap_or_else(|| "127.0.0.1:0".to_string());
    let remote_agents = args.iter().any(|a| a == "--remote-agents");
    let net_chaos = match flag_value(args, &["--net-chaos"]) {
        None => None,
        Some(text) => match parse_net_chaos(&text) {
            Some(parsed) => Some(parsed),
            None => {
                eprintln!(
                    "interlag: bad --net-chaos {text:?} (PROFILE@SEED, profiles \
                     partition rst reorder duplicate delay storm)"
                );
                return usage();
            }
        },
    };
    if !tcp && (remote_agents || net_chaos.is_some() || flag_value(args, &["--listen"]).is_some()) {
        eprintln!("interlag: --listen/--remote-agents/--net-chaos require --transport tcp");
        return usage();
    }

    let multi = points.len() > 1;
    let mut worst = ExitCode::SUCCESS;
    for (i, point) in points.iter().enumerate() {
        let dir = if multi { format!("{journal_dir}/point-{i}") } else { journal_dir.clone() };
        let mut cfg = SweepConfig::new(point.shards, dir);
        cfg.props = point.props.clone();
        if let Some(budget) = flag_opt!(args, &["--retry-budget"]) {
            cfg.retry_budget = budget;
        }
        let heartbeat = flag_or!(args, &["--heartbeat-ms"], 250u64);
        if let Some(ms) = flag_opt!(args, &["--watchdog-ms"]) {
            cfg.heartbeat_timeout = Duration::from_millis(ms);
        }
        cfg.heartbeat_timeout = cfg.heartbeat_timeout.max(Duration::from_millis(heartbeat * 4));
        let mut sabotage = Vec::new();
        for entry in flag_values(args, &["--sabotage"]) {
            match parse_sweep_sabotage(&entry, cfg.retry_budget) {
                Some(mut parsed) => sabotage.append(&mut parsed),
                None => {
                    eprintln!(
                        "interlag: bad --sabotage {entry:?} \
                         (KIND@CKPT:SHARD:ATTEMPT, kinds crash wedge tear kill, attempt may be *)"
                    );
                    return usage();
                }
            }
        }
        let jitter = point.jitter_us.or(base_jitter);
        let mut extra_args = Vec::new();
        if let Some(us) = jitter {
            extra_args.extend(["--jitter-us".to_string(), us.to_string()]);
        }
        let mut lab = LabConfig { reps: point.reps, ..Default::default() };
        if let Some(us) = jitter {
            lab.jitter_us = us;
        }
        let out = if tcp {
            if !sabotage.is_empty() {
                eprintln!("interlag: --sabotage is not supported with --transport tcp");
                return usage();
            }
            // The session counters (reconnects, fenced epochs, lease
            // expiries, injected faults) are the transport's whole
            // observable surface — record them unconditionally.
            lab.obs = Recorder::enabled();
            let mode = if remote_agents {
                TcpAgentMode::External { reps: point.reps }
            } else {
                TcpAgentMode::Spawn {
                    exe: exe.clone(),
                    dataset: dataset.to_string(),
                    reps: point.reps,
                    extra_args,
                }
            };
            let mut transport = match TcpTransport::bind(
                &listen,
                mode,
                Duration::from_millis(heartbeat),
                lab.obs.clone(),
            ) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("interlag: cannot bind {listen}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let proxy = match &net_chaos {
                None => None,
                Some((faults, seed)) => match ChaosProxy::spawn(transport.addr(), *faults, *seed) {
                    Ok(p) => {
                        transport.connect_addr = p.addr().to_string();
                        Some(p)
                    }
                    Err(e) => {
                        eprintln!("interlag: cannot spawn chaos proxy: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            if remote_agents {
                eprintln!(
                    "interlag sweep: waiting for workers on {} \
                     (run `interlag agent <DS> --worker --connect {}` on each host)",
                    transport.connect_addr, transport.connect_addr,
                );
            }
            let out = run_sweep(w, lab.clone(), &mut transport, &cfg);
            if let Some(p) = &proxy {
                lab.obs.count(Counter::NetFaultsInjected, p.injected().total());
            }
            let report = lab.obs.text_report();
            eprintln!(
                "interlag sweep: tcp transport: {} reconnect(s), {} lease expiry(ies), \
                 {} fenced record(s), {} fault(s) injected",
                counter_row(&report, "agent_reconnects"),
                counter_row(&report, "lease_expiries"),
                counter_row(&report, "fenced_epoch_records"),
                counter_row(&report, "net_faults_injected"),
            );
            out
        } else {
            let mut transport = ProcessTransport {
                exe: exe.clone(),
                dataset: dataset.to_string(),
                reps: point.reps,
                heartbeat: Duration::from_millis(heartbeat),
                faults: TransportFaults::none(),
                fault_seed: 0,
                sabotage,
                extra_args,
            };
            run_sweep(w, lab, &mut transport, &cfg)
        };
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("interlag: sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(label) = &point.label {
            println!("# matrix-point: {label}");
        }
        if args.iter().any(|a| a == "--markdown") {
            print!("{}", study_markdown_with_ingest(&out.study, &IngestReport::default()));
        } else {
            print!("{}", study_csv(&out.study));
        }
        let retried: u32 = out.shards.iter().map(|s| s.attempts.saturating_sub(1)).sum();
        eprintln!(
            "interlag sweep: {} shard dispatch(es) over 2 waves, {} retried, {} abandoned; \
             {} torn fragment(s), {} quarantined record(s); merged journal {}",
            out.shards.len(),
            retried,
            out.shards.iter().filter(|s| s.abandoned.is_some()).count(),
            out.torn,
            out.quarantined,
            out.merged_journal.display(),
        );
        if let Some(db) = &mut db {
            match db.ingest_file(&out.submission) {
                Ok(receipt) => eprintln!(
                    "interlag sweep: submission {:016x} folded into {} \
                     ({} repetition(s), {} lag(s))",
                    receipt.id,
                    db.dir().display(),
                    receipt.reps_folded,
                    receipt.lags_folded,
                ),
                Err(e) => {
                    eprintln!("interlag: db ingest of {} failed: {e}", out.submission.display());
                    worst = ExitCode::from(EXIT_INGEST_REJECTED);
                }
            }
        }
        if out.degraded {
            eprintln!(
                "interlag: sweep degraded: abandoned shards left synthesised \
                 Abandoned repetition(s)"
            );
            worst = ExitCode::from(EXIT_SWEEP_DEGRADED);
        }
    }
    worst
}

/// `interlag db`: the fleet results database verbs.
fn cmd_db(args: &[String]) -> ExitCode {
    let Some(verb) = args.get(1).map(String::as_str) else {
        eprintln!("interlag: db requires a verb: ingest, query or export");
        return usage();
    };
    let Some(dir) = flag_value(args, &["--db"]) else {
        eprintln!("interlag: db {verb} requires --db DIR");
        return usage();
    };
    let mut db = match Db::open(&dir, Default::default()) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("interlag: cannot open db {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match verb {
        "ingest" => {
            // Positional operands: everything after the verb that is not a
            // flag or a flag's value.
            let artifacts: Vec<&String> = args
                .iter()
                .enumerate()
                .skip(2)
                .filter(|(i, a)| !a.starts_with("--") && args[i - 1] != "--db")
                .map(|(_, a)| a)
                .collect();
            if artifacts.is_empty() {
                eprintln!("interlag: db ingest requires at least one ARTIFACT");
                return usage();
            }
            let mut rejected = 0usize;
            for path in &artifacts {
                match db.ingest_file(path) {
                    Ok(receipt) => eprintln!(
                        "ingested {path}: submission {:016x}, {} repetition(s), \
                         {} lag(s), {} degraded",
                        receipt.id, receipt.reps_folded, receipt.lags_folded, receipt.degraded,
                    ),
                    Err(e) => {
                        eprintln!("rejected {path}: {e}");
                        rejected += 1;
                    }
                }
            }
            eprintln!(
                "interlag db: {} ingested, {rejected} rejected; {} group(s) aggregated",
                artifacts.len() - rejected,
                db.groups().len(),
            );
            if rejected > 0 {
                return ExitCode::from(EXIT_INGEST_REJECTED);
            }
            ExitCode::SUCCESS
        }
        "query" => {
            let Some(group) = args
                .iter()
                .enumerate()
                .skip(2)
                .find(|(i, a)| !a.starts_with("--") && args[i - 1] != "--db")
                .map(|(_, a)| a)
            else {
                eprintln!("interlag: db query requires a property group");
                return usage();
            };
            match interlag::db::query(&db, group) {
                Ok(rows) => {
                    print!("{rows}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("interlag: {e}");
                    usage()
                }
            }
        }
        "export" => {
            if args.iter().any(|a| a == "--markdown") {
                print!("{}", interlag::db::export_markdown(&db));
            } else {
                print!("{}", interlag::db::export_csv(&db));
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("interlag: unknown db verb {other:?} (ingest, query, export)");
            usage()
        }
    }
}

/// `interlag tune`: score a governor-tunable grid against the oracle.
fn cmd_tune(w: &Workload, args: &[String]) -> ExitCode {
    let Some(group) = args
        .iter()
        .enumerate()
        .skip(2)
        .find(|(i, a)| {
            !a.starts_with("--")
                && !matches!(args[i - 1].as_str(), "--workers" | "--shards" | "--out")
        })
        .map(|(_, a)| a.clone())
    else {
        eprintln!("interlag: tune requires a tunable property group");
        return usage();
    };
    let mut config = TuneConfig::new(group);
    if let Some(workers) = flag_opt!(args, &["--workers"]) {
        config.workers = workers;
    }
    if let Some(shards) = flag_opt!(args, &["--shards"]) {
        config.shards = shards;
    }
    let out = match run_tune(w, &config) {
        Ok(out) => out,
        Err(e @ TuneError::Prop(_)) => {
            eprintln!("interlag: {e}");
            return usage();
        }
        Err(e) => {
            eprintln!("interlag: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--csv") {
        print!("{}", tune_csv(&out));
    } else {
        print!("{}", tune_markdown(&out));
    }
    if let Some(dir) = flag_value(args, &["--out"]) {
        let dir = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                atomic_write(dir.join("frontier.md"), tune_markdown(&out).as_bytes())
                    .map_err(|e| e.to_string())
            })
            .and_then(|()| {
                atomic_write(dir.join("frontier.csv"), tune_csv(&out).as_bytes())
                    .map_err(|e| e.to_string())
            })
        {
            eprintln!("interlag: cannot write {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "interlag tune: {} point(s) × {} rep(s), {} on the Pareto frontier",
        out.points.len(),
        out.reps,
        out.frontier.len(),
    );
    ExitCode::SUCCESS
}

fn cmd_oracle(w: &Workload) -> ExitCode {
    let lab = Lab::new(LabConfig::default());
    let study = match lab.study(w) {
        Ok(study) => study,
        Err(e) => {
            eprintln!("interlag: study failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", oracle_csv(&study));
    eprintln!("efficient frequency outside lags: {}", lab.power_table().most_efficient_freq());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    match command {
        "datasets" => cmd_datasets(),
        "db" => cmd_db(&args),
        "record" | "classify" | "replay" | "study" | "oracle" | "sweep" | "agent" | "tune" => {
            let Some(target) = args.get(1) else { return usage() };
            if command == "classify" {
                return cmd_classify(target);
            }
            let Some(ds) = dataset(target) else {
                eprintln!("interlag: unknown dataset {target:?}");
                return ExitCode::from(2);
            };
            let w = ds.build();
            match command {
                "record" => cmd_record(&w, flag_value(&args, &["-o", "--out"])),
                "replay" => {
                    let Some(g) = flag_value(&args, &["-g", "--governor"]) else {
                        return usage();
                    };
                    cmd_replay(&w, &g)
                }
                "study" => {
                    let reps = flag_or!(&args, &["-r", "--reps"], 1);
                    let resume = args.iter().any(|a| a == "--resume");
                    if resume && flag_value(&args, &["--journal"]).is_none() {
                        eprintln!("interlag: --resume requires --journal FILE");
                        return usage();
                    }
                    cmd_study(
                        &w,
                        StudyArgs {
                            reps,
                            csv_dir: flag_value(&args, &["--csv"]),
                            markdown: args.iter().any(|a| a == "--markdown"),
                            trace_out: flag_value(&args, &["-t", "--trace"]),
                            events: flag_value(&args, &["--events"]),
                            strict: args.iter().any(|a| a == "--strict"),
                            journal: flag_value(&args, &["--journal"]),
                            resume,
                        },
                    )
                }
                "oracle" => cmd_oracle(&w),
                "sweep" => cmd_sweep(&w, target, &args),
                "agent" => cmd_agent(&w, &args),
                "tune" => cmd_tune(&w, &args),
                _ => unreachable!("matched above"),
            }
        }
        "-h" | "--help" | "help" => usage(),
        other => {
            eprintln!("interlag: unknown command {other:?}");
            usage()
        }
    }
}
