//! `interlag` — command-line front end for the reproduction.
//!
//! `interlag help` prints every command, its flags, the dataset and
//! governor names and the exit codes. That text, the parser and every
//! usage error (exit 2) come from one flag table per command, [`VERBS`].

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
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

/// How a flag takes its value. The string names the value in the usage
/// text.
#[derive(Clone, Copy)]
enum Arity {
    Switch,
    Value(&'static str),
    /// A value the command cannot run without.
    Required(&'static str),
    /// A value that may be given more than once.
    Repeated(&'static str),
}
use Arity::{Repeated, Required, Switch, Value};

impl Arity {
    fn value_name(self) -> &'static str {
        match self {
            Switch => "",
            Value(v) | Required(v) | Repeated(v) => v,
        }
    }
}

/// One row of a command's flag table.
struct Flag {
    /// Every spelling. The last one names the flag in lookups and errors.
    names: &'static [&'static str],
    arity: Arity,
    help: &'static str,
}

const fn flag(names: &'static [&'static str], arity: Arity, help: &'static str) -> Flag {
    Flag { names, arity, help }
}

/// A command's exit code, or why it stopped early.
type Outcome = Result<ExitCode, Stop>;

/// One command: its operands, its flag table and what runs it.
struct Verb {
    /// `study`, or `db ingest` for the database sub-commands.
    name: &'static str,
    /// Positional operands in order. A trailing `...` takes one or more.
    operands: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args) -> Outcome,
    about: &'static str,
}

const fn verb(
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args) -> Outcome,
    about: &'static str,
) -> Verb {
    Verb { name, operands, flags, run, about }
}

const REPS: Flag = flag(&["-r", "--reps"], Value("N"), "repetitions per configuration (default 1)");
const JITTER: Flag = flag(&["--jitter-us"], Value("US"), "input jitter (default 1500)");
const DB: Flag = flag(&["--db"], Required("DIR"), "the results database");
const MARKDOWN: Flag = flag(&["--markdown"], Switch, "print Markdown instead of CSV");

const RECORD: &[Flag] = &[flag(&["-o", "--out"], Value("FILE"), "write to FILE, not stdout")];
const REPLAY: &[Flag] = &[flag(&["-g", "--governor"], Required("GOVERNOR"), "the governor")];
const STUDY: &[Flag] = &[
    REPS,
    flag(&["--csv"], Value("DIR"), "also write study, oracle and profile CSVs to DIR"),
    MARKDOWN,
    flag(&["-t", "--trace"], Value("FILE"), "write a Chrome trace (.json: JSON, else binary)"),
    flag(&["--events"], Value("FILE"), "replay an ingested getevent log"),
    flag(&["--strict"], Switch, "fail on a corrupt --events log (default: salvage)"),
    flag(&["--journal"], Value("FILE"), "checkpoint each rep (.json/.jsonl: JSON, else binary)"),
    flag(&["--resume"], Switch, "replay the reps already in --journal"),
];
const SWEEP: &[Flag] = &[
    REPS,
    flag(&["--shards"], Value("N"), "agents to partition the study across (default 4)"),
    flag(&["--journal-dir"], Value("DIR"), "shard and merged journals (default: temp dir)"),
    flag(&["--retry-budget"], Value("N"), "re-dispatches per failed shard (default 2)"),
    flag(&["--heartbeat-ms"], Value("MS"), "agent heartbeat period (default 250)"),
    flag(&["--watchdog-ms"], Value("MS"), "silence that kills an agent (default 5000)"),
    MARKDOWN,
    flag(&["--sabotage"], Repeated("KIND@CKPT:SHARD:ATTEMPT"), "crash|wedge|tear|kill, ATTEMPT *"),
    JITTER,
    flag(&["--matrix"], Value("GROUP"), "one sweep per point over reps, jitter-us, shards"),
    flag(&["--db"], Value("DIR"), "fold each sweep's sealed submission into DIR"),
    flag(&["--transport"], Value("process|tcp"), "how agents reach the supervisor"),
    flag(&["--listen"], Value("ADDR"), "tcp: supervisor address (default 127.0.0.1:0)"),
    flag(&["--remote-agents"], Switch, "tcp: wait for `agent --worker` processes"),
    flag(&["--net-chaos"], Value("PROFILE@SEED"), "tcp: a seeded chaos proxy, e.g. storm@7"),
];
const AGENT: &[Flag] = &[
    REPS,
    flag(&["--shard"], Value("S"), "the shard to run (required without --worker)"),
    flag(&["--of"], Value("N"), "the sweep's shard count (required without --worker)"),
    flag(&["--stage"], Value("stage1|oracle"), "the sweep stage (required without --worker)"),
    flag(&["--journal"], Value("FILE"), "the shard journal (required without --worker)"),
    flag(&["--heartbeat-ms"], Value("MS"), "heartbeat period (default 1000)"),
    flag(&["--sabotage"], Value("KIND@CKPT"), "fail on purpose: crash wedge tear"),
    JITTER,
    flag(&["--connect"], Value("ADDR"), "speak a TCP session to ADDR instead of stdout"),
    flag(&["--epoch"], Value("N"), "the attempt's lease epoch (default 1)"),
    flag(&["--attempt"], Value("N"), "the dispatch attempt (default 0)"),
    flag(&["--retry-budget"], Value("N"), "tcp reconnects before giving up (default 8)"),
    flag(&["--backoff-seed"], Value("N"), "seed of the reconnect backoff (default 0)"),
    flag(&["--worker"], Switch, "register with a --remote-agents sweep at --connect"),
    flag(&["--scratch"], Value("DIR"), "worker journals (default: temp dir)"),
];
const TUNE: &[Flag] = &[
    flag(&["--workers"], Value("N"), "worker threads (default 1)"),
    flag(&["--shards"], Value("N"), "shards of the grid (default 1)"),
    flag(&["--csv"], Switch, "print CSV instead of Markdown"),
    flag(&["--out"], Value("DIR"), "also write frontier.md and frontier.csv to DIR"),
];

/// Every command, in the order `interlag help` lists them.
static VERBS: &[Verb] = &[
    verb("datasets", &[], &[], cmd_datasets, "list the study's workloads"),
    verb("record", &["DS"], RECORD, cmd_record, "write a dataset's getevent trace"),
    verb("classify", &["FILE"], &[], cmd_classify, "classify a getevent trace"),
    verb("replay", &["DS"], REPLAY, cmd_replay, "one run: lag + energy summary"),
    verb("study", &["DS"], STUDY, cmd_study, "the full 18-configuration study"),
    verb("oracle", &["DS"], &[], cmd_oracle, "the oracle's per-lag decisions"),
    verb("sweep", &["DS"], SWEEP, cmd_sweep, "the study, sharded across supervised agents"),
    verb("agent", &["DS"], AGENT, cmd_agent, "one shard of a sweep, or a --worker"),
    verb("tune", &["DS", "GROUP"], TUNE, cmd_tune, "score a tunable grid against the oracle"),
    verb("db ingest", &["ARTIFACT..."], &[DB], cmd_db, "fold sealed submissions into the db"),
    verb("db query", &["GROUP"], &[DB], cmd_db, "query the aggregates a group selects"),
    verb("db export", &[], &[DB, MARKDOWN], cmd_db, "render the whole database"),
];

/// Why a command stopped early. Both print `interlag: {msg}`.
enum Stop {
    /// A rejected command line: exit 2, followed by the usage of `verb`,
    /// or of every command when `verb` is `None`.
    Usage { verb: Option<&'static Verb>, msg: String },
    /// A runtime failure: exit 1.
    Failed(String),
}

impl Verb {
    fn row(&self, arg: &str) -> Option<usize> {
        self.flags.iter().position(|f| f.names.contains(&arg))
    }

    fn reject(&'static self, msg: impl Into<String>) -> Stop {
        Stop::Usage { verb: Some(self), msg: msg.into() }
    }

    /// The "requires" error for the flag in `row`.
    fn missing(&'static self, row: usize) -> Stop {
        let flag = &self.flags[row];
        let name = flag.names.last().expect("a flag has a name");
        self.reject(format!("{} requires {name} {}", self.name, flag.arity.value_name()))
    }
}

/// A command line parsed against one verb's table.
struct Args {
    verb: &'static Verb,
    operands: Vec<String>,
    /// Per table row, every value given; a switch records an empty one.
    given: Vec<Vec<String>>,
}

/// Parses `argv`, everything after the command's name, against `verb`'s
/// table. Unknown flags, missing values, repeats of a single-valued flag,
/// missing required flags and a wrong operand count are usage errors. A
/// value that is itself one of the verb's flags counts as missing.
fn parse(verb: &'static Verb, argv: &[String]) -> Result<Args, Stop> {
    let mut given = vec![Vec::new(); verb.flags.len()];
    let mut operands = Vec::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') || arg == "-" {
            operands.push(arg.clone());
            continue;
        }
        let Some(row) = verb.row(arg) else {
            return Err(verb.reject(format!("{} has no flag {arg}", verb.name)));
        };
        let arity = verb.flags[row].arity;
        if !given[row].is_empty() && !matches!(arity, Repeated(_)) {
            return Err(verb.reject(format!("{arg} given more than once")));
        }
        let value = match arity {
            Switch => String::new(),
            _ => match rest.next() {
                Some(v) if verb.row(v).is_none() => v.clone(),
                _ => {
                    return Err(verb.reject(format!("{arg} wants a value ({})", arity.value_name())))
                }
            },
        };
        given[row].push(value);
    }
    if let Some(operand) = verb.operands.get(operands.len()) {
        return Err(verb.reject(format!("{} requires <{operand}>", verb.name)));
    }
    let variadic = verb.operands.last().is_some_and(|o| o.ends_with("..."));
    if let Some(extra) = operands.get(verb.operands.len()).filter(|_| !variadic) {
        return Err(verb.reject(format!("unexpected operand {extra:?}")));
    }
    let required = |(f, g): (&Flag, &Vec<String>)| matches!(f.arity, Required(_)) && g.is_empty();
    if let Some(row) = verb.flags.iter().zip(&given).position(required) {
        return Err(verb.missing(row));
    }
    Ok(Args { verb, operands, given })
}

impl Args {
    /// Every value given for the flag spelled `name`.
    fn values(&self, name: &str) -> &[String] {
        let row = self.verb.row(name);
        &self.given[row.unwrap_or_else(|| panic!("{name} is not in the {} table", self.verb.name))]
    }

    /// `true` if the switch `name` was given.
    fn flag(&self, name: &str) -> bool {
        !self.values(name).is_empty()
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name).first().map(String::as_str)
    }

    /// A flag's value parsed as a number; a malformed one is a usage error.
    fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, Stop> {
        let Some(v) = self.value(name) else { return Ok(None) };
        v.parse().map(Some).map_err(|_| self.reject(format!("{name} wants a number, got {v:?}")))
    }

    /// A flag's value, or the "requires" error.
    fn require(&self, name: &str) -> Result<&str, Stop> {
        self.value(name).ok_or_else(|| self.missing(name))
    }

    fn require_number<T: FromStr>(&self, name: &str) -> Result<T, Stop> {
        self.number(name)?.ok_or_else(|| self.missing(name))
    }

    fn missing(&self, name: &str) -> Stop {
        self.verb.missing(self.verb.row(name).expect("flag in table"))
    }

    fn reject(&self, msg: impl Into<String>) -> Stop {
        self.verb.reject(msg)
    }

    /// The workload named by the `DS` operand.
    fn workload(&self) -> Result<Workload, Stop> {
        let name = &self.operands[0];
        let ds = dataset(name).ok_or_else(|| self.reject(format!("unknown dataset {name:?}")))?;
        Ok(ds.build())
    }
}

/// The usage of one verb, or of every verb plus the name lists and exit
/// codes when `only` is `None`.
fn usage(only: Option<&Verb>) -> String {
    let mut out = String::from(match only {
        Some(_) => "usage:\n",
        None => "usage: interlag <command> [args]   (`interlag help`, -h, --help: this text)\n",
    });
    for v in VERBS.iter().filter(|v| only.is_none_or(|only| std::ptr::eq(*v, only))) {
        let operands: String = v.operands.iter().map(|o| format!(" <{o}>")).collect();
        let _ = writeln!(out, "{:33} {}", format!("  {}{operands}", v.name), v.about);
        for f in v.flags {
            let left = format!("      {} {}", f.names.join(", "), f.arity.value_name());
            let note = match f.arity {
                Required(_) => " (required)",
                Repeated(_) => " (repeatable)",
                _ => "",
            };
            let _ = writeln!(out, "{:33} {}{note}", left.trim_end(), f.help);
        }
    }
    if only.is_some() {
        out.push_str("`interlag help` lists every command and the exit codes\n");
        return out;
    }
    let _ = write!(
        out,
        "\n\
         datasets: 01 02 03 04 05 24hour mini\n\
         governors: ondemand conservative interactive schedutil performance powersave <freq>GHz\n\
         property groups: key=val:key=val,val2  (k-min=A:k-max=B:k-intvs=N expands), e.g.\n\
         \x20 governor=ondemand:up-threshold-min=70:up-threshold-max=90:up-threshold-intvs=3\n\
         \x20 (tune also takes the fleet keys reps and jitter-us)\n\
         exit codes: 0 ok, 1 failure, {EXIT_USAGE} usage, {EXIT_CORRUPT_DATASET} corrupt dataset,\n\
         \x20           {EXIT_RESUMED_DEGRADED} resumed study still has timed-out/abandoned reps,\n\
         \x20           {EXIT_SWEEP_DEGRADED} sweep completed degraded (abandoned shards),\n\
         \x20           {EXIT_INGEST_REJECTED} db ingest rejected submissions,\n\
         \x20           {EXIT_FENCED} tcp agent fenced (lease superseded by a newer attempt),\n\
         \x20           {EXIT_LINK_DEAD} tcp agent link dead (reconnect budget exhausted)\n"
    );
    out
}

/// The verb `argv` names and the arguments after its name.
fn find_verb(argv: &[String]) -> Result<(&'static Verb, &[String]), Stop> {
    let general = |msg: String| Stop::Usage { verb: None, msg };
    let (name, rest) = match argv {
        [] => return Err(general("missing command".into())),
        [db, sub, rest @ ..] if db == "db" => (format!("db {sub}"), rest),
        [db] if db == "db" => {
            return Err(general("db requires a verb: ingest, query or export".into()))
        }
        [name, rest @ ..] => (name.clone(), rest),
    };
    let verb = VERBS.iter().find(|v| v.name == name);
    verb.map(|v| (v, rest)).ok_or_else(|| general(format!("unknown command {name:?}")))
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

fn cmd_datasets(_: &Args) -> Outcome {
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_record(args: &Args) -> Outcome {
    let trace = args.workload()?.script.record_trace();
    let text = trace.to_getevent_text();
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {} events ({} bytes) to {path}", trace.len(), text.len());
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(text.as_bytes());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_classify(args: &Args) -> Outcome {
    let path = &args.operands[0];
    let text = std::fs::read_to_string(path)
        .map_err(|e| Stop::Failed(format!("cannot read {path}: {e}")))?;
    let trace: EventTrace = text.parse().map_err(|e| Stop::Failed(format!("{path}: {e}")))?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &Args) -> Outcome {
    let w = args.workload()?;
    let gov_name = args.require("--governor")?;
    let lab = Lab::new(LabConfig::default());
    let Some(mut gov) = governor_by_name(gov_name, &lab) else {
        return Err(args.reject(format!("unknown governor {gov_name:?}")));
    };
    let run = lab
        .run(&w, w.script.record_trace(), gov.as_mut())
        .map_err(|e| Stop::Failed(format!("replay failed: {e}")))?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_study(args: &Args) -> Outcome {
    let w = args.workload()?;
    let reps = args.number("--reps")?.unwrap_or(1);
    let resume = args.flag("--resume");
    let journal_path = args.value("--journal");
    if resume && journal_path.is_none() {
        return Err(args.reject("--resume requires --journal FILE"));
    }
    let trace_out = args.value("--trace");
    let mode = if args.flag("--strict") { IngestMode::Strict } else { IngestMode::Salvage };
    let mut ingest = IngestReport::default();

    // The trace the study will replay: recorded from the script, or
    // loaded from disk through the hardened loader.
    let events_trace = match args.value("--events") {
        None => None,
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| Stop::Failed(format!("cannot read {path}: {e}")))?;
            match load_trace_bytes(&bytes, mode) {
                Ok((trace, report)) => {
                    ingest.merge(report);
                    Some(trace)
                }
                Err(e) => {
                    eprintln!("interlag: {path}: corrupt dataset: {e}");
                    return Ok(ExitCode::from(EXIT_CORRUPT_DATASET));
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

    let obs = if trace_out.is_some() { Recorder::enabled() } else { Default::default() };
    let lab_config = LabConfig { reps, obs: obs.clone(), ..Default::default() };

    // The journal fingerprints the exact trace bytes the study replays
    // plus the result-affecting lab settings, so resuming against a
    // different dataset or configuration re-runs instead of splicing.
    let trace = events_trace.unwrap_or_else(|| w.script.record_trace());
    let journal = match journal_path {
        None => None,
        Some(path) => {
            let fp = study_fingerprint(&trace.to_getevent_text(), &lab_config);
            let opened = if resume {
                StudyJournal::resume(path, fp)
            } else {
                StudyJournal::create(path, fp)
            };
            let j = opened.map_err(|e| Stop::Failed(format!("cannot open journal {path}: {e}")))?;
            if resume {
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
    };

    let lab = Lab::new(lab_config);
    let options = StudyOptions { journal: journal.as_ref(), trace: Some(trace), scope: None };
    let study =
        lab.study_with(&w, options).map_err(|e| Stop::Failed(format!("study failed: {e}")))?;
    if let Some(j) = &journal {
        if j.write_errors() > 0 {
            eprintln!(
                "interlag: warning: {} journal append(s) failed; \
                 the study completed but a resume may repeat work",
                j.write_errors()
            );
        }
    }

    if args.flag("--markdown") {
        print!("{}", study_markdown_with_ingest(&study, &ingest));
        if trace_out.is_some() {
            print!("\n{}", obs.text_report());
        }
    } else {
        print!("{}", study_csv(&study));
    }
    if let Some(path) = trace_out {
        // `.json` gets the Chrome trace-event text; any other extension
        // gets the compact CRC-framed binary form, convertible back to the
        // identical JSON with interlag_obs::binary_trace_to_chrome_json.
        let result = if path.ends_with(".json") {
            atomic_write(path, obs.chrome_trace_json())
        } else {
            atomic_write(path, obs.binary_trace())
        };
        result.map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path} (load it in about:tracing or ui.perfetto.dev)");
    }
    if let Some(dir) = args.value("--csv") {
        std::fs::create_dir_all(dir)
            .map_err(|e| Stop::Failed(format!("cannot create {dir}: {e}")))?;
        let files = [
            (format!("{dir}/study-{}.csv", w.name), study_csv(&study)),
            (format!("{dir}/oracle-{}.csv", w.name), oracle_csv(&study)),
        ]
        .into_iter()
        .chain(study.all_configs().map(|c| {
            (format!("{dir}/profile-{}-{}.csv", w.name, c.name.replace(' ', "")), profile_csv(c))
        }));
        for (path, data) in files {
            atomic_write(&path, data)
                .map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
    }

    // A resumed sweep that still carries holes must say so in its exit
    // code: downstream automation treats 4 as "reports written, but
    // incomplete — inspect before trusting aggregates".
    let degraded: usize = study.all_configs().map(|c| c.abandoned() + c.timed_out()).sum();
    if resume && degraded > 0 {
        eprintln!("interlag: resumed study still has {degraded} timed-out/abandoned repetition(s)");
        return Ok(ExitCode::from(EXIT_RESUMED_DEGRADED));
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses a sabotage kind: `crash@N`, `wedge@N`, `tear@N`, and
/// `kill@N`, the supervisor-side kill at the Nth received checkpoint
/// frame.
fn parse_sabotage(kind_at: &str) -> Option<SabotageKind> {
    let (kind, at) = kind_at.split_once('@')?;
    let at: u32 = at.parse().ok()?;
    match kind {
        "crash" => Some(SabotageKind::CrashAtCheckpoint(at)),
        "wedge" => Some(SabotageKind::WedgeAtCheckpoint(at)),
        "tear" => Some(SabotageKind::TearJournal(at)),
        "kill" => Some(SabotageKind::KillAfterRecords(at)),
        _ => None,
    }
}

/// Parses a supervisor sabotage schedule entry,
/// `KIND@CKPT:SHARD:ATTEMPT` (e.g. `crash@2:0:0`; `ATTEMPT` may be `*`
/// for every attempt the retry budget allows).
fn parse_sweep_sabotage(entry: &str, budget: u32) -> Option<Vec<AgentSabotage>> {
    let mut parts = entry.split(':');
    let kind = parse_sabotage(parts.next()?)?;
    let shard: u32 = parts.next()?.parse().ok()?;
    let attempt = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    let attempts: Vec<u32> =
        if attempt == "*" { (0..=budget).collect() } else { vec![attempt.parse().ok()?] };
    Some(attempts.into_iter().map(|attempt| AgentSabotage { shard, attempt, kind }).collect())
}

/// `interlag agent`: one shard of a sweep, normally spawned by
/// `interlag sweep`. Speaks framed [`interlag::orchestrator::WireMsg`]s
/// on stdout — or, with `--connect`, as a resumable epoch-fenced TCP
/// session; the shard journal on disk is the durable result either way.
/// With `--worker` it instead loops as a self-registering remote worker.
fn cmd_agent(args: &Args) -> Outcome {
    let w = args.workload()?;
    if args.flag("--worker") {
        return cmd_worker(&w, args);
    }
    let reps = args.number("--reps")?.unwrap_or(1);
    let shard = args.require_number("--shard")?;
    let of = args.require_number("--of")?;
    let stage = args.require("--stage")?;
    let Some(stage) = parse_stage(stage) else {
        return Err(args.reject(format!("bad --stage {stage:?} (stage1, oracle)")));
    };
    let journal = args.require("--journal")?;
    let heartbeat = args.number("--heartbeat-ms")?.unwrap_or(1_000u64);
    // `kill` is the supervisor's to inflict; an agent cannot kill itself.
    let sabotage = match args.value("--sabotage").map(|flag| (flag, parse_sabotage(flag))) {
        None => None,
        Some((flag, None | Some(SabotageKind::KillAfterRecords(_)))) => {
            return Err(args.reject(format!("bad --sabotage {flag:?} (crash@N, wedge@N, tear@N)")))
        }
        Some((_, kind)) => kind,
    };
    let mut lab = LabConfig { reps, ..Default::default() };
    if let Some(jitter) = args.number("--jitter-us")? {
        // Part of the study fingerprint: must match the supervisor's lab.
        lab.jitter_us = jitter;
    }
    let cfg = AgentConfig {
        workload: w,
        lab,
        scope: StudyScope { shard, of, stage },
        journal_path: journal.into(),
        heartbeat: Duration::from_millis(heartbeat),
        sabotage,
        abort_on_crash: true,
        kill: None,
    };
    let outcome = match args.value("--connect") {
        None => run_agent(cfg, Box::new(std::io::stdout())),
        Some(addr) => {
            let opts = TcpClientOpts {
                addr: addr.to_string(),
                epoch: args.number("--epoch")?.unwrap_or(1u64),
                attempt: args.number("--attempt")?.unwrap_or(0u32),
                policy: client_policy(args)?,
            };
            run_tcp_agent(opts, cfg)
        }
    };
    let report = outcome.map_err(|e| Stop::Failed(format!("agent failed: {e}")))?;
    eprintln!(
        "interlag agent {shard}/{of}: {} repetition(s) journalled, {} write error(s)",
        report.completed, report.write_errors
    );
    Ok(ExitCode::SUCCESS)
}

/// Reconnect policy shared by `agent --connect` and `agent --worker`:
/// defaults unless overridden by `--retry-budget` / `--backoff-seed`.
fn client_policy(args: &Args) -> Result<ClientPolicy, Stop> {
    let mut policy = ClientPolicy::default();
    if let Some(budget) = args.number("--retry-budget")? {
        policy.retry_budget = budget;
    }
    if let Some(seed) = args.number("--backoff-seed")? {
        policy.backoff_seed = seed;
    }
    Ok(policy)
}

/// `interlag agent --worker`: connect to a `sweep --transport tcp
/// --remote-agents` supervisor, announce availability, and run every
/// assigned shard as its own epoch-fenced TCP session until drained.
fn cmd_worker(w: &Workload, args: &Args) -> Outcome {
    let addr = args.require("--connect")?;
    let policy = client_policy(args)?;
    let jitter = args.number("--jitter-us")?;
    let scratch = args.value("--scratch").map(str::to_string).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("interlag-worker-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    std::fs::create_dir_all(&scratch)
        .map_err(|e| Stop::Failed(format!("cannot create scratch dir {scratch}: {e}")))?;
    // A supervisor kill (lease revoked, watchdog fired) unwinds the task
    // as `AgentDeath` by design; the worker catches it and goes back to
    // the queue. Keep the default hook's backtrace for real panics only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<AgentDeath>().is_none() {
            default_hook(info);
        }
    }));
    let outcome = run_tcp_worker(addr, &policy, std::path::Path::new(&scratch), |task| {
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
    let tasks = outcome.map_err(|e| Stop::Failed(format!("worker failed: {e}")))?;
    eprintln!("interlag worker: drained after {tasks} task(s)");
    Ok(ExitCode::SUCCESS)
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
                let bad =
                    || format!("bad --matrix: {key}={value} is not an unsigned integer in range");
                match key.as_str() {
                    "reps" => p.reps = value.parse().map_err(|_| bad())?,
                    "jitter-us" => p.jitter_us = Some(value.parse().map_err(|_| bad())?),
                    "shards" => p.shards = value.parse().map_err(|_| bad())?,
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
fn cmd_sweep(args: &Args) -> Outcome {
    let w = args.workload()?;
    let dataset = &args.operands[0];
    let reps = args.number("--reps")?.unwrap_or(1);
    let shards = args.number("--shards")?.unwrap_or(4u32);
    let journal_dir = args.value("--journal-dir").map(str::to_string).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("interlag-sweep-{}-{}", w.name, std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let points = sweep_points(args.value("--matrix"), reps, shards).map_err(|e| args.reject(e))?;
    let base_jitter = args.number("--jitter-us")?;
    let defaults = SweepConfig::new(shards, &journal_dir);
    let retry_budget = args.number("--retry-budget")?.unwrap_or(defaults.retry_budget);
    let heartbeat = Duration::from_millis(args.number("--heartbeat-ms")?.unwrap_or(250));
    let heartbeat_timeout = args
        .number("--watchdog-ms")?
        .map_or(defaults.heartbeat_timeout, Duration::from_millis)
        .max(heartbeat.saturating_mul(4));
    let mut sabotage = Vec::new();
    for entry in args.values("--sabotage") {
        let Some(mut parsed) = parse_sweep_sabotage(entry, retry_budget) else {
            return Err(args.reject(format!(
                "bad --sabotage {entry:?} \
                 (KIND@CKPT:SHARD:ATTEMPT, kinds crash wedge tear kill, attempt may be *)"
            )));
        };
        sabotage.append(&mut parsed);
    }
    let tcp = match args.value("--transport") {
        None | Some("process") => false,
        Some("tcp") => true,
        Some(other) => {
            return Err(args.reject(format!("unknown --transport {other:?} (process, tcp)")))
        }
    };
    let listen = args.value("--listen");
    let remote_agents = args.flag("--remote-agents");
    let net_chaos = args
        .value("--net-chaos")
        .map(|text| {
            parse_net_chaos(text).ok_or_else(|| {
                args.reject(format!(
                    "bad --net-chaos {text:?} (PROFILE@SEED, profiles \
                     partition rst reorder duplicate delay storm)"
                ))
            })
        })
        .transpose()?;
    if !tcp && (remote_agents || net_chaos.is_some() || listen.is_some()) {
        return Err(args.reject("--listen/--remote-agents/--net-chaos require --transport tcp"));
    }
    if tcp && !sabotage.is_empty() {
        return Err(args.reject("--sabotage is not supported with --transport tcp"));
    }
    let listen = listen.unwrap_or("127.0.0.1:0");
    let mut db = args.value("--db").map(open_db).transpose()?;
    let exe = std::env::current_exe()
        .map_err(|e| Stop::Failed(format!("cannot locate own binary to spawn agents: {e}")))?;

    let multi = points.len() > 1;
    let mut worst = ExitCode::SUCCESS;
    for (i, point) in points.iter().enumerate() {
        let dir = if multi { format!("{journal_dir}/point-{i}") } else { journal_dir.clone() };
        let mut cfg = SweepConfig::new(point.shards, dir);
        cfg.props = point.props.clone();
        cfg.retry_budget = retry_budget;
        cfg.heartbeat_timeout = heartbeat_timeout;
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
            let mut transport = TcpTransport::bind(listen, mode, heartbeat, lab.obs.clone())
                .map_err(|e| Stop::Failed(format!("cannot bind {listen}: {e}")))?;
            let proxy = match &net_chaos {
                None => None,
                Some((faults, seed)) => {
                    let p = ChaosProxy::spawn(transport.addr(), *faults, *seed)
                        .map_err(|e| Stop::Failed(format!("cannot spawn chaos proxy: {e}")))?;
                    transport.connect_addr = p.addr().to_string();
                    Some(p)
                }
            };
            if remote_agents {
                eprintln!(
                    "interlag sweep: waiting for workers on {} \
                     (run `interlag agent <DS> --worker --connect {}` on each host)",
                    transport.connect_addr, transport.connect_addr,
                );
            }
            let out = run_sweep(&w, lab.clone(), &mut transport, &cfg);
            if let Some(p) = &proxy {
                lab.obs.count(Counter::NetFaultsInjected, p.injected().total());
            }
            eprintln!(
                "interlag sweep: tcp transport: {} reconnect(s), {} lease expiry(ies), \
                 {} fenced record(s), {} fault(s) injected",
                lab.obs.counter(Counter::AgentReconnects),
                lab.obs.counter(Counter::LeaseExpiries),
                lab.obs.counter(Counter::FencedEpochRecords),
                lab.obs.counter(Counter::NetFaultsInjected),
            );
            out
        } else {
            let mut transport = ProcessTransport {
                exe: exe.clone(),
                dataset: dataset.to_string(),
                reps: point.reps,
                heartbeat,
                faults: TransportFaults::none(),
                fault_seed: 0,
                sabotage: sabotage.clone(),
                extra_args,
            };
            run_sweep(&w, lab, &mut transport, &cfg)
        };
        let out = out.map_err(|e| Stop::Failed(format!("sweep failed: {e}")))?;
        if let Some(label) = &point.label {
            println!("# matrix-point: {label}");
        }
        if args.flag("--markdown") {
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
    Ok(worst)
}

fn open_db(dir: &str) -> Result<Db, Stop> {
    Db::open(dir, Default::default())
        .map_err(|e| Stop::Failed(format!("cannot open db {dir}: {e}")))
}

/// `interlag db ingest|query|export`: the fleet results database.
fn cmd_db(args: &Args) -> Outcome {
    let mut db = open_db(args.require("--db")?)?;
    match args.verb.name {
        "db ingest" => {
            let artifacts = &args.operands;
            let mut rejected = 0usize;
            for path in artifacts {
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
                return Ok(ExitCode::from(EXIT_INGEST_REJECTED));
            }
            Ok(ExitCode::SUCCESS)
        }
        "db query" => match interlag::db::query(&db, &args.operands[0]) {
            Ok(rows) => {
                print!("{rows}");
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => Err(args.reject(e.to_string())),
        },
        _ => {
            if args.flag("--markdown") {
                print!("{}", interlag::db::export_markdown(&db));
            } else {
                print!("{}", interlag::db::export_csv(&db));
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `interlag tune`: score a governor-tunable grid against the oracle.
fn cmd_tune(args: &Args) -> Outcome {
    let w = args.workload()?;
    let mut config = TuneConfig::new(args.operands[1].clone());
    if let Some(workers) = args.number("--workers")? {
        config.workers = workers;
    }
    if let Some(shards) = args.number("--shards")? {
        config.shards = shards;
    }
    let out = run_tune(&w, &config).map_err(|e| match e {
        TuneError::Prop(_) => args.reject(e.to_string()),
        e => Stop::Failed(e.to_string()),
    })?;
    if args.flag("--csv") {
        print!("{}", tune_csv(&out));
    } else {
        print!("{}", tune_markdown(&out));
    }
    if let Some(dir) = args.value("--out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                atomic_write(dir.join("frontier.md"), tune_markdown(&out))?;
                atomic_write(dir.join("frontier.csv"), tune_csv(&out))
            })
            .map_err(|e| Stop::Failed(format!("cannot write {}: {e}", dir.display())))?;
    }
    eprintln!(
        "interlag tune: {} point(s) × {} rep(s), {} on the Pareto frontier",
        out.points.len(),
        out.reps,
        out.frontier.len(),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_oracle(args: &Args) -> Outcome {
    let w = args.workload()?;
    let lab = Lab::new(LabConfig::default());
    let study = lab.study(&w).map_err(|e| Stop::Failed(format!("study failed: {e}")))?;
    print!("{}", oracle_csv(&study));
    eprintln!("efficient frequency outside lags: {}", lab.power_table().most_efficient_freq());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(argv.first().map(String::as_str), Some("help" | "-h" | "--help")) {
        print!("{}", usage(None));
        return ExitCode::SUCCESS;
    }
    match find_verb(&argv).and_then(|(verb, rest)| (verb.run)(&parse(verb, rest)?)) {
        Ok(code) => code,
        Err(Stop::Usage { verb, msg }) => {
            eprintln!("interlag: {msg}");
            eprint!("{}", usage(verb));
            ExitCode::from(EXIT_USAGE)
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("interlag: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(argv: &[String]) -> Result<Args, Stop> {
        find_verb(argv).and_then(|(verb, rest)| parse(verb, rest))
    }

    fn parse_line(line: &str) -> Result<Args, Stop> {
        parse_words(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    fn message(stop: Stop) -> String {
        match stop {
            Stop::Usage { msg, .. } | Stop::Failed(msg) => msg,
        }
    }

    /// A shell command line's words, unquoted, up to a comment, a
    /// redirection or a pipe.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote) = (Vec::new(), String::new(), None);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '\'' | '"') => quote = Some(c),
                (None, '#' | '>' | '|' | '&' | ';') => break,
                (None, c) if c.is_whitespace() => words.push(std::mem::take(&mut word)),
                (None, c) => word.push(c),
            }
        }
        words.push(word);
        words.retain(|w| !w.is_empty());
        words
    }

    /// Every `interlag …`, `$BIN …` (README's name for `cargo run
    /// --release --bin interlag --`) and `cargo run … --bin interlag -- …`
    /// line in README.md's code blocks must parse against the tables.
    #[test]
    fn readme_command_lines_parse() {
        let readme = include_str!("../../README.md").replace("\\\n", " ");
        let (mut in_code, mut checked) = (false, 0);
        for line in readme.lines() {
            in_code ^= line.trim_start().starts_with("```");
            let words = shell_words(line);
            let start = match words.first().map(String::as_str) {
                _ if !in_code => continue,
                Some("interlag" | "$BIN") => 1,
                Some("cargo") if words.windows(2).any(|w| w == ["--bin", "interlag"]) => {
                    words.iter().position(|w| w == "--").expect("cargo run … --") + 1
                }
                _ => continue,
            };
            if let Err(stop) = parse_words(&words[start..]) {
                panic!("README: `{}` does not parse: {}", line.trim(), message(stop));
            }
            checked += 1;
        }
        assert!(checked >= 15, "only {checked} README command lines found");
    }

    #[test]
    fn misparses_are_usage_errors() {
        for (line, why) in [
            ("study mini --rep 3", "study has no flag --rep"),
            ("study mini --journal", "--journal wants a value (FILE)"),
            ("study mini --journal --resume", "--journal wants a value (FILE)"),
            ("tune mini governor=ondemand --workers", "--workers wants a value (N)"),
            ("study mini -r 2 --reps 3", "--reps given more than once"),
            ("tune mini", "tune requires <GROUP>"),
            ("oracle mini 02", "unexpected operand \"02\""),
            ("replay mini", "replay requires --governor GOVERNOR"),
            ("db ingest --db results", "db ingest requires <ARTIFACT...>"),
            ("db", "db requires a verb: ingest, query or export"),
        ] {
            let stop = parse_line(line).err().unwrap_or_else(|| panic!("`{line}` parsed"));
            assert!(matches!(stop, Stop::Usage { .. }), "{line}");
            assert_eq!(message(stop), why, "{line}");
        }
        let args = parse_line("study mini -r x --markdown -t t.json").ok().expect("parses");
        assert_eq!(args.value("--trace"), Some("t.json"), "a switch takes no value");
        assert_eq!(
            message(args.number::<u32>("--reps").expect_err("x is no number")),
            "--reps wants a number, got \"x\""
        );
    }

    /// The agent command lines `ProcessTransport` and `TcpTransport`
    /// spawn, and repeated sweep sabotage.
    #[test]
    fn spawned_command_lines_parse() {
        let base = "agent mini -r 2 --shard 1 --of 4 --stage oracle --journal j --heartbeat-ms 250";
        for extra in
            ["--jitter-us 900 --sabotage crash@2", "--connect 127.0.0.1:1 --epoch 3 --attempt 1"]
        {
            let args =
                parse_line(&format!("{base} {extra}")).unwrap_or_else(|e| panic!("{}", message(e)));
            assert_eq!(args.require_number::<u32>("--of").ok(), Some(4));
        }
        let args = parse_line("sweep mini --sabotage crash@1:0:0 --sabotage kill@2:1:*").ok();
        assert_eq!(args.map(|a| a.values("--sabotage").len()), Some(2));
        let err = sweep_points(Some("reps=4294967297"), 1, 4).err();
        assert_eq!(
            err.as_deref(),
            Some("bad --matrix: reps=4294967297 is not an unsigned integer in range")
        );
    }
}
