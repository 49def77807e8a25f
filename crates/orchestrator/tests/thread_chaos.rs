//! Chaos tests for the sharded sweep: thread-mode agents under scripted
//! kill schedules, wire faults and watchdog trips.
//!
//! The contract under test is the crate's headline invariant: the merged
//! report is **byte-identical** to a single-process [`Lab::study`] at any
//! shard count, under any kill schedule the retry budget absorbs — and
//! degrades gracefully (per-slot `Abandoned` causes, never a crash or a
//! hole) when the budget runs out.

use std::path::PathBuf;
use std::time::Duration;

use interlag_core::error::{InterlagError, ShardFailure};
use interlag_core::experiment::{
    ConfigSummary, Lab, LabConfig, RepOutcome, StudyResult, SweepStage,
};
use interlag_device::script::InteractionCategory;
use interlag_faults::{AgentSabotage, SabotageKind, TransportFaults};
use interlag_obs::{Counter, Recorder};
use interlag_orchestrator::{run_sweep, SweepConfig, SweepOutcome, ThreadTransport};
use interlag_workloads::gen::{Workload, WorkloadBuilder, MCYCLES};

/// A fast two-interaction workload: every sweep runs the full
/// 18-configuration matrix per agent, so the per-run cost must stay
/// small.
fn small_workload() -> Workload {
    let mut b = WorkloadBuilder::new(0xc4a05);
    b.app_launch("launch", 300 * MCYCLES, 4, InteractionCategory::Common);
    b.think_ms(1_500, 2_000);
    b.quick_tap("tap", 100 * MCYCLES, InteractionCategory::SimpleFrequent);
    b.build("orch-chaos", "sharded-sweep chaos workload")
}

fn lab_config() -> LabConfig {
    LabConfig { reps: 2, workers: 1, ..Default::default() }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interlag-orch-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_cfg(shards: u32, dir: PathBuf) -> SweepConfig {
    SweepConfig {
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_secs(5),
        progress_timeout: Duration::from_secs(30),
        ..SweepConfig::new(shards, dir)
    }
}

fn transport(
    lab: &LabConfig,
    sabotage: Vec<AgentSabotage>,
    faults: TransportFaults,
    fault_seed: u64,
) -> ThreadTransport {
    ThreadTransport {
        workload: small_workload(),
        lab: lab.clone(),
        heartbeat: Duration::from_millis(25),
        faults,
        fault_seed,
        sabotage,
    }
}

/// Bit-level comparison of two study results: every value the study
/// reports, not merely approximately equal.
fn assert_studies_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.annotation, b.annotation);
    assert_eq!(a.db, b.db);
    assert_eq!(a.oracle_detail, b.oracle_detail);
    let (ca, cb): (Vec<&ConfigSummary>, Vec<&ConfigSummary>) =
        (a.all_configs().collect(), b.all_configs().collect());
    assert_eq!(ca.len(), cb.len());
    for (s, p) in ca.iter().zip(&cb) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.freq, p.freq);
        assert_eq!(s.outcomes, p.outcomes, "{}", s.name);
        assert_eq!(s.reps.len(), p.reps.len(), "{}", s.name);
        for (sr, pr) in s.reps.iter().zip(&p.reps) {
            assert_eq!(sr.profile, pr.profile, "{}", s.name);
            assert_eq!(sr.dynamic_energy_mj.to_bits(), pr.dynamic_energy_mj.to_bits());
            assert_eq!(sr.irritation, pr.irritation, "{}", s.name);
            assert_eq!(sr.match_failures, pr.match_failures, "{}", s.name);
            assert_eq!(sr.input_faults, pr.input_faults, "{}", s.name);
        }
    }
}

fn sweep(
    lab: &LabConfig,
    shards: u32,
    tag: &str,
    sabotage: Vec<AgentSabotage>,
    faults: TransportFaults,
    fault_seed: u64,
    tune: impl FnOnce(&mut SweepConfig),
) -> SweepOutcome {
    let mut cfg = fast_cfg(shards, fresh_dir(tag));
    tune(&mut cfg);
    let mut t = transport(lab, sabotage, faults, fault_seed);
    run_sweep(&small_workload(), lab.clone(), &mut t, &cfg).expect("sweep completes")
}

#[test]
fn sharded_sweep_is_byte_identical_to_single_process() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    for shards in [1u32, 4, 8] {
        let out = sweep(
            &lab,
            shards,
            &format!("clean-{shards}"),
            Vec::new(),
            TransportFaults::none(),
            0,
            |_| {},
        );
        assert!(!out.degraded, "{shards} shards degraded a clean sweep");
        assert_eq!(out.quarantined, 0, "{shards} shards");
        assert_eq!(out.torn, 0, "{shards} shards");
        assert_studies_identical(&out.study, &baseline);
        assert!(out.shards.iter().all(|s| s.abandoned.is_none() && s.failures.is_empty()));
    }
}

#[test]
fn kill_schedules_within_budget_are_absorbed_byte_identically() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    // Three deterministic kill schedules at once: an agent crash at a
    // checkpoint boundary, a supervisor-side kill upon a received record,
    // and a crash that tears the shard journal mid-append.
    let schedule = vec![
        AgentSabotage { shard: 0, attempt: 0, kind: SabotageKind::CrashAtCheckpoint(2) },
        AgentSabotage { shard: 1, attempt: 0, kind: SabotageKind::KillAfterRecords(1) },
        AgentSabotage { shard: 2, attempt: 0, kind: SabotageKind::TearJournal(1) },
    ];
    let mut lab_obs = lab.clone();
    lab_obs.obs = Recorder::enabled();
    let out = sweep(&lab_obs, 4, "kills", schedule, TransportFaults::none(), 0, |_| {});
    assert!(!out.degraded, "retry budget should absorb all three kills");
    assert_studies_identical(&out.study, &baseline);
    assert!(out.torn >= 1, "the torn journal tail should be observed during salvage");
    let report = lab_obs.obs.text_report();
    assert!(lab_obs.obs.counter(Counter::ShardsRetried) >= 3, "{report}");
    assert_eq!(lab_obs.obs.counter(Counter::ShardsAbandoned), 0, "{report}");
    // Sabotaged shards each record at least one classified failure.
    let failed: Vec<_> = out
        .shards
        .iter()
        .filter(|s| s.stage == SweepStage::Stage1 && !s.failures.is_empty())
        .map(|s| s.shard)
        .collect();
    assert_eq!(failed, vec![0, 1, 2], "{:?}", out.shards);
}

#[test]
fn wedged_agent_trips_the_progress_watchdog_and_retries() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    let schedule =
        vec![AgentSabotage { shard: 0, attempt: 0, kind: SabotageKind::WedgeAtCheckpoint(1) }];
    let out = sweep(&lab, 2, "wedge", schedule, TransportFaults::none(), 0, |cfg| {
        // The wedged agent keeps heartbeating, so only the
        // checkpoint-progress watchdog can catch it.
        cfg.progress_timeout = Duration::from_millis(400);
    });
    assert!(!out.degraded);
    assert_studies_identical(&out.study, &baseline);
    let wedged = out
        .shards
        .iter()
        .find(|s| s.stage == SweepStage::Stage1 && s.shard == 0)
        .expect("shard 0 outcome");
    assert!(
        wedged.failures.contains(&ShardFailure::Wedged),
        "expected a wedge classification, got {:?}",
        wedged.failures
    );
    assert!(wedged.attempts >= 2);
}

#[test]
fn wire_chaos_never_corrupts_the_merged_report() {
    let lab = lab_config();
    let baseline = Lab::new(lab.clone()).study(&small_workload()).expect("baseline study");
    // Dropped, duplicated, truncated and delayed frames at a harsh rate,
    // across several deterministic fault streams: the disk salvage path
    // must recover everything the wire loses, and damaged frames must be
    // quarantined, never misparsed into the merge.
    for seed in [1u64, 2, 3] {
        let out = sweep(
            &lab,
            4,
            &format!("wire-{seed}"),
            Vec::new(),
            TransportFaults::uniform(0.15),
            seed,
            |_| {},
        );
        assert!(!out.degraded, "seed {seed}");
        assert_studies_identical(&out.study, &baseline);
    }
}

#[test]
fn budget_exhaustion_degrades_with_per_slot_causes() {
    let mut lab = lab_config();
    lab.obs = Recorder::enabled();
    // Shard 0 dies on every attempt its budget allows: dispatch, retry,
    // done — the shard is abandoned and its missing slots must surface as
    // Abandoned repetitions with a shard cause, not as holes or a crash.
    let schedule = vec![
        AgentSabotage { shard: 0, attempt: 0, kind: SabotageKind::CrashAtCheckpoint(1) },
        AgentSabotage { shard: 0, attempt: 1, kind: SabotageKind::CrashAtCheckpoint(1) },
    ];
    let out = sweep(&lab, 2, "exhaust", schedule, TransportFaults::none(), 0, |cfg| {
        cfg.retry_budget = 1;
    });
    assert!(out.degraded, "an abandoned shard must degrade the sweep");
    let abandoned = out
        .shards
        .iter()
        .find(|s| s.stage == SweepStage::Stage1 && s.shard == 0)
        .expect("shard 0 outcome");
    assert_eq!(abandoned.attempts, 2);
    assert_eq!(abandoned.abandoned, Some(ShardFailure::Crashed), "{:?}", abandoned);
    // The report is complete: every configuration has every repetition,
    // and the abandoned ones carry the shard failure as their cause.
    let mut shard_causes = 0usize;
    for c in out.study.all_configs() {
        assert_eq!(c.outcomes.len(), c.reps.len(), "{}", c.name);
        for o in &c.outcomes {
            if let RepOutcome::Abandoned { cause: InterlagError::Shard { failure }, .. } = o {
                assert_eq!(*failure, ShardFailure::Crashed);
                shard_causes += 1;
            }
        }
    }
    assert!(shard_causes > 0, "abandoned slots must carry shard causes");
    let report = lab.obs.text_report();
    assert_eq!(lab.obs.counter(Counter::ShardsAbandoned), 1, "{report}");
    assert!(lab.obs.counter(Counter::ShardsDispatched) >= 4, "{report}");
}
