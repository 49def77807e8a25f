//! The `fleet` workload: a 2-shard `run_sweep` of the `mini` dataset
//! over `ThreadTransport` with binary journals, then a fresh results
//! database ingesting the sweep's submission plus a generated fleet,
//! every governor × statistic query and a CSV export, in a closed loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use interlag::core::checkpoint::{study_fingerprint, CheckpointFormat, CheckpointRecord};
use interlag::core::experiment::{Lab, LabConfig, StudyOptions, StudyResult};
use interlag::core::StudyJournal;
use interlag::db::{
    export_csv, query, seal_submission, Db, SubmissionManifest, STATS, SUBMISSION_SCHEMA,
};
use interlag::evdev::rng::SplitMix64;
use interlag::evdev::trace::EventTrace;
use interlag::faults::TransportFaults;
use interlag::obs::Recorder;
use interlag::orchestrator::agent::AgentDeath;
use interlag::orchestrator::{
    merge_shard_journals, run_sweep, SweepConfig, SweepGrid, SweepOutcome, ThreadTransport,
};
use interlag::workloads::datasets::Dataset;
use interlag::workloads::gen::Workload;

use crate::study;
use crate::trace::Tracer;
use crate::util::{quantile, timed, Digest};
use crate::{Bench, Iteration, Sheet};

/// The configurations every query asks about.
const QUERIED: [&str; 4] = ["conservative", "interactive", "ondemand", "oracle"];
/// Device models the generated fleet spreads over.
const MODELS: [&str; 3] = ["sim14", "sim14-lte", "sim14-wifi"];

/// Thread-mode agents that were killed after their shard was already
/// covered (they die by unwinding with an [`AgentDeath`] payload).
static STRAGGLER_KILLS: AtomicU64 = AtomicU64::new(0);

/// Counts agent deaths instead of printing them; every other panic still
/// reaches the default hook.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<AgentDeath>().is_some() {
            STRAGGLER_KILLS.fetch_add(1, Ordering::Relaxed);
            return;
        }
        default(info);
    }));
}

/// Agent deaths counted so far.
pub fn straggler_kills() -> u64 {
    STRAGGLER_KILLS.load(Ordering::Relaxed)
}

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Repetitions per configuration in the sweep.
    pub reps: u32,
    /// Shards per wave.
    pub shards: u32,
    /// Generated fleet submissions ingested beside the sweep's own.
    pub fleet: usize,
}

/// The set-up state one iteration needs.
pub struct FleetBench {
    workload: Workload,
    lab: LabConfig,
    trace: EventTrace,
    fingerprint: u64,
    shards: u32,
    fleet_size: usize,
    seed: u64,
    work: PathBuf,
    /// The generated fleet's sealed submissions (built once the first
    /// sweep's records are known).
    fleet: Vec<Vec<u8>>,
    iteration: u64,
    /// Threads of the single-process study the sweep must equal.
    workers: usize,
    /// That study's digest.
    study_digest: String,
}

/// Builds the seeded workload, the lab and transport settings.
pub fn setup(sizes: Sizes, seed: u64, work: &Path, workers: usize) -> FleetBench {
    let dataset = Dataset::Mini;
    let workload = dataset.build_seeded(dataset.seed().wrapping_add(seed));
    let lab = LabConfig { reps: sizes.reps, workers: 1, ..Default::default() };
    let trace = workload.script.record_trace();
    let fingerprint = study_fingerprint(&trace.to_getevent_text(), &lab);
    FleetBench {
        workload,
        lab,
        trace,
        fingerprint,
        shards: sizes.shards,
        fleet_size: sizes.fleet,
        seed,
        work: work.to_path_buf(),
        fleet: Vec::new(),
        iteration: 0,
        workers,
        study_digest: String::new(),
    }
}

/// A fleet iteration's output digest: the database's, then the sweep's
/// study's.
fn combined(db: &str, study: &str) -> String {
    let mut d = Digest::new();
    d.eat(db.as_bytes());
    d.eat(study.as_bytes());
    d.hex()
}

impl Bench for FleetBench {
    /// The single-process study every sweep must equal, and the generated
    /// fleet built from its records.
    fn prepare(&mut self) -> Result<(), String> {
        let study = self.single_process_study()?;
        self.study_digest = study::digest(&study);
        self.build_fleet(&study);
        Ok(())
    }

    fn untraced(&mut self) -> Iteration {
        let (mut it, study) = self.untraced_iteration();
        if let Some(study) = study {
            let sweep = study::digest(&study);
            if sweep != self.study_digest {
                eprintln!("[perfbench] sweep study differs from a single-process study");
                it.failed += 1;
            }
            it.digest = combined(&it.digest, &sweep);
        }
        it
    }

    fn traced(&mut self, tracer: &Tracer, sheet: &mut Sheet) -> Result<String, String> {
        let (db, sweep) = self.traced_iteration(tracer, sheet)?;
        Ok(combined(&db, &sweep))
    }
}

impl FleetBench {
    /// A single-process `Lab::study` of the sweep's inputs, with
    /// `workers` threads: the sweep's merged study must equal it.
    fn single_process_study(&self) -> Result<StudyResult, String> {
        let lab = Lab::new(LabConfig { workers: self.workers, ..self.lab.clone() });
        lab.study(&self.workload).map_err(|e| e.to_string())
    }

    /// Seals `fleet` submissions from `study`'s records, re-stamped with
    /// distinct fingerprints over a few device models: the first per
    /// model opens groups, the rest fold into them.
    fn build_fleet(&mut self, study: &StudyResult) {
        let grid = SweepGrid::for_lab(&self.lab);
        let configs: Vec<String> =
            (0..=grid.oracle_config()).map(|c| grid.config_name(c)).collect();
        let mut rng = SplitMix64::new(self.seed ^ 0xf1ee7);
        self.fleet = (0..self.fleet_size)
            .map(|i| {
                let fingerprint = rng.next_u64();
                let mut records = BTreeMap::new();
                for (config, summary) in study.all_configs().enumerate() {
                    for (rep, (r, o)) in summary.reps.iter().zip(&summary.outcomes).enumerate() {
                        let record = CheckpointRecord::new(fingerprint, config, rep as u32, r, o);
                        records.insert((config, rep as u32), record);
                    }
                }
                let manifest = SubmissionManifest {
                    schema: SUBMISSION_SCHEMA.to_string(),
                    fingerprint,
                    device_model: MODELS[i % MODELS.len()].to_string(),
                    workload: self.workload.name.clone(),
                    reps: grid.reps,
                    configs: configs.clone(),
                    records: 0,
                    props: Vec::new(),
                };
                seal_submission(&manifest, &records, CheckpointFormat::Binary)
            })
            .collect();
    }

    fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        self.iteration += 1;
        let dir = self.work.join(format!("fleet-{}", self.iteration));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    fn sweep(&self, dir: &Path) -> Result<SweepOutcome, String> {
        let mut transport = ThreadTransport {
            workload: self.workload.clone(),
            lab: self.lab.clone(),
            heartbeat: Duration::from_millis(250),
            faults: TransportFaults::none(),
            fault_seed: 0,
            sabotage: Vec::new(),
        };
        let cfg = SweepConfig::new(self.shards, dir.join("journals"));
        run_sweep(&self.workload, self.lab.clone(), &mut transport, &cfg).map_err(|e| e.to_string())
    }

    /// One untraced iteration, with the sweep's merged study. `secs`
    /// covers the sweep and the database phase; the output checks run
    /// outside it.
    fn untraced_iteration(&mut self) -> (Iteration, Option<StudyResult>) {
        let dir = match self.fresh_dir() {
            Ok(d) => d,
            Err(e) => return (Iteration::failed(0.0, e), None),
        };
        let started = Instant::now();
        let outcome = match self.sweep(&dir) {
            Ok(o) => o,
            Err(e) => return (Iteration::failed(started.elapsed().as_secs_f64(), e), None),
        };
        let db = self.db_phase(&dir, &outcome, None);
        let secs = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        match db {
            Ok((digest, db_attempted, db_failed)) => {
                let (shard_attempted, shard_failed) = shard_ops(&outcome);
                let attempted = shard_attempted + db_attempted;
                let failed = shard_failed + db_failed;
                (Iteration { secs, digest, attempted, failed }, Some(outcome.study))
            }
            Err(e) => (Iteration::failed(secs, e), None),
        }
    }

    /// The database phase: a fresh store ingests the sweep's submission
    /// and the generated fleet, then every query runs and the store is
    /// exported. Returns the output digest and the ingest operations
    /// attempted and failed. With a sheet, every call is timed.
    fn db_phase(
        &self,
        dir: &Path,
        outcome: &SweepOutcome,
        mut sheet: Option<(&Tracer, &mut Sheet)>,
    ) -> Result<(String, u64, u64), String> {
        let submission =
            std::fs::read(&outcome.submission).map_err(|e| format!("submission: {e}"))?;
        let tracer = sheet.as_ref().map(|(t, _)| *t);
        let span = |name| tracer.map(|t| t.span(name));
        let mut db = {
            let _s = span("db.open");
            Db::open(dir.join("db"), Recorder::disabled()).map_err(|e| e.to_string())?
        };
        let (mut attempted, mut failed, mut folded) = (0u64, 0u64, 0u64);
        let mut ingest_us = Vec::new();
        let ingest_started = Instant::now();
        for bytes in std::iter::once(&submission).chain(&self.fleet) {
            attempted += 1;
            let _s = span("db.ingest");
            let (receipt, secs) = timed(|| db.ingest_bytes(bytes));
            ingest_us.push(secs * 1e6);
            match receipt {
                Ok(r) => folded += r.reps_folded,
                Err(_) => failed += 1,
            }
        }
        let ingest_s = ingest_started.elapsed().as_secs_f64();
        let mut d = Digest::new();
        let mut query_us = Vec::new();
        for config in QUERIED {
            for stat in STATS {
                let _s = span("db.query");
                let (answer, secs) =
                    timed(|| query(&db, &format!("governor={config}:stat={stat}")));
                query_us.push(secs * 1e6);
                let answer = answer.map_err(|e| format!("query {config}/{stat}: {e}"))?;
                d.eat(answer.as_bytes());
            }
        }
        let (csv, export_s) = {
            let _s = span("db.export");
            timed(|| export_csv(&db))
        };
        d.eat(csv.as_bytes());
        if let Some((_, sheet)) = sheet.as_mut() {
            sheet.time("db.ingest_us_p50", quantile(&ingest_us, 0.5));
            sheet.time("db.ingest_us_p90", quantile(&ingest_us, 0.9));
            sheet.time("db.ingest_records_per_s", folded as f64 / ingest_s.max(1e-9));
            sheet.time("db.query_us_p50", quantile(&query_us, 0.5));
            sheet.time("db.query_us_p90", quantile(&query_us, 0.9));
            sheet.time("db.export_ms", export_s * 1e3);
            sheet.count("db.records_folded", folded as f64);
            sheet.count("db.groups", db.groups().len() as f64);
        }
        Ok((d.hex(), attempted, failed))
    }

    /// One traced iteration: the sweep, then its stages re-run one by one
    /// from the sweep's own files (merge of the shard journals, resume of
    /// the merged journal, the final replay, journal appends), the
    /// single-process study it must equal, and the database phase.
    /// Returns the database digest and the sweep's study digest.
    fn traced_iteration(
        &mut self,
        tracer: &Tracer,
        sheet: &mut Sheet,
    ) -> Result<(String, String), String> {
        let dir = self.fresh_dir()?;
        let kills_before = straggler_kills();
        let outcome = {
            let _s = tracer.span("orchestrator.sweep");
            self.sweep(&dir)?
        };
        let sweep_s = tracer.last_s("orchestrator.sweep");
        let kills = straggler_kills() - kills_before;
        let sweep_digest = study::digest(&outcome.study);
        let (attempts, _) = shard_ops(&outcome);
        sheet.time("sweep.run_s", sweep_s);
        sheet.count("sweep.attempts", attempts as f64);
        sheet.count("sweep.quarantined", outcome.quarantined as f64);
        sheet.time("sweep.duplicates", outcome.duplicates as f64);
        sheet.time("sweep.straggler_kills", kills as f64);

        // Merge the sweep's shard journals again, as the supervisor did.
        let journals = dir.join("journals");
        let sources = {
            let _s = tracer.span("journal.read");
            shard_journals(&journals, &outcome.merged_journal)?
        };
        let (merged, merge_s) = {
            let _s = tracer.span("orchestrator.merge");
            timed(|| {
                merge_shard_journals(sources.iter().map(Vec::as_slice), self.fingerprint, |_, _| {
                    true
                })
            })
        };
        let processed = merged.records.len() as u64 + merged.duplicates;
        sheet.time("merge.records_per_s", processed as f64 / merge_s.max(1e-9));

        let (journal, resume_s) = {
            let _s = tracer.span("journal.resume");
            timed(|| StudyJournal::resume(&outcome.merged_journal, self.fingerprint))
        };
        let journal = journal.map_err(|e| format!("resume: {e}"))?;
        sheet
            .time("journal.resume_records_per_s", journal.replayable() as f64 / resume_s.max(1e-9));

        let replay = {
            let _s = tracer.span("orchestrator.final_replay");
            let lab = Lab::new(self.lab.clone());
            let options = StudyOptions {
                journal: Some(&journal),
                trace: Some(self.trace.clone()),
                scope: None,
            };
            lab.study_with(&self.workload, options).map_err(|e| e.to_string())?
        };
        sheet.time("sweep.final_replay_s", tracer.last_s("orchestrator.final_replay"));
        if study::digest(&replay) != sweep_digest {
            return Err("final replay differs from the sweep's study".to_string());
        }

        // Durable appends of every merged record into a fresh journal.
        let mut append_us = Vec::with_capacity(merged.records.len());
        {
            let _s = tracer.span("journal.append");
            let path = dir.join("append.journal");
            let j = StudyJournal::create(&path, self.fingerprint).map_err(|e| e.to_string())?;
            for record in merged.records.values() {
                let (config, rep, result, outcome) = record.clone().into_parts();
                let ((), secs) = timed(|| j.record(config, rep, &result, &outcome));
                append_us.push(secs * 1e6);
            }
            if j.write_errors() > 0 {
                return Err(format!("{} journal appends failed", j.write_errors()));
            }
        }
        sheet.time("journal.append_us_p50", quantile(&append_us, 0.5));
        sheet.time("journal.append_us_p90", quantile(&append_us, 0.9));

        let single = {
            let _s = tracer.span("core.study");
            self.single_process_study()?
        };
        let single_s = tracer.last_s("core.study");
        sheet.time("sweep.overhead_s", sweep_s - single_s);
        if study::digest(&single) != sweep_digest {
            return Err("sweep study differs from a single-process study".to_string());
        }

        let (db, db_s) = timed(|| self.db_phase(&dir, &outcome, Some((tracer, &mut *sheet))));
        let (digest, _, failed) = db?;
        // The untraced iteration's work: the sweep and the database phase.
        sheet.time("trace.iter_s", sweep_s + db_s);
        let _ = std::fs::remove_dir_all(&dir);
        if failed > 0 {
            return Err(format!("{failed} ingests failed"));
        }
        Ok((digest, sweep_digest))
    }
}

/// Shard attempts made, and those beyond the first per shard (retries,
/// speculative twins) plus abandoned shards — the failed ones.
fn shard_ops(outcome: &SweepOutcome) -> (u64, u64) {
    outcome.shards.iter().fold((0, 0), |(n, bad), s| {
        let extra = u64::from(s.attempts.saturating_sub(1)) + u64::from(s.abandoned.is_some());
        (n + u64::from(s.attempts), bad + extra)
    })
}

/// The bytes of every per-attempt shard journal in `dir`.
fn shard_journals(dir: &Path, merged: &Path) -> Result<Vec<Vec<u8>>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "journal") && p != merged)
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))).collect()
}
