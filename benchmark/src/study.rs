//! The `study` workload: `Lab::study` on paper dataset 01, the paper's
//! §III experiment, in a closed loop.

use std::collections::BTreeMap;

use interlag::core::checkpoint::{encode_checkpoint_binary, CheckpointRecord};
use interlag::core::experiment::{jitter_events, Lab, LabConfig, RepOutcome, RepResult};
use interlag::core::{
    build_oracle, mark_up_with_policy, oracle_csv, user_irritation, AnnotationDb, ConfigSummary,
    LagProfile, MatchPolicy, OracleConfig, StudyResult, ThresholdModel,
};
use interlag::device::device::RunArtifacts;
use interlag::device::dvfs::{FixedGovernor, Governor};
use interlag::evdev::time::SimDuration;
use interlag::governors::{Conservative, Interactive, Ondemand, PlanGovernor};
use interlag::power::opp::Frequency;
use interlag::workloads::datasets::Dataset;
use interlag::workloads::gen::Workload;

use crate::probes::{probed_run, RunProbe};
use crate::trace::{par_map, Tracer};
use crate::{device_sheet, Bench, Iteration, Sheet};

const GOVERNORS: [&str; 3] = ["conservative", "interactive", "ondemand"];

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The dataset studied.
    pub dataset: Dataset,
    /// Repetitions per configuration.
    pub reps: u32,
}

/// The set-up state one iteration needs.
pub struct StudyBench {
    workload: Workload,
    lab: Lab,
    reps: u32,
    jitter_us: u64,
    workers: usize,
}

/// Builds the seeded workload and the calibrated lab.
pub fn setup(sizes: Sizes, seed: u64, workers: usize) -> StudyBench {
    let workload = sizes.dataset.build_seeded(sizes.dataset.seed().wrapping_add(seed));
    let config = LabConfig { reps: sizes.reps, workers, ..Default::default() };
    let jitter_us = config.jitter_us;
    StudyBench { workload, lab: Lab::new(config), reps: sizes.reps, jitter_us, workers }
}

/// The bit-exact output of a study: every repetition's binary checkpoint
/// encoding, in paper order, then the oracle's decision table.
pub fn digest(study: &StudyResult) -> String {
    let mut d = crate::util::Digest::new();
    for (config, summary) in study.all_configs().enumerate() {
        for (rep, (result, outcome)) in summary.reps.iter().zip(&summary.outcomes).enumerate() {
            let record = CheckpointRecord::new(0, config, rep as u32, result, outcome);
            d.eat(&encode_checkpoint_binary(&record));
        }
    }
    d.eat(oracle_csv(study).as_bytes());
    d.hex()
}

/// Repetitions attempted and those that did not conclude `Ok`.
pub fn rep_outcomes(study: &StudyResult) -> (u64, u64) {
    let outcomes = study.all_configs().flat_map(|c| c.outcomes.iter());
    outcomes.fold((0, 0), |(n, bad), o| (n + 1, bad + u64::from(*o != RepOutcome::Ok)))
}

impl StudyBench {
    /// The simulated seconds one run of the workload covers.
    pub fn sim_span_s(&self) -> f64 {
        self.workload.run_until().as_micros() as f64 / 1e6
    }
}

impl Bench for StudyBench {
    /// One untraced `Lab::study`.
    fn untraced(&mut self) -> Iteration {
        let (study, secs) = crate::util::timed(|| self.lab.study(&self.workload));
        match study {
            Ok(study) => {
                let (attempted, failed) = rep_outcomes(&study);
                Iteration { secs, digest: digest(&study), attempted, failed }
            }
            Err(e) => Iteration::failed(secs, format!("study failed: {e}")),
        }
    }

    fn traced(&mut self, tracer: &Tracer, sheet: &mut Sheet) -> Result<String, String> {
        let (study, s) = self.traced_study(tracer)?;
        *sheet = s;
        Ok(digest(&study))
    }
}

impl StudyBench {
    /// One traced study: the library's stages called one by one, each
    /// inside a span. Returns the assembled result, which must equal
    /// `Lab::study`'s bit for bit.
    fn traced_study(&self, tracer: &Tracer) -> Result<(StudyResult, Sheet), String> {
        let lab = &self.lab;
        let workload = &self.workload;
        let opps = lab.device().config().opps.clone();
        let freqs: Vec<Frequency> = opps.frequencies().collect();
        let n_fixed = freqs.len();
        let jitter_us = self.jitter_us;

        let trace = {
            let _s = tracer.span("evdev.record");
            workload.script.record_trace()
        };
        let (db, annotation, reference_run) = {
            let _s = tracer.span("core.annotate");
            lab.annotate_workload_from(workload, trace.clone()).map_err(|e| e.to_string())?
        };

        // One repetition: a jittered replay under `gov`, then markup and
        // metering (the fastest frequency's first repetition reuses the
        // annotation's reference run, as the library does).
        let rep_job = |gov: Option<&mut dyn Governor>,
                       name: &str,
                       rep: u32|
         -> Result<(RepResult, RunProbe), String> {
            let mut probe = RunProbe::default();
            let owned;
            let run: &RunArtifacts = match gov {
                None => &reference_run,
                Some(gov) => {
                    let jittered = {
                        let _s = tracer.span("evdev.jitter");
                        jitter_events(&trace, jitter_us, rep)
                    };
                    owned =
                        probed_run(tracer, lab.device(), workload, jittered, gov, true, &mut probe)
                            .map_err(|e| e.to_string())?;
                    &owned
                }
            };
            let result = measure(tracer, lab, run, &db, name, &mut probe);
            Ok((result, probe))
        };

        let per_rep = self.reps as usize;
        let stage1 = par_map(tracer, self.workers, (n_fixed + GOVERNORS.len()) * per_rep, |i| {
            let (config, rep) = (i / per_rep, (i % per_rep) as u32);
            if config < n_fixed {
                let freq = freqs[config];
                let name = format!("fixed-{freq}");
                if freq == opps.max_freq() && rep == 0 {
                    return rep_job(None, &name, rep);
                }
                let mut gov = FixedGovernor::new(freq);
                rep_job(Some(&mut gov), &name, rep)
            } else {
                let which = GOVERNORS[config - n_fixed];
                let mut gov: Box<dyn Governor> = match which {
                    "conservative" => Box::new(Conservative::default()),
                    "interactive" => Box::new(Interactive::for_table(&opps)),
                    _ => Box::new(Ondemand::default()),
                };
                rep_job(Some(&mut *gov), which, rep)
            }
        });
        let mut probe = RunProbe::default();
        let mut stage1_results = Vec::with_capacity(stage1.len());
        for r in stage1 {
            let (result, p) = r?;
            probe.absorb(&p);
            stage1_results.push(result);
        }
        let mut results = stage1_results.into_iter();
        let mut take = |name: String, freq: Option<Frequency>| ConfigSummary {
            name,
            freq,
            reps: results.by_ref().take(per_rep).collect(),
            outcomes: vec![RepOutcome::Ok; per_rep],
            robust: false,
        };
        let fixed: Vec<ConfigSummary> =
            freqs.iter().map(|&f| take(format!("fixed-{f}"), Some(f))).collect();
        let governors: Vec<ConfigSummary> =
            GOVERNORS.iter().map(|&g| take(g.to_string(), None)).collect();

        let oracle_detail = {
            let _s = tracer.span("core.oracle");
            let profiles: BTreeMap<Frequency, LagProfile> = fixed
                .iter()
                .map(|c| {
                    (c.freq.expect("fixed configs have a frequency"), c.reps[0].profile.clone())
                })
                .collect();
            build_oracle(&profiles, &OracleConfig::paper(lab.power_table().most_efficient_freq()))
        };
        let oracle_runs = par_map(tracer, self.workers, per_rep, |rep| {
            let mut gov = PlanGovernor::new("oracle", oracle_detail.plan.clone());
            rep_job(Some(&mut gov), "oracle", rep as u32)
        });
        let mut oracle_reps = Vec::with_capacity(per_rep);
        for r in oracle_runs {
            let (result, p) = r?;
            probe.absorb(&p);
            oracle_reps.push(result);
        }
        let oracle = ConfigSummary {
            name: "oracle".to_string(),
            freq: None,
            reps: oracle_reps,
            outcomes: vec![RepOutcome::Ok; per_rep],
            robust: false,
        };

        let mut study = StudyResult {
            workload: workload.name.clone(),
            annotation,
            db,
            fixed,
            governors,
            oracle,
            oracle_detail,
        };
        {
            let _s = tracer.span("core.irritation");
            let fastest = study.fixed.last().expect("at least one OPP");
            let models: Vec<ThresholdModel> = fastest
                .reps
                .iter()
                .map(|r| ThresholdModel::paper_rule(r.profile.clone()))
                .collect();
            for summary in study
                .fixed
                .iter_mut()
                .chain(study.governors.iter_mut())
                .chain(std::iter::once(&mut study.oracle))
            {
                for (i, rep) in summary.reps.iter_mut().enumerate() {
                    rep.irritation = user_irritation(&rep.profile, &models[i]).total();
                }
            }
        }
        Ok((study, device_sheet(&probe)))
    }
}

/// Marks up one run's video and meters its energy, as the lab's
/// fault-free measurement does. Irritation is filled in later.
fn measure(
    tracer: &Tracer,
    lab: &Lab,
    run: &RunArtifacts,
    db: &AnnotationDb,
    name: &str,
    probe: &mut RunProbe,
) -> RepResult {
    let video = run.video.as_ref().expect("study runs capture video");
    let (profile, failures) = {
        let _s = tracer.span("matcher.markup");
        mark_up_with_policy(video, &run.lag_beginnings(), db, name, &MatchPolicy::strict())
    };
    probe.matched(run, &profile, failures.len());
    let energy = {
        let _s = tracer.span("power.measure");
        lab.meter().measure(&run.activity)
    };
    RepResult {
        profile,
        dynamic_energy_mj: energy.dynamic_mj,
        irritation: SimDuration::ZERO,
        match_failures: failures.len(),
        input_faults: run.input_faults,
    }
}
