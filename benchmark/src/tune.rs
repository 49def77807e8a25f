//! The `tune` workload: `run_tune` on dataset 02 over an 8-point ×
//! 2-repetition `interactive` `go-hispeed-load` grid, in a closed loop.

use std::collections::BTreeMap;

use interlag::core::experiment::{jitter_events, Lab};
use interlag::core::tune::{
    ground_truth_profile, parse_tune_group, TuneMeasurement, TuneReference,
};
use interlag::core::{build_oracle, user_irritation, LagProfile, OracleConfig, ThresholdModel};
use interlag::db::{Sketch, ENERGY_BUCKET_UJ, IRRITATION_BUCKET_US, LAG_BUCKET_US};
use interlag::device::device::{CaptureMode, Device, RunArtifacts};
use interlag::device::dvfs::FixedGovernor;
use interlag::governors::PlanGovernor;
use interlag::orchestrator::{
    pareto_frontier, run_tune, tune_csv, TuneConfig, TuneOutcome, TunePointSummary,
};
use interlag::power::opp::Frequency;
use interlag::workloads::datasets::Dataset;
use interlag::workloads::gen::Workload;

use crate::probes::{probed_run, RunProbe};
use crate::trace::{par_map, Tracer};
use crate::util::{timed, Digest};
use crate::{device_sheet, Bench, Iteration, Sheet};

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The dataset tuned against.
    pub dataset: Dataset,
    /// Grid points over `go-hispeed-load`.
    pub points: u32,
    /// Repetitions per point.
    pub reps: u32,
}

/// The set-up state one iteration needs, and the last untraced outcome,
/// which the traced replica must reproduce exactly.
pub struct TuneBench {
    workload: Workload,
    config: TuneConfig,
    expected: Option<TuneOutcome>,
}

/// Builds the seeded workload and the tuning configuration.
pub fn setup(sizes: Sizes, seed: u64, workers: usize) -> TuneBench {
    let workload = sizes.dataset.build_seeded(sizes.dataset.seed().wrapping_add(seed));
    let group = format!(
        "governor=interactive:go-hispeed-load-min=60:go-hispeed-load-max=95:\
         go-hispeed-load-intvs={}:reps={}",
        sizes.points, sizes.reps
    );
    TuneBench { workload, config: TuneConfig { group, workers, shards: 1 }, expected: None }
}

/// The bit-exact output of a tuning sweep: its CSV report.
pub fn digest(out: &TuneOutcome) -> String {
    let mut d = Digest::new();
    d.eat(tune_csv(out).as_bytes());
    d.hex()
}

/// `true` when two outcomes agree exactly: every point's sketches (exact
/// sums and counts), the oracle reference and the frontier.
fn same_outcome(a: &TuneOutcome, b: &TuneOutcome) -> bool {
    let key = |r: &TuneReference| (r.oracle_irritation_us, r.oracle_energy_uj, r.oracle_lag_us);
    a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(p, q)| {
            p.point == q.point
                && p.lag == q.lag
                && p.irritation == q.irritation
                && p.energy == q.energy
        })
        && key(&a.reference) == key(&b.reference)
        && a.frontier == b.frontier
        && tune_csv(a) == tune_csv(b)
}

impl Bench for TuneBench {
    /// One untraced `run_tune`; its outcome is kept for the traced run.
    fn untraced(&mut self) -> Iteration {
        let (out, secs) = timed(|| run_tune(&self.workload, &self.config));
        match out {
            Ok(out) => {
                let slots = out.points.iter().map(|p| p.energy.count()).sum::<u64>();
                // Every slot plus the reference stage is one operation.
                let it = Iteration { secs, digest: digest(&out), attempted: slots + 1, failed: 0 };
                self.expected = Some(out);
                it
            }
            Err(e) => Iteration::failed(secs, format!("tune failed: {e}")),
        }
    }

    /// One traced tuning sweep: the reference stage and every slot
    /// replayed through the library's public pieces, each inside a span.
    /// The outcome must equal `run_tune`'s exactly.
    fn traced(&mut self, tracer: &Tracer, sheet: &mut Sheet) -> Result<String, String> {
        let expected = self.expected.as_ref().ok_or("no untraced tune to compare against")?;
        let workload = &self.workload;
        let lab = {
            let _s = tracer.span("power.calibrate");
            Lab::with_defaults()
        };
        let table = lab.device().config().opps.clone();
        let grid = parse_tune_group(&self.config.group, &table).map_err(|e| e.to_string())?;
        let mut probe = RunProbe::default();
        let reference = {
            let _s = tracer.span("tune.reference");
            reference(tracer, &lab, workload, &mut probe)?
        };

        let reps = grid.reps as usize;
        let slots = grid.points.len() * reps;
        let measured = par_map(tracer, self.config.workers, slots, |slot| {
            let _s = tracer.span("tune.slot");
            let (point, rep) = (slot / reps, (slot % reps) as u32);
            let mut probe = RunProbe::default();
            let device = quiet_device(&lab);
            let trace = {
                let _s = tracer.span("evdev.jitter");
                jitter_events(&reference.trace, grid.jitter_us, rep)
            };
            let mut governor = grid.points[point].1.build();
            let run =
                probed_run(tracer, &device, workload, trace, &mut *governor, false, &mut probe)
                    .map_err(|e| e.to_string())?;
            let profile = ground_truth_profile(&run, grid.points[point].1.governor_name());
            let irritation = {
                let _s = tracer.span("core.irritation");
                user_irritation(&profile, &reference.model).total().as_micros()
            };
            let m = TuneMeasurement {
                mean_lag_us: profile.mean_lag().as_micros(),
                irritation_us: irritation,
                energy_uj: energy_uj(tracer, &lab, &run),
            };
            Ok::<_, String>((m, probe))
        });

        let mut points: Vec<TunePointSummary> = grid
            .points
            .iter()
            .map(|(point, spec)| TunePointSummary {
                point: point.clone(),
                spec: *spec,
                lag: Sketch::new(LAG_BUCKET_US),
                irritation: Sketch::new(IRRITATION_BUCKET_US),
                energy: Sketch::new(ENERGY_BUCKET_UJ),
            })
            .collect();
        for (slot, r) in measured.into_iter().enumerate() {
            let (m, p) = r?;
            probe.absorb(&p);
            let summary = &mut points[slot / reps];
            summary.lag.add(m.mean_lag_us);
            summary.irritation.add(m.irritation_us);
            summary.energy.add(m.energy_uj);
        }
        let frontier = pareto_frontier(&points);
        let out = TuneOutcome {
            workload: workload.name.clone(),
            group: grid.group.to_string(),
            reps: grid.reps,
            jitter_us: grid.jitter_us,
            reference,
            points,
            frontier,
        };
        if !same_outcome(&out, expected) {
            return Err("traced tune differs from run_tune".to_string());
        }
        *sheet = device_sheet(&probe);
        sheet.count("tune.slots", slots as f64);
        Ok(digest(&out))
    }
}

/// The capture-free replica of the lab's device the tuning sweep uses.
fn quiet_device(lab: &Lab) -> Device {
    let mut config = lab.device().config().clone();
    config.capture = CaptureMode::None;
    Device::new(config)
}

/// Dynamic energy of a run in whole microjoules.
fn energy_uj(tracer: &Tracer, lab: &Lab, run: &RunArtifacts) -> u64 {
    let _s = tracer.span("power.measure");
    (lab.meter().measure(&run.activity).dynamic_mj * 1_000.0).round() as u64
}

/// The tuning reference, stage by stage: ground truth at every fixed
/// frequency, the threshold model, the oracle plan and the oracle's run.
fn reference(
    tracer: &Tracer,
    lab: &Lab,
    workload: &Workload,
    probe: &mut RunProbe,
) -> Result<TuneReference, String> {
    let device = quiet_device(lab);
    let table = lab.device().config().opps.clone();
    let trace = {
        let _s = tracer.span("evdev.record");
        workload.script.record_trace()
    };
    let mut profiles: BTreeMap<Frequency, LagProfile> = BTreeMap::new();
    for opp in table.opps() {
        let mut gov = FixedGovernor::new(opp.freq);
        let run = probed_run(tracer, &device, workload, trace.clone(), &mut gov, false, probe)
            .map_err(|e| e.to_string())?;
        profiles.insert(opp.freq, ground_truth_profile(&run, &format!("fixed-{}", opp.freq)));
    }
    let fastest =
        profiles.get(&table.max_freq()).cloned().unwrap_or_else(|| LagProfile::new("reference"));
    let model = ThresholdModel::paper_rule(fastest);
    let oracle = {
        let _s = tracer.span("core.oracle");
        build_oracle(&profiles, &OracleConfig::paper(lab.power_table().most_efficient_freq()))
    };
    let mut gov = PlanGovernor::new("oracle", oracle.plan.clone());
    let run = probed_run(tracer, &device, workload, trace.clone(), &mut gov, false, probe)
        .map_err(|e| e.to_string())?;
    let profile = ground_truth_profile(&run, "oracle");
    let oracle_irritation_us = {
        let _s = tracer.span("core.irritation");
        user_irritation(&profile, &model).total().as_micros()
    };
    Ok(TuneReference {
        trace,
        oracle_irritation_us,
        oracle_energy_uj: energy_uj(tracer, lab, &run),
        oracle_lag_us: profile.mean_lag().as_micros(),
        model,
    })
}
