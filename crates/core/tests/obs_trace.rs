//! Observability contract tests: the recorder must never change what the
//! study measures, and everything it derives from simulated time must be
//! identical for any worker count. The wall-clock axis is allowed to vary
//! (that is its job); it lives in a separate trace process and report
//! section so these tests can pin down the deterministic remainder.

use interlag_core::experiment::{ConfigSummary, Lab, LabConfig, StudyResult};
use interlag_device::script::InteractionCategory;
use interlag_faults::FaultConfig;
use interlag_obs::Recorder;
use interlag_workloads::gen::{Workload, WorkloadBuilder, MCYCLES};

/// A fast two-interaction workload (the study sweeps 18 configurations,
/// so per-run cost dominates).
fn small_workload() -> Workload {
    let mut b = WorkloadBuilder::new(0x0b5e);
    b.app_launch("launch", 300 * MCYCLES, 4, InteractionCategory::Common);
    b.think_ms(1_500, 2_000);
    b.quick_tap("tap", 100 * MCYCLES, InteractionCategory::SimpleFrequent);
    b.build("obs", "observability test workload")
}

fn faulted_lab(workers: usize, obs: Recorder) -> Lab {
    Lab::new(LabConfig {
        reps: 2,
        workers,
        faults: Some(FaultConfig::uniform(0x0b5e_55ed, 0.05)),
        obs,
        ..Default::default()
    })
}

/// Bit-level comparison of everything a study reports.
fn assert_studies_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.annotation, b.annotation);
    assert_eq!(a.db, b.db);
    assert_eq!(a.oracle_detail, b.oracle_detail);
    let (ca, cb): (Vec<&ConfigSummary>, Vec<&ConfigSummary>) =
        (a.all_configs().collect(), b.all_configs().collect());
    assert_eq!(ca.len(), cb.len());
    for (s, p) in ca.iter().zip(&cb) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.outcomes, p.outcomes, "{}", s.name);
        for (sr, pr) in s.reps.iter().zip(&p.reps) {
            assert_eq!(sr.profile, pr.profile, "{}", s.name);
            assert_eq!(sr.dynamic_energy_mj.to_bits(), pr.dynamic_energy_mj.to_bits());
            assert_eq!(sr.irritation, pr.irritation, "{}", s.name);
        }
    }
}

#[test]
fn faulted_parallel_study_emits_a_valid_chrome_trace() {
    let obs = Recorder::enabled();
    let study = faulted_lab(4, obs.clone()).study(&small_workload()).expect("study");
    assert!(study.all_configs().count() > 0);

    let json = obs.chrome_trace_json();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    // Every stage of the pipeline shows up as a complete span.
    let span_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e["ph"] == "X")
        .map(|e| e["name"].as_str().expect("span name"))
        .collect();
    for expected in ["study", "annotate", "study-rep", "replay", "match", "irritate", "capture"] {
        assert!(span_names.contains(expected), "missing span {expected:?} in {span_names:?}");
    }

    // The wall-clock process carries one named track per pool worker.
    let thread_names: Vec<String> = events
        .iter()
        .filter(|e| e["name"] == "thread_name" && e["pid"] == 1)
        .map(|e| e["args"]["name"].as_str().expect("thread name").to_string())
        .collect();
    for w in 1..=4 {
        assert!(
            thread_names.iter().any(|n| n == &format!("worker {w}")),
            "missing worker {w} track in {thread_names:?}"
        );
    }

    // Complete events carry numeric timestamps and durations.
    for e in events.iter().filter(|e| e["ph"] == "X") {
        assert!(e["ts"].is_number(), "bad ts in {e}");
        assert!(e["dur"].is_number(), "bad dur in {e}");
    }

    // Both processes are present: wall clock (1) and simulated time (2).
    let pids: std::collections::BTreeSet<i64> =
        events.iter().map(|e| e["pid"].as_i64().expect("pid")).collect();
    assert_eq!(pids, [1, 2].into_iter().collect());
}

#[test]
fn recorder_never_changes_study_results() {
    let w = small_workload();
    let baseline = faulted_lab(1, Recorder::disabled()).study(&w).expect("study");
    for workers in [1usize, 4] {
        for obs in [Recorder::disabled(), Recorder::enabled()] {
            let study = faulted_lab(workers, obs).study(&w).expect("study");
            assert_studies_identical(&baseline, &study);
        }
    }
}

#[test]
fn sim_exports_are_byte_stable_across_worker_counts() {
    let w = small_workload();
    let (serial, parallel) = (Recorder::enabled(), Recorder::enabled());
    faulted_lab(1, serial.clone()).study(&w).expect("study");
    faulted_lab(4, parallel.clone()).study(&w).expect("study");
    assert_eq!(serial.chrome_trace_json_sim_only(), parallel.chrome_trace_json_sim_only());
    assert_eq!(serial.text_report_deterministic(), parallel.text_report_deterministic());
}

/// Stage 1 and the oracle stage each run their own worker pool; the
/// wall-clock report folds both into one row per worker.
#[test]
fn two_worker_study_reports_each_worker_once() {
    let obs = Recorder::enabled();
    faulted_lab(2, obs.clone()).study(&small_workload()).expect("study");
    let doc: serde_json::Value =
        serde_json::from_str(&obs.chrome_trace_json()).expect("trace JSON parses");
    let mut workers: Vec<i64> = doc["traceEvents"]
        .as_array()
        .expect("traceEvents array")
        .iter()
        .filter(|e| e["name"] == "worker_time")
        .map(|e| e["tid"].as_i64().expect("worker id"))
        .collect();
    workers.sort_unstable();
    assert_eq!(workers, [1, 2], "one wall-clock row per worker");
}
