//! Serialisation round-trips of every persistent artifact: traces,
//! annotation databases, lag profiles, activity traces and device scripts
//! all survive JSON round-trips bit-exactly, so studies can be
//! split across machines the way the paper splits recording (on the
//! phone) from analysis (on a workstation).

use interlag::core::annotation::AnnotationDb;
use interlag::core::experiment::{Lab, LabConfig};
use interlag::core::matcher::mark_up;
use interlag::core::profile::LagProfile;
use interlag::device::script::InteractionCategory;
use interlag::evdev::trace::EventTrace;
use interlag::power::energy::ActivityTrace;
use interlag::power::opp::Frequency;
use interlag::workloads::gen::{Workload, WorkloadBuilder, MCYCLES};

fn workload() -> Workload {
    let mut b = WorkloadBuilder::new(404);
    b.app_launch("launch", 500 * MCYCLES, 5, InteractionCategory::Common);
    b.think_ms(2_000, 3_000);
    b.heavy_with_progress("send", 1_200 * MCYCLES, InteractionCategory::Common);
    b.build("serde", "serde round-trip workload")
}

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialises");
    serde_json::from_str(&json).expect("deserialises")
}

#[test]
fn event_trace_roundtrips_via_json_and_getevent_text() {
    let w = workload();
    let trace = w.script.record_trace();
    let via_json: EventTrace = roundtrip(&trace);
    assert_eq!(via_json, trace);
    let via_text: EventTrace = trace.to_getevent_text().parse().expect("parses");
    assert_eq!(via_text, trace);
}

#[test]
fn annotation_db_roundtrips_and_still_matches() {
    let lab = Lab::new(LabConfig::default());
    let w = workload();
    let (db, _, run) = lab.annotate_workload(&w).expect("annotate");

    let restored: AnnotationDb = roundtrip(&db);
    assert_eq!(restored, db);

    // The restored database must drive the matcher identically.
    let video = run.video.as_ref().expect("video");
    let (a, fa) = mark_up(video, &run.lag_beginnings(), &db, "orig");
    let (b, fb) = mark_up(video, &run.lag_beginnings(), &restored, "restored");
    assert_eq!(a.entries(), b.entries());
    assert_eq!(fa, fb);
}

#[test]
fn lag_profiles_roundtrip() {
    let lab = Lab::new(LabConfig::default());
    let w = workload();
    let study = lab.study(&w).expect("study");

    let profile = &study.oracle.reps[0].profile;
    let restored: LagProfile = roundtrip(profile);
    assert_eq!(&restored, profile);
}

#[test]
fn activity_traces_roundtrip_with_equal_energy() {
    let lab = Lab::new(LabConfig::default());
    let w = workload();
    let trace = w.script.record_trace();
    let mut gov = interlag::device::dvfs::FixedGovernor::new(Frequency::from_mhz(960));
    let run = lab.run(&w, trace, &mut gov).expect("clean run");

    let restored: ActivityTrace = roundtrip(&run.activity);
    assert_eq!(restored, run.activity);
    let a = lab.meter().measure(&run.activity);
    let b = lab.meter().measure(&restored);
    assert_eq!(a.dynamic_mj.to_bits(), b.dynamic_mj.to_bits());
}

#[test]
fn device_scripts_roundtrip() {
    let w = workload();
    let restored: interlag::device::script::DeviceScript = roundtrip(&w.script);
    assert_eq!(restored, w.script);
    assert_eq!(restored.record_trace(), w.script.record_trace());
}
