//! The CLI's exit-code contract, end to end against the real binary:
//! 0 = success, 1 = runtime failure, 2 = usage error, 3 = corrupt
//! dataset under `--strict`, 4 = a resumed study that still carries
//! timed-out or abandoned reps, 5 = a sharded sweep that completed
//! degraded (abandoned shards).
//! Automation scripts branch on these, so they are tested as an
//! interface, not an implementation detail.

use std::path::PathBuf;
use std::process::Command;

use interlag::core::checkpoint::{study_fingerprint, StudyJournal};
use interlag::core::experiment::{LabConfig, RepOutcome, RepResult};
use interlag::core::profile::LagProfile;
use interlag::evdev::time::SimDuration;
use interlag::workloads::datasets::Dataset;

fn interlag_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_interlag"))
}

fn exit_code(cmd: &mut Command) -> i32 {
    cmd.output().expect("binary runs").status.code().expect("binary exits, not signalled")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("interlag-cli-{}-{tag}", std::process::id()))
}

#[test]
fn clean_study_exits_zero() {
    assert_eq!(exit_code(interlag_cmd().args(["study", "mini"])), 0);
}

#[test]
fn usage_errors_exit_two() {
    for help in ["help", "-h", "--help"] {
        let out = interlag_cmd().arg(help).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{help}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: interlag"), "{help}");
    }
    assert_eq!(exit_code(&mut interlag_cmd()), 2, "no arguments");
    assert_eq!(exit_code(interlag_cmd().arg("frobnicate")), 2, "unknown command");
    assert_eq!(exit_code(interlag_cmd().args(["study", "no-such-dataset"])), 2);
    assert_eq!(
        exit_code(interlag_cmd().args(["study", "mini", "--resume"])),
        2,
        "--resume without --journal"
    );
}

/// Command lines hand parsing once misread: a mistyped flag was ignored,
/// a missing value defaulted, and a flag was taken as a file name.
#[test]
fn misparsed_command_lines_exit_two() {
    let dir = temp_path("misparse");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for args in [
        &["study", "mini", "--rep", "3"][..],
        &["study", "mini", "--journal"],
        &["study", "mini", "--journal", "--resume"],
        &["tune", "mini", "governor=interactive:go-hispeed-load=80", "--workers"],
    ] {
        assert_eq!(exit_code(interlag_cmd().args(args).current_dir(&dir)), 2, "{args:?}");
    }
    assert!(!dir.join("--resume").exists(), "--resume was taken as the journal's name");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report file `study --csv` cannot write is a failure (exit 1), the
/// per-configuration profiles included.
#[test]
fn unwritable_profile_csv_exits_one() {
    let dir = temp_path("csv-blocked");
    let _ = std::fs::remove_dir_all(&dir);
    // A directory where a profile CSV should go makes its write fail.
    std::fs::create_dir_all(dir.join("profile-mini-conservative.csv")).expect("create blocker");
    let csv_dir = dir.to_str().expect("utf-8 temp path");
    assert_eq!(exit_code(interlag_cmd().args(["study", "mini", "--csv", csv_dir])), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_dataset_under_strict_exits_three() {
    let path = temp_path("corrupt.trace");
    std::fs::write(&path, b"[      2.000000] /dev/input/event1: 0003 0039 00000000\nGARBAGE\n")
        .expect("write corrupt trace");
    let code = exit_code(interlag_cmd().args([
        "study",
        "mini",
        "--events",
        path.to_str().expect("utf-8 temp path"),
        "--strict",
    ]));
    assert_eq!(code, 3);

    // The same file in default salvage mode drops the bad line and runs.
    let code = exit_code(interlag_cmd().args([
        "study",
        "mini",
        "--events",
        path.to_str().expect("utf-8 temp path"),
    ]));
    assert_eq!(code, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_with_degraded_reps_exits_four() {
    // Fabricate the journal a killed sweep would leave behind: one
    // repetition recorded as timed out, under the exact fingerprint the
    // CLI computes for `study mini` (reps = 1, default lab settings).
    let w = Dataset::Mini.build();
    let config = LabConfig { reps: 1, ..Default::default() };
    let fingerprint = study_fingerprint(&w.script.record_trace().to_getevent_text(), &config);

    let path = temp_path("degraded.journal");
    let _ = std::fs::remove_file(&path);
    let journal = StudyJournal::create(&path, fingerprint).expect("create journal");
    let placeholder = RepResult {
        profile: LagProfile::new("fixed-0.30 GHz"),
        dynamic_energy_mj: 0.0,
        irritation: SimDuration::ZERO,
        match_failures: 0,
        input_faults: 0,
    };
    journal.record(0, 0, &placeholder, &RepOutcome::TimedOut { attempts: 1 });
    assert_eq!(journal.write_errors(), 0);
    drop(journal);

    let code = exit_code(interlag_cmd().args([
        "study",
        "mini",
        "--journal",
        path.to_str().expect("utf-8 temp path"),
        "--resume",
    ]));
    assert_eq!(code, 4, "a resumed-but-degraded study must flag its holes");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn degraded_sweep_exits_five() {
    // A shard whose agent crashes on every attempt its (zeroed) retry
    // budget allows is abandoned: the sweep still writes a complete
    // report, and the exit code must say "degraded", distinct from both
    // success and runtime failure.
    let dir = temp_path("sweep-degraded");
    let _ = std::fs::remove_dir_all(&dir);
    let code = exit_code(interlag_cmd().args([
        "sweep",
        "mini",
        "--shards",
        "2",
        "--retry-budget",
        "0",
        "--sabotage",
        "crash@1:0:*",
        "--journal-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]));
    assert_eq!(code, 5, "an abandoned shard must surface as exit 5");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_usage_errors_exit_two() {
    assert_eq!(
        exit_code(interlag_cmd().args(["sweep", "mini", "--sabotage", "explode@1:0:0"])),
        2,
        "unknown sabotage kind"
    );
    assert_eq!(
        exit_code(interlag_cmd().args(["agent", "mini", "--shard", "0"])),
        2,
        "agent without --of/--stage/--journal"
    );
    for (flag, value) in [("--retry-budget", "abc"), ("--backoff-seed", "x")] {
        assert_eq!(
            exit_code(interlag_cmd().args([
                "agent",
                "mini",
                "--worker",
                "--connect",
                "127.0.0.1:1",
                flag,
                value
            ])),
            2,
            "agent --worker with a malformed {flag}"
        );
    }
}

#[test]
fn clean_resume_exits_zero() {
    let path = temp_path("clean.journal");
    let _ = std::fs::remove_file(&path);
    let journal_arg = path.to_str().expect("utf-8 temp path").to_string();
    assert_eq!(exit_code(interlag_cmd().args(["study", "mini", "--journal", &journal_arg])), 0);
    assert_eq!(
        exit_code(interlag_cmd().args(["study", "mini", "--journal", &journal_arg, "--resume"])),
        0,
        "resuming a completed clean sweep stays success"
    );
    let _ = std::fs::remove_file(&path);
}
