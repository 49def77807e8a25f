//! Shared harness for the figure/table benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! this crate (`cargo bench -p interlag-bench --bench figNN`) that re-runs
//! the underlying experiment and prints the same rows/series the paper
//! reports. This module holds what they share: dataset lookup, study
//! execution with environment-controlled repetitions, and small formatting
//! helpers.
//!
//! Environment knobs:
//!
//! * `INTERLAG_REPS` — repetitions per configuration (default 3; the
//!   paper uses 5).
//! * `INTERLAG_DATASETS` — comma-separated subset (e.g. `01,02`) for the
//!   multi-dataset figures.
//!
//! A malformed value panics with the variable and the value, rather than
//! silently falling back to a default or to an empty selection.

use interlag_core::experiment::{Lab, LabConfig, StudyResult};
use interlag_workloads::datasets::Dataset;
use interlag_workloads::gen::Workload;

/// Repetitions per configuration, from `INTERLAG_REPS` (default 3).
pub fn reps() -> u32 {
    parse_reps(std::env::var("INTERLAG_REPS").ok().as_deref())
}

/// Parses an `INTERLAG_REPS` value: unset means 3, anything but a
/// positive integer panics naming the variable and the value.
fn parse_reps(raw: Option<&str>) -> u32 {
    let Some(raw) = raw else { return 3 };
    match raw.trim().parse() {
        Ok(reps) if reps > 0 => reps,
        _ => panic!("INTERLAG_REPS={raw:?}: expected a positive integer"),
    }
}

/// The datasets a multi-dataset figure should cover, from
/// `INTERLAG_DATASETS` (default: all five ten-minute datasets).
pub fn selected_datasets() -> Vec<Dataset> {
    parse_datasets(std::env::var("INTERLAG_DATASETS").ok().as_deref())
}

/// Parses an `INTERLAG_DATASETS` value: unset means all five ten-minute
/// datasets; a name that is not one of them panics naming the variable
/// and the name.
fn parse_datasets(raw: Option<&str>) -> Vec<Dataset> {
    let Some(raw) = raw else { return Dataset::TEN_MINUTE.to_vec() };
    raw.split(',')
        .map(|name| {
            Dataset::TEN_MINUTE.iter().copied().find(|d| d.name() == name.trim()).unwrap_or_else(
                || panic!("INTERLAG_DATASETS={raw:?}: unknown dataset {name:?} (expected 01..05)"),
            )
        })
        .collect()
}

/// Builds the default lab used by every figure bench.
pub fn lab_with_reps(reps: u32) -> Lab {
    Lab::new(LabConfig { reps, ..Default::default() })
}

/// Runs the full §III study for one dataset and reports how long it took.
pub fn run_study(dataset: Dataset, reps: u32) -> (Workload, StudyResult) {
    let workload = dataset.build();
    let lab = lab_with_reps(reps);
    let started = std::time::Instant::now();
    let study = lab.study(&workload).expect("fault-free study");
    eprintln!(
        "[bench] dataset {}: {} lags, {} configs x {} reps in {:.1} s",
        dataset.name(),
        study.db.len(),
        study.all_configs().count(),
        reps,
        started.elapsed().as_secs_f64()
    );
    (workload, study)
}

/// Prints a horizontal rule sized for `width` columns of table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints a figure/table banner.
pub fn banner(title: &str, subtitle: &str) {
    println!();
    rule(78);
    println!("{title}");
    if !subtitle.is_empty() {
        println!("{subtitle}");
    }
    rule(78);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_default_and_parse() {
        assert_eq!(parse_reps(None), 3);
        assert_eq!(parse_reps(Some("5")), 5);
        assert_eq!(parse_reps(Some(" 2 ")), 2);
    }

    #[test]
    #[should_panic(expected = "INTERLAG_REPS=\"abc\"")]
    fn reps_rejects_non_numbers() {
        parse_reps(Some("abc"));
    }

    #[test]
    #[should_panic(expected = "INTERLAG_REPS=\"0\"")]
    fn reps_rejects_zero() {
        parse_reps(Some("0"));
    }

    #[test]
    fn selected_datasets_default_is_all_five() {
        assert_eq!(parse_datasets(None), Dataset::TEN_MINUTE.to_vec());
        assert_eq!(parse_datasets(Some("01, 03")), vec![Dataset::D01, Dataset::D03]);
    }

    #[test]
    #[should_panic(expected = "INTERLAG_DATASETS=\"1,2\": unknown dataset \"1\"")]
    fn datasets_reject_unknown_names() {
        parse_datasets(Some("1,2"));
    }
}
