//! The compact binary checkpoint codec: bit-exact round-trips (NaN and
//! infinity confidences included), corruption detection through the
//! journal's binary framing, and resume equivalence between JSON and
//! binary study journals — including one file holding both formats.

use interlag_core::checkpoint::{
    decode_checkpoint_any, decode_checkpoint_binary, encode_checkpoint, encode_checkpoint_binary,
    CheckpointFormat, CheckpointRecord, StudyJournal,
};
use interlag_core::error::InterlagError;
use interlag_core::experiment::{RepOutcome, RepResult};
use interlag_core::ingest::DatasetError;
use interlag_core::matcher::MatchFailure;
use interlag_core::profile::{LagEntry, LagProfile};
use interlag_device::DeviceError;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::{decode_records, encode_record_binary};
use interlag_video::manifest::{ManifestDefect, ManifestError};
use interlag_video::stream::VideoError;
use proptest::prelude::*;

fn confidence() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        Just(1.0f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE),
    ]
}

fn lag_entry() -> impl Strategy<Value = LagEntry> {
    (0usize..10_000, 0u64..86_400_000_000, 0u64..600_000_000, 0u64..5_000_000, confidence())
        .prop_map(|(id, input_us, lag_us, threshold_us, confidence)| LagEntry {
            interaction_id: id,
            input_time: SimTime::from_micros(input_us),
            lag: SimDuration::from_micros(lag_us),
            threshold: SimDuration::from_micros(threshold_us),
            confidence,
        })
}

fn rep_result() -> impl Strategy<Value = RepResult> {
    let name = prop_oneof![
        Just("ondemand".to_string()),
        Just("fixed-0.30 GHz".to_string()),
        Just("naïve ünïcode".to_string()), // config names are length-prefixed UTF-8
        (0u32..100).prop_map(|i| format!("config-{i}")),
    ];
    (
        name,
        proptest::collection::vec(lag_entry(), 0..20),
        proptest::num::u64::ANY, // raw IEEE bits: NaN payloads, denormals, infinities
        0u64..3_600_000_000,
        0usize..10,
        0usize..10,
    )
        .prop_map(
            |(name, entries, energy_bits, irritation_us, match_failures, input_faults)| {
                let mut profile = LagProfile::new(name);
                for e in entries {
                    profile.push(e);
                }
                RepResult {
                    profile,
                    dynamic_energy_mj: f64::from_bits(energy_bits),
                    irritation: SimDuration::from_micros(irritation_us),
                    match_failures,
                    input_faults,
                }
            },
        )
}

fn cause() -> impl Strategy<Value = InterlagError> {
    let match_failure = prop_oneof![
        Just(MatchFailure::NotAnnotated),
        Just(MatchFailure::EndingNotFound),
        Just(MatchFailure::Cancelled),
    ];
    prop_oneof![
        (0u64..1_000_000_000, 0u64..1_000_000_000).prop_map(|(prev_us, time_us)| {
            InterlagError::Device(DeviceError::Video(VideoError::NonMonotonicTimestamp {
                prev: SimTime::from_micros(prev_us),
                time: SimTime::from_micros(time_us),
            }))
        }),
        (1u32..4096, 1u32..4096, 1u32..4096, 1u32..4096).prop_map(|(ew, eh, w, h)| {
            InterlagError::Device(DeviceError::Video(VideoError::GeometryMismatch {
                expected: (ew, eh),
                found: (w, h),
            }))
        }),
        Just(InterlagError::Device(DeviceError::Cancelled)),
        (0usize..500, match_failure)
            .prop_map(|(interaction_id, failure)| InterlagError::Match { interaction_id, failure }),
        Just(InterlagError::MissingVideo),
        Just(InterlagError::Timeout),
        (0usize..1_000_000)
            .prop_map(|offset| InterlagError::Dataset(DatasetError::BadUtf8 { offset })),
        (1usize..1_000, 1u32..64, 1u32..64).prop_map(|(line, w, h)| {
            InterlagError::Dataset(DatasetError::Manifest(ManifestError {
                line,
                defect: ManifestDefect::GeometryMismatch { expected: (w, h), found: (h, w + 1) },
            }))
        }),
    ]
}

fn rep_outcome() -> impl Strategy<Value = RepOutcome> {
    prop_oneof![
        Just(RepOutcome::Ok),
        (2u32..10).prop_map(|attempts| RepOutcome::Retried { attempts }),
        (1u32..10).prop_map(|attempts| RepOutcome::TimedOut { attempts }),
        (1u32..10, cause()).prop_map(|(attempts, cause)| RepOutcome::Abandoned { attempts, cause }),
    ]
}

fn assert_result_bits_equal(a: &RepResult, b: &RepResult) {
    assert_eq!(a.profile.config, b.profile.config);
    assert_eq!(a.profile.entries().len(), b.profile.entries().len());
    for (x, y) in a.profile.entries().iter().zip(b.profile.entries()) {
        assert_eq!(x.interaction_id, y.interaction_id);
        assert_eq!(x.input_time, y.input_time);
        assert_eq!(x.lag, y.lag);
        assert_eq!(x.threshold, y.threshold);
        assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
    }
    assert_eq!(a.dynamic_energy_mj.to_bits(), b.dynamic_energy_mj.to_bits());
    assert_eq!(a.irritation, b.irritation);
    assert_eq!(a.match_failures, b.match_failures);
    assert_eq!(a.input_faults, b.input_faults);
}

proptest! {
    /// Binary encode → decode is the identity, `decode_checkpoint_any`
    /// accepts both codecs, and the binary payload is smaller than the
    /// JSON it replaces.
    #[test]
    fn binary_checkpoints_round_trip_bit_exactly(
        fingerprint in proptest::num::u64::ANY,
        config in 0usize..32,
        rep in 0u32..16,
        result in rep_result(),
        outcome in rep_outcome(),
    ) {
        let record = CheckpointRecord::new(fingerprint, config, rep, &result, &outcome);
        let payload = encode_checkpoint_binary(&record);
        let back = decode_checkpoint_binary(&payload).expect("a clean payload decodes");
        prop_assert_eq!(&back, &record);

        // Auto-detection resolves both codecs to the same record.
        let any_bin = decode_checkpoint_any(&payload).expect("binary auto-detects");
        let any_json = decode_checkpoint_any(&encode_checkpoint(&record)).expect("json auto-detects");
        prop_assert_eq!(&any_bin, &record);
        prop_assert_eq!(&any_json, &record);

        let (config2, rep2, result2, outcome2) = back.into_parts();
        prop_assert_eq!(config2, config);
        prop_assert_eq!(rep2, rep);
        prop_assert_eq!(&outcome2, &outcome);
        assert_result_bits_equal(&result2, &result);

        prop_assert!(
            payload.len() < encode_checkpoint(&record).len(),
            "the compact codec must actually be compact"
        );
    }

    /// Flipping any single byte of a binary-framed checkpoint is caught
    /// by the CRC: nothing decodes, and nothing misparses into a
    /// different record.
    #[test]
    fn framed_binary_checkpoint_survives_no_single_byte_corruption(
        result in rep_result(),
        outcome in rep_outcome(),
        byte_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let record = CheckpointRecord::new(0x5eed, 3, 1, &result, &outcome);
        let payload = encode_checkpoint_binary(&record);
        let framed = encode_record_binary(&payload);

        let idx = ((framed.len() as f64 * byte_frac) as usize).min(framed.len() - 1);
        let mut corrupt = framed.clone();
        corrupt[idx] ^= flip;

        let out = decode_records(&corrupt);
        prop_assert!(
            out.records.is_empty(),
            "single-byte corruption at byte {} escaped the checksum",
            idx
        );
    }

    /// Decoding arbitrary bytes behind the magic never panics and never
    /// fabricates a record that re-encodes differently.
    #[test]
    fn binary_decoder_is_total_on_garbage(noise in proptest::collection::vec(proptest::num::u8::ANY, 0..200)) {
        let mut payload = b"ILC1".to_vec();
        payload.extend_from_slice(&noise);
        if let Some(record) = decode_checkpoint_binary(&payload) {
            prop_assert_eq!(encode_checkpoint_binary(&record), payload);
        }
    }
}

/// One study journalled as JSON and one journalled binary replay
/// identically; a JSON-era file continued with binary appends resumes
/// with every record from both eras.
#[test]
fn json_and_binary_journals_resume_equivalently() {
    let dir = std::env::temp_dir().join(format!("interlag-binckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let json_path = dir.join("study.json");
    let bin_path = dir.join("study.journal");

    let mut profile = LagProfile::new("interactive");
    profile.push(LagEntry {
        interaction_id: 7,
        input_time: SimTime::from_micros(1_000_001),
        lag: SimDuration::from_micros(240_007),
        threshold: SimDuration::from_millis(1_000),
        confidence: 0.1 + 0.2,
    });
    let result = RepResult {
        profile,
        dynamic_energy_mj: f64::NAN,
        irritation: SimDuration::from_micros(55),
        match_failures: 1,
        input_faults: 0,
    };

    for (path, format) in
        [(&json_path, CheckpointFormat::Json), (&bin_path, CheckpointFormat::Binary)]
    {
        let journal = StudyJournal::create(path, 0xfeed).expect("create");
        assert_eq!(journal.format(), format);
        journal.record(0, 0, &result, &RepOutcome::Ok);
        journal.record(1, 2, &result, &RepOutcome::Retried { attempts: 2 });
        assert_eq!(journal.write_errors(), 0);
    }

    let from_json = StudyJournal::resume(&json_path, 0xfeed).expect("resume json");
    let from_bin = StudyJournal::resume(&bin_path, 0xfeed).expect("resume binary");
    assert_eq!(from_json.replayable(), 2);
    assert_eq!(from_bin.replayable(), 2);
    for (config, rep) in [(0usize, 0u32), (1, 2)] {
        let (rj, oj) = from_json.cached(config, rep).expect("json cached");
        let (rb, ob) = from_bin.cached(config, rep).expect("binary cached");
        assert_eq!(oj, ob);
        assert_result_bits_equal(&rj, &rb);
    }
    drop((from_json, from_bin));

    // A journal written in the JSON era and renamed keeps its records
    // when binary appends extend it: the decoder handles mixed files.
    let mixed_path = dir.join("migrated.journal");
    std::fs::copy(&json_path, &mixed_path).expect("copy");
    {
        let migrated = StudyJournal::resume(&mixed_path, 0xfeed).expect("resume migrated");
        assert_eq!(migrated.format(), CheckpointFormat::Binary);
        assert_eq!(migrated.replayable(), 2, "JSON records survive the format switch");
        migrated.record(2, 0, &result, &RepOutcome::Ok);
    }
    let mixed = StudyJournal::resume(&mixed_path, 0xfeed).expect("resume mixed");
    assert_eq!(mixed.replayable(), 3, "records from both eras replay");
    assert_eq!(mixed.torn(), 0);
    assert_eq!(mixed.foreign(), 0);

    std::fs::remove_dir_all(&dir).ok();
}
