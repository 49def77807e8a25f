//! Regressions at the video boundary.
//!
//! The suggester assumes strictly increasing frame timestamps —
//! `first_frame_at_or_after` binary-searches the time axis and
//! `change_sequence` treats each index as a distinct instant. A duplicate
//! timestamp must therefore be rejected at the stream boundary (a typed
//! [`VideoError`]), and the suggester must behave correctly on the frames
//! that survive. Likewise a stream has one geometry, so a manifest mixing
//! frame sizes is a typed defect, not a markup panic.

use std::sync::Arc;

use interlag_core::annotation::{AnnotationDb, LagAnnotation};
use interlag_core::ingest::{load_manifest, DatasetError, IngestMode};
use interlag_core::matcher::mark_up;
use interlag_core::suggester::{Suggester, SuggesterConfig};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_video::frame::FrameBuffer;
use interlag_video::manifest::{ManifestDefect, ManifestError};
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::{VideoError, VideoStream, FRAME_PERIOD_30FPS};

fn frame(v: u8) -> Arc<FrameBuffer> {
    let mut f = FrameBuffer::new(8, 8);
    f.fill(v);
    Arc::new(f)
}

#[test]
fn duplicate_timestamps_are_rejected_and_suggester_sees_clean_frames() {
    let period = FRAME_PERIOD_30FPS;
    let mut video = VideoStream::new(period);
    let base = frame(10);
    let ending = frame(200);

    // A A A E E E on the 30 fps grid, with a stalled-capture duplicate
    // attempted at the change point.
    for i in 0..3u64 {
        video.push(SimTime::ZERO + period * i, base.clone()).unwrap();
    }
    let stalled_at = SimTime::ZERO + period * 2;
    let err = video.push(stalled_at, ending.clone()).unwrap_err();
    assert_eq!(err, VideoError::NonMonotonicTimestamp { prev: stalled_at, time: stalled_at });
    // The typed rejection leaves the stream intact: same length, and the
    // last surviving frame still holds the pre-change image.
    assert_eq!(video.len(), 3);
    assert!(Arc::ptr_eq(video.get(2).unwrap().buf, &base));

    for i in 3..6u64 {
        video.push(SimTime::ZERO + period * i, ending.clone()).unwrap();
    }

    // Strictly increasing timestamps survive, so the binary-searched
    // window bounds are unambiguous...
    let times: Vec<u64> = video.iter().map(|f| f.time.as_micros()).collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]), "timestamps not strictly increasing");

    // ...and the suggester finds exactly one ending, at the first frame
    // showing the new image — not at the rejected duplicate's slot.
    let suggester = Suggester::new(SuggesterConfig::default());
    let suggestions =
        suggester.suggest(&video, SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
    assert_eq!(suggestions.len(), 1);
    assert_eq!(suggestions[0].frame_index, 3);
    assert_eq!(suggestions[0].time, SimTime::ZERO + period * 3);

    // The change sequence marks one change across the whole capture: the
    // duplicate never entered, so no index claims the same instant twice.
    let changes = suggester.change_sequence(&video, 0, video.len() as u32);
    assert_eq!(changes.iter().filter(|&&c| c).count(), 1);
    assert!(changes[3]);
}

/// A valid strict manifest whose two frames disagree on geometry used to
/// load, then panic inside markup. The stream now has one geometry: strict
/// loading fails on the offending line, salvage drops it, and the salvaged
/// stream marks up without a panic.
#[test]
fn mixed_geometry_manifest_is_a_typed_error_not_a_markup_panic() {
    let text = "interlag-video-manifest v1\nperiod_us 33333\n\
                frame a 8x8 1\nframe b 16x4 2\nat 0 a\nat 33333 b\n";
    let defect = ManifestDefect::GeometryMismatch { expected: (8, 8), found: (16, 4) };
    let err = load_manifest(text, IngestMode::Strict).unwrap_err();
    assert_eq!(err, DatasetError::Manifest(ManifestError { line: 6, defect }));

    let (video, report) = load_manifest(text, IngestMode::Salvage).expect("salvaged");
    assert_eq!((video.len(), report.dropped_manifest_lines), (1, 1));
    let mut db = AnnotationDb::new("mixed");
    db.insert(LagAnnotation {
        interaction_id: 0,
        image: video.get(0).unwrap().buf.as_ref().clone(),
        mask: Mask::new(),
        tolerance: MatchTolerance::EXACT,
        occurrence: 1,
        threshold: SimDuration::from_secs(1),
    });
    let (profile, failures) = mark_up(&video, &[(0, SimTime::ZERO)], &db, "mixed");
    assert_eq!((profile.len(), failures.len()), (1, 0));
}
