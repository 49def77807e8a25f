//! Annotation: building the image database of expected lag endings
//! (§II-A Part A, Figure 4).
//!
//! Annotating a workload happens **once**: a reference execution is
//! captured, the suggester proposes candidate ending frames for every
//! interaction lag, and an annotator picks the right one per lag. The
//! picked image — with its mask burned in, plus a match tolerance and an
//! occurrence count for endings that look like the beginning — goes into
//! the [`AnnotationDb`] that every later markup run uses.
//!
//! The paper's annotator is a human taking a couple of seconds per lag;
//! here the [`FramePicker`] trait plays that role. The default
//! [`GroundTruthPicker`] uses the simulator's privileged knowledge of the
//! true service time exactly the way the human uses their judgement of
//! "the system now looks done" — and tests verify the suggester actually
//! offered the frame the human would have picked.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use interlag_device::device::RunArtifacts;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_video::frame::FrameBuffer;
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::VideoStream;

use crate::suggester::{Suggester, Suggestion};

/// Everything the matcher needs to find one lag's ending in any video of
/// the same workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LagAnnotation {
    /// The interaction this annotation belongs to.
    pub interaction_id: usize,
    /// The expected ending image, with the mask burned in.
    pub image: FrameBuffer,
    /// Regions to ignore when matching (clock, ads, cursor).
    pub mask: Mask,
    /// Per-pixel and pixel-count tolerances for matching.
    pub tolerance: MatchTolerance,
    /// Which match-run counts as the ending (1 = first time the image
    /// appears; 2 = the ending looks like the beginning, §II-E).
    pub occurrence: u32,
    /// The irritation threshold chosen at annotation time (from the HCI
    /// category of the interaction; experiments may override it with the
    /// 110 %-of-fastest rule).
    pub threshold: SimDuration,
}

impl LagAnnotation {
    /// The first excluded mask rectangle that reaches outside the
    /// annotation's ending frame, if any. A non-`None` answer means the
    /// mask was drawn against a different frame geometry than the image it
    /// is stored with — matching under it would silently ignore the wrong
    /// pixels, so ingestion rejects (or drops) such annotations.
    pub fn oversized_mask_rect(&self) -> Option<interlag_video::frame::Rect> {
        let (w, h) = (self.image.width(), self.image.height());
        self.mask.excluded().iter().copied().find(|r| r.x1 > w || r.y1 > h)
    }
}

/// The annotation database of one workload.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AnnotationDb {
    /// Name of the annotated workload.
    pub workload: String,
    annotations: BTreeMap<usize, LagAnnotation>,
}

impl AnnotationDb {
    /// Creates an empty database for `workload`.
    pub fn new(workload: impl Into<String>) -> Self {
        AnnotationDb { workload: workload.into(), annotations: BTreeMap::new() }
    }

    /// Adds or replaces one lag's annotation.
    pub fn insert(&mut self, annotation: LagAnnotation) {
        self.annotations.insert(annotation.interaction_id, annotation);
    }

    /// The annotation of interaction `id`.
    pub fn get(&self, id: usize) -> Option<&LagAnnotation> {
        self.annotations.get(&id)
    }

    /// All annotations, ordered by interaction id.
    pub fn iter(&self) -> impl Iterator<Item = &LagAnnotation> {
        self.annotations.values()
    }

    /// Number of annotated lags.
    pub fn len(&self) -> usize {
        self.annotations.len()
    }

    /// `true` if nothing is annotated yet.
    pub fn is_empty(&self) -> bool {
        self.annotations.is_empty()
    }
}

/// The role of the human in Part A: pick the correct ending frame among
/// the suggestions for one lag.
pub trait FramePicker {
    /// Chooses one of `suggestions` (returning its index in the slice),
    /// or `None` if none of them is the ending (the lag is then left
    /// unannotated). `interaction_id` identifies the lag being annotated.
    fn pick(&self, interaction_id: usize, suggestions: &[Suggestion]) -> Option<usize>;
}

/// Simulates the human annotator with the simulator's ground truth: picks
/// the earliest suggestion at or after the true service time (the frame
/// where "the system now looks like it has serviced the input").
#[derive(Debug, Clone)]
pub struct GroundTruthPicker {
    service_times: BTreeMap<usize, SimTime>,
}

impl GroundTruthPicker {
    /// Builds the picker from a reference run's interaction log.
    pub fn new(run: &RunArtifacts) -> Self {
        let service_times =
            run.interactions.iter().filter_map(|r| r.service_time.map(|t| (r.id, t))).collect();
        GroundTruthPicker { service_times }
    }
}

impl FramePicker for GroundTruthPicker {
    fn pick(&self, interaction_id: usize, suggestions: &[Suggestion]) -> Option<usize> {
        let service = *self.service_times.get(&interaction_id)?;
        suggestions.iter().position(|s| s.time >= service)
    }
}

/// Always picks the last suggestion: a cheap heuristic annotator used to
/// show what happens when no ground truth (or human) is available.
#[derive(Debug, Clone, Copy, Default)]
pub struct LastSuggestionPicker;

impl FramePicker for LastSuggestionPicker {
    fn pick(&self, _interaction_id: usize, suggestions: &[Suggestion]) -> Option<usize> {
        if suggestions.is_empty() {
            None
        } else {
            Some(suggestions.len() - 1)
        }
    }
}

/// Statistics of one annotation session — the numbers behind the paper's
/// "factor 20 fewer frames to look at" claim (§II-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AnnotationStats {
    /// Lags that were annotated.
    pub annotated: usize,
    /// Lags where the picker rejected every suggestion.
    pub unannotated: usize,
    /// Total frames in all lag windows (the manual-markup burden).
    pub frames_in_windows: u64,
    /// Total suggestions shown to the picker.
    pub suggestions_shown: u64,
}

impl AnnotationStats {
    /// The reduction factor in frames a human must look at.
    pub fn reduction_factor(&self) -> f64 {
        if self.suggestions_shown == 0 {
            0.0
        } else {
            self.frames_in_windows as f64 / self.suggestions_shown as f64
        }
    }
}

/// Runs Part A: annotates every non-spurious interaction of a reference
/// run.
///
/// `mask`/`tolerance` become part of each stored annotation; the
/// occurrence count is derived automatically by counting how many times
/// the picked image already appeared between the input and the picked
/// frame (this is what the paper's user specifies by hand for
/// "ending-looks-like-beginning" lags).
///
/// # Panics
///
/// Panics if the reference run carries no video.
pub fn annotate(
    run: &RunArtifacts,
    suggester: &Suggester,
    picker: &dyn FramePicker,
    mask: &Mask,
    tolerance: MatchTolerance,
    workload_name: &str,
) -> (AnnotationDb, AnnotationStats) {
    let video = run.video.as_ref().expect("annotation needs a captured video");
    let mut db = AnnotationDb::new(workload_name);
    let mut stats = AnnotationStats::default();

    let lag_beginnings = run.lag_beginnings();
    for (idx, &(id, input_time)) in lag_beginnings.iter().enumerate() {
        // The suggestion window runs to the next input (or capture end).
        let window_end = lag_beginnings
            .get(idx + 1)
            .map(|&(_, t)| t)
            .unwrap_or(SimTime::ZERO + run.end_time.saturating_since(SimTime::ZERO));

        let suggestions = suggester.suggest(video, input_time, window_end);
        stats.frames_in_windows += suggester.frames_in_window(video, input_time, window_end) as u64;
        stats.suggestions_shown += suggestions.len() as u64;

        let Some(pick) = picker.pick(id, &suggestions) else {
            stats.unannotated += 1;
            continue;
        };
        let picked = suggestions[pick];

        // Store the image with the mask burned in.
        let mut image =
            video.get(picked.frame_index).expect("suggested frames exist").buf.as_ref().clone();
        mask.apply(&mut image);

        // Derive the occurrence: count match-runs of the picked image from
        // the lag beginning through the picked frame.
        let occurrence =
            count_occurrences(video, input_time, picked.frame_index, &image, mask, tolerance);

        let category = run
            .interactions
            .get(id)
            .map(|r| r.category)
            .unwrap_or(interlag_device::script::InteractionCategory::SimpleFrequent);

        db.insert(LagAnnotation {
            interaction_id: id,
            image,
            mask: mask.clone(),
            tolerance,
            occurrence,
            threshold: category.threshold(),
        });
        stats.annotated += 1;
    }
    (db, stats)
}

/// Counts match-runs of `image` in the frames from `from_time` up to and
/// including frame `through_index`. A run of consecutive matching frames
/// counts once.
fn count_occurrences(
    video: &VideoStream,
    from_time: SimTime,
    through_index: u32,
    image: &FrameBuffer,
    mask: &Mask,
    tolerance: MatchTolerance,
) -> u32 {
    let first = video.first_frame_at_or_after(from_time);
    let mut occurrences = 0u32;
    let mut in_match = false;
    let compiled = mask.compile(image.width(), image.height());
    // Every frame of a content run shares one verdict: one comparison per
    // run.
    for run in video.runs_in(first, through_index + 1) {
        let matches =
            tolerance.matches_compiled(&compiled, image, &video.slots()[run.slot as usize]);
        if matches && !in_match {
            occurrences += 1;
        }
        in_match = matches;
    }
    occurrences.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggester::SuggesterConfig;
    use interlag_evdev::time::SimDuration;
    use interlag_video::stream::FRAME_PERIOD_30FPS;
    use std::sync::Arc;

    fn frame(v: u8) -> Arc<FrameBuffer> {
        let mut f = FrameBuffer::new(8, 8);
        f.fill(v);
        Arc::new(f)
    }

    fn video_of(pattern: &str) -> VideoStream {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        for (i, c) in pattern.chars().enumerate() {
            v.push(SimTime::from_micros(i as u64 * 33_333), frame(c as u8)).unwrap();
        }
        v
    }

    #[test]
    fn occurrence_counting_runs_not_frames() {
        // Pattern a a b b a a: image `a`, from start through last index →
        // two runs of `a`.
        let v = video_of("aabbaa");
        let mut img = FrameBuffer::new(8, 8);
        img.fill(b'a');
        let n = count_occurrences(&v, SimTime::ZERO, 5, &img, &Mask::new(), MatchTolerance::EXACT);
        assert_eq!(n, 2);
        // Through index 1 (still inside the first run): one.
        let n = count_occurrences(&v, SimTime::ZERO, 1, &img, &Mask::new(), MatchTolerance::EXACT);
        assert_eq!(n, 1);
    }

    #[test]
    fn last_suggestion_picker() {
        let picker = LastSuggestionPicker;
        assert_eq!(picker.pick(0, &[]), None);
        let s = Suggestion { frame_index: 3, time: SimTime::ZERO, still_run: 2 };
        let t = Suggestion { frame_index: 7, time: SimTime::ZERO, still_run: 2 };
        assert_eq!(picker.pick(0, &[s, t]), Some(1));
    }

    #[test]
    fn annotation_db_clone_and_lookup() {
        let mut db = AnnotationDb::new("wl");
        db.insert(LagAnnotation {
            interaction_id: 4,
            image: FrameBuffer::new(4, 4),
            mask: Mask::status_bar(4, 1),
            tolerance: MatchTolerance::EXACT,
            occurrence: 2,
            threshold: SimDuration::from_secs(1),
        });
        let copy = db.clone();
        assert_eq!(copy, db);
        assert_eq!(db.len(), 1);
        assert!(db.get(4).is_some());
        assert!(db.get(5).is_none());
    }

    #[test]
    fn stats_reduction_factor() {
        let stats = AnnotationStats {
            annotated: 10,
            unannotated: 0,
            frames_in_windows: 2_000,
            suggestions_shown: 100,
        };
        assert!((stats.reduction_factor() - 20.0).abs() < 1e-9);
        assert_eq!(AnnotationStats::default().reduction_factor(), 0.0);
    }

    #[test]
    fn suggester_config_is_usable_here() {
        // Smoke-test the plumbing between suggester and annotation types.
        let s = Suggester::new(SuggesterConfig::default());
        let v = video_of("aabb");
        let sug = s.suggest(&v, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(sug.len(), 1);
    }
}
