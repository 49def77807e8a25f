//! The suggester: semi-automatic lag-ending discovery (§II-D, Figure 7).
//!
//! Instead of eyeballing every frame of a captured video, the annotator is
//! shown only frames with a *high potential* of being a lag ending. The
//! algorithm maps successive frames to a sequence of ones (frame differs
//! from its predecessor) and zeros (frame equals it), then suggests every
//! `1` that is followed by a run of `0`s — the first frame of a
//! still-standing period. Blinking cursors and small animations are
//! handled exactly as the paper describes: a per-lag pixel tolerance, an
//! image mask, and a configurable minimum still-period length.
//!
//! The zeros come for free: a [`VideoStream`] is its own run-length
//! encoding, every frame inside a content run equals its predecessor, and
//! only run boundaries are compared under the mask and tolerance.

use serde::{Deserialize, Serialize};

use interlag_evdev::time::SimTime;
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::VideoStream;

/// Tunables of the suggester, adjustable per lag as in the paper's GUI.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SuggesterConfig {
    /// Regions ignored when comparing successive frames (clock, ads).
    pub mask: Mask,
    /// Pixel-value / pixel-count tolerances ("allow a certain amount of
    /// pixel difference between frames").
    pub tolerance: MatchTolerance,
    /// How many consecutive unchanged frames must follow a changed frame
    /// before it is suggested ("the amount of zeros following a one can
    /// be specified"). Zero behaves like one.
    pub min_still_run: u32,
}

/// A suggested lag-ending frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suggestion {
    /// Index of the suggested frame in the video.
    pub frame_index: u32,
    /// Presentation time of that frame.
    pub time: SimTime,
    /// Length of the still period following it, in frames (clipped at the
    /// window end).
    pub still_run: u32,
}

/// The suggester algorithm.
///
/// # Examples
///
/// ```
/// use interlag_core::suggester::{Suggester, SuggesterConfig};
/// use interlag_evdev::time::SimTime;
/// use interlag_video::frame::FrameBuffer;
/// use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
/// use std::sync::Arc;
///
/// // Three stills: A A B B B — one change, so one suggestion (frame 2).
/// let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
/// let a = Arc::new(FrameBuffer::new(8, 8));
/// let mut bb = FrameBuffer::new(8, 8);
/// bb.fill(200);
/// let b = Arc::new(bb);
/// for (i, f) in [&a, &a, &b, &b, &b].iter().enumerate() {
///     video.push(SimTime::from_micros(i as u64 * 33_333), (*f).clone()).unwrap();
/// }
/// let s = Suggester::new(SuggesterConfig::default());
/// let suggestions = s.suggest(&video, SimTime::ZERO, SimTime::from_secs(1));
/// assert_eq!(suggestions.len(), 1);
/// assert_eq!(suggestions[0].frame_index, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Suggester {
    config: SuggesterConfig,
}

impl Suggester {
    /// Creates a suggester.
    pub fn new(config: SuggesterConfig) -> Self {
        Suggester { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SuggesterConfig {
        &self.config
    }

    /// The paper's inner representation: for every frame in
    /// `[from_index, to_index)`, `true` if it differs from its predecessor
    /// under the mask/tolerance. The first frame of the video is `false`
    /// by definition.
    pub fn change_sequence(
        &self,
        video: &VideoStream,
        from_index: u32,
        to_index: u32,
    ) -> Vec<bool> {
        let to = to_index.min(video.len() as u32);
        let from = from_index.min(to);
        let mut out = vec![false; (to - from) as usize];
        let Some(first) = video.slots().first() else { return out };
        // One mask compilation serves the whole window: a stream has one
        // geometry.
        let compiled = self.config.mask.compile(first.width(), first.height());
        let (runs, slots) = (video.runs(), video.slots());
        // Frames inside a run equal their predecessor under every
        // tolerance, and the video's first frame has none: only the first
        // frame of every later run is compared, against the run before.
        for k in video.run_of_frame(from).max(1)..runs.len() {
            let start = runs[k].first_frame;
            if start >= to {
                break;
            }
            if start >= from {
                let (prev, cur) =
                    (&slots[runs[k - 1].slot as usize], &slots[runs[k].slot as usize]);
                out[(start - from) as usize] =
                    !self.config.tolerance.matches_compiled(&compiled, prev, cur);
            }
        }
        out
    }

    /// Suggests potential lag-ending frames for the window from
    /// `lag_start` (the input) to `window_end` (the next input, or the end
    /// of the capture): every changed frame followed by at least
    /// `min_still_run` unchanged frames. A changed frame whose still
    /// period is clipped by the window end is also suggested — the ending
    /// may be the last thing that happened.
    pub fn suggest(
        &self,
        video: &VideoStream,
        lag_start: SimTime,
        window_end: SimTime,
    ) -> Vec<Suggestion> {
        let first = video.first_frame_at_or_after(lag_start);
        let last = video.first_frame_at_or_after(window_end);
        let changes = self.change_sequence(video, first, last);
        let min_run = self.config.min_still_run.max(1);

        let mut out = Vec::new();
        let mut i = 0usize;
        while i < changes.len() {
            if changes[i] {
                // Measure the still run following this change.
                let mut run = 0u32;
                let mut j = i + 1;
                while j < changes.len() && !changes[j] {
                    run += 1;
                    j += 1;
                }
                let clipped = j == changes.len();
                if run >= min_run || (clipped && run > 0) || (clipped && i + 1 == changes.len()) {
                    let idx = first + i as u32;
                    let time = video.times()[idx as usize];
                    out.push(Suggestion { frame_index: idx, time, still_run: run });
                }
                i = j;
            } else {
                i += 1;
            }
        }
        out
    }

    /// The manual-markup burden this window would have cost: how many
    /// frames a human would step through without the suggester.
    pub fn frames_in_window(
        &self,
        video: &VideoStream,
        lag_start: SimTime,
        window_end: SimTime,
    ) -> u32 {
        let first = video.first_frame_at_or_after(lag_start);
        let last = video.first_frame_at_or_after(window_end);
        last - first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interlag_video::frame::{FrameBuffer, Rect};
    use interlag_video::stream::FRAME_PERIOD_30FPS;
    use std::sync::Arc;

    fn frame(v: u8) -> Arc<FrameBuffer> {
        let mut f = FrameBuffer::new(16, 16);
        f.fill(v);
        Arc::new(f)
    }

    /// Builds a video from a pattern string: each char is a frame; equal
    /// chars are identical frames.
    fn video_of(pattern: &str) -> VideoStream {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        for (i, c) in pattern.chars().enumerate() {
            v.push(SimTime::from_micros(i as u64 * 33_333), frame(c as u8)).unwrap();
        }
        v
    }

    fn suggest_all(pattern: &str, min_still: u32) -> Vec<u32> {
        let s = Suggester::new(SuggesterConfig { min_still_run: min_still, ..Default::default() });
        let v = video_of(pattern);
        s.suggest(&v, SimTime::ZERO, SimTime::from_secs(10))
            .into_iter()
            .map(|x| x.frame_index)
            .collect()
    }

    #[test]
    fn figure7_style_progressive_load() {
        // aaa b cc d eeee: changes at 3 (b), 4 (c), 6 (d), 7 (e).
        // b has no still run (c follows immediately? b at index 3, index 4
        // differs) → not suggested. c (index 4, still at 5) suggested; d
        // (index 6) changes then e at 7 → not; e (7) still 8..10 →
        // suggested.
        assert_eq!(suggest_all("aaabccdeeee", 1), vec![4, 7]);
    }

    #[test]
    fn every_change_before_still_is_suggested() {
        // Progressive loading: each element paints then holds.
        assert_eq!(suggest_all("aabbccdd", 1), vec![2, 4, 6]);
    }

    #[test]
    fn min_still_run_filters_short_pauses() {
        // With min_still_run = 3 only runs of ≥ 3 zeros count, plus the
        // clipped final run.
        let idx = suggest_all("abbccccdd", 3);
        // b at 1 has run 1 → no; c at 3 has run 3 → yes; d at 7 run 1 but
        // clipped at window end → yes.
        assert_eq!(idx, vec![3, 7]);
    }

    #[test]
    fn unchanged_video_suggests_nothing() {
        assert!(suggest_all("aaaaaaa", 1).is_empty());
    }

    #[test]
    fn window_bounds_are_respected() {
        let s = Suggester::default();
        let v = video_of("aaabbb");
        // Window ends before the change at frame 3.
        let sug = s.suggest(&v, SimTime::ZERO, SimTime::from_micros(2 * 33_333));
        assert!(sug.is_empty());
        // Window starting after the change sees nothing either.
        let sug = s.suggest(&v, SimTime::from_micros(4 * 33_333), SimTime::from_secs(1));
        assert!(sug.is_empty());
    }

    #[test]
    fn mask_suppresses_suggestions_from_masked_regions() {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        let base = frame(10);
        v.push(SimTime::ZERO, base.clone()).unwrap();
        // A change only inside the top bar.
        let mut f = (*base).clone();
        f.fill_rect(Rect::new(0, 0, 16, 2), 99);
        v.push(SimTime::from_micros(33_333), Arc::new(f)).unwrap();
        v.push(SimTime::from_micros(66_666), v.get(1).unwrap().buf.clone()).unwrap();

        let unmasked = Suggester::default();
        assert_eq!(unmasked.suggest(&v, SimTime::ZERO, SimTime::from_secs(1)).len(), 1);

        let masked =
            Suggester::new(SuggesterConfig { mask: Mask::status_bar(16, 2), ..Default::default() });
        assert!(masked.suggest(&v, SimTime::ZERO, SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn still_run_lengths_are_reported() {
        let s = Suggester::default();
        let v = video_of("abbbb");
        let sug = s.suggest(&v, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(sug.len(), 1);
        assert_eq!(sug[0].still_run, 3);
        assert_eq!(s.frames_in_window(&v, SimTime::ZERO, SimTime::from_secs(1)), 5);
    }
}
