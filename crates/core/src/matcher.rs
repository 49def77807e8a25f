//! The matcher: fully automatic markup of workload videos (§II-E).
//!
//! Given a video of *any* execution of an annotated workload and the
//! timestamps of its inputs, the matcher walks the frames from each lag
//! beginning and finds the first frame matching the annotated ending image
//! (at the annotated occurrence, under the annotated mask and tolerance).
//! The output is the lag profile — one measured lag length per
//! interaction — with zero human involvement, which is what makes the
//! 85-execution studies of §III affordable.
//!
//! A [`VideoStream`] is its own run-length encoding, so [`mark_up`] walks
//! content runs rather than frames and judges each distinct content once
//! per annotation and tolerance. The per-frame [`Matcher`] is kept as the
//! reference the batched walk is tested against.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::CancelToken;
use interlag_obs::{Counter, Hist, Recorder, DISABLED};
use interlag_video::frame::FrameBuffer;
use interlag_video::mask::{CompiledMask, MatchTolerance};
use interlag_video::stream::VideoStream;

use crate::annotation::{AnnotationDb, LagAnnotation};
use crate::profile::{LagEntry, LagProfile};

/// One matched lag ending.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchedLag {
    /// The interaction whose ending was found.
    pub interaction_id: usize,
    /// Index of the ending frame.
    pub end_frame: u32,
    /// Presentation time of the ending frame.
    pub end_time: SimTime,
    /// The measured interaction lag (ending frame time − input time).
    pub lag: SimDuration,
    /// How trustworthy the match is: `1.0` when found at the annotated
    /// tolerance, lower for every escalation step a [`MatchPolicy`] had to
    /// take to find it.
    pub confidence: f64,
}

/// Why a lag could not be matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchFailure {
    /// The interaction has no annotation in the database.
    NotAnnotated,
    /// The video ended before the annotated image appeared (the run's
    /// slack was too short, or the system never serviced the input).
    EndingNotFound,
    /// A watchdog cancellation token fired mid-walk; the verdict is
    /// unknown, not negative.
    Cancelled,
}

/// How the matcher recovers when a lag's ending cannot be found at the
/// annotated tolerance.
///
/// A corrupted or noisy capture can leave the annotated ending image a few
/// pixels away from every frame of the video. Rather than abandoning the
/// repetition outright, the policy retries the walk with progressively
/// looser tolerances; a match found on escalation step *i* carries
/// confidence `1 / (i + 2)` so downstream consumers can weigh (or reject)
/// weakly-matched lags. The escalation ladder is bounded — a screen that
/// genuinely never shows the ending still reports
/// [`MatchFailure::EndingNotFound`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchPolicy {
    /// Tolerances to try, in order, after the annotated one fails. Each
    /// step is taken component-wise: the effective tolerance never drops
    /// below the annotation's own.
    pub escalation: Vec<MatchTolerance>,
}

impl MatchPolicy {
    /// No recovery: the annotated tolerance decides, exactly as the paper's
    /// pipeline behaves on a clean HDMI capture.
    pub fn strict() -> Self {
        MatchPolicy { escalation: Vec::new() }
    }

    /// The recovery ladder used by fault-injected studies: three steps that
    /// widen only the *pixel budget*, sized to absorb the bit-flip
    /// corruption the capture-fault model injects (a handful of pixels with
    /// arbitrary value error). The value tolerance stays at the
    /// annotation's own — widening it would let genuinely different UI
    /// states whose fills differ by a few grey levels false-match, which is
    /// worse than an honest failure.
    pub fn paper_recovery() -> Self {
        MatchPolicy {
            escalation: vec![
                MatchTolerance { value_tolerance: 0, pixel_budget: 4 },
                MatchTolerance { value_tolerance: 0, pixel_budget: 16 },
                MatchTolerance { value_tolerance: 0, pixel_budget: 48 },
            ],
        }
    }
}

impl Default for MatchPolicy {
    fn default() -> Self {
        MatchPolicy::strict()
    }
}

/// How many frames the walk advances between watchdog polls. A poll is
/// one relaxed atomic load (plus a clock read until the deadline latches),
/// so the stride mainly bounds cancellation latency: at most this many
/// frame comparisons happen after the deadline passes.
pub const MATCH_CANCEL_STRIDE: u64 = 256;

/// The matcher algorithm.
///
/// # Examples
///
/// See [`mark_up`] and the crate-level documentation; unit tests below
/// exercise the occurrence logic directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Matcher;

impl Matcher {
    /// Creates a matcher.
    pub fn new() -> Self {
        Matcher
    }

    /// Finds the ending of one lag: the first frame at/after `input_time`
    /// whose contents match the annotation, honouring the annotated
    /// occurrence count (a run of consecutive matching frames is one
    /// occurrence).
    ///
    /// # Errors
    ///
    /// [`MatchFailure::EndingNotFound`] if the video ends first.
    pub fn match_lag(
        &self,
        video: &VideoStream,
        input_time: SimTime,
        annotation: &LagAnnotation,
    ) -> Result<MatchedLag, MatchFailure> {
        self.match_at(
            video,
            input_time,
            annotation,
            annotation.tolerance,
            1.0,
            &DISABLED,
            &CancelToken::none(),
        )
    }

    /// Like [`Matcher::match_lag`], but when the annotated tolerance finds
    /// nothing the walk is retried along `policy`'s escalation ladder; the
    /// returned confidence records how far the ladder had to go.
    ///
    /// # Errors
    ///
    /// [`MatchFailure::EndingNotFound`] if even the loosest escalation step
    /// fails.
    pub fn match_lag_with_policy(
        &self,
        video: &VideoStream,
        input_time: SimTime,
        annotation: &LagAnnotation,
        policy: &MatchPolicy,
    ) -> Result<MatchedLag, MatchFailure> {
        self.match_lag_with_policy_observed(video, input_time, annotation, policy, &DISABLED)
    }

    /// [`Matcher::match_lag_with_policy`] with telemetry: escalation-ladder
    /// steps taken are counted into `rec`, and a successful match records
    /// the ladder depth it was found at (0 = the annotated tolerance).
    ///
    /// # Errors
    ///
    /// As for [`Matcher::match_lag_with_policy`].
    pub fn match_lag_with_policy_observed(
        &self,
        video: &VideoStream,
        input_time: SimTime,
        annotation: &LagAnnotation,
        policy: &MatchPolicy,
        rec: &Recorder,
    ) -> Result<MatchedLag, MatchFailure> {
        self.match_lag_cancellable(video, input_time, annotation, policy, rec, &CancelToken::none())
    }

    /// [`Matcher::match_lag_with_policy_observed`] under a watchdog: the
    /// walk and the escalation ladder both poll `cancel` and abort with
    /// [`MatchFailure::Cancelled`] once it fires.
    ///
    /// # Errors
    ///
    /// As for [`Matcher::match_lag_with_policy`], plus
    /// [`MatchFailure::Cancelled`].
    pub fn match_lag_cancellable(
        &self,
        video: &VideoStream,
        input_time: SimTime,
        annotation: &LagAnnotation,
        policy: &MatchPolicy,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<MatchedLag, MatchFailure> {
        escalate(annotation, policy, rec, cancel, |tolerance, confidence| {
            self.match_at(video, input_time, annotation, tolerance, confidence, rec, cancel)
        })
    }

    /// The frame walk at one explicit tolerance. Walk length and
    /// verdict-cache traffic are accumulated locally and flushed to `rec`
    /// once per walk, so the per-frame path stays allocation- and
    /// atomics-free; the cancel token is polled every
    /// [`MATCH_CANCEL_STRIDE`] frames for the same reason.
    #[allow(clippy::too_many_arguments)]
    fn match_at(
        &self,
        video: &VideoStream,
        input_time: SimTime,
        annotation: &LagAnnotation,
        tolerance: MatchTolerance,
        confidence: f64,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<MatchedLag, MatchFailure> {
        let first = video.first_frame_at_or_after(input_time);
        let mut remaining = annotation.occurrence.max(1);
        let mut in_match = false;
        // Compile the mask's rectangle list once for the whole walk; every
        // frame comparison then runs over precomputed included spans.
        let compiled = annotation.mask.compile(annotation.image.width(), annotation.image.height());
        // The capture pipeline reuses one buffer for every frame of a
        // still period and a blinking UI oscillates between a handful of
        // buffers, so most frames are pointer-identical to one already
        // judged: memoise the verdict per unique buffer, with the
        // immediately-previous pointer checked first (the still-period
        // case) before falling back to the map.
        let mut last: Option<(*const FrameBuffer, bool)> = None;
        let mut verdicts: HashMap<*const FrameBuffer, bool> = HashMap::new();
        let (mut walked, mut hit_last, mut hit_map, mut missed) = (0u64, 0u64, 0u64, 0u64);
        let result = 'walk: {
            for frame in video.iter_from(first) {
                // The annotation image has its mask burned in; apply the same
                // masking to the candidate by comparing under the mask (the
                // mask zeroes the same pixels on both sides, and masked
                // comparison ignores them anyway).
                if walked % MATCH_CANCEL_STRIDE == 0 && cancel.is_cancelled() {
                    break 'walk Err(MatchFailure::Cancelled);
                }
                walked += 1;
                let key = Arc::as_ptr(frame.buf);
                let matches = match last {
                    Some((prev, verdict)) if prev == key => {
                        hit_last += 1;
                        verdict
                    }
                    _ => match verdicts.get(&key) {
                        Some(&verdict) => {
                            hit_map += 1;
                            verdict
                        }
                        None => {
                            missed += 1;
                            let verdict =
                                tolerance.matches_compiled(&compiled, &annotation.image, frame.buf);
                            verdicts.insert(key, verdict);
                            verdict
                        }
                    },
                };
                last = Some((key, matches));
                if matches && !in_match {
                    remaining -= 1;
                    if remaining == 0 {
                        break 'walk Ok(MatchedLag {
                            interaction_id: annotation.interaction_id,
                            end_frame: frame.index,
                            end_time: frame.time,
                            lag: frame.time.saturating_since(input_time),
                            confidence,
                        });
                    }
                }
                in_match = matches;
            }
            Err(MatchFailure::EndingNotFound)
        };
        rec.observe(Hist::MatchWalkFrames, walked);
        rec.count(Counter::VerdictCacheHitLast, hit_last);
        rec.count(Counter::VerdictCacheHitMap, hit_map);
        rec.count(Counter::VerdictCacheMiss, missed);
        result
    }
}

/// The tolerance-escalation ladder shared by the per-lag and batched
/// matchers: `walk` at the annotated tolerance with full confidence, then,
/// if the ending was not found, at each step of `policy` (taken
/// component-wise, never below the annotation's own tolerance) with
/// confidence `1 / (step + 2)`. Escalation steps taken are counted into
/// `rec`, and a match records the ladder depth it was found at.
fn escalate(
    annotation: &LagAnnotation,
    policy: &MatchPolicy,
    rec: &Recorder,
    cancel: &CancelToken,
    mut walk: impl FnMut(MatchTolerance, f64) -> Result<MatchedLag, MatchFailure>,
) -> Result<MatchedLag, MatchFailure> {
    match walk(annotation.tolerance, 1.0) {
        Err(MatchFailure::EndingNotFound) => {
            for (i, step) in policy.escalation.iter().enumerate() {
                if cancel.is_cancelled() {
                    return Err(MatchFailure::Cancelled);
                }
                let tolerance = MatchTolerance {
                    value_tolerance: step.value_tolerance.max(annotation.tolerance.value_tolerance),
                    pixel_budget: step.pixel_budget.max(annotation.tolerance.pixel_budget),
                };
                rec.count(Counter::MatchEscalations, 1);
                match walk(tolerance, 1.0 / (i + 2) as f64) {
                    Ok(m) => {
                        rec.observe(Hist::EscalationDepth, i as u64 + 1);
                        return Ok(m);
                    }
                    Err(MatchFailure::Cancelled) => return Err(MatchFailure::Cancelled),
                    Err(_) => {}
                }
            }
            Err(MatchFailure::EndingNotFound)
        }
        verdict => {
            if verdict.is_ok() {
                rec.observe(Hist::EscalationDepth, 0);
            }
            verdict
        }
    }
}

/// Marks up a whole video: produces the lag profile of one execution.
///
/// `lag_beginnings` are `(interaction id, input time)` pairs, e.g. from
/// [`RunArtifacts::lag_beginnings`](interlag_device::device::RunArtifacts::lag_beginnings)
/// or — on real traces — from the input classifier. Failures are reported
/// alongside the profile rather than silently dropped.
pub fn mark_up(
    video: &VideoStream,
    lag_beginnings: &[(usize, SimTime)],
    db: &AnnotationDb,
    config_name: &str,
) -> (LagProfile, Vec<(usize, MatchFailure)>) {
    mark_up_with_policy(video, lag_beginnings, db, config_name, &MatchPolicy::strict())
}

/// [`mark_up`] with tolerance-escalation recovery: lags the annotated
/// tolerance cannot resolve are retried along `policy`'s ladder, and each
/// profile entry records the confidence of its match. With
/// [`MatchPolicy::strict`] this is exactly [`mark_up`].
pub fn mark_up_with_policy(
    video: &VideoStream,
    lag_beginnings: &[(usize, SimTime)],
    db: &AnnotationDb,
    config_name: &str,
    policy: &MatchPolicy,
) -> (LagProfile, Vec<(usize, MatchFailure)>) {
    mark_up_with_policy_observed(video, lag_beginnings, db, config_name, policy, &DISABLED)
}

/// [`mark_up_with_policy`] with telemetry: resolved and failed lags, walk
/// lengths, verdict-cache traffic and escalation depths are recorded into
/// `rec`. With a disabled recorder this is exactly
/// [`mark_up_with_policy`].
pub fn mark_up_with_policy_observed(
    video: &VideoStream,
    lag_beginnings: &[(usize, SimTime)],
    db: &AnnotationDb,
    config_name: &str,
    policy: &MatchPolicy,
    rec: &Recorder,
) -> (LagProfile, Vec<(usize, MatchFailure)>) {
    mark_up_cancellable(video, lag_beginnings, db, config_name, policy, rec, &CancelToken::none())
}

/// [`mark_up_with_policy_observed`] under a watchdog: once `cancel` fires,
/// the current walk aborts and every remaining lag is reported as
/// [`MatchFailure::Cancelled`] without being walked — the caller is about
/// to discard the repetition, so finishing the markup would only delay the
/// cancellation it asked for.
///
/// All lags of the call share one [`BatchMatcher`]: every lag is resolved
/// against the stream's content runs, so frame contents are compared at
/// most once per (interaction, tolerance) no matter how many lags or
/// escalation retries walk past them. Results are bit-identical to matching each lag separately with
/// [`Matcher::match_lag_cancellable`].
pub fn mark_up_cancellable(
    video: &VideoStream,
    lag_beginnings: &[(usize, SimTime)],
    db: &AnnotationDb,
    config_name: &str,
    policy: &MatchPolicy,
    rec: &Recorder,
    cancel: &CancelToken,
) -> (LagProfile, Vec<(usize, MatchFailure)>) {
    let mut batch = BatchMatcher::new(video);
    let mut profile = LagProfile::new(config_name);
    let mut failures = Vec::new();
    for &(id, input_time) in lag_beginnings {
        if cancel.is_cancelled() {
            failures.push((id, MatchFailure::Cancelled));
            continue;
        }
        match db.get(id) {
            None => failures.push((id, MatchFailure::NotAnnotated)),
            Some(annotation) => {
                match batch.match_lag(input_time, annotation, policy, rec, cancel) {
                    Ok(m) => profile.push(LagEntry {
                        interaction_id: id,
                        input_time,
                        lag: m.lag,
                        threshold: annotation.threshold,
                        confidence: m.confidence,
                    }),
                    Err(f) => failures.push((id, f)),
                }
            }
        }
    }
    rec.count(Counter::MatchLags, profile.len() as u64);
    rec.count(Counter::MatchFailures, failures.len() as u64);
    (profile, failures)
}

/// The batched matching engine behind [`mark_up_cancellable`].
///
/// The per-lag [`Matcher`] walks the video frame by frame for every lag,
/// re-judging content it has already seen on earlier lags. The batch
/// engine instead walks the stream's content *runs*
/// ([`VideoStream::runs`]): O(distinct contents) comparisons and O(runs)
/// verdict lookups per lag, instead of O(frames) pointer chases. Verdicts
/// are memoised per content slot in dense vectors keyed by (interaction,
/// effective tolerance), so escalation retries and repeated interactions
/// reuse every verdict already computed.
///
/// Matching semantics are exactly the per-lag matcher's: a run of
/// consecutive matching frames is one occurrence, the walk starts at the
/// first frame at/after the input time, and a match lands on the first
/// frame of the occurrence (clipped to the walk's start when it begins
/// mid-run).
struct BatchMatcher<'a> {
    video: &'a VideoStream,
    /// Compiled masks, one per annotated interaction.
    compiled: HashMap<usize, CompiledMask>,
    /// Slot verdicts per (interaction id, value tolerance, pixel budget):
    /// dense over the stream's content slots so a lookup is an index, not
    /// a hash.
    verdicts: HashMap<(usize, u8, u64), Vec<Option<bool>>>,
}

impl<'a> BatchMatcher<'a> {
    /// Readies empty caches over `video`.
    fn new(video: &'a VideoStream) -> Self {
        BatchMatcher { video, compiled: HashMap::new(), verdicts: HashMap::new() }
    }

    /// [`Matcher::match_lag_cancellable`], resolved against the content
    /// runs: the same escalation ladder, confidence and telemetry.
    fn match_lag(
        &mut self,
        input_time: SimTime,
        annotation: &LagAnnotation,
        policy: &MatchPolicy,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<MatchedLag, MatchFailure> {
        escalate(annotation, policy, rec, cancel, |tolerance, confidence| {
            self.walk(input_time, annotation, tolerance, confidence, rec, cancel)
        })
    }

    /// The run walk at one explicit tolerance — the batched analogue of
    /// [`Matcher::match_at`]. Telemetry mirrors the per-frame walk:
    /// `MatchWalkFrames` counts the frames the per-frame walk would have
    /// visited, misses are verdicts actually computed, and frames beyond
    /// the first of a run count as last-pointer hits (they are the same
    /// still period the pointer cache absorbs).
    fn walk(
        &mut self,
        input_time: SimTime,
        annotation: &LagAnnotation,
        tolerance: MatchTolerance,
        confidence: f64,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<MatchedLag, MatchFailure> {
        let video = self.video;
        let first = video.first_frame_at_or_after(input_time);
        let mut remaining = annotation.occurrence.max(1);
        let mut in_match = false;
        let compiled = self.compiled.entry(annotation.interaction_id).or_insert_with(|| {
            annotation.mask.compile(annotation.image.width(), annotation.image.height())
        });
        let cache = self
            .verdicts
            .entry((annotation.interaction_id, tolerance.value_tolerance, tolerance.pixel_budget))
            .or_insert_with(|| vec![None; video.slots().len()]);
        let (mut walked, mut hit_last, mut hit_map, mut missed) = (0u64, 0u64, 0u64, 0u64);
        let result = 'walk: {
            for run in video.runs_in(first, video.len() as u32) {
                // One poll per run bounds cancellation latency at one
                // frame comparison, tighter than the per-frame stride.
                if cancel.is_cancelled() {
                    break 'walk Err(MatchFailure::Cancelled);
                }
                let matches = match cache[run.slot as usize] {
                    Some(verdict) => {
                        hit_map += 1;
                        verdict
                    }
                    None => {
                        missed += 1;
                        let slot = &video.slots()[run.slot as usize];
                        let verdict = tolerance.matches_pixels(
                            compiled,
                            &annotation.image,
                            slot.pixels(),
                            slot.digest(),
                        );
                        cache[run.slot as usize] = Some(verdict);
                        verdict
                    }
                };
                if matches && !in_match {
                    remaining -= 1;
                    if remaining == 0 {
                        walked += 1;
                        let end_time = video.times()[run.first_frame as usize];
                        break 'walk Ok(MatchedLag {
                            interaction_id: annotation.interaction_id,
                            end_frame: run.first_frame,
                            end_time,
                            lag: end_time.saturating_since(input_time),
                            confidence,
                        });
                    }
                }
                walked += run.len as u64;
                hit_last += run.len as u64 - 1;
                in_match = matches;
            }
            Err(MatchFailure::EndingNotFound)
        };
        rec.observe(Hist::MatchWalkFrames, walked);
        rec.count(Counter::VerdictCacheHitLast, hit_last);
        rec.count(Counter::VerdictCacheHitMap, hit_map);
        rec.count(Counter::VerdictCacheMiss, missed);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interlag_video::frame::FrameBuffer;
    use interlag_video::mask::{Mask, MatchTolerance};
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

    fn annotation_of(c: char, occurrence: u32) -> LagAnnotation {
        let mut img = FrameBuffer::new(8, 8);
        img.fill(c as u8);
        LagAnnotation {
            interaction_id: 0,
            image: img,
            mask: Mask::new(),
            tolerance: MatchTolerance::EXACT,
            occurrence,
            threshold: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn finds_first_occurrence() {
        let v = video_of("aaabbb");
        let m = Matcher::new();
        let hit = m.match_lag(&v, SimTime::ZERO, &annotation_of('b', 1)).unwrap();
        assert_eq!(hit.end_frame, 3);
        assert_eq!(hit.lag, SimDuration::from_micros(3 * 33_333));
    }

    #[test]
    fn second_occurrence_skips_the_lookalike_beginning() {
        // The send-MMS case: screen is `a`, progress `p` appears, then
        // back to `a`. Ending = second occurrence of `a`.
        let v = video_of("aappppaa");
        let m = Matcher::new();
        let hit = m.match_lag(&v, SimTime::ZERO, &annotation_of('a', 2)).unwrap();
        assert_eq!(hit.end_frame, 6);
        // With occurrence 1 the matcher would (wrongly) match at once.
        let wrong = m.match_lag(&v, SimTime::ZERO, &annotation_of('a', 1)).unwrap();
        assert_eq!(wrong.end_frame, 0);
    }

    #[test]
    fn walk_starts_at_the_input_frame() {
        // `b` appears before the input; matching from the input's frame
        // must find the *next* appearance.
        let v = video_of("bbaaabb");
        let m = Matcher::new();
        let start = SimTime::from_micros(2 * 33_333);
        let hit = m.match_lag(&v, start, &annotation_of('b', 1)).unwrap();
        assert_eq!(hit.end_frame, 5);
        assert_eq!(hit.lag, SimDuration::from_micros(3 * 33_333));
    }

    #[test]
    fn missing_ending_is_an_error() {
        let v = video_of("aaaa");
        let m = Matcher::new();
        assert_eq!(
            m.match_lag(&v, SimTime::ZERO, &annotation_of('z', 1)),
            Err(MatchFailure::EndingNotFound)
        );
    }

    #[test]
    fn occurrence_beyond_the_video_horizon_is_an_error() {
        // The ending image appears once, but the annotation asks for the
        // second occurrence and the video ends first.
        let v = video_of("aabba");
        let m = Matcher::new();
        assert_eq!(
            m.match_lag(&v, SimTime::ZERO, &annotation_of('b', 2)),
            Err(MatchFailure::EndingNotFound)
        );
        // Sanity: the first occurrence is reachable.
        assert!(m.match_lag(&v, SimTime::ZERO, &annotation_of('b', 1)).is_ok());
    }

    #[test]
    fn input_after_the_last_frame_exhausts_the_horizon() {
        let v = video_of("abab");
        let m = Matcher::new();
        // Walk starts past the end of the video: nothing left to match.
        let late = SimTime::from_secs(10);
        assert_eq!(
            m.match_lag(&v, late, &annotation_of('a', 1)),
            Err(MatchFailure::EndingNotFound)
        );
    }

    #[test]
    fn clean_matches_keep_full_confidence_under_any_policy() {
        let v = video_of("aaabbb");
        let m = Matcher::new();
        let hit = m
            .match_lag_with_policy(
                &v,
                SimTime::ZERO,
                &annotation_of('b', 1),
                &MatchPolicy::paper_recovery(),
            )
            .unwrap();
        assert_eq!(hit.end_frame, 3);
        assert_eq!(hit.confidence, 1.0);
    }

    #[test]
    fn escalation_recovers_a_corrupted_ending_with_reduced_confidence() {
        // The ending frame differs from the annotation by a few flipped
        // pixels — the capture-corruption fault model's signature.
        let mut v = video_of("aaa");
        let mut corrupted = FrameBuffer::new(8, 8);
        corrupted.fill(b'b');
        corrupted.set(1, 1, b'b' ^ 0x05);
        corrupted.set(5, 5, b'b' ^ 0x11);
        v.push(SimTime::from_micros(3 * 33_333), Arc::new(corrupted)).unwrap();

        let m = Matcher::new();
        let ann = annotation_of('b', 1);
        assert_eq!(m.match_lag(&v, SimTime::ZERO, &ann), Err(MatchFailure::EndingNotFound));
        let hit = m
            .match_lag_with_policy(&v, SimTime::ZERO, &ann, &MatchPolicy::paper_recovery())
            .unwrap();
        assert_eq!(hit.end_frame, 3);
        assert!(hit.confidence < 1.0, "escalated match must lose confidence");
        // Strict policy has no ladder to climb.
        assert_eq!(
            m.match_lag_with_policy(&v, SimTime::ZERO, &ann, &MatchPolicy::strict()),
            Err(MatchFailure::EndingNotFound)
        );
    }

    #[test]
    fn escalation_is_bounded_and_still_fails_honestly() {
        // No frame is anywhere near the ending image: every ladder step
        // must fail and the failure must survive.
        let v = video_of("aaaa");
        let m = Matcher::new();
        assert_eq!(
            m.match_lag_with_policy(
                &v,
                SimTime::ZERO,
                &annotation_of('z', 1),
                &MatchPolicy::paper_recovery()
            ),
            Err(MatchFailure::EndingNotFound)
        );
    }

    #[test]
    fn mark_up_with_policy_records_per_lag_confidence() {
        let mut v = video_of("aab");
        let mut corrupted = FrameBuffer::new(8, 8);
        corrupted.fill(b'c');
        corrupted.set(2, 2, b'c' ^ 0x03);
        v.push(SimTime::from_micros(3 * 33_333), Arc::new(corrupted)).unwrap();

        let mut db = AnnotationDb::new("t");
        let mut ann_b = annotation_of('b', 1);
        ann_b.interaction_id = 0;
        db.insert(ann_b);
        let mut ann_c = annotation_of('c', 1);
        ann_c.interaction_id = 1;
        db.insert(ann_c);

        let beginnings = vec![(0usize, SimTime::ZERO), (1usize, SimTime::ZERO)];
        let (profile, failures) =
            mark_up_with_policy(&v, &beginnings, &db, "test", &MatchPolicy::paper_recovery());
        assert!(failures.is_empty(), "failures: {failures:?}");
        let confidence_of = |id: usize| {
            profile.entries().iter().find(|e| e.interaction_id == id).unwrap().confidence
        };
        assert_eq!(confidence_of(0), 1.0, "clean match keeps full confidence");
        assert!(confidence_of(1) < 1.0, "recovered match is flagged");
    }

    #[test]
    fn mark_up_collects_profile_and_failures() {
        let v = video_of("aabbccc");
        let mut db = AnnotationDb::new("t");
        let mut ann_b = annotation_of('b', 1);
        ann_b.interaction_id = 0;
        db.insert(ann_b);
        let mut ann_z = annotation_of('z', 1);
        ann_z.interaction_id = 1;
        db.insert(ann_z);

        let beginnings = vec![
            (0usize, SimTime::ZERO),
            (1usize, SimTime::from_micros(33_333)),
            (2usize, SimTime::from_micros(66_666)), // not annotated
        ];
        let (profile, failures) = mark_up(&v, &beginnings, &db, "test");
        assert_eq!(profile.len(), 1);
        assert_eq!(failures.len(), 2);
        assert!(failures.contains(&(1, MatchFailure::EndingNotFound)));
        assert!(failures.contains(&(2, MatchFailure::NotAnnotated)));
    }

    #[test]
    fn fired_token_cancels_the_walk_and_the_remaining_lags() {
        let v = video_of("aaabbb");
        let token = CancelToken::manual();
        token.cancel();
        let m = Matcher::new();
        assert_eq!(
            m.match_lag_cancellable(
                &v,
                SimTime::ZERO,
                &annotation_of('b', 1),
                &MatchPolicy::paper_recovery(),
                &DISABLED,
                &token,
            ),
            Err(MatchFailure::Cancelled)
        );
        let mut db = AnnotationDb::new("t");
        db.insert(annotation_of('b', 1));
        let beginnings = vec![(0usize, SimTime::ZERO), (1usize, SimTime::ZERO)];
        let (profile, failures) = mark_up_cancellable(
            &v,
            &beginnings,
            &db,
            "t",
            &MatchPolicy::strict(),
            &DISABLED,
            &token,
        );
        assert!(profile.is_empty());
        assert_eq!(failures, vec![(0, MatchFailure::Cancelled), (1, MatchFailure::Cancelled)]);
        // An unfired token changes nothing.
        let live = CancelToken::manual();
        let hit = m
            .match_lag_cancellable(
                &v,
                SimTime::ZERO,
                &annotation_of('b', 1),
                &MatchPolicy::strict(),
                &DISABLED,
                &live,
            )
            .unwrap();
        assert_eq!(hit.end_frame, 3);
    }

    #[test]
    fn batched_mark_up_is_bit_identical_to_per_lag_matching() {
        // A corpus that exercises every verdict path: occurrence counting,
        // mid-stream starts, escalation recovery, honest failures and
        // missing annotations — all against content that repeats so the
        // batch engine's slot caches are actually shared across lags.
        let mut v = video_of("aabbaapppa");
        let mut corrupted = FrameBuffer::new(8, 8);
        corrupted.fill(b'q');
        corrupted.set(3, 3, b'q' ^ 0x0f);
        v.push(SimTime::from_micros(10 * 33_333), Arc::new(corrupted)).unwrap();

        let mut db = AnnotationDb::new("t");
        for (id, (c, occurrence)) in
            [(b'b', 1), (b'a', 2), (b'a', 3), (b'q', 1), (b'z', 1)].iter().enumerate()
        {
            let mut ann = annotation_of(*c as char, *occurrence);
            ann.interaction_id = id;
            db.insert(ann);
        }
        let beginnings: Vec<(usize, SimTime)> = vec![
            (0, SimTime::ZERO),
            (1, SimTime::ZERO),
            (2, SimTime::from_micros(33_333)),
            (3, SimTime::ZERO),                    // needs escalation
            (4, SimTime::ZERO),                    // never matches
            (5, SimTime::ZERO),                    // not annotated
            (0, SimTime::from_micros(5 * 33_333)), // repeated id, no 'b' left
        ];
        let policy = MatchPolicy::paper_recovery();
        let (profile, failures) = mark_up_with_policy(&v, &beginnings, &db, "t", &policy);

        // Reference: each lag matched on its own by the per-frame walker.
        let matcher = Matcher::new();
        let mut ref_profile = LagProfile::new("t");
        let mut ref_failures = Vec::new();
        for &(id, input_time) in &beginnings {
            match db.get(id) {
                None => ref_failures.push((id, MatchFailure::NotAnnotated)),
                Some(ann) => match matcher.match_lag_with_policy(&v, input_time, ann, &policy) {
                    Ok(m) => ref_profile.push(LagEntry {
                        interaction_id: id,
                        input_time,
                        lag: m.lag,
                        threshold: ann.threshold,
                        confidence: m.confidence,
                    }),
                    Err(f) => ref_failures.push((id, f)),
                },
            }
        }
        assert_eq!(profile.entries(), ref_profile.entries());
        assert_eq!(failures, ref_failures);
        assert_eq!(profile.len(), 4, "lags 0..=3 resolve; the repeat finds no 'b' left");
        assert_eq!(failures.len(), 3);
    }

    #[test]
    fn masked_matching_tolerates_clock_changes() {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        let mut f0 = FrameBuffer::new(8, 8);
        f0.fill(7);
        v.push(SimTime::ZERO, Arc::new(f0.clone())).unwrap();
        // Target screen, but with a different "clock" row than annotated.
        let mut f1 = FrameBuffer::new(8, 8);
        f1.fill(42);
        f1.fill_rect(interlag_video::frame::Rect::new(0, 0, 8, 1), 200);
        v.push(SimTime::from_micros(33_333), Arc::new(f1)).unwrap();

        let mask = Mask::status_bar(8, 1);
        let mut img = FrameBuffer::new(8, 8);
        img.fill(42);
        mask.apply(&mut img);
        let ann = LagAnnotation {
            interaction_id: 0,
            image: img,
            mask,
            tolerance: MatchTolerance::EXACT,
            occurrence: 1,
            threshold: SimDuration::from_secs(1),
        };
        let hit = Matcher::new().match_lag(&v, SimTime::ZERO, &ann).unwrap();
        assert_eq!(hit.end_frame, 1);
    }
}
