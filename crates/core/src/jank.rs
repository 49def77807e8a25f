//! Jank analysis — the paper's §VI future work, implemented.
//!
//! *"We also plan to include workloads that are dominated by Jank type
//! lags where frames are dropped when the processor is too busy to keep
//! up with the load."* Interaction lags measure discrete waits; jank is
//! the complementary QoE failure: a continuous animation (game, video,
//! scrolling) that stutters because the UI thread misses frame deadlines.
//!
//! Like lag measurement, jank is measured from the captured video alone,
//! non-intrusively: within an animation window the analyser compares the
//! animation region across successive frames and counts how many distinct
//! animation frames were actually presented versus how many the animation
//! should have produced at its nominal rate.

use serde::{Deserialize, Serialize};

use interlag_evdev::time::{SimDuration, SimTime};
use interlag_video::frame::Rect;
use interlag_video::stream::VideoStream;

/// The jank measurement of one animation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JankReport {
    /// Animation frames the window should have shown at the nominal rate.
    pub expected_frames: u64,
    /// Distinct animation frames actually presented.
    pub observed_frames: u64,
    /// The longest stretch without an animation update.
    pub longest_stall: SimDuration,
    /// The window that was analysed.
    pub window: SimDuration,
}

impl JankReport {
    /// Fraction of animation frames dropped (0 = perfectly smooth).
    pub fn jank_ratio(&self) -> f64 {
        if self.expected_frames == 0 {
            return 0.0;
        }
        let dropped = self.expected_frames.saturating_sub(self.observed_frames);
        dropped as f64 / self.expected_frames as f64
    }

    /// The presented animation rate in frames per second.
    pub fn observed_fps(&self) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.observed_frames as f64 / self.window.as_secs_f64()
    }
}

/// Measures jank within `[window_start, window_end)`: counts distinct
/// contents of `animation_region` across the captured frames and compares
/// against the animation's `nominal_period` (100 ms for the simulated
/// spinner).
///
/// An animation update is counted whenever the region's pixels differ
/// from the previous captured frame; `longest_stall` is the maximum
/// distance between consecutive updates (or window edges).
///
/// # Examples
///
/// ```
/// use interlag_core::jank::measure_jank;
/// use interlag_evdev::time::{SimDuration, SimTime};
/// use interlag_video::frame::{FrameBuffer, Rect};
/// use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
/// use std::sync::Arc;
///
/// // A 10-frame video whose animation region never changes: 100 % jank.
/// let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
/// let f = Arc::new(FrameBuffer::new(16, 16));
/// for i in 0..10u64 {
///     v.push(SimTime::from_micros(i * 33_333), f.clone()).unwrap();
/// }
/// let r = measure_jank(
///     &v,
///     SimTime::ZERO,
///     SimTime::from_millis(300),
///     Rect::new(4, 4, 8, 8),
///     SimDuration::from_millis(100),
/// );
/// assert_eq!(r.observed_frames, 0);
/// assert_eq!(r.jank_ratio(), 1.0);
/// ```
pub fn measure_jank(
    video: &VideoStream,
    window_start: SimTime,
    window_end: SimTime,
    animation_region: Rect,
    nominal_period: SimDuration,
) -> JankReport {
    let window = window_end.saturating_since(window_start);
    let expected_frames =
        if nominal_period.is_zero() { 0 } else { window.as_micros() / nominal_period.as_micros() };

    let first = video.first_frame_at_or_after(window_start);
    let last = video.first_frame_at_or_after(window_end);

    let mut observed = 0u64;
    let mut longest_stall = SimDuration::ZERO;
    let mut last_update = window_start;
    // Frames inside a content run are equal, so the region can only
    // update on a run's first frame.
    let mut prev_crop: Option<interlag_video::frame::FrameBuffer> = None;
    for run in video.runs_in(first, last) {
        let crop = video.slots()[run.slot as usize].crop(animation_region);
        if prev_crop.as_ref().is_some_and(|prev| crop != *prev) {
            let time = video.times()[run.first_frame as usize];
            observed += 1;
            longest_stall = longest_stall.max(time.saturating_since(last_update));
            last_update = time;
        }
        prev_crop = Some(crop);
    }
    longest_stall = longest_stall.max(window_end.saturating_since(last_update));

    JankReport { expected_frames, observed_frames: observed, longest_stall, window }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interlag_video::frame::FrameBuffer;
    use interlag_video::stream::FRAME_PERIOD_30FPS;
    use std::sync::Arc;

    const REGION: Rect = Rect { x0: 4, y0: 4, x1: 12, y1: 12 };

    /// Builds a 30 fps video where the animation region updates every
    /// `update_every`-th frame.
    fn video_with_updates(frames: u64, update_every: u64) -> VideoStream {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        let mut counter = 0u64;
        for i in 0..frames {
            if update_every > 0 && i % update_every == 0 {
                counter += 1;
            }
            let mut f = FrameBuffer::new(16, 16);
            f.fill(40);
            f.hash_paint(REGION, counter);
            v.push(SimTime::from_micros(i * 33_333), Arc::new(f)).unwrap();
        }
        v
    }

    fn window_end(frames: u64) -> SimTime {
        SimTime::from_micros(frames * 33_333)
    }

    #[test]
    fn smooth_animation_has_no_jank() {
        // Updates every 3rd captured frame = every 100 ms = nominal rate.
        let v = video_with_updates(90, 3);
        let r =
            measure_jank(&v, SimTime::ZERO, window_end(90), REGION, SimDuration::from_millis(100));
        assert_eq!(r.expected_frames, 29);
        assert!(r.observed_frames >= 28, "observed {}", r.observed_frames);
        assert!(r.jank_ratio() < 0.05);
        assert!(r.longest_stall <= SimDuration::from_millis(140));
    }

    #[test]
    fn half_rate_animation_is_half_janky() {
        // Updates every 6th frame = every 200 ms instead of 100 ms.
        let v = video_with_updates(90, 6);
        let r =
            measure_jank(&v, SimTime::ZERO, window_end(90), REGION, SimDuration::from_millis(100));
        let ratio = r.jank_ratio();
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
        assert!((4.0..6.0).contains(&r.observed_fps()), "fps {}", r.observed_fps());
    }

    #[test]
    fn frozen_animation_reports_full_stall() {
        let v = video_with_updates(60, 0);
        let r =
            measure_jank(&v, SimTime::ZERO, window_end(60), REGION, SimDuration::from_millis(100));
        assert_eq!(r.observed_frames, 0);
        assert_eq!(r.jank_ratio(), 1.0);
        assert_eq!(r.longest_stall, window_end(60).saturating_since(SimTime::ZERO));
    }

    #[test]
    fn changes_outside_the_region_do_not_count() {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        for i in 0..30u64 {
            let mut f = FrameBuffer::new(16, 16);
            // The clock area changes; the animation region stays still.
            f.hash_paint(Rect::new(0, 0, 16, 2), i);
            v.push(SimTime::from_micros(i * 33_333), Arc::new(f)).unwrap();
        }
        let r =
            measure_jank(&v, SimTime::ZERO, window_end(30), REGION, SimDuration::from_millis(100));
        assert_eq!(r.observed_frames, 0);
    }

    #[test]
    fn empty_window_is_not_janky() {
        let v = video_with_updates(10, 1);
        let r = measure_jank(
            &v,
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            REGION,
            SimDuration::from_millis(100),
        );
        assert_eq!(r.expected_frames, 0);
        assert_eq!(r.jank_ratio(), 0.0);
    }
}
