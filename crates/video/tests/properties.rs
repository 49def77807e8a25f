//! Property-based tests of the imaging layer: masked comparison bounds,
//! the run-length stream against a naive frame list, and capture-path
//! guarantees.

use std::sync::Arc;

use proptest::prelude::*;

use interlag_evdev::time::{SimDuration, SimTime};
use interlag_video::capture::{capture_due, CameraCapture, CaptureLink, HdmiCapture};
use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::{VideoError, VideoStream, FRAME_PERIOD_30FPS};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u32..24, 0u32..24, 1u32..9, 1u32..9).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_frame() -> impl Strategy<Value = FrameBuffer> {
    proptest::num::u64::ANY.prop_map(|seed| {
        let mut f = FrameBuffer::new(32, 32);
        f.hash_paint(f.bounds(), seed);
        f
    })
}

proptest! {
    /// Masking can only hide differences, never create them.
    #[test]
    fn masked_diff_is_bounded_by_unmasked(
        a in arb_frame(),
        b in arb_frame(),
        rects in prop::collection::vec(arb_rect(), 0..5),
        tol in 0u8..16,
    ) {
        let mask: Mask = rects.into_iter().collect();
        let masked = mask.count_diff(&a, &b, tol);
        let unmasked = a.count_diff(&b, tol);
        prop_assert!(masked <= unmasked);
        // A higher tolerance can only reduce the count.
        prop_assert!(mask.count_diff(&a, &b, tol.saturating_add(8)) <= masked);
    }

    /// Visible area plus hidden area equals the frame area.
    #[test]
    fn mask_partitions_the_frame(rects in prop::collection::vec(arb_rect(), 0..5)) {
        let mask: Mask = rects.into_iter().collect();
        let visible = mask.visible_area(32, 32);
        let mut hidden = 0u64;
        for y in 0..32 {
            for x in 0..32 {
                if mask.is_excluded(x, y) {
                    hidden += 1;
                }
            }
        }
        prop_assert_eq!(visible + hidden, 32 * 32);
    }

    /// Changing pixels only inside the mask keeps frames equal under it;
    /// any change outside trips exact matching.
    #[test]
    fn masked_changes_are_invisible(base in arb_frame(), rect in arb_rect(), v in 0u8..=255) {
        let mask = Mask::new().with_excluded(rect);
        let mut inside = base.clone();
        inside.fill_rect(rect, v);
        prop_assert!(MatchTolerance::EXACT.matches(&mask, &base, &inside));
    }

    /// The run-length stream behaves exactly like a plain list of timed
    /// frames, whatever mix of pointer repeats, equal content in fresh
    /// allocations, recurring content and irregular timestamps it is fed;
    /// its runs are maximal and it keeps one slot per distinct content.
    #[test]
    fn stream_matches_a_naive_frame_list(
        ops in prop::collection::vec((0u64..3, 0u8..3, 0u8..4), 0..40),
    ) {
        let content = |c: u8| {
            let mut f = FrameBuffer::new(8, 8);
            f.hash_paint(f.bounds(), c as u64);
            Arc::new(f)
        };
        let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
        let mut naive: Vec<(SimTime, Arc<FrameBuffer>)> = Vec::new();
        let mut t = SimTime::ZERO;
        for &(gap, kind, c) in &ops {
            // Gaps of 0, 1 µs or several frame periods; 0 re-stamps the
            // previous instant, which the stream must refuse untouched.
            t += SimDuration::from_micros([0, 1, 70_001][gap as usize]);
            let buf = match kind {
                // The previous frame's pointer again (a still period).
                0 => naive.last().map_or_else(|| content(c), |(_, b)| b.clone()),
                // An earlier pointer of this content (A B A).
                1 => naive
                    .iter()
                    .find(|(_, b)| b.as_ref() == content(c).as_ref())
                    .map_or_else(|| content(c), |(_, b)| b.clone()),
                // Equal content in a fresh allocation.
                _ => content(c),
            };
            match naive.last() {
                Some(&(prev, _)) if t <= prev => {
                    let before = (video.len(), video.runs().len(), video.slots().len());
                    prop_assert_eq!(
                        video.push(t, buf),
                        Err(VideoError::NonMonotonicTimestamp { prev, time: t })
                    );
                    prop_assert_eq!(
                        (video.len(), video.runs().len(), video.slots().len()),
                        before
                    );
                }
                _ => {
                    video.push(t, buf.clone()).unwrap();
                    naive.push((t, buf));
                }
            }
        }

        prop_assert_eq!(video.len(), naive.len());
        prop_assert_eq!(video.iter().len(), naive.len());
        for (i, (f, (time, buf))) in video.iter().zip(&naive).enumerate() {
            let got = video.get(i as u32).unwrap();
            prop_assert_eq!((got.index, got.time), (i as u32, *time));
            prop_assert_eq!((f.index, f.time), (i as u32, *time));
            prop_assert!(got.buf.as_ref() == buf.as_ref() && f.buf.as_ref() == buf.as_ref());
        }
        prop_assert!(video.get(naive.len() as u32).is_none());

        // Lookups by time, probed on, just before and just after every
        // presentation.
        let mut probes = vec![SimTime::ZERO, t + SimDuration::from_secs(1)];
        for (time, _) in &naive {
            probes.push(*time);
            probes.push(*time + SimDuration::from_micros(1));
            probes.push(SimTime::from_micros(time.as_micros().saturating_sub(1)));
        }
        for probe in probes {
            let shown = naive.iter().rposition(|(time, _)| *time <= probe);
            prop_assert_eq!(video.frame_at(probe).map(|f| f.index as usize), shown);
            let next = naive.iter().filter(|(time, _)| *time < probe).count();
            prop_assert_eq!(video.first_frame_at_or_after(probe) as usize, next);
        }

        // Runs tile the frames, each run holds one content, neighbouring
        // runs differ (maximality), and slots are pairwise distinct.
        let mut next = 0u32;
        for (r, run) in video.runs().iter().enumerate() {
            prop_assert_eq!(run.first_frame, next);
            prop_assert!(run.len > 0);
            next = run.end();
            let slot = video.slots()[run.slot as usize].as_ref();
            for (_, buf) in &naive[run.first_frame as usize..next as usize] {
                prop_assert!(buf.as_ref() == slot);
            }
            if r > 0 {
                prop_assert_ne!(video.runs()[r - 1].slot, run.slot);
            }
        }
        prop_assert_eq!(next as usize, naive.len());
        let slots = video.slots();
        for (i, a) in slots.iter().enumerate() {
            prop_assert!(video.runs().iter().any(|r| r.slot as usize == i));
            for b in &slots[i + 1..] {
                prop_assert!(a.as_ref() != b.as_ref());
            }
        }
    }

    /// The recorder produces frames on the exact capture grid regardless
    /// of the polling cadence.
    #[test]
    fn recorder_frames_are_on_the_grid(step_us in 200u64..5_000, span_ms in 100u64..2_000) {
        let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
        let mut link = HdmiCapture::new();
        let screen = Arc::new(FrameBuffer::new(8, 8));
        let mut t = SimTime::ZERO;
        let end = SimTime::from_millis(span_ms);
        while t <= end {
            capture_due(&mut video, Some(&mut link), &screen, t).unwrap();
            t += SimDuration::from_micros(step_us);
        }
        // Every frame due up to the last poll instant is present, and none
        // later (the final boundary may fall between the last poll and
        // `end`).
        let last_poll = t.as_micros() - step_us;
        prop_assert_eq!(video.len() as u64, last_poll / 33_333 + 1);
        for f in video.iter() {
            prop_assert_eq!(f.time.as_micros(), u64::from(f.index) * 33_333);
        }
        // Identical stills collapse into one run over one slot.
        prop_assert_eq!((video.runs().len(), video.slots().len()), (1, 1));
    }

    /// Camera capture noise stays within its configured bound, so the
    /// CAMERA tolerance always accepts camera shots of the same screen.
    #[test]
    fn camera_noise_is_bounded(seed in proptest::num::u64::ANY, frame in arb_frame()) {
        let mut cam = CameraCapture::new(seed);
        let shot = cam.capture(SimTime::from_secs(3), &frame);
        // amplitude 3 + wobble 4 = 7 ≤ the CAMERA tolerance of 8.
        prop_assert_eq!(frame.count_diff(&shot, 8), 0);
        prop_assert!(MatchTolerance::CAMERA.matches(&Mask::new(), &frame, &shot));
    }

    /// HDMI capture is bit-exact and deduplicates.
    #[test]
    fn hdmi_is_lossless(frame in arb_frame()) {
        let mut link = HdmiCapture::new();
        let a = link.capture(SimTime::ZERO, &frame);
        let b = link.capture(SimTime::from_millis(33), &frame);
        prop_assert!(Arc::ptr_eq(&a, &b));
        prop_assert_eq!(a.as_ref(), &frame);
    }
}
