//! Timed frame sequences: the "video file" of a workload execution.
//!
//! A [`VideoStream`] is what the capture box writes to the analysis
//! machine: frames at a fixed rate, each stamped with its presentation
//! time. Still periods dominate interactive workloads, so the stream *is*
//! its own run-length encoding: per-frame timestamps, maximal runs of
//! consecutive frames with identical content, and one shared buffer per
//! distinct content. A 10-minute capture costs megabytes, not gigabytes,
//! and the suggester, matcher and jank analysis walk runs — O(changes) —
//! instead of frames.

use std::collections::HashMap;
use std::sync::Arc;

use interlag_evdev::time::{SimDuration, SimTime};

use crate::frame::FrameBuffer;

/// Why the capture path rejected an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoError {
    /// A frame arrived stamped at or before its predecessor. Accepting it
    /// would corrupt the binary-search invariants of
    /// [`VideoStream::frame_at`] and
    /// [`VideoStream::first_frame_at_or_after`], and a duplicate
    /// timestamp would hand downstream walkers two frames claiming the
    /// same instant.
    NonMonotonicTimestamp {
        /// Timestamp of the previously pushed frame.
        prev: SimTime,
        /// The offending timestamp.
        time: SimTime,
    },
    /// A frame's dimensions differ from the stream's first frame. A
    /// capture has one geometry; comparing frames of different sizes is
    /// always a pipeline bug.
    GeometryMismatch {
        /// `(width, height)` of the stream's frames.
        expected: (u32, u32),
        /// `(width, height)` of the offending frame.
        found: (u32, u32),
    },
}

impl std::fmt::Display for VideoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VideoError::NonMonotonicTimestamp { prev, time } => {
                write!(f, "frame timestamps must be monotonic ({time} after {prev})")
            }
            VideoError::GeometryMismatch { expected: (ew, eh), found: (w, h) } => {
                write!(f, "frame is {w}x{h} but the stream's frames are {ew}x{eh}")
            }
        }
    }
}

impl std::error::Error for VideoError {}

/// One captured frame with its presentation timestamp, as a view into
/// the stream.
#[derive(Debug, Clone, Copy)]
pub struct VideoFrame<'a> {
    /// Zero-based frame number.
    pub index: u32,
    /// Presentation time.
    pub time: SimTime,
    /// The pixels: the one buffer the stream keeps for this content.
    pub buf: &'a Arc<FrameBuffer>,
}

/// One maximal run of consecutive frames with identical content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// Index of the run's first frame.
    pub first_frame: u32,
    /// Number of consecutive frames in the run.
    pub len: u32,
    /// Index into [`VideoStream::slots`] of the run's content.
    pub slot: u32,
}

impl FrameRun {
    /// One past the run's last frame.
    pub fn end(&self) -> u32 {
        self.first_frame + self.len
    }
}

/// The standard capture rate of the paper's setup (Elgato at 30 fps).
pub const FRAME_PERIOD_30FPS: SimDuration = SimDuration::from_micros(33_333);

/// A captured sequence of frames at a fixed rate.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use interlag_video::frame::FrameBuffer;
/// use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
/// use interlag_evdev::time::SimTime;
///
/// let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
/// let frame = Arc::new(FrameBuffer::new(8, 8));
/// video.push(SimTime::ZERO, frame.clone()).unwrap();
/// video.push(SimTime::from_micros(33_333), frame).unwrap();
/// assert_eq!(video.len(), 2);
/// assert_eq!(video.runs().len(), 1);
/// assert_eq!(video.frame_at(SimTime::from_millis(20)).unwrap().index, 0);
/// ```
#[derive(Debug, Clone)]
pub struct VideoStream {
    frame_period: SimDuration,
    /// Presentation time of every frame, strictly increasing (capture
    /// faults and manifests make the spacing irregular).
    times: Vec<SimTime>,
    /// Maximal content runs, covering `0..times.len()` back to back.
    runs: Vec<FrameRun>,
    /// One buffer per distinct content, in order of first appearance.
    slots: Vec<Arc<FrameBuffer>>,
    /// Slots by content digest, so recurring content (A B A) reuses its
    /// slot. Digest collisions share a bucket and are told apart by pixels.
    by_digest: HashMap<u64, Vec<u32>>,
}

/// `true` if `b` shows the same pixels as `a`: pointer equality first,
/// then the cached digests, then the pixels.
fn same_content(a: &FrameBuffer, b: &FrameBuffer) -> bool {
    std::ptr::eq(a, b) || (a.digest() == b.digest() && a.pixels() == b.pixels())
}

impl VideoStream {
    /// Creates an empty stream with the given frame period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(frame_period: SimDuration) -> Self {
        assert!(!frame_period.is_zero(), "frame period must be positive");
        VideoStream {
            frame_period,
            times: Vec::new(),
            runs: Vec::new(),
            slots: Vec::new(),
            by_digest: HashMap::new(),
        }
    }

    /// The nominal interval between frames.
    pub fn frame_period(&self) -> SimDuration {
        self.frame_period
    }

    /// Frames per second, rounded to the nearest integer.
    pub fn fps(&self) -> u32 {
        (1.0 / self.frame_period.as_secs_f64()).round() as u32
    }

    /// Appends a frame captured at `time`. A buffer equal to the previous
    /// frame's (the same allocation, or equal digest and pixels) extends
    /// the current run; otherwise a new run starts, on the slot of an
    /// equal earlier content if there is one, else on a new slot holding
    /// `buf`.
    ///
    /// # Examples
    ///
    /// A blinking cursor re-rendered into fresh allocations still
    /// collapses to two contents:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use interlag_evdev::time::SimTime;
    /// use interlag_video::frame::FrameBuffer;
    /// use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};
    ///
    /// let screen = |v: u8| {
    ///     let mut f = FrameBuffer::new(4, 4);
    ///     f.fill(v);
    ///     Arc::new(f)
    /// };
    /// let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
    /// for (i, v) in [1, 1, 2, 1, 1].into_iter().enumerate() {
    ///     video.push(SimTime::from_micros(i as u64 * 33_333), screen(v)).unwrap();
    /// }
    /// assert_eq!(video.len(), 5);
    /// assert_eq!(video.runs().len(), 3);
    /// assert_eq!(video.slots().len(), 2);
    /// assert_eq!(video.runs()[0].slot, video.runs()[2].slot);
    /// ```
    ///
    /// # Errors
    ///
    /// [`VideoError::NonMonotonicTimestamp`] if `time` is at or before the
    /// previous frame: capture hardware timestamps are strictly monotonic,
    /// a backwards frame would corrupt the binary-search invariants of
    /// [`VideoStream::frame_at`], and a duplicate timestamp would make the
    /// suggester and matcher walk two frames claiming the same instant (a
    /// stalled capture box re-presents the previous *buffer* at the next
    /// slot, never the same timestamp twice).
    /// [`VideoError::GeometryMismatch`] if `buf`'s dimensions differ from
    /// the first frame's. Either way the stream is left unchanged.
    pub fn push(&mut self, time: SimTime, buf: Arc<FrameBuffer>) -> Result<(), VideoError> {
        if let Some(&prev) = self.times.last() {
            if time <= prev {
                return Err(VideoError::NonMonotonicTimestamp { prev, time });
            }
        }
        if let Some(first) = self.slots.first() {
            let (expected, found) = ((first.width(), first.height()), (buf.width(), buf.height()));
            if expected != found {
                return Err(VideoError::GeometryMismatch { expected, found });
            }
        }
        let index = self.times.len() as u32;
        self.times.push(time);
        if let Some(run) = self.runs.last_mut() {
            if same_content(&self.slots[run.slot as usize], &buf) {
                run.len += 1;
                return Ok(());
            }
        }
        let bucket = self.by_digest.entry(buf.digest()).or_default();
        let slot = match bucket.iter().find(|&&s| same_content(&self.slots[s as usize], &buf)) {
            Some(&slot) => slot,
            None => {
                let slot = self.slots.len() as u32;
                bucket.push(slot);
                self.slots.push(buf);
                slot
            }
        };
        self.runs.push(FrameRun { first_frame: index, len: 1, slot });
        Ok(())
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Every frame's presentation time, strictly increasing.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// The maximal content runs, in frame order.
    pub fn runs(&self) -> &[FrameRun] {
        &self.runs
    }

    /// One buffer per distinct content; [`FrameRun::slot`] indexes it.
    /// Still periods make this far shorter than `len()`.
    pub fn slots(&self) -> &[Arc<FrameBuffer>] {
        &self.slots
    }

    /// Index (into [`VideoStream::runs`]) of the run containing `frame`;
    /// `runs().len()` if the frame index is past the stream's end.
    pub fn run_of_frame(&self, frame: u32) -> usize {
        self.runs.partition_point(|r| r.end() <= frame)
    }

    /// The runs overlapping frames `from..to`, clipped to that range.
    pub fn runs_in(&self, from: u32, to: u32) -> impl Iterator<Item = FrameRun> + '_ {
        let start = if from < to { self.run_of_frame(from) } else { self.runs.len() };
        self.runs[start..].iter().take_while(move |r| r.first_frame < to).map(move |r| {
            let first_frame = r.first_frame.max(from);
            FrameRun { first_frame, len: r.end().min(to) - first_frame, slot: r.slot }
        })
    }

    /// Iterates over the frames.
    pub fn iter(&self) -> Frames<'_> {
        self.iter_from(0)
    }

    /// Iterates over the frames from index `first` on.
    pub fn iter_from(&self, first: u32) -> Frames<'_> {
        Frames { video: self, next: first, run: self.run_of_frame(first) }
    }

    /// The frame with a given index.
    pub fn get(&self, index: u32) -> Option<VideoFrame<'_>> {
        let time = *self.times.get(index as usize)?;
        let run = &self.runs[self.run_of_frame(index)];
        Some(VideoFrame { index, time, buf: &self.slots[run.slot as usize] })
    }

    /// The frame being displayed at `time`: the last frame presented at or
    /// before it. `None` before the first frame.
    pub fn frame_at(&self, time: SimTime) -> Option<VideoFrame<'_>> {
        let after = self.times.partition_point(|&t| t <= time) as u32;
        after.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Index of the first frame presented at or after `time`; `len()` if
    /// the capture ended earlier. This is where the matcher starts walking
    /// when a lag begins at `time`.
    pub fn first_frame_at_or_after(&self, time: SimTime) -> u32 {
        self.times.partition_point(|&t| t < time) as u32
    }

    /// Capture length from first to last frame.
    pub fn duration(&self) -> SimDuration {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }
}

/// Iterator over a stream's frames; see [`VideoStream::iter`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    video: &'a VideoStream,
    next: u32,
    /// The run containing `next`.
    run: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = VideoFrame<'a>;

    fn next(&mut self) -> Option<VideoFrame<'a>> {
        let time = *self.video.times.get(self.next as usize)?;
        if self.video.runs[self.run].end() <= self.next {
            self.run += 1;
        }
        let slot = self.video.runs[self.run].slot;
        let frame = VideoFrame { index: self.next, time, buf: &self.video.slots[slot as usize] };
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.video.len().saturating_sub(self.next as usize);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Frames<'_> {}

impl<'a> IntoIterator for &'a VideoStream {
    type Item = VideoFrame<'a>;
    type IntoIter = Frames<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(v: u8) -> Arc<FrameBuffer> {
        let mut f = FrameBuffer::new(4, 4);
        f.fill(v);
        Arc::new(f)
    }

    fn stream_of(n: u64) -> VideoStream {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        let shared = frame(1);
        for i in 0..n {
            s.push(SimTime::from_micros(i * 33_333), shared.clone()).unwrap();
        }
        s
    }

    /// One fresh allocation per frame: runs and slots must form by content.
    fn video_of(pattern: &[u8]) -> VideoStream {
        let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
        for (i, &c) in pattern.iter().enumerate() {
            v.push(SimTime::from_micros(i as u64 * 33_333), frame(c)).unwrap();
        }
        v
    }

    #[test]
    fn fps_rounding() {
        assert_eq!(VideoStream::new(FRAME_PERIOD_30FPS).fps(), 30);
        assert_eq!(VideoStream::new(SimDuration::from_millis(16)).fps(), 63);
    }

    #[test]
    fn frame_at_picks_displayed_frame() {
        let s = stream_of(10);
        assert!(s.frame_at(SimTime::ZERO).is_some());
        assert_eq!(s.frame_at(SimTime::from_micros(33_332)).unwrap().index, 0);
        assert_eq!(s.frame_at(SimTime::from_micros(33_333)).unwrap().index, 1);
        assert_eq!(s.frame_at(SimTime::from_secs(100)).unwrap().index, 9);
    }

    #[test]
    fn frame_at_before_start_is_none() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        s.push(SimTime::from_secs(1), frame(0)).unwrap();
        assert!(s.frame_at(SimTime::from_millis(999)).is_none());
    }

    #[test]
    fn first_frame_at_or_after_boundaries() {
        let s = stream_of(3);
        assert_eq!(s.first_frame_at_or_after(SimTime::ZERO), 0);
        assert_eq!(s.first_frame_at_or_after(SimTime::from_micros(1)), 1);
        assert_eq!(s.first_frame_at_or_after(SimTime::from_secs(1)), 3);
    }

    #[test]
    fn runs_count_content_changes() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        let a = frame(1);
        s.push(SimTime::from_micros(0), a.clone()).unwrap();
        s.push(SimTime::from_micros(33_333), a.clone()).unwrap();
        s.push(SimTime::from_micros(66_666), frame(2)).unwrap();
        s.push(SimTime::from_micros(99_999), a.clone()).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.runs().len(), 3);
        assert_eq!(s.slots().len(), 2);
        assert!(Arc::ptr_eq(s.get(3).unwrap().buf, &a), "recurring content keeps its slot");
    }

    #[test]
    fn packs_runs_and_dedups_by_content() {
        let v = video_of(b"aaabbaaa");
        assert_eq!(v.len(), 8);
        // Three runs (aaa, bb, aaa) over two distinct contents.
        assert_eq!(v.runs().len(), 3);
        assert_eq!(v.slots().len(), 2);
        assert_eq!(v.runs()[0].slot, v.runs()[2].slot);
        assert_eq!(v.runs()[1], FrameRun { first_frame: 3, len: 2, slot: 1 });
        assert_eq!(v.slots()[1].pixels(), &[b'b'; 16][..]);
        // Every frame of a run is a view of the run's one buffer.
        for f in v.iter() {
            let run = v.runs()[v.run_of_frame(f.index)];
            assert!(Arc::ptr_eq(f.buf, &v.slots()[run.slot as usize]));
        }
    }

    #[test]
    fn run_of_frame_finds_the_containing_run() {
        let v = video_of(b"aabbbc");
        assert_eq!(v.run_of_frame(0), 0);
        assert_eq!(v.run_of_frame(1), 0);
        assert_eq!(v.run_of_frame(2), 1);
        assert_eq!(v.run_of_frame(4), 1);
        assert_eq!(v.run_of_frame(5), 2);
        assert_eq!(v.run_of_frame(6), 3, "past the end");
    }

    #[test]
    fn runs_in_clips_to_the_range() {
        let v = video_of(b"aabbbc");
        let clipped: Vec<FrameRun> = v.runs_in(1, 4).collect();
        assert_eq!(
            clipped,
            [
                FrameRun { first_frame: 1, len: 1, slot: 0 },
                FrameRun { first_frame: 2, len: 2, slot: 1 }
            ]
        );
        assert_eq!(v.runs_in(0, 6).collect::<Vec<_>>(), v.runs());
        assert_eq!(v.runs_in(3, 3).count(), 0);
        assert_eq!(v.runs_in(6, 9).count(), 0);
        let tail: Vec<u32> = v.iter_from(4).map(|f| f.index).collect();
        assert_eq!(tail, [4, 5]);
    }

    #[test]
    fn empty_stream_has_no_runs() {
        let v = VideoStream::new(FRAME_PERIOD_30FPS);
        assert!(v.runs().is_empty() && v.slots().is_empty());
        assert_eq!(v.run_of_frame(0), 0);
        assert_eq!(v.runs_in(0, 5).count(), 0);
        assert!(v.get(0).is_none() && v.iter().next().is_none());
        assert!(v.frame_at(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn push_rejects_backwards_time_and_leaves_stream_intact() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        s.push(SimTime::from_secs(2), frame(0)).unwrap();
        let err = s.push(SimTime::from_secs(1), frame(0)).unwrap_err();
        assert_eq!(
            err,
            VideoError::NonMonotonicTimestamp {
                prev: SimTime::from_secs(2),
                time: SimTime::from_secs(1),
            }
        );
        assert!(err.to_string().contains("monotonic"));
        // The rejected frame must not have corrupted the stream.
        assert_eq!(s.len(), 1);
        assert_eq!(s.first_frame_at_or_after(SimTime::from_secs(1)), 0);
        // A duplicate timestamp is rejected too: a stalled capture box
        // repeats the previous *buffer* at the next slot, never the same
        // timestamp twice, and downstream walkers assume strict order.
        let dup = s.push(SimTime::from_secs(2), frame(1)).unwrap_err();
        assert_eq!(
            dup,
            VideoError::NonMonotonicTimestamp {
                prev: SimTime::from_secs(2),
                time: SimTime::from_secs(2),
            }
        );
        assert_eq!(s.len(), 1);
        // Strictly later frames still append.
        s.push(SimTime::from_secs(2) + SimDuration::from_micros(1), frame(1)).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn push_rejects_a_second_geometry_and_leaves_stream_intact() {
        let mut s = VideoStream::new(FRAME_PERIOD_30FPS);
        s.push(SimTime::ZERO, frame(0)).unwrap();
        let wide = Arc::new(FrameBuffer::new(8, 2));
        let err = s.push(SimTime::from_secs(1), wide).unwrap_err();
        assert_eq!(err, VideoError::GeometryMismatch { expected: (4, 4), found: (8, 2) });
        assert!(err.to_string().contains("8x2"));
        assert_eq!((s.len(), s.runs().len(), s.slots().len()), (1, 1, 1));
        s.push(SimTime::from_secs(1), frame(1)).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duration_spans_first_to_last() {
        let s = stream_of(31);
        assert_eq!(s.duration(), SimDuration::from_micros(30 * 33_333));
    }
}
