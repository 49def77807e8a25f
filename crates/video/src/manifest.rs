//! Text manifests for video streams: an importable description of a
//! capture, hardened against truncated and corrupted files.
//!
//! The capture box writes its recordings to disk as a frame directory
//! plus a manifest naming the frames and their presentation times. When a
//! study ingests such a recording, the manifest is the trust boundary:
//! multi-hour batch runs meet files cut short by full disks, frames that
//! were never flushed, and timestamps mangled by clock steps. The loader
//! therefore never panics — every defect becomes a typed
//! [`ManifestError`] with the 1-based line it was found on — and offers a
//! salvage mode that drops defective frame references instead of failing.
//!
//! # Format
//!
//! ```text
//! interlag-video-manifest v1
//! period_us 33333
//! frame splash 64x48 1234abcd
//! at 0 splash
//! at 33333 splash
//! ```
//!
//! `frame <id> <w>x<h> <seed>` declares a frame rendered deterministically
//! from its seed; `at <time_us> <id>` schedules a presentation of it.
//! Presentations must be strictly monotonic, may only reference declared
//! frames, and must all present frames of one geometry.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use interlag_evdev::time::{SimDuration, SimTime};

use crate::frame::FrameBuffer;
use crate::stream::{VideoError, VideoStream};

/// The header every manifest must start with.
pub const MANIFEST_HEADER: &str = "interlag-video-manifest v1";

/// What was wrong with a manifest line.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ManifestDefect {
    /// The first line was not [`MANIFEST_HEADER`] (or the file was empty).
    BadHeader,
    /// The `period_us` line was missing, malformed, or zero.
    BadPeriod,
    /// A line was not a `frame` or `at` directive.
    UnknownDirective(String),
    /// A `frame` or `at` line had missing or malformed fields.
    BadField(String),
    /// Two `frame` directives declared the same id.
    DuplicateFrame(String),
    /// An `at` directive referenced a frame never declared.
    MissingFrame(String),
    /// An `at` timestamp was at or before its predecessor.
    NonMonotonicTimestamp,
    /// An `at` directive presented a frame whose dimensions differ from
    /// the stream's first frame; a capture has one geometry.
    GeometryMismatch {
        /// `(width, height)` of the stream's frames.
        expected: (u32, u32),
        /// `(width, height)` of the presented frame.
        found: (u32, u32),
    },
}

impl fmt::Display for ManifestDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestDefect::BadHeader => write!(f, "missing '{MANIFEST_HEADER}' header"),
            ManifestDefect::BadPeriod => write!(f, "missing or invalid period_us"),
            ManifestDefect::UnknownDirective(d) => write!(f, "unknown directive {d:?}"),
            ManifestDefect::BadField(what) => write!(f, "{what}"),
            ManifestDefect::DuplicateFrame(id) => write!(f, "frame {id:?} declared twice"),
            ManifestDefect::MissingFrame(id) => {
                write!(f, "presentation references undeclared frame {id:?}")
            }
            ManifestDefect::NonMonotonicTimestamp => {
                write!(f, "presentation timestamps must be strictly increasing")
            }
            ManifestDefect::GeometryMismatch { expected: (ew, eh), found: (w, h) } => {
                write!(f, "frame is {w}x{h} but the stream's frames are {ew}x{eh}")
            }
        }
    }
}

/// A manifest defect located on its line.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ManifestError {
    /// 1-based line the defect was found on.
    pub line: usize,
    /// The defect itself.
    pub defect: ManifestDefect,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.defect)
    }
}

impl std::error::Error for ManifestError {}

/// What salvage-mode parsing recovered.
#[derive(Debug, Clone)]
pub struct SalvagedStream {
    /// The stream built from every intact presentation.
    pub stream: VideoStream,
    /// The defects that were dropped, in file order.
    pub dropped: Vec<ManifestError>,
}

/// Parses a manifest strictly: the first defect aborts the load.
///
/// # Errors
///
/// The first [`ManifestError`] encountered, with its line number.
pub fn parse_manifest(text: &str) -> Result<VideoStream, ManifestError> {
    let (stream, defects) = parse_inner(text, true)?;
    debug_assert!(defects.is_empty(), "strict mode returns Err on the first defect");
    Ok(stream)
}

/// Parses a manifest in salvage mode: structural defects (a bad header or
/// period, without which no stream can be built) still fail, but each
/// defective `frame`/`at` line is dropped and recorded instead.
///
/// # Errors
///
/// Only [`ManifestDefect::BadHeader`] / [`ManifestDefect::BadPeriod`]; any
/// other defect is salvaged.
pub fn parse_manifest_salvage(text: &str) -> Result<SalvagedStream, ManifestError> {
    let (stream, dropped) = parse_inner(text, false)?;
    Ok(SalvagedStream { stream, dropped })
}

fn parse_inner(
    text: &str,
    strict: bool,
) -> Result<(VideoStream, Vec<ManifestError>), ManifestError> {
    let mut lines = text.lines().enumerate();

    let header = lines.next().map(|(_, l)| l.trim());
    if header != Some(MANIFEST_HEADER) {
        return Err(ManifestError { line: 1, defect: ManifestDefect::BadHeader });
    }
    let period = lines.next().and_then(|(_, l)| {
        let rest = l.trim().strip_prefix("period_us")?;
        rest.trim().parse::<u64>().ok().filter(|&p| p > 0)
    });
    let Some(period) = period else {
        return Err(ManifestError { line: 2, defect: ManifestDefect::BadPeriod });
    };

    let mut frames: BTreeMap<String, Arc<FrameBuffer>> = BTreeMap::new();
    let mut stream = VideoStream::new(SimDuration::from_micros(period));
    let mut dropped = Vec::new();

    for (idx, raw_line) in lines {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The stream enforces the presentation invariants (strictly
        // increasing times, one geometry) and is left unchanged by a
        // rejected push.
        let pushed = parse_directive(line, &mut frames).and_then(|presentation| {
            let Some((time, buf)) = presentation else { return Ok(()) };
            stream.push(time, buf).map_err(|e| match e {
                VideoError::NonMonotonicTimestamp { .. } => ManifestDefect::NonMonotonicTimestamp,
                VideoError::GeometryMismatch { expected, found } => {
                    ManifestDefect::GeometryMismatch { expected, found }
                }
            })
        });
        if let Err(defect) = pushed {
            let err = ManifestError { line: idx + 1, defect };
            if strict {
                return Err(err);
            }
            dropped.push(err);
        }
    }
    Ok((stream, dropped))
}

/// Parses one non-blank body line. `Ok(Some(_))` is a presentation to
/// push; `Ok(None)` declared a frame.
fn parse_directive(
    line: &str,
    frames: &mut BTreeMap<String, Arc<FrameBuffer>>,
) -> Result<Option<(SimTime, Arc<FrameBuffer>)>, ManifestDefect> {
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some("frame") => {
            let id = fields
                .next()
                .ok_or_else(|| ManifestDefect::BadField("frame: missing id".into()))?;
            let dims = fields
                .next()
                .ok_or_else(|| ManifestDefect::BadField("frame: missing dimensions".into()))?;
            let seed = fields
                .next()
                .ok_or_else(|| ManifestDefect::BadField("frame: missing seed".into()))?;
            if fields.next().is_some() {
                return Err(ManifestDefect::BadField("frame: trailing fields".into()));
            }
            let (w, h) = dims
                .split_once('x')
                .and_then(|(w, h)| Some((w.parse::<u32>().ok()?, h.parse::<u32>().ok()?)))
                .filter(|&(w, h)| w > 0 && h > 0 && (w as u64) * (h as u64) <= 1 << 26)
                .ok_or_else(|| {
                    ManifestDefect::BadField(format!("frame: bad dimensions {dims:?}"))
                })?;
            let seed = u64::from_str_radix(seed, 16)
                .map_err(|_| ManifestDefect::BadField(format!("frame: bad seed {seed:?}")))?;
            if frames.contains_key(id) {
                return Err(ManifestDefect::DuplicateFrame(id.to_string()));
            }
            let mut buf = FrameBuffer::new(w, h);
            buf.hash_paint(buf.bounds(), seed);
            frames.insert(id.to_string(), Arc::new(buf));
            Ok(None)
        }
        Some("at") => {
            let time = fields
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| ManifestDefect::BadField("at: bad timestamp".into()))?;
            let id = fields
                .next()
                .ok_or_else(|| ManifestDefect::BadField("at: missing frame id".into()))?;
            if fields.next().is_some() {
                return Err(ManifestDefect::BadField("at: trailing fields".into()));
            }
            let buf = frames.get(id).ok_or_else(|| ManifestDefect::MissingFrame(id.to_string()))?;
            Ok(Some((SimTime::from_micros(time), buf.clone())))
        }
        Some(other) => Err(ManifestDefect::UnknownDirective(other.to_string())),
        None => Ok(None),
    }
}

/// Serialises a stream to manifest text: one `frame` per distinct content
/// ([`VideoStream::slots`]), one `at` per frame. Round-trips through
/// [`parse_manifest`] up to timing and frame-identity structure:
/// presentation times and which presentations share a frame are preserved
/// exactly, while pixel content is re-rendered deterministically from the
/// content digest used as a seed.
pub fn to_manifest_text(stream: &VideoStream) -> String {
    let mut out = format!("{MANIFEST_HEADER}\nperiod_us {}\n", stream.frame_period().as_micros());
    for (slot, buf) in stream.slots().iter().enumerate() {
        out.push_str(&format!(
            "frame f{slot} {}x{} {:016x}\n",
            buf.width(),
            buf.height(),
            buf.digest()
        ));
    }
    for run in stream.runs() {
        for time in &stream.times()[run.first_frame as usize..run.end() as usize] {
            out.push_str(&format!("at {} f{}\n", time.as_micros(), run.slot));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "interlag-video-manifest v1\nperiod_us 33333\n\
        frame a 8x8 00000000000000aa\nframe b 8x8 00000000000000bb\n\
        at 0 a\nat 33333 a\nat 66666 b\n";

    #[test]
    fn parses_a_clean_manifest() {
        let stream = parse_manifest(GOOD).unwrap();
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.frame_period(), SimDuration::from_micros(33_333));
        assert_eq!(stream.slots().len(), 2);
        assert_eq!(stream.get(2).unwrap().time, SimTime::from_micros(66_666));
    }

    /// A valid manifest whose frames disagree on geometry: the second
    /// presentation is a typed defect on its line, never a panic.
    const MIXED_GEOMETRY: &str = "interlag-video-manifest v1\nperiod_us 33333\n\
        frame a 8x8 1\nframe b 16x4 2\nat 0 a\nat 33333 b\n";

    #[test]
    fn mixed_geometry_is_a_defect_on_its_line() {
        let geometry = ManifestDefect::GeometryMismatch { expected: (8, 8), found: (16, 4) };
        let err = parse_manifest(MIXED_GEOMETRY).unwrap_err();
        assert_eq!(err, ManifestError { line: 6, defect: geometry.clone() });
        assert_eq!(
            err.to_string(),
            "manifest line 6: frame is 16x4 but the stream's frames are 8x8"
        );
        let salvaged = parse_manifest_salvage(MIXED_GEOMETRY).unwrap();
        assert_eq!(salvaged.stream.len(), 1, "the 8x8 presentation survives");
        assert_eq!(salvaged.dropped, vec![ManifestError { line: 6, defect: geometry }]);
    }

    #[test]
    fn strict_mode_reports_the_defect_with_its_line() {
        let cases: &[(&str, usize)] = &[
            ("", 1),
            ("not a manifest\nperiod_us 1\n", 1),
            ("interlag-video-manifest v1\nperiod_us zero\n", 2),
            ("interlag-video-manifest v1\nperiod_us 33333\nat 0 ghost\n", 3),
            ("interlag-video-manifest v1\nperiod_us 33333\nframe a 8x8 00\nat 5 a\nat 5 a\n", 5),
            ("interlag-video-manifest v1\nperiod_us 33333\nframe a 8x8 zz\n", 3),
            ("interlag-video-manifest v1\nperiod_us 33333\nbogus directive\n", 3),
            ("interlag-video-manifest v1\nperiod_us 33333\nframe a 8x8 00\nframe a 4x4 00\n", 4),
        ];
        for (text, line) in cases {
            let err = parse_manifest(text).unwrap_err();
            assert_eq!(err.line, *line, "{text:?} -> {err}");
        }
    }

    #[test]
    fn salvage_mode_drops_defective_lines_and_keeps_the_rest() {
        let text = "interlag-video-manifest v1\nperiod_us 33333\n\
            frame a 8x8 00000000000000aa\n\
            at 0 a\nat 10 ghost\nat 33333 a\nat 20 a\n";
        let salvaged = parse_manifest_salvage(text).unwrap();
        assert_eq!(salvaged.stream.len(), 2, "the two intact presentations survive");
        assert_eq!(salvaged.dropped.len(), 2);
        assert_eq!(salvaged.dropped[0].defect, ManifestDefect::MissingFrame("ghost".into()));
        assert_eq!(salvaged.dropped[1].defect, ManifestDefect::NonMonotonicTimestamp);
    }

    #[test]
    fn salvage_mode_still_requires_a_header() {
        assert!(parse_manifest_salvage("garbage\n").is_err());
    }

    #[test]
    fn truncation_at_every_byte_offset_never_panics() {
        for cut in 0..GOOD.len() {
            let prefix = &GOOD[..cut];
            if !prefix.is_char_boundary(cut) {
                continue;
            }
            // Strict parse may fail, salvage may drop lines; neither panics.
            let _ = parse_manifest(prefix);
            if let Ok(s) = parse_manifest_salvage(prefix) {
                assert!(s.stream.len() <= 3);
            }
        }
    }

    #[test]
    fn manifest_text_round_trips_timing_and_sharing() {
        let stream = parse_manifest(GOOD).unwrap();
        let text = to_manifest_text(&stream);
        let again = parse_manifest(&text).unwrap();
        assert_eq!(again.len(), stream.len());
        assert_eq!(again.slots().len(), stream.slots().len());
        assert_eq!(again.frame_period(), stream.frame_period());
        assert_eq!(again.times(), stream.times());
        // Presentations sharing pixels before still share after.
        assert_eq!(again.runs(), stream.runs());
    }
}
