//! Durable study checkpoints: the codec between study repetitions and the
//! write-ahead journal, plus the [`StudyJournal`] the sweep records into.
//!
//! Every completed `(configuration, repetition)` of a journalled study is
//! appended to an fsync'd, checksummed journal (`interlag-journal`'s
//! framing) before the sweep moves on. A study resumed from that journal
//! replays the recorded repetitions instead of re-running them and
//! re-dispatches only the remainder — and because every repetition is a
//! pure function of its inputs, the resumed study's reports are
//! byte-identical to an uninterrupted run at any worker count.
//!
//! The payload codec is deliberately exact: every `f64` travels as its
//! IEEE bit pattern (`to_bits`), every simulated time as integer
//! microseconds, so a value that crossed the journal is *the same value*,
//! not a close decimal. Records carry a fingerprint of the dataset trace
//! and the lab configuration; resuming against a different dataset or a
//! reconfigured lab ignores the stale records rather than splicing
//! foreign measurements into the study.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use interlag_device::DeviceError;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_journal::{decode_records, Journal};
use interlag_video::stream::VideoError;

use crate::error::{InterlagError, ShardFailure};
use crate::experiment::{LabConfig, RepOutcome, RepResult};
use crate::ingest::DatasetError;
use crate::matcher::MatchFailure;
use crate::profile::{LagEntry, LagProfile};
use crate::wire::{R, W};

/// Version stamp carried by every checkpoint record; decoding rejects
/// records from other versions (they are treated like fingerprint
/// mismatches: ignored, re-run).
pub const CHECKPOINT_VERSION: u32 = 1;

/// One journalled repetition: coordinates, fingerprint, outcome and the
/// full measurement, in exact (bit-preserving) representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Codec version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// [`study_fingerprint`] of the dataset and lab configuration this
    /// repetition belongs to.
    pub fingerprint: u64,
    /// Configuration index in the sweep's job layout (fixed frequencies
    /// slowest-first, then the governors, then the oracle).
    pub config: usize,
    /// Repetition number within the configuration.
    pub rep: u32,
    outcome: OutcomeRepr,
    result: ResultRepr,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LagEntryRepr {
    id: usize,
    input_us: u64,
    lag_us: u64,
    threshold_us: u64,
    confidence_bits: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ResultRepr {
    config_name: String,
    entries: Vec<LagEntryRepr>,
    energy_bits: u64,
    irritation_us: u64,
    match_failures: usize,
    input_faults: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum OutcomeRepr {
    Ok,
    Retried { attempts: u32 },
    TimedOut { attempts: u32 },
    Abandoned { attempts: u32, cause: CauseRepr },
    // Skipped slots belong to another shard and are never journalled by
    // the study loop itself, but the codec stays total: a record holding
    // one round-trips instead of poisoning the journal.
    Skipped,
}

/// Exact mirror of [`InterlagError`] for the journal. The device error is
/// flattened (its variants are mirrored here) so the codec does not
/// depend on foreign types growing serde support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum CauseRepr {
    DeviceNonMonotonic { prev_us: u64, time_us: u64 },
    DeviceGeometry { expected: (u32, u32), found: (u32, u32) },
    DeviceCancelled,
    Match { interaction_id: usize, failure: MatchFailure },
    MissingVideo,
    Timeout,
    Dataset(DatasetError),
    Shard { failure: ShardFailure },
}

impl From<&InterlagError> for CauseRepr {
    fn from(e: &InterlagError) -> Self {
        match e {
            InterlagError::Device(DeviceError::Video(VideoError::NonMonotonicTimestamp {
                prev,
                time,
            })) => CauseRepr::DeviceNonMonotonic {
                prev_us: prev.as_micros(),
                time_us: time.as_micros(),
            },
            InterlagError::Device(DeviceError::Video(VideoError::GeometryMismatch {
                expected,
                found,
            })) => CauseRepr::DeviceGeometry { expected: *expected, found: *found },
            InterlagError::Device(DeviceError::Cancelled) => CauseRepr::DeviceCancelled,
            InterlagError::Match { interaction_id, failure } => {
                CauseRepr::Match { interaction_id: *interaction_id, failure: *failure }
            }
            InterlagError::MissingVideo => CauseRepr::MissingVideo,
            InterlagError::Timeout => CauseRepr::Timeout,
            InterlagError::Dataset(d) => CauseRepr::Dataset(d.clone()),
            InterlagError::Shard { failure } => CauseRepr::Shard { failure: *failure },
        }
    }
}

impl From<CauseRepr> for InterlagError {
    fn from(c: CauseRepr) -> Self {
        match c {
            CauseRepr::DeviceNonMonotonic { prev_us, time_us } => {
                InterlagError::Device(DeviceError::Video(VideoError::NonMonotonicTimestamp {
                    prev: SimTime::from_micros(prev_us),
                    time: SimTime::from_micros(time_us),
                }))
            }
            CauseRepr::DeviceGeometry { expected, found } => {
                InterlagError::Device(DeviceError::Video(VideoError::GeometryMismatch {
                    expected,
                    found,
                }))
            }
            CauseRepr::DeviceCancelled => InterlagError::Device(DeviceError::Cancelled),
            CauseRepr::Match { interaction_id, failure } => {
                InterlagError::Match { interaction_id, failure }
            }
            CauseRepr::MissingVideo => InterlagError::MissingVideo,
            CauseRepr::Timeout => InterlagError::Timeout,
            CauseRepr::Dataset(d) => InterlagError::Dataset(d),
            CauseRepr::Shard { failure } => InterlagError::Shard { failure },
        }
    }
}

fn result_repr(result: &RepResult) -> ResultRepr {
    ResultRepr {
        config_name: result.profile.config.clone(),
        entries: result
            .profile
            .entries()
            .iter()
            .map(|e| LagEntryRepr {
                id: e.interaction_id,
                input_us: e.input_time.as_micros(),
                lag_us: e.lag.as_micros(),
                threshold_us: e.threshold.as_micros(),
                confidence_bits: e.confidence.to_bits(),
            })
            .collect(),
        energy_bits: result.dynamic_energy_mj.to_bits(),
        irritation_us: result.irritation.as_micros(),
        match_failures: result.match_failures,
        input_faults: result.input_faults,
    }
}

fn result_from_repr(repr: ResultRepr) -> RepResult {
    let mut profile = LagProfile::new(repr.config_name);
    for e in repr.entries {
        profile.push(LagEntry {
            interaction_id: e.id,
            input_time: SimTime::from_micros(e.input_us),
            lag: SimDuration::from_micros(e.lag_us),
            threshold: SimDuration::from_micros(e.threshold_us),
            confidence: f64::from_bits(e.confidence_bits),
        });
    }
    RepResult {
        profile,
        dynamic_energy_mj: f64::from_bits(repr.energy_bits),
        irritation: SimDuration::from_micros(repr.irritation_us),
        match_failures: repr.match_failures,
        input_faults: repr.input_faults,
    }
}

fn outcome_repr(outcome: &RepOutcome) -> OutcomeRepr {
    match outcome {
        RepOutcome::Ok => OutcomeRepr::Ok,
        RepOutcome::Retried { attempts } => OutcomeRepr::Retried { attempts: *attempts },
        RepOutcome::TimedOut { attempts } => OutcomeRepr::TimedOut { attempts: *attempts },
        RepOutcome::Abandoned { attempts, cause } => {
            OutcomeRepr::Abandoned { attempts: *attempts, cause: cause.into() }
        }
        RepOutcome::Skipped => OutcomeRepr::Skipped,
    }
}

fn outcome_from_repr(repr: OutcomeRepr) -> RepOutcome {
    match repr {
        OutcomeRepr::Ok => RepOutcome::Ok,
        OutcomeRepr::Retried { attempts } => RepOutcome::Retried { attempts },
        OutcomeRepr::TimedOut { attempts } => RepOutcome::TimedOut { attempts },
        OutcomeRepr::Abandoned { attempts, cause } => {
            RepOutcome::Abandoned { attempts, cause: cause.into() }
        }
        OutcomeRepr::Skipped => RepOutcome::Skipped,
    }
}

impl CheckpointRecord {
    /// Builds the record for one completed repetition.
    pub fn new(
        fingerprint: u64,
        config: usize,
        rep: u32,
        result: &RepResult,
        outcome: &RepOutcome,
    ) -> Self {
        CheckpointRecord {
            version: CHECKPOINT_VERSION,
            fingerprint,
            config,
            rep,
            outcome: outcome_repr(outcome),
            result: result_repr(result),
        }
    }

    /// Unpacks the record back into the study's own types.
    pub fn into_parts(self) -> (usize, u32, RepResult, RepOutcome) {
        (self.config, self.rep, result_from_repr(self.result), outcome_from_repr(self.outcome))
    }
}

/// Serialises a checkpoint to journal-payload bytes (JSON, one line).
pub fn encode_checkpoint(record: &CheckpointRecord) -> Vec<u8> {
    serde_json::to_string(record).expect("checkpoint records always serialise").into_bytes()
}

/// Parses journal-payload bytes back into a checkpoint. `None` for
/// payloads that are not valid UTF-8, not valid JSON for the schema, or
/// stamped with a different [`CHECKPOINT_VERSION`] — the caller treats
/// all three as "not a usable checkpoint", never as corruption worth
/// aborting over.
pub fn decode_checkpoint(payload: &[u8]) -> Option<CheckpointRecord> {
    let text = std::str::from_utf8(payload).ok()?;
    let record: CheckpointRecord = serde_json::from_str(text).ok()?;
    (record.version == CHECKPOINT_VERSION).then_some(record)
}

/// Magic prefix of binary checkpoint payloads. JSON payloads start with
/// `{`, so the first byte alone discriminates the two codecs.
pub const CHECKPOINT_BINARY_MAGIC: &[u8; 4] = b"ILC1";

/// Serialises a checkpoint to the compact binary payload: fixed-width
/// little-endian fields, `f64`s as IEEE bit patterns, enums as one-byte
/// tags. Carries exactly the same information as [`encode_checkpoint`]
/// at roughly a third the size and without any float formatting/parsing
/// on the hot resume path.
pub fn encode_checkpoint_binary(record: &CheckpointRecord) -> Vec<u8> {
    let mut w = W::new();
    w.raw(CHECKPOINT_BINARY_MAGIC);
    w.u32(record.version);
    w.u64(record.fingerprint);
    w.usize(record.config);
    w.u32(record.rep);
    match &record.outcome {
        OutcomeRepr::Ok => w.u8(0),
        OutcomeRepr::Retried { attempts } => {
            w.u8(1);
            w.u32(*attempts);
        }
        OutcomeRepr::TimedOut { attempts } => {
            w.u8(2);
            w.u32(*attempts);
        }
        OutcomeRepr::Abandoned { attempts, cause } => {
            w.u8(3);
            w.u32(*attempts);
            encode_cause(&mut w, cause);
        }
        OutcomeRepr::Skipped => w.u8(4),
    }
    let result = &record.result;
    w.str(&result.config_name);
    w.u32(result.entries.len() as u32);
    for e in &result.entries {
        w.usize(e.id);
        w.u64(e.input_us);
        w.u64(e.lag_us);
        w.u64(e.threshold_us);
        w.u64(e.confidence_bits);
    }
    w.u64(result.energy_bits);
    w.u64(result.irritation_us);
    w.usize(result.match_failures);
    w.usize(result.input_faults);
    w.into_bytes()
}

fn encode_cause(w: &mut W, cause: &CauseRepr) {
    match cause {
        CauseRepr::DeviceNonMonotonic { prev_us, time_us } => {
            w.u8(0);
            w.u64(*prev_us);
            w.u64(*time_us);
        }
        CauseRepr::DeviceCancelled => w.u8(1),
        CauseRepr::Match { interaction_id, failure } => {
            w.u8(2);
            w.usize(*interaction_id);
            w.u8(match failure {
                MatchFailure::NotAnnotated => 0,
                MatchFailure::EndingNotFound => 1,
                MatchFailure::Cancelled => 2,
            });
        }
        CauseRepr::MissingVideo => w.u8(3),
        CauseRepr::Timeout => w.u8(4),
        // Dataset errors are cold (they abandon the whole study) and
        // structurally rich; shipping them as embedded JSON keeps the
        // binary codec free of their churn.
        CauseRepr::Dataset(d) => {
            w.u8(5);
            w.str(&serde_json::to_string(d).expect("dataset errors serialise"));
        }
        CauseRepr::Shard { failure } => {
            w.u8(6);
            w.u8(match failure {
                ShardFailure::Crashed => 0,
                ShardFailure::Wedged => 1,
                ShardFailure::Corrupt => 2,
            });
        }
        CauseRepr::DeviceGeometry { expected, found } => {
            w.u8(7);
            for v in [expected.0, expected.1, found.0, found.1] {
                w.u32(v);
            }
        }
    }
}

/// Parses a compact binary checkpoint payload; `None` on wrong magic,
/// version, truncation, trailing garbage or any malformed field —
/// mirrors [`decode_checkpoint`]'s "not usable, not fatal" contract.
pub fn decode_checkpoint_binary(payload: &[u8]) -> Option<CheckpointRecord> {
    let mut r = R::new(payload);
    if r.raw(4)? != CHECKPOINT_BINARY_MAGIC {
        return None;
    }
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return None;
    }
    let fingerprint = r.u64()?;
    let config = r.usize()?;
    let rep = r.u32()?;
    let outcome = match r.u8()? {
        0 => OutcomeRepr::Ok,
        1 => OutcomeRepr::Retried { attempts: r.u32()? },
        2 => OutcomeRepr::TimedOut { attempts: r.u32()? },
        3 => OutcomeRepr::Abandoned { attempts: r.u32()?, cause: decode_cause(&mut r)? },
        4 => OutcomeRepr::Skipped,
        _ => return None,
    };
    let config_name = r.str()?;
    let count = r.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        entries.push(LagEntryRepr {
            id: r.usize()?,
            input_us: r.u64()?,
            lag_us: r.u64()?,
            threshold_us: r.u64()?,
            confidence_bits: r.u64()?,
        });
    }
    let result = ResultRepr {
        config_name,
        entries,
        energy_bits: r.u64()?,
        irritation_us: r.u64()?,
        match_failures: r.usize()?,
        input_faults: r.usize()?,
    };
    r.at_end().then_some(CheckpointRecord { version, fingerprint, config, rep, outcome, result })
}

fn decode_cause(r: &mut R<'_>) -> Option<CauseRepr> {
    Some(match r.u8()? {
        0 => CauseRepr::DeviceNonMonotonic { prev_us: r.u64()?, time_us: r.u64()? },
        1 => CauseRepr::DeviceCancelled,
        2 => CauseRepr::Match {
            interaction_id: r.usize()?,
            failure: match r.u8()? {
                0 => MatchFailure::NotAnnotated,
                1 => MatchFailure::EndingNotFound,
                2 => MatchFailure::Cancelled,
                _ => return None,
            },
        },
        3 => CauseRepr::MissingVideo,
        4 => CauseRepr::Timeout,
        5 => CauseRepr::Dataset(serde_json::from_str(&r.str()?).ok()?),
        6 => CauseRepr::Shard {
            failure: match r.u8()? {
                0 => ShardFailure::Crashed,
                1 => ShardFailure::Wedged,
                2 => ShardFailure::Corrupt,
                _ => return None,
            },
        },
        7 => CauseRepr::DeviceGeometry {
            expected: (r.u32()?, r.u32()?),
            found: (r.u32()?, r.u32()?),
        },
        _ => return None,
    })
}

/// Parses a checkpoint payload in either codec, telling them apart by
/// their first bytes (JSON starts `{`, binary starts [`CHECKPOINT_BINARY_MAGIC`]).
/// Resume paths use this so a study journal written in one format can be
/// continued in the other.
pub fn decode_checkpoint_any(payload: &[u8]) -> Option<CheckpointRecord> {
    if payload.starts_with(CHECKPOINT_BINARY_MAGIC) {
        decode_checkpoint_binary(payload)
    } else {
        decode_checkpoint(payload)
    }
}

/// FNV-1a (64-bit) over the dataset's `getevent` text and the
/// result-affecting lab settings.
///
/// Worker count and observability are deliberately excluded: both are
/// guaranteed not to change study results, and resuming a sweep on a
/// machine with a different core count must reuse the journal.
pub fn study_fingerprint(trace_text: &str, config: &LabConfig) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(trace_text.as_bytes());
    eat(config_signature(config).as_bytes());
    hash
}

/// The stable textual digest of every [`LabConfig`] field that can change
/// study results. `workers` and `obs` are excluded by construction.
fn config_signature(config: &LabConfig) -> String {
    let d = &config.device;
    format!(
        "sig-v1|screen={:?}|opps={:?}|quantum={:?}|frame_period={:?}|capture={:?}\
         |input_cost={}|ui_render={}|calibration={:?}|min_still_run={}|tolerance={:?}\
         |reps={}|jitter_us={}|faults={:?}|retry_budget={}|recovery={:?}|watchdog={:?}",
        d.screen,
        d.opps,
        d.quantum,
        d.frame_period,
        d.capture,
        d.input_cost_cycles,
        d.ui_render_cycles,
        config.calibration,
        config.min_still_run,
        config.tolerance,
        config.reps,
        config.jitter_us,
        config.faults,
        config.retry_budget,
        config.recovery,
        config.watchdog,
    )
}

/// The write-ahead journal of one study sweep.
///
/// Shared across the sweep's worker threads: appends serialise through a
/// mutex (the fsync dominates anyway), replay lookups read an immutable
/// map built once at open time. Append failures are counted, not
/// propagated — losing durability must not abort a healthy sweep; the
/// caller can surface [`StudyJournal::write_errors`] afterwards.
#[derive(Debug)]
pub struct StudyJournal {
    journal: Mutex<Journal>,
    format: CheckpointFormat,
    fingerprint: u64,
    cached: BTreeMap<(usize, u32), (RepResult, RepOutcome)>,
    torn: usize,
    foreign: usize,
    write_errors: AtomicUsize,
    appends: AtomicU64,
    observer: Option<RecordObserver>,
}

/// A callback a [`StudyJournal`] invokes with every record it appends —
/// after the durable append attempt (successful or not), so the record is
/// on disk before anyone else hears about it. The first argument is the
/// record's *checkpoint sequence number*: a 1-based count of appends this
/// session, assigned under the journal lock so it matches on-disk append
/// order exactly. The sharded-sweep agent stamps streamed checkpoint
/// frames with it, which is what lets a resumed network session say
/// "replay everything after sequence N" instead of restarting the shard;
/// the chaos harness implements crash-on-nth-checkpoint from it.
///
/// Called from whichever worker thread completed the repetition, so the
/// callback must be `Send + Sync` and should serialise its own output.
pub struct RecordObserver(ObserverFn);

/// The boxed callback a [`RecordObserver`] wraps.
type ObserverFn = Box<dyn Fn(u64, &CheckpointRecord) + Send + Sync>;

impl std::fmt::Debug for RecordObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecordObserver(..)")
    }
}

/// Which payload codec a [`StudyJournal`] appends with. Reading always
/// accepts both ([`decode_checkpoint_any`]), so this only governs new
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFormat {
    /// One-line JSON payloads in text frames — greppable, debuggable.
    Json,
    /// Compact fixed-width payloads in binary frames — roughly a third
    /// the bytes and no float formatting on the write path.
    Binary,
}

impl CheckpointFormat {
    /// The format implied by a journal path: `.json`/`.jsonl` stay JSON
    /// for debuggability, everything else gets the compact binary codec.
    pub fn for_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") | Some("jsonl") => CheckpointFormat::Json,
            _ => CheckpointFormat::Binary,
        }
    }
}

impl StudyJournal {
    /// Starts a fresh journal at `path` (truncating any existing file),
    /// in the format [`CheckpointFormat::for_path`] picks for it.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create(path: impl AsRef<Path>, fingerprint: u64) -> io::Result<Self> {
        let path = path.as_ref();
        Ok(StudyJournal {
            journal: Mutex::new(Journal::create(path)?),
            format: CheckpointFormat::for_path(path),
            fingerprint,
            cached: BTreeMap::new(),
            torn: 0,
            foreign: 0,
            write_errors: AtomicUsize::new(0),
            appends: AtomicU64::new(0),
            observer: None,
        })
    }

    /// Opens `path` for resumption: reads the valid record prefix,
    /// truncates away any torn tail (so new appends extend a clean
    /// prefix), and caches every record whose fingerprint matches.
    /// Records from other datasets/configurations/versions are counted in
    /// [`StudyJournal::foreign`] and otherwise ignored. A missing file
    /// resumes as an empty journal.
    ///
    /// # Errors
    ///
    /// Any I/O error reading, truncating or reopening the file.
    pub fn resume(path: impl AsRef<Path>, fingerprint: u64) -> io::Result<Self> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let decoded = decode_records(&bytes);
        if decoded.valid_len() < bytes.len() {
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(decoded.valid_len() as u64)?;
            file.sync_data()?;
        }
        let mut cached = BTreeMap::new();
        let mut foreign = 0;
        for payload in &decoded.records {
            match decode_checkpoint_any(payload) {
                Some(record) if record.fingerprint == fingerprint => {
                    let (config, rep, result, outcome) = record.into_parts();
                    cached.insert((config, rep), (result, outcome));
                }
                _ => foreign += 1,
            }
        }
        Ok(StudyJournal {
            journal: Mutex::new(Journal::open_append(path)?),
            format: CheckpointFormat::for_path(path),
            fingerprint,
            cached,
            torn: decoded.torn,
            foreign,
            write_errors: AtomicUsize::new(0),
            appends: AtomicU64::new(0),
            observer: None,
        })
    }

    /// Installs a [`RecordObserver`] invoked with every subsequently
    /// appended record and its checkpoint sequence number. Set it before
    /// the study starts — the journal is shared immutably across workers
    /// once the sweep is running.
    pub fn set_observer(&mut self, f: impl Fn(u64, &CheckpointRecord) + Send + Sync + 'static) {
        self.observer = Some(RecordObserver(Box::new(f)));
    }

    /// The fingerprint this journal records against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The repetition cached for `(config, rep)`, if the journal holds
    /// one.
    pub fn cached(&self, config: usize, rep: u32) -> Option<(RepResult, RepOutcome)> {
        self.cached.get(&(config, rep)).cloned()
    }

    /// How many repetitions the journal can replay.
    pub fn replayable(&self) -> usize {
        self.cached.len()
    }

    /// Torn/garbled tail records dropped at open time.
    pub fn torn(&self) -> usize {
        self.torn
    }

    /// Well-framed records ignored for fingerprint/version mismatch.
    pub fn foreign(&self) -> usize {
        self.foreign
    }

    /// Appends one completed repetition. Failures are swallowed into
    /// [`StudyJournal::write_errors`]: a full disk costs durability, not
    /// the sweep.
    pub fn record(&self, config: usize, rep: u32, result: &RepResult, outcome: &RepOutcome) {
        let record = CheckpointRecord::new(self.fingerprint, config, rep, result, outcome);
        // The sequence number is assigned under the journal lock so it
        // agrees with on-disk append order even across worker threads.
        let (seq, failed) = match self.journal.lock() {
            Ok(mut journal) => {
                let seq = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
                let failed = match self.format {
                    CheckpointFormat::Json => journal.append(&encode_checkpoint(&record)).is_err(),
                    CheckpointFormat::Binary => {
                        journal.append_binary(&encode_checkpoint_binary(&record)).is_err()
                    }
                };
                (seq, failed)
            }
            Err(_) => (self.appends.fetch_add(1, Ordering::Relaxed) + 1, true),
        };
        if failed {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        // The observer runs after the append attempt — even a failed one:
        // losing durability must not also lose the streamed copy.
        if let Some(observer) = &self.observer {
            (observer.0)(seq, &record);
        }
    }

    /// Records appended (attempted) this session — the checkpoint
    /// sequence high-water mark passed to the observer.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// The payload codec new records are appended with.
    pub fn format(&self) -> CheckpointFormat {
        self.format
    }

    /// Appends that failed since the journal was opened.
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(name: &str) -> RepResult {
        let mut profile = LagProfile::new(name);
        profile.push(LagEntry {
            interaction_id: 4,
            input_time: SimTime::from_micros(1_234_567),
            lag: SimDuration::from_micros(250_431),
            threshold: SimDuration::from_millis(1_000),
            confidence: 0.1 + 0.2, // deliberately not exactly 0.3
        });
        RepResult {
            profile,
            dynamic_energy_mj: 1234.5678901234567,
            irritation: SimDuration::ZERO,
            match_failures: 0,
            input_faults: 2,
        }
    }

    #[test]
    fn checkpoint_round_trips_bits_exactly() {
        let result = sample_result("ondemand");
        for outcome in [
            RepOutcome::Ok,
            RepOutcome::Retried { attempts: 2 },
            RepOutcome::TimedOut { attempts: 3 },
            RepOutcome::Abandoned { attempts: 3, cause: InterlagError::MissingVideo },
            RepOutcome::Abandoned { attempts: 1, cause: InterlagError::Timeout },
            RepOutcome::Abandoned {
                attempts: 2,
                cause: InterlagError::Match {
                    interaction_id: 9,
                    failure: MatchFailure::EndingNotFound,
                },
            },
            RepOutcome::Abandoned {
                attempts: 2,
                cause: InterlagError::Device(DeviceError::Video(
                    VideoError::NonMonotonicTimestamp {
                        prev: SimTime::from_micros(5),
                        time: SimTime::from_micros(5),
                    },
                )),
            },
            RepOutcome::Abandoned {
                attempts: 4,
                cause: InterlagError::Dataset(DatasetError::BadUtf8 { offset: 17 }),
            },
        ] {
            let record = CheckpointRecord::new(0xfeed, 3, 1, &result, &outcome);
            let decoded = decode_checkpoint(&encode_checkpoint(&record)).expect("decodes");
            let (config, rep, r, o) = decoded.into_parts();
            assert_eq!((config, rep), (3, 1));
            assert_eq!(o, outcome);
            assert_eq!(r.profile, result.profile);
            assert_eq!(r.dynamic_energy_mj.to_bits(), result.dynamic_energy_mj.to_bits());
            assert_eq!(
                r.profile.entries()[0].confidence.to_bits(),
                result.profile.entries()[0].confidence.to_bits()
            );
        }
    }

    #[test]
    fn version_and_garbage_are_rejected_quietly() {
        let record = CheckpointRecord::new(1, 0, 0, &sample_result("x"), &RepOutcome::Ok);
        let mut wrong_version = record.clone();
        wrong_version.version = CHECKPOINT_VERSION + 1;
        assert!(decode_checkpoint(&encode_checkpoint(&wrong_version)).is_none());
        assert!(decode_checkpoint(b"not json").is_none());
        assert!(decode_checkpoint(&[0xff, 0xfe]).is_none());
    }

    #[test]
    fn fingerprint_separates_datasets_and_configs() {
        let base = LabConfig::default();
        let a = study_fingerprint("trace a", &base);
        assert_eq!(a, study_fingerprint("trace a", &base));
        assert_ne!(a, study_fingerprint("trace b", &base));
        let reconfigured = LabConfig { reps: base.reps + 1, ..LabConfig::default() };
        assert_ne!(a, study_fingerprint("trace a", &reconfigured));
        // Worker count and observability are excluded on purpose.
        let more_workers = LabConfig { workers: 64, ..LabConfig::default() };
        assert_eq!(a, study_fingerprint("trace a", &more_workers));
    }

    #[test]
    fn study_journal_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("interlag-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("study.journal");
        let result = sample_result("fixed-1.50 GHz");

        let journal = StudyJournal::create(&path, 0xabc).expect("create");
        journal.record(2, 0, &result, &RepOutcome::Ok);
        journal.record(2, 1, &result, &RepOutcome::Retried { attempts: 2 });
        assert_eq!(journal.write_errors(), 0);
        drop(journal);

        // Append garbage: a torn tail must not poison resumption.
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(b"0000z").expect("garbage");
        drop(file);

        let resumed = StudyJournal::resume(&path, 0xabc).expect("resume");
        assert_eq!(resumed.replayable(), 2);
        assert_eq!(resumed.torn(), 1);
        assert_eq!(resumed.foreign(), 0);
        let (r, o) = resumed.cached(2, 1).expect("cached");
        assert_eq!(o, RepOutcome::Retried { attempts: 2 });
        assert_eq!(r.profile, result.profile);
        assert!(resumed.cached(2, 2).is_none());

        // A different fingerprint sees only foreign records.
        let other = StudyJournal::resume(&path, 0xdef).expect("resume");
        assert_eq!(other.replayable(), 0);
        assert_eq!(other.foreign(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }
}
