//! Property-based tests of the analysis algorithms: for arbitrary
//! synthetic videos the suggester/matcher pair must uphold the invariants
//! the methodology relies on.

use std::sync::Arc;

use proptest::prelude::*;

use interlag_core::annotation::LagAnnotation;
use interlag_core::irritation::{user_irritation, ThresholdModel};
use interlag_core::matcher::Matcher;
use interlag_core::oracle::{build_oracle, OracleConfig};
use interlag_core::profile::{LagEntry, LagProfile};
use interlag_core::stats::{five_number, kernel_density, percentile_sorted};
use interlag_core::suggester::{Suggester, SuggesterConfig};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_power::opp::Frequency;
use interlag_video::frame::{FrameBuffer, Rect};
use interlag_video::mask::{Mask, MatchTolerance};
use interlag_video::stream::{VideoStream, FRAME_PERIOD_30FPS};

fn frame_of(symbol: u8) -> Arc<FrameBuffer> {
    let mut f = FrameBuffer::new(16, 16);
    f.hash_paint(f.bounds(), symbol as u64 + 1);
    Arc::new(f)
}

/// A video described by a symbol string: equal symbols are identical
/// frames.
fn video_of(symbols: &[u8]) -> VideoStream {
    let mut v = VideoStream::new(FRAME_PERIOD_30FPS);
    for (i, &s) in symbols.iter().enumerate() {
        v.push(SimTime::from_micros(i as u64 * 33_333), frame_of(s)).unwrap();
    }
    v
}

/// Random videos: runs of 1–20 identical frames over a small alphabet.
fn arb_symbols() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..6, 1usize..20), 1..25).prop_map(|runs| {
        runs.into_iter().flat_map(|(sym, len)| std::iter::repeat_n(sym, len)).collect()
    })
}

proptest! {
    /// Every suggestion is a change frame followed by the configured
    /// still run (or clipped by the window end).
    #[test]
    fn suggestions_are_changes_followed_by_stills(
        symbols in arb_symbols(),
        min_still in 1u32..6,
    ) {
        let video = video_of(&symbols);
        let suggester = Suggester::new(SuggesterConfig {
            min_still_run: min_still,
            ..Default::default()
        });
        let end = SimTime::from_secs(3_600);
        let suggestions = suggester.suggest(&video, SimTime::ZERO, end);
        for s in &suggestions {
            let i = s.frame_index as usize;
            prop_assert!(i > 0, "frame 0 never differs from a predecessor");
            prop_assert_ne!(&symbols[i], &symbols[i - 1], "suggested frame must be a change");
            // Following still run: min_still frames or until the video ends.
            let still_until = (i + 1 + min_still as usize).min(symbols.len());
            let clipped = i + 1 + (min_still as usize) > symbols.len();
            let all_still = symbols[i..still_until].iter().all(|&x| x == symbols[i]);
            prop_assert!(all_still || clipped);
        }
    }

    /// Every run boundary into a sufficiently long still period is
    /// suggested — the suggester never misses a real ending candidate.
    #[test]
    fn all_long_stills_are_suggested(symbols in arb_symbols(), min_still in 1u32..4) {
        let video = video_of(&symbols);
        let suggester = Suggester::new(SuggesterConfig {
            min_still_run: min_still,
            ..Default::default()
        });
        let suggestions: Vec<usize> = suggester
            .suggest(&video, SimTime::ZERO, SimTime::from_secs(3_600))
            .into_iter()
            .map(|s| s.frame_index as usize)
            .collect();
        for i in 1..symbols.len() {
            if symbols[i] == symbols[i - 1] {
                continue;
            }
            let still_until = (i + 1 + min_still as usize).min(symbols.len());
            let long_still = still_until - (i + 1) >= min_still as usize
                && symbols[i..still_until].iter().all(|&x| x == symbols[i]);
            if long_still {
                prop_assert!(suggestions.contains(&i), "missed ending at frame {i}");
            }
        }
    }

    /// Planting an annotation image at a known frame: the matcher finds
    /// exactly that frame when given the right occurrence number.
    #[test]
    fn matcher_finds_planted_occurrences(symbols in arb_symbols(), target in 0u8..6) {
        let video = video_of(&symbols);
        // Count match runs of `target` and check each occurrence is found
        // at its run's first frame.
        let mut runs: Vec<usize> = Vec::new();
        let mut in_run = false;
        for (i, &s) in symbols.iter().enumerate() {
            if s == target && !in_run {
                runs.push(i);
            }
            in_run = s == target;
        }
        let matcher = Matcher::new();
        for (occ_idx, &start_frame) in runs.iter().enumerate() {
            let ann = LagAnnotation {
                interaction_id: 0,
                image: frame_of(target).as_ref().clone(),
                mask: Mask::new(),
                tolerance: MatchTolerance::EXACT,
                occurrence: occ_idx as u32 + 1,
                threshold: SimDuration::from_secs(1),
            };
            let hit = matcher.match_lag(&video, SimTime::ZERO, &ann).expect("planted");
            prop_assert_eq!(hit.end_frame as usize, start_frame);
        }
        // One occurrence past the last run must fail.
        let ann = LagAnnotation {
            interaction_id: 0,
            image: frame_of(target).as_ref().clone(),
            mask: Mask::new(),
            tolerance: MatchTolerance::EXACT,
            occurrence: runs.len() as u32 + 1,
            threshold: SimDuration::from_secs(1),
        };
        prop_assert!(matcher.match_lag(&video, SimTime::ZERO, &ann).is_err());
    }

    /// Irritation is monotone: uniformly longer lags never irritate less,
    /// and it is exactly zero when every lag meets its threshold.
    #[test]
    fn irritation_monotonicity(
        lags_ms in prop::collection::vec(1u64..20_000, 1..40),
        scale_pct in 100u64..400,
    ) {
        let mk = |scale: u64| {
            let mut p = LagProfile::new("p");
            for (i, &ms) in lags_ms.iter().enumerate() {
                p.push(LagEntry {
                    interaction_id: i,
                    input_time: SimTime::from_secs(i as u64),
                    lag: SimDuration::from_millis(ms * scale / 100),
                    threshold: SimDuration::from_secs(2),
                    confidence: 1.0,
                });
            }
            p
        };
        let base = mk(100);
        let scaled = mk(scale_pct);
        let model = ThresholdModel::Annotated;
        let a = user_irritation(&base, &model).total();
        let b = user_irritation(&scaled, &model).total();
        prop_assert!(b >= a);

        // Under the paper rule against itself: always zero.
        let self_rule = ThresholdModel::paper_rule(base.clone());
        prop_assert_eq!(user_irritation(&base, &self_rule).total(), SimDuration::ZERO);
    }

    /// The oracle picks, per lag, the slowest frequency meeting the
    /// threshold, and its plan never dips below the efficient frequency.
    #[test]
    fn oracle_picks_slowest_adequate_frequency(
        base_ms in prop::collection::vec(50u64..3_000, 1..12),
    ) {
        use std::collections::BTreeMap;
        let freqs = [300u32, 960, 2_150];
        let mut profiles = BTreeMap::new();
        for &mhz in &freqs {
            let mut p = LagProfile::new(format!("f{mhz}"));
            for (i, &ms) in base_ms.iter().enumerate() {
                // Perfectly CPU-bound lags.
                let lag = ms * 2_150 / mhz as u64;
                p.push(LagEntry {
                    interaction_id: i,
                    input_time: SimTime::from_secs(10 * (i as u64 + 1)),
                    lag: SimDuration::from_millis(lag),
                    threshold: SimDuration::from_secs(1),
                    confidence: 1.0,
                });
            }
            profiles.insert(Frequency::from_mhz(mhz), p);
        }
        let cfg = OracleConfig::paper(Frequency::from_mhz(960));
        let oracle = build_oracle(&profiles, &cfg);
        for d in &oracle.decisions {
            // With perfect 1/f scaling and 10 % slack, only the fastest
            // frequency qualifies.
            prop_assert_eq!(d.freq, Frequency::from_mhz(2_150));
        }
        // The plan never goes below the efficient frequency.
        for ms in (0..130_000).step_by(250) {
            let f = oracle.plan.freq_at(SimTime::from_millis(ms));
            prop_assert!(f >= Frequency::from_mhz(960));
        }
    }

    /// The change sequence, computed from run boundaries only, marks
    /// exactly the frames a per-frame walk finds different from their
    /// predecessor — over any window, with recurring content and a
    /// near-copy (symbol 6: symbol 0 with one pixel changed) that a
    /// one-pixel budget hides.
    #[test]
    fn change_sequence_agrees_with_a_per_frame_walk(
        symbols in prop::collection::vec(0u8..7, 1..40),
        window in (0u32..45, 0u32..45),
        pixel_budget in 0u64..2,
    ) {
        let mut video = VideoStream::new(FRAME_PERIOD_30FPS);
        for (i, &s) in symbols.iter().enumerate() {
            let frame = if s == 6 {
                let mut f = (*frame_of(0)).clone();
                f.set(3, 3, f.get(3, 3) ^ 0x40);
                Arc::new(f)
            } else {
                frame_of(s)
            };
            video.push(SimTime::from_micros(i as u64 * 33_333), frame).unwrap();
        }
        let tolerance = MatchTolerance { value_tolerance: 0, pixel_budget };
        let suggester = Suggester::new(SuggesterConfig { tolerance, ..Default::default() });
        let compiled = Mask::new().compile(16, 16);
        let (from, to) = (window.0.min(window.1), window.0.max(window.1));
        let naive: Vec<bool> = (from..to.min(video.len() as u32))
            .map(|i| {
                i > 0 && {
                    let (prev, cur) = (video.get(i - 1).unwrap(), video.get(i).unwrap());
                    !tolerance.matches_compiled(&compiled, prev.buf, cur.buf)
                }
            })
            .collect();
        prop_assert_eq!(suggester.change_sequence(&video, from, to), naive);
    }

    /// The compiled mask and the digest-gated/early-exit comparison paths
    /// must agree exactly with the naive per-pixel reference
    /// (`Mask::count_diff`) on arbitrary frames, masks and tolerances —
    /// the fast paths are optimisations, never approximations.
    #[test]
    fn fast_matching_paths_agree_with_naive(
        dims in (1u32..24, 1u32..24),
        seed in proptest::num::u64::ANY,
        flips in prop::collection::vec(
            (proptest::num::u32::ANY, proptest::num::u32::ANY, proptest::num::u8::ANY),
            0..16,
        ),
        rects in prop::collection::vec((0u32..30, 0u32..30, 0u32..12, 0u32..12), 0..4),
        value_tolerance in 0u8..6,
        pixel_budget in 0u64..40,
    ) {
        let (w, h) = dims;
        let mut a = FrameBuffer::new(w, h);
        a.hash_paint(a.bounds(), seed);
        let mut b = a.clone();
        for &(x, y, v) in &flips {
            b.set(x % w, y % h, v);
        }
        // Rects may be empty, overlap, or hang past the frame edge.
        let mask: Mask = rects
            .iter()
            .map(|&(x0, y0, rw, rh)| Rect::new(x0, y0, rw, rh))
            .collect();
        let tolerance = MatchTolerance { value_tolerance, pixel_budget };

        let naive = mask.count_diff(&a, &b, value_tolerance);
        let compiled = mask.compile(w, h);
        prop_assert_eq!(compiled.count_diff(&a, &b, value_tolerance), naive);
        prop_assert_eq!(compiled.visible_area(), mask.visible_area(w, h));

        let naive_matches = naive <= pixel_budget;
        prop_assert_eq!(tolerance.matches(&mask, &a, &b), naive_matches);
        prop_assert_eq!(tolerance.matches_compiled(&compiled, &a, &b), naive_matches);

        for limit in [0, pixel_budget, naive.saturating_sub(1), naive, naive + 1] {
            prop_assert_eq!(mask.differs_more_than(&a, &b, value_tolerance, limit), naive > limit);
            prop_assert_eq!(
                compiled.differs_more_than(&a, &b, value_tolerance, limit),
                naive > limit
            );
            prop_assert_eq!(
                a.differs_more_than(&b, value_tolerance, limit),
                a.count_diff(&b, value_tolerance) > limit
            );
        }

        // The digest-gated EXACT path is exactly frame equality.
        prop_assert_eq!(MatchTolerance::EXACT.matches(&Mask::new(), &a, &b), a == b);
        prop_assert_eq!((a.digest() == b.digest()) || a != b, true);
    }

    /// Statistics invariants on arbitrary data.
    #[test]
    fn stats_invariants(values in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let f = five_number(&values).expect("non-empty");
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median);
        prop_assert!(f.median <= f.q3 && f.q3 <= f.max);
        prop_assert!(f.min <= f.mean && f.mean <= f.max);
        let (lo, hi) = f.whiskers();
        prop_assert!(lo >= f.min && hi <= f.max);

        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(percentile_sorted(&sorted, 0.0), sorted[0]);
        prop_assert_eq!(percentile_sorted(&sorted, 100.0), sorted[sorted.len() - 1]);

        let kde = kernel_density(&values, 32);
        prop_assert_eq!(kde.len(), 32);
        prop_assert!(kde.iter().all(|(_, d)| d.is_finite() && *d >= 0.0));
    }
}
