//! Property-based tests of the governor implementations: whatever load
//! sequence arrives, every policy must stay on the OPP table, respect its
//! own invariants, and remain deterministic.

use proptest::prelude::*;

use interlag_device::dvfs::{FixedGovernor, Governor, LoadSample};
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_governors::plan::{FrequencyPlan, PlanGovernor};
use interlag_governors::{Conservative, Interactive, Ondemand, Performance, Powersave, Schedutil};
use interlag_power::opp::{Frequency, OppTable};

fn arb_loads() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=100, 1..120)
}

fn drive(gov: &mut dyn Governor, loads: &[u8], table: &OppTable) -> Vec<u32> {
    gov.init(table);
    let period = gov.sample_period();
    let mut now = SimTime::ZERO;
    loads
        .iter()
        .map(|&pct| {
            now += period;
            let sample = LoadSample { busy: period * pct as u64 / 100, window: period };
            gov.on_sample(now, sample, table).as_khz()
        })
        .collect()
}

/// Fresh instances of the four kernel governor models, one constructor
/// per policy so each property can build as many independent copies as
/// it needs.
type GovernorCtor = fn(&OppTable) -> Box<dyn Governor>;

const KERNEL_GOVERNORS: [GovernorCtor; 4] = [
    |_| Box::new(Ondemand::default()),
    |_| Box::new(Conservative::default()),
    |t| Box::new(Interactive::for_table(t)),
    |_| Box::new(Schedutil::default()),
];

/// The frequency a fresh `gov` settles on after `n` samples of constant
/// `pct` load — long enough for every policy's ramps, dwell timers and
/// rate limits to converge.
fn steady_state(gov: &mut dyn Governor, pct: u8, n: usize, table: &OppTable) -> u32 {
    let loads = vec![pct; n];
    *drive(gov, &loads, table).last().expect("at least one sample")
}

proptest! {
    /// Every governor's every decision is an exact OPP-table frequency.
    #[test]
    fn decisions_stay_on_the_opp_table(loads in arb_loads()) {
        let table = OppTable::snapdragon_8074();
        let valid: Vec<u32> = table.frequencies().map(|f| f.as_khz()).collect();
        let mut governors: Vec<Box<dyn Governor>> = vec![
            Box::new(Ondemand::default()),
            Box::new(Conservative::default()),
            Box::new(Interactive::for_table(&table)),
            Box::new(Schedutil::default()),
            Box::new(FixedGovernor::new(table.min_freq())),
        ];
        for gov in governors.iter_mut() {
            for khz in drive(gov.as_mut(), &loads, &table) {
                prop_assert!(valid.contains(&khz), "{}: {khz} kHz off-table", gov.name());
            }
        }
    }

    /// Governors are pure functions of their input history: replaying the
    /// same loads yields the same decisions.
    #[test]
    fn decisions_are_deterministic(loads in arb_loads()) {
        let table = OppTable::snapdragon_8074();
        let mut a = Ondemand::default();
        let mut b = Ondemand::default();
        prop_assert_eq!(drive(&mut a, &loads, &table), drive(&mut b, &loads, &table));
        let mut a = Conservative::default();
        let mut b = Conservative::default();
        prop_assert_eq!(drive(&mut a, &loads, &table), drive(&mut b, &loads, &table));
    }

    /// Conservative never moves more than one 5 %-of-max step between
    /// consecutive samples (quantised outward to the neighbouring OPPs).
    #[test]
    fn conservative_steps_are_bounded(loads in arb_loads()) {
        let table = OppTable::snapdragon_8074();
        let mut gov = Conservative::default();
        let freqs = drive(&mut gov, &loads, &table);
        let step = table.max_freq().as_khz() as f64 * 0.05;
        // The *requested* frequency moves one step; the published
        // frequency quantises it onto the table (up when rising, down
        // when falling), so one sample can hop across an OPP gap on each
        // side of the request. Bound: one step plus twice the widest gap.
        let widest_gap = table
            .opps()
            .windows(2)
            .map(|p| p[1].freq.as_khz() - p[0].freq.as_khz())
            .max()
            .expect("multiple OPPs") as f64;
        for pair in freqs.windows(2) {
            let delta = (pair[1] as f64 - pair[0] as f64).abs();
            prop_assert!(delta <= step + 2.0 * widest_gap, "jumped {delta} kHz");
        }
    }

    /// Under saturation ondemand reaches the maximum immediately and
    /// never leaves it while the load stays high.
    #[test]
    fn ondemand_pins_max_under_saturation(n in 1usize..50) {
        let table = OppTable::snapdragon_8074();
        let loads = vec![100u8; n];
        let mut gov = Ondemand::default();
        let freqs = drive(&mut gov, &loads, &table);
        prop_assert!(freqs.iter().all(|&f| f == table.max_freq().as_khz()));
    }

    /// Sustained load is answered monotonically: for every kernel
    /// governor, the steady-state frequency under a heavier constant load
    /// is never below the steady-state frequency under a lighter one —
    /// and both are valid table OPPs.
    #[test]
    fn sustained_load_response_is_monotone(a in 0u8..=100, b in 0u8..=100) {
        let table = OppTable::snapdragon_8074();
        let valid: Vec<u32> = table.frequencies().map(|f| f.as_khz()).collect();
        let (lighter, heavier) = if a <= b { (a, b) } else { (b, a) };
        for make in KERNEL_GOVERNORS {
            let mut gov = make(&table);
            let f_light = steady_state(gov.as_mut(), lighter, 300, &table);
            let mut gov = make(&table);
            let f_heavy = steady_state(gov.as_mut(), heavier, 300, &table);
            prop_assert!(valid.contains(&f_light), "{}: {f_light} kHz off-table", gov.name());
            prop_assert!(valid.contains(&f_heavy), "{}: {f_heavy} kHz off-table", gov.name());
            prop_assert!(
                f_light <= f_heavy,
                "{}: steady {f_light} kHz at {lighter}% load > {f_heavy} kHz at {heavier}%",
                gov.name()
            );
        }
    }

    /// After any burst of saturation, sustained idleness decays every
    /// kernel governor back to the table floor: ondemand immediately,
    /// conservative by 5 % steps, interactive after its dwell,
    /// schedutil as its utilisation estimate drains.
    #[test]
    fn idle_decay_reaches_the_floor(busy_len in 1usize..40) {
        let table = OppTable::snapdragon_8074();
        let mut loads = vec![100u8; busy_len];
        loads.extend(std::iter::repeat_n(0u8, 300));
        for make in KERNEL_GOVERNORS {
            let mut gov = make(&table);
            let freqs = drive(gov.as_mut(), &loads, &table);
            let last = *freqs.last().expect("non-empty load sequence");
            prop_assert_eq!(
                last,
                table.min_freq().as_khz(),
                "{}: idles at {} kHz, floor is {} kHz",
                gov.name(),
                last,
                table.min_freq().as_khz()
            );
        }
    }

    /// The plan governor follows an arbitrary plan exactly (quantised up
    /// to the table).
    #[test]
    fn plan_governor_follows_any_plan(
        steps in prop::collection::vec((0u64..60_000, 200_000u32..2_200_000), 0..20),
    ) {
        let table = OppTable::snapdragon_8074();
        let mut plan = FrequencyPlan::new(table.min_freq());
        for &(ms, khz) in &steps {
            plan.set_from(SimTime::from_millis(ms), Frequency::from_khz(khz));
        }
        let mut gov = PlanGovernor::new("test-plan", plan.clone());
        gov.init(&table);
        let idle = LoadSample { busy: SimDuration::ZERO, window: SimDuration::from_millis(1) };
        for ms in (0..60_000).step_by(777) {
            let t = SimTime::from_millis(ms);
            let got = gov.on_sample(t, idle, &table);
            prop_assert_eq!(got, table.quantize_up(plan.freq_at(t)));
        }
    }

    /// A plan is quiet until its next step: the horizon lies strictly
    /// after the sample, and the plan holds one frequency up to it.
    #[test]
    fn plan_is_constant_until_its_quiet_horizon(
        steps in prop::collection::vec((0u64..60_000_000, 200_000u32..2_200_000), 0..20),
        probes in prop::collection::vec(0u64..61_000_000, 1..40),
    ) {
        let table = OppTable::snapdragon_8074();
        let mut plan = FrequencyPlan::new(table.min_freq());
        for &(us, khz) in &steps {
            plan.set_from(SimTime::from_micros(us), Frequency::from_khz(khz));
        }
        let gov = PlanGovernor::new("test-plan", plan.clone());
        // Random instants, and every step's own instant.
        let at_steps = plan.steps().iter().map(|&(t, _)| t);
        for at in probes.iter().map(|&us| SimTime::from_micros(us)).chain(at_steps) {
            let quiet = gov.quiet_until(at);
            prop_assert!(quiet > at);
            // The horizon is the next step, or never: no step lies inside
            // the quiet stretch, so the frequency holds across it.
            prop_assert!(quiet == SimTime::MAX || plan.steps().iter().any(|&(t, _)| t == quiet));
            prop_assert!(plan.steps().iter().all(|&(t, _)| t <= at || t >= quiet));
            prop_assert_eq!(plan.freq_at(quiet - SimDuration::from_micros(1)), plan.freq_at(at));
        }
    }

    /// Pinned policies never need another sample.
    #[test]
    fn pinned_policies_are_quiet_forever(us in 0u64..u64::MAX) {
        let table = OppTable::snapdragon_8074();
        let at = SimTime::from_micros(us);
        let pinned: [Box<dyn Governor>; 3] = [
            Box::new(FixedGovernor::new(table.min_freq())),
            Box::new(Performance),
            Box::new(Powersave),
        ];
        for gov in &pinned {
            prop_assert_eq!(gov.quiet_until(at), SimTime::MAX, "{}", gov.name());
        }
    }
}
