//! The DVFS decorators whose `on_sample` has side effects — a rejection
//! draw, heat integration, a wall-clock stall — keep the default
//! `Governor::quiet_until`, so wrapped around a plan that promises quiet
//! stretches they still see every sample its period asks for: skipping
//! samples under them would change chaos outcomes.

use interlag_device::device::{CaptureMode, Device, DeviceConfig};
use interlag_device::dvfs::{Governor, LoadSample};
use interlag_device::script::DeviceScript;
use interlag_evdev::replay::ReplayAgent;
use interlag_evdev::rng::SplitMix64;
use interlag_evdev::time::{SimDuration, SimTime};
use interlag_faults::{
    DvfsFaults, FaultyGovernor, ThermalEnvelope, ThermalFaults, WedgeFaults, WedgedGovernor,
};
use interlag_governors::plan::{FrequencyPlan, PlanGovernor};
use interlag_power::opp::{Frequency, OppTable};

/// Two simulated seconds at the plan's 1 ms period and 1 ms quanta.
const UNTIL_MS: u64 = 2_000;

/// Counts the samples that reach the wrapped governor; forwards
/// `quiet_until` only when `forward` is set.
struct Counted<'a> {
    inner: &'a mut dyn Governor,
    forward: bool,
    samples: u64,
}

impl<'a> Counted<'a> {
    fn new(inner: &'a mut dyn Governor, forward: bool) -> Self {
        Counted { inner, forward, samples: 0 }
    }
}

impl Governor for Counted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, table: &OppTable) -> Frequency {
        self.inner.init(table)
    }

    fn sample_period(&self) -> SimDuration {
        self.inner.sample_period()
    }

    fn on_sample(&mut self, now: SimTime, load: LoadSample, table: &OppTable) -> Frequency {
        self.samples += 1;
        self.inner.on_sample(now, load, table)
    }

    fn on_input(&mut self, now: SimTime, table: &OppTable) -> Option<Frequency> {
        self.inner.on_input(now, table)
    }

    fn quiet_until(&self, at: SimTime) -> SimTime {
        if self.forward {
            self.inner.quiet_until(at)
        } else {
            at
        }
    }
}

/// A plan with three steps, two of them off the millisecond grid.
fn plan(table: &OppTable) -> PlanGovernor {
    let mut plan = FrequencyPlan::new(table.min_freq());
    plan.set_from(SimTime::from_micros(333_300), table.max_freq());
    plan.set_from(SimTime::from_millis(900), table.min_freq());
    plan.set_from(SimTime::from_micros(1_500_500), table.max_freq());
    PlanGovernor::new("plan", plan)
}

fn run(device: &Device, governor: &mut dyn Governor) {
    let script = DeviceScript::new();
    let replayer = ReplayAgent::new(script.record_trace());
    device.run(&script, replayer, governor, SimTime::from_millis(UNTIL_MS)).expect("clean run");
}

#[test]
fn side_effecting_decorators_still_receive_every_dense_sample() {
    let device =
        Device::new(DeviceConfig { capture: CaptureMode::None, ..DeviceConfig::default() });
    let table = device.config().opps.clone();
    let count = |wrap: &dyn Fn(&mut dyn Governor)| {
        let mut plan = plan(&table);
        let mut counted = Counted::new(&mut plan, true);
        wrap(&mut counted);
        counted.samples
    };

    // The plan alone samples only at its steps; hiding the hook restores
    // one sample per quantum.
    assert_eq!(count(&|g| run(&device, g)), 3);
    let mut plan_gov = plan(&table);
    let mut dense = Counted::new(&mut plan_gov, false);
    run(&device, &mut dense);
    assert_eq!(dense.samples, UNTIL_MS);

    let faulty = count(&|g| {
        let mut g = FaultyGovernor::new(g, DvfsFaults { reject_rate: 0.3 }, SplitMix64::new(1));
        run(&device, &mut g);
    });
    assert_eq!(faulty, UNTIL_MS, "FaultyGovernor");

    let thermal = count(&|g| {
        let mut g = ThermalEnvelope::new(g, ThermalFaults::for_table(&table));
        run(&device, &mut g);
    });
    assert_eq!(thermal, UNTIL_MS, "ThermalEnvelope");

    let wedged = count(&|g| {
        let mut rng = SplitMix64::new(2);
        let mut g = WedgedGovernor::new(g, WedgeFaults::none(), &mut rng);
        run(&device, &mut g);
    });
    assert_eq!(wedged, UNTIL_MS, "WedgedGovernor");
}
