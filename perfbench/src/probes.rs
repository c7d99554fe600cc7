//! Layer probes: a timing decorator around the stock controller, a
//! step-by-step drive of a plant, and standalone timings of each layer's
//! public entry point at a workload's parameters.
//!
//! The benchmark only sees the program from outside, so a layer that
//! runs inside `InSituSystem::step` (bus settle, charger, KiBaM, rack,
//! workload, solar lookup) is timed by calling the same public function
//! on a standalone instance with the step's arguments. The plant drive
//! records how often the step makes each call, so the standalone timings
//! can be weighed into `core.unattributed_share`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ins_battery::{BatteryId, BatteryParams, BatteryUnit};
use ins_cluster::rack::Rack;
use ins_core::controller::{ControlAction, PowerController, SnapshotController, SystemObservation};
use ins_core::system::{InSituSystem, SystemEvent, WorkloadModel};
use ins_powernet::bus::LoadBus;
use ins_powernet::charger::ChargeController;
use ins_powernet::matrix::{Attachment, SwitchMatrix};
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::units::{Amps, Soc, Watts};
use ins_solar::SolarTrace;

use crate::report::Metric;
use crate::spans::Spans;
use crate::stats;

/// Control-call statistics shared by a [`TimedController`] and its
/// forks. Plain counters: they publish no other data.
#[derive(Debug)]
pub struct ControlStats {
    epoch: Instant,
    ns: AtomicU64,
    calls: AtomicU64,
    last_start: AtomicU64,
    last_end: AtomicU64,
}

impl ControlStats {
    /// Fresh counters measuring from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            last_start: AtomicU64::new(0),
            last_end: AtomicU64::new(0),
        })
    }

    /// Total ns spent in `control`.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// `control` calls so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// `(start, end)` of the latest call, ns since the epoch.
    #[must_use]
    pub fn last(&self) -> (u64, u64) {
        (
            self.last_start.load(Ordering::Relaxed),
            self.last_end.load(Ordering::Relaxed),
        )
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A [`PowerController`] decorator that times every `control` call of
/// the stock controller it wraps. Forks share the counters.
#[derive(Debug, Clone)]
pub struct TimedController<C> {
    inner: C,
    stats: Arc<ControlStats>,
}

impl<C> TimedController<C> {
    /// Wraps `inner`, counting into `stats`.
    #[must_use]
    pub fn new(inner: C, stats: Arc<ControlStats>) -> Self {
        Self { inner, stats }
    }
}

impl<C: SnapshotController + Clone + 'static> PowerController for TimedController<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        let start = Instant::now();
        let action = self.inner.control(obs);
        let end = Instant::now();
        let s = &self.stats;
        s.ns.fetch_add(
            u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.last_start.store(s.since_epoch(start), Ordering::Relaxed);
        s.last_end.store(s.since_epoch(end), Ordering::Relaxed);
        action
    }

    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        Some(Box::new(self.clone()))
    }
}

impl<C: SnapshotController + Clone + 'static> SnapshotController for TimedController<C> {
    fn clone_snapshot(&self) -> Box<dyn SnapshotController> {
        Box::new(self.clone())
    }
}

/// What a step-by-step plant drive observed.
#[derive(Debug, Clone, Default)]
pub struct PlantTrace {
    /// Host ns of every `InSituSystem::step`.
    pub step_ns: Vec<f64>,
    /// Steps driven.
    pub steps: u64,
    /// `control` calls made inside those steps.
    pub control_calls: u64,
    /// ns spent in `control`.
    pub control_ns: u64,
    /// Steps after which `matrix().generation()` had changed.
    pub rebuilds: u64,
    /// Steps with `k` discharging units, indexed by `k`.
    pub discharging_hist: Vec<u64>,
    /// Steps with `k` charging units, indexed by `k`.
    pub charging_hist: Vec<u64>,
    /// Steps with `k` isolated units, indexed by `k`.
    pub isolated_hist: Vec<u64>,
    /// Samples in the four system traces at the end of each drive.
    pub trace_samples: u64,
    /// `FaultInjected` events.
    pub faults_applied: u64,
    /// Simulated days driven.
    pub sim_days: f64,
    /// Snapshot times, µs.
    pub snapshot_us: Vec<f64>,
    /// Fork times, µs.
    pub fork_us: Vec<f64>,
}

impl PlantTrace {
    /// Drives `sys` to `end` one step at a time, recording a `core.step`
    /// span per step with the `core.control` call inside it as a child.
    /// `between` runs after each step, outside the step's span.
    pub fn drive(
        &mut self,
        sys: &mut InSituSystem,
        end: SimTime,
        control: &ControlStats,
        spans: &mut Spans,
        mut between: impl FnMut(&mut InSituSystem),
    ) {
        let units = sys.units().len();
        for hist in [
            &mut self.discharging_hist,
            &mut self.charging_hist,
            &mut self.isolated_hist,
        ] {
            hist.resize(hist.len().max(units + 1), 0);
        }
        let start_time = sys.now();
        let mut generation = sys.matrix().generation();
        while sys.now() < end {
            let (calls, control_ns) = (control.calls(), control.ns());
            spans.enter("core.step");
            sys.step();
            let step_end = spans.now();
            if control.calls() != calls {
                let (s, e) = control.last();
                spans.record("core.control", s, e);
            }
            let ns = spans.exit_at(step_end);
            self.control_calls += control.calls() - calls;
            self.control_ns += control.ns() - control_ns;
            self.step_ns.push(ns as f64);
            self.steps += 1;
            let m = sys.matrix();
            if m.generation() != generation {
                self.rebuilds += 1;
                generation = m.generation();
            }
            let d = m.discharging_units().len();
            let c = m.charging_units().len();
            self.discharging_hist[d] += 1;
            self.charging_hist[c] += 1;
            self.isolated_hist[units.saturating_sub(d + c)] += 1;
            between(sys);
        }
        self.sim_days += sys.now().since(start_time).as_secs() as f64 / 86_400.0;
        self.trace_samples += (sys.trace_solar().len()
            + sys.trace_load().len()
            + sys.trace_stored().len()
            + sys.trace_pack_voltage().len()) as u64;
        self.faults_applied +=
            sys.events()
                .count(|e| matches!(e, SystemEvent::FaultInjected(_))) as u64;
    }

    /// Times `snapshot` and `fork_from` on `sys`, `times` times each.
    pub fn time_fork(&mut self, sys: &InSituSystem, times: usize) {
        for _ in 0..times {
            let t = Instant::now();
            let snap = sys.snapshot().expect("benchmark controllers fork");
            self.snapshot_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            let fork = InSituSystem::fork_from(&snap, sys.fault_schedule().clone());
            self.fork_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            black_box(fork.now());
        }
    }

    /// Mean count per step from a histogram.
    fn mean(hist: &[u64]) -> f64 {
        let steps: u64 = hist.iter().sum();
        let total: u64 = hist.iter().enumerate().map(|(k, n)| k as u64 * n).sum();
        total as f64 / steps.max(1) as f64
    }

    /// Control calls per step.
    #[must_use]
    pub fn control_calls_per_step(&self) -> f64 {
        self.control_calls as f64 / self.steps.max(1) as f64
    }

    /// Mean ns per control call.
    #[must_use]
    pub fn control_ns_per_call(&self) -> f64 {
        self.control_ns as f64 / self.control_calls.max(1) as f64
    }
}

/// A plant's parameters, for the standalone layer timings.
pub struct Shape<'a> {
    /// Simulation step.
    pub dt: SimDuration,
    /// Battery cabinets.
    pub units: usize,
    /// A fresh workload model like the plant's.
    pub workload: fn() -> WorkloadModel,
    /// The plant's solar input.
    pub solar: &'a SolarTrace,
}

/// Standalone per-call timings of each layer, ns.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `BatteryUnit::discharge`.
    pub discharge: f64,
    /// `BatteryUnit::charge`.
    pub charge: f64,
    /// `BatteryUnit::rest`.
    pub rest: f64,
    /// `LoadBus::settle`, by number of discharging units.
    pub settle_by_units: Vec<f64>,
    /// `ChargeController::charge`, by number of charging units.
    pub charger_by_units: Vec<f64>,
    /// One membership rebuild: `discharging_units` + `charging_units`.
    pub membership: f64,
    /// `Rack::step`.
    pub rack_step: f64,
    /// `Rack::power_demand`.
    pub power_demand: f64,
    /// The workload model's `step`.
    pub workload_step: f64,
    /// `SolarTrace::power_at`.
    pub power_at: f64,
}

/// Calls per timed batch in the standalone timings.
const BATCH: usize = 64;
/// Timed batches per layer.
const BATCHES: usize = 200;

/// Median ns per call of `call`, timed in batches; `fresh` builds the
/// per-batch state outside the timing.
fn per_call<S>(mut fresh: impl FnMut() -> S, mut call: impl FnMut(&mut S, usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut state = fresh();
        let t = Instant::now();
        for i in 0..BATCH {
            call(&mut state, i);
        }
        samples.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        black_box(&mut state);
    }
    stats::median(&samples)
}

fn units(n: usize, soc: f64) -> Vec<BatteryUnit> {
    (0..n)
        .map(|i| {
            BatteryUnit::with_soc(
                BatteryId(i),
                BatteryParams::cabinet_24v(),
                Soc::saturating(soc),
            )
        })
        .collect()
}

impl LayerTimes {
    /// Times every layer at `shape`'s parameters.
    #[must_use]
    pub fn measure(shape: &Shape<'_>) -> Self {
        let dt = shape.dt;
        let dt_h = dt.as_hours();
        let util = (shape.workload)().utilization();
        let discharge = per_call(
            || units(1, 0.9),
            |u, _| {
                black_box(u[0].discharge(black_box(Amps::new(8.0)), dt_h));
            },
        );
        let charge = per_call(
            || units(1, 0.3),
            |u, _| {
                black_box(u[0].charge(black_box(Amps::new(8.0)), dt_h));
            },
        );
        let rest = per_call(|| units(1, 0.5), |u, _| u[0].rest(black_box(dt_h)));
        let bus = LoadBus::prototype();
        let settle_by_units = (0..=shape.units)
            .map(|k| {
                per_call(
                    || units(k, 0.9),
                    |us, _| {
                        let mut refs: Vec<&mut BatteryUnit> = us.iter_mut().collect();
                        black_box(bus.settle(
                            black_box(Watts::new(450.0)),
                            black_box(Watts::new(150.0)),
                            &mut refs,
                            dt_h,
                        ));
                    },
                )
            })
            .collect();
        let charger = ChargeController::prototype();
        let charger_by_units = (0..=shape.units)
            .map(|k| {
                per_call(
                    || units(k, 0.3),
                    |us, _| {
                        let mut refs: Vec<&mut BatteryUnit> = us.iter_mut().collect();
                        black_box(charger.charge(&mut refs, black_box(Watts::new(900.0)), dt_h));
                    },
                )
            })
            .collect();
        let membership = per_call(
            || {
                let mut m = SwitchMatrix::new(shape.units);
                for i in 0..shape.units {
                    let to = if i % 2 == 0 {
                        Attachment::DischargeBus
                    } else {
                        Attachment::ChargeBus
                    };
                    m.attach(BatteryId(i), to).expect("unit in range");
                }
                m
            },
            |m, _| {
                black_box(m.discharging_units());
                black_box(m.charging_units());
            },
        );
        let serving_rack = || {
            let mut rack = Rack::prototype();
            rack.set_target_vms(rack.total_vm_slots());
            for _ in 0..120 {
                rack.step(SimDuration::from_secs(10), util);
            }
            rack
        };
        let rack_step = per_call(serving_rack, |r, _| {
            black_box(r.step(dt, black_box(util)));
        });
        let power_demand = per_call(serving_rack, |r, _| {
            black_box(r.power_demand(black_box(util)));
        });
        let workload_step = per_call(shape.workload, |w, i| {
            let now = SimTime::from_secs(43_200 + i as u64 * dt.as_secs());
            w.step(now, dt, black_box(60.0));
        });
        let span = shape
            .solar
            .trace()
            .last()
            .map_or(86_400, |s| s.time.as_secs().max(1));
        let mut cursor = 0u64;
        let power_at = per_call(
            || (),
            |(), _| {
                cursor = (cursor + dt.as_secs()) % span;
                black_box(shape.solar.power_at(SimTime::from_secs(cursor)));
            },
        );
        Self {
            discharge,
            charge,
            rest,
            settle_by_units,
            charger_by_units,
            membership,
            rack_step,
            power_demand,
            workload_step,
            power_at,
        }
    }
}

fn weighted(by_units: &[f64], hist: &[u64]) -> f64 {
    let steps: u64 = hist.iter().sum();
    let total: f64 = by_units
        .iter()
        .zip(hist)
        .map(|(ns, &n)| ns * n as f64)
        .sum();
    total / steps.max(1) as f64
}

/// The universal per-layer metrics of a traced run, from a plant drive
/// and the standalone timings at its parameters.
#[must_use]
pub fn layer_metrics(plant: &PlantTrace, layers: &LayerTimes, solar_build_ms: f64) -> Vec<Metric> {
    let steps = stats::summarize(&plant.step_ns);
    let mut sorted = plant.step_ns.clone();
    sorted.sort_by(f64::total_cmp);
    let step_p99 = stats::percentile(&sorted, 0.99);
    let per_step = |x: f64| x / plant.steps.max(1) as f64;
    let settle = weighted(&layers.settle_by_units, &plant.discharging_hist);
    let charger = weighted(&layers.charger_by_units, &plant.charging_hist);
    let rest = layers.rest * PlantTrace::mean(&plant.isolated_hist);
    let rebuilds_per_step = per_step(plant.rebuilds as f64);
    let control_per_step = plant.control_calls_per_step();
    let control_ns = plant.control_ns_per_call();
    let attributed = control_ns * control_per_step
        + settle
        + charger
        + rest
        + layers.membership * rebuilds_per_step
        + layers.rack_step
        + layers.power_demand
        + layers.workload_step
        + layers.power_at;
    vec![
        Metric::timed("core.step_ns_p50", "ns", steps.p50, steps.n),
        Metric::timed("core.step_ns_p99", "ns", step_p99, steps.n),
        Metric::timed(
            "core.control_ns",
            "ns",
            control_ns,
            plant.control_calls as usize,
        ),
        Metric::new("core.control_calls_per_step", "count", control_per_step),
        Metric::timed(
            "core.snapshot_us",
            "us",
            stats::median(&plant.snapshot_us),
            plant.snapshot_us.len(),
        ),
        Metric::timed(
            "core.fork_us",
            "us",
            stats::median(&plant.fork_us),
            plant.fork_us.len(),
        ),
        Metric::new(
            "core.unattributed_share",
            "fraction",
            1.0 - attributed / steps.p50,
        ),
        Metric::new("battery.discharge_ns", "ns", layers.discharge),
        Metric::new("battery.charge_ns", "ns", layers.charge),
        Metric::new("battery.rest_ns", "ns", layers.rest),
        Metric::new("powernet.settle_ns", "ns", settle),
        Metric::new("powernet.charge_ns", "ns", charger),
        Metric::new("powernet.membership_ns", "ns", layers.membership),
        Metric::new(
            "powernet.membership_rebuilds_per_step",
            "count",
            rebuilds_per_step,
        ),
        Metric::new("cluster.rack_step_ns", "ns", layers.rack_step),
        Metric::new("cluster.power_demand_ns", "ns", layers.power_demand),
        Metric::new("workload.step_ns", "ns", layers.workload_step),
        Metric::new("solar.power_at_ns", "ns", layers.power_at),
        Metric::new("solar.build_ms", "ms", solar_build_ms),
        Metric::new("sim.trace_samples", "count", plant.trace_samples as f64),
        Metric::new(
            "sim.faults_applied",
            "count",
            plant.faults_applied as f64 / plant.sim_days.max(1e-9),
        ),
    ]
}
