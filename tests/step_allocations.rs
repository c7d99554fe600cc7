//! Allocation budgets of the steady-state step loop, the fleet tick and
//! forking.
//!
//! Every experiment, sweep cell, fleet site and the live daemon spends its
//! time in `InSituSystem::step`, so the loop reuses its buffers instead of
//! allocating per step. These tests pin that: they drive the prototype
//! plant (seismic workload) under each stock controller (InSURE, the
//! baseline, Non-Opt) for three simulated days after a half-day warm-up,
//! counting heap allocations per step with a counting global allocator,
//! and split the steps by whether the controller ran in them.
//!
//! * Steps without a control call must average below 0.01 allocations
//!   (what remains is trace growth, amortized). At a 60 s step the test
//!   runs a 5-minute control period, so it has such steps too: at the
//!   default 1-minute period every 60 s step runs the controller. On a
//!   plant built with `latest_samples_only` they must allocate exactly
//!   0 times, except in the few steps that append to one of the plant's
//!   logs (its events, batch queue or completed jobs), whose
//!   `Vec`s still grow by doubling: its traces replace their one sample
//!   and seal no chunks.
//! * Control steps must average at most 1.1: the order list the
//!   controller returns, and nothing else. The SPM selections, the rack's
//!   power mapping and the observation all reuse their lists.
//! * Under InSURE at a 60 s step, control steps whose solar sample and
//!   rack draw are both 0 W must average below 0.01: a dark, idle period
//!   returns an empty action without building an order list, and the
//!   step builds no member list for its empty buses.
//!
//! A fleet tick (4 sites, each running its 1-minute control period once
//! per 1-minute routing tick) must average at most 1.1 allocations per
//! site control call: the sites' returned order lists. The router reuses
//! its per-tick score, order and capacity lists.
//!
//! The allocator also counts bytes, which pins that a snapshot plus a
//! fork costs about the same after one simulated day as after ten: the
//! solar input and the sealed trace chunks are shared, not copied.
//!
//! The test harness runs tests on parallel threads, so the counters are
//! thread-local: each test counts only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use insure::core::controller::{
    BaselineController, ControlAction, InsureController, NoOptController, PowerController,
    SystemObservation,
};
use insure::core::system::{InSituSystem, WorkloadModel};
use insure::fleet::{Fleet, FleetConfig};
use insure::sim::fault::FaultSchedule;
use insure::sim::time::{SimDuration, SimTime};
use insure::sim::trace::Trace;
use insure::solar::trace::SolarTraceBuilder;
use insure::solar::weather::DayWeather;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes (a `realloc` counts its new
/// size).
fn count_one(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is two thread-local counter bumps, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A stock controller, counting its `control` calls.
struct Counted<C> {
    inner: C,
    calls: Rc<Cell<u64>>,
}

impl<C: PowerController> PowerController for Counted<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        self.calls.set(self.calls.get() + 1);
        self.inner.control(obs)
    }
}

/// Mean allocations per step over three sets of steps, each as
/// `(steps, mean)`.
struct Budget {
    /// Steps without a control call.
    quiet: (u64, f64),
    /// The steps without a control call that append to none of the
    /// plant's logs ([`log_lengths`]).
    quiet_unlogged: (u64, f64),
    /// Steps with a control call.
    control: (u64, f64),
    /// The control steps whose solar sample and rack draw are both 0 W.
    dark_control: (u64, f64),
}

/// The lengths of the plant's append-only logs: events, and the batch
/// workload's queue and completed jobs.
fn log_lengths(sys: &InSituSystem) -> [usize; 3] {
    let (queued, completed) = match sys.workload() {
        WorkloadModel::Batch { workload, .. } => {
            (workload.queued_jobs(), workload.completed().len())
        }
        WorkloadModel::Stream { .. } => (0, 0),
    };
    [sys.events().len(), queued, completed]
}

fn measure(
    inner: impl PowerController + 'static,
    dt_s: u64,
    period_min: u64,
    latest_only: bool,
) -> Budget {
    let solar = SolarTraceBuilder::new().seed(11).build_days(&[
        DayWeather::Sunny,
        DayWeather::Cloudy,
        DayWeather::Rainy,
        DayWeather::Sunny,
    ]);
    let calls = Rc::new(Cell::new(0));
    let controller = Counted {
        inner,
        calls: Rc::clone(&calls),
    };
    let mut builder = InSituSystem::builder(solar, Box::new(controller))
        .time_step(SimDuration::from_secs(dt_s))
        .control_period(SimDuration::from_minutes(period_min));
    if latest_only {
        builder = builder.latest_samples_only();
    }
    let mut sys = builder.build();
    sys.run_until(SimTime::from_hms(12, 0, 0));
    let end = sys.now() + SimDuration::from_hours(72);
    let [mut quiet, mut quiet_unlogged, mut control, mut dark_control] = [(0u64, 0u64); 4];
    while sys.now() < end {
        let (before, calls_before, logs_before) = (allocations(), calls.get(), log_lengths(&sys));
        sys.step();
        let allocated = allocations() - before;
        let count = |bucket: &mut (u64, u64)| {
            bucket.0 += 1;
            bucket.1 += allocated;
        };
        if calls.get() == calls_before {
            count(&mut quiet);
            if log_lengths(&sys)
                .iter()
                .zip(logs_before)
                .all(|(&n, m)| n <= m)
            {
                count(&mut quiet_unlogged);
            }
            continue;
        }
        count(&mut control);
        let dark = |trace: &Trace| trace.last().is_some_and(|s| s.value == 0.0);
        if dark(sys.trace_solar()) && dark(sys.trace_load()) {
            count(&mut dark_control);
        }
    }
    let mean = |(steps, allocs): (u64, u64)| (steps, allocs as f64 / steps.max(1) as f64);
    Budget {
        quiet: mean(quiet),
        quiet_unlogged: mean(quiet_unlogged),
        control: mean(control),
        dark_control: mean(dark_control),
    }
}

fn assert_budget(controller: impl PowerController + 'static, dt_s: u64, period_min: u64) {
    let name = controller.name();
    let Budget {
        quiet: (quiet_steps, quiet),
        control: (control_steps, control),
        ..
    } = measure(controller, dt_s, period_min, false);
    eprintln!(
        "{name}, dt={dt_s}s: {quiet:.4} allocations over {quiet_steps} steps without control, \
         {control:.3} over {control_steps} control steps"
    );
    assert!(control_steps > 0, "{name}: the controller never ran");
    assert!(quiet_steps > 0, "{name}: every step ran the controller");
    assert!(
        quiet < 0.01,
        "{name}, dt={dt_s}s: steps without a control call allocate {quiet:.4} times on average"
    );
    assert!(
        control <= 1.1,
        "{name}, dt={dt_s}s: control steps allocate {control:.3} times on average"
    );
}

#[test]
fn step_loop_allocation_budget_at_10s() {
    assert_budget(InsureController::default(), 10, 1);
    assert_budget(BaselineController::new(), 10, 1);
    assert_budget(NoOptController::new(), 10, 1);
}

#[test]
fn step_loop_allocation_budget_at_60s() {
    assert_budget(InsureController::default(), 60, 5);
    assert_budget(BaselineController::new(), 60, 5);
    assert_budget(NoOptController::new(), 60, 5);
}

/// At a 10 s step, five of every six steps run without the 1-minute
/// control call; at 60 s every step runs it.
fn assert_latest_only_quiet_steps_do_not_allocate(controller: impl PowerController + 'static) {
    let name = controller.name();
    let Budget {
        quiet: (quiet_steps, quiet),
        quiet_unlogged: (steps, mean),
        ..
    } = measure(controller, 10, 1, true);
    eprintln!(
        "{name}, dt=10s, latest only: {mean:.4} allocations over {steps} steps without \
         control or log growth, {quiet:.4} over all {quiet_steps} steps without control"
    );
    assert!(
        steps > 0,
        "{name}: every step ran the controller or grew a log"
    );
    assert!(
        mean == 0.0,
        "{name}: a latest-only plant's steps without a control call or log growth \
         allocate {mean:.4} times on average"
    );
}

#[test]
fn latest_only_steps_without_control_do_not_allocate() {
    assert_latest_only_quiet_steps_do_not_allocate(InsureController::default());
    assert_latest_only_quiet_steps_do_not_allocate(BaselineController::new());
    assert_latest_only_quiet_steps_do_not_allocate(NoOptController::new());
}

#[test]
fn dark_idle_control_steps_do_not_allocate_under_insure() {
    let Budget {
        dark_control: (steps, mean),
        ..
    } = measure(InsureController::default(), 60, 1, false);
    eprintln!("InSURE, dt=60s: {mean:.4} allocations over {steps} dark control steps");
    assert!(steps > 0, "the plant never had a dark control step");
    assert!(
        mean < 0.01,
        "dark control steps with the rack off allocate {mean:.4} times on average"
    );
}

#[test]
fn fleet_tick_allocation_budget() {
    let config = FleetConfig::new(20150613, 4);
    let sites = config.sites as f64;
    let mut fleet = Fleet::new(config);
    // An hour's warm-up grows every reused list to its working size.
    for _ in 0..60 {
        fleet.step_tick();
    }
    let ticks = 23 * 60;
    let before = allocations();
    for _ in 0..ticks {
        fleet.step_tick();
    }
    // Each site runs one control call per tick (see the module docs).
    let per_control = (allocations() - before) as f64 / (ticks as f64 * sites);
    eprintln!("fleet: {per_control:.3} allocations per site control call over {ticks} ticks");
    assert!(
        per_control <= 1.1,
        "a fleet tick allocates {per_control:.3} times per site control call"
    );
}

/// Bytes allocated by one `snapshot()` plus one `fork_from()` of the
/// prototype plant built on a `days`-day input and run to its end.
fn fork_bytes(days: usize) -> u64 {
    let weather: Vec<DayWeather> = DayWeather::ALL.into_iter().cycle().take(days).collect();
    let solar = SolarTraceBuilder::new().seed(11).build_days(&weather);
    let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .time_step(SimDuration::from_secs(60))
        .build();
    sys.run_until(SimTime::from_secs(days as u64 * 86_400));
    let before = bytes();
    let snapshot = sys.snapshot().expect("the stock controller forks");
    let forked = InSituSystem::fork_from(&snapshot, FaultSchedule::empty());
    let allocated = bytes() - before;
    drop((snapshot, forked));
    allocated
}

#[test]
fn snapshot_and_fork_bytes_do_not_grow_with_the_horizon() {
    let (one, ten) = (fork_bytes(1), fork_bytes(10));
    eprintln!("snapshot + fork: {one} bytes after 1 day, {ten} bytes after 10 days");
    assert!(
        ten <= 2 * one,
        "snapshot + fork bytes grew from {one} after 1 day to {ten} after 10 days"
    );
}
