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
//!   (what remains is trace growth, amortized).
//! * Control steps must average at most 1.1: the order list the
//!   controller returns, and nothing else. The SPM selections, the rack's
//!   power mapping and the observation all reuse their lists.
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
use insure::core::system::InSituSystem;
use insure::fleet::{Fleet, FleetConfig};
use insure::sim::fault::FaultSchedule;
use insure::sim::time::{SimDuration, SimTime};
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

/// Mean allocations per step, split into steps without and with a
/// control call: `((steps, mean), (steps, mean))`.
type Budget = ((u64, f64), (u64, f64));

fn measure(inner: impl PowerController + 'static, dt_s: u64) -> Budget {
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
    let mut sys = InSituSystem::builder(solar, Box::new(controller))
        .time_step(SimDuration::from_secs(dt_s))
        .build();
    sys.run_until(SimTime::from_hms(12, 0, 0));
    let end = sys.now() + SimDuration::from_hours(72);
    let (mut quiet, mut control) = ((0u64, 0u64), (0u64, 0u64));
    while sys.now() < end {
        let (before, calls_before) = (allocations(), calls.get());
        sys.step();
        let allocated = allocations() - before;
        let bucket = if calls.get() == calls_before {
            &mut quiet
        } else {
            &mut control
        };
        bucket.0 += 1;
        bucket.1 += allocated;
    }
    let mean = |(steps, allocs): (u64, u64)| (steps, allocs as f64 / steps.max(1) as f64);
    (mean(quiet), mean(control))
}

fn assert_budget(controller: impl PowerController + 'static, dt_s: u64) {
    let name = controller.name();
    let ((quiet_steps, quiet), (control_steps, control)) = measure(controller, dt_s);
    eprintln!(
        "{name}, dt={dt_s}s: {quiet:.4} allocations over {quiet_steps} steps without control, \
         {control:.3} over {control_steps} control steps"
    );
    assert!(control_steps > 0, "{name}: the controller never ran");
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
    assert_budget(InsureController::default(), 10);
    assert_budget(BaselineController::new(), 10);
    assert_budget(NoOptController::new(), 10);
}

#[test]
fn step_loop_allocation_budget_at_60s() {
    assert_budget(InsureController::default(), 60);
    assert_budget(BaselineController::new(), 60);
    assert_budget(NoOptController::new(), 60);
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
