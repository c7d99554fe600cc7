//! Chaos suite: property tests of the full system under random
//! stochastic fault schedules.
//!
//! The contract under test is the fault subsystem's core promise: an
//! injected fault may change *performance*, never *correctness*. For
//! any seed and any arrival rate, a faulted run must keep every battery
//! SoC in [0, 1], never charge and discharge the same unit in the same
//! step, never panic or wedge, and produce finite metrics. Every step
//! also feeds each output trace's statistics while the trace keeps only
//! that step's sample.

use ins_core::controller::{BaselineController, InsureController, PowerController};
use ins_core::metrics::RunMetrics;
use ins_core::system::InSituSystem;
use ins_sim::fault::{FaultEvent, FaultKind, FaultSchedule, FaultTargets};
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;
use proptest::prelude::*;

const TARGETS: FaultTargets = FaultTargets {
    units: 3,
    servers: 4,
};

fn faulty_system(seed: u64, mean_minutes: u64, insure: bool) -> InSituSystem {
    let controller: Box<dyn PowerController> = if insure {
        Box::new(InsureController::default())
    } else {
        Box::new(BaselineController::new())
    };
    let schedule = FaultSchedule::stochastic(
        seed,
        SimDuration::from_hours(12),
        SimDuration::from_minutes(mean_minutes),
        TARGETS,
    );
    InSituSystem::builder(high_generation_day(seed), controller)
        .unit_count(TARGETS.units)
        .time_step(SimDuration::from_secs(30))
        .fault_schedule(schedule)
        .build()
}

/// Steps to noon (through dawn ramp-up and the fault-dense morning) while
/// asserting the per-step invariants.
fn run_with_invariants(mut sys: InSituSystem) -> RunMetrics {
    let end = SimTime::from_hms(12, 0, 0);
    let mut steps = 0u32;
    while sys.now() < end {
        sys.step();
        steps += 1;
        prop_assert!(steps <= 2000, "simulation wedged: clock stopped advancing");
        for trace in [
            sys.trace_solar(),
            sys.trace_load(),
            sys.trace_stored(),
            sys.trace_pack_voltage(),
        ] {
            prop_assert_eq!(trace.len(), 1, "{} retains history", trace.name());
            prop_assert_eq!(trace.stats().count(), u64::from(steps), "{}", trace.name());
        }
        for unit in sys.units() {
            let soc = unit.soc();
            prop_assert!(
                (0.0..=1.0).contains(&soc),
                "unit {} SoC {soc} escaped [0, 1]",
                unit.id()
            );
        }
        let charging = sys.matrix().charging_units();
        let discharging = sys.matrix().discharging_units();
        for id in &charging {
            prop_assert!(
                !discharging.contains(id),
                "unit {id} on both buses in one step"
            );
        }
    }
    let metrics = RunMetrics::collect(&sys);
    prop_assert!(metrics.uptime.is_finite() && (0.0..=1.0).contains(&metrics.uptime));
    prop_assert!(metrics.processed_gb.is_finite() && metrics.processed_gb >= 0.0);
    prop_assert!(metrics.mean_stored_energy_wh.is_finite());
    prop_assert!(metrics.gb_per_amp_hour.is_finite());
    metrics
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// InSURE holds every invariant under arbitrary fault storms.
    #[test]
    fn insure_survives_fault_storms(seed in 0u64..10_000, mean in 10u64..240) {
        run_with_invariants(faulty_system(seed, mean, true));
    }

    /// So does the baseline — faults must not corrupt the *plant* no
    /// matter how naive the policy driving it is.
    #[test]
    fn baseline_survives_fault_storms(seed in 0u64..10_000, mean in 10u64..240) {
        run_with_invariants(faulty_system(seed, mean, false));
    }

    /// Identical seed + schedule replays to identical metrics.
    #[test]
    fn faulty_runs_replay_deterministically(seed in 0u64..10_000) {
        let a = run_with_invariants(faulty_system(seed, 45, true));
        let b = run_with_invariants(faulty_system(seed, 45, true));
        prop_assert_eq!(a, b);
    }

    /// A checkpoint-path fault window breaks exactly one server's path
    /// while active and retires on schedule: broken right after
    /// injection, healed once `now` passes the window's expiry.
    #[test]
    fn checkpoint_fault_windows_retire_on_schedule(
        server in 0usize..4,
        duration_min in 2u64..120,
        start_min in 10u64..360,
    ) {
        let schedule = FaultSchedule::from_events(1, vec![FaultEvent {
            at: SimTime::from_secs(start_min * 60),
            kind: FaultKind::CheckpointWriteFailure {
                server,
                duration: SimDuration::from_minutes(duration_min),
            },
        }]);
        let mut sys = InSituSystem::builder(
            high_generation_day(7),
            Box::new(InsureController::default()),
        )
        .unit_count(TARGETS.units)
        .time_step(SimDuration::from_secs(30))
        .fault_schedule(schedule)
        .build();
        // Step to just past the injection instant: the path is broken.
        sys.run_until(SimTime::from_secs(start_min * 60 + 60));
        prop_assert!(
            sys.rack().servers()[server].checkpoint_broken(),
            "server {server} path must be broken inside the window"
        );
        // Step past the window's expiry: the repair retires the fault.
        sys.run_until(SimTime::from_secs((start_min + duration_min) * 60 + 60));
        prop_assert!(
            !sys.rack().servers()[server].checkpoint_broken(),
            "server {server} path must heal once the window expires"
        );
    }
}

/// Regression pin: a fixed seed + fixed fault schedule replays a *full
/// day* to bit-identical metrics and a bit-identical event log. Any
/// hidden nondeterminism (hash-ordering, wall-clock leakage, uninjected
/// randomness) breaks this immediately.
#[test]
fn full_day_replay_is_bit_identical() {
    let run = || {
        let mut sys = faulty_system(99, 30, true);
        sys.run_until(SimTime::from_hms(23, 59, 30));
        sys
    };
    let a = run();
    let b = run();
    assert_eq!(RunMetrics::collect(&a), RunMetrics::collect(&b));
    assert_eq!(a.events().entries(), b.events().entries());
    assert_eq!(a.now(), b.now());
    assert_eq!(
        a.fault_schedule().remaining(),
        b.fault_schedule().remaining()
    );
    for (ua, ub) in a.units().iter().zip(b.units()) {
        assert_eq!(ua.soc().to_bits(), ub.soc().to_bits(), "unit {}", ua.id());
    }
}
