//! Golden step loop: full-precision run results pinned to fixture files.
//!
//! The service telemetry fixtures print 3-decimal fields, so they cannot
//! notice a reordered float sum inside `InSituSystem::step`. These can.
//! Each controller runs three simulated days (sunny, cloudy, rainy) in
//! four cases: a 60 s and a 10 s step, each without faults and under a
//! seeded `FaultSchedule::stochastic_extended` with
//! `CheckpointPolicy::prototype()`. A case records the full `{:?}` of
//! `RunMetrics::collect`, every unit's discharge throughput and an
//! FNV-1a digest of the four system traces (sample times and value bits).
//!
//! The same cases are the oracle for `SystemBuilder::latest_samples_only`:
//! a plant that keeps only each trace's latest sample must report exactly
//! what the full-history plant does, from scratch and forked at noon.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ins-core --test golden_step
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ins_core::controller::{
    BaselineController, InsureController, NoOptController, PowerController,
};
use ins_core::metrics::RunMetrics;
use ins_core::system::{InSituSystem, SystemBuilder};
use ins_sim::fault::{FaultSchedule, FaultTargets};
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::trace::Trace;
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::DayWeather;
use ins_workload::checkpoint::CheckpointPolicy;

const SOLAR_SEED: u64 = 2015;
const FAULT_SEED: u64 = 613;
const DAYS: u64 = 3;
const STEPS_S: [u64; 2] = [60, 10];
const TARGETS: FaultTargets = FaultTargets {
    units: 3,
    servers: 4,
};

fn fixture_path(controller: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("step_{controller}.txt"))
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trace_digest(traces: [&Trace; 4]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for trace in traces {
        for s in trace {
            fnv1a(&mut hash, &s.time.as_secs().to_le_bytes());
            fnv1a(&mut hash, &s.value.to_bits().to_le_bytes());
        }
    }
    hash
}

const HORIZON: SimDuration = SimDuration::from_hours(24 * DAYS);

/// The plant of one case, unbuilt.
fn case(make: fn() -> Box<dyn PowerController>, dt_s: u64, faulty: bool) -> SystemBuilder {
    let solar = SolarTraceBuilder::new()
        .seed(SOLAR_SEED)
        .build_days(&DayWeather::ALL);
    let builder = InSituSystem::builder(solar, make())
        .unit_count(TARGETS.units)
        .time_step(SimDuration::from_secs(dt_s));
    if !faulty {
        return builder;
    }
    builder
        .fault_schedule(FaultSchedule::stochastic_extended(
            FAULT_SEED,
            HORIZON,
            SimDuration::from_hours(3),
            TARGETS,
        ))
        .checkpoints(CheckpointPolicy::prototype())
}

/// Runs one case and renders its fixture section.
fn render_case(make: fn() -> Box<dyn PowerController>, dt_s: u64, faulty: bool) -> String {
    let mut sys = case(make, dt_s, faulty).build();
    sys.run_until(SimTime::ZERO + HORIZON);

    let mut out = format!(
        "[dt={dt_s}s faults={}]\n",
        if faulty { "extended" } else { "none" }
    );
    let _ = writeln!(out, "metrics={:?}", RunMetrics::collect(&sys));
    for u in sys.units() {
        let _ = writeln!(
            out,
            "unit={} discharge_throughput_ah={:?}",
            u.id().0,
            u.discharge_throughput().value()
        );
    }
    let digest = trace_digest([
        sys.trace_solar(),
        sys.trace_load(),
        sys.trace_stored(),
        sys.trace_pack_voltage(),
    ]);
    let _ = writeln!(out, "traces={digest:016x}");
    out
}

fn render(name: &str, make: fn() -> Box<dyn PowerController>) -> String {
    let mut out = format!(
        "# controller={name} days={DAYS} solar_seed={SOLAR_SEED} fault_seed={FAULT_SEED}\n"
    );
    for dt_s in STEPS_S {
        for faulty in [false, true] {
            out.push_str(&render_case(make, dt_s, faulty));
        }
    }
    out
}

fn check(name: &str, make: fn() -> Box<dyn PowerController>) {
    let actual = render(name, make);
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create fixtures dir");
        }
        fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_GOLDEN=1)", path.display()));
    assert!(
        actual == expected,
        "{name}: step loop differs from {}\n--- expected\n{expected}--- actual\n{actual}",
        path.display()
    );
}

#[test]
fn insure_matches_golden_step_loop() {
    check("insure", || Box::new(InsureController::default()));
}

#[test]
fn baseline_matches_golden_step_loop() {
    check("baseline", || Box::new(BaselineController::new()));
}

#[test]
fn noopt_matches_golden_step_loop() {
    check("noopt", || Box::new(NoOptController::new()));
}

/// Everything a plant reports that needs no sample history: the metrics,
/// every unit's discharge throughput, the event log, and each trace's
/// last sample and statistics.
fn summary(sys: &InSituSystem) -> String {
    let mut out = format!("metrics={:?}\n", RunMetrics::collect(sys));
    for u in sys.units() {
        let _ = writeln!(
            out,
            "unit={} discharge_throughput_ah={:?}",
            u.id().0,
            u.discharge_throughput().value()
        );
    }
    let _ = writeln!(out, "events={:?}", sys.events().entries());
    for trace in [
        sys.trace_solar(),
        sys.trace_load(),
        sys.trace_stored(),
        sys.trace_pack_voltage(),
    ] {
        let _ = writeln!(
            out,
            "{}: last={:?} stats={:?}",
            trace.name(),
            trace.last(),
            trace.stats()
        );
    }
    out
}

/// Runs `builder`'s plant to the horizon, and a fork of it snapshotted at
/// noon on the first day; returns both, scratch first.
fn run_and_fork(builder: SystemBuilder) -> [InSituSystem; 2] {
    let mut sys = builder.build();
    sys.run_until(SimTime::from_hms(12, 0, 0));
    let snapshot = sys.snapshot().expect("stock controllers fork");
    let mut fork = InSituSystem::fork_from(&snapshot, sys.fault_schedule().clone());
    for plant in [&mut sys, &mut fork] {
        plant.run_until(SimTime::ZERO + HORIZON);
    }
    [sys, fork]
}

fn check_latest_only(name: &str, make: fn() -> Box<dyn PowerController>) {
    for dt_s in STEPS_S {
        for faulty in [false, true] {
            let full = run_and_fork(case(make, dt_s, faulty));
            let latest = run_and_fork(case(make, dt_s, faulty).latest_samples_only());
            for (path, (a, b)) in ["scratch", "forked at noon"]
                .into_iter()
                .zip(full.iter().zip(&latest))
            {
                let retained = [
                    b.trace_solar(),
                    b.trace_load(),
                    b.trace_stored(),
                    b.trace_pack_voltage(),
                ]
                .map(Trace::len);
                assert_eq!(retained, [1; 4], "{name}, {path}: latest-only traces");
                let (a, b) = (summary(a), summary(b));
                assert!(
                    a == b,
                    "{name}, dt={dt_s}s, faults={faulty}, {path}: a latest-only plant \
                     reports differently\n--- full history\n{a}--- latest only\n{b}"
                );
            }
        }
    }
}

#[test]
fn insure_latest_only_plant_matches_full_history() {
    check_latest_only("insure", || Box::new(InsureController::default()));
}

#[test]
fn baseline_latest_only_plant_matches_full_history() {
    check_latest_only("baseline", || Box::new(BaselineController::new()));
}

#[test]
fn noopt_latest_only_plant_matches_full_history() {
    check_latest_only("noopt", || Box::new(NoOptController::new()));
}
