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
//! The plant's traces keep only their latest sample, so the digest is
//! taken over the samples this test records after every step.
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
use ins_sim::trace::Sample;
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

fn trace_digest(traces: &[Vec<Sample>; 4]) -> u64 {
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
    let mut traces: [Vec<Sample>; 4] = Default::default();
    while sys.now() < SimTime::ZERO + HORIZON {
        sys.step();
        let latest = [
            sys.trace_solar(),
            sys.trace_load(),
            sys.trace_stored(),
            sys.trace_pack_voltage(),
        ]
        .map(|trace| trace.last());
        for (samples, last) in traces.iter_mut().zip(latest) {
            samples.extend(last);
        }
    }

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
    let digest = trace_digest(&traces);
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
