//! Golden telemetry: one full supervised day per engine, pinned to
//! fixture files.
//!
//! The kill-resume tests compare two runs of the same build, so they
//! cannot notice a change that moves both runs the same way. These
//! fixtures can. Each engine runs `ServiceSpec::prototype(engine, 42)`
//! for 1440 ticks (one simulated day of 1-minute periods) with a stall
//! injected at tick 540 and a panic at tick 780, then drains. The
//! fixture stores every 60th telemetry line (one per hour), the drain
//! line and an FNV-1a digest of all 1440 tick lines.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ins-service --test golden_telemetry
//! ```

mod golden;

use ins_service::harness::{ServiceCore, ServiceSpec};
use ins_service::supervisor::EngineFault;

const SEED: u64 = 42;
const TICKS: u64 = 1440;
const STALL_AT: u64 = 540;
const PANIC_AT: u64 = 780;

/// Runs the supervised day and renders the fixture text.
fn render(engine: &str) -> String {
    let mut core = ServiceCore::try_new(ServiceSpec::prototype(engine, SEED))
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
    let mut lines = Vec::new();
    for tick in 0..TICKS {
        if tick == STALL_AT {
            core.inject(EngineFault::Stalled);
        }
        if tick == PANIC_AT {
            core.inject(EngineFault::Panicked);
        }
        lines.push(core.tick().expect("not drained"));
    }
    let drain = core.drain();
    let mut out = format!(
        "# engine={engine} seed={SEED} ticks={TICKS} stall_at={STALL_AT} panic_at={PANIC_AT}\n"
    );
    for line in lines.iter().step_by(60) {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&drain.line);
    out.push('\n');
    out.push_str(&format!("digest={:016x}\n", golden::fnv1a(&lines)));
    out
}

fn check(engine: &str) {
    golden::check(&format!("telemetry_{engine}.txt"), &render(engine));
}

#[test]
fn insure_day_matches_golden_telemetry() {
    check("insure");
}

#[test]
fn baseline_day_matches_golden_telemetry() {
    check("baseline");
}

#[test]
fn noopt_day_matches_golden_telemetry() {
    check("noopt");
}
