//! Golden backlog: three replay-fed days per engine under more offered
//! work than the plant can process, pinned to fixture files.
//!
//! The golden telemetry day runs without a replay feed, so its batch
//! queue never holds more than a few jobs. Here each engine runs
//! `ServiceSpec::prototype(engine, 42)` on a feed synthesized below:
//! three days of per-minute rows with a diurnal solar curve and about
//! 0.3 GB/min of offered work. Every period's released work joins the
//! plant's job queue, which grows past a thousand jobs, so the fixtures
//! pin the service's behaviour with a standing backlog. Each fixture
//! stores every 60th telemetry line (one per hour), the drain line, an
//! FNV-1a digest of every tick line and the full-precision `RunMetrics`
//! of the plant after the drain.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ins-service --test golden_backlog
//! ```

mod golden;

use std::f64::consts::PI;

use ins_core::metrics::RunMetrics;
use ins_core::system::WorkloadModel;
use ins_service::harness::{ServiceCore, ServiceSpec};
use ins_sim::replay::ReplayFeed;

const SEED: u64 = 42;
const DAYS: u64 = 3;
/// Peak irradiance per day, W: clear, overcast, broken cloud.
const PEAK_W: [f64; DAYS as usize] = [1500.0, 700.0, 1100.0];
/// Mean offered work, GB per minute.
const WORK_GB_PER_MIN: f64 = 0.3;
/// The queue depth the run must pass for the fixture to mean anything.
const MIN_PEAK_JOBS: usize = 1000;

/// Per-minute rows: sunlight from 06:00 to 19:00 on a half-sine, and
/// offered work swinging ±20 % around its mean over a 97-minute cycle.
fn feed() -> ReplayFeed {
    let mut text = String::from("# time_s, solar_w, work_gb\n");
    for minute in 0..DAYS * 1440 {
        let day = (minute / 1440) as usize;
        let hour = (minute % 1440) as f64 / 60.0;
        let solar = PEAK_W[day] * (PI * (hour - 6.0) / 13.0).sin().max(0.0);
        let work = WORK_GB_PER_MIN * (1.0 + 0.2 * (2.0 * PI * minute as f64 / 97.0).sin());
        text.push_str(&format!("{}, {solar:.3}, {work:.3}\n", minute * 60));
    }
    ReplayFeed::parse(&text).expect("synthesized feed parses")
}

fn queued_jobs(core: &ServiceCore) -> usize {
    match core.system().workload() {
        WorkloadModel::Batch { workload, .. } => workload.queued_jobs(),
        WorkloadModel::Stream { .. } => 0,
    }
}

/// Runs the feed to its end, drains, and renders the fixture text.
fn render(engine: &str) -> String {
    let mut spec = ServiceSpec::prototype(engine, SEED);
    spec.replay = Some(feed());
    let mut core = ServiceCore::try_new(spec).unwrap_or_else(|e| panic!("{engine}: {e}"));
    let mut lines = Vec::new();
    let mut peak_jobs = 0;
    while !core.feed_exhausted() {
        lines.push(core.tick().expect("not drained"));
        peak_jobs = peak_jobs.max(queued_jobs(&core));
    }
    assert!(
        peak_jobs > MIN_PEAK_JOBS,
        "{engine}: the batch queue peaked at {peak_jobs} jobs, not past {MIN_PEAK_JOBS}"
    );
    let drain = core.drain();
    let mut out = format!(
        "# engine={engine} seed={SEED} days={DAYS} ticks={} work_gb_per_min={WORK_GB_PER_MIN}\n",
        lines.len()
    );
    for line in lines.iter().step_by(60) {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&drain.line);
    out.push('\n');
    out.push_str(&format!("digest={:016x}\n", golden::fnv1a(&lines)));
    out.push_str(&format!("{:?}\n", RunMetrics::collect(core.system())));
    out
}

fn check(engine: &str) {
    golden::check(&format!("backlog_{engine}.txt"), &render(engine));
}

#[test]
fn insure_backlog_matches_golden() {
    check("insure");
}

#[test]
fn baseline_backlog_matches_golden() {
    check("baseline");
}

#[test]
fn noopt_backlog_matches_golden() {
    check("noopt");
}
