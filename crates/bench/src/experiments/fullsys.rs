//! Figures 20–21: full-system evaluation on the real in-situ workloads.
//!
//! InSURE vs the grid-green-style baseline on the seismic batch job
//! (Fig. 20) and the video stream (Fig. 21), each under high
//! (≈ 1000 W-class) and low (≈ 500 W-class) solar generation, across the
//! paper's six metrics: system uptime, load performance, average latency
//! (service-related); e-Buffer availability, service life, performance
//! per Ah (system-related).

use ins_core::metrics::RunMetrics;
use ins_core::system::WorkloadModel;
use ins_solar::trace::{high_generation_day, low_generation_day};

use super::{controller, day, run_day};
use crate::table::TextTable;

/// The six Fig. 20/21 metrics.
pub const METRICS: [&str; 6] = [
    "System Uptime",
    "Load Perf.",
    "Avg. Latency",
    "e-Buffer Avail.",
    "Service Life",
    "Perf. per Ah",
];

/// InSURE's improvement over the baseline on the six metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct FullSystemImprovement {
    /// Workload label (`seismic` / `video`).
    pub workload: &'static str,
    /// `true` for the high-generation day.
    pub high_solar: bool,
    /// Improvements in [`METRICS`] order (latency improvement is the
    /// *reduction*, so positive is better everywhere).
    pub improvements: [f64; 6],
    /// Raw metrics for the InSURE run.
    pub insure: RunMetrics,
    /// Raw metrics for the baseline run.
    pub baseline: RunMetrics,
}

/// Runs one workload × solar-level comparison.
#[must_use]
pub fn compare(workload: &'static str, high_solar: bool, seed: u64) -> FullSystemImprovement {
    let run = |name| {
        let solar = if high_solar {
            high_generation_day(seed)
        } else {
            low_generation_day(seed)
        };
        let model = match workload {
            "seismic" => WorkloadModel::seismic(),
            "video" => WorkloadModel::video(),
            other => panic!("unknown workload {other}"),
        };
        run_day(&mut day(solar, controller(name)).workload(model).build())
    };
    let (insure, baseline) = (run("insure"), run("baseline"));
    let improvement = |metric: fn(&RunMetrics) -> f64| insure.improvement_over(&baseline, metric);
    // Latency: improvement is the reduction relative to the baseline.
    let latency_improvement = if baseline.mean_latency_minutes > 1e-9 {
        (baseline.mean_latency_minutes - insure.mean_latency_minutes)
            / baseline.mean_latency_minutes
    } else {
        0.0
    };
    FullSystemImprovement {
        workload,
        high_solar,
        improvements: [
            improvement(|m| m.uptime),
            improvement(|m| m.throughput_gb_per_hour),
            latency_improvement,
            improvement(|m| m.mean_stored_energy_wh),
            improvement(|m| m.expected_service_life_days),
            improvement(|m| m.gb_per_amp_hour),
        ],
        insure,
        baseline,
    }
}

/// Runs the full Fig. 20 (seismic) or Fig. 21 (video) pair of bars.
#[must_use]
pub fn figure(workload: &'static str, seed: u64) -> Vec<FullSystemImprovement> {
    vec![
        compare(workload, true, seed),
        compare(workload, false, seed),
    ]
}

/// Renders a Fig. 20/21-style improvement table.
#[must_use]
pub fn render(rows: &[FullSystemImprovement]) -> String {
    let mut t = TextTable::new(vec!["metric", "high solar", "low solar"]);
    for (i, metric) in METRICS.iter().enumerate() {
        let get = |high: bool| {
            rows.iter()
                .find(|r| r.high_solar == high)
                .map_or(0.0, |r| r.improvements[i])
        };
        t.row(vec![
            (*metric).to_string(),
            crate::table::improvement(get(true)),
            crate::table::improvement(get(false)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seismic_insure_beats_baseline_overall() {
        let rows = figure("seismic", 7);
        for r in &rows {
            let mean: f64 = r.improvements.iter().sum::<f64>() / 6.0;
            assert!(
                mean > 0.0,
                "mean improvement {mean:.2} at high_solar={} — InSURE must win overall",
                r.high_solar
            );
            assert!(
                r.improvements[0] > 0.0,
                "uptime improvement {:.2} at high_solar={}",
                r.improvements[0],
                r.high_solar
            );
        }
    }

    #[test]
    fn video_insure_beats_baseline_overall() {
        let rows = figure("video", 7);
        for r in &rows {
            let mean: f64 = r.improvements.iter().sum::<f64>() / 6.0;
            assert!(
                mean > 0.0,
                "mean improvement {mean:.2} at high_solar={}",
                r.high_solar
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = compare("mystery", true, 1);
    }
}
