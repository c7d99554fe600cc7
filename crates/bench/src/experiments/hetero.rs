//! Heterogeneous-node system experiment (the §6.2 / Table 7 claim, taken
//! end to end).
//!
//! Table 7 measures single-node efficiency; §6.2 then argues that "by
//! using low-power servers, InSURE can improve data throughput by
//! 5X~15X" *at the system level*, because the low-power rack fits inside
//! the solar budget with fewer on/off cycles. This experiment runs the
//! same solar day through a Xeon rack and a Core i7 rack, both under the
//! InSURE controller, processing the same benchmark iteratively.

use ins_cluster::profiles::ServerProfile;
use ins_cluster::rack::Rack;
use ins_core::metrics::RunMetrics;
use ins_core::system::WorkloadModel;
use ins_solar::trace::high_generation_day;
use ins_workload::benchmark::{by_name, MicroBenchmark};
use ins_workload::scaling::ScalingModel;
use ins_workload::stream::{StreamSpec, StreamWorkload};

use super::{controller, day, run_day};

/// Result of one rack-profile run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroRun {
    /// Server profile name.
    pub server: String,
    /// Full metrics.
    pub metrics: RunMetrics,
    /// Data processed per kWh of load energy — the system-level analogue
    /// of Table 7's rightmost column.
    pub gb_per_kwh: f64,
}

/// Builds the saturated workload for `bench` on the given profile (each
/// profile has its own measured node rate and utilization).
fn workload_for(bench: &MicroBenchmark, profile: &ServerProfile) -> WorkloadModel {
    let point = bench.point_for(profile);
    let per_vm_rate = bench.input_gb / (point.exec_time_s / 3600.0) / f64::from(profile.vm_slots);
    let peak_capacity = per_vm_rate * 8f64.powf(0.9);
    WorkloadModel::Stream {
        workload: StreamWorkload::new(StreamSpec {
            rate_gb_per_min: peak_capacity * 1.5 / 60.0,
        }),
        scaling: ScalingModel::new(per_vm_rate, 0.9),
        utilization: bench.utilization(profile),
    }
}

/// Runs one profile for a full high-generation day.
fn run_profile(bench: &MicroBenchmark, profile: ServerProfile, seed: u64) -> HeteroRun {
    let name = profile.name.clone();
    let workload = workload_for(bench, &profile);
    let metrics = run_day(
        &mut day(high_generation_day(seed), controller("insure"))
            .rack(Rack::new(profile, 4))
            .workload(workload)
            .build(),
    );
    let gb_per_kwh = if metrics.load_kwh > 1e-9 {
        metrics.processed_gb / metrics.load_kwh
    } else {
        0.0
    };
    HeteroRun {
        server: name,
        metrics,
        gb_per_kwh,
    }
}

/// The full comparison: Xeon rack vs Core i7 rack on one benchmark.
///
/// # Panics
///
/// Panics if `benchmark` is not in the catalog.
#[must_use]
pub fn compare(benchmark: &str, seed: u64) -> (HeteroRun, HeteroRun) {
    let bench = by_name(benchmark).unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
    (
        run_profile(&bench, ServerProfile::xeon_proliant(), seed),
        run_profile(&bench, ServerProfile::core_i7(), seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_power_rack_wins_system_level_efficiency() {
        // §6.2: low-power nodes improve data throughput per energy by
        // 5–15× — and at the system level they also process *more total
        // data* on the same solar day, because four i7 machines fit
        // comfortably inside the solar budget.
        let (xeon, i7) = compare("dedup", 3);
        let ratio = i7.gb_per_kwh / xeon.gb_per_kwh;
        assert!(
            ratio > 4.0,
            "system-level efficiency ratio {ratio:.1} (paper: 5–15×)"
        );
        assert!(
            i7.metrics.processed_gb > xeon.metrics.processed_gb,
            "i7 rack {:.0} GB should beat Xeon rack {:.0} GB on the same day",
            i7.metrics.processed_gb,
            xeon.metrics.processed_gb
        );
    }

    #[test]
    fn low_power_rack_cycles_less() {
        // §6.2: low-power servers "incur fewer On/Off power cycles (less
        // overhead)" — their footprint rides through solar dips.
        let (xeon, i7) = compare("x264", 3);
        assert!(
            i7.metrics.on_off_cycles <= xeon.metrics.on_off_cycles,
            "i7 {} cycles vs Xeon {}",
            i7.metrics.on_off_cycles,
            xeon.metrics.on_off_cycles
        );
    }
}
