//! Multi-day endurance: Eq. 1's screening on its natural horizon, and the
//! sunshine-fraction capacity premise behind Figs. 23–24.
//!
//! The discharge budget threshold `δD = DU + DL·T/TL` only starts to bite
//! after days of operation; single-day runs never see it. The endurance
//! run drives the prototype through two weeks of mixed weather and checks
//! that wear stays balanced across cabinets while the system keeps
//! processing. The sunshine sweep validates the cost model's assumption
//! that delivered throughput scales with the local sunshine fraction.

use ins_core::controller::InsureController;
use ins_core::metrics::RunMetrics;
use ins_core::system::{InSituSystem, WorkloadModel};
use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::DayWeather;

/// Result of the multi-day endurance run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceRun {
    /// Days simulated.
    pub days: usize,
    /// Final metrics.
    pub metrics: RunMetrics,
    /// Per-unit lifetime discharge throughput, Ah.
    pub unit_throughput_ah: Vec<f64>,
    /// Max/min per-unit throughput ratio (wear balance).
    pub wear_imbalance: f64,
    /// GB processed per simulated day.
    pub gb_per_day: f64,
}

/// Runs the prototype for `days` of seeded mixed weather under InSURE.
#[must_use]
pub fn endurance(days: usize, seed: u64) -> EnduranceRun {
    let mut rng = SimRng::seed(seed);
    let weather = DayWeather::mix_for_sunshine_fraction(0.6, days, &mut rng);
    let solar = SolarTraceBuilder::new().seed(seed).build_days(&weather);
    let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .workload(WorkloadModel::seismic())
        .time_step(SimDuration::from_secs(60))
        .build();
    sys.run_until(SimTime::from_secs(days as u64 * 86_400));
    let metrics = RunMetrics::collect(&sys);
    let unit_throughput_ah: Vec<f64> = sys
        .units()
        .iter()
        .map(|u| u.discharge_throughput().value())
        .collect();
    let max = unit_throughput_ah.iter().cloned().fold(f64::MIN, f64::max);
    let min = unit_throughput_ah.iter().cloned().fold(f64::MAX, f64::min);
    EnduranceRun {
        days,
        gb_per_day: metrics.processed_gb / days as f64,
        wear_imbalance: if min > 1e-9 { max / min } else { f64::INFINITY },
        unit_throughput_ah,
        metrics,
    }
}

/// One point of the sunshine-fraction throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SunshinePoint {
    /// Target sunshine fraction.
    pub sunshine_fraction: f64,
    /// Delivered throughput, GB per day.
    pub gb_per_day: f64,
    /// Solar energy harvested, kWh per day.
    pub solar_kwh_per_day: f64,
}

/// Sweeps the sunshine fraction over `days`-long campaigns — the premise
/// Figs. 23–24 amortize ("In places that have lower solar energy
/// resources… InSURE has decreased average throughput", §6.5) — fanned
/// across `threads` workers.
///
/// Every point is a pure function of `(seed, fraction, days)` — each
/// builds its own weather RNG from the base seed — and points come back
/// in input order, so the output is byte-identical at any thread count.
/// `threads == 0` uses available parallelism.
#[must_use]
pub fn sunshine_sweep_with(
    fractions: &[f64],
    days: usize,
    seed: u64,
    threads: usize,
) -> Vec<SunshinePoint> {
    crate::runner::run_cells(threads, fractions, |_, &sf| run_point(sf, days, seed))
}

fn run_point(sf: f64, days: usize, seed: u64) -> SunshinePoint {
    let mut rng = SimRng::seed(seed);
    let weather = DayWeather::mix_for_sunshine_fraction(sf, days, &mut rng);
    let solar = SolarTraceBuilder::new().seed(seed).build_days(&weather);
    let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .workload(WorkloadModel::seismic())
        .time_step(SimDuration::from_secs(60))
        .build();
    sys.run_until(SimTime::from_secs(days as u64 * 86_400));
    let m = RunMetrics::collect(&sys);
    SunshinePoint {
        sunshine_fraction: sf,
        gb_per_day: m.processed_gb / days as f64,
        solar_kwh_per_day: m.solar_kwh / days as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_weeks_stays_healthy_and_balanced() {
        let run = endurance(14, 9);
        assert!(
            run.gb_per_day > 30.0,
            "processed {:.1} GB/day",
            run.gb_per_day
        );
        // Eq. 1's balancing: no cabinet may carry wildly more lifetime Ah.
        assert!(
            run.wear_imbalance < 1.5,
            "wear imbalance {:.2} across {:?}",
            run.wear_imbalance,
            run.unit_throughput_ah
        );
        // Screening has had time to act: expected service life extrapolates
        // to a sane figure (not collapsed by runaway cycling).
        assert!(
            run.metrics.expected_service_life_days > 120.0,
            "expected life {:.0} days",
            run.metrics.expected_service_life_days
        );
    }

    #[test]
    fn parallel_sunshine_sweep_matches_serial_exactly() {
        let serial = sunshine_sweep_with(&[1.0, 0.5], 1, 4, 1);
        for threads in [0, 2] {
            assert_eq!(sunshine_sweep_with(&[1.0, 0.5], 1, 4, threads), serial);
        }
    }

    #[test]
    fn throughput_scales_with_sunshine_fraction() {
        let points = sunshine_sweep_with(&[1.0, 0.4], 5, 4, 1);
        let sunny = &points[0];
        let dark = &points[1];
        assert!(
            sunny.gb_per_day > 1.3 * dark.gb_per_day,
            "SF 1.0 → {:.1} GB/day must clearly beat SF 0.4 → {:.1} GB/day",
            sunny.gb_per_day,
            dark.gb_per_day
        );
        assert!(sunny.solar_kwh_per_day > 1.5 * dark.solar_kwh_per_day);
    }
}
