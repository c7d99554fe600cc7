//! Figures 5, 15 and 16: system power traces.
//!
//! * Fig. 5 — a two-hour seismic run on a *unified* buffer, showing the
//!   whole-buffer switch-out that interrupts service,
//! * Fig. 15 — the two evaluation solar days (high ≈ 1114 W, low ≈ 427 W
//!   daytime mean),
//! * Fig. 16 — a full InSURE day with the characteristic regions A–E.

use ins_core::controller::{BaselineController, InsureController};
use ins_core::system::{InSituSystem, SystemEvent, WorkloadModel};
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::trace::{downsample, Sample, Trace};
use ins_sim::units::Soc;
use ins_solar::trace::{high_generation_day, low_generation_day, SolarTrace};

/// Summary of one generated solar evaluation day (Fig. 15).
#[derive(Debug, Clone, PartialEq)]
pub struct SolarDaySummary {
    /// Day label.
    pub label: &'static str,
    /// Daytime (07:00–20:00) mean power, W.
    pub daytime_mean_w: f64,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Downsampled power series for plotting/printing.
    pub series: Vec<Sample>,
}

/// One of a plant's output traces, e.g. [`InSituSystem::trace_load`].
type TraceOf = fn(&InSituSystem) -> &Trace;

/// Steps `sys` to `end`, appending every step's sample of each of
/// `traces` to its series. A plant's traces keep only their latest
/// sample, so a figure that prints a waveform records it here.
fn record_until<const N: usize>(
    sys: &mut InSituSystem,
    end: SimTime,
    traces: [TraceOf; N],
    series: &mut [Vec<Sample>; N],
) {
    while sys.now() < end {
        sys.step();
        for (trace, samples) in traces.iter().zip(series.iter_mut()) {
            samples.extend(trace(sys).last());
        }
    }
}

/// Generates the Fig. 15 pair.
#[must_use]
pub fn fig15(seed: u64) -> (SolarDaySummary, SolarDaySummary) {
    let summarize = |label, trace: &SolarTrace| SolarDaySummary {
        label,
        daytime_mean_w: trace.mean_power_between(7.0, 20.0).value(),
        energy_kwh: trace.total_energy().kilowatt_hours(),
        series: downsample(&trace.trace().collect::<Vec<_>>(), 48),
    };
    let high = high_generation_day(seed);
    let low = low_generation_day(seed);
    (
        summarize("high solar generation", &high),
        summarize("low solar generation", &low),
    )
}

/// Result of the Fig. 5 unified-buffer snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchOutRun {
    /// Mean pack voltage over the window (downsampled).
    pub voltage_series: Vec<Sample>,
    /// Load power over the window (downsampled).
    pub load_series: Vec<Sample>,
    /// Times at which the whole buffer was switched out / service
    /// interrupted (brown-outs and emergency shutdowns).
    pub interruptions: Vec<SimTime>,
}

/// Fig. 5: two hours of afternoon seismic processing under the unified
/// (baseline) buffer on a low-generation day — the buffer hits its
/// protection limit and the servers go down with it.
#[must_use]
pub fn fig05(seed: u64) -> SwitchOutRun {
    let mut sys = InSituSystem::builder(
        low_generation_day(seed),
        Box::new(BaselineController::new()),
    )
    .workload(WorkloadModel::seismic())
    .initial_soc(Soc::new(0.45))
    .time_step(SimDuration::from_secs(10))
    .start_at(SimTime::from_hms(13, 30, 0))
    .build();
    let mut series = [Vec::new(), Vec::new()];
    record_until(
        &mut sys,
        SimTime::from_hms(15, 30, 0),
        [InSituSystem::trace_pack_voltage, InSituSystem::trace_load],
        &mut series,
    );
    let [voltage, load] = series;
    let interruptions = sys
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                SystemEvent::BrownOut | SystemEvent::EmergencyShutdown
            )
        })
        .map(|e| e.time)
        .collect();
    SwitchOutRun {
        voltage_series: downsample(&voltage, 40),
        load_series: downsample(&load, 40),
        interruptions,
    }
}

/// One full-day InSURE trace with the samples needed to identify the
/// paper's regions.
#[derive(Debug, Clone, PartialEq)]
pub struct DayLongRun {
    /// Solar power (downsampled).
    pub solar_series: Vec<Sample>,
    /// Load power (downsampled).
    pub load_series: Vec<Sample>,
    /// Pack voltage (downsampled).
    pub voltage_series: Vec<Sample>,
    /// Stored energy at dawn vs after the morning charge window, Wh.
    pub stored_dawn_wh: f64,
    /// Stored energy at 10:00, Wh.
    pub stored_mid_morning_wh: f64,
    /// Count of power-capping / shutdown interventions.
    pub interventions: usize,
    /// Data processed, GB.
    pub processed_gb: f64,
}

/// Fig. 16: a full day of seismic processing under InSURE on a
/// high-generation (but fluctuating) day.
#[must_use]
pub fn fig16(seed: u64) -> DayLongRun {
    let mut sys = InSituSystem::builder(
        high_generation_day(seed),
        Box::new(InsureController::default()),
    )
    .workload(WorkloadModel::seismic())
    .initial_soc(Soc::new(0.35))
    .time_step(SimDuration::from_secs(10))
    .build();
    let traces: [TraceOf; 3] = [
        InSituSystem::trace_solar,
        InSituSystem::trace_load,
        InSituSystem::trace_pack_voltage,
    ];
    let mut series = [Vec::new(), Vec::new(), Vec::new()];
    let stored = |sys: &InSituSystem| sys.trace_stored().last().map_or(0.0, |s| s.value);
    record_until(&mut sys, SimTime::from_hms(6, 54, 0), traces, &mut series);
    let stored_dawn_wh = stored(&sys);
    record_until(&mut sys, SimTime::from_hms(10, 0, 0), traces, &mut series);
    let stored_mid_morning_wh = stored(&sys);
    record_until(&mut sys, SimTime::from_hms(23, 59, 50), traces, &mut series);
    let [solar, load, voltage] = series;
    DayLongRun {
        solar_series: downsample(&solar, 48),
        load_series: downsample(&load, 48),
        voltage_series: downsample(&voltage, 48),
        stored_dawn_wh,
        stored_mid_morning_wh,
        interventions: sys.events().len(),
        processed_gb: sys.workload().processed_gb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_days_match_paper_averages() {
        let (high, low) = fig15(1);
        assert!(
            (1000.0..1250.0).contains(&high.daytime_mean_w),
            "high day mean {:.0} W (paper 1114 W)",
            high.daytime_mean_w
        );
        assert!(
            (330.0..530.0).contains(&low.daytime_mean_w),
            "low day mean {:.0} W (paper 427 W)",
            low.daytime_mean_w
        );
        assert!(high.energy_kwh > 2.0 * low.energy_kwh);
        assert_eq!(high.series.len(), 48);
    }

    #[test]
    fn fig05_unified_buffer_interrupts_service() {
        let run = fig05(5);
        assert!(
            !run.interruptions.is_empty(),
            "the unified buffer must trip at least once in the window"
        );
        assert!(!run.voltage_series.is_empty());
        assert!(!run.load_series.is_empty());
    }

    #[test]
    fn fig16_shows_morning_charge_then_processing() {
        let run = fig16(3);
        // Region A: the buffer gains energy across the morning charge.
        assert!(
            run.stored_mid_morning_wh > run.stored_dawn_wh + 100.0,
            "morning charging {:.0} → {:.0} Wh",
            run.stored_dawn_wh,
            run.stored_mid_morning_wh
        );
        // Region D: the day processes a meaningful amount of data.
        assert!(
            run.processed_gb > 20.0,
            "processed {:.1} GB",
            run.processed_gb
        );
        // The solar series must peak near noon.
        let peak = run
            .solar_series
            .iter()
            .max_by(|a, b| a.value.total_cmp(&b.value))
            .expect("non-empty");
        let h = peak.time.time_of_day_hours();
        assert!((10.0..17.0).contains(&h), "solar peak at {h:.1} h");
    }
}
