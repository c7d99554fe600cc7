//! Solar power trace generation.
//!
//! §5 of the paper evaluates micro-benchmarks by replaying two recorded
//! daytime traces — a high-generation day averaging 1114 W and a
//! low-generation day averaging 427 W over 07:00–20:00 — through the
//! prototype's charger. [`SolarTraceBuilder`] produces the synthetic
//! equivalents: deterministic (seeded) day-long power traces with the same
//! averages and fluctuation character.

use std::iter;
use std::sync::Arc;

use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime, SECONDS_PER_DAY};
use ins_sim::trace::{interpolate, Sample, Trace};
use ins_sim::units::{WattHours, Watts};

use crate::irradiance::{clear_sky_fraction, DaylightWindow};
use crate::mppt::MpptTracker;
use crate::panel::SolarPanel;
use crate::weather::{CloudField, DayWeather};

/// A generated solar power time series.
///
/// The samples are stored once, contiguous, behind an `Arc`: every plant
/// built on a trace, and every snapshot and fork of that plant, shares
/// them, and [`SolarTrace::power_at`] interpolates straight over the
/// slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarTrace {
    samples: Arc<[Sample]>,
    dt: SimDuration,
}

impl SolarTrace {
    /// Wraps an externally recorded power trace (values in watts), e.g.
    /// a service-mode replay feed. `dt` is the nominal sampling interval
    /// used for energy integration; interpolation between samples uses
    /// the samples' own timestamps, so an irregular feed is fine.
    #[must_use]
    pub fn from_trace(trace: Trace, dt: SimDuration) -> Self {
        let samples = filled(trace.len(), |slots| {
            for (slot, sample) in slots.iter_mut().zip(&trace) {
                *slot = *sample;
            }
        });
        Self { samples, dt }
    }

    /// The samples (values in watts), in time order.
    #[must_use]
    pub fn trace(&self) -> &[Sample] {
        &self.samples
    }

    /// Sampling interval.
    #[must_use]
    pub fn dt(&self) -> SimDuration {
        self.dt
    }

    /// Power at an arbitrary instant (linear interpolation, zero outside).
    #[must_use]
    pub fn power_at(&self, t: SimTime) -> Watts {
        Watts::new(interpolate(&self.samples, t).unwrap_or(0.0))
    }

    /// Total energy in the trace.
    #[must_use]
    pub fn total_energy(&self) -> WattHours {
        let dt_h = self.dt.as_hours();
        self.samples
            .iter()
            .map(|s| Watts::new(s.value) * dt_h)
            .sum()
    }

    /// Mean power over a wall-clock window of the day, e.g. the paper's
    /// 07:00–20:00 reporting window.
    #[must_use]
    pub fn mean_power_between(&self, from_h: f64, to_h: f64) -> Watts {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in self.samples.iter() {
            let h = s.time.time_of_day_hours();
            if h >= from_h && h < to_h {
                sum += s.value;
                n += 1;
            }
        }
        if n == 0 {
            Watts::ZERO
        } else {
            Watts::new(sum / n as f64)
        }
    }
}

/// Builder for synthetic solar traces.
///
/// # Examples
///
/// ```
/// use ins_solar::trace::SolarTraceBuilder;
/// use ins_solar::weather::DayWeather;
///
/// let day = SolarTraceBuilder::new()
///     .weather(DayWeather::Sunny)
///     .seed(7)
///     .build_day();
/// assert!(day.total_energy().kilowatt_hours() > 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct SolarTraceBuilder {
    panel: SolarPanel,
    window: DaylightWindow,
    weather: DayWeather,
    seed: u64,
    dt: SimDuration,
    mppt: bool,
}

impl SolarTraceBuilder {
    /// Creates a builder with the prototype defaults: 1.6 kW array,
    /// 06:54–19:59 daylight, sunny, 10 s sampling, MPPT enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            panel: SolarPanel::prototype_1_6kw(),
            window: DaylightWindow::prototype(),
            weather: DayWeather::Sunny,
            seed: 0,
            dt: SimDuration::from_secs(10),
            mppt: true,
        }
    }

    /// Sets the PV array.
    #[must_use]
    pub fn panel(mut self, panel: SolarPanel) -> Self {
        self.panel = panel;
        self
    }

    /// Sets the daylight window.
    #[must_use]
    pub fn window(mut self, window: DaylightWindow) -> Self {
        self.window = window;
        self
    }

    /// Sets the day weather.
    #[must_use]
    pub fn weather(mut self, weather: DayWeather) -> Self {
        self.weather = weather;
        self
    }

    /// Sets the random seed (same seed ⇒ identical trace).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    #[must_use]
    pub fn sample_interval(mut self, dt: SimDuration) -> Self {
        assert!(!dt.is_zero(), "sample interval must be non-zero");
        self.dt = dt;
        self
    }

    /// Enables or disables the P&O MPPT stage (disabled gives the ideal
    /// array output, useful for ablations).
    #[must_use]
    pub fn mppt(mut self, enabled: bool) -> Self {
        self.mppt = enabled;
        self
    }

    /// Generates one day (day index 0).
    #[must_use]
    pub fn build_day(&self) -> SolarTrace {
        self.build_days(&[self.weather])
    }

    /// Generates a multi-day trace, one weather entry per day.
    ///
    /// # Panics
    ///
    /// Panics if `days` is empty.
    #[must_use]
    pub fn build_days(&self, days: &[DayWeather]) -> SolarTrace {
        assert!(!days.is_empty(), "at least one day required");
        let steps = SECONDS_PER_DAY / self.dt.as_secs();
        let samples = filled(days.len() * steps as usize, |slots| {
            let mut slots = slots.iter_mut();
            let rng_root = SimRng::seed(self.seed);
            let mut mppt = MpptTracker::new();
            for (day_idx, &weather) in days.iter().enumerate() {
                let mut clouds =
                    CloudField::new(weather, rng_root.fork(&format!("clouds-day{day_idx}")));
                let day_start = day_idx as u64 * SECONDS_PER_DAY;
                for (i, slot) in (0..steps).zip(&mut slots) {
                    let t = SimTime::from_secs(day_start + i * self.dt.as_secs());
                    let tod = t.time_of_day_hours();
                    let envelope = clear_sky_fraction(&self.window, tod);
                    let transmission = clouds.step(self.dt.as_secs() as f64);
                    let available = self.panel.output(envelope, transmission);
                    let out = if self.mppt {
                        mppt.step(available)
                    } else {
                        available
                    };
                    *slot = Sample {
                        time: t,
                        value: out.value(),
                    };
                }
            }
        });
        SolarTrace {
            samples,
            dt: self.dt,
        }
    }
}

/// `len` samples in one shared allocation of exactly that length, written
/// in place by `fill`: a long input is never grown or copied.
fn filled(len: usize, fill: impl FnOnce(&mut [Sample])) -> Arc<[Sample]> {
    let blank = Sample {
        time: SimTime::ZERO,
        value: 0.0,
    };
    // `repeat_n` has a trusted length, so the collect allocates once.
    let mut samples: Arc<[Sample]> = iter::repeat_n(blank, len).collect();
    // The fresh `Arc` has no other owner, so this borrows it in place.
    fill(Arc::make_mut(&mut samples));
    samples
}

impl Default for SolarTraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper's "high solar generation" day: sunny, ≈ 1114 W mean over
/// 07:00–20:00 on the 1.6 kW array (Fig. 15-a).
#[must_use]
pub fn high_generation_day(seed: u64) -> SolarTrace {
    SolarTraceBuilder::new()
        .weather(DayWeather::Sunny)
        .seed(seed)
        .build_day()
}

/// The paper's "low solar generation" day: heavy clouds, ≈ 427 W mean over
/// 07:00–20:00 (Fig. 15-b).
#[must_use]
pub fn low_generation_day(seed: u64) -> SolarTrace {
    SolarTraceBuilder::new()
        .weather(DayWeather::Rainy)
        .seed(seed)
        .build_day()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_generation_matches_paper_average() {
        let t = high_generation_day(1);
        let mean = t.mean_power_between(7.0, 20.0).value();
        assert!(
            (1000.0..1250.0).contains(&mean),
            "high-generation daytime mean {mean} W should be ≈ 1114 W"
        );
    }

    #[test]
    fn low_generation_matches_paper_average() {
        let t = low_generation_day(1);
        let mean = t.mean_power_between(7.0, 20.0).value();
        assert!(
            (330.0..530.0).contains(&mean),
            "low-generation daytime mean {mean} W should be ≈ 427 W"
        );
    }

    #[test]
    fn night_is_dark() {
        let t = high_generation_day(2);
        assert_eq!(t.power_at(SimTime::from_hms(2, 0, 0)), Watts::ZERO);
        assert_eq!(t.power_at(SimTime::from_hms(22, 0, 0)), Watts::ZERO);
        assert!(t.power_at(SimTime::from_hms(13, 0, 0)).value() > 500.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = high_generation_day(9);
        let b = high_generation_day(9);
        assert_eq!(a.trace(), b.trace());
        let c = high_generation_day(10);
        assert_ne!(a.trace(), c.trace());
    }

    #[test]
    fn multi_day_covers_every_day() {
        let days = [DayWeather::Sunny, DayWeather::Rainy, DayWeather::Cloudy];
        let t = SolarTraceBuilder::new().seed(4).build_days(&days);
        // Energy each day, descending sunny > cloudy > rainy.
        let energy_of_day = |d: u64| -> f64 {
            t.trace()
                .iter()
                .filter(|s| s.time.day() == d)
                .map(|s| s.value * t.dt().as_hours().value())
                .sum()
        };
        let (e0, e1, e2) = (energy_of_day(0), energy_of_day(1), energy_of_day(2));
        assert!(e0 > e2 && e2 > e1, "sunny {e0} > cloudy {e2} > rainy {e1}");
    }

    #[test]
    fn table6_daily_energies_are_in_band() {
        // Table 6 reports ≈ 7.9 / 5.9 / 3.0 kWh for sunny/cloudy/rainy days.
        // Our synthetic days must land in the same ballpark.
        let sunny = SolarTraceBuilder::new()
            .weather(DayWeather::Sunny)
            .seed(11)
            .build_day();
        let cloudy = SolarTraceBuilder::new()
            .weather(DayWeather::Cloudy)
            .seed(11)
            .build_day();
        let rainy = SolarTraceBuilder::new()
            .weather(DayWeather::Rainy)
            .seed(11)
            .build_day();
        let (es, ec, er) = (
            sunny.total_energy().kilowatt_hours(),
            cloudy.total_energy().kilowatt_hours(),
            rainy.total_energy().kilowatt_hours(),
        );
        assert!((11.0..16.5).contains(&es), "sunny {es} kWh");
        assert!((7.0..13.0).contains(&ec), "cloudy {ec} kWh");
        assert!((3.5..7.5).contains(&er), "rainy {er} kWh");
        assert!(es > ec && ec > er);
    }

    #[test]
    fn mppt_costs_a_little_energy() {
        let ideal = SolarTraceBuilder::new().seed(5).mppt(false).build_day();
        let tracked = SolarTraceBuilder::new().seed(5).mppt(true).build_day();
        let (ei, et) = (ideal.total_energy().value(), tracked.total_energy().value());
        assert!(et < ei, "MPPT output must be below the ideal array output");
        assert!(
            et > 0.93 * ei,
            "MPPT should still capture > 93 % ({et} vs {ei})"
        );
    }
}
