//! Solar power trace generation.
//!
//! §5 of the paper evaluates micro-benchmarks by replaying two recorded
//! daytime traces — a high-generation day averaging 1114 W and a
//! low-generation day averaging 427 W over 07:00–20:00 — through the
//! prototype's charger. [`SolarTraceBuilder`] produces the synthetic
//! equivalents: deterministic (seeded) day-long power traces with the same
//! averages and fluctuation character.

use std::hint::black_box;
use std::iter;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime, SECONDS_PER_DAY};
use ins_sim::trace::{interpolate, Sample, Trace};
use ins_sim::units::{WattHours, Watts};

use crate::irradiance::{clear_sky_fraction, DaylightWindow};
use crate::mppt::MpptTracker;
use crate::panel::SolarPanel;
use crate::weather::{CloudField, CloudStep, DayWeather};

/// Seconds between the samples of a generated trace, which start at
/// midnight of day 0.
const STEP_S: u64 = 10;

/// Samples per generated day.
const DAY_SAMPLES: u64 = SECONDS_PER_DAY / STEP_S;

/// The samples of a generated day inside [`DaylightWindow::prototype`]:
/// 06:54:00 to 19:58:40. Every sample outside them is exactly +0.0 (the
/// clear-sky envelope is 0 there), so only these are stored.
const DAYLIGHT: Range<u64> = 2_484..7_193;

/// Stored values per generated day.
const DAYLIGHT_LEN: usize = (DAYLIGHT.end - DAYLIGHT.start) as usize;

/// The clear-sky envelope at each [`DAYLIGHT`] sample, the same on every
/// day of every generated trace, so it is computed once per process: its
/// `sin` and `powf` calls are most of a one-day build's time.
static ENVELOPE: LazyLock<[f64; DAYLIGHT_LEN]> = LazyLock::new(|| {
    let window = DaylightWindow::prototype();
    std::array::from_fn(|i| {
        let hour = SimTime::from_secs((DAYLIGHT.start + i as u64) * STEP_S).time_of_day_hours();
        // A libm call whose arguments LLVM sees as constants may be
        // folded at compile time and round differently (DESIGN §9.4):
        // `black_box` keeps each one a runtime call.
        clear_sky_fraction(&window, black_box(hour))
    })
});

/// A solar power time series, in watts.
///
/// The input is stored once behind an `Arc`: every plant built on a
/// trace, and every snapshot and fork of that plant, shares it. It has
/// one of two forms, set by how the trace was made:
///
/// * *Generated* ([`SolarTraceBuilder`]): a sample every 10 s from
///   midnight of day 0. Only each day's daylight values are stored,
///   4,709 of its 8,640 samples; every other sample is +0.0.
///   [`SolarTrace::power_at`] finds its two samples by division.
/// * *Recorded* ([`SolarTrace::from_trace`]): every sample with its own
///   timestamp, which may be irregular or repeat. `power_at` calls
///   [`interpolate`] over them.
///
/// Both forms answer every query as [`interpolate`] over the full sample
/// list would, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarTrace {
    form: Form,
}

#[derive(Debug, Clone, PartialEq)]
enum Form {
    /// A recorded feed's samples, and their nominal interval.
    Recorded(Arc<[Sample]>, SimDuration),
    /// Generated days: each day's [`DAYLIGHT`] values, day after day.
    Daylight(Arc<[f64]>),
}

impl SolarTrace {
    /// Wraps an externally recorded power trace (values in watts), e.g.
    /// a service-mode replay feed. `dt` is the nominal sampling interval
    /// used for energy integration; interpolation between samples uses
    /// the samples' own timestamps, so an irregular feed is fine.
    #[must_use]
    pub fn from_trace(trace: Trace, dt: SimDuration) -> Self {
        // One allocation at the exact length, filled by one copy.
        Self {
            form: Form::Recorded(Arc::from(trace.iter().as_slice()), dt),
        }
    }

    /// The samples (values in watts), in time order.
    #[must_use]
    pub fn trace(&self) -> Samples<'_> {
        let len = match &self.form {
            Form::Recorded(samples, _) => samples.len(),
            Form::Daylight(values) => values.len() / DAYLIGHT_LEN * DAY_SAMPLES as usize,
        };
        Samples {
            trace: self,
            indices: 0..len,
        }
    }

    /// Sampling interval.
    #[must_use]
    pub fn dt(&self) -> SimDuration {
        match self.form {
            Form::Recorded(_, dt) => dt,
            Form::Daylight(_) => SimDuration::from_secs(STEP_S),
        }
    }

    /// Power at an arbitrary instant (linear interpolation, zero outside).
    #[must_use]
    pub fn power_at(&self, t: SimTime) -> Watts {
        Watts::new(match &self.form {
            Form::Recorded(samples, _) => interpolate(samples, t).unwrap_or(0.0),
            Form::Daylight(values) => grid_power_at(values, t),
        })
    }

    /// The highest power in the trace; 0 W when no sample is above zero.
    #[must_use]
    pub fn peak(&self) -> Watts {
        let peak = match &self.form {
            Form::Recorded(samples, _) => samples.iter().fold(0.0, |m: f64, s| m.max(s.value)),
            // The samples that are not stored are all 0 W.
            Form::Daylight(values) => values.iter().fold(0.0, |m: f64, &v| m.max(v)),
        };
        Watts::new(peak)
    }

    /// Total energy in the trace.
    #[must_use]
    pub fn total_energy(&self) -> WattHours {
        let dt_h = self.dt().as_hours();
        self.trace().map(|s| Watts::new(s.value) * dt_h).sum()
    }

    /// Mean power over a wall-clock window of the day, e.g. the paper's
    /// 07:00–20:00 reporting window.
    #[must_use]
    pub fn mean_power_between(&self, from_h: f64, to_h: f64) -> Watts {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in self.trace() {
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

    /// Sample `i` of [`SolarTrace::trace`].
    fn sample(&self, i: usize) -> Option<Sample> {
        match &self.form {
            Form::Recorded(samples, _) => samples.get(i).copied(),
            Form::Daylight(values) => {
                let k = i as u64;
                Some(Sample {
                    time: SimTime::from_secs(k * STEP_S),
                    value: grid_value(values, k),
                })
            }
        }
    }
}

/// The samples of a [`SolarTrace`], by value, in time order. `len()` and
/// `last()` are O(1).
#[derive(Debug, Clone)]
pub struct Samples<'a> {
    trace: &'a SolarTrace,
    indices: Range<usize>,
}

impl Iterator for Samples<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        self.indices.next().and_then(|i| self.trace.sample(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.indices.size_hint()
    }

    fn last(mut self) -> Option<Sample> {
        self.next_back()
    }
}

impl DoubleEndedIterator for Samples<'_> {
    fn next_back(&mut self) -> Option<Sample> {
        self.indices.next_back().and_then(|i| self.trace.sample(i))
    }
}

impl ExactSizeIterator for Samples<'_> {}

/// Sample `k` of a generated trace: its stored daylight value, or +0.0
/// outside [`DAYLIGHT`] and past the last day.
fn grid_value(values: &[f64], k: u64) -> f64 {
    let (day, i) = (k / DAY_SAMPLES, k % DAY_SAMPLES);
    if !DAYLIGHT.contains(&i) {
        return 0.0;
    }
    let stored = day * DAYLIGHT_LEN as u64 + (i - DAYLIGHT.start);
    usize::try_from(stored)
        .ok()
        .and_then(|stored| values.get(stored))
        .copied()
        .unwrap_or(0.0)
}

/// [`interpolate`] over a generated trace without its sample list: the
/// same two samples and the same formula, so the same bits. Its clamps
/// need no branch of their own past `t = 0`: the first and last samples
/// (midnight of day 0, 23:59:50 of the last day) are dark, and so is every
/// sample past the last.
fn grid_power_at(values: &[f64], t: SimTime) -> f64 {
    let secs = t.as_secs();
    // `b`, the first sample at or after `t`, and `a`, the one before it.
    let Some(a) = secs.div_ceil(STEP_S).checked_sub(1) else {
        return 0.0;
    };
    let (va, vb) = (grid_value(values, a), grid_value(values, a + 1));
    let frac = (secs - a * STEP_S) as f64 / STEP_S as f64;
    va + (vb - va) * frac
}

/// Builder for synthetic solar traces, sampled every 10 s over the
/// prototype's 06:54–19:59 daylight window.
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
    weather: DayWeather,
    seed: u64,
    mppt: bool,
}

impl SolarTraceBuilder {
    /// Creates a builder with the prototype defaults: 1.6 kW array,
    /// sunny, MPPT enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            panel: SolarPanel::prototype_1_6kw(),
            weather: DayWeather::Sunny,
            seed: 0,
            mppt: true,
        }
    }

    /// Sets the PV array.
    #[must_use]
    pub fn panel(mut self, panel: SolarPanel) -> Self {
        self.panel = panel;
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
        // `black_box` keeps the ramp factor's `exp` a runtime call, as
        // for the envelope.
        let step = CloudStep::new(black_box(STEP_S as f64));
        // `repeat_n` has a trusted length, so the collect allocates once,
        // at the exact length. The fresh `Arc` has no other owner, so
        // `make_mut` fills it in place: a long input is never grown or
        // copied.
        let mut values: Arc<[f64]> = iter::repeat_n(0.0, days.len() * DAYLIGHT_LEN).collect();
        let slots = Arc::make_mut(&mut values).chunks_exact_mut(DAYLIGHT_LEN);
        let rng_root = SimRng::seed(self.seed);
        for ((day_idx, &weather), day) in days.iter().enumerate().zip(slots) {
            let mut clouds =
                CloudField::new(weather, rng_root.fork(&format!("clouds-day{day_idx}")));
            // The dark samples before sunrise still step the clouds: they
            // set the sky at sunrise.
            for _ in 0..DAYLIGHT.start {
                clouds.step(step);
            }
            // Every dark sample resets the tracker, so each day's sunrise
            // meets a fresh one.
            let mut mppt = MpptTracker::new();
            for (value, &envelope) in day.iter_mut().zip(ENVELOPE.iter()) {
                let available = self.panel.output(envelope, clouds.step(step));
                let out = if self.mppt {
                    mppt.step(available)
                } else {
                    available
                };
                *value = out.value();
            }
            // The samples after sunset are dark: the day's clouds end here.
        }
        SolarTrace {
            form: Form::Daylight(values),
        }
    }
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
        assert_eq!(a, b);
        let c = high_generation_day(10);
        assert_ne!(a, c);
    }

    #[test]
    fn daylight_is_the_prototype_window_on_the_grid() {
        let window = DaylightWindow::prototype();
        assert_eq!(DAY_SAMPLES * STEP_S, SECONDS_PER_DAY);
        for k in 0..DAY_SAMPLES {
            let hour = SimTime::from_secs(k * STEP_S).time_of_day_hours();
            assert_eq!(DAYLIGHT.contains(&k), window.is_daytime(hour), "sample {k}");
        }
    }

    #[test]
    fn generated_trace_reads_its_grid() {
        let days = [DayWeather::Sunny, DayWeather::Cloudy];
        let t = SolarTraceBuilder::new().seed(3).build_days(&days);
        let samples = t.trace();
        assert_eq!(samples.len(), 2 * 8_640);
        let last = samples.clone().last().expect("two days of samples");
        assert_eq!(last, samples.clone().fold(last, |_, s| s));
        assert_eq!(last.time, SimTime::from_secs(2 * 86_400 - 10));
        assert_eq!(last.value.to_bits(), 0.0f64.to_bits());
        // The last daylight sample, 19:58:40, is stored; the next is dark.
        let sunset = SimTime::from_hms(19, 58, 40);
        assert!(t.power_at(sunset).value() > 0.0);
        assert_eq!(t.power_at(sunset + SimDuration::from_secs(10)), Watts::ZERO);
        let peak = t.trace().fold(0.0, |m: f64, s| m.max(s.value));
        assert_eq!(t.peak().value().to_bits(), peak.to_bits());
    }

    #[test]
    fn multi_day_covers_every_day() {
        let days = [DayWeather::Sunny, DayWeather::Rainy, DayWeather::Cloudy];
        let t = SolarTraceBuilder::new().seed(4).build_days(&days);
        // Energy each day, descending sunny > cloudy > rainy.
        let energy_of_day = |d: u64| -> f64 {
            t.trace()
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
