//! Stochastic weather: day types and passing-cloud attenuation.
//!
//! §6.2 of the paper analyzes paired day-long logs for *sunny*, *cloudy*
//! and *rainy* days (Table 6) and stresses that "severely fluctuating power
//! budget can cause many supply-load power mismatches" (Fig. 16 Region E).
//! [`CloudField`] generates that fluctuation as a two-state Markov process
//! (clear ↔ overcast) with exponential smoothing, so cloudy days show deep,
//! rapid attenuation swings while sunny days stay calm.

use ins_sim::rng::SimRng;

/// The synoptic weather of one simulated day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayWeather {
    /// Clear day: full envelope, rare shallow clouds (Table 6's 7.9 kWh day).
    Sunny,
    /// Broken clouds: roughly half the energy, high variance (5.9 kWh day).
    Cloudy,
    /// Overcast/rain: roughly a quarter of the energy (3.0 kWh day).
    Rainy,
}

impl DayWeather {
    /// All day types, in decreasing energy order.
    pub const ALL: [DayWeather; 3] = [DayWeather::Sunny, DayWeather::Cloudy, DayWeather::Rainy];

    /// Baseline transmission of the sky (fraction of clear-sky power that
    /// gets through outside cloud events).
    #[must_use]
    pub fn base_transmission(self) -> f64 {
        match self {
            DayWeather::Sunny => 0.99,
            DayWeather::Cloudy => 0.85,
            DayWeather::Rainy => 0.55,
        }
    }

    /// Probability per minute of a cloud event starting.
    #[must_use]
    fn cloud_onset_per_minute(self) -> f64 {
        match self {
            DayWeather::Sunny => 0.01,
            DayWeather::Cloudy => 0.10,
            DayWeather::Rainy => 0.15,
        }
    }

    /// Probability per minute of a cloud event clearing.
    #[must_use]
    fn cloud_clear_per_minute(self) -> f64 {
        match self {
            DayWeather::Sunny => 0.30,
            DayWeather::Cloudy => 0.18,
            DayWeather::Rainy => 0.10,
        }
    }

    /// Range of transmission *during* a cloud event.
    #[must_use]
    fn cloud_transmission_range(self) -> (f64, f64) {
        match self {
            DayWeather::Sunny => (0.55, 0.85),
            DayWeather::Cloudy => (0.30, 0.65),
            DayWeather::Rainy => (0.15, 0.45),
        }
    }
}

impl DayWeather {
    /// Draws a sequence of `days` day types whose long-run clear-time
    /// matches the given *sunshine fraction* (the percentage of daytime
    /// with recorded sunshine, §6.5 [64]). Sunny days count fully toward
    /// the fraction, cloudy days ≈ half, rainy days not at all.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn mix_for_sunshine_fraction(
        fraction: f64,
        days: usize,
        rng: &mut SimRng,
    ) -> Vec<DayWeather> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "sunshine fraction must lie in [0, 1]"
        );
        // Solve p_sunny + 0.5·p_cloudy = fraction with p_cloudy fixed at
        // the smaller of 0.4 and what the fraction allows.
        let p_cloudy = (2.0 * fraction.min(1.0 - fraction)).min(0.4);
        let p_sunny = (fraction - 0.5 * p_cloudy).clamp(0.0, 1.0);
        (0..days)
            .map(|_| {
                let x = rng.next_f64();
                if x < p_sunny {
                    DayWeather::Sunny
                } else if x < p_sunny + p_cloudy {
                    DayWeather::Cloudy
                } else {
                    DayWeather::Rainy
                }
            })
            .collect()
    }
}

impl core::fmt::Display for DayWeather {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DayWeather::Sunny => "sunny",
            DayWeather::Cloudy => "cloudy",
            DayWeather::Rainy => "rainy",
        };
        f.write_str(s)
    }
}

/// Markov cloud process producing a smoothed sky-transmission signal.
///
/// # Examples
///
/// ```
/// use ins_solar::weather::{CloudField, CloudStep, DayWeather};
/// use ins_sim::rng::SimRng;
///
/// let mut clouds = CloudField::new(DayWeather::Cloudy, SimRng::seed(1));
/// let t = clouds.step(CloudStep::new(10.0)); // advance ten seconds
/// assert!((0.0..=1.0).contains(&t));
/// ```
#[derive(Debug, Clone)]
pub struct CloudField {
    weather: DayWeather,
    rng: SimRng,
    /// Transmission target the smoother is pulling toward.
    target: f64,
    /// Smoothed transmission actually reported.
    current: f64,
    /// `true` while inside a cloud event.
    in_cloud: bool,
}

/// Smoothing time constant in seconds: how fast a cloud edge ramps.
const RAMP_TAU_S: f64 = 20.0;

/// A time step of a [`CloudField`], with its per-minute scale and ramp
/// factor computed once, so a field stepped at a fixed interval does not
/// recompute them on every step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudStep {
    minutes: f64,
    /// Share of the gap to the target closed in one step.
    ramp: f64,
}

impl CloudStep {
    /// A step of `dt_s` seconds.
    #[must_use]
    pub fn new(dt_s: f64) -> Self {
        Self {
            minutes: dt_s / 60.0,
            // Exponential ramp toward the target: clouds have soft edges.
            ramp: 1.0 - (-dt_s / RAMP_TAU_S).exp(),
        }
    }
}

impl CloudField {
    /// Creates a cloud field for the given day type.
    #[must_use]
    pub fn new(weather: DayWeather, rng: SimRng) -> Self {
        let base = weather.base_transmission();
        Self {
            weather,
            rng,
            target: base,
            current: base,
            in_cloud: false,
        }
    }

    /// The day type this field simulates.
    #[must_use]
    pub fn weather(&self) -> DayWeather {
        self.weather
    }

    /// Advances the process by one `step` and returns the current sky
    /// transmission in `[0, 1]`.
    pub fn step(&mut self, step: CloudStep) -> f64 {
        if self.in_cloud {
            if self
                .rng
                .chance(self.weather.cloud_clear_per_minute() * step.minutes)
            {
                self.in_cloud = false;
                self.target = self.weather.base_transmission();
            }
        } else if self
            .rng
            .chance(self.weather.cloud_onset_per_minute() * step.minutes)
        {
            self.in_cloud = true;
            let (lo, hi) = self.weather.cloud_transmission_range();
            self.target = self.rng.uniform(lo, hi);
        }
        self.current += (self.target - self.current) * step.ramp;
        self.current.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_transmission(weather: DayWeather, seed: u64) -> f64 {
        let mut field = CloudField::new(weather, SimRng::seed(seed));
        let n = 6 * 3600; // a six-hour afternoon at 1 s resolution
        (0..n).map(|_| field.step(CloudStep::new(1.0))).sum::<f64>() / n as f64
    }

    #[test]
    fn transmission_stays_in_unit_interval() {
        for w in DayWeather::ALL {
            let mut field = CloudField::new(w, SimRng::seed(3));
            for _ in 0..10_000 {
                let t = field.step(CloudStep::new(1.0));
                assert!((0.0..=1.0).contains(&t));
            }
        }
    }

    #[test]
    fn sunny_transmits_more_than_cloudy_than_rainy() {
        let s = mean_transmission(DayWeather::Sunny, 1);
        let c = mean_transmission(DayWeather::Cloudy, 1);
        let r = mean_transmission(DayWeather::Rainy, 1);
        assert!(s > c + 0.1, "sunny {s} vs cloudy {c}");
        assert!(c > r + 0.1, "cloudy {c} vs rainy {r}");
        assert!(s > 0.9);
        assert!(r < 0.45);
    }

    #[test]
    fn cloudy_days_fluctuate_more_than_sunny() {
        let variance = |w: DayWeather| {
            let mut field = CloudField::new(w, SimRng::seed(7));
            let xs: Vec<f64> = (0..20_000)
                .map(|_| field.step(CloudStep::new(1.0)))
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        assert!(variance(DayWeather::Cloudy) > 4.0 * variance(DayWeather::Sunny));
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let mut a = CloudField::new(DayWeather::Cloudy, SimRng::seed(42));
        let mut b = CloudField::new(DayWeather::Cloudy, SimRng::seed(42));
        for _ in 0..1000 {
            assert_eq!(a.step(CloudStep::new(5.0)), b.step(CloudStep::new(5.0)));
        }
    }

    #[test]
    fn sunshine_fraction_mix_tracks_target() {
        let mut rng = SimRng::seed(5);
        for target in [0.2, 0.5, 0.8, 1.0] {
            let mix = DayWeather::mix_for_sunshine_fraction(target, 4000, &mut rng);
            let achieved: f64 = mix
                .iter()
                .map(|w| match w {
                    DayWeather::Sunny => 1.0,
                    DayWeather::Cloudy => 0.5,
                    DayWeather::Rainy => 0.0,
                })
                .sum::<f64>()
                / mix.len() as f64;
            assert!(
                (achieved - target).abs() < 0.05,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sunshine fraction must lie in [0, 1]")]
    fn sunshine_fraction_rejects_out_of_range() {
        let mut rng = SimRng::seed(5);
        let _ = DayWeather::mix_for_sunshine_fraction(1.5, 10, &mut rng);
    }

    #[test]
    fn display_names() {
        assert_eq!(DayWeather::Sunny.to_string(), "sunny");
        assert_eq!(DayWeather::Cloudy.to_string(), "cloudy");
        assert_eq!(DayWeather::Rainy.to_string(), "rainy");
    }
}
