//! Streaming statistics used by the metrics and trace machinery.

/// Online accumulator of mean, variance, minimum and maximum using
/// Welford's algorithm, so day-long second-resolution traces can be
/// summarized without storing every sample.
///
/// # Examples
///
/// ```
/// use ins_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations so far.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` when fewer than two observations.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation — the paper reports battery voltage σ
    /// this way in Table 6.
    #[must_use]
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for RunningStats {
    /// An empty accumulator, as [`RunningStats::new`]: a derived default
    /// would start `min` and `max` at 0.0 and so report a minimum of 0.0
    /// over positive samples.
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn default_is_new() {
        assert_eq!(RunningStats::default(), RunningStats::new());
        let mut s = RunningStats::default();
        s.push(24.3);
        s.push(25.1);
        assert_eq!(s.min(), 24.3);
        assert_eq!(s.max(), 25.1);
    }

    #[test]
    fn single_observation() {
        let s: RunningStats = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn textbook_std_dev() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data = [1.0, 2.0, 3.0, 10.0, -4.0, 6.5, 0.25];
        let sequential: RunningStats = data.into_iter().collect();
        let mut a: RunningStats = data[..3].iter().copied().collect();
        let b: RunningStats = data[3..].iter().copied().collect();
        a.merge(&b);
        assert!((a.mean() - sequential.mean()).abs() < 1e-12);
        assert!((a.population_variance() - sequential.population_variance()).abs() < 1e-12);
        assert_eq!(a.count(), sequential.count());
        assert_eq!(a.min(), sequential.min());
        assert_eq!(a.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = [5.0, 7.0, 9.0];
        let mut a: RunningStats = data.into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
