//! Time-series recording for simulation outputs.
//!
//! A [`Trace`] is the in-memory analogue of the paper's data logger: every
//! monitored quantity (solar budget, battery terminal voltage, server load)
//! is a sequence of `(time, value)` samples that the experiment harness can
//! summarize or print.

use crate::stats::RunningStats;
use crate::time::SimTime;

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Instant the observation was taken.
    pub time: SimTime,
    /// Observed value, in the unit the trace documents.
    pub value: f64,
}

/// A named, append-only time series of `f64` samples.
///
/// A trace built with [`Trace::new`] keeps every sample, for recorded
/// inputs such as a replay feed's solar column. One built with
/// [`Trace::latest_only`] keeps no history: every sample still feeds
/// [`Trace::stats`], but only the newest one is retained, so
/// [`Trace::stats`] and [`Trace::last`] answer as a full trace's would
/// while [`Trace::len`] and [`Trace::iter`] see at most that one sample.
/// It never allocates after its first sample. Every simulated plant's
/// output traces are of this kind; a caller that wants a waveform
/// records each step's [`Trace::last`] itself.
///
/// # Examples
///
/// ```
/// use ins_sim::trace::Trace;
/// use ins_sim::time::SimTime;
///
/// let mut t = Trace::new("solar W");
/// t.record(SimTime::from_secs(0), 0.0);
/// t.record(SimTime::from_secs(60), 850.0);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.stats().max(), 850.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    samples: Vec<Sample>,
    stats: RunningStats,
    /// `false` for a [`Trace::latest_only`] trace.
    keep_history: bool,
}

impl Trace {
    /// Creates an empty trace with a human-readable name (conventionally
    /// including the unit, e.g. `"battery #1 V"`).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            samples: Vec::new(),
            stats: RunningStats::new(),
            keep_history: true,
        }
    }

    /// Creates an empty trace that keeps only its newest sample, for
    /// runs that read a trace's [`stats`](Trace::stats) and
    /// [`last`](Trace::last) but never its history.
    ///
    /// ```
    /// use ins_sim::trace::Trace;
    /// use ins_sim::time::SimTime;
    ///
    /// let mut t = Trace::latest_only("solar W");
    /// t.record(SimTime::from_secs(0), 0.0);
    /// t.record(SimTime::from_secs(60), 850.0);
    /// assert_eq!(t.len(), 1);
    /// assert_eq!(t.last().map(|s| s.value), Some(850.0));
    /// assert_eq!(t.stats().mean(), 425.0);
    /// ```
    #[must_use]
    pub fn latest_only(name: impl Into<String>) -> Self {
        Self {
            keep_history: false,
            ..Self::new(name)
        }
    }

    /// The trace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample; a [`Trace::latest_only`] trace replaces its
    /// retained one.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is earlier than the last recorded
    /// sample — traces must be recorded in chronological order.
    #[inline]
    pub fn record(&mut self, time: SimTime, value: f64) {
        debug_assert!(
            self.last().is_none_or(|s| s.time <= time),
            "trace '{}' recorded out of order",
            self.name
        );
        if !self.keep_history {
            self.samples.clear();
        }
        self.samples.push(Sample { time, value });
        self.stats.push(value);
    }

    /// Number of samples retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the retained samples in chronological order.
    pub fn iter(&self) -> core::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Summary statistics over all recorded values.
    #[must_use]
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// The most recent sample, if any. O(1).
    #[must_use]
    #[inline]
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Sample;
    type IntoIter = core::slice::Iter<'a, Sample>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// At most `max_points` evenly spaced samples out of `samples`, for
/// compact printing of day-long series: every sample when they fit.
#[must_use]
pub fn downsample(samples: &[Sample], max_points: usize) -> Vec<Sample> {
    let len = samples.len();
    let stride = if len <= max_points {
        1.0
    } else {
        len as f64 / max_points as f64
    };
    (0..len.min(max_points))
        .filter_map(|i| samples.get((i as f64 * stride) as usize).copied())
        .collect()
}

/// Linearly interpolated value at `time` over time-ordered `samples`.
///
/// Clamps to the first/last sample outside the recorded range. Returns
/// `None` for an empty slice. On evenly spaced samples the lookup is
/// O(1); otherwise it is a binary search. Both find the same bracketing
/// samples. Recorded inputs such as a replay feed's solar column go
/// through it; a generated solar trace keeps no sample list, and its
/// `power_at` applies this formula to its fixed 10 s grid directly.
#[must_use]
#[inline]
pub fn interpolate(samples: &[Sample], time: SimTime) -> Option<f64> {
    let (first, last) = (*samples.first()?, *samples.last()?);
    if time <= first.time {
        return Some(first.value);
    }
    if time >= last.time {
        return Some(last.value);
    }
    // Find the first sample at or after `time`. The two clamp
    // returns above guarantee `0 < idx < samples.len()`. Try the
    // index an evenly spaced trace predicts first; it stands only if
    // both neighbours confirm it, which pins it to the same index the
    // binary search would find.
    let brackets = |idx: usize| {
        idx.checked_sub(1)
            .and_then(|i| samples.get(i))
            .is_some_and(|a| a.time < time)
            && samples.get(idx).is_some_and(|b| b.time >= time)
    };
    let span = (last.time - first.time).as_secs();
    let predicted = (time - first.time)
        .as_secs()
        .checked_mul(samples.len() as u64 - 1)
        .map(|scaled| scaled.div_ceil(span))
        .and_then(|idx| usize::try_from(idx).ok())
        .filter(|&idx| brackets(idx));
    let idx = predicted.unwrap_or_else(|| samples.partition_point(|s| s.time < time));
    // ins-lint: allow(L009) -- idx >= 1: time > first.time was handled above
    let (a, b) = (samples[idx - 1], samples[idx]);
    if a.time == b.time {
        return Some(b.value);
    }
    let span = (b.time - a.time).as_secs() as f64;
    let frac = (time - a.time).as_secs() as f64 / span;
    Some(a.value + (b.value - a.value) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Trace {
        let mut t = Trace::new("ramp");
        for i in 0..=10u64 {
            t.record(SimTime::from_secs(i * 10), i as f64);
        }
        t
    }

    #[test]
    fn record_and_stats() {
        let t = ramp();
        assert_eq!(t.len(), 11);
        assert_eq!(t.stats().min(), 0.0);
        assert_eq!(t.stats().max(), 10.0);
        assert_eq!(t.stats().mean(), 5.0);
        assert_eq!(t.last().unwrap().value, 10.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn interpolation_midpoints_and_clamping() {
        let samples: Vec<Sample> = ramp().iter().copied().collect();
        assert_eq!(interpolate(&samples, SimTime::from_secs(25)), Some(2.5));
        assert_eq!(interpolate(&samples, SimTime::from_secs(0)), Some(0.0));
        // Clamped outside range.
        assert_eq!(interpolate(&samples, SimTime::from_secs(1000)), Some(10.0));
        assert_eq!(interpolate(&[], SimTime::ZERO), None);
    }

    #[test]
    fn downsample_preserves_bounds() {
        let samples: Vec<Sample> = ramp().iter().copied().collect();
        let d = downsample(&samples, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].value, 0.0);
        // Small series pass through unchanged.
        assert_eq!(downsample(&samples, 100).len(), 11);
        assert!(downsample(&samples, 0).is_empty());
    }

    #[test]
    fn iteration() {
        let t = ramp();
        let total: f64 = t.iter().map(|s| s.value).sum();
        assert_eq!(total, 55.0);
        let count = (&t).into_iter().count();
        assert_eq!(count, 11);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recorded out of order")]
    fn out_of_order_recording_panics_in_debug() {
        use crate::time::SimDuration;
        let mut t = Trace::new("bad");
        t.record(SimTime::from_secs(10), 1.0);
        t.record(SimTime::from_secs(10) - SimDuration::from_secs(5), 2.0);
    }
}
