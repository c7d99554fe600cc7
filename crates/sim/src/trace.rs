//! Time-series recording for simulation outputs.
//!
//! A [`Trace`] is the in-memory analogue of the paper's data logger: every
//! monitored quantity (solar budget, battery terminal voltage, server load)
//! is a sequence of `(time, value)` samples that the experiment harness can
//! summarize or print.

use std::sync::Arc;

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

/// Samples per sealed chunk of a [`Trace`] (16 KiB of samples).
///
/// A clone copies at most one chunk's worth of unsealed samples per
/// trace, so snapshot and fork costs stay flat however long the run.
pub const CHUNK_LEN: usize = 1 << 10;

/// A named, append-only time series of `f64` samples.
///
/// Samples are kept in sealed chunks of [`CHUNK_LEN`] behind `Arc`s plus
/// one owned tail holding the samples since the last seal. Cloning a
/// trace (every plant snapshot and fork does) shares the sealed chunks
/// and copies only the tail. The tail grows like a `Vec`, so a short
/// trace never allocates a whole chunk.
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
    /// Full chunks, oldest first, each exactly [`CHUNK_LEN`] samples.
    sealed: Vec<Arc<[Sample]>>,
    /// Samples recorded since the last seal; always fewer than
    /// [`CHUNK_LEN`].
    tail: Vec<Sample>,
    stats: RunningStats,
}

impl Trace {
    /// Creates an empty trace with a human-readable name (conventionally
    /// including the unit, e.g. `"battery #1 V"`).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            sealed: Vec::new(),
            tail: Vec::new(),
            stats: RunningStats::new(),
        }
    }

    /// The trace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is earlier than the last recorded
    /// sample — traces must be recorded in chronological order.
    pub fn record(&mut self, time: SimTime, value: f64) {
        debug_assert!(
            self.last().is_none_or(|s| s.time <= time),
            "trace '{}' recorded out of order",
            self.name
        );
        self.tail.push(Sample { time, value });
        if self.tail.len() == CHUNK_LEN {
            // Copy the full tail into a shared chunk and keep its buffer
            // for the next one.
            self.sealed.push(Arc::from(self.tail.as_slice()));
            self.tail.clear();
        }
        self.stats.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_LEN + self.tail.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The sealed chunks, oldest first. Each holds exactly [`CHUNK_LEN`]
    /// samples and is shared with every clone taken after it was sealed.
    #[must_use]
    pub fn sealed_chunks(&self) -> &[Arc<[Sample]>] {
        &self.sealed
    }

    /// Iterates over the samples in chronological order.
    pub fn iter(&self) -> Iter<'_> {
        let chunk: fn(&Arc<[Sample]>) -> &[Sample] = |c| &c[..];
        self.sealed.iter().flat_map(chunk).chain(self.tail.iter())
    }

    /// Summary statistics over all recorded values.
    #[must_use]
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// The most recent sample, if any. O(1).
    #[must_use]
    pub fn last(&self) -> Option<Sample> {
        self.tail
            .last()
            .or_else(|| self.sealed.last().and_then(|c| c.last()))
            .copied()
    }

    /// The sample at `index` in recording order. O(1).
    fn get(&self, index: usize) -> Option<Sample> {
        match self.sealed.get(index / CHUNK_LEN) {
            Some(chunk) => chunk.get(index % CHUNK_LEN),
            None => self.tail.get(index - self.sealed.len() * CHUNK_LEN),
        }
        .copied()
    }

    /// Downsamples to at most `max_points` evenly spaced samples, for
    /// compact printing of day-long traces. Returns all samples when the
    /// trace is already small enough.
    #[must_use]
    pub fn downsample(&self, max_points: usize) -> Vec<Sample> {
        stride_indices(self.len(), max_points)
            .filter_map(|i| self.get(i))
            .collect()
    }
}

/// Iterator over a [`Trace`]'s samples: each sealed chunk, then the tail.
pub type Iter<'a> = core::iter::Chain<
    core::iter::FlatMap<
        core::slice::Iter<'a, Arc<[Sample]>>,
        &'a [Sample],
        fn(&'a Arc<[Sample]>) -> &'a [Sample],
    >,
    core::slice::Iter<'a, Sample>,
>;

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Sample;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// [`Trace::downsample`] over a contiguous sample slice.
#[must_use]
pub fn downsample(samples: &[Sample], max_points: usize) -> Vec<Sample> {
    stride_indices(samples.len(), max_points)
        .filter_map(|i| samples.get(i).copied())
        .collect()
}

/// The indices of at most `max_points` evenly spaced samples out of
/// `len`: every index when `len` fits.
fn stride_indices(len: usize, max_points: usize) -> impl Iterator<Item = usize> {
    let stride = if len <= max_points {
        1.0
    } else {
        len as f64 / max_points as f64
    };
    (0..len.min(max_points)).map(move |i| (i as f64 * stride) as usize)
}

/// Linearly interpolated value at `time` over time-ordered `samples`.
///
/// Clamps to the first/last sample outside the recorded range. Returns
/// `None` for an empty slice. On evenly spaced samples (every generated
/// trace) the lookup is O(1); otherwise it is a binary search. Both find
/// the same bracketing samples.
#[must_use]
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
        let t = ramp();
        let d = t.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].value, 0.0);
        // Small traces pass through unchanged.
        assert_eq!(t.downsample(100).len(), 11);
        assert!(t.downsample(0).is_empty());
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
