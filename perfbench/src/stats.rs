//! Order statistics for host timings.

/// Percentiles the tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// A timing distribution reduced to what the report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest percentile in [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples beyond it, as a fraction (e.g. `0.99`);
    /// `None` when there are too few samples for any tail.
    pub tail_q: Option<f64>,
    /// The value at `tail_q` (the median when `tail_q` is `None`).
    pub tail: f64,
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples; the mean of the middle two for an even
/// count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The fastest of several timings of the same work: the time it takes
/// when the host leaves it alone.
///
/// Interference from other tenants of a shared host (a busy sibling
/// hyperthread, a neighbour thrashing the shared cache, a stolen time
/// slice) only ever adds time, so the minimum is the estimator it moves
/// least. On the 2-vCPU host the benchmark was tuned on, one `endurance`
/// repetition ran in a fast mode or one ~1.8× slower, switching every few
/// hundred milliseconds in a proportion that drifted from minute to
/// minute: the median over repetitions followed the proportion and moved
/// by up to 35 % between runs of one input. Two sweep workers are rarely
/// fast together, so a `sweep_grid` grid call spread out more smoothly:
/// its 10th percentile still moved by 30 % between runs, its minimum by
/// under 10 %.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn fast_end(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median plus the highest percentile with at least [`MIN_BEYOND`]
/// samples beyond it, and the sample count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summarize(samples: &[f64]) -> Percentiles {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = percentile(&sorted, 0.5);
    let tail_q = TAIL_LADDER
        .into_iter()
        .find(|&q| n as f64 * (1.0 - q) >= MIN_BEYOND as f64 - 1e-9);
    let tail = tail_q.map_or(p50, |q| percentile(&sorted, q));
    Percentiles {
        n,
        p50,
        tail_q,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, Some(0.99));
        assert_eq!(s.tail, 990.0);

        let s = summarize(&samples[..999]);
        assert_eq!(s.tail_q, Some(0.9), "999 samples leave 9.99 beyond p99");

        let s = summarize(&(1..=20_000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_q, Some(0.999));
        assert_eq!(s.tail, 19_980.0);

        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, None, 2.0));
    }

    #[test]
    fn fast_end_is_the_fastest_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fast_end(&samples), 1.0);
        // A slow mode in most repetitions does not move it.
        let mut mixed = vec![1.8; 95];
        mixed.extend([1.0; 5]);
        assert_eq!(fast_end(&mixed), 1.0);
        assert_eq!(fast_end(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
