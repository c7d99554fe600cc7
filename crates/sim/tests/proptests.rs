//! Property tests for the simulation kernel.

use proptest::prelude::*;

use ins_sim::backoff::{Backoff, BackoffOutcome};
use ins_sim::replay::ReplayFeed;
use ins_sim::stats::RunningStats;
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::trace::{downsample, interpolate, Sample, Trace};
use ins_sim::units::{Amps, Hours, Volts, WattHours, Watts};

proptest! {
    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn running_stats_match_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let stats: RunningStats = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((stats.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((stats.population_variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(stats.count(), values.len() as u64);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(stats.min(), min);
        prop_assert_eq!(stats.max(), max);
    }

    /// Merging partitioned stats equals computing them in one pass
    /// (parallel Welford). Tolerances scale with the magnitude of the
    /// quantity — an ulp-style bound — so the property holds equally for
    /// values near zero and values in the 1e6 range, and min/max/count
    /// must match *exactly* (they are order-independent).
    #[test]
    fn stats_merge_associative(
        a in proptest::collection::vec(-1e6f64..1e6, 0..80),
        b in proptest::collection::vec(-1e6f64..1e6, 0..80)
    ) {
        let mut merged: RunningStats = a.iter().copied().collect();
        let right: RunningStats = b.iter().copied().collect();
        merged.merge(&right);
        let whole: RunningStats = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count(), whole.count());
        if !a.is_empty() || !b.is_empty() {
            prop_assert_eq!(merged.min(), whole.min());
            prop_assert_eq!(merged.max(), whole.max());
        }
        // Scaled tolerance: a few hundred ulps of the quantity's own
        // magnitude (floored at machine epsilon for values near zero).
        let tol = |x: f64| 512.0 * f64::EPSILON * x.abs().max(1.0);
        prop_assert!(
            (merged.mean() - whole.mean()).abs() <= tol(whole.mean()),
            "mean {} vs {}", merged.mean(), whole.mean()
        );
        // Variance is a difference of squares — grant it the square of
        // the data scale: cancellation error grows with (Σx²)-style
        // intermediates, not with the variance itself.
        let scale = a.iter().chain(b.iter()).fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(
            (merged.population_variance() - whole.population_variance()).abs()
                <= 512.0 * f64::EPSILON * scale * scale,
            "variance {} vs {}", merged.population_variance(), whole.population_variance()
        );
    }

    /// Trace interpolation always lies within the sample value range.
    #[test]
    fn trace_interpolation_bounded(
        values in proptest::collection::vec(-100f64..100.0, 2..100),
        query_s in 0u64..20_000
    ) {
        let samples: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| Sample { time: SimTime::from_secs(i as u64 * 60), value })
            .collect();
        let v = interpolate(&samples, SimTime::from_secs(query_s)).expect("non-empty trace");
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    /// The indexed lookup finds exactly the bracketing samples a binary
    /// search finds, bit for bit, on evenly spaced traces, irregular ones
    /// and ones with repeated timestamps.
    #[test]
    fn trace_lookup_matches_binary_search(
        gaps in proptest::collection::vec(0u64..40, 1..80),
        spacing in 1u64..30,
        even in 0u8..2,
        queries in proptest::collection::vec(0u64..4_000, 1..60)
    ) {
        let mut samples = Vec::new();
        let mut at = 500;
        for (i, gap) in gaps.iter().enumerate() {
            let value = (i as f64 * 0.37).sin() * 100.0;
            samples.push(Sample { time: SimTime::from_secs(at), value });
            at += if even == 1 { spacing } else { *gap };
        }
        // Random instants, plus every sample's own instant and its
        // neighbours, where repeated timestamps make the index ambiguous.
        let at_samples = samples
            .iter()
            .flat_map(|s| [s.time.as_secs() - 1, s.time.as_secs(), s.time.as_secs() + 1]);
        for q in queries.into_iter().chain(at_samples) {
            let time = SimTime::from_secs(q);
            let expected = reference_value_at(&samples, time).map(f64::to_bits);
            prop_assert_eq!(interpolate(&samples, time).map(f64::to_bits), expected);
        }
    }

    /// A replay window sums exactly the rows the linear filter selects,
    /// in the same order, including repeated timestamps, empty and
    /// reversed windows and the degenerate first window.
    #[test]
    fn replay_windows_match_linear_filter(
        gaps in proptest::collection::vec(0u64..3, 0..60),
        work in proptest::collection::vec(0.0f64..5.0, 60..61),
        windows in proptest::collection::vec((0u64..140, 0u64..8), 1..40)
    ) {
        let mut csv = String::new();
        let mut at = 0;
        for (gap, gb) in gaps.iter().zip(&work) {
            at += gap;
            csv.push_str(&format!("{at}, 0.0, {gb}\n"));
        }
        let feed = ReplayFeed::parse(&csv).expect("generated feed parses");
        let first = feed.rows().first().map_or(SimTime::ZERO, |r| r.time);
        let mut cases = vec![(first, first)];
        for (from, width) in windows {
            let from = SimTime::from_secs(from);
            cases.push((from, from + SimDuration::from_secs(width)));
            cases.push((from + SimDuration::from_secs(width), from));
        }
        for (from, to) in cases {
            prop_assert_eq!(
                feed.work_between(from, to).to_bits(),
                linear_work_between(&feed, from, to).to_bits()
            );
        }
    }

    /// Downsampling never invents samples, keeps chronological order and
    /// picks the evenly strided indices.
    #[test]
    fn downsample_is_a_subsequence(
        n in 1usize..300,
        max_points in 0usize..50
    ) {
        let samples: Vec<Sample> = (0..n)
            .map(|i| Sample { time: SimTime::from_secs(i as u64), value: i as f64 })
            .collect();
        let d = downsample(&samples, max_points);
        prop_assert!(d.len() <= max_points.min(n));
        prop_assert!(d.windows(2).all(|w| w[0].time < w[1].time));
        for s in &d {
            prop_assert_eq!(s.value, s.time.as_secs() as f64);
        }
        // The stride selection, written out.
        let expected: Vec<Sample> = if n <= max_points {
            samples.clone()
        } else {
            let stride = n as f64 / max_points as f64;
            (0..max_points)
                .map(|i| samples[(i as f64 * stride) as usize])
                .collect()
        };
        prop_assert_eq!(d, expected);
    }

    /// Unit arithmetic: P = V·I and E = P·t round-trip.
    #[test]
    fn unit_round_trips(v in 0.1f64..1000.0, i in 0.1f64..1000.0, h in 0.1f64..1000.0) {
        let p: Watts = Volts::new(v) * Amps::new(i);
        prop_assert!(((p / Volts::new(v)).value() - i).abs() < 1e-9 * i);
        let e: WattHours = p * Hours::new(h);
        prop_assert!(((e / Hours::new(h)).value() - p.value()).abs() < 1e-6 * p.value());
    }

    /// Time arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_addition_inverts(secs in 0u64..1_000_000, d in 0u64..1_000_000) {
        let t = SimTime::from_secs(secs);
        let dur = SimDuration::from_secs(d);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur).since(t), dur);
    }

    /// Supervised restarts accumulate unbounded attempts over a
    /// long-lived service: the backoff delay must plateau at the doubling
    /// cap (saturating at `u64::MAX` seconds for absurd caps) and never
    /// overflow, shrink, or panic, no matter how long the streak runs.
    #[test]
    fn backoff_delay_capped_at_absurd_attempt_counts(
        base_secs in 0u64..=1_000_000,
        max_doublings in 0u32..=512,
        failures in 1u32..=2_000,
    ) {
        let base = SimDuration::from_secs(base_secs);
        let mut b = Backoff::new(base, max_doublings, u32::MAX);
        let plateau = if base_secs == 0 {
            0
        } else if max_doublings >= 64 {
            u64::MAX
        } else {
            base_secs.saturating_mul(1u64 << max_doublings)
        };
        let mut now = SimTime::from_secs(0);
        let mut prev_delay = b.current_backoff();
        for n in 0..failures {
            match b.record_failure(now) {
                BackoffOutcome::Retry { next_attempt } => {
                    prop_assert!(next_attempt >= now, "gate must not precede now");
                    prop_assert!(b.ready(next_attempt));
                    now = next_attempt;
                }
                BackoffOutcome::Exhausted => {
                    prop_assert!(false, "u32::MAX attempts never exhaust");
                }
            }
            let delay = b.current_backoff();
            prop_assert!(delay.as_secs() <= plateau, "delay above plateau");
            prop_assert!(delay >= prev_delay, "delay shrank at failure {}", n);
            prev_delay = delay;
        }
        if u64::from(failures) > u64::from(max_doublings) {
            prop_assert_eq!(b.current_backoff().as_secs(), plateau);
        }
        // A success resets the streak no matter how deep it ran.
        b.record_success();
        prop_assert_eq!(b.consecutive_failures(), 0);
        prop_assert_eq!(b.current_backoff(), base);
    }

    /// Exhaustion fires on exactly the `max_attempts`-th straight
    /// failure, independent of base delay and doubling cap.
    #[test]
    fn backoff_exhausts_exactly_at_max_attempts(
        base_secs in 1u64..=3_600,
        max_doublings in 0u32..=100,
        max_attempts in 1u32..=64,
    ) {
        let mut b = Backoff::new(
            SimDuration::from_secs(base_secs),
            max_doublings,
            max_attempts,
        );
        let mut now = SimTime::from_secs(0);
        for n in 1..=max_attempts {
            match b.record_failure(now) {
                BackoffOutcome::Retry { next_attempt } => {
                    prop_assert!(n < max_attempts, "retry after the exhaustion point");
                    now = next_attempt;
                }
                BackoffOutcome::Exhausted => {
                    prop_assert_eq!(n, max_attempts, "exhausted early");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A latest-only trace summarizes exactly what a full trace does:
    /// after every sample of a random time-ordered run, both report the
    /// same `stats()` and `last()`, and the latest-only one retains that
    /// last sample alone while the full one retains every sample.
    #[test]
    fn latest_only_trace_summarizes_like_a_full_trace(
        steps in proptest::collection::vec((0u64..600, -1e6f64..1e6), 0..3000)
    ) {
        let mut full = Trace::new("full");
        let mut latest = Trace::latest_only("latest");
        let mut reference = Vec::new();
        let mut now = SimTime::ZERO;
        for (gap_s, value) in steps {
            now += SimDuration::from_secs(gap_s);
            full.record(now, value);
            latest.record(now, value);
            reference.push(Sample { time: now, value });
            prop_assert_eq!(latest.stats(), full.stats());
            prop_assert_eq!(latest.last(), full.last());
            prop_assert!(latest.len() <= 1);
        }
        prop_assert_eq!(full.len(), reference.len());
        prop_assert!(IntoIterator::into_iter(&full).eq(reference.iter()), "full history");
        let stats: RunningStats = reference.iter().map(|s| s.value).collect();
        prop_assert_eq!(full.stats(), &stats);
        let last: Vec<Sample> = full.last().into_iter().collect();
        prop_assert_eq!(latest.len(), last.len());
        prop_assert_eq!(latest.is_empty(), last.is_empty());
        prop_assert!(latest.iter().eq(last.iter()), "iteration sees only the last sample");
        let copy = latest.clone();
        prop_assert_eq!(&copy, &latest);
    }
}

/// `interpolate` as a plain binary search: the reference the indexed
/// lookup must agree with.
fn reference_value_at(samples: &[Sample], time: SimTime) -> Option<f64> {
    let (first, last) = (*samples.first()?, *samples.last()?);
    if time <= first.time {
        return Some(first.value);
    }
    if time >= last.time {
        return Some(last.value);
    }
    let idx = samples.partition_point(|s| s.time < time);
    let (a, b) = (samples[idx - 1], samples[idx]);
    if a.time == b.time {
        return Some(b.value);
    }
    let frac = (time - a.time).as_secs() as f64 / (b.time - a.time).as_secs() as f64;
    Some(a.value + (b.value - a.value) * frac)
}

/// `ReplayFeed::work_between` as a filter over every row: the reference
/// the binary-searched window must agree with.
fn linear_work_between(feed: &ReplayFeed, from: SimTime, to: SimTime) -> f64 {
    feed.rows()
        .iter()
        .filter(|r| (r.time > from || (from == to && r.time == from)) && r.time <= to)
        .map(|r| r.work_gb)
        .sum()
}
