//! Replay feeds: line-oriented input traces for service mode.
//!
//! A live `insure_service` daemon ingests streaming load and irradiance
//! measurements; for reproducible runs (and the CI kill/resume chaos
//! job) the same inputs come from a *replay feed* — a small
//! comma-separated text format:
//!
//! ```text
//! # time_s, solar_w, work_gb
//! 0,     0.0,  0.0
//! 3600,  310.5, 2.0
//! 7200,  840.0, 2.0
//! ```
//!
//! Each row gives the harvested solar power at an instant and the work
//! (GB) *offered* to the admission controller at that instant. Rows are
//! strictly time-ordered; blank lines and `#` comments are ignored. The
//! format round-trips through [`ReplayFeed::to_csv`], so a feed written
//! by one run parses byte-identically in the next — the basis of the
//! kill-resume determinism contract.

use core::fmt;

use crate::time::SimTime;
use crate::trace::Trace;

/// One replay row: the inputs arriving at `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayRow {
    /// Instant the measurements were taken / the work arrived.
    pub time: SimTime,
    /// Harvested solar power, watts.
    pub solar_w: f64,
    /// Work offered to admission at this instant, GB (0 for none).
    pub work_gb: f64,
}

/// A parse failure, pinned to its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong on that line.
    pub kind: ReplayErrorKind,
}

/// The ways a replay line can be rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayErrorKind {
    /// Not 2 or 3 comma-separated fields.
    FieldCount(usize),
    /// A field failed to parse as a number.
    BadNumber(String),
    /// A value was negative or non-finite.
    InvalidValue(String),
    /// The row's timestamp precedes the previous row's.
    OutOfOrder,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay line {}: ", self.line)?;
        match &self.kind {
            ReplayErrorKind::FieldCount(n) => {
                write!(f, "expected `time_s, solar_w[, work_gb]`, got {n} fields")
            }
            ReplayErrorKind::BadNumber(field) => write!(f, "unparseable number {field:?}"),
            ReplayErrorKind::InvalidValue(field) => {
                write!(f, "value {field:?} must be finite and non-negative")
            }
            ReplayErrorKind::OutOfOrder => write!(f, "timestamps must be non-decreasing"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A parsed, time-ordered replay feed.
///
/// # Examples
///
/// ```
/// use ins_sim::replay::ReplayFeed;
/// use ins_sim::time::SimTime;
///
/// let feed = ReplayFeed::parse("0, 0.0, 1.5\n60, 200.0\n").unwrap();
/// assert_eq!(feed.rows().len(), 2);
/// // The degenerate first window delivers the epoch row.
/// assert!((feed.work_between(SimTime::ZERO, SimTime::ZERO) - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayFeed {
    rows: Vec<ReplayRow>,
}

impl ReplayFeed {
    /// Parses the text form.
    ///
    /// # Errors
    ///
    /// Returns the first offending line as a [`ReplayError`].
    pub fn parse(text: &str) -> Result<Self, ReplayError> {
        let mut rows: Vec<ReplayRow> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split(',').map(str::trim).collect();
            if fields.len() < 2 || fields.len() > 3 {
                return Err(ReplayError {
                    line,
                    kind: ReplayErrorKind::FieldCount(fields.len()),
                });
            }
            let number = |field: &str| -> Result<f64, ReplayError> {
                let v: f64 = field.parse().map_err(|_| ReplayError {
                    line,
                    kind: ReplayErrorKind::BadNumber(field.to_string()),
                })?;
                if !v.is_finite() || v < 0.0 {
                    return Err(ReplayError {
                        line,
                        kind: ReplayErrorKind::InvalidValue(field.to_string()),
                    });
                }
                Ok(v)
            };
            let time_s = fields[0].parse::<u64>().map_err(|_| ReplayError {
                line,
                kind: ReplayErrorKind::BadNumber(fields[0].to_string()),
            })?;
            let solar_w = number(fields[1])?;
            let work_gb = if fields.len() == 3 {
                number(fields[2])?
            } else {
                0.0
            };
            let time = SimTime::from_secs(time_s);
            if rows.last().is_some_and(|r: &ReplayRow| time < r.time) {
                return Err(ReplayError {
                    line,
                    kind: ReplayErrorKind::OutOfOrder,
                });
            }
            rows.push(ReplayRow {
                time,
                solar_w,
                work_gb,
            });
        }
        Ok(Self { rows })
    }

    /// The rows in chronological order.
    #[must_use]
    pub fn rows(&self) -> &[ReplayRow] {
        &self.rows
    }

    /// `true` when the feed has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The instant of the last row (`None` for an empty feed).
    #[must_use]
    pub fn end(&self) -> Option<SimTime> {
        self.rows.last().map(|r| r.time)
    }

    /// The solar rows as an interpolatable [`Trace`] (watts).
    #[must_use]
    pub fn solar_trace(&self) -> Trace {
        let mut t = Trace::new("replay solar W");
        for r in &self.rows {
            t.record(r.time, r.solar_w);
        }
        t
    }

    /// Total work offered in the half-open window `(from, to]` — the
    /// admission controller calls this once per tick with the previous
    /// and current tick instants, so every row is offered exactly once.
    #[must_use]
    pub fn work_between(&self, from: SimTime, to: SimTime) -> f64 {
        // `from == to == first row's time` (the first tick) must still
        // deliver that row: treat a degenerate window as inclusive. The
        // rows are time-ordered, so the window is one contiguous run,
        // bounded by two binary searches.
        let start = if from == to {
            self.rows.partition_point(|r| r.time < from)
        } else {
            self.rows.partition_point(|r| r.time <= from)
        };
        let end = self.rows.partition_point(|r| r.time <= to);
        self.rows
            .get(start..end)
            .unwrap_or_default()
            .iter()
            .map(|r| r.work_gb)
            .sum()
    }

    /// Serializes back to the text form (deterministic formatting: one
    /// row per line, three fields, 3-decimal values).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# time_s, solar_w, work_gb\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}, {:.3}, {:.3}\n",
                r.time.as_secs(),
                r.solar_w,
                r.work_gb
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::interpolate;

    #[test]
    fn parses_comments_blank_lines_and_optional_work_column() {
        let feed = ReplayFeed::parse(
            "# header\n\n0, 0.0, 1.0\n60, 100.0   # trailing comment\n120, 200.0, 0.5\n",
        )
        .unwrap();
        assert_eq!(feed.rows().len(), 3);
        assert!((feed.rows()[1].work_gb).abs() < 1e-12);
        assert_eq!(feed.end(), Some(SimTime::from_secs(120)));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let e = ReplayFeed::parse("0, 1.0\nnonsense\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = ReplayFeed::parse("0, 1.0\n60, -5.0\n").unwrap_err();
        assert_eq!(e.kind, ReplayErrorKind::InvalidValue("-5.0".to_string()));
        let e = ReplayFeed::parse("60, 1.0\n0, 1.0\n").unwrap_err();
        assert_eq!(e.kind, ReplayErrorKind::OutOfOrder);
        let e = ReplayFeed::parse("60\n").unwrap_err();
        assert_eq!(e.kind, ReplayErrorKind::FieldCount(1));
    }

    #[test]
    fn round_trips_through_csv() {
        let feed = ReplayFeed::parse("0, 0.0, 1.0\n3600, 310.5, 2.0\n").unwrap();
        let csv = feed.to_csv();
        let again = ReplayFeed::parse(&csv).unwrap();
        assert_eq!(feed, again);
        assert_eq!(csv, again.to_csv(), "serialization is a fixed point");
    }

    #[test]
    fn work_windows_partition_the_feed() {
        let feed = ReplayFeed::parse("0, 0.0, 1.0\n60, 0.0, 2.0\n120, 0.0, 4.0\n").unwrap();
        let t = |s| SimTime::from_secs(s);
        // The first (degenerate) window delivers the epoch row.
        assert!((feed.work_between(t(0), t(0)) - 1.0).abs() < 1e-12);
        assert!((feed.work_between(t(0), t(60)) - 2.0).abs() < 1e-12);
        assert!((feed.work_between(t(60), t(120)) - 4.0).abs() < 1e-12);
        assert!(feed.work_between(t(120), t(180)).abs() < 1e-12);
        let total: f64 = [
            feed.work_between(t(0), t(0)),
            feed.work_between(t(0), t(60)),
            feed.work_between(t(60), t(120)),
        ]
        .iter()
        .sum();
        assert!(
            (total - 7.0).abs() < 1e-12,
            "every row offered exactly once"
        );
    }

    #[test]
    fn solar_trace_interpolates_between_rows() {
        let feed = ReplayFeed::parse("0, 0.0\n100, 1000.0\n").unwrap();
        let samples: Vec<_> = feed.solar_trace().iter().copied().collect();
        assert_eq!(interpolate(&samples, SimTime::from_secs(50)), Some(500.0));
    }
}
