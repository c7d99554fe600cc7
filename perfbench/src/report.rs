//! Metric names, the result object and its printing.

use crate::host::{json_str, HostInfo};

/// End-to-end metrics every untraced run prints, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_days_per_s", "1/s"),
    ("tick_us_p50", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints, with their units, in
/// `BENCHMARK.json` order. Workload-specific layers (runner, service,
/// fleet, replay lookup) are printed in the report of their own
/// workload only.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("core.step_ns_p50", "ns"),
    ("core.step_ns_p99", "ns"),
    ("core.control_ns", "ns"),
    ("core.control_calls_per_step", "count"),
    ("core.snapshot_us", "us"),
    ("core.fork_us", "us"),
    ("core.unattributed_share", "fraction"),
    ("battery.discharge_ns", "ns"),
    ("battery.charge_ns", "ns"),
    ("battery.rest_ns", "ns"),
    ("powernet.settle_ns", "ns"),
    ("powernet.charge_ns", "ns"),
    ("powernet.membership_ns", "ns"),
    ("powernet.membership_rebuilds_per_step", "count"),
    ("cluster.rack_step_ns", "ns"),
    ("cluster.power_demand_ns", "ns"),
    ("workload.step_ns", "ns"),
    ("solar.power_at_ns", "ns"),
    ("solar.build_ms", "ms"),
    ("sim.trace_samples", "count"),
    ("sim.faults_applied", "count"),
    ("trace.overhead_share", "fraction"),
];

/// `true` when `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Sample count behind a timing, when it is one.
    pub n: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            n: None,
        }
    }

    /// A timing taken over `n` samples.
    #[must_use]
    pub fn timed(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Self {
        Self {
            n: Some(n),
            ..Self::new(name, unit, value)
        }
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed either way.
    pub detail: String,
}

impl Check {
    /// A check result.
    #[must_use]
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations whose outputs were checked (runs, cells, service runs,
    /// fleet days).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Metrics for the final JSON line (the `BENCHMARK.json` set).
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report only.
    pub extra: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Digest of the simulated outputs (identical across repetitions).
    pub digest: u64,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `true` when every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable report, one line per item.
    #[must_use]
    pub fn report_lines(&self, host: &HostInfo, seed: u64, trace: bool) -> Vec<String> {
        let mut lines = vec![
            format!(
                "# perfbench workload={} seed={} trace={}",
                self.workload,
                seed,
                u8::from(trace)
            ),
            format!("host {}", host.to_json(seed)),
        ];
        for m in self.metrics.iter().chain(&self.extra) {
            let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
            lines.push(format!("metric {} = {} {}{}", m.name, m.value, m.unit, n));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            lines.push(format!("check {}: {} ({})", c.name, verdict, c.detail));
        }
        lines.push(format!("digest {:016x}", self.digest));
        lines.extend(self.notes.iter().map(|n| format!("note {n}")));
        lines
    }

    /// The final JSON line.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_number(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits (`null` otherwise).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// FNV-1a over a byte stream, for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs a string followed by a separator.
    pub fn line(&mut self, s: &str) {
        self.update(s.as_bytes());
        self.update(b"\n");
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let o = Outcome {
            workload: "w",
            attempted: 3,
            metrics: vec![Metric::new("setup_s", "s", 0.5)],
            checks: vec![Check::new("c", true, "")],
            ..Outcome::default()
        };
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
