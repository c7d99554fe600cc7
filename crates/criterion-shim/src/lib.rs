//! Minimal benchmarking shim with the `criterion` API surface this
//! workspace uses.
//!
//! The build environment has no registry access, so the real `criterion`
//! crate cannot be fetched. `bench_report` times its sweeps through
//! [`Criterion::bench_function`] and [`Bencher::iter`], which keep the
//! real crate's signatures, and reads the timings back through
//! [`Criterion::results`]. Timing is a straightforward wall-clock
//! measurement (mean of one auto-sized batch) printed as
//! `name  ...  <time>/iter` — no statistics engine, plots, or baselines.

use std::time::{Duration, Instant};

/// Re-export for `use criterion::black_box` compatibility.
pub use std::hint::black_box;

/// Per-iteration timing driver handed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Mean nanoseconds per iteration of the last [`Bencher::iter`] run.
    last_ns_per_iter: f64,
}

impl Bencher {
    /// Times `routine`, auto-scaling the iteration count so the
    /// measurement lasts long enough to be meaningful but stays fast.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm up and estimate a single-iteration cost. Wall-clock time
        // is the whole point of a benchmark harness.
        let start = Instant::now(); // ins-lint: allow(L003)
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));

        // Aim for ~100 ms of measurement, capped to keep heavy
        // experiment benches from dragging.
        let target = Duration::from_millis(100);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let start = Instant::now(); // ins-lint: allow(L003)
        for _ in 0..iters {
            black_box(routine());
        }
        let total = start.elapsed();
        self.last_ns_per_iter = total.as_nanos() as f64 / iters as f64;
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Benchmark registry/driver.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<(String, f64)>,
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        println!(
            "bench: {name:<44} {:>12}/iter",
            format_ns(b.last_ns_per_iter)
        );
        self.results.push((name.to_string(), b.last_ns_per_iter));
        self
    }

    /// All `(name, mean ns/iter)` measurements recorded so far, in run
    /// order. Lets a driver export benchmark artifacts as JSON.
    #[must_use]
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_and_chains() {
        let mut c = Criterion::default();
        c.bench_function("shim_smoke", |b| b.iter(|| 1 + 1))
            .bench_function("shim_smoke_2", |b| b.iter(|| black_box(2) * 2));
    }

    #[test]
    fn results_record_every_bench_in_order() {
        let mut c = Criterion::default();
        c.bench_function("first", |b| b.iter(|| black_box(1) + 1));
        c.bench_function("second", |b| b.iter(|| black_box(2) + 2));
        let names: Vec<&str> = c.results().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["first", "second"]);
        assert!(c.results().iter().all(|(_, ns)| *ns > 0.0));
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(12_000_000_000.0).contains('s'));
    }
}
