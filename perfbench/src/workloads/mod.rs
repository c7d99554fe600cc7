//! The four workloads and what they share.

pub mod endurance;
pub mod fleet;
pub mod service;
pub mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::report::{Check, Metric, Outcome};
use crate::stats;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["endurance", "sweep_grid", "service_replay", "fleet_day"];

/// Set-up rounds timed per run; `setup_s` is the fastest set-up.
pub const SETUPS: usize = 10;

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "endurance" => Ok(endurance::run(opts)),
        "sweep_grid" => Ok(sweep::run(opts)),
        "service_replay" => Ok(service::run(opts)),
        "fleet_day" => Ok(fleet::run(opts)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Runs `f` once pinned to each CPU this thread may use, then lifts the
/// pin; runs it once, unpinned, without `rotate` or with a single CPU.
///
/// On a shared virtual host one vCPU can be persistently slower than
/// another, and a run left on one of them reads ~30 % apart from a run
/// left on the other; a round over every CPU sees each equally. Only
/// single-threaded work rotates: threads spawned while pinned would
/// inherit the pin.
fn on_each_cpu<R>(rotate: bool, mut f: impl FnMut() -> R) -> Vec<R> {
    let cpus = if rotate {
        host::allowed_cpus()
    } else {
        Vec::new()
    };
    if cpus.len() < 2 {
        return vec![f()];
    }
    let out = cpus
        .iter()
        .map(|&cpu| {
            host::pin_current_thread(&[cpu]);
            f()
        })
        .collect();
    host::pin_current_thread(&cpus);
    out
}

/// Times [`SETUPS`] rounds of `setup` (one per CPU each, see
/// [`on_each_cpu`]) and returns `setup_s`, the fastest set-up's seconds
/// (see [`stats::fast_end`]), with the last value built.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> (Metric, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        secs.extend(on_each_cpu(true, || {
            // Drop the previous build first so set-ups never overlap in
            // memory.
            drop(last.take());
            let t = host::thread_cpu_ns();
            last = Some(setup());
            (host::thread_cpu_ns() - t) as f64 / 1e9
        }));
    }
    let setup_s = Metric::timed("setup_s", "s", stats::fast_end(&secs), secs.len());
    (setup_s, last.expect("at least one set-up"))
}

/// One measured repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host µs of each tick by the monotonic clock. A tick is a fixed
    /// piece of the workload, so every repetition of one input has the
    /// same ticks in the same order.
    pub ticks_us: Vec<f64>,
    /// CPU seconds of every thread, for a workload that runs on several
    /// (`sweep_grid`); 0 elsewhere.
    pub cpu_secs: f64,
    /// Simulated days it covered (plant-, cell- or site-days).
    pub sim_days: f64,
    /// Digest of its simulated outputs.
    pub digest: u64,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Check failures, described.
    pub failures: Vec<String>,
    /// Shed plus failed requests (service and fleet).
    pub refused: u64,
    /// Requests offered (service and fleet).
    pub offered: u64,
}

/// What [`measure`] collected.
#[derive(Debug)]
pub struct Measured {
    /// The untimed warm-up repetition.
    pub warm: Rep,
    /// Every timed repetition, in order.
    pub reps: Vec<Rep>,
    /// Peak resident memory right after the warm-up, before the
    /// benchmark's own per-tick samples pile up.
    pub peak_rss_mb: std::io::Result<f64>,
}

impl Measured {
    /// Each tick's fastest host µs over the repetitions (see
    /// [`stats::fast_end`]): what the tick costs when the host leaves it
    /// alone. A tick is short next to the host's slow spells, so some
    /// repetition of it lands wholly outside one even when whole
    /// repetitions never do.
    #[must_use]
    pub fn fast_ticks_us(&self) -> Vec<f64> {
        let ticks = self.reps.iter().map(|r| r.ticks_us.len()).min();
        (0..ticks.unwrap_or(0))
            .map(|i| {
                let samples: Vec<f64> = self.reps.iter().map(|r| r.ticks_us[i]).collect();
                stats::fast_end(&samples)
            })
            .collect()
    }

    /// Simulated days per host second over each tick's fastest time.
    #[must_use]
    pub fn fastest_rate(&self) -> f64 {
        rate_of(self.warm.sim_days, &self.fast_ticks_us())
    }

    /// Simulated days per host second of the median repetition: what
    /// one pass, like a traced one, takes on this host as it is.
    #[must_use]
    pub fn typical_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .reps
            .iter()
            .map(|r| rate_of(r.sim_days, &r.ticks_us))
            .collect();
        stats::median(&rates)
    }
}

/// Simulated days per second when `sim_days` took `ticks_us`.
fn rate_of(sim_days: f64, ticks_us: &[f64]) -> f64 {
    sim_days * 1e6 / ticks_us.iter().sum::<f64>()
}

/// Runs `rep` once as a warm-up, then in rounds (see [`on_each_cpu`])
/// until `seconds` have passed (at least `min_rounds` rounds).
pub fn measure(
    seconds: f64,
    min_rounds: usize,
    rotate: bool,
    mut rep: impl FnMut() -> Rep,
) -> Measured {
    let warm = rep();
    let peak_rss_mb = host::peak_rss_mb();
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        reps.extend(on_each_cpu(rotate, &mut rep));
        rounds += 1;
    }
    Measured {
        warm,
        reps,
        peak_rss_mb,
    }
}

/// Simulated days per CPU second of the fastest repetition, for a
/// workload that runs on several threads.
#[must_use]
pub fn cpu_rate(measured: &Measured) -> f64 {
    let cpu: Vec<f64> = measured.reps.iter().map(|r| r.cpu_secs).collect();
    measured.warm.sim_days / stats::fast_end(&cpu)
}

/// The end-to-end outcome of an untraced run: metrics, checks and the
/// report-only extras.
pub fn end_to_end(workload: &'static str, setup_s: Metric, measured: &Measured) -> Outcome {
    let (warm, reps, peak) = (&measured.warm, &measured.reps, &measured.peak_rss_mb);
    let fast = measured.fast_ticks_us();
    // The tail is what a caller sees, interference included: every tick
    // of every repetition.
    let ticks: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.ticks_us.iter().copied())
        .collect();
    let tail = stats::summarize(&ticks);
    let mut sorted = ticks.clone();
    sorted.sort_by(f64::total_cmp);
    let p99 = stats::percentile(&sorted, 0.99);
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed_ops: u64 = reps.iter().map(|r| r.failed).sum();
    let offered: u64 = reps.iter().map(|r| r.offered).sum();
    let refused: u64 = reps.iter().map(|r| r.refused).sum();
    let failed_share = if offered > 0 {
        refused as f64 / offered as f64
    } else {
        failed_ops as f64 / attempted.max(1) as f64
    };
    let mut out = Outcome {
        workload,
        attempted,
        failed: failed_ops,
        digest: warm.digest,
        ..Outcome::default()
    };
    out.metrics = vec![
        setup_s,
        Metric::timed(
            "sim_days_per_s",
            "1/s",
            rate_of(warm.sim_days, &fast),
            reps.len(),
        ),
        Metric::timed("tick_us_p50", "us", stats::median(&fast), tail.n),
        Metric::new(
            "peak_rss_mb",
            "MB",
            peak.as_ref().map_or(f64::NAN, |mb| *mb),
        ),
    ];
    out.extra = vec![
        Metric::timed("tick_us_p99", "us", p99, tail.n),
        Metric::new("failed_share", "fraction", failed_share),
    ];
    match tail.tail_q {
        // p99 itself is already printed above.
        Some(q) if (q - 0.99).abs() < 1e-12 => {}
        // The median is no tail, and `tick_us_p50` is taken.
        Some(q) if q > 0.5 => out.extra.push(Metric::timed(
            format!("tick_us_p{}", q * 100.0),
            "us",
            tail.tail,
            tail.n,
        )),
        _ => out
            .notes
            .push(format!("{} ticks: too few for any tail percentile", tail.n)),
    }
    if tail.n < 1000 {
        out.notes.push(format!(
            "tick_us_p99 rests on {} ticks, fewer than 10 beyond it",
            tail.n
        ));
    }
    out.checks.push(Check::new(
        "peak_rss_measured",
        peak.is_ok(),
        format!("{peak:?}"),
    ));
    let mismatched = reps.iter().filter(|r| r.digest != warm.digest).count();
    out.checks.push(Check::new(
        "digest_identical_across_repetitions",
        mismatched == 0,
        format!(
            "{} repetitions, {mismatched} differ from {:016x}",
            reps.len(),
            warm.digest
        ),
    ));
    let failures: Vec<&String> = std::iter::once(warm)
        .chain(reps)
        .flat_map(|r| &r.failures)
        .collect();
    out.checks.push(Check::new(
        "outputs",
        failures.is_empty(),
        if failures.is_empty() {
            format!("{attempted} operations checked")
        } else {
            format!("{} failures, first: {}", failures.len(), failures[0])
        },
    ));
    out
}

/// Mean self time per span, one report metric per span name.
#[must_use]
pub fn self_time_metrics(spans: &crate::spans::Spans) -> Vec<Metric> {
    spans
        .self_times()
        .into_iter()
        .map(|(name, (ns, count))| {
            Metric::timed(
                format!("self.{name}_ns"),
                "ns",
                ns as f64 / count.max(1) as f64,
                usize::try_from(count).unwrap_or(usize::MAX),
            )
        })
        .collect()
}

/// Writes the traced run's spans under `opts.out_dir` and notes where.
pub fn write_spans(opts: &Opts, workload: &str, spans: &crate::spans::Spans, out: &mut Outcome) {
    let path = opts.out_dir.join(format!("{workload}-spans.jsonl"));
    let written = spans.write_jsonl(&path);
    out.checks.push(Check::new(
        "spans_written",
        written.is_ok(),
        format!(
            "{} spans to {}: {written:?}",
            spans.spans().len(),
            path.display()
        ),
    ));
}
