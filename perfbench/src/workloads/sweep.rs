//! `sweep_grid`: the three grids users run — `fault_sweep`'s rate ×
//! {insure, baseline} grid, `recovery`'s interval × rate grid and the
//! late-window shared grid — on the default incremental path through the
//! public experiment functions, repeated over grid seeds derived from the
//! benchmark seed.
//!
//! The only workload that runs the incremental runner, snapshot/fork,
//! fault drain and apply, checkpoint and restore, and the baseline
//! controller, all at a 30 s step with relay faults churning bus
//! membership. A tick is one grid call: what a sweep user waits for.
//!
//! The gated timings run the grids on one thread. At threads = available
//! parallelism the wall clock also sees the runner's parallelism, but on
//! the 2-vCPU host the benchmark was tuned on it moved by a third from
//! minute to minute while single-threaded work moved by a few per cent,
//! as if the hypervisor at times put both vCPUs on one physical core. So
//! the parallel run is timed for the report only, and its rows are
//! checked against the single-thread rows.

use std::sync::Arc;
use std::time::Instant;

use ins_bench::experiments::faults::{self, FaultSweepRow};
use ins_bench::experiments::recovery::{self, RecoveryRow};
use ins_bench::runner;
use ins_core::controller::{BaselineController, InsureController, PowerController};
use ins_core::metrics::RunMetrics;
use ins_core::system::{InSituSystem, SystemEvent, SystemSnapshot, WorkloadModel};
use ins_sim::fault::FaultSchedule;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;
use ins_workload::checkpoint::CheckpointPolicy;

use super::{end_to_end, measure, time_setup, Opts, Rep};
use crate::gen::{self, Grid, SweepCell, SWEEP_SEEDS, TARGETS};
use crate::host::{process_cpu_ns, thread_cpu_ns};
use crate::probes::{layer_metrics, ControlStats, LayerTimes, PlantTrace, Shape, TimedController};
use crate::report::{Check, Digest, Metric, Outcome};
use crate::spans::Spans;
use crate::stats;

const STEP: SimDuration = SimDuration::from_secs(30);

fn end() -> SimTime {
    SimTime::from_hms(23, 59, 30)
}

/// Steps in one cell's day.
fn cell_steps() -> u64 {
    end().as_secs() / STEP.as_secs()
}

/// One grid through its public experiment function, as JSON rows.
fn public_grid(grid: Grid, seed: u64, threads: usize, incremental: bool) -> String {
    match (grid, incremental) {
        (Grid::Faults, true) => faults::to_json(&faults::sweep_rates_incremental(
            seed,
            &faults::RATES_HOURS,
            threads,
        )),
        (Grid::Faults, false) => faults::to_json(&faults::sweep_rates_with(
            seed,
            &faults::RATES_HOURS,
            threads,
        )),
        (Grid::Recovery, true) => recovery::to_json(&recovery::sweep_grid_incremental(
            seed,
            &recovery::CHECKPOINT_INTERVALS_HOURS,
            &recovery::FAULT_RATES_HOURS,
            threads,
        )),
        (Grid::Recovery, false) => recovery::to_json(&recovery::sweep_grid_with(
            seed,
            &recovery::CHECKPOINT_INTERVALS_HOURS,
            &recovery::FAULT_RATES_HOURS,
            threads,
        )),
        (Grid::Shared, incremental) => faults::to_json(&faults::sweep_shared_window(
            seed,
            &faults::RATES_HOURS,
            threads,
            incremental,
        )),
    }
}

fn cells_in(grid: Grid) -> usize {
    match grid {
        Grid::Faults | Grid::Shared => 2 * faults::RATES_HOURS.len(),
        Grid::Recovery => {
            2 * recovery::CHECKPOINT_INTERVALS_HOURS.len() * recovery::FAULT_RATES_HOURS.len()
        }
    }
}

/// One repetition: every grid of every seed on `threads` threads, each
/// grid call one tick.
///
/// Ticks are wall-clock, what a sweep user waits for: on several threads
/// a runner that serialised its cells, stalled at the prefix → fork
/// barrier or left a straggler would take longer by the wall clock at the
/// same CPU time. The CPU time of every worker is kept for the report.
fn rep(seeds: &[u64], threads: usize) -> Rep {
    let mut out = Rep::default();
    let mut d = Digest::default();
    let cpu = process_cpu_ns();
    for &seed in seeds {
        for grid in Grid::ALL {
            let t = Instant::now();
            let rows = public_grid(grid, seed, threads, true);
            out.ticks_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            d.line(&rows);
            out.sim_days += cells_in(grid) as f64;
            out.attempted += cells_in(grid) as u64;
        }
    }
    out.cpu_secs = (process_cpu_ns() - cpu) as f64 / 1e9;
    out.digest = d.value();
    out
}

/// Incremental rows must equal the from-scratch oracle and the
/// single-thread rows byte for byte; returns failures and failed cells.
fn equivalence(seed: u64, threads: usize) -> (Vec<String>, u64) {
    let mut failures = Vec::new();
    let mut failed = 0;
    for grid in Grid::ALL {
        let incremental = public_grid(grid, seed, threads, true);
        for (label, other) in [
            ("--no-incremental", public_grid(grid, seed, threads, false)),
            ("threads 1", public_grid(grid, seed, 1, true)),
        ] {
            if other != incremental {
                failures.push(format!(
                    "{} grid, seed {seed}: incremental rows differ from {label} rows",
                    grid.label()
                ));
                failed += cells_in(grid) as u64;
            }
        }
    }
    (failures, failed)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    let threads = crate::host::threads();
    let (setup_s, seeds) = time_setup(|| {
        let seeds = gen::derived_seeds(opts.seed, "sweep", SWEEP_SEEDS);
        // Every cell's schedule and plant, as the grids build them, one at
        // a time so the set-up never holds more than the workload does.
        for cell in seeds.iter().flat_map(|&s| gen::sweep_cells(s)) {
            std::hint::black_box(build(&cell, cell.schedule.clone(), None));
        }
        seeds
    });
    // Three quarters of the time on one thread for the gate, pinned to
    // each CPU in turn; the rest on every thread for the report.
    let mut measured = measure(opts.seconds * 0.75, 3, true, || rep(&seeds, 1));
    let parallel = measure(opts.seconds * 0.25, 1, false, || rep(&seeds, threads));
    let (failures, failed) = equivalence(seeds[0], threads);
    measured.warm.failures = failures;
    let mut out = end_to_end("sweep_grid", setup_s, &measured);
    let parallel_rate = parallel.fastest_rate();
    out.extra.extend([
        Metric::timed(
            "parallel.sim_days_per_s",
            "1/s",
            parallel_rate,
            parallel.reps.len(),
        ),
        Metric::timed(
            "parallel.sim_days_per_cpu_s",
            "1/s",
            super::cpu_rate(&parallel),
            parallel.reps.len(),
        ),
    ]);
    if threads >= 2 {
        out.extra.push(Metric::new(
            "parallel.speedup",
            "ratio",
            parallel_rate / measured.fastest_rate(),
        ));
    } else {
        out.notes
            .push("one core: no parallel speed-up or scaling figure is reported".to_string());
    }
    let mismatched = std::iter::once(&parallel.warm)
        .chain(&parallel.reps)
        .filter(|r| r.digest != measured.warm.digest)
        .count();
    out.failed += mismatched as u64;
    out.checks.push(Check::new(
        "parallel_rows_match_single_thread",
        mismatched == 0,
        format!(
            "{} repetitions at threads={threads}, {mismatched} differ",
            parallel.reps.len()
        ),
    ));
    out.failed += failed;
    out.notes
        .push(format!("gate on threads=1; parallel on threads={threads}"));
    out
}

fn controller(name: &str, control: Option<&Arc<ControlStats>>) -> Box<dyn PowerController> {
    match (name, control) {
        ("insure", None) => Box::new(InsureController::default()),
        ("insure", Some(c)) => {
            Box::new(TimedController::new(InsureController::default(), c.clone()))
        }
        (_, None) => Box::new(BaselineController::new()),
        (_, Some(c)) => Box::new(TimedController::new(BaselineController::new(), c.clone())),
    }
}

/// A cell's plant as the experiment builds it, under `schedule`.
fn build(
    cell: &SweepCell,
    schedule: FaultSchedule,
    control: Option<&Arc<ControlStats>>,
) -> InSituSystem {
    let mut builder = InSituSystem::builder(
        high_generation_day(cell.seed),
        controller(cell.controller, control),
    )
    .unit_count(TARGETS.units)
    .time_step(STEP)
    .fault_schedule(schedule);
    if let Some(h) = cell.checkpoint_hours {
        builder = builder.checkpoints(CheckpointPolicy::with_interval(SimDuration::from_secs(
            (h * 3600.0) as u64,
        )));
    }
    builder.build()
}

/// Host timing of one runner item, ns since the traced run's epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Busy {
    start: u64,
    end: u64,
}

/// What a traced grid returns per cell.
struct CellOut {
    metrics: RunMetrics,
    injected: usize,
    busy: Busy,
    skipped_steps: u64,
    fork_us: Option<f64>,
}

/// A group's shared prefix.
struct Prefix {
    snapshot: SystemSnapshot,
    busy: Busy,
    snapshot_us: f64,
}

/// One grid driven by benchmark closures through
/// `runner::run_cells_incremental`, mirroring the public function cell
/// for cell; returns JSON rows equal to the public function's.
fn traced_grid(
    grid: Grid,
    seed: u64,
    threads: usize,
    epoch: Instant,
    prefixes: &mut Vec<(Busy, f64)>,
) -> (String, Vec<CellOut>) {
    let cells: Vec<SweepCell> = gen::sweep_cells(seed)
        .into_iter()
        .filter(|c| c.grid == grid)
        .collect();
    let ns = |t: Instant| u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let key_of = |c: &SweepCell| {
        (
            (c.checkpoint_hours.map(f64::to_bits), c.controller),
            c.schedule.first_event_at(),
        )
    };
    let prefix_of = |&(ckpt, name): &(Option<u64>, &'static str), fork_at: SimTime| {
        let start = Instant::now();
        let template = SweepCell {
            grid,
            seed,
            checkpoint_hours: ckpt.map(f64::from_bits),
            rate_hours: None,
            controller: name,
            schedule: FaultSchedule::empty(),
        };
        let mut sys = build(
            &template,
            FaultSchedule::from_events(seed, Vec::new()),
            None,
        );
        sys.run_until(fork_at);
        let t = Instant::now();
        let snapshot = sys.snapshot().ok()?;
        let snapshot_us = t.elapsed().as_nanos() as f64 / 1e3;
        Some(Prefix {
            snapshot,
            busy: Busy {
                start: ns(start),
                end: ns(Instant::now()),
            },
            snapshot_us,
        })
    };
    let run = |_: usize, cell: &SweepCell, prefix: Option<&Prefix>| {
        let start = Instant::now();
        let (sys, skipped_steps, fork_us) = match prefix {
            Some(p) => {
                let t = Instant::now();
                let mut sys = InSituSystem::fork_from(&p.snapshot, cell.schedule.clone());
                let fork_us = t.elapsed().as_nanos() as f64 / 1e3;
                let skipped = p.snapshot.now().as_secs() / STEP.as_secs();
                sys.run_until(end());
                (sys, skipped, Some(fork_us))
            }
            None => {
                let mut sys = build(cell, cell.schedule.clone(), None);
                sys.run_until(end());
                (sys, 0, None)
            }
        };
        CellOut {
            metrics: RunMetrics::collect(&sys),
            injected: sys
                .events()
                .count(|e| matches!(e, SystemEvent::FaultInjected(_))),
            busy: Busy {
                start: ns(start),
                end: ns(Instant::now()),
            },
            skipped_steps,
            fork_us,
        }
    };
    // The prefix closure is called once per forkable group; record each.
    let recorded = std::sync::Mutex::new(Vec::new());
    let outs = runner::run_cells_incremental(
        threads,
        &cells,
        STEP,
        key_of,
        |key, fork_at| {
            let p = prefix_of(key, fork_at)?;
            recorded
                .lock()
                .expect("prefix log lock is never poisoned")
                .push((p.busy, p.snapshot_us));
            Some(p)
        },
        run,
    );
    prefixes.extend(
        recorded
            .into_inner()
            .expect("prefix log lock is never poisoned"),
    );
    let rows = match grid {
        Grid::Faults | Grid::Shared => faults::to_json(
            &cells
                .iter()
                .zip(&outs)
                .map(|(c, o)| FaultSweepRow {
                    mean_interarrival_hours: c.rate_hours.unwrap_or(f64::INFINITY),
                    controller: c.controller,
                    faults_injected: o.injected,
                    uptime: o.metrics.uptime,
                    gb_per_hour: o.metrics.throughput_gb_per_hour,
                    energy_availability_wh: o.metrics.mean_stored_energy_wh,
                    brownouts: o.metrics.brownouts,
                })
                .collect::<Vec<_>>(),
        ),
        Grid::Recovery => recovery::to_json(
            &cells
                .iter()
                .zip(&outs)
                .map(|(c, o)| RecoveryRow {
                    checkpoint_interval_hours: c.checkpoint_hours.unwrap_or(0.0),
                    mean_interarrival_hours: c.rate_hours.unwrap_or(f64::INFINITY),
                    controller: c.controller,
                    faults_injected: o.injected,
                    throughput_gb_per_hour: o.metrics.throughput_gb_per_hour,
                    goodput_gb_per_hour: o.metrics.goodput_gb_per_hour,
                    lost_work_hours: o.metrics.lost_work_hours,
                    mttr_minutes: o.metrics.mttr_minutes,
                    recoveries: o.metrics.recoveries,
                    data_loss_events: o.metrics.data_loss_events,
                    checkpoints_written: o.metrics.checkpoints_written,
                    checkpoints_torn: o.metrics.checkpoints_torn,
                })
                .collect::<Vec<_>>(),
        ),
    };
    (rows, outs)
}

fn traced(opts: &Opts) -> Outcome {
    let threads = crate::host::threads();
    let seeds = gen::derived_seeds(opts.seed, "sweep", SWEEP_SEEDS);
    let measured = measure(opts.seconds / 2.0, 1, false, || rep(&seeds, threads));
    let untraced_rate = measured.typical_rate();
    let warm = &measured.warm;

    // The grids through the runner with benchmark closures.
    let mut spans = Spans::new();
    let epoch = spans.epoch();
    let mut cells: Vec<CellOut> = Vec::new();
    let mut prefixes: Vec<(Busy, f64)> = Vec::new();
    let mut wall_ns = 0u64;
    let mut mismatches = Vec::new();
    let mut d = Digest::default();
    for &seed in &seeds {
        for grid in Grid::ALL {
            let call_start = spans.now();
            let (rows, outs) = traced_grid(grid, seed, threads, epoch, &mut prefixes);
            let call_end = spans.now();
            spans.record("runner.grid", call_start, call_end);
            wall_ns += call_end - call_start;
            d.line(&rows);
            if rows != public_grid(grid, seed, threads, true) {
                mismatches.push(format!("{} grid, seed {seed}", grid.label()));
            }
            cells.extend(outs);
        }
    }
    let cell_days = cells.len() as f64;
    // Wall-clock over the traced grid calls only, as the untraced rate.
    let traced_rate = cell_days * 1e9 / wall_ns as f64;
    for c in &cells {
        spans.record("runner.cell", c.busy.start, c.busy.end);
    }
    for (busy, _) in &prefixes {
        spans.record("runner.prefix", busy.start, busy.end);
    }
    let cell_ms: Vec<f64> = cells
        .iter()
        .map(|c| (c.busy.end - c.busy.start) as f64 / 1e6)
        .collect();
    let busy_ns: u64 = cells
        .iter()
        .map(|c| c.busy)
        .chain(prefixes.iter().map(|p| p.0))
        .map(|b| b.end - b.start)
        .sum();
    let skipped: u64 = cells.iter().map(|c| c.skipped_steps).sum();

    // Every cell of the first seed, stepped one step at a time.
    let control = ControlStats::new(epoch);
    let mut plant = PlantTrace::default();
    for cell in gen::sweep_cells(seeds[0]) {
        let mut sys = build(&cell, cell.schedule.clone(), Some(&control));
        plant.drive(&mut sys, end(), &control, &mut spans, |_| {});
    }
    plant.snapshot_us = prefixes.iter().map(|p| p.1).collect();
    plant.fork_us = cells.iter().filter_map(|c| c.fork_us).collect();
    let t = thread_cpu_ns();
    let solar = high_generation_day(seeds[0]);
    let solar_build_ms = (thread_cpu_ns() - t) as f64 / 1e6;
    let layers = LayerTimes::measure(&Shape {
        dt: STEP,
        units: TARGETS.units,
        workload: WorkloadModel::seismic,
        solar: &solar,
    });

    let mut out = Outcome {
        workload: "sweep_grid",
        attempted: cells.len() as u64,
        failed: if mismatches.is_empty() {
            0
        } else {
            cells.len() as u64
        },
        digest: warm.digest,
        ..Outcome::default()
    };
    out.metrics = layer_metrics(&plant, &layers, solar_build_ms);
    out.metrics.push(Metric::new(
        "trace.overhead_share",
        "fraction",
        1.0 - traced_rate / untraced_rate,
    ));
    let cell_summary = stats::summarize(&cell_ms);
    out.extra = vec![
        Metric::timed("runner.cell_ms_p50", "ms", cell_summary.p50, cell_summary.n),
        Metric::timed(
            "runner.cell_ms_max",
            "ms",
            cell_ms.iter().copied().fold(0.0, f64::max),
            cell_summary.n,
        ),
        Metric::new(
            "runner.idle_share",
            "fraction",
            1.0 - busy_ns as f64 / (threads as f64 * wall_ns as f64),
        ),
        Metric::new(
            "runner.prefix_reuse_share",
            "fraction",
            skipped as f64 / (cells.len() as u64 * cell_steps()) as f64,
        ),
        Metric::new("untraced.sim_days_per_s", "1/s", untraced_rate),
        Metric::new("traced.sim_days_per_s", "1/s", traced_rate),
    ];
    if threads >= 2 {
        out.extra.push(Metric::new(
            "runner.parallel_speedup",
            "ratio",
            busy_ns as f64 / wall_ns as f64,
        ));
    } else {
        out.notes
            .push("one core: no parallel speed-up or scaling figure is reported".to_string());
    }
    out.extra.extend(super::self_time_metrics(&spans));
    out.notes.push(format!("threads={threads}"));
    out.checks.push(Check::new(
        "traced_grids_match_public_functions",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{} cells byte-identical", cells.len())
        } else {
            mismatches.join("; ")
        },
    ));
    out.checks.push(Check::new(
        "traced_run_matches_untraced",
        d.value() == warm.digest,
        format!("{:016x} vs {:016x}", d.value(), warm.digest),
    ));
    super::write_spans(opts, "sweep_grid", &spans, &mut out);
    out
}
