//! Benchmark artifact generator: `BENCH_step.json` + `BENCH_sweep.json`.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin bench_report -- \
//!     [--threads N] [--out DIR]
//! ```
//!
//! `BENCH_step.json` records the simulator's hot-path timings (the
//! per-step cost `InSituSystem::step` pays and the one-day run built on
//! it). `BENCH_sweep.json` records wall-clock for the fault-sweep and
//! recovery grids serially and at `--threads N` (default: available
//! parallelism), the machine's `available_parallelism`, the resulting
//! parallel speedups when the machine has at least two cores (on one
//! core a "speedup" measures only scheduling overhead, so it is left
//! out), and the incremental engine's scratch-vs-forked timing on the
//! shared late-window grid, a serial ratio that every host records.
//! Both files are written for CI to upload and diff across commits.

use std::process::ExitCode;
use std::time::Instant;

use criterion::{black_box, Criterion};
use ins_bench::experiments::{faults, recovery};
use ins_bench::export::json_number;
use ins_bench::runner::{Flag, SweepArgs};
use ins_core::controller::InsureController;
use ins_core::system::InSituSystem;
use ins_sim::pool::available_threads;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;

fn bench_json(results: &[(String, f64)], extra: &[(String, String)]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in extra {
        out.push_str(&format!("  \"{k}\": {v},\n"));
    }
    out.push_str("  \"benches\": [\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_iter\": {}}}{}\n",
            json_number(*ns),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn one_day_60s() -> f64 {
    let mut sys = InSituSystem::builder(
        high_generation_day(1),
        Box::new(InsureController::default()),
    )
    .time_step(SimDuration::from_secs(60))
    .build();
    sys.run_until(SimTime::from_hms(23, 59, 0));
    sys.workload().processed_gb()
}

fn step_report() -> String {
    let mut c = Criterion::default();

    c.bench_function("full_system_step_10s", |b| {
        let mut sys = InSituSystem::builder(
            high_generation_day(1),
            Box::new(InsureController::default()),
        )
        .time_step(SimDuration::from_secs(10))
        .build();
        sys.run_until(SimTime::from_hms(10, 0, 0));
        b.iter(|| {
            sys.step();
            black_box(sys.now())
        });
    });
    c.bench_function("insure_one_day_60s_steps", |b| b.iter(one_day_60s));

    let step_ns = c
        .results()
        .iter()
        .find(|(n, _)| n == "full_system_step_10s")
        .map_or(0.0, |(_, ns)| *ns);
    let steps_per_sec = if step_ns > 0.0 { 1e9 / step_ns } else { 0.0 };
    bench_json(
        c.results(),
        &[(
            "steps_per_second".to_string(),
            json_number(steps_per_sec.round()),
        )],
    )
}

fn sweep_report(threads: usize) -> String {
    let mut c = Criterion::default();
    for &t in &[1usize, threads] {
        c.bench_function(&format!("fault_sweep/threads_{t}"), |b| {
            b.iter(|| black_box(faults::sweep_rates_with(11, &faults::RATES_HOURS, t)));
        });
        c.bench_function(&format!("recovery/threads_{t}"), |b| {
            b.iter(|| {
                black_box(recovery::sweep_grid_with(
                    11,
                    &recovery::CHECKPOINT_INTERVALS_HOURS,
                    &recovery::FAULT_RATES_HOURS,
                    t,
                ))
            });
        });
    }

    let ns_of = |name: &str| {
        c.results()
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let speedup = |serial: f64, parallel: f64| {
        if parallel > 0.0 {
            serial / parallel
        } else {
            0.0
        }
    };
    let ratio = |x: f64| json_number((x * 100.0).round() / 100.0);
    let available = available_threads();
    let mut fields = vec![
        ("threads".to_string(), threads.to_string()),
        ("available_parallelism".to_string(), available.to_string()),
    ];
    // On one core the "parallel" run only adds scheduling overhead, so
    // there is no speedup to report.
    if available >= 2 {
        for grid in ["fault_sweep", "recovery"] {
            let parallel = speedup(
                ns_of(&format!("{grid}/threads_1")),
                ns_of(&format!("{grid}/threads_{threads}")),
            );
            fields.push((format!("{grid}_speedup"), ratio(parallel)));
        }
    }

    // The incremental engine's algorithmic speedup, measured serially so
    // thread scheduling cannot pollute it: the late-window grid shares
    // the first 75 % of every cell's day, so scratch re-simulates what
    // the incremental path forks past.
    let shared_rates: [Option<f64>; 8] = [
        Some(4.0),
        Some(3.0),
        Some(2.0),
        Some(1.5),
        Some(1.0),
        Some(0.75),
        Some(0.6),
        Some(0.5),
    ];
    let shared_bench = |incremental: bool| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now(); // ins-lint: allow(L003)
                black_box(faults::sweep_shared_window(
                    11,
                    &shared_rates,
                    1,
                    incremental,
                ));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    };
    let shared_scratch_ns = shared_bench(false);
    let shared_incremental_ns = shared_bench(true);
    let shared_speedup = speedup(shared_scratch_ns, shared_incremental_ns);
    println!(
        "bench: {:<44} {:>10.0} ns/iter",
        "fault_sweep_shared_grid/scratch", shared_scratch_ns
    );
    println!(
        "bench: {:<44} {:>10.0} ns/iter",
        "fault_sweep_shared_grid/incremental", shared_incremental_ns
    );
    let mut results = c.results().to_vec();
    results.push((
        "fault_sweep_shared_grid/scratch".to_string(),
        shared_scratch_ns,
    ));
    results.push((
        "fault_sweep_shared_grid/incremental".to_string(),
        shared_incremental_ns,
    ));

    fields.push((
        "incremental_shared_grid_speedup".to_string(),
        ratio(shared_speedup),
    ));
    bench_json(&results, &fields)
}

const USAGE: &str = "usage: bench_report [--threads N] [--out DIR]";

fn main() -> ExitCode {
    let mut out_dir = String::from(".");
    let parsed = SweepArgs::from_env(USAGE, &[Flag::Threads], |flag, rest| match flag {
        "--out" => {
            out_dir = rest.next().ok_or("--out needs a directory")?.clone();
            Ok(true)
        }
        _ => Ok(false),
    });
    let threads = match parsed {
        Ok(args) if args.threads == 0 => available_threads(),
        Ok(args) => args.threads,
        Err(code) => return code,
    };

    println!("== step hot path ==");
    let step = step_report();
    println!("== sweep scaling (1 vs {threads} threads) ==");
    let sweep = sweep_report(threads);

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: creating {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let step_path = format!("{out_dir}/BENCH_step.json");
    let sweep_path = format!("{out_dir}/BENCH_sweep.json");
    if let Err(e) = std::fs::write(&step_path, &step) {
        eprintln!("error: writing {step_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&sweep_path, &sweep) {
        eprintln!("error: writing {sweep_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {step_path} and {sweep_path}");
    ExitCode::SUCCESS
}
