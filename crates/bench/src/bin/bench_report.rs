//! Sweep-scaling artifact generator: `BENCH_sweep.json`.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin bench_report -- \
//!     [--threads N] [--out DIR]
//! ```
//!
//! `BENCH_sweep.json` records wall-clock for the fault-sweep and recovery
//! grids serially and, when `--threads N` (default: available
//! parallelism) is at least 2, at N threads too; the machine's
//! `available_parallelism`; the resulting parallel speedups when both the
//! run and the machine have at least two threads (on one core a
//! "speedup" measures only scheduling overhead, so it is left out); and
//! the incremental engine's scratch-vs-forked timing on the shared
//! late-window grid, a serial ratio that every host records. CI gates on
//! the ratios and uploads the file. The simulator's per-layer timings
//! live in the `perfbench` package.

use std::process::ExitCode;
use std::time::Instant;

use criterion::{black_box, Criterion};
use ins_bench::experiments::{faults, recovery};
use ins_bench::export::json_number;
use ins_bench::runner::{Flag, SweepArgs};
use ins_sim::pool::available_threads;

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

/// The thread counts `sweep_report` times, and whether it writes the
/// parallel speedups between them. A run at one thread has no parallel
/// side to time, and on one core the "parallel" run only adds scheduling
/// overhead, so neither reports a speedup.
fn sweep_plan(threads: usize, available: usize) -> (Vec<usize>, bool) {
    if threads < 2 {
        (vec![1], false)
    } else {
        (vec![1, threads], available >= 2)
    }
}

fn sweep_report(threads: usize) -> String {
    let available = available_threads();
    let (thread_counts, parallel_speedups) = sweep_plan(threads, available);
    let mut c = Criterion::default();
    for &t in &thread_counts {
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
    let mut fields = vec![
        ("threads".to_string(), threads.to_string()),
        ("available_parallelism".to_string(), available.to_string()),
    ];
    if parallel_speedups {
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

    println!("== sweep scaling (1 vs {threads} threads) ==");
    let sweep = sweep_report(threads);

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: creating {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let sweep_path = format!("{out_dir}/BENCH_sweep.json");
    if let Err(e) = std::fs::write(&sweep_path, &sweep) {
        eprintln!("error: writing {sweep_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {sweep_path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::sweep_plan;

    #[test]
    fn speedups_need_a_parallel_run_on_a_multi_core_host() {
        assert_eq!(sweep_plan(1, 2), (vec![1], false));
        assert_eq!(sweep_plan(2, 2), (vec![1, 2], true));
        assert_eq!(sweep_plan(4, 2), (vec![1, 4], true));
        assert_eq!(sweep_plan(2, 1), (vec![1, 2], false));
    }
}
