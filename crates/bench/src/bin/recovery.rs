//! Recovery sweep: checkpoint interval × fault rate, InSURE vs baseline.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin recovery -- \
//!     [--seed N] [--threads N] [--json]
//! ```
//!
//! Each cell runs one day under the extended stochastic fault menu with
//! periodic checkpointing, and reports goodput, lost-work hours and MTTR.
//! `--threads` fans the cells across a worker pool (`0` or omitted =
//! available parallelism); the output is byte-identical at any thread
//! count. Incremental shared-prefix forking is on by default;
//! `--no-incremental` selects the from-scratch equivalence oracle.

use std::process::ExitCode;

use ins_bench::experiments::recovery::{
    render, sweep_grid_incremental, sweep_grid_with, to_json, CHECKPOINT_INTERVALS_HOURS,
    FAULT_RATES_HOURS,
};
use ins_bench::runner::{SweepArgs, SWEEP_FLAGS};

const USAGE: &str = "usage: recovery [--seed N] [--threads N] [--json] \
                     [--incremental|--no-incremental]";

fn main() -> ExitCode {
    let SweepArgs {
        seed,
        threads,
        json,
        incremental,
    } = match SweepArgs::from_env(USAGE, SWEEP_FLAGS, |_, _| Ok(false)) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let rows = if incremental {
        sweep_grid_incremental(
            seed,
            &CHECKPOINT_INTERVALS_HOURS,
            &FAULT_RATES_HOURS,
            threads,
        )
    } else {
        sweep_grid_with(
            seed,
            &CHECKPOINT_INTERVALS_HOURS,
            &FAULT_RATES_HOURS,
            threads,
        )
    };
    if json {
        println!("{}", to_json(&rows));
    } else {
        println!("Recovery sweep — checkpoint interval × fault rate (seed {seed})");
        println!("{}", render(&rows));
        println!("(goodput counts each GB once; throughput double-counts replayed work)");
    }
    ExitCode::SUCCESS
}
