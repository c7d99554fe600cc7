//! Recovery sweep: checkpoint interval × fault rate, InSURE vs baseline.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin recovery -- \
//!     [--seed N] [--threads N] [--json] [--incremental|--no-incremental]
//! ```
//!
//! Each cell runs one day under the extended stochastic fault menu with
//! periodic checkpointing, and reports goodput, lost-work hours and MTTR.
//! `--threads` fans the cells across a worker pool (`0` or omitted =
//! available parallelism); the output is byte-identical at any thread
//! count. Incremental shared-prefix forking is on by default;
//! `--no-incremental` selects the from-scratch equivalence oracle. The
//! text is `ins_bench::report`'s, the same `all_experiments` prints.

use std::process::ExitCode;

use ins_bench::report;
use ins_bench::runner::{SweepArgs, SWEEP_FLAGS};

const USAGE: &str = "usage: recovery [--seed N] [--threads N] [--json] \
                     [--incremental|--no-incremental]";

fn main() -> ExitCode {
    match SweepArgs::from_env(USAGE, SWEEP_FLAGS, |_, _| Ok(false)) {
        Ok(args) => {
            print!("{}", report::recovery(&args));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}
