//! Fig. 25: application-specific cost analysis.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig25_scenarios -- [--threads N]
//! ```
//!
//! `--threads` fans the scenarios across a worker pool (`0` or omitted =
//! available parallelism); the output is identical at any thread count.

use std::process::ExitCode;

use ins_bench::experiments::costs::{fig25_with, render_fig25};
use ins_bench::runner::{Flag, SweepArgs};

const USAGE: &str = "usage: fig25_scenarios [--threads N]";

fn main() -> ExitCode {
    let threads = match SweepArgs::from_env(USAGE, &[Flag::Threads], |_, _| Ok(false)) {
        Ok(args) => args.threads,
        Err(code) => return code,
    };
    println!("Fig. 25 — per-application cost savings of InSURE over the cloud");
    println!("{}", render_fig25(&fig25_with(threads)));
    println!("(paper: application-dependent savings from 15 % to 97 %)");
    ExitCode::SUCCESS
}
