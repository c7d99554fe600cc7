//! Fig. 25: application-specific cost analysis.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig25_scenarios
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line.

use std::process::ExitCode;

use ins_bench::experiments::costs::{fig25, render_fig25};
use ins_bench::runner::SweepArgs;

const USAGE: &str = "usage: fig25_scenarios";

fn main() -> ExitCode {
    if let Err(code) = SweepArgs::from_env(USAGE, &[], |_, _| Ok(false)) {
        return code;
    }
    println!("Fig. 25 — per-application cost savings of InSURE over the cloud");
    println!("{}", render_fig25(&fig25()));
    println!("(paper: application-dependent savings from 15 % to 97 %)");
    ExitCode::SUCCESS
}
