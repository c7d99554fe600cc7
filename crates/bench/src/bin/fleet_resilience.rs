//! Fleet resilience sweep: sites × fault rate × breaker policy.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fleet_resilience -- \
//!     [--seed N] [--threads N] [--json]
//! ```
//!
//! Each cell runs a federated fleet of in-situ sites for one day under
//! the fleet-level fault menu (site blackouts, WAN partitions, routing
//! flaps, slow sites) and reports global goodput, explicit shed/failed
//! accounting, retry/hedge volume, breaker activity, site availability
//! and misrouted energy. `--threads` fans the cells across a worker
//! pool (`0` or omitted = available parallelism); the output is
//! byte-identical at any thread count. Incremental shared-prefix forking
//! is on by default; `--no-incremental` selects the from-scratch
//! equivalence oracle.

use std::process::ExitCode;

use ins_bench::experiments::fleet::{
    render, sweep_grid_incremental, sweep_grid_with, to_json, BREAKER_POLICIES, FAULT_RATES_HOURS,
    FLEET_SIZES,
};
use ins_bench::runner::{SweepArgs, SWEEP_FLAGS};

const USAGE: &str = "usage: fleet_resilience [--seed N] [--threads N] [--json] \
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
            &FLEET_SIZES,
            &FAULT_RATES_HOURS,
            &BREAKER_POLICIES,
            threads,
        )
    } else {
        sweep_grid_with(
            seed,
            &FLEET_SIZES,
            &FAULT_RATES_HOURS,
            &BREAKER_POLICIES,
            threads,
        )
    };
    if json {
        println!("{}", to_json(&rows));
    } else {
        println!("Fleet resilience — sites × fault rate × breaker policy (seed {seed})");
        println!("{}", render(&rows));
        println!("(goodput = served/offered volume; every request resolves: no silent drops)");
    }
    ExitCode::SUCCESS
}
