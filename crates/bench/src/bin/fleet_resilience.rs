//! Fleet resilience sweep: sites × fault rate × breaker policy.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fleet_resilience -- \
//!     [--seed N] [--threads N] [--json] [--incremental|--no-incremental]
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
//! equivalence oracle. The text is `ins_bench::report`'s, the same
//! `all_experiments` prints.

use std::process::ExitCode;

use ins_bench::report;
use ins_bench::runner::{SweepArgs, SWEEP_FLAGS};

const USAGE: &str = "usage: fleet_resilience [--seed N] [--threads N] [--json] \
                     [--incremental|--no-incremental]";

fn main() -> ExitCode {
    match SweepArgs::from_env(USAGE, SWEEP_FLAGS, |_, _| Ok(false)) {
        Ok(args) => {
            print!("{}", report::fleet_resilience(&args));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}
