//! Fault-rate sweep: graceful degradation under injected faults.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fault_sweep -- \
//!     [--seed N] [--rates 8,4,2,1] [--threads N] [--json]
//! ```
//!
//! `--rates` takes mean fault inter-arrival times in hours; a fault-free
//! reference row is always included first. `--threads` fans the cells
//! across a worker pool (`0` or omitted = available parallelism); the
//! output is byte-identical at any thread count. `--json` emits the rows
//! as a JSON array instead of the text table. The text is
//! `ins_bench::report`'s, the same `all_experiments` prints.

use std::process::ExitCode;

use ins_bench::experiments::faults::RATES_HOURS;
use ins_bench::report;
use ins_bench::runner::{SweepArgs, SWEEP_FLAGS};

const USAGE: &str = "usage: fault_sweep [--seed N] [--rates H1,H2,...] [--threads N] [--json]";

/// Parses `--rates`: mean fault inter-arrival hours, after the fault-free
/// reference row.
fn parse_rates(list: &str) -> Result<Vec<Option<f64>>, String> {
    let mut rates = vec![None];
    for part in list.split(',') {
        let h: f64 = part
            .trim()
            .parse()
            .map_err(|_| format!("bad rate '{part}'"))?;
        if !(h.is_finite() && h > 0.0) {
            return Err(format!("rate '{part}' must be a positive number of hours"));
        }
        rates.push(Some(h));
    }
    Ok(rates)
}

fn main() -> ExitCode {
    let mut rates = RATES_HOURS.to_vec();
    let parsed = SweepArgs::from_env(USAGE, SWEEP_FLAGS, |flag, rest| match flag {
        "--rates" => {
            let v = rest.next().ok_or("--rates needs a comma-separated list")?;
            rates = parse_rates(v)?;
            Ok(true)
        }
        _ => Ok(false),
    });
    match parsed {
        Ok(args) => {
            print!("{}", report::fault_sweep(&args, &rates));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}
