//! Fault-rate sweep: graceful degradation under injected faults.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fault_sweep -- \
//!     [--seed N] [--rates 8,4,2,1] [--threads N] [--json] \
//!     [--incremental|--no-incremental]
//! ```
//!
//! `--rates` takes mean fault inter-arrival times in hours; a fault-free
//! reference row is always included first. `--threads` fans the cells
//! across a worker pool (`0` or omitted = available parallelism); the
//! output is byte-identical at any thread count. `--json` emits the rows
//! as a JSON array instead of the text table. Incremental shared-prefix
//! forking is on by default; `--no-incremental` selects the from-scratch
//! path (the equivalence oracle) — both produce identical output.

use std::process::ExitCode;

use ins_bench::experiments::faults::{
    render, sweep_rates_incremental, sweep_rates_with, to_json, RATES_HOURS,
};
use ins_bench::runner::SweepArgs;

const USAGE: &str = "usage: fault_sweep [--seed N] [--rates H1,H2,...] [--threads N] [--json] \
                     [--incremental|--no-incremental]";

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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut rates = RATES_HOURS.to_vec();
    let parsed = SweepArgs::parse(&argv, |flag, rest| match flag {
        "--rates" => {
            let v = rest.next().ok_or("--rates needs a comma-separated list")?;
            rates = parse_rates(v)?;
            Ok(())
        }
        "--help" | "-h" => Err(USAGE.to_string()),
        other => Err(format!("unknown flag '{other}'\n{USAGE}")),
    });
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let rows = if args.incremental {
        sweep_rates_incremental(args.seed, &rates, args.threads)
    } else {
        sweep_rates_with(args.seed, &rates, args.threads)
    };
    if args.json {
        println!("{}", to_json(&rows));
    } else {
        println!(
            "Fault sweep — one day, stochastic fault schedule per rate (seed {})",
            args.seed
        );
        println!("{}", render(&rows));
        println!("(same seed per rate: both controllers face identical fault arrivals)");
    }
    ExitCode::SUCCESS
}
