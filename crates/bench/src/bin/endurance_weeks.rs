//! Multi-day endurance run + sunshine-fraction throughput sweep.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin endurance_weeks -- [--threads N]
//! ```
//!
//! `--threads` fans the sunshine-sweep campaigns across a worker pool
//! (`0` or omitted = available parallelism); the output is byte-identical
//! at any thread count. Unlike its sibling sweeps it takes no
//! `--incremental` flag: every point's weather differs from the first
//! step, so no two campaigns share a prefix to fork from.

use std::process::ExitCode;

use ins_bench::experiments::endurance::{endurance, sunshine_sweep_with};
use ins_bench::runner::{Flag, SweepArgs};
use ins_bench::table::TextTable;

const USAGE: &str = "usage: endurance_weeks [--threads N]";

fn main() -> ExitCode {
    let threads = match SweepArgs::from_env(USAGE, &[Flag::Threads], |_, _| Ok(false)) {
        Ok(args) => args.threads,
        Err(code) => return code,
    };

    println!("Endurance — two weeks of mixed weather under InSURE");
    let run = endurance(14, 9);
    println!(
        "  {:.1} GB/day, wear imbalance {:.2}×, per-unit Ah {:?}",
        run.gb_per_day,
        run.wear_imbalance,
        run.unit_throughput_ah
            .iter()
            .map(|t| (t * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("{}", run.metrics);
    println!();

    println!("Sunshine-fraction sweep (5-day campaigns) — Fig. 23/24's premise");
    let mut t = TextTable::new(vec!["sunshine fraction", "GB/day", "solar kWh/day"]);
    for p in sunshine_sweep_with(&[1.0, 0.8, 0.6, 0.4], 5, 4, threads) {
        t.row(vec![
            format!("{:.0}%", p.sunshine_fraction * 100.0),
            format!("{:.1}", p.gb_per_day),
            format!("{:.1}", p.solar_kwh_per_day),
        ]);
    }
    println!("{}", t.render());
    ExitCode::SUCCESS
}
