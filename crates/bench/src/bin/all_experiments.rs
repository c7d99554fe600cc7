//! Runs every experiment in the reproduction, in paper order.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin all_experiments -- [--threads N]
//! ```
//!
//! Each section is a heading followed by exactly what that experiment's
//! binary prints with no flags: both come from `ins_bench::report`, and
//! the sweeps run at their default seed 11. Sections are independent, so
//! they fan out across a worker pool (`--threads 0` or omitted =
//! available parallelism), each running serially inside, and print in
//! paper order regardless of which finished first — the output is
//! byte-identical at any thread count. A section that fails (panic or
//! missing result) is reported on stderr and the binary exits non-zero
//! instead of silently printing a partial report.

use std::process::ExitCode;

use ins_bench::report::REPORTS;
use ins_bench::runner::{run_cells, Flag, SweepArgs};

const USAGE: &str = "usage: all_experiments [--threads N]";

fn main() -> ExitCode {
    let threads = match SweepArgs::from_env(USAGE, &[Flag::Threads], |_, _| Ok(false)) {
        Ok(args) => args.threads,
        Err(code) => return code,
    };

    // Every section runs — a panic is caught and reported as that
    // section's failure rather than aborting the rest — and bodies print
    // in paper order once all are in. The sections already fan out, so
    // each body runs on one thread.
    let results = run_cells(threads, REPORTS, |_, report| {
        std::panic::catch_unwind(|| (report.body)(1)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panicked");
            Err(format!("section '{}' panicked: {msg}", report.heading))
        })
    });

    let mut failures = 0usize;
    for (report, result) in REPORTS.iter().zip(&results) {
        println!();
        println!("{}", "=".repeat(72));
        println!("{}", report.heading);
        println!("{}", "=".repeat(72));
        match result {
            Ok(body) => print!("{body}"),
            Err(e) => {
                println!("** FAILED **");
                eprintln!("error: {}: {e}", report.heading);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} section(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
