//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]`
//!
//! Prints a report, then one JSON result object as the last line. Exits
//! 1 when an output check fails and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::DEFAULT_SEED;
use perfbench::host::HostInfo;
use perfbench::report::{Metric, Outcome};
use perfbench::workloads::{self, Opts, NAMES};

struct Args {
    workload: String,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, opts })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = HostInfo::probe();
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in names {
        let outcome = match workloads::run(name, &args.opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        for line in outcome.report_lines(&host, args.opts.seed, args.opts.trace) {
            println!("{line}");
        }
        println!("{}", outcome.json());
        outcomes.push(outcome);
    }
    if outcomes.len() > 1 {
        // One object for the whole command: each workload's metrics under
        // its own name.
        let combined = Outcome {
            workload: "all",
            attempted: outcomes.iter().map(|o| o.attempted).sum(),
            failed: outcomes.iter().map(|o| o.failed).sum(),
            metrics: outcomes
                .iter()
                .flat_map(|o| {
                    o.metrics.iter().map(move |m| Metric {
                        name: format!("{}.{}", o.workload, m.name),
                        ..m.clone()
                    })
                })
                .collect(),
            checks: outcomes.iter().flat_map(|o| o.checks.clone()).collect(),
            ..Outcome::default()
        };
        println!("{}", combined.json());
    }
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
