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
//! step, so no two campaigns share a prefix to fork from. The text is
//! `ins_bench::report`'s, the same `all_experiments` prints.

use ins_bench::runner::Flag;

fn main() -> std::process::ExitCode {
    ins_bench::report::main("endurance_weeks", &[Flag::Threads])
}
