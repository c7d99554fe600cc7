//! Figs. 17–19: power-management effectiveness on micro-benchmarks.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig17_19_micro
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig17_19_micro", &[])
}
