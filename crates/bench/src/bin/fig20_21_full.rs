//! Figs. 20–21: full-system evaluation on the in-situ workloads.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig20_21_full
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig20_21_full", &[])
}
