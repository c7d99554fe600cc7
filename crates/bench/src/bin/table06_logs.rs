//! Table 6: day-long operation log statistics.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin table06_logs
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("table06_logs", &[])
}
