//! Table 7: legacy Xeon node vs low-power Core i7 node.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin table07_hetero
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("table07_hetero", &[])
}
