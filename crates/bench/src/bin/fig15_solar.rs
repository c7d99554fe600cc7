//! Fig. 15: the two solar evaluation traces.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig15_solar
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig15_solar", &[])
}
