//! Table 2: seismic data analysis under the same 2 kWh energy budget.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin table02_seismic
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("table02_seismic", &[])
}
