//! Fig. 24: TCO vs data rate and the cloud/in-situ crossover.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig24_crossover
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig24_crossover", &[])
}
