//! Fig. 23: scale-out vs cloud cost by sunshine fraction.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig23_scaleout
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig23_scaleout", &[])
}
