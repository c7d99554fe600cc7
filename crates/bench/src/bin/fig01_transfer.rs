//! Fig. 1: the overhead associated with bulk data movement.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig01_transfer
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig01_transfer", &[])
}
