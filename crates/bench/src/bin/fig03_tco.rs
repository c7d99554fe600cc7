//! Fig. 3: cost benefits of deploying standalone in-situ systems.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig03_tco
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig03_tco", &[])
}
