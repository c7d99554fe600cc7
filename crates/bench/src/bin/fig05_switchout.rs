//! Fig. 5: a 2-hour seismic trace on a unified buffer.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig05_switchout
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig05_switchout", &[])
}
