//! Fig. 16: a full-day InSURE operation trace.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig16_daylong
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig16_daylong", &[])
}
