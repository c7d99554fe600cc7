//! Table 3: Hadoop video analysis throughput by VM count.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin table03_video
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("table03_video", &[])
}
