//! Fig. 4: key properties of the energy buffer in standalone systems.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin fig04_buffer
//! ```
//!
//! It takes no flags: any argument exits 2 with the usage line. The text
//! is `ins_bench::report`'s, the same `all_experiments` prints.

fn main() -> std::process::ExitCode {
    ins_bench::report::main("fig04_buffer", &[])
}
