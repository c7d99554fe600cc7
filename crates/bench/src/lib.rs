//! # `ins-bench` — the experiment harness
//!
//! Regenerates every table and figure in the paper's evaluation. Each
//! experiment lives in [`experiments`] as a pure function returning
//! structured results (unit-tested against the paper's qualitative
//! claims), and each has a runnable binary (`cargo run -p ins-bench
//! --bin <name>`) that prints the same rows/series the paper reports:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig01_transfer` | Fig. 1-a/b |
//! | `fig03_tco` | Fig. 3-a/b |
//! | `fig04_buffer` | Fig. 4-a/b |
//! | `table02_seismic` | Table 2 |
//! | `table03_video` | Table 3 |
//! | `fig05_switchout` | Fig. 5 |
//! | `fig14_behavior` | Fig. 14-a/b |
//! | `fig15_solar` | Fig. 15 |
//! | `fig16_daylong` | Fig. 16 |
//! | `table06_logs` | Table 6 |
//! | `table07_hetero` | Table 7 |
//! | `fig17_19_micro` | Fig. 17–19 |
//! | `fig20_21_full` | Fig. 20–21 |
//! | `fig22_depreciation` | Fig. 22 |
//! | `fig23_scaleout` | Fig. 23 |
//! | `fig24_crossover` | Fig. 24 |
//! | `fig25_scenarios` | Fig. 25 |
//! | `endurance_weeks` | multi-day Eq. 1 screening + sunshine sweep |
//! | `fault_sweep` | fault-rate sweep: degradation under injected faults |
//! | `recovery` | checkpoint interval × fault rate: goodput, lost work, MTTR |
//! | `fleet_resilience` | sites × fault rate × breaker policy |
//! | `all_experiments` | everything above, in order |
//!
//! The binaries that take flags share one parser,
//! [`runner::SweepArgs`]. Each accepts exactly the flags its usage line
//! lists and exits 2 with that line on anything else:
//!
//! | binary | usage |
//! |---|---|
//! | `fault_sweep` | `[--seed N] [--rates H1,H2,...] [--threads N] [--json] [--incremental\|--no-incremental]` |
//! | `recovery`, `fleet_resilience` | `[--seed N] [--threads N] [--json] [--incremental\|--no-incremental]` |
//! | `endurance_weeks` | `[--threads N] [--incremental\|--no-incremental]` |
//! | `all_experiments`, `fig25_scenarios` | `[--threads N]` |
//! | `bench_report` | `[--threads N] [--out DIR]` |
//!
//! `--threads N` may also be written `--threads=N`.
//!
//! `cargo bench -p ins-bench` additionally measures the simulator's hot
//! paths and runs scaled-down versions of the heavier experiments.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod export;
pub mod runner;
pub mod table;
