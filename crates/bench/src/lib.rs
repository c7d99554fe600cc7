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
//! | `all_experiments` | everything above, in order: each binary's full output under a heading |
//!
//! Each binary's text is rendered once, in [`report`]: a figure or table
//! binary is a call to [`report::main`], and `all_experiments` prints
//! every [`report::REPORTS`] body, so its sections are byte for byte the
//! binaries' output.
//!
//! The binaries that take flags share one parser,
//! [`runner::SweepArgs`]. Each accepts exactly the flags its usage line
//! lists and exits 2 with that line on anything else:
//!
//! | binary | usage |
//! |---|---|
//! | `fault_sweep` | `[--seed N] [--rates H1,H2,...] [--threads N] [--json] [--incremental\|--no-incremental]` |
//! | `recovery`, `fleet_resilience` | `[--seed N] [--threads N] [--json] [--incremental\|--no-incremental]` |
//! | `all_experiments`, `endurance_weeks` | `[--threads N]` |
//! | `fig01_transfer`, `fig03_tco`, `fig04_buffer`, `table02_seismic`, `table03_video`, `fig05_switchout`, `fig14_behavior`, `fig15_solar`, `fig16_daylong`, `table06_logs`, `table07_hetero`, `fig17_19_micro`, `fig20_21_full`, `fig22_depreciation`, `fig23_scaleout`, `fig24_crossover`, `fig25_scenarios` | no flags |
//! | `bench_report` | `[--threads N] [--out DIR]` |
//!
//! `--threads N` may also be written `--threads=N`.
//!
//! `bench_report` records only the sweep speedups CI gates on. The
//! simulator's timings, end to end and per layer, come from the
//! repository's separate `perfbench` package.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod export;
pub mod report;
pub mod runner;
pub mod table;
