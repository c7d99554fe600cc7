//! Deterministic parallel sweep driver.
//!
//! Every sweep in this crate is an embarrassingly parallel grid: a list of
//! independent experiment *cells* (one fault rate, one checkpoint
//! interval × fault rate pair, one sunshine fraction). [`run_cells`] fans
//! those cells across an [`ins_sim::pool::scoped_map`] worker pool while
//! preserving the determinism contract the regression suite depends on:
//!
//! * each cell's output is a pure function of `(cell index, payload)` —
//!   cells never share mutable state or consume a common RNG stream;
//! * a cell seeds its streams from the experiment's base seed and its
//!   payload, so adding threads never re-orders or re-splits any random
//!   stream. Every grid seeds from its base seed on purpose: both
//!   controllers of a grid point face the same faults, and every rate
//!   or interval of a grid the same weather;
//! * results are collected in input order, so serial (`--threads 1`) and
//!   parallel runs produce byte-identical reports.
//!
//! Every bench binary that takes flags parses them with [`SweepArgs`]:
//! the shared ones (`--seed`, `--threads`, `--json`) it lists as
//! [`Flag`]s, and its own through a closure. Anything else exits 2 with
//! the usage line. A thread count of `0` (or the flag's absence) means
//! "use available parallelism".

use std::process::ExitCode;

use ins_sim::pool;
use ins_sim::snapshot::{plan_prefix_groups, CellPlan, PrefixGroup};
use ins_sim::time::{SimDuration, SimTime};

/// Fans `cells` across `threads` workers, returning results in input
/// order.
///
/// This is a thin, crate-local veneer over [`pool::scoped_map`] so every
/// sweep goes through one audited entry point. `threads == 0` resolves to
/// [`pool::available_threads`]; `threads == 1` runs inline on the calling
/// thread with no pool at all.
///
/// # Panics
///
/// Re-raises any panic from a worker cell on the calling thread — a
/// failed cell can never be silently dropped from the grid.
pub fn run_cells<T, R, F>(threads: usize, cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = if threads == 0 {
        pool::available_threads()
    } else {
        threads
    };
    pool::scoped_map(threads, cells, f)
}

/// Fans `cells` across `threads` workers on the incremental
/// (shared-prefix forking) path, returning results in input order.
///
/// The grid is first partitioned with
/// [`ins_sim::snapshot::plan_prefix_groups`]: `key_of` maps each cell to
/// its config-until-divergence key plus the instant it first departs from
/// the group baseline (conventionally its first fault event). Each group
/// whose plan yields a fork instant has its shared prefix simulated once
/// by `prefix_of` (phase 1, parallel over groups); then every cell runs
/// via `run` (phase 2, parallel over cells), receiving `Some(&snapshot)`
/// when its group forked and `None` when it must run from scratch —
/// singletons, never-diverging groups, zero-length prefixes, or a
/// `prefix_of` that declined by returning `None`.
///
/// Determinism contract: both phases go through [`run_cells`], the
/// planner is order-stable, and each cell's output depends only on
/// `(index, payload, its group's snapshot)` — so incremental results are
/// byte-identical at any thread count, and equal to the scratch path
/// whenever `run(i, cell, Some(snap))` replays `run(i, cell, None)`
/// exactly (the per-experiment fork-equivalence guarantee).
///
/// # Panics
///
/// Re-raises any panic from a worker, exactly like [`run_cells`].
pub fn run_cells_incremental<T, K, S, R, KeyF, PrefixF, RunF>(
    threads: usize,
    cells: &[T],
    step: SimDuration,
    key_of: KeyF,
    prefix_of: PrefixF,
    run: RunF,
) -> Vec<R>
where
    T: Sync,
    K: PartialEq + Clone + Send + Sync,
    S: Send + Sync,
    R: Send,
    KeyF: Fn(&T) -> (K, Option<SimTime>),
    PrefixF: Fn(&K, SimTime) -> Option<S> + Sync,
    RunF: Fn(usize, &T, Option<&S>) -> R + Sync,
{
    let plans: Vec<CellPlan<K>> = cells
        .iter()
        .map(|cell| {
            let (key, diverges_at) = key_of(cell);
            CellPlan { key, diverges_at }
        })
        .collect();
    let groups: Vec<PrefixGroup<K>> = plan_prefix_groups(&plans, step);

    // Phase 1: simulate each forkable group's shared prefix once.
    let forkable: Vec<(usize, K, SimTime)> = groups
        .iter()
        .enumerate()
        .filter_map(|(gi, g)| g.fork_at.map(|at| (gi, g.key.clone(), at)))
        .collect();
    let snapshots: Vec<Option<S>> =
        run_cells(threads, &forkable, |_, (_, key, at)| prefix_of(key, *at));

    // Wire each cell to its group's snapshot (if any).
    let mut by_group: Vec<Option<&S>> = vec![None; groups.len()];
    for ((gi, _, _), snap) in forkable.iter().zip(&snapshots) {
        if let Some(slot) = by_group.get_mut(*gi) {
            *slot = snap.as_ref();
        }
    }
    let mut cell_snapshots: Vec<Option<&S>> = vec![None; cells.len()];
    for (group, snap) in groups.iter().zip(&by_group) {
        for &member in &group.members {
            if let Some(slot) = cell_snapshots.get_mut(member) {
                *slot = *snap;
            }
        }
    }

    // Phase 2: fan the cells out, forking from the prefix where one
    // exists.
    let work: Vec<(&T, Option<&S>)> = cells.iter().zip(cell_snapshots).collect();
    run_cells(threads, &work, |index, (cell, snap)| {
        run(index, cell, *snap)
    })
}

/// A flag several bench binaries take. Each binary passes the ones its
/// usage line lists to [`SweepArgs::parse`], which rejects the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--seed N`.
    Seed,
    /// `--threads N` or `--threads=N`.
    Threads,
    /// `--json`.
    Json,
}

/// The flags `fault_sweep`, `recovery` and `fleet_resilience` share.
pub const SWEEP_FLAGS: &[Flag] = &[Flag::Seed, Flag::Threads, Flag::Json];

/// The shared flags of a bench binary's command line. A flag the binary
/// does not take keeps its default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--seed N` (default 11).
    pub seed: u64,
    /// `--threads N` (default 0 = available parallelism).
    pub threads: usize,
    /// `--json`: JSON rows instead of the text table.
    pub json: bool,
}

impl Default for SweepArgs {
    /// Every flag absent: seed 11, available parallelism, text.
    fn default() -> Self {
        Self {
            seed: 11,
            threads: 0,
            json: false,
        }
    }
}

impl SweepArgs {
    /// Parses `argv` in order, taking the shared flags listed in `flags`.
    /// Any other argument is handed to `own` with the remaining ones, so
    /// a binary can take its own flags and their values: `own` returns
    /// `Ok(true)` when it took the flag and `Ok(false)` when it does not
    /// know it.
    ///
    /// # Errors
    ///
    /// A message for stderr: an unknown flag, a flag missing or mangling
    /// its value, or whatever `own` returns.
    pub fn parse(
        argv: &[String],
        flags: &[Flag],
        mut own: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some(("--threads", v)) => ("--threads", Some(v)),
                _ => (arg.as_str(), None),
            };
            let flag = match name {
                "--seed" => Some(Flag::Seed),
                "--threads" => Some(Flag::Threads),
                "--json" => Some(Flag::Json),
                _ => None,
            };
            match flag.filter(|f| flags.contains(f)) {
                Some(Flag::Seed) => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    args.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                Some(Flag::Threads) => {
                    let v = match inline {
                        Some(v) => v,
                        None => it.next().ok_or("--threads needs a value")?,
                    };
                    args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                }
                Some(Flag::Json) => args.json = true,
                None => {
                    if !own(arg, &mut it)? {
                        return Err(format!("unknown flag '{arg}'"));
                    }
                }
            }
        }
        Ok(args)
    }

    /// [`SweepArgs::parse`] over the process's arguments. On an error it
    /// prints the message and `usage` to stderr and returns exit code 2
    /// for `main` to return.
    ///
    /// # Errors
    ///
    /// Exit code 2 after any [`SweepArgs::parse`] error.
    pub fn from_env(
        usage: &str,
        flags: &[Flag],
        own: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, String>,
    ) -> Result<Self, ExitCode> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv, flags, own).map_err(|e| {
            eprintln!("{e}\n{usage}");
            ExitCode::from(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cells_preserves_order_at_any_thread_count() {
        let cells: Vec<u64> = (0..17).collect();
        let serial = run_cells(1, &cells, |i, c| (i, c * 3));
        for threads in [0, 2, 4, 9] {
            assert_eq!(run_cells(threads, &cells, |i, c| (i, c * 3)), serial);
        }
    }

    #[test]
    fn incremental_runner_forks_groups_and_matches_scratch() {
        // Synthetic grid: key = cell / 10, divergence = cell seconds.
        // The "simulation" is a running sum: the prefix covers
        // [0, fork_at) and the cell run covers the rest, so
        // prefix + fork must equal the scratch total exactly.
        let cells: Vec<u64> = vec![100, 130, 170, 205, 7, 300, 330];
        let step = SimDuration::from_secs(30);
        let total = |cell: u64| (0..cell).sum::<u64>();
        let scratch: Vec<u64> = run_cells(1, &cells, |_, &c| total(c));
        for threads in [1, 2, 4] {
            let incremental = run_cells_incremental(
                threads,
                &cells,
                step,
                |&c| (c / 100, Some(SimTime::from_secs(c))),
                |_, fork_at| Some((fork_at.as_secs(), (0..fork_at.as_secs()).sum::<u64>())),
                |_, &c, snap| match snap {
                    Some(&(forked_at, prefix_sum)) => {
                        assert!(forked_at <= c, "prefix must stop before divergence");
                        prefix_sum + (forked_at..c).sum::<u64>()
                    }
                    None => total(c),
                },
            );
            assert_eq!(incremental, scratch);
        }
    }

    #[test]
    fn incremental_runner_scratches_when_prefix_declines() {
        let cells: Vec<u64> = vec![50, 80];
        let results = run_cells_incremental(
            1,
            &cells,
            SimDuration::from_secs(10),
            |_| (0u8, Some(SimTime::from_secs(40))),
            |_, _| None::<u64>,
            |_, &c, snap| {
                assert!(snap.is_none(), "declined prefix must fall back to scratch");
                c * 2
            },
        );
        assert_eq!(results, vec![100, 160]);
    }

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    fn no_own_flags(_: &str, _: &mut std::slice::Iter<'_, String>) -> Result<bool, String> {
        Ok(false)
    }

    #[test]
    fn sweep_args_parse_shared_flags_and_hand_back_the_rest() {
        let argv = args(&["--seed", "7", "--rates", "8,4", "--threads", "4", "--json"]);
        let mut rates = None;
        let parsed = SweepArgs::parse(&argv, SWEEP_FLAGS, |flag, rest| match flag {
            "--rates" => {
                rates = rest.next().cloned();
                Ok(true)
            }
            _ => Ok(false),
        });
        let expected = SweepArgs {
            seed: 7,
            threads: 4,
            json: true,
        };
        assert_eq!(parsed, Ok(expected));
        assert_eq!(rates.as_deref(), Some("8,4"));
        assert_eq!(
            SweepArgs::parse(&[], SWEEP_FLAGS, no_own_flags),
            Ok(SweepArgs::default())
        );
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--threads"],
            &["--threads="],
            &["--bogus"],
            &["3"],
            &["--incremental"],
            &["--no-incremental"],
        ] {
            assert!(
                SweepArgs::parse(&args(bad), SWEEP_FLAGS, no_own_flags).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_threads_accepts_both_spellings() {
        let threads = |s: &[&str]| {
            SweepArgs::parse(&args(s), &[Flag::Threads], no_own_flags).map(|a| a.threads)
        };
        assert_eq!(threads(&["--threads", "4"]), Ok(4));
        assert_eq!(threads(&["--threads=2"]), Ok(2));
        assert_eq!(threads(&[]), Ok(0));
        assert!(threads(&["--threads"]).is_err());
        assert!(threads(&["--threads", "two"]).is_err());
        // A shared flag the binary does not list is unknown, not skipped.
        for flag in ["--seed", "--json"] {
            assert_eq!(threads(&[flag]), Err(format!("unknown flag '{flag}'")));
        }
    }
}
