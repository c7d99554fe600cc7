//! Deterministic parallel sweep driver.
//!
//! Every sweep in this crate is an embarrassingly parallel grid: a list of
//! independent experiment *cells* (one fault rate, one checkpoint
//! interval × fault rate pair, one sunshine fraction) each simulated from
//! its own seed. [`run_cells`] fans those cells across an
//! [`ins_sim::pool::scoped_map`] worker pool while preserving the
//! determinism contract the regression suite depends on:
//!
//! * each cell's output is a pure function of `(cell index, payload)` —
//!   cells never share mutable state or consume a common RNG stream;
//! * per-cell seeds come from [`cell_seed`], which forks the experiment's
//!   base seed by cell index, so adding threads never re-orders or
//!   re-splits any random stream;
//! * results are collected in input order, so serial (`--threads 1`) and
//!   parallel runs produce byte-identical reports.
//!
//! The flags the sweep binaries share (`--seed`, `--threads`, `--json`,
//! `--incremental` / `--no-incremental`) are parsed by [`SweepArgs`];
//! the other binaries take `--threads` through [`parse_threads`]. A
//! thread count of `0` (or the flag's absence) means "use available
//! parallelism".

use ins_sim::pool;
use ins_sim::rng::SimRng;
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

/// Derives the seed for sweep cell `index` from the experiment's base
/// seed.
///
/// Uses [`SimRng::fork_seed`] keyed by the cell index, so the per-cell
/// stream depends only on `(base, index)` — never on which worker ran the
/// cell or in what order.
#[must_use]
pub fn cell_seed(base: u64, index: usize) -> u64 {
    SimRng::seed(base).fork_seed(&format!("cell-{index}"))
}

/// The flags `fault_sweep`, `recovery` and `fleet_resilience` share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--seed N` (default 11).
    pub seed: u64,
    /// `--threads N` (default 0 = available parallelism).
    pub threads: usize,
    /// `--json`: JSON rows instead of the text table.
    pub json: bool,
    /// `--incremental` (the default) or `--no-incremental`, the
    /// from-scratch equivalence oracle; the last occurrence wins.
    pub incremental: bool,
}

impl SweepArgs {
    /// Parses `argv` in order. Any other flag is handed to `other` with
    /// the remaining arguments, so a binary can take its own flags and
    /// their values, and returns `Err` for a flag it does not know.
    ///
    /// # Errors
    ///
    /// A message for stderr (binaries print it and exit 2): a shared
    /// flag missing or mangling its value, or whatever `other` returns.
    pub fn parse<'a>(
        argv: &'a [String],
        mut other: impl FnMut(&'a str, &mut std::slice::Iter<'a, String>) -> Result<(), String>,
    ) -> Result<Self, String> {
        let mut args = Self {
            seed: 11,
            threads: 0,
            json: false,
            incremental: true,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    args.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                }
                "--json" => args.json = true,
                "--incremental" => args.incremental = true,
                "--no-incremental" => args.incremental = false,
                unknown => other(unknown, &mut it)?,
            }
        }
        Ok(args)
    }
}

/// Parses a `--threads N` value from a binary's argument list.
///
/// Accepts the flag as `--threads N` or `--threads=N`. Returns
/// `Ok(None)` when the flag is absent (callers then pick their default,
/// conventionally [`pool::available_threads`]); `Ok(Some(0))` is resolved
/// to available parallelism by [`run_cells`]. Returns `Err` with a
/// usage-style message on a malformed value so binaries can exit
/// non-zero instead of silently mis-sweeping.
pub fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let value = if arg == "--threads" {
            i += 1;
            args.get(i)
                .ok_or_else(|| "--threads requires a value".to_string())?
                .clone()
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            v.to_string()
        } else {
            i += 1;
            continue;
        };
        return value
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("invalid --threads value '{value}' (expected an integer)"));
    }
    Ok(None)
}

/// Parses the `--incremental` / `--no-incremental` flag pair from a
/// binary's argument list.
///
/// Incremental (shared-prefix forking) is the default; `--no-incremental`
/// selects the from-scratch path that serves as the equivalence oracle.
/// When both appear the last occurrence wins, matching conventional CLI
/// override semantics.
#[must_use]
pub fn parse_incremental(args: &[String]) -> bool {
    let mut incremental = true;
    for arg in args {
        match arg.as_str() {
            "--incremental" => incremental = true,
            "--no-incremental" => incremental = false,
            _ => {}
        }
    }
    incremental
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
    fn cell_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| cell_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "cell seeds must not collide");
        // Stability: the derivation is part of the determinism contract.
        assert_eq!(cell_seed(42, 0), cell_seed(42, 0));
        assert_ne!(cell_seed(42, 0), cell_seed(43, 0));
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

    #[test]
    fn parse_incremental_defaults_on_and_last_flag_wins() {
        let args = |s: &[&str]| s.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
        assert!(parse_incremental(&args(&[])));
        assert!(parse_incremental(&args(&["--incremental"])));
        assert!(!parse_incremental(&args(&["--no-incremental"])));
        assert!(!parse_incremental(&args(&[
            "--incremental",
            "--no-incremental"
        ])));
        assert!(parse_incremental(&args(&[
            "--no-incremental",
            "--incremental"
        ])));
    }

    #[test]
    fn sweep_args_parse_shared_flags_and_hand_back_the_rest() {
        let args = |s: &[&str]| s.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
        let argv = args(&["--seed", "7", "--rates", "8,4", "--threads", "4", "--json"]);
        let mut rates = None;
        let parsed = SweepArgs::parse(&argv, |flag, rest| match flag {
            "--rates" => {
                rates = rest.next().cloned();
                Ok(())
            }
            other => Err(format!("unknown flag '{other}'")),
        });
        let mut expected = SweepArgs {
            seed: 7,
            threads: 4,
            json: true,
            incremental: true,
        };
        assert_eq!(parsed, Ok(expected));
        assert_eq!(rates.as_deref(), Some("8,4"));

        let reject = |_: &str, _: &mut std::slice::Iter<'_, String>| Err(String::new());
        expected = SweepArgs {
            seed: 11,
            threads: 0,
            json: false,
            incremental: false,
        };
        assert_eq!(
            SweepArgs::parse(&args(&["--no-incremental"]), reject),
            Ok(expected)
        );
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--threads=2"],
            &["--bogus"],
        ] {
            assert!(SweepArgs::parse(&args(bad), reject).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_threads_accepts_both_spellings() {
        let args = |s: &[&str]| s.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&args(&["--threads", "4"])), Ok(Some(4)));
        assert_eq!(parse_threads(&args(&["--threads=2"])), Ok(Some(2)));
        assert_eq!(parse_threads(&args(&["--json"])), Ok(None));
        assert_eq!(parse_threads(&args(&[])), Ok(None));
        assert!(parse_threads(&args(&["--threads"])).is_err());
        assert!(parse_threads(&args(&["--threads", "two"])).is_err());
    }
}
