//! L006: parallel safety. The workspace's headline guarantee is
//! byte-identical output at any thread count; the only sanctioned
//! owner of threads and shared-mutable state is `ins_sim::pool`.
//! Everything else must stay structurally data-parallel: pure cells,
//! input-order collection.

use crate::rules::RuleCtx;
use crate::{Finding, Rule};

/// Identifiers that mean shared mutable state crossed a thread
/// boundary (outside the pool, that is a determinism hazard even when
/// it happens to be correct today).
const SHARED_STATE: [&str; 4] = ["Mutex", "RwLock", "Condvar", "mpsc"];

/// Methods that mutate shared state from inside a pool cell closure —
/// results must be *returned* (the pool collects them in input order),
/// never accumulated through a side channel whose order is scheduling-
/// dependent.
const SIDE_CHANNEL: [&str; 5] = ["lock", "fetch_add", "fetch_sub", "store", "swap"];

/// L006: raw threads, shared-mutable primitives and side-channel
/// accumulation outside `ins_sim::pool`. Fires in tests too: a
/// nondeterministic test cannot pin a determinism contract.
pub fn check_parallel_safety(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.is_pool_file() {
        return;
    }
    let f = ctx.file;
    for i in 0..f.sig.len() {
        let Some(tok) = f.sig_token(i).copied() else {
            continue;
        };
        let text = f.sig_text(i);
        if text == "thread"
            && f.sig_text(i + 1) == "::"
            && matches!(f.sig_text(i + 2), "spawn" | "scope" | "Builder")
        {
            ctx.push(
                out,
                Rule::ParallelSafety,
                tok.start,
                format!(
                    "`thread::{}` outside `ins_sim::pool` — route parallelism through \
                     `pool::scoped_map` so results stay in input order",
                    f.sig_text(i + 2)
                ),
            );
        }
        if text == "static" && f.sig_text(i + 1) == "mut" {
            ctx.push(
                out,
                Rule::ParallelSafety,
                tok.start,
                "`static mut` is unsynchronized shared state; derive per-cell state from \
                 the cell index instead"
                    .to_string(),
            );
        }
        if SHARED_STATE.contains(&text) || (text.starts_with("Atomic") && text.len() > 6) {
            ctx.push(
                out,
                Rule::ParallelSafety,
                tok.start,
                format!(
                    "`{text}` outside `ins_sim::pool` — shared mutable state makes \
                     results depend on scheduling; return values from pool cells instead"
                ),
            );
        }
        // Side-channel accumulation inside a `scoped_map(...)` call.
        if text == "scoped_map" && f.sig_text(i + 1) == "(" {
            if let Some(close) = f.find_matching(i + 1) {
                for k in (i + 2)..close {
                    if f.sig_text(k) == "."
                        && SIDE_CHANNEL.contains(&f.sig_text(k + 1))
                        && f.sig_text(k + 2) == "("
                    {
                        if let Some(m) = f.sig_token(k + 1) {
                            ctx.push(
                                out,
                                Rule::ParallelSafety,
                                m.start,
                                format!(
                                    "`.{}(` inside a pool cell closure accumulates results \
                                     in completion order; return the value and let the \
                                     pool collect in input order",
                                    f.sig_text(k + 1)
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}
