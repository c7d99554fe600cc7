//! Helpers the workspace-level test files share.

/// The chaos-matrix seed: `INS_CHAOS_SEED` when set (CI fans a matrix of
/// values across jobs), the repo's canonical seed 11 otherwise.
pub fn chaos_seed() -> u64 {
    std::env::var("INS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}
