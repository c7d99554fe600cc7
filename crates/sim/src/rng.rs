//! Deterministic randomness for reproducible experiments.
//!
//! The paper replays recorded solar traces so that optimized and baseline
//! runs see identical conditions (§5). We get the same property by deriving
//! every stochastic component's generator from a single experiment seed:
//! two runs with the same seed see bit-identical weather and workload noise.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna)
//! seeded through SplitMix64, so the simulation kernel carries no external
//! dependency and the stream for a given seed is stable forever — a
//! property the fault-injection layer ([`crate::fault`]) and the
//! deterministic-replay regression tests rely on.

/// A seeded random source that can deterministically *fork* child
/// generators for sub-components.
///
/// Forking by label means adding a new stochastic component never perturbs
/// the streams of existing ones, keeping old experiment outputs stable.
///
/// # Examples
///
/// ```
/// use ins_sim::rng::SimRng;
///
/// let mut a = SimRng::seed(42).fork("weather");
/// let mut b = SimRng::seed(42).fork("weather");
/// assert_eq!(a.next_f64(), b.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

/// One round of SplitMix64: the recommended seeder for xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from an experiment seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { seed, state }
    }

    /// Derives an independent child generator for the named component.
    ///
    /// The child stream depends only on `(seed, label)`, never on how much
    /// of the parent stream has been consumed.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::seed(self.fork_seed(label))
    }

    /// The seed [`SimRng::fork`] would use for the named component.
    ///
    /// Exposed so sweep drivers can derive a per-cell `u64` seed (e.g.
    /// keyed by cell index) and hand it to experiment code that takes
    /// plain seeds, with the same independence guarantees as `fork`.
    #[must_use]
    pub fn fork_seed(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the parent seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty");
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw via Box–Muller (no extra dependency).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Exponential inter-arrival draw with the given mean (hours, seconds —
    /// any unit; the result carries the same unit as `mean`).
    ///
    /// Used by the fault layer's stochastic arrival process.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent1 = SimRng::seed(99);
        let mut parent2 = SimRng::seed(99);
        // Consume some of parent2's stream before forking.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut c1 = parent1.fork("solar");
        let mut c2 = parent2.fork("solar");
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = SimRng::seed(99);
        let mut a = parent.fork("solar");
        let mut b = parent.fork("workload");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SimRng::seed(3);
        for _ in 0..1000 {
            let v = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "uniform range must be non-empty")]
    fn uniform_rejects_empty_range() {
        SimRng::seed(0).uniform(5.0, 5.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(11);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed(17);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed(2);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn next_index_stays_in_range() {
        let mut rng = SimRng::seed(4);
        for _ in 0..1000 {
            assert!(rng.next_index(7) < 7);
        }
    }
}
