//! Deterministic, forkable randomness.
//!
//! Every stochastic decision in the simulation (link loss, peering-request
//! responses, workload shapes) draws from a [`SimRng`] seeded from the
//! experiment seed. Independent subsystems *fork* their own substream with
//! a label so that adding draws in one subsystem does not perturb another —
//! a requirement for reproducible experiments and for meaningful A/B
//! comparisons between testbed configurations.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A seeded random-number generator with labeled forking.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

/// FNV-1a (64-bit): the one non-cryptographic hash behind every digest,
/// fork label and derived key in the workspace. Byte-at-a-time and
/// order-sensitive, so a value is a pure function of the byte stream
/// written — stable across runs and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
    prime: u64,
}

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// A hasher with the standard FNV prime (2^40 + 0x1b3): seeds, fork
    /// labels, the engine's digest fold.
    pub const fn new() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
            prime: 0x0000_0100_0000_01b3,
        }
    }

    /// A hasher with the multiplier 2^44 + 0x1b3 — the standard prime
    /// with one zero too many, as first typed into the RIB digest and
    /// copied from there. Every pinned route-set digest, certified plan
    /// digest and export-group key was computed with it, so those keep
    /// it; anything new should use [`new`](Self::new).
    pub const fn legacy() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
            prime: 0x0000_1000_0000_01b3,
        }
    }

    /// Mix `bytes` into the running hash; chainable.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(self.prime);
        }
        self
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl SimRng {
    /// Create a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent substream for a named subsystem.
    ///
    /// Forking is a pure function of `(seed, label)`: it does not consume
    /// randomness from `self`, so the order in which subsystems fork does
    /// not matter.
    pub fn fork(&self, label: &str) -> SimRng {
        let child = self.seed
            ^ Fnv1a::new()
                .write(label.as_bytes())
                .finish()
                .rotate_left(17);
        SimRng::new(child.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    /// Uniform `u64` in `[0, bound)`. Returns 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.inner.gen_range(0..bound)
        }
    }

    /// Uniform `usize` in `[0, bound)`. Returns 0 when `bound` is 0.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Pick a uniformly random element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.choose(&mut self.inner)
    }

    /// Shuffle a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }

    /// Sample an exponential with the given mean (inverse-CDF method).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// Sample a Pareto (power-law) with minimum `x_min` and shape `alpha`.
    ///
    /// Heavy-tailed draws model the extreme skew of Internet object
    /// populations: prefix counts per AS, routes per peer, resources per
    /// web page.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        x_min / u.powf(1.0 / alpha)
    }

    /// Sample a Zipf-like rank in `[0, n)` with exponent `s` via rejection
    /// on the continuous bounded Pareto. Rank 0 is the most popular item.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        if n <= 1 {
            return 0;
        }
        // Inverse-CDF of the continuous approximation.
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        let nf = n as f64;
        let x = if (s - 1.0).abs() < 1e-9 {
            nf.powf(u)
        } else {
            let a = 1.0 - s;
            ((nf.powf(a) - 1.0) * u + 1.0).powf(1.0 / a)
        };
        (x.floor() as usize).min(n - 1)
    }

    /// Sample approximately-normal via the sum of 12 uniforms
    /// (Irwin–Hall), adequate for jitter modeling.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let s: f64 = (0..12).map(|_| self.inner.gen::<f64>()).sum();
        mean + (s - 6.0) * stddev
    }

    /// Draw `k` distinct indices from `[0, n)`; if `k >= n` returns all.
    pub fn distinct_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx.sort_unstable();
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let av: Vec<u64> = (0..32).map(|_| a.below(1 << 30)).collect();
        let bv: Vec<u64> = (0..32).map(|_| b.below(1 << 30)).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn fork_is_order_independent_and_label_sensitive() {
        let root = SimRng::new(42);
        let mut f1 = root.fork("links");
        let mut f2 = root.fork("workload");
        let mut f1_again = root.fork("links");
        assert_eq!(f1.below(1 << 20), f1_again.below(1 << 20));
        // Different labels must produce different streams.
        let a: Vec<u64> = (0..16).map(|_| f1.below(1 << 20)).collect();
        let b: Vec<u64> = (0..16).map(|_| f2.below(1 << 20)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(7.0));
    }

    #[test]
    fn chance_frequency_roughly_matches() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn below_zero_bound() {
        let mut r = SimRng::new(5);
        assert_eq!(r.below(0), 0);
        assert_eq!(r.index(0), 0);
    }

    #[test]
    fn pick_and_shuffle() {
        let mut r = SimRng::new(9);
        assert!(r.pick::<u32>(&[]).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.pick(&items).unwrap()));
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exp(5.0)).sum();
        let mean = total / n as f64;
        assert!((4.5..5.5).contains(&mean), "mean={mean}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut r = SimRng::new(17);
        for _ in 0..1000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut r = SimRng::new(19);
        let n = 1000;
        let draws: Vec<usize> = (0..20_000).map(|_| r.zipf(n, 1.1)).collect();
        assert!(draws.iter().all(|&d| d < n));
        let low = draws.iter().filter(|&&d| d < 10).count();
        let high = draws.iter().filter(|&&d| d >= n - 10).count();
        assert!(low > high * 3, "low={low} high={high}");
    }

    #[test]
    fn zipf_tiny_populations() {
        let mut r = SimRng::new(23);
        assert_eq!(r.zipf(0, 1.0), 0);
        assert_eq!(r.zipf(1, 1.0), 0);
        for _ in 0..100 {
            assert!(r.zipf(2, 1.0) < 2);
        }
    }

    #[test]
    fn distinct_indices_are_distinct_and_sorted() {
        let mut r = SimRng::new(29);
        let idx = r.distinct_indices(50, 10);
        assert_eq!(idx.len(), 10);
        for w in idx.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(r.distinct_indices(3, 10).len(), 3);
    }

    #[test]
    fn normal_is_centered() {
        let mut r = SimRng::new(31);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.normal(10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((9.8..10.2).contains(&mean), "mean={mean}");
    }
}
