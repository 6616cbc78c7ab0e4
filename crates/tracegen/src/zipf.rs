//! Power-law (Zipf) rank sampling.
//!
//! Embedding-table accesses follow a power law: the probability of touching
//! the rank-`r` hottest row is proportional to `1 / r^s` (paper §III-A,
//! Figure 3). [`ZipfSampler`] draws ranks from that distribution in O(1)
//! time and memory using Hörmann & Derflinger's rejection-inversion method,
//! which is exact for any table size — crucial here because the paper's
//! tables have 10 M rows, far too many for alias tables per table.

use rand::Rng;

/// Samples 0-based ranks `0..n` with `P(rank = r) ∝ 1/(r+1)^s`.
///
/// An exponent of `0` degenerates to the uniform distribution (the paper's
/// "Random" trace).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use tracegen::ZipfSampler;
///
/// let z = ZipfSampler::new(1_000_000, 1.05);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let r = z.sample(&mut rng);
/// assert!(r < 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    // Precomputed constants of the rejection-inversion scheme.
    h_x1: f64,
    h_n: f64,
    accept_cut: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be ≥ 0, got {s}");
        if s == 0.0 {
            return ZipfSampler {
                n,
                s,
                h_x1: 0.0,
                h_n: 0.0,
                accept_cut: 0.0,
            };
        }
        let h_x1 = h(1.5, s) - 1.0; // 1^{-s} == 1
        let h_n = h(n as f64 + 0.5, s);
        let accept_cut = 2.0 - h_inv(h(2.5, s) - f64::powf(2.0, -s), s);
        ZipfSampler {
            n,
            s,
            h_x1,
            h_n,
            accept_cut,
        }
    }

    /// Number of ranks.
    #[cfg(test)]
    pub(crate) fn n(&self) -> u64 {
        self.n
    }

    /// Draws one 0-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.s == 0.0 {
            return rng.gen_range(0..self.n);
        }
        // Hörmann & Derflinger rejection-inversion. Expected < 1.1
        // iterations per sample for all practical exponents.
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = h_inv(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            if k - x <= self.accept_cut {
                return k as u64 - 1;
            }
            if u >= h(k + 0.5, self.s) - f64::powf(k, -self.s) {
                return k as u64 - 1;
            }
        }
    }

    /// The fraction of all accesses that fall on the hottest
    /// `⌈fraction·n⌉` ranks, computed from the exact generalized harmonic
    /// sums (with an integral tail approximation above one million terms).
    ///
    /// This is the analytic counterpart of a measured Figure 6 point.
    #[cfg(test)]
    pub(crate) fn top_share(&self, fraction: f64) -> f64 {
        let k = ((fraction * self.n as f64).ceil() as u64).clamp(0, self.n);
        if k == 0 {
            return 0.0;
        }
        harmonic(k, self.s) / harmonic(self.n, self.s)
    }
}

/// H(x) = x^{1-s}/(1-s) for s ≠ 1, ln(x) for s = 1 — the integral of the
/// rank density, monotonically increasing for every s ≥ 0.
fn h(x: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-9 {
        x.ln()
    } else {
        x.powf(1.0 - s) / (1.0 - s)
    }
}

/// Inverse of [`h`].
fn h_inv(v: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-9 {
        v.exp()
    } else {
        ((1.0 - s) * v).powf(1.0 / (1.0 - s))
    }
}

/// Generalized harmonic number `H_{k,s} = Σ_{r=1..k} r^{-s}`, exact below
/// one million terms and integral-approximated above.
#[cfg(test)]
pub(crate) fn harmonic(k: u64, s: f64) -> f64 {
    const EXACT_LIMIT: u64 = 1_000_000;
    if k <= EXACT_LIMIT {
        return (1..=k).map(|r| f64::powf(r as f64, -s)).sum();
    }
    let head: f64 = (1..=EXACT_LIMIT).map(|r| f64::powf(r as f64, -s)).sum();
    // ∫_{EXACT_LIMIT+0.5}^{k+0.5} x^{-s} dx via the antiderivative h().
    head + h(k as f64 + 0.5, s) - h(EXACT_LIMIT as f64 + 0.5, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_counts(z: &ZipfSampler, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; z.n() as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn uniform_special_case_is_flat() {
        let z = ZipfSampler::new(50, 0.0);
        let counts = empirical_counts(&z, 100_000, 7);
        let expect = 100_000.0 / 50.0;
        for (r, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.15, "rank {r}: count {c} vs expected {expect}");
        }
    }

    #[test]
    fn rank_probabilities_match_power_law() {
        // Empirical P(rank) must track 1/(r+1)^s within sampling noise.
        let s = 1.1;
        let n = 1000u64;
        let z = ZipfSampler::new(n, s);
        let draws = 400_000;
        let counts = empirical_counts(&z, draws, 11);
        let hn = harmonic(n, s);
        for r in [0usize, 1, 2, 9, 99] {
            let expect = draws as f64 * f64::powf((r + 1) as f64, -s) / hn;
            let got = counts[r] as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.08, "rank {r}: got {got}, expect {expect:.1}");
        }
    }

    #[test]
    fn monotone_rank_popularity() {
        let z = ZipfSampler::new(64, 0.9);
        let counts = empirical_counts(&z, 300_000, 13);
        // Smooth with pairs to damp noise; popularity must broadly decrease.
        let first: u64 = counts[..8].iter().sum();
        let mid: u64 = counts[24..32].iter().sum();
        let last: u64 = counts[56..].iter().sum();
        assert!(first > mid && mid > last, "{first} {mid} {last}");
    }

    #[test]
    fn exponent_one_branch_works() {
        let z = ZipfSampler::new(1000, 1.0);
        let counts = empirical_counts(&z, 200_000, 17);
        // Rank 0 should receive ≈ 1/H_{1000,1} ≈ 13.4 % of accesses.
        let share = counts[0] as f64 / 200_000.0;
        assert!((share - 1.0 / harmonic(1000, 1.0)).abs() < 0.01, "{share}");
    }

    #[test]
    fn top_share_matches_paper_anchor_points() {
        // Criteo: 2 % of rows ≈ 80 % of traffic at s = 1.05 on 10 M rows.
        let high = ZipfSampler::new(10_000_000, 1.05);
        let share = high.top_share(0.02);
        assert!((share - 0.80).abs() < 0.06, "high-locality share {share}");
        // Alibaba: 2 % of rows ≈ 8.5 % of traffic at s = 0.37.
        let low = ZipfSampler::new(10_000_000, 0.37);
        let share = low.top_share(0.02);
        assert!((share - 0.085).abs() < 0.03, "low-locality share {share}");
    }

    #[test]
    fn top_share_is_monotone_in_fraction() {
        let z = ZipfSampler::new(100_000, 0.8);
        let mut last = 0.0;
        for f in [0.01, 0.05, 0.2, 0.5, 1.0] {
            let s = z.top_share(f);
            assert!(s >= last);
            last = s;
        }
        assert!((last - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_top_share_matches_analytic() {
        let z = ZipfSampler::new(10_000, 0.9);
        let counts = empirical_counts(&z, 500_000, 23);
        let top: u64 = counts[..200].iter().sum(); // top 2 %
        let got = top as f64 / 500_000.0;
        let want = z.top_share(0.02);
        assert!((got - want).abs() < 0.02, "got {got}, want {want}");
    }

    #[test]
    fn harmonic_tail_approximation_is_continuous() {
        // The integral tail must agree with brute force just past the limit.
        let s = 0.7;
        let exact: f64 = (1..=1_000_100u64).map(|r| f64::powf(r as f64, -s)).sum();
        let approx = harmonic(1_000_100, s);
        assert!((exact - approx).abs() / exact < 1e-6);
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent must be ≥ 0")]
    fn negative_exponent_rejected() {
        let _ = ZipfSampler::new(10, -0.5);
    }

    #[test]
    fn determinism_across_identical_rngs() {
        let z = ZipfSampler::new(5000, 1.3);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
