//! Seeded bijective permutation of row IDs.
//!
//! The Zipf sampler produces *ranks* — rank 0 is the hottest. Real tables
//! do not store their popular rows contiguously, so traces map ranks
//! through a bijection of `[0, n)` before emitting them as row IDs. The
//! bijection is an affine permutation `id = (a·rank + b) mod n` with
//! `gcd(a, n) = 1`, which is invertible (needed to answer "what is this
//! row's popularity rank?" — the membership test of the static top-N cache
//! of Yin et al. reproduced in the `systems` crate).

use serde::Serialize;

/// An invertible affine permutation of `[0, n)`.
///
/// # Example
///
/// ```
/// use tracegen::Scrambler;
///
/// let s = Scrambler::new(1000, 42);
/// let id = s.apply(0); // where the hottest rank lives
/// assert_eq!(s.invert(id), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Scrambler {
    n: u64,
    a: u64,
    a_inv: u64,
    b: u64,
}

impl Scrambler {
    /// Creates a permutation of `[0, n)` derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        // Derive a multiplier from the seed; ensure it is coprime with n.
        let mut a = splitmix(seed) % n;
        if a == 0 {
            a = 1;
        }
        while gcd(a, n) != 1 {
            a += 1;
            if a >= n {
                a = 1;
            }
        }
        let b = splitmix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) % n;
        let a_inv = mod_inverse(a, n);
        Scrambler { n, a, a_inv, b }
    }

    /// Maps a popularity rank to a row ID.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n`.
    pub fn apply(&self, rank: u64) -> u64 {
        assert!(rank < self.n, "rank {rank} out of domain {}", self.n);
        ((self.a as u128 * rank as u128 + self.b as u128) % self.n as u128) as u64
    }

    /// Maps a row ID back to its popularity rank.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n`.
    pub fn invert(&self, id: u64) -> u64 {
        assert!(id < self.n, "id {id} out of domain {}", self.n);
        let shifted = (id + self.n - self.b % self.n) % self.n;
        ((self.a_inv as u128 * shifted as u128) % self.n as u128) as u64
    }
}

/// SplitMix64 — a tiny, high-quality seed scrambler.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Modular inverse of `a` modulo `n` via the extended Euclid algorithm.
///
/// # Panics
///
/// Panics if `gcd(a, n) != 1`.
fn mod_inverse(a: u64, n: u64) -> u64 {
    let (mut old_r, mut r) = (a as i128, n as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    assert_eq!(old_r, 1, "not coprime: gcd({a}, {n}) != 1");
    (old_s.rem_euclid(n as i128)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn permutation_is_bijective_small() {
        for n in [1u64, 2, 7, 100, 101, 4096] {
            let s = Scrambler::new(n, 5);
            let images: HashSet<u64> = (0..n).map(|r| s.apply(r)).collect();
            assert_eq!(images.len() as u64, n, "n={n}");
        }
    }

    #[test]
    fn invert_round_trips() {
        let s = Scrambler::new(10_000_019, 77); // prime-ish large domain
        for rank in [0u64, 1, 999, 10_000_018, 1234567] {
            assert_eq!(s.invert(s.apply(rank)), rank);
        }
        for id in [0u64, 42, 10_000_000] {
            assert_eq!(s.apply(s.invert(id)), id);
        }
    }

    #[test]
    fn different_seeds_give_different_permutations() {
        let a = Scrambler::new(1_000_000, 1);
        let b = Scrambler::new(1_000_000, 2);
        let differs = (0..100u64).any(|r| a.apply(r) != b.apply(r));
        assert!(differs);
    }

    #[test]
    fn hot_ranks_are_spread_out() {
        // The first 100 ranks should not map to a narrow ID band.
        let n = 1_000_000u64;
        let s = Scrambler::new(n, 9);
        let ids: Vec<u64> = (0..100).map(|r| s.apply(r)).collect();
        let spread = ids.iter().max().unwrap() - ids.iter().min().unwrap();
        assert!(spread > n / 4, "spread {spread}");
    }

    #[test]
    fn composite_domain_sizes_work() {
        // n = 2^20 forces the coprime search to skip even multipliers.
        let n = 1u64 << 20;
        let s = Scrambler::new(n, 1234);
        let images: HashSet<u64> = (0..1000).map(|r| s.apply(r)).collect();
        assert_eq!(images.len(), 1000);
        assert_eq!(s.invert(s.apply(55)), 55);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_rank_panics() {
        let s = Scrambler::new(10, 1);
        let _ = s.apply(10);
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn empty_domain_rejected() {
        let _ = Scrambler::new(0, 1);
    }
}
