//! Trace statistics: access-count curves and cache hit-rate curves.
//!
//! These regenerate the paper's characterization figures:
//!
//! * **Figure 3** — sorted access counts of table rows (the power-law
//!   curves): [`AccessHistogram::sorted_counts`].
//! * **Figure 6** — static-cache hit rate as a function of cache size:
//!   [`AccessHistogram::hit_rate_curve`]. A static top-N cache by
//!   definition hits exactly on the N most popular rows, so the oracle
//!   hit rate at size N is the share of accesses falling on the top-N
//!   rows by count.

use serde::Serialize;

/// Per-row access counts of one embedding table over a trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AccessHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl AccessHistogram {
    /// Creates an empty histogram over `rows` rows.
    pub fn new(rows: u64) -> Self {
        AccessHistogram {
            counts: vec![0; rows as usize],
            total: 0,
        }
    }

    /// Records a single row access.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the configured row count.
    pub fn record(&mut self, id: u64) {
        self.counts[id as usize] += 1;
        self.total += 1;
    }

    /// Total recorded accesses.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Access counts sorted descending — the y-values of Figure 3.
    pub fn sorted_counts(&self) -> Vec<u64> {
        let mut v = self.counts.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Share of all accesses captured by the `fraction` most-accessed rows
    /// (an oracle static cache of that size). `fraction` is clamped to
    /// `[0, 1]`.
    pub fn top_fraction_share(&self, fraction: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let k = ((fraction.clamp(0.0, 1.0) * self.counts.len() as f64).ceil()) as usize;
        let sorted = self.sorted_counts();
        let head: u64 = sorted.iter().take(k).sum();
        head as f64 / self.total as f64
    }

    /// Hit rate of an oracle static top-N cache at each of the given cache
    /// sizes (as fractions of the table). Returns `(fraction, hit_rate)`
    /// pairs — one Figure 6 curve.
    pub fn hit_rate_curve(&self, fractions: &[f64]) -> Vec<(f64, f64)> {
        // Sort once, prefix-sum, then answer each query in O(1).
        let sorted = self.sorted_counts();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0u64);
        for &c in &sorted {
            prefix.push(prefix.last().expect("non-empty") + c);
        }
        fractions
            .iter()
            .map(|&f| {
                let k = ((f.clamp(0.0, 1.0) * sorted.len() as f64).ceil()) as usize;
                let hits = prefix[k.min(sorted.len())];
                let rate = if self.total == 0 {
                    0.0
                } else {
                    hits as f64 / self.total as f64
                };
                (f, rate)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};
    use crate::profiles::LocalityProfile;

    fn histogram_for(profile: LocalityProfile, batches: usize) -> AccessHistogram {
        let cfg = TraceConfig {
            num_tables: 1,
            rows_per_table: 2_000,
            lookups_per_sample: 8,
            batch_size: 64,
            profile,
            seed: 5,
        };
        let mut gen = TraceGenerator::new(cfg);
        let mut h = AccessHistogram::new(cfg.rows_per_table);
        for _ in 0..batches {
            for &id in TraceGenerator::next_batch(&mut gen).bag(0).ids() {
                h.record(id);
            }
        }
        h
    }

    #[test]
    fn counting_is_exact() {
        let mut h = AccessHistogram::new(10);
        h.record(3);
        h.record(3);
        h.record(7);
        assert_eq!(h.total(), 3);
        assert_eq!(h.sorted_counts()[0], 2);
        assert_eq!(h.sorted_counts()[1], 1);
        assert_eq!(h.sorted_counts()[2], 0);
    }

    #[test]
    fn figure3_shape_power_law_has_long_tail() {
        let h = histogram_for(LocalityProfile::High, 40);
        let sorted = h.sorted_counts();
        // Head must tower over the median row.
        let head = sorted[0];
        let median = sorted[sorted.len() / 2];
        assert!(head > 20 * median.max(1), "head {head} vs median {median}");
    }

    #[test]
    fn figure3_random_trace_is_flat() {
        let h = histogram_for(LocalityProfile::Random, 40);
        let sorted = h.sorted_counts();
        let head = sorted[0] as f64;
        let median = sorted[sorted.len() / 2].max(1) as f64;
        assert!(head / median < 5.0, "head {head} vs median {median}");
    }

    #[test]
    fn hit_rate_curve_is_monotone_and_saturates() {
        let h = histogram_for(LocalityProfile::Medium, 30);
        let curve = h.hit_rate_curve(&[0.0, 0.02, 0.1, 0.5, 1.0]);
        assert_eq!(curve[0].1, 0.0);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure6_criteo_like_saturates_early_alibaba_like_late() {
        // The defining contrast of Figure 6: high-locality datasets reach
        // high hit rates with small caches; low-locality ones do not.
        let high = histogram_for(LocalityProfile::High, 30);
        let low = histogram_for(LocalityProfile::Low, 30);
        let h10 = high.hit_rate_curve(&[0.10])[0].1;
        let l10 = low.hit_rate_curve(&[0.10])[0].1;
        assert!(h10 > l10 + 0.2, "high {h10} vs low {l10}");
    }

    #[test]
    fn top_fraction_share_matches_curve() {
        let h = histogram_for(LocalityProfile::Medium, 10);
        let a = h.top_fraction_share(0.05);
        let b = h.hit_rate_curve(&[0.05])[0].1;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = AccessHistogram::new(100);
        assert_eq!(h.total(), 0);
        assert_eq!(h.top_fraction_share(0.5), 0.0);
        let curve = h.hit_rate_curve(&[0.1, 1.0]);
        assert!(curve.iter().all(|&(_, r)| r == 0.0));
    }
}
