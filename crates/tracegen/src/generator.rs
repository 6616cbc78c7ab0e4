//! Deterministic mini-batch trace generation.
//!
//! A [`TraceGenerator`] turns a [`TraceConfig`] into an endless stream of
//! [`SparseBatch`]es. Each table draws its lookups from an independent,
//! seeded RNG stream so that (a) runs are exactly reproducible, and (b) the
//! same trace can be regenerated for a second system to train on — which is
//! how the reproduction proves ScratchPipe performs identical updates to
//! the baseline.

use embeddings::{SparseBatch, TableBag};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::profiles::LocalityProfile;
use crate::scramble::Scrambler;
use crate::zipf::ZipfSampler;

/// Configuration of one synthetic trace.
///
/// The default mirrors the paper's default RecSys model (§V): 8 tables of
/// 10 M rows, 20 lookups per table per sample, batch size 2048.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceConfig {
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Embedding gathers per table per sample ("pooling factor").
    pub lookups_per_sample: usize,
    /// Samples per mini-batch.
    pub batch_size: usize,
    /// Locality regime shared by all tables.
    pub profile: LocalityProfile,
    /// Master seed; all per-table streams derive from it.
    pub seed: u64,
}

impl TraceConfig {
    /// The paper's default model configuration with the given profile.
    pub(crate) fn paper_default(profile: LocalityProfile) -> Self {
        TraceConfig {
            num_tables: 8,
            rows_per_table: 10_000_000,
            lookups_per_sample: 20,
            batch_size: 2048,
            profile,
            seed: 0x5C4A7C9,
        }
    }

    /// A scaled-down configuration for functional (real-arithmetic) runs.
    pub fn functional_default(profile: LocalityProfile) -> Self {
        TraceConfig {
            num_tables: 4,
            rows_per_table: 20_000,
            lookups_per_sample: 8,
            batch_size: 64,
            profile,
            seed: 0x5C4A7C9,
        }
    }

    /// Total sparse lookups one mini-batch performs across all tables.
    #[cfg(test)]
    pub(crate) fn lookups_per_batch(&self) -> u64 {
        (self.num_tables * self.lookups_per_sample * self.batch_size) as u64
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::paper_default(LocalityProfile::Medium)
    }
}

/// Per-table sampling state.
#[derive(Debug)]
struct TableStream {
    sampler: ZipfSampler,
    scrambler: Scrambler,
    rng: StdRng,
}

/// Generates a deterministic stream of [`SparseBatch`]es.
///
/// # Example
///
/// ```
/// use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};
///
/// let cfg = TraceConfig::functional_default(LocalityProfile::Medium);
/// let batches = TraceGenerator::new(cfg).take_batches(3);
/// assert_eq!(batches.len(), 3);
/// // Regenerating from the same config gives the identical trace.
/// let again = TraceGenerator::new(cfg).take_batches(3);
/// assert_eq!(batches, again);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    config: TraceConfig,
    tables: Vec<TableStream>,
}

impl TraceGenerator {
    /// Creates a generator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of the configuration is zero.
    pub fn new(config: TraceConfig) -> Self {
        assert!(config.num_tables > 0, "need at least one table");
        assert!(config.rows_per_table > 0, "tables must have rows");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.lookups_per_sample > 0, "need at least one lookup");
        let tables = (0..config.num_tables)
            .map(|t| {
                let table_seed = config.seed.wrapping_add(0x9E37 * (t as u64 + 1));
                TableStream {
                    sampler: ZipfSampler::new(
                        config.rows_per_table,
                        config.profile.zipf_exponent(),
                    ),
                    scrambler: Scrambler::new(config.rows_per_table, table_seed),
                    rng: StdRng::seed_from_u64(table_seed),
                }
            })
            .collect();
        TraceGenerator { config, tables }
    }

    /// Generates the next mini-batch.
    pub(crate) fn next_batch(&mut self) -> SparseBatch {
        let c = self.config;
        let bags = self
            .tables
            .iter_mut()
            .map(|stream| {
                let total = c.batch_size * c.lookups_per_sample;
                let mut ids = Vec::with_capacity(total);
                for _ in 0..total {
                    let rank = stream.sampler.sample(&mut stream.rng);
                    ids.push(stream.scrambler.apply(rank));
                }
                let offsets = (0..=c.batch_size)
                    .map(|s| (s * c.lookups_per_sample) as u32)
                    .collect();
                TableBag::new(ids, offsets)
            })
            .collect();
        SparseBatch::new(bags)
    }

    /// Generates `n` consecutive mini-batches.
    pub fn take_batches(mut self, n: usize) -> Vec<SparseBatch> {
        (0..n).map(|_| self.next_batch()).collect()
    }

    /// Answers "is this row ID among the `hot_rows` hottest rows of table
    /// `t`?" — the membership test of the static top-N embedding cache.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `id` exceeds the table size.
    #[cfg(test)]
    pub(crate) fn is_hot(&self, t: usize, id: u64, hot_rows: u64) -> bool {
        self.tables[t].scrambler.invert(id) < hot_rows
    }

    /// The popularity rank of row `id` in table `t` (0 = hottest).
    #[cfg(test)]
    pub(crate) fn rank_of(&self, t: usize, id: u64) -> u64 {
        self.tables[t].scrambler.invert(id)
    }

    /// The row IDs of the `n` hottest rows of table `t`, hottest first.
    pub fn hot_rows(&self, t: usize, n: u64) -> Vec<u64> {
        let s = &self.tables[t].scrambler;
        (0..n.min(self.config.rows_per_table))
            .map(|rank| s.apply(rank))
            .collect()
    }

    /// A detachable popularity oracle usable after the generator is gone —
    /// the membership test of a static top-N cache (Yin et al.).
    pub fn hot_oracle(&self) -> HotOracle {
        HotOracle {
            scramblers: self.tables.iter().map(|t| t.scrambler).collect(),
        }
    }
}

/// Answers popularity-rank queries for every table of a trace.
#[derive(Debug, Clone)]
pub struct HotOracle {
    scramblers: Vec<Scrambler>,
}

impl HotOracle {
    /// The popularity rank of row `id` in table `t` (0 = hottest).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `id` exceeds the table size.
    pub(crate) fn rank(&self, t: usize, id: u64) -> u64 {
        self.scramblers[t].invert(id)
    }

    /// True if `id` is among the `hot_rows` hottest rows of table `t`.
    pub fn is_hot(&self, t: usize, id: u64, hot_rows: u64) -> bool {
        self.rank(t, id) < hot_rows
    }

    /// Number of tables covered.
    pub fn num_tables(&self) -> usize {
        self.scramblers.len()
    }
}

impl Iterator for TraceGenerator {
    type Item = SparseBatch;

    fn next(&mut self) -> Option<SparseBatch> {
        Some(self.next_batch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(profile: LocalityProfile) -> TraceConfig {
        TraceConfig {
            num_tables: 3,
            rows_per_table: 500,
            lookups_per_sample: 4,
            batch_size: 16,
            profile,
            seed: 7,
        }
    }

    #[test]
    fn batch_shape_matches_config() {
        let cfg = small_cfg(LocalityProfile::Medium);
        let mut gen = TraceGenerator::new(cfg);
        let b = gen.next_batch();
        assert_eq!(b.num_tables(), 3);
        assert_eq!(b.batch_size(), 16);
        for (_, bag) in b.bags() {
            assert_eq!(bag.total_lookups(), 64);
            assert!(bag.max_id().unwrap() < 500);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_cfg(LocalityProfile::High);
        let a = TraceGenerator::new(cfg).take_batches(5);
        let b = TraceGenerator::new(cfg).take_batches(5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small_cfg(LocalityProfile::High);
        let a = TraceGenerator::new(cfg).take_batches(2);
        cfg.seed = 8;
        let b = TraceGenerator::new(cfg).take_batches(2);
        assert_ne!(a, b);
    }

    #[test]
    fn tables_draw_independent_streams() {
        let cfg = small_cfg(LocalityProfile::Medium);
        let b = TraceGenerator::new(cfg).take_batches(1).remove(0);
        assert_ne!(b.bag(0).ids(), b.bag(1).ids());
    }

    #[test]
    fn high_locality_concentrates_traffic() {
        let n_batches = 30;
        let count_unique = |p| {
            let cfg = small_cfg(p);
            let batches = TraceGenerator::new(cfg).take_batches(n_batches);
            let mut ids: Vec<u64> = batches
                .iter()
                .flat_map(|b| b.bag(0).ids().iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        let uniform = count_unique(LocalityProfile::Random);
        let high = count_unique(LocalityProfile::High);
        assert!(
            high < uniform * 3 / 4,
            "high locality should touch far fewer unique rows: {high} vs {uniform}"
        );
    }

    #[test]
    fn hot_set_oracle_agrees_with_observed_frequency() {
        // Rows flagged hot must actually receive a majority of accesses
        // under the High profile.
        let cfg = TraceConfig {
            num_tables: 1,
            rows_per_table: 10_000,
            lookups_per_sample: 8,
            batch_size: 64,
            profile: LocalityProfile::High,
            seed: 3,
        };
        let mut gen = TraceGenerator::new(cfg);
        let hot_rows = 200; // top 2 %
        let mut hot_hits = 0u64;
        let mut total = 0u64;
        for _ in 0..50 {
            let b = gen.next_batch();
            for &id in b.bag(0).ids() {
                total += 1;
                if gen.is_hot(0, id, hot_rows) {
                    hot_hits += 1;
                }
            }
        }
        let share = hot_hits as f64 / total as f64;
        assert!(share > 0.55, "top-2% share under High locality: {share}");
    }

    #[test]
    fn hot_rows_listing_matches_oracle() {
        let cfg = small_cfg(LocalityProfile::Medium);
        let gen = TraceGenerator::new(cfg);
        let hot = gen.hot_rows(1, 10);
        assert_eq!(hot.len(), 10);
        for &id in &hot {
            assert!(gen.is_hot(1, id, 10));
        }
        assert_eq!(gen.rank_of(1, hot[0]), 0);
        assert_eq!(gen.rank_of(1, hot[9]), 9);
    }

    #[test]
    fn iterator_interface_works() {
        let cfg = small_cfg(LocalityProfile::Low);
        let batches: Vec<_> = TraceGenerator::new(cfg).take(4).collect();
        assert_eq!(batches.len(), 4);
    }

    #[test]
    fn paper_default_matches_methodology() {
        let cfg = TraceConfig::paper_default(LocalityProfile::High);
        assert_eq!(cfg.num_tables, 8);
        assert_eq!(cfg.rows_per_table, 10_000_000);
        assert_eq!(cfg.lookups_per_sample, 20);
        assert_eq!(cfg.batch_size, 2048);
        assert_eq!(cfg.lookups_per_batch(), 327_680);
    }

    #[test]
    #[should_panic(expected = "need at least one table")]
    fn zero_tables_rejected() {
        let mut cfg = small_cfg(LocalityProfile::Low);
        cfg.num_tables = 0;
        let _ = TraceGenerator::new(cfg);
    }
}
