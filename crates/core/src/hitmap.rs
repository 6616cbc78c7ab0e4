//! The Hit-Map: the scratchpad's (key, value) index.
//!
//! Paper §IV-D: the GPU scratchpad is addressed through a key-value store
//! mapping a row's sparse feature ID to the scratchpad slot caching it.
//! Crucially, the Hit-Map is updated **at \[Plan\] time**, four pipeline
//! cycles before the Storage array actually holds the data — it always
//! reflects the *future* caching status, so that each mini-batch's plan
//! sees the state the scratchpad will have by the time that batch trains.
//!
//! Internally the map is a [`SlotIndex`] — the purpose-built
//! open-addressing index of [`crate::index`] — rather than a std
//! `HashMap`: the Plan stage probes this structure once per unique ID
//! per mini-batch, and on a single-core host those probes dominate the
//! Plan critical path.

use crate::index::SlotIndex;

/// Maps sparse feature IDs to scratchpad slot indices for one table.
#[derive(Debug, Clone, Default)]
pub struct HitMap {
    map: SlotIndex,
    lifetime_hits: u64,
    lifetime_misses: u64,
}

impl HitMap {
    /// Creates an empty Hit-Map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty Hit-Map with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HitMap {
            map: SlotIndex::with_capacity(cap),
            lifetime_hits: 0,
            lifetime_misses: 0,
        }
    }

    /// Queries without recording statistics (used for future-window
    /// registration, which the paper does not count as a cache access).
    pub fn peek(&self, id: u64) -> Option<u32> {
        self.map.get(id)
    }

    /// Queries and records a hit or miss.
    pub fn query(&mut self, id: u64) -> Option<u32> {
        match self.map.get(id) {
            Some(slot) => {
                self.lifetime_hits += 1;
                Some(slot)
            }
            None => {
                self.lifetime_misses += 1;
                None
            }
        }
    }

    /// Records the hits and misses of IDs the caller already resolved via
    /// [`HitMap::peek`] — lets Plan probe each current ID once instead of
    /// twice (peek for protection, query for planning) and book the whole
    /// batch in one step.
    pub(crate) fn record(&mut self, hits: u64, misses: u64) {
        self.lifetime_hits += hits;
        self.lifetime_misses += misses;
    }

    /// Inserts a mapping (the new occupant of `slot`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already mapped — the Plan stage must never map an
    /// ID twice.
    pub fn insert(&mut self, id: u64, slot: u32) {
        let prev = self.map.insert(id, slot);
        assert!(prev.is_none(), "id {id} already cached in slot {prev:?}");
    }

    /// Removes the mapping for `id`, returning its slot.
    pub fn remove(&mut self, id: u64) -> Option<u32> {
        self.map.remove(id)
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime `(hits, misses)` counted by [`HitMap::query`].
    pub fn stats(&self) -> (u64, u64) {
        (self.lifetime_hits, self.lifetime_misses)
    }

    /// Lifetime hit rate in `[0, 1]` (0 if never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lifetime_hits + self.lifetime_misses;
        if total == 0 {
            0.0
        } else {
            self.lifetime_hits as f64 / total as f64
        }
    }

    /// Iterates over `(id, slot)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_tracks_hits_and_misses() {
        let mut m = HitMap::new();
        m.insert(7089, 2);
        m.insert(2021, 3);
        assert_eq!(m.query(7089), Some(2));
        assert_eq!(m.query(3010), None);
        assert_eq!(m.stats(), (1, 1));
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_count() {
        let mut m = HitMap::new();
        m.insert(1, 0);
        assert_eq!(m.peek(1), Some(0));
        assert_eq!(m.peek(2), None);
        assert_eq!(m.stats(), (0, 0));
        assert_eq!(m.hit_rate(), 0.0);
    }

    #[test]
    fn remove_returns_slot() {
        let mut m = HitMap::new();
        m.insert(5, 9);
        assert_eq!(m.remove(5), Some(9));
        assert_eq!(m.remove(5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn figure11_second_cycle_scenario() {
        // Paper Figure 11(b): after batch 1 planned {7089→2, 2021→3}, the
        // second batch of IDs 3010/7089 must see miss/hit even though the
        // Storage array is still empty — the Hit-Map is deliberately ahead
        // of Storage by the pipeline depth.
        let mut m = HitMap::new();
        m.insert(7089, 2);
        m.insert(2021, 3);
        assert_eq!(m.query(3010), None, "miss for 3010");
        assert_eq!(m.query(7089), Some(2), "hit for 7089");
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_rejected() {
        let mut m = HitMap::new();
        m.insert(1, 0);
        m.insert(1, 1);
    }

    #[test]
    fn iteration_covers_all_entries() {
        let mut m = HitMap::with_capacity(4);
        m.insert(10, 0);
        m.insert(20, 1);
        let mut pairs: Vec<_> = m.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(10, 0), (20, 1)]);
        assert_eq!(m.len(), 2);
    }
}
