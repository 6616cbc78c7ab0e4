//! The per-table scratchpad manager: Hit-Map + Hold masks + victim pool.
//!
//! Paper §IV-G notes that ScratchPipe manages its GPU cache *per embedding
//! table*; a [`ScratchpadManager`] is one such instance. Its central
//! operation is [`ScratchpadManager::plan`] — the \[Plan\] stage of
//! Algorithm 1:
//!
//! 1. advance the sliding window by one plan cycle,
//! 2. query the Hit-Map for every unique ID of the current mini-batch;
//!    hits are re-protected, misses are assigned a slot (a never-used free
//!    slot, or an evictable victim chosen by the [`VictimPool`]),
//! 3. register the next `future` mini-batches' cached IDs so upcoming
//!    batches' rows cannot be evicted from under them (removes RAW-④),
//! 4. emit a [`TablePlan`]: which rows to fetch from the CPU table
//!    (\[Collect\]/\[Insert\] fills), which dirty rows to write back
//!    (evictions), and the full ID→slot assignment the \[Train\] stage
//!    will use.
//!
//! # Cost of the metadata path
//!
//! Every per-slot operation is `O(1)` and every per-batch pass is linear.
//! Per slot the manager stores only what some operation reads back: the
//! row it caches (`slot_row`), the cycle its Hold mask clears
//! ([`HoldMask`], one `u64`) and the pool's `{priority, pooled}` record
//! ([`VictimPool`]). Never-used slots are handed out in ascending order,
//! so they are a counter (`next_free`), not a list.
//!
//! * **Expiry ring.** A Hold mask set at cycle `c` clears at `c + width`
//!   at the latest, so pending expiries live in a ring of `width + 1`
//!   buckets indexed by `cycle mod (width + 1)`; each `plan` drains
//!   exactly the bucket of its own cycle into the victim pool and hands
//!   the emptied `Vec` back to the ring (no allocation per cycle).
//! * **Enqueue on growth.** A slot is queued only when a protection
//!   actually moves its horizon (`HoldMask::extend`): a row registered
//!   by the look-ahead at `k = 2`, again at `k = 1`, and finally planned
//!   as the current batch reaches the same horizon three times but is
//!   queued once. Invariant: a slot whose mask is not clear has an entry
//!   in the bucket of its `first_clear_cycle`; an entry whose slot was
//!   re-protected since is skipped when drained (its newer entry stands).
//! * **Victim pool.** Draining inserts into the [`VictimPool`], whose LRU
//!   order is a run queue with `O(1)` `insert` / `remove` / `pop` (see
//!   [`crate::policy`]); LFU and Random keep an `O(log n)` ordered set.
//! * **Output.** [`ScratchpadManager::plan_into`] fills a caller-owned
//!   [`TablePlan`] in place, so a recycled plan costs no allocation.
//!
//! # Passes that look ahead in memory
//!
//! \[Plan\] holds every list it is about to walk, so
//! [`ScratchpadManager::plan_into`] runs as passes over lists, each one
//! prefetching the lines of the step `PREFETCH_DISTANCE` ahead of the
//! one it is working on (the hint is [`crate::index`]'s `prefetch`):
//!
//! 1. probe the current batch (prefetching each ID's Hit-Map bucket),
//!    then protect its hits;
//! 2. probe and protect each look-ahead batch, prefetching the same way;
//! 3. pop the victims the batch's misses will need into
//!    [`TablePlan::evictions`], slot first; read each victim's row
//!    (prefetching its `slot_row` line), then unmap those rows
//!    (prefetching the bucket and the victim's Hold-mask horizon);
//! 4. assign the batch in order: a hit keeps its slot, a miss takes a
//!    never-used slot or the next victim (prefetching a hit's policy
//!    record and a miss's insert bucket).
//!
//! Step 3 pops exactly the victims an in-order pass would pop, because
//! nothing in step 4 returns a slot to the pool. What a caller can
//! observe is unchanged; only the Hit-Map's bucket layout may differ,
//! since the unmaps now precede the inserts. At paper scale (200 k slots
//! a table, the metadata out of cache) this takes about a fifth off each
//! unique ID; docs/perf.md "\[Plan\] looks ahead in memory" has the
//! measurements.

use crate::config::WindowConfig;
use crate::error::ScratchError;
use crate::holdmask::HoldMask;
use crate::index::{prefetch, SlotIndex};
use crate::policy::{EvictionPolicy, VictimPool};

/// How many steps ahead of the one it is working on each \[Plan\] pass
/// prefetches. At paper scale a step costs 20–60 ns, so 16 steps start a
/// line 0.3–1 µs before its use, more than a trip to memory even for the
/// cheapest step, while a pass keeps at most 16–32 lines in flight. A
/// sweep of 4, 8, 16 and 32 read flat within the host's noise
/// (docs/perf.md, "\[Plan\] looks ahead in memory").
const PREFETCH_DISTANCE: usize = 16;

/// A scheduled fill: fetch `row` from the CPU table into scratchpad `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// Sparse feature ID (CPU-table row) to fetch.
    pub row: u64,
    /// Destination scratchpad slot.
    pub slot: u32,
}

/// A scheduled eviction: write the dirty contents of `slot` (row `row`)
/// back to the CPU table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evict {
    /// Sparse feature ID (CPU-table row) being evicted.
    pub row: u64,
    /// Scratchpad slot it occupied.
    pub slot: u32,
}

/// The \[Plan\] stage's output for one table and one mini-batch.
///
/// The batch's address translation is a **deduplicated flat layout**
/// rather than a per-ID hash map: `unique_ids[k]` (the batch's unique IDs
/// in plan order — ascending for every pipeline-produced plan, since the
/// driver feeds `TableBag::unique_ids`) is cached in scratchpad slot
/// `unique_slots[k]`, and every raw lookup `j` of the batch resolves
/// through `lookup_unique[j]` (an index into the unique vectors). The
/// same relation is kept read the other way, as its transpose:
/// `unique_samples[unique_offsets[k]..unique_offsets[k + 1]]` lists the
/// sample of every lookup of unique index `k`. [`crate::stages::index_lookups`]
/// fills both directions. The Train gather thus reads each unique row
/// once and fans out through a `u32` indirection instead of paying a hash
/// probe per raw lookup, the Train scatter gathers each row's gradients
/// through the transpose, and Collect stages each missed row exactly
/// once.
#[derive(Debug, Clone, Default)]
pub struct TablePlan {
    /// The batch's unique IDs, in plan order (hits and fills alike).
    pub unique_ids: Vec<u64>,
    /// Scratchpad slot caching `unique_ids[k]`, aligned with `unique_ids`.
    pub unique_slots: Vec<u32>,
    /// Per-raw-lookup index into `unique_ids`/`unique_slots`, in bag
    /// order; empty until [`crate::stages::index_lookups`] runs.
    pub lookup_unique: Vec<u32>,
    /// Transpose of `lookup_unique`, CSR offsets: `unique_ids.len() + 1`
    /// entries, from 0 to the bag's lookup count; empty until
    /// [`crate::stages::index_lookups`] runs.
    pub unique_offsets: Vec<u32>,
    /// Transpose of `lookup_unique`, CSR values: per unique index, the
    /// sample of each of its lookups, ascending and with multiplicity.
    pub unique_samples: Vec<u32>,
    /// Rows to prefetch from the CPU table.
    pub fills: Vec<Fill>,
    /// Dirty rows to write back to the CPU table.
    pub evictions: Vec<Evict>,
    /// Unique IDs that hit in the Hit-Map.
    pub hits: u64,
    /// Unique IDs that missed.
    pub misses: u64,
}

impl TablePlan {
    /// Number of unique IDs this plan covers.
    pub(crate) fn num_unique(&self) -> usize {
        self.unique_ids.len()
    }

    /// Slot assigned to `id`, if it is part of this plan.
    ///
    /// Binary-searches `unique_ids`, so it requires the plan to have been
    /// built from an ascending `current` slice (true for every plan the
    /// pipeline produces).
    pub fn slot_of(&self, id: u64) -> Option<u32> {
        debug_assert!(
            self.unique_ids.windows(2).all(|w| w[0] <= w[1]),
            "slot_of needs sorted ids"
        );
        self.unique_ids
            .binary_search(&id)
            .ok()
            .map(|k| self.unique_slots[k])
    }

    /// Iterates `(id, slot)` pairs in plan order.
    pub(crate) fn assignments(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.unique_ids
            .iter()
            .zip(self.unique_slots.iter())
            .map(|(&id, &slot)| (id, slot))
    }
}

/// Cumulative statistics of one scratchpad.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchpadStats {
    /// Unique-ID hits across all plans.
    pub hits: u64,
    /// Unique-ID misses (= fills) across all plans.
    pub misses: u64,
    /// Evictions (write-backs) across all plans.
    pub evictions: u64,
    /// Peak number of slots simultaneously protected or pending
    /// (the §VI-D working-set measurement).
    pub peak_held: usize,
}

/// Cache metadata manager for one embedding table.
#[derive(Debug, Clone)]
pub struct ScratchpadManager {
    slots: usize,
    window: WindowConfig,
    /// The Hit-Map (paper §IV-D): sparse feature ID → the slot caching it.
    /// Updated at \[Plan\] time, four pipeline cycles before the Storage
    /// array holds the data, so every plan sees the state the scratchpad
    /// will have by the time its batch trains.
    hit_map: SlotIndex,
    hold: HoldMask,
    /// The row each slot caches; meaningful for slots `< next_free` only
    /// (a mapped slot is only ever remapped, never unmapped).
    slot_row: Vec<u64>,
    pool: VictimPool,
    /// Slots `next_free..slots` have never been used; they are handed out
    /// in ascending order before any victim is chosen.
    next_free: u32,
    /// Expiry ring: `expiry[c % len]` holds the slots whose Hold mask
    /// clears at cycle `c`, for the `len - 1` cycles after the current one.
    expiry: Vec<Vec<u32>>,
    stats: ScratchpadStats,
    /// Reusable per-plan probe cache: the protection pass records each
    /// current ID's Hit-Map result here so the planning pass below never
    /// probes the same ID twice.
    probe: Vec<Option<u32>>,
}

impl ScratchpadManager {
    /// Creates a manager with `slots` cache slots.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] for zero slots, more slots
    /// than a `u32` slot index can name, or an oversized window — before
    /// anything is allocated.
    pub fn new(
        slots: usize,
        window: WindowConfig,
        policy: EvictionPolicy,
    ) -> Result<Self, ScratchError> {
        if slots == 0 {
            return Err(ScratchError::InvalidConfig {
                detail: "scratchpad needs at least one slot".to_owned(),
            });
        }
        if u32::try_from(slots).is_err() {
            return Err(ScratchError::InvalidConfig {
                detail: format!("{slots} slots exceed the u32 slot index"),
            });
        }
        window.validate()?;
        Ok(ScratchpadManager {
            slots,
            window,
            hit_map: SlotIndex::with_capacity(slots),
            hold: HoldMask::new(slots, window.width()),
            slot_row: vec![0; slots],
            pool: VictimPool::new(slots, policy),
            next_free: 0,
            expiry: vec![Vec::new(); window.width() as usize + 1],
            stats: ScratchpadStats::default(),
            probe: Vec::new(),
        })
    }

    /// Number of rows currently mapped.
    pub fn occupancy(&self) -> usize {
        self.hit_map.len()
    }

    /// Plan cycles executed so far.
    pub(crate) fn cycle(&self) -> u64 {
        self.hold.cycle()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ScratchpadStats {
        self.stats
    }

    /// Lifetime unique-ID hit rate.
    #[cfg(test)]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            0.0
        } else {
            self.stats.hits as f64 / total as f64
        }
    }

    /// The row currently mapped to `slot`, if any.
    #[cfg(test)]
    pub(crate) fn slot_row(&self, slot: u32) -> Option<u64> {
        (slot < self.next_free).then(|| self.slot_row[slot as usize])
    }

    /// The slot currently mapped to `row`, if cached.
    pub(crate) fn lookup(&self, row: u64) -> Option<u32> {
        self.hit_map.get(row)
    }

    /// Maps `row` to `slot` in the Hit-Map and the slot table.
    ///
    /// # Panics
    ///
    /// Panics if `row` is already mapped — Plan never caches a row twice.
    fn map(&mut self, row: u64, slot: u32) {
        let prev = self.hit_map.insert(row, slot);
        assert!(prev.is_none(), "row {row} already cached in slot {prev:?}");
        self.slot_row[slot as usize] = row;
    }

    /// The lowest never-used slot, if any is left.
    fn take_free(&mut self) -> Option<u32> {
        (self.next_free as usize != self.slots).then(|| {
            self.next_free += 1;
            self.next_free - 1
        })
    }

    /// All `(row, slot)` pairs currently resident, sorted by row (used by
    /// the final flush back to CPU tables).
    pub fn residents(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.hit_map.iter().collect();
        v.sort_unstable();
        v
    }

    /// Protects `slot` through the `bit`-th upcoming plan cycle; if that
    /// moves its horizon, takes it out of the victim pool and queues the
    /// new expiry. (A slot whose horizon did not move was already held, so
    /// it is not pooled and its queued expiry still stands.)
    fn protect(&mut self, slot: u32, bit: u32) {
        if let Some(clear_at) = self.hold.extend(slot, bit) {
            self.pool.remove(slot);
            let len = self.expiry.len() as u64;
            self.expiry[(clear_at % len) as usize].push(slot);
        }
    }

    /// Drains the bucket of cycle `now` into the victim pool.
    fn refresh_pool(&mut self, now: u64) {
        let idx = (now % self.expiry.len() as u64) as usize;
        let mut bucket = std::mem::take(&mut self.expiry[idx]);
        for &slot in &bucket {
            // Only mapped slots are ever protected.
            debug_assert!(slot < self.next_free);
            // A later re-protection may have superseded this entry.
            if self.hold.is_clear(slot) {
                self.pool.insert(slot);
            }
        }
        bucket.clear();
        self.expiry[idx] = bucket;
    }

    /// Pre-fills free slots with `rows` (hottest first), marking them
    /// immediately evictable. This reproduces the steady-state cache
    /// content a long warm-up run would converge to, so short simulations
    /// measure steady-state eviction traffic instead of cold-fill traffic.
    ///
    /// # Panics
    ///
    /// Panics if called after planning has started or with duplicate rows.
    pub fn prewarm(&mut self, rows: &[u64]) {
        assert_eq!(self.hold.cycle(), 0, "prewarm must precede planning");
        // Fill coldest-first so that the victim pool's tie-breaking (by
        // slot index) evicts the coldest prewarmed rows first.
        for (i, &row) in rows.iter().enumerate().rev() {
            let Some(slot) = self.take_free() else { break };
            if let Some(ahead) = i.checked_sub(PREFETCH_DISTANCE) {
                self.hit_map.prefetch(rows[ahead]);
            }
            self.map(row, slot);
            self.pool.insert(slot);
        }
    }

    /// Executes the \[Plan\] stage for one mini-batch of this table.
    ///
    /// * `current` — the batch's unique row IDs (deduplicated; order sets
    ///   the deterministic processing order).
    /// * `futures` — unique row IDs of the next `window.future` batches,
    ///   nearest first (fewer are allowed near the end of a trace).
    ///
    /// Allocates a fresh [`TablePlan`]; the pipeline uses
    /// [`ScratchpadManager::plan_into`] to refill a recycled one.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::CapacityExhausted`] if a miss finds no free
    /// or evictable slot — the §VI-D provisioning rule was violated.
    pub fn plan(&mut self, current: &[u64], futures: &[&[u64]]) -> Result<TablePlan, ScratchError> {
        let mut out = TablePlan::default();
        self.plan_into(current, futures, &mut out)?;
        Ok(out)
    }

    /// [`ScratchpadManager::plan`] into a caller-owned plan: `out` is
    /// overwritten (its previous contents are discarded, its allocations
    /// reused; `lookup_unique` and its transpose are left empty for
    /// [`crate::stages::index_lookups`]).
    ///
    /// # Errors
    ///
    /// As [`ScratchpadManager::plan`]. After an error `out` holds the
    /// part of the batch planned before capacity ran out, the manager has
    /// booked exactly that part in its statistics, and it remains usable.
    pub fn plan_into(
        &mut self,
        current: &[u64],
        futures: &[&[u64]],
        out: &mut TablePlan,
    ) -> Result<(), ScratchError> {
        self.hold.advance();
        let now = self.hold.cycle();
        self.refresh_pool(now);

        out.unique_ids.clear();
        out.unique_slots.clear();
        out.lookup_unique.clear();
        out.unique_offsets.clear();
        out.unique_samples.clear();
        out.fills.clear();
        out.evictions.clear();
        out.hits = 0;
        out.misses = 0;
        let past_bit = self.window.past;

        // Protection must precede any victim selection. The paper's
        // exclusion superset covers the *current* batch and the future
        // window (§IV-C "three previous, one current, and two future"):
        //
        // * current-batch cached rows — otherwise an early miss in this
        //   very batch could evict a row a later ID of the same batch
        //   hits on (an intra-batch RAW);
        // * future-window cached rows — otherwise an in-flight CPU
        //   write-back could race a re-fetch (RAW-④).
        //
        // Rows a future batch needs but which are not yet cached need no
        // shield, and rows the current batch inserts below carry their own
        // current-batch protection long enough for any in-window batch to
        // re-protect them on hit.
        //
        // The probe result is cached per current ID: protection runs
        // before any victim selection, and every protected slot is exempt
        // from eviction for the rest of this plan, so a hit seen here is
        // still a hit (in the same slot) in the planning pass below.
        let mut probe = std::mem::take(&mut self.probe);
        probe.clear();
        probe.extend(current.iter().enumerate().map(|(i, &id)| {
            if let Some(&ahead) = current.get(i + PREFETCH_DISTANCE) {
                self.hit_map.prefetch(ahead);
            }
            self.hit_map.get(id)
        }));
        for cached in probe.iter().flatten() {
            self.protect(*cached, past_bit);
        }
        let max_k = self.window.future.min(futures.len() as u32);
        for k in 1..=max_k {
            let bit = past_bit + k;
            let ids = futures[(k - 1) as usize];
            for (i, &id) in ids.iter().enumerate() {
                if let Some(&ahead) = ids.get(i + PREFETCH_DISTANCE) {
                    self.hit_map.prefetch(ahead);
                }
                if let Some(slot) = self.hit_map.get(id) {
                    self.protect(slot, bit);
                }
            }
        }

        self.take_victims(&probe, out);
        out.unique_ids.extend_from_slice(current);
        out.unique_slots.reserve(current.len());
        let result = self.assign_slots(current, &probe, now, out);
        // Booked on the error path too, so a failed plan leaves the probe
        // buffer in place and the part it did plan in the statistics.
        self.probe = probe;
        self.stats.hits += out.hits;
        self.stats.misses += out.misses;
        self.stats.evictions += out.evictions.len() as u64;

        let held = self.next_free as usize - self.pool.len();
        self.stats.peak_held = self.stats.peak_held.max(held);
        result
    }

    /// Pops every victim the batch's misses will need into
    /// `out.evictions` and unmaps their rows, before any slot is
    /// assigned.
    ///
    /// This is the order the planning pass would pop them in: nothing it
    /// does returns a slot to the pool (a hit was protected above, so it
    /// is already out of the pool, and a filled slot gets protected), so
    /// the pool's order cannot change between two pops. Misses take the
    /// never-used slots first, so the victims needed are the misses past
    /// those; if the pool holds fewer, every one popped is still used
    /// before the planning pass runs out.
    ///
    /// Each step prefetches what the step [`PREFETCH_DISTANCE`] ahead
    /// will touch: the victim's `slot_row` line while the rows are read,
    /// then its Hit-Map bucket and its horizon (which the planning pass
    /// extends) while they are unmapped.
    fn take_victims(&mut self, probe: &[Option<u32>], out: &mut TablePlan) {
        let misses = probe.iter().filter(|cached| cached.is_none()).count();
        let free = self.slots - self.next_free as usize;
        let wanted = misses.saturating_sub(free);
        while out.evictions.len() < wanted {
            let Some(slot) = self.pool.pop() else { break };
            out.evictions.push(Evict { row: 0, slot });
        }
        for i in 0..out.evictions.len() {
            if let Some(ahead) = out.evictions.get(i + PREFETCH_DISTANCE) {
                prefetch(&self.slot_row[ahead.slot as usize]);
            }
            let victim = &mut out.evictions[i];
            victim.row = self.slot_row[victim.slot as usize];
        }
        for (i, &Evict { row, slot }) in out.evictions.iter().enumerate() {
            if let Some(ahead) = out.evictions.get(i + PREFETCH_DISTANCE) {
                self.hit_map.prefetch(ahead.row);
                self.hold.prefetch(ahead.slot);
            }
            let removed = self.hit_map.remove(row);
            debug_assert_eq!(removed, Some(slot), "hit-map out of sync");
        }
    }

    /// The planning pass: resolves every current ID to a slot — the probed
    /// one on a hit, a free slot or the next of `out.evictions` on a miss.
    /// Each step prefetches the line the step [`PREFETCH_DISTANCE`] ahead
    /// will write first: a hit's policy record, a miss's Hit-Map bucket.
    fn assign_slots(
        &mut self,
        current: &[u64],
        probe: &[Option<u32>],
        now: u64,
        out: &mut TablePlan,
    ) -> Result<(), ScratchError> {
        let past_bit = self.window.past;
        let mut victims = 0;
        for (i, (&id, &cached)) in current.iter().zip(probe).enumerate() {
            match probe.get(i + PREFETCH_DISTANCE) {
                Some(Some(slot)) => self.pool.prefetch(*slot),
                Some(None) => self.hit_map.prefetch(current[i + PREFETCH_DISTANCE]),
                None => {}
            }
            let slot = if let Some(slot) = cached {
                out.hits += 1;
                self.pool.touch(slot, now);
                slot
            } else {
                out.misses += 1;
                // A never-used slot holds nothing; a victim always does.
                let slot = if let Some(slot) = self.take_free() {
                    slot
                } else if let Some(victim) = out.evictions.get(victims) {
                    victims += 1;
                    victim.slot
                } else {
                    return Err(ScratchError::CapacityExhausted {
                        table: usize::MAX, // caller contextualizes
                        cycle: now,
                        slots: self.slots,
                    });
                };
                self.map(id, slot);
                self.pool.touch(slot, now);
                self.protect(slot, past_bit);
                out.fills.push(Fill { row: id, slot });
                slot
            };
            out.unique_slots.push(slot);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(slots: usize, window: WindowConfig) -> ScratchpadManager {
        ScratchpadManager::new(slots, window, EvictionPolicy::Lru).expect("valid")
    }

    #[test]
    fn cold_misses_use_free_slots_in_order() {
        let mut m = mgr(4, WindowConfig::SEQUENTIAL);
        let plan = m.plan(&[10, 20], &[]).unwrap();
        assert_eq!(plan.misses, 2);
        assert_eq!(plan.hits, 0);
        assert!(plan.evictions.is_empty());
        assert_eq!(
            plan.fills,
            vec![Fill { row: 10, slot: 0 }, Fill { row: 20, slot: 1 }]
        );
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn repeat_access_hits() {
        let mut m = mgr(4, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[10, 20], &[]).unwrap();
        let plan = m.plan(&[10, 30], &[]).unwrap();
        assert_eq!(plan.hits, 1);
        assert_eq!(plan.misses, 1);
        assert_eq!(plan.slot_of(10), Some(0));
        assert!((m.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn figure11_second_cycle_scenario() {
        // Paper Figure 11(b): after batch 1 planned {7089, 2021}, the
        // second batch of IDs 3010/7089 must see miss/hit even though no
        // data has reached the Storage array yet — the Hit-Map is
        // deliberately ahead of Storage by the pipeline depth.
        let mut m = mgr(8, WindowConfig::PAPER);
        let first = m.plan(&[2021, 7089], &[]).unwrap();
        let second = m.plan(&[3010, 7089], &[]).unwrap();
        assert_eq!((second.hits, second.misses), (1, 1));
        assert_eq!(second.slot_of(7089), first.slot_of(7089));
        assert_eq!(second.fills.len(), 1);
        assert_eq!(second.fills[0].row, 3010);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn mapping_a_row_twice_is_rejected() {
        let mut m = mgr(4, WindowConfig::PAPER);
        m.prewarm(&[5, 5]);
    }

    #[test]
    fn unique_layout_aligned_with_input_order() {
        let mut m = mgr(4, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[10, 20], &[]).unwrap();
        let plan = m.plan(&[10, 20, 30], &[]).unwrap();
        assert_eq!(plan.unique_ids, vec![10, 20, 30]);
        assert_eq!(plan.unique_slots.len(), 3);
        for (k, (id, slot)) in plan.assignments().enumerate() {
            assert_eq!(id, plan.unique_ids[k]);
            assert_eq!(slot, plan.unique_slots[k]);
            assert_eq!(m.lookup(id), Some(slot));
        }
        assert_eq!(plan.num_unique(), 3);
        assert_eq!(plan.slot_of(99), None);
        assert!(plan.lookup_unique.is_empty(), "filled by stages layer");
    }

    #[test]
    fn eviction_after_protection_expires() {
        // Sequential window: slots free one plan after use.
        let mut m = mgr(2, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[1, 2], &[]).unwrap();
        let plan = m.plan(&[3], &[]).unwrap();
        // Slot 0 (row 1, LRU-oldest) is evicted.
        assert_eq!(plan.evictions, vec![Evict { row: 1, slot: 0 }]);
        assert_eq!(plan.fills, vec![Fill { row: 3, slot: 0 }]);
        assert_eq!(m.lookup(1), None);
        assert_eq!(m.lookup(3), Some(0));
        assert_eq!(m.lookup(2), Some(1));
    }

    #[test]
    fn paper_window_protects_past_three_batches() {
        // With the paper window, rows planned in the last 3 batches must
        // never be evicted.
        let mut m = mgr(4, WindowConfig::PAPER);
        let _ = m.plan(&[1], &[]).unwrap(); // batch 0 → slot 0
        let _ = m.plan(&[2], &[]).unwrap(); // batch 1 → slot 1
        let _ = m.plan(&[3], &[]).unwrap(); // batch 2 → slot 2
        let _ = m.plan(&[4], &[]).unwrap(); // batch 3 → slot 3
                                            // Batch 4: all four slots belong to batches 1..4's window? Batch 0's
                                            // slot (row 1) expired: protection lasted through plan cycle 1+3=4,
                                            // so at cycle 5 it is evictable.
        let plan = m.plan(&[5], &[]).unwrap();
        assert_eq!(plan.evictions, vec![Evict { row: 1, slot: 0 }]);
    }

    #[test]
    fn capacity_exhausted_when_window_holds_everything() {
        let mut m = mgr(2, WindowConfig::PAPER);
        let _ = m.plan(&[1, 2], &[]).unwrap();
        // Batch 1 needs two new slots but slots 0, 1 are held (past window).
        let err = m.plan(&[3, 4], &[]).unwrap_err();
        assert!(matches!(err, ScratchError::CapacityExhausted { .. }));
    }

    #[test]
    fn capacity_error_leaves_the_manager_consistent_and_usable() {
        let mut m = mgr(3, WindowConfig::PAPER);
        let _ = m.plan(&[1, 2], &[]).unwrap();
        // Row 1 hits, row 3 takes the last free slot, row 4 finds nothing:
        // slots 0, 1 are held by the past window.
        let mut out = TablePlan::default();
        let err = m.plan_into(&[1, 3, 4, 5], &[], &mut out).unwrap_err();
        assert!(matches!(
            err,
            ScratchError::CapacityExhausted {
                cycle: 2,
                slots: 3,
                ..
            }
        ));
        // The part planned before the failure is booked, once: 2 + 2
        // misses (the failing probe of row 4 included) and the one hit;
        // row 5 was never reached.
        assert_eq!((out.hits, out.misses), (1, 2));
        assert_eq!(out.fills, vec![Fill { row: 3, slot: 2 }]);
        let stats = m.stats();
        assert_eq!((stats.hits, stats.misses), (1, 4));
        assert!(
            m.probe.capacity() >= 4,
            "the reusable probe buffer must survive the error"
        );
        assert_eq!(m.lookup(3), Some(2));
        assert_eq!(m.lookup(4), None);

        // The manager keeps working: once the window has moved on, the
        // same rows plan fine and the books still balance.
        for _ in 0..4 {
            let _ = m.plan(&[], &[]).unwrap();
        }
        let plan = m.plan(&[4, 5], &[]).unwrap();
        assert_eq!(plan.misses, 2);
        assert_eq!(plan.evictions.len(), 2);
        let stats = m.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 6, 2));
        for (row, slot) in m.residents() {
            assert_eq!(m.slot_row(slot), Some(row));
        }
    }

    #[test]
    fn plan_into_overwrites_a_recycled_plan() {
        let batches: Vec<Vec<u64>> = (0..12u64)
            .map(|i| (0..6).map(|k| (i * 7 + k * 5) % 40).collect::<Vec<_>>())
            .map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let mut fresh = mgr(40, WindowConfig::PAPER);
        let mut reused = mgr(40, WindowConfig::PAPER);
        let mut out = TablePlan::default();
        for (i, b) in batches.iter().enumerate() {
            let f1 = batches.get(i + 1).map_or(&[][..], Vec::as_slice);
            let f2 = batches.get(i + 2).map_or(&[][..], Vec::as_slice);
            let want = fresh.plan(b, &[f1, f2]).unwrap();
            // Leftovers of the previous batch, plus a stale lookup index
            // and transpose.
            out.lookup_unique.push(99);
            out.unique_offsets.push(99);
            out.unique_samples.push(99);
            reused.plan_into(b, &[f1, f2], &mut out).unwrap();
            assert_eq!(out.unique_ids, want.unique_ids);
            assert_eq!(out.unique_slots, want.unique_slots);
            assert_eq!(out.fills, want.fills);
            assert_eq!(out.evictions, want.evictions);
            assert_eq!((out.hits, out.misses), (want.hits, want.misses));
            assert!(out.lookup_unique.is_empty());
            assert!(out.unique_offsets.is_empty() && out.unique_samples.is_empty());
        }
        assert_eq!(fresh.stats(), reused.stats());
    }

    #[test]
    fn a_slot_is_queued_once_per_horizon_not_once_per_protection() {
        let mut m = mgr(8, WindowConfig::PAPER);
        let queued = |m: &ScratchpadManager, slot: u32| {
            m.expiry.iter().flatten().filter(|&&s| s == slot).count()
        };
        // Row 7 is planned, then seen by the look-ahead at k=2 and k=1,
        // then planned again: four protections, but the last three all
        // reach the horizon the k=2 registration set.
        let _ = m.plan(&[7], &[]).unwrap();
        let slot = m.lookup(7).unwrap();
        assert_eq!(queued(&m, slot), 1);
        let _ = m.plan(&[1], &[&[], &[7]]).unwrap();
        assert_eq!(queued(&m, slot), 2, "k=2 moved the horizon");
        let _ = m.plan(&[2], &[&[7], &[]]).unwrap();
        assert_eq!(queued(&m, slot), 2, "k=1 reaches the same cycle");
        let plan = m.plan(&[7], &[]).unwrap();
        assert_eq!(plan.hits, 1);
        assert_eq!(queued(&m, slot), 2, "so does the current batch");
        // The stale first entry drains without effect; the live one frees
        // the slot exactly when the window says so (cycle 4 + past 3 + 1).
        for cycle in 5..8 {
            let _ = m.plan(&[], &[]).unwrap();
            assert!(!m.pool.contains(slot), "held at cycle {cycle}");
        }
        let _ = m.plan(&[], &[]).unwrap();
        assert!(m.pool.contains(slot));
        assert_eq!(queued(&m, slot), 0);
    }

    #[test]
    fn future_registration_blocks_eviction() {
        let mut m = mgr(2, WindowConfig { past: 0, future: 2 });
        let _ = m.plan(&[1, 2], &[]).unwrap();
        // Next plan: the batch after next (future slot k=2) needs row 1.
        // Without registration, row 1 (slot 0) would be the LRU victim;
        // registration runs *before* victim selection, so eviction must
        // fall on row 2 instead.
        let future1: &[u64] = &[];
        let future2: &[u64] = &[1];
        let plan = m.plan(&[3], &[future1, future2]).unwrap();
        assert_eq!(plan.evictions, vec![Evict { row: 2, slot: 1 }]);
        assert_eq!(m.lookup(1), Some(0), "future-registered row survives");
        assert_eq!(m.lookup(3), Some(1));
    }

    #[test]
    fn same_batch_ids_never_evict_each_other() {
        // Algorithm 1: ids processed earlier in the batch set their hold
        // bit immediately, so later misses cannot victimize them.
        let mut m = mgr(2, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[1, 2], &[]).unwrap();
        let plan = m.plan(&[3, 4], &[]).unwrap();
        // Both old rows evicted, but 3 and 4 end up in distinct slots.
        assert_eq!(plan.evictions.len(), 2);
        let s3 = m.lookup(3).unwrap();
        let s4 = m.lookup(4).unwrap();
        assert_ne!(s3, s4);
    }

    #[test]
    fn lru_policy_picks_oldest_evictable() {
        let mut m = mgr(3, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[1], &[]).unwrap();
        let _ = m.plan(&[2], &[]).unwrap();
        let _ = m.plan(&[3], &[]).unwrap();
        let plan = m.plan(&[4], &[]).unwrap();
        assert_eq!(plan.evictions[0].row, 1, "LRU evicts the oldest");
        // Touch row 2, then insert: row 3 becomes oldest untouched.
        let _ = m.plan(&[2], &[]).unwrap();
        let plan = m.plan(&[5], &[]).unwrap();
        assert_eq!(plan.evictions[0].row, 3);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mgr(2, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[1, 2], &[]).unwrap();
        let _ = m.plan(&[1, 3], &[]).unwrap();
        let s = m.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert!(s.peak_held >= 2);
    }

    #[test]
    fn residents_sorted_by_row() {
        let mut m = mgr(4, WindowConfig::SEQUENTIAL);
        let _ = m.plan(&[30, 10, 20], &[]).unwrap();
        let rows: Vec<u64> = m.residents().iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, vec![10, 20, 30]);
    }

    #[test]
    fn zero_slots_rejected() {
        assert!(ScratchpadManager::new(0, WindowConfig::PAPER, EvictionPolicy::Lru).is_err());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn slot_counts_beyond_u32_are_rejected_before_allocating() {
        // 2^32 slots of metadata would be > 100 GiB: reaching an
        // allocation aborts the test process rather than failing it.
        let err = ScratchpadManager::new(
            u32::MAX as usize + 1,
            WindowConfig::PAPER,
            EvictionPolicy::Lru,
        )
        .unwrap_err();
        assert!(
            matches!(&err, ScratchError::InvalidConfig { detail } if detail.contains("u32")),
            "{err:?}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            // 24 slots ≥ the worst-case window working set (6 batches × 3
            // unique ids), per the §VI-D provisioning rule; 31 distinct
            // rows ensure steady eviction churn.
            let mut m = mgr(24, WindowConfig::PAPER);
            let mut log = Vec::new();
            let batches: Vec<Vec<u64>> = (0..20u64)
                .map(|i| vec![i % 31, (i * 5) % 31, (i * 11) % 31])
                .map(|mut v| {
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            for (i, b) in batches.iter().enumerate() {
                let f1 = batches.get(i + 1).map(|v| v.as_slice()).unwrap_or(&[]);
                let f2 = batches.get(i + 2).map(|v| v.as_slice()).unwrap_or(&[]);
                let plan = m.plan(b, &[f1, f2]).unwrap();
                log.push((plan.fills.clone(), plan.evictions.clone()));
            }
            log
        };
        assert_eq!(run(), run());
    }

    proptest::proptest! {
        /// Invariant: after any plan sequence, the Hit-Map and slot_row are
        /// mutually consistent and every current-batch ID is mapped.
        #[test]
        fn hitmap_and_slots_stay_consistent(
            batches in proptest::collection::vec(
                proptest::collection::btree_set(0u64..50, 1..6), 1..30)
        ) {
            let mut m = mgr(32, WindowConfig::PAPER);
            let batches: Vec<Vec<u64>> =
                batches.into_iter().map(|s| s.into_iter().collect()).collect();
            for (i, b) in batches.iter().enumerate() {
                let f1 = batches.get(i + 1).map(|v| v.as_slice()).unwrap_or(&[]);
                let f2 = batches.get(i + 2).map(|v| v.as_slice()).unwrap_or(&[]);
                let plan = m.plan(b, &[f1, f2]).unwrap();
                // Every batch id has an assignment.
                for id in b {
                    let slot = plan.slot_of(*id).expect("planned id has a slot");
                    proptest::prop_assert_eq!(m.lookup(*id), Some(slot));
                    proptest::prop_assert_eq!(m.slot_row(slot), Some(*id));
                }
                // fills + hits == unique ids
                proptest::prop_assert_eq!(
                    plan.fills.len() as u64 + plan.hits, b.len() as u64);
            }
            // Global consistency: hit_map ↔ slot_row bijection.
            for (row, slot) in m.residents() {
                proptest::prop_assert_eq!(m.slot_row(slot), Some(row));
            }
        }
    }
}
