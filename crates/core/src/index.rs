//! A purpose-built open-addressing `u64 → u32` index for the hot path.
//!
//! The Plan stage probes the Hit-Map three times per unique ID — when the
//! ID's mini-batch is two plans ahead, one ahead, and current (the later
//! two are second touches of warm lines: 19–27 ns each against 21–33 for
//! the first, docs/perf.md "Plan by table") — and on a 1-CPU host every
//! probe is on the critical path. A std
//! `HashMap` pays SipHash per probe plus bucket-control indirection; this
//! index replaces it with the cheapest structure that is still correct
//! for the workload:
//!
//! * **power-of-two capacity** — the bucket for a hash is a single mask,
//!   no integer division;
//! * **multiply-xor hash** (FxHash-style) — one `wrapping_mul` by a
//!   64-bit odd constant plus one xor-shift, fine for feature IDs which
//!   are already well-spread and never adversarial;
//! * **linear probing** — probe sequences are contiguous cache lines;
//! * **backward-shift deletion** — removal re-compacts the probe chain
//!   instead of leaving tombstones, so long-lived maps (the Hit-Map lives
//!   for a whole run and churns every batch) never degrade.
//!
//! Keys and values live in two parallel flat arrays; an empty bucket is
//! marked by the value sentinel `EMPTY`, so lookups touch exactly one
//! `u64` lane and one `u32` lane. Values must therefore be below
//! `u32::MAX`, which holds by construction for scratchpad slot indices.
//!
//! At paper scale the index does not fit the core's caches, and each
//! probe waits on its own bucket's lines. \[Plan\] knows the keys it will
//! probe, insert and remove next, so it calls `SlotIndex::prefetch` a few
//! keys ahead: that starts loading the key's home bucket (its value line
//! and its key line) and returns at once. The hint itself is this
//! module's `prefetch` helper, the workspace's second `unsafe` block (a
//! prefetch never faults, whatever the address; the first is the worker
//! pool's hand-off). The \[Plan\] passes that use it are described in
//! [`crate::scratchpad`].
//!
//! A proptest at the bottom pins the behaviour (including the
//! backward-shift path) against a `std::collections::HashMap` reference
//! model.

/// Value sentinel marking an empty bucket. [`SlotIndex::insert`] rejects it.
const EMPTY: u32 = u32::MAX;

/// Fibonacci-style odd multiplier (2^64 / φ), the classic multiply-hash
/// constant: one multiply spreads low-entropy keys across the high bits,
/// the xor-shift folds them back down for the mask.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum non-zero capacity (power of two).
const MIN_CAP: usize = 8;

/// Open-addressing `u64 → u32` map: power-of-two capacity, multiply-xor
/// hash, linear probing, tombstone-free backward-shift removal.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    /// Keys, valid only where `vals[i] != EMPTY`.
    keys: Vec<u64>,
    /// Values; `EMPTY` marks a vacant bucket.
    vals: Vec<u32>,
    /// Occupied bucket count.
    len: usize,
}

impl SlotIndex {
    /// Creates an empty index (allocates nothing until first insert).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates an index pre-sized so `n` entries fit without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        if n > 0 {
            s.rehash(Self::cap_for(n));
        }
        s
    }

    /// Smallest power-of-two table size keeping `n` entries at or below
    /// the 3/4 load-factor ceiling. Linear probing degrades sharply past
    /// ~3/4 occupancy (miss chains grow as 1/(1−α)²), and the 12 bytes
    /// per bucket make headroom cheap.
    fn cap_for(n: usize) -> usize {
        let needed = n + n.div_ceil(3) + 1; // n <= cap*3/4  ⇔  cap >= ceil(4n/3)
        needed.next_power_of_two().max(MIN_CAP)
    }

    #[inline]
    fn mask(&self) -> usize {
        self.vals.len() - 1
    }

    /// Home bucket for `key` in a table of the current capacity.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let h = key.wrapping_mul(HASH_MUL);
        ((h ^ (h >> 32)) as usize) & self.mask()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Starts loading `key`'s home bucket, its value line and its key
    /// line, into the cache without waiting for it: a later
    /// [`SlotIndex::get`], `insert` or `remove` of `key` then finds the
    /// lines there (see [`prefetch`]).
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        if self.vals.is_empty() {
            return;
        }
        let i = self.home(key);
        prefetch(&self.vals[i]);
        prefetch(&self.keys[i]);
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts or replaces the mapping for `key`, returning the previous
    /// value if one existed.
    ///
    /// # Panics
    ///
    /// Panics if `val == u32::MAX` (reserved as the empty sentinel).
    pub fn insert(&mut self, key: u64, val: u32) -> Option<u32> {
        assert!(val != EMPTY, "u32::MAX is reserved as the empty sentinel");
        if self.vals.is_empty() || (self.len + 1) * 4 > self.vals.len() * 3 {
            let target = Self::cap_for(self.len + 1).max(self.vals.len() * 2);
            self.rehash(target);
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return Some(v);
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes the mapping for `key`, returning its value. The probe
    /// chain is re-compacted by backward shifting, so no tombstones are
    /// ever left behind.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        let removed = loop {
            let v = self.vals[i];
            if v == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                break v;
            }
            i = (i + 1) & mask;
        };
        // Backward-shift: walk the chain after the hole; any entry whose
        // home bucket lies cyclically outside (i, j] can legally move back
        // into the hole, re-opening the hole at its old position.
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.vals[j] == EMPTY {
                break;
            }
            let h = self.home(self.keys[j]);
            // `h` cyclically in (i, j] means the entry is already as close
            // to home as the hole allows — skip it.
            let in_gap = if i <= j {
                i < h && h <= j
            } else {
                i < h || h <= j
            };
            if !in_gap {
                self.keys[i] = self.keys[j];
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.vals[i] = EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(_, &v)| v != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    /// Grows (or initialises) the table to `new_cap` buckets and
    /// reinserts every live entry.
    fn rehash(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        debug_assert!(self.len * 8 <= new_cap * 7);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![EMPTY; new_cap]);
        let mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v == EMPTY {
                continue;
            }
            let mut i = self.home(k);
            while self.vals[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

/// Asks the CPU to start loading the cache line holding `item` and to
/// go on without waiting for it (x86-64 `prefetcht0`; nothing elsewhere).
///
/// \[Plan\] holds the lists it is about to walk, so it can name the lines
/// a step will touch a few steps before it gets there; with the index
/// out of cache, that turns a chain of dependent misses into overlapping
/// ones.
#[inline]
pub(crate) fn prefetch<T>(item: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let line = (item as *const T).cast::<i8>();
        // SAFETY: a prefetch is a hint: it never faults and loads nothing
        // into the program, for any address (this one is a live
        // reference's). It changes no memory and no program state, only
        // what the cache holds.
        #[allow(unsafe_code)]
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(line);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = item;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SlotIndex::new();
        assert!(m.is_empty());
        assert_eq!(m.get(42), None);
        assert_eq!(m.insert(42, 7), None);
        assert_eq!(m.get(42), Some(7));
        assert_eq!(m.insert(42, 9), Some(7));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(42), Some(9));
        assert_eq!(m.remove(42), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = SlotIndex::with_capacity(4);
        for k in 0..10_000u64 {
            m.insert(k, (k % 1000) as u32);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some((k % 1000) as u32), "key {k}");
        }
        assert_eq!(m.get(10_000), None);
    }

    #[test]
    fn colliding_chain_survives_middle_removal() {
        // Force one probe chain by saturating a tiny table region: keys
        // chosen so several share a home bucket after masking, then delete
        // from the middle of the chain and verify the tail is still
        // reachable (the backward-shift must re-compact it).
        let mut m = SlotIndex::with_capacity(6);
        let cap = m.vals.len();
        let mut chain = Vec::new();
        let mut k = 0u64;
        while chain.len() < 4 {
            if m.home(k) == m.home(chain.first().copied().unwrap_or(k)) {
                chain.push(k);
            }
            k += 1;
            assert!(k < 1_000_000, "no colliding keys found for cap {cap}");
        }
        for (i, &key) in chain.iter().enumerate() {
            m.insert(key, i as u32);
        }
        assert_eq!(m.remove(chain[1]), Some(1));
        assert_eq!(m.get(chain[0]), Some(0));
        assert_eq!(m.get(chain[2]), Some(2));
        assert_eq!(m.get(chain[3]), Some(3));
        assert_eq!(m.get(chain[1]), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_value_rejected() {
        SlotIndex::new().insert(1, u32::MAX);
    }

    #[test]
    fn iter_matches_contents() {
        let mut m = SlotIndex::new();
        for k in [3u64, 1, 4, 1, 5] {
            m.insert(k, (k * 10) as u32);
        }
        let mut pairs: Vec<_> = m.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (4, 40), (5, 50)]);
    }

    /// Ops for the reference-model proptest. Keys are drawn from a small
    /// domain so insert/remove/get interleavings repeatedly hit the same
    /// chains, exercising backward-shift deletion inside live clusters.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..64, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..64).prop_map(Op::Remove),
            (0u64..64).prop_map(Op::Get),
        ]
    }

    proptest! {
        #[test]
        fn matches_hashmap_reference(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut idx = SlotIndex::new();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(idx.insert(k, v), reference.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(idx.remove(k), reference.remove(&k));
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(idx.get(k), reference.get(&k).copied());
                    }
                }
                prop_assert_eq!(idx.len(), reference.len());
            }
            let mut got: Vec<_> = idx.iter().collect();
            got.sort_unstable();
            let mut want: Vec<_> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
