//! Sparse feature batches in CSR layout.
//!
//! A mini-batch carries, for every embedding table, a *bag* of sparse row
//! IDs per sample: sample `s` of table `t` gathers `L` rows which are later
//! sum-pooled into one vector (paper Figure 2(a)). The CSR layout
//! (`ids` + `offsets`) mirrors PyTorch's `EmbeddingBag` and allows a
//! variable number of lookups per sample.

use serde::Serialize;

/// The sparse row IDs one mini-batch contributes to a single table.
///
/// `offsets` has `batch_size + 1` entries; sample `s` owns
/// `ids[offsets[s] .. offsets[s + 1]]`. IDs may repeat both within a sample
/// and across samples — duplicate handling is exactly the gradient
/// duplicate/coalesce problem of the paper's Figure 2(b).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TableBag {
    ids: Vec<u64>,
    offsets: Vec<u32>,
}

impl TableBag {
    /// Builds a bag from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, not monotonically non-decreasing, or
    /// does not end at `ids.len()`.
    pub fn new(ids: Vec<u64>, offsets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            ids.len(),
            "offsets must end at ids.len()"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        TableBag { ids, offsets }
    }

    /// Builds a bag from per-sample ID lists.
    pub fn from_samples(samples: &[Vec<u64>]) -> Self {
        let mut ids = Vec::with_capacity(samples.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(samples.len() + 1);
        offsets.push(0u32);
        for s in samples {
            ids.extend_from_slice(s);
            offsets.push(ids.len() as u32);
        }
        TableBag { ids, offsets }
    }

    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of lookups (gathered rows) across all samples.
    pub fn total_lookups(&self) -> usize {
        self.ids.len()
    }

    /// The flat ID array.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The CSR offsets array (length `batch_size + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The IDs gathered by sample `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= batch_size()`.
    pub fn sample(&self, s: usize) -> &[u64] {
        let lo = self.offsets[s] as usize;
        let hi = self.offsets[s + 1] as usize;
        &self.ids[lo..hi]
    }

    /// Iterates over per-sample ID slices.
    pub fn samples(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.batch_size()).map(move |s| self.sample(s))
    }

    /// The sorted, deduplicated set of IDs this bag touches.
    pub fn unique_ids(&self) -> Vec<u64> {
        let mut v = Vec::new();
        self.unique_ids_into(&mut v, &mut Vec::new());
        v
    }

    /// [`TableBag::unique_ids`] into a caller-owned buffer, which is
    /// overwritten and keeps its allocation — the form a sliding window
    /// over a trace recycles its buffers through. `scratch` is
    /// [`sort_ids`]'s; with room for `total_lookups()` IDs in `out` and
    /// [`sort_scratch_len`]`(total_lookups())` in `scratch` the call is
    /// allocation-free.
    ///
    /// Returns the hottest row's lookup count: the longest run of equal
    /// IDs the dedup scan passes over (0 for an empty bag). Counting it
    /// costs the scan one `max` per run, so the one sort serves both the
    /// unique set and the scatter-contention term of the analytic systems.
    pub fn unique_ids_into(&self, out: &mut Vec<u64>, scratch: &mut Vec<u64>) -> u64 {
        out.clear();
        out.extend_from_slice(&self.ids);
        sort_ids(out, scratch);
        let n = out.len();
        if n == 0 {
            return 0;
        }
        // In-place dedup: writes land at `unique <= k`, so `out[k - 1]` is
        // still the sorted input (or was overwritten with itself).
        let (mut unique, mut run_start, mut hottest) = (1, 0, 0);
        for k in 1..n {
            if out[k] != out[k - 1] {
                hottest = hottest.max(k - run_start);
                run_start = k;
                out[unique] = out[k];
                unique += 1;
            }
        }
        out.truncate(unique);
        hottest.max(n - run_start) as u64
    }

    /// Largest row ID referenced, or `None` for an empty bag.
    pub fn max_id(&self) -> Option<u64> {
        self.ids.iter().copied().max()
    }
}

/// One mini-batch of sparse inputs: a [`TableBag`] per embedding table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SparseBatch {
    bags: Vec<TableBag>,
    batch_size: usize,
}

impl SparseBatch {
    /// Builds a batch from per-table bags.
    ///
    /// # Panics
    ///
    /// Panics if `bags` is empty or the bags disagree on batch size.
    pub fn new(bags: Vec<TableBag>) -> Self {
        assert!(!bags.is_empty(), "batch must cover at least one table");
        let batch_size = bags[0].batch_size();
        assert!(
            bags.iter().all(|b| b.batch_size() == batch_size),
            "all tables must share one batch size"
        );
        SparseBatch { bags, batch_size }
    }

    /// Builds a batch from `rows[sample][table] = ids` nested lists —
    /// convenient for tests and doc examples.
    ///
    /// # Panics
    ///
    /// Panics if any sample does not provide IDs for every table.
    pub fn from_rows(num_tables: usize, rows: &[Vec<Vec<u64>>]) -> Self {
        let mut per_table: Vec<Vec<Vec<u64>>> = vec![Vec::with_capacity(rows.len()); num_tables];
        for sample in rows {
            assert_eq!(sample.len(), num_tables, "sample must cover every table");
            for (t, ids) in sample.iter().enumerate() {
                per_table[t].push(ids.clone());
            }
        }
        SparseBatch::new(
            per_table
                .iter()
                .map(|s| TableBag::from_samples(s))
                .collect(),
        )
    }

    /// Number of embedding tables this batch feeds.
    pub fn num_tables(&self) -> usize {
        self.bags.len()
    }

    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The bag for table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_tables()`.
    pub fn bag(&self, t: usize) -> &TableBag {
        &self.bags[t]
    }

    /// Iterates over `(table_index, bag)` pairs.
    pub fn bags(&self) -> impl Iterator<Item = (usize, &TableBag)> + '_ {
        self.bags.iter().enumerate()
    }

    /// Total lookups across every table.
    pub fn total_lookups(&self) -> usize {
        self.bags.iter().map(TableBag::total_lookups).sum()
    }
}

/// Widest digit [`sort_ids`] sorts on per pass: 4 096 buckets, whose
/// counts (32 KiB) stay in L1.
const MAX_DIGIT_BITS: u32 = 12;

/// Narrowest digit cap, so a few-ID sort does not take one pass per bit
/// or two of its keys.
const MIN_DIGIT_BITS: u32 = 4;

/// The widest digit a sort of `n` IDs may use: ⌈log₂ n⌉ bits (so clearing
/// and prefix-summing a pass's counts costs about as much as scattering
/// its IDs), clamped to `MIN_DIGIT_BITS..=MAX_DIGIT_BITS`.
fn digit_cap(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).clamp(MIN_DIGIT_BITS, MAX_DIGIT_BITS)
}

/// The most `scratch` a [`sort_ids`] of `n` IDs uses: the buffer the
/// passes alternate into plus one pass's bucket counts. Reserving it
/// before the call makes the sort allocation-free.
pub fn sort_scratch_len(n: usize) -> usize {
    n + (1 << digit_cap(n))
}

/// Sorts row IDs ascending, in linear time: the one sort every row-ID
/// sort of the workspace goes through (bag dedup, the prewarm duplicate
/// check, the victim-safety check). The result is exactly
/// `ids.sort_unstable()`'s — equal `u64`s are indistinguishable.
///
/// An LSD radix sort that covers only the bits the largest key uses, in
/// the fewest passes whose digits are at most ⌈log₂ n⌉ (at least 4, at
/// most 12) bits wide, the key bits split evenly across them: a 4-ID bag
/// sorts on 16 buckets a pass, a 40 960-ID bag of 24-bit row IDs in two
/// passes of 4 096. A pass on which every key has the same digit moves
/// nothing. Passes alternate between `ids` and `scratch` (resized to at
/// most [`sort_scratch_len`]`(ids.len())`, which also holds the counts);
/// after an odd number of moving passes the result is copied back.
pub fn sort_ids(ids: &mut [u64], scratch: &mut Vec<u64>) {
    let n = ids.len();
    let key_bits = u64::BITS - ids.iter().fold(0, |acc, &id| acc | id).leading_zeros();
    let passes = key_bits.div_ceil(digit_cap(n));
    if passes == 0 {
        return; // no IDs, or every one is 0
    }
    let digit = key_bits.div_ceil(passes);
    // Whatever `scratch` held is overwritten before it is read: only its
    // growth is filled.
    scratch.resize(n + (1 << digit), 0);
    let (buf, counts) = scratch.split_at_mut(n);
    let mut in_buf = false;
    for pass in 0..passes {
        let shift = pass * digit;
        let counts = &mut counts[..1 << digit.min(key_bits - shift)];
        in_buf ^= if in_buf {
            radix_pass(buf, ids, counts, shift)
        } else {
            radix_pass(ids, buf, counts, shift)
        };
    }
    if in_buf {
        ids.copy_from_slice(buf);
    }
}

/// One stable counting pass of [`sort_ids`] on the `counts.len()`-bucket
/// digit at `shift`: scatters `src` into `dst` in digit order, or leaves
/// both alone and returns false when every key has the same digit.
fn radix_pass(src: &[u64], dst: &mut [u64], counts: &mut [u64], shift: u32) -> bool {
    let mask = counts.len() as u64 - 1;
    let bucket = |id: u64| ((id >> shift) & mask) as usize;
    counts.fill(0);
    for &id in src {
        counts[bucket(id)] += 1;
    }
    if counts[bucket(src[0])] == src.len() as u64 {
        return false;
    }
    let mut start = 0;
    for count in counts.iter_mut() {
        let here = *count;
        *count = start;
        start += here;
    }
    for &id in src {
        let b = bucket(id);
        dst[counts[b] as usize] = id;
        counts[b] += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bag() -> TableBag {
        TableBag::from_samples(&[vec![0, 4], vec![0, 2, 5]])
    }

    #[test]
    fn csr_shape_matches_figure2_example() {
        // Paper Figure 2: batch of 2, gathering {0,4} and {0,2,5}.
        let b = bag();
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.total_lookups(), 5);
        assert_eq!(b.sample(0), &[0, 4]);
        assert_eq!(b.sample(1), &[0, 2, 5]);
        assert_eq!(b.offsets(), &[0, 2, 5]);
    }

    #[test]
    fn unique_ids_are_sorted_and_deduped() {
        let b = bag();
        assert_eq!(b.unique_ids(), vec![0, 2, 4, 5]);
        let mut recycled = vec![9, 9, 9];
        let hottest = b.unique_ids_into(&mut recycled, &mut vec![7; 2]);
        assert_eq!(recycled, b.unique_ids());
        assert_eq!(hottest, 2, "row 0 is looked up twice");
        assert_eq!(b.max_id(), Some(5));
    }

    /// The sort-and-scan `max_dup_count` that `unique_ids_into`'s count
    /// replaced: the reference it is checked against.
    fn longest_equal_run(ids: &[u64]) -> u64 {
        let mut ids = ids.to_vec();
        if ids.is_empty() {
            return 0;
        }
        ids.sort_unstable();
        let (mut max, mut run) = (1u64, 1u64);
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                run += 1;
                max = max.max(run);
            } else {
                run = 1;
            }
        }
        max
    }

    /// Keys of every width: arbitrary `u64`s (0 and `u64::MAX`
    /// included), few bits, one shared high prefix, all equal.
    fn arb_ids() -> impl Strategy<Value = Vec<u64>> {
        // Every digit cap as often as the widest: lengths spread evenly
        // over the powers of two up to 2¹² ≥ 3 000.
        let len = (0u32..13, 0u32..4_096).prop_map(|(e, r)| (r % (1 << e)).min(3_000) as usize);
        let keys = |(n, seed): (usize, u64), key: fn(u64) -> u64| {
            let mut x = seed;
            (0..n)
                .map(|k| {
                    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k as u64) ^ x >> 29;
                    key(x)
                })
                .collect::<Vec<u64>>()
        };
        let kind = prop_oneof![
            Just(
                (|x| match x % 16 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => x >> (x % 64),
                }) as fn(u64) -> u64
            ),
            Just((|x| x % 1_000) as fn(u64) -> u64),
            Just((|x| (1 << 40) + x % 300) as fn(u64) -> u64),
            Just((|x| [0, u64::MAX][(x >> 63) as usize]) as fn(u64) -> u64),
        ];
        ((len, 0u64..u64::MAX), kind, 0u64..u64::MAX).prop_map(move |(shape, key, equal)| {
            // One draw in eight: every key the same.
            if equal % 8 == 0 {
                vec![key(equal); shape.0]
            } else {
                keys(shape, key)
            }
        })
    }

    proptest! {
        /// `sort_ids` equals `sort_unstable` at every length 0..=3 000 —
        /// so every digit width 4..=12 bits — and every key width, 1 to
        /// 16 passes; `unique_ids_into` returns the sorted-and-deduped
        /// IDs and the old sort-and-scan count.
        #[test]
        fn sort_ids_matches_sort_unstable(ids in arb_ids(), stale in 0usize..5_000) {
            let mut want = ids.clone();
            want.sort_unstable();
            let mut got = ids.clone();
            // Stale contents do not matter, and the reserved length is
            // all the sort needs.
            let reserved = sort_scratch_len(ids.len());
            let mut scratch = Vec::with_capacity(reserved);
            scratch.resize(stale.min(reserved), u64::MAX);
            sort_ids(&mut got, &mut scratch);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(scratch.capacity(), reserved);

            let bag = TableBag::new(ids.clone(), vec![0, ids.len() as u32]);
            let mut out = vec![1, 2, 3];
            let hottest = bag.unique_ids_into(&mut out, &mut scratch);
            want.dedup();
            prop_assert_eq!(out, want);
            prop_assert_eq!(hottest, longest_equal_run(&ids));
        }
    }

    #[test]
    fn digit_widths_follow_the_bag_size() {
        let caps: Vec<u32> = [0, 1, 2, 4, 16, 17, 64, 2_048, 2_049, 4_096, 40_960]
            .map(digit_cap)
            .to_vec();
        assert_eq!(caps, [4, 4, 4, 4, 4, 5, 6, 11, 12, 12, 12]);
        assert_eq!(
            sort_scratch_len(4),
            4 + 16,
            "a 4-ID bag sorts on 16 buckets"
        );
        assert_eq!(sort_scratch_len(40_960), 40_960 + 4_096);
    }

    #[test]
    fn empty_bag_is_well_behaved() {
        let b = TableBag::from_samples(&[vec![], vec![]]);
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.total_lookups(), 0);
        assert_eq!(b.max_id(), None);
        assert!(b.unique_ids().is_empty());
    }

    #[test]
    fn samples_iterator_covers_batch() {
        let b = bag();
        let collected: Vec<&[u64]> = b.samples().collect();
        assert_eq!(collected, vec![&[0u64, 4][..], &[0u64, 2, 5][..]]);
    }

    #[test]
    #[should_panic(expected = "offsets must end at ids.len()")]
    fn bad_offsets_rejected() {
        let _ = TableBag::new(vec![1, 2, 3], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_offsets_rejected() {
        let _ = TableBag::new(vec![1, 2, 3], vec![0, 2, 1, 3]);
    }

    #[test]
    fn batch_from_rows_transposes_correctly() {
        let batch = SparseBatch::from_rows(
            2,
            &[vec![vec![1, 2], vec![10]], vec![vec![3], vec![11, 12]]],
        );
        assert_eq!(batch.num_tables(), 2);
        assert_eq!(batch.batch_size(), 2);
        assert_eq!(batch.bag(0).sample(0), &[1, 2]);
        assert_eq!(batch.bag(0).sample(1), &[3]);
        assert_eq!(batch.bag(1).sample(0), &[10]);
        assert_eq!(batch.bag(1).sample(1), &[11, 12]);
        assert_eq!(batch.total_lookups(), 6);
    }

    #[test]
    #[should_panic(expected = "share one batch size")]
    fn mismatched_batch_sizes_rejected() {
        let _ = SparseBatch::new(vec![
            TableBag::from_samples(&[vec![1]]),
            TableBag::from_samples(&[vec![1], vec![2]]),
        ]);
    }
}
