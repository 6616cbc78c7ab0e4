//! Sparse feature batches in CSR layout.
//!
//! A mini-batch carries, for every embedding table, a *bag* of sparse row
//! IDs per sample: sample `s` of table `t` gathers `L` rows which are later
//! sum-pooled into one vector (paper Figure 2(a)). The CSR layout
//! (`ids` + `offsets`) mirrors PyTorch's `EmbeddingBag` and allows a
//! variable number of lookups per sample.

use serde::{Deserialize, Serialize};

/// The sparse row IDs one mini-batch contributes to a single table.
///
/// `offsets` has `batch_size + 1` entries; sample `s` owns
/// `ids[offsets[s] .. offsets[s + 1]]`. IDs may repeat both within a sample
/// and across samples — duplicate handling is exactly the gradient
/// duplicate/coalesce problem of the paper's Figure 2(b).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
        self.unique_ids_into(&mut v);
        v
    }

    /// [`TableBag::unique_ids`] into a caller-owned buffer, which is
    /// overwritten and keeps its allocation — the form a sliding window
    /// over a trace recycles its buffers through.
    pub fn unique_ids_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.ids);
        out.sort_unstable();
        out.dedup();
    }

    /// Largest row ID referenced, or `None` for an empty bag.
    pub fn max_id(&self) -> Option<u64> {
        self.ids.iter().copied().max()
    }
}

/// One mini-batch of sparse inputs: a [`TableBag`] per embedding table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

#[cfg(test)]
mod tests {
    use super::*;

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
        b.unique_ids_into(&mut recycled);
        assert_eq!(recycled, b.unique_ids());
        assert_eq!(b.max_id(), Some(5));
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
