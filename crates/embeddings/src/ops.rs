//! Embedding-layer training kernels (paper §II-B, Figure 2).
//!
//! Forward propagation **gathers** the rows named by a [`TableBag`] and
//! **sum-pools** them per sample; backpropagation **duplicates** each
//! sample's output gradient to every row it gathered, **coalesces**
//! duplicates targeting the same row, and **scatter-updates** the table
//! with SGD.
//!
//! Every kernel runs against the one row store, [`EmbeddingTable`], in
//! one of two forms:
//!
//! * the *mapped* kernels take a `map: id → index` closure — the
//!   identity for a CPU-resident table — and are the reference the
//!   others are tested against;
//! * the *indexed* kernels serve the GPU scratchpad of the `scratchpipe`
//!   crate through a batch's deduplicated lookup index: the forward
//!   gathers through it, and the backward is the same gather-reduce over
//!   its transpose ([`embedding_backward_transposed`]), the tensor
//!   casting of Kwon et al. (arXiv:2010.13100).
//!
//! # Determinism
//!
//! Floating-point addition is not associative, so the *order* of every sum
//! is pinned down: pooling adds rows in bag order, and coalescing groups by
//! row ID with a stable sort (or, indexed, walks a row's samples in the
//! transpose's occurrence order) so duplicates accumulate in occurrence order.
//! Any two systems performing the same logical update therefore produce
//! bit-identical results — the foundation of the reproduction's
//! correctness tests.

use crate::sparse::TableBag;
use crate::table::EmbeddingTable;

/// `acc += row`, elementwise. The length equality assert lets LLVM drop
/// the per-element bounds checks and autovectorize the loop; the
/// accumulation order (left to right within the slice) is unchanged.
#[inline]
fn add_assign_row(acc: &mut [f32], row: &[f32]) {
    assert_eq!(acc.len(), row.len(), "row width mismatch");
    for (a, v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// `y += a * x`, elementwise (the classic axpy). Bit-identical to the
/// open-coded `*y -= lr * g` form when called with `a = -lr`: IEEE-754
/// negation commutes through multiplication and `y - t == y + (-t)`.
#[inline]
fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "row width mismatch");
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// Forward pass for one table, writing into a caller-provided flat
/// `batch_size × dim` slice (the hot-path variant: the pipeline allocates
/// one pooled arena per run and refills it every iteration). The slice is
/// zeroed first, so a sample with zero lookups pools to the zero vector.
///
/// # Panics
///
/// Panics if `out.len() != batch_size × dim` or `map` produces an
/// out-of-bounds index.
pub fn gather_reduce_into<F>(store: &EmbeddingTable, bag: &TableBag, mut map: F, out: &mut [f32])
where
    F: FnMut(u64) -> usize,
{
    let dim = store.dim();
    assert_eq!(
        out.len(),
        bag.batch_size() * dim,
        "pooled buffer must be batch_size × dim"
    );
    out.fill(0.0);
    for (acc, sample) in out.chunks_exact_mut(dim).zip(bag.samples()) {
        for &id in sample {
            add_assign_row(acc, store.row(map(id)));
        }
    }
}

/// Forward pass for the sample range `lo..hi` of one table through a
/// precomputed **deduplicated index**: lookup `j` of the bag resolves to
/// store row `unique_slots[lookup_unique[j]]`, so the per-lookup cost is
/// two array reads instead of a hash probe. Accumulation order is
/// identical to [`gather_reduce_into`] with the equivalent `map`, so the
/// output is bit-identical. Each sample's pooled sum is computed whole by
/// whoever owns its range, so splitting a batch across workers produces
/// bit-identical output to a single-worker gather.
///
/// `lookup_unique` maps every lookup (bag order) to an index into the
/// batch's unique-ID set; `unique_slots` maps unique indices to store
/// rows.
///
/// # Panics
///
/// Panics if `lo > hi`, `hi > bag.batch_size()`, `out.len() != (hi - lo)
/// × dim`, `lookup_unique.len() != bag.ids().len()`, or an index is out
/// of bounds.
pub fn gather_reduce_indexed(
    store: &EmbeddingTable,
    bag: &TableBag,
    lookup_unique: &[u32],
    unique_slots: &[u32],
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    let dim = store.dim();
    assert!(lo <= hi && hi <= bag.batch_size(), "sample range in bounds");
    assert_eq!(
        out.len(),
        (hi - lo) * dim,
        "pooled slice must be (hi - lo) × dim"
    );
    assert_eq!(
        lookup_unique.len(),
        bag.ids().len(),
        "lookup index must cover every bag lookup"
    );
    let offsets = bag.offsets();
    out.fill(0.0);
    for (acc, s) in out.chunks_exact_mut(dim).zip(lo..hi) {
        for &u in &lookup_unique[offsets[s] as usize..offsets[s + 1] as usize] {
            add_assign_row(acc, store.row(unique_slots[u as usize] as usize));
        }
    }
}

/// Forward pass for one table with the identity ID→index mapping
/// (CPU-resident tables): gather + sum-pool into a fresh `batch_size ×
/// dim` buffer.
#[cfg(test)]
pub(crate) fn gather_reduce(store: &EmbeddingTable, bag: &TableBag) -> Vec<f32> {
    let mut out = vec![0.0f32; bag.batch_size() * store.dim()];
    gather_reduce_into(store, bag, |id| id as usize, &mut out);
    out
}

/// Backward step 1 — gradient duplication (Figure 2(b) left): expands the
/// per-sample pooled gradients (`batch_size × dim`) into per-lookup
/// gradients (`total_lookups × dim`), one copy per gathered row.
///
/// # Panics
///
/// Panics if `output_grads.len() != batch_size × dim`.
pub(crate) fn duplicate_gradients(bag: &TableBag, output_grads: &[f32], dim: usize) -> Vec<f32> {
    assert_eq!(
        output_grads.len(),
        bag.batch_size() * dim,
        "gradient buffer must be batch_size × dim"
    );
    let mut out = Vec::with_capacity(bag.total_lookups() * dim);
    for (s, sample) in bag.samples().enumerate() {
        let g = &output_grads[s * dim..(s + 1) * dim];
        for _ in 0..sample.len() {
            out.extend_from_slice(g);
        }
    }
    out
}

/// Backward step 2 — gradient coalescing (Figure 2(b) right): sums the
/// duplicated per-lookup gradients that target the same row. Returns
/// `(sorted unique IDs, coalesced gradients)` with one `dim`-wide gradient
/// per unique ID.
///
/// Duplicates are accumulated in occurrence order (stable sort), so the
/// result is bit-deterministic.
///
/// # Panics
///
/// Panics if `grads.len() != ids.len() × dim`.
pub(crate) fn coalesce(ids: &[u64], grads: &[f32], dim: usize) -> (Vec<u64>, Vec<f32>) {
    assert_eq!(grads.len(), ids.len() * dim, "per-lookup gradient shape");
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| ids[i]); // stable: ties keep occurrence order
    let mut unique = Vec::new();
    let mut out: Vec<f32> = Vec::new();
    for &i in &order {
        let id = ids[i];
        if unique.last() != Some(&id) {
            unique.push(id);
            out.extend_from_slice(&grads[i * dim..(i + 1) * dim]);
        } else {
            let base = (unique.len() - 1) * dim;
            add_assign_row(&mut out[base..base + dim], &grads[i * dim..(i + 1) * dim]);
        }
    }
    (unique, out)
}

/// Backward step 3 — SGD scatter update: `row[id] -= lr × grad` for each
/// unique ID, with `map` translating IDs to store indices.
///
/// # Panics
///
/// Panics if `grads.len() != ids.len() × dim` or `map` produces an
/// out-of-bounds index.
pub(crate) fn scatter_sgd_mapped<F>(
    store: &mut EmbeddingTable,
    ids: &[u64],
    grads: &[f32],
    lr: f32,
    mut map: F,
) where
    F: FnMut(u64) -> usize,
{
    let dim = store.dim();
    assert_eq!(grads.len(), ids.len() * dim, "coalesced gradient shape");
    for (g, &id) in grads.chunks_exact(dim).zip(ids) {
        axpy(store.row_mut(map(id)), -lr, g);
    }
}

/// SGD scatter update with the identity ID→index mapping.
#[cfg(test)]
pub(crate) fn scatter_sgd(store: &mut EmbeddingTable, ids: &[u64], grads: &[f32], lr: f32) {
    scatter_sgd_mapped(store, ids, grads, lr, |id| id as usize);
}

/// Row elements [`embedding_backward_transposed`] sums at a time, in a
/// stack accumulator: the backward allocates nothing.
const ACC_CHUNK: usize = 256;

/// Full embedding backward pass through the transpose of a deduplicated
/// index: `samples[offsets[k]..offsets[k + 1]]` lists, ascending and with
/// multiplicity, the sample of every lookup of unique index `k`. It is
/// the forward's gather-reduce run over that transpose: for each `k` in
/// ascending order it copies the first sample's pooled gradient, adds
/// the others in order and SGD-scatters the sum into row
/// `unique_slots[k]`; a row hit once is scattered straight from its
/// gradient, and a row hit never is left untouched.
///
/// Bit-identical to [`embedding_backward_mapped`] when `unique_slots`
/// follows the sorted unique IDs: every element sees the reference's
/// additions in the reference's order, and the first copy keeps a `-0.0`
/// gradient as the reference's does.
///
/// # Panics
///
/// Panics if `offsets.len() != unique_slots.len() + 1` or a sample's
/// gradient row lies outside `output_grads`.
pub fn embedding_backward_transposed(
    store: &mut EmbeddingTable,
    output_grads: &[f32],
    lr: f32,
    unique_slots: &[u32],
    offsets: &[u32],
    samples: &[u32],
) {
    assert_eq!(offsets.len(), unique_slots.len() + 1, "transpose shape");
    let dim = store.dim();
    let grad = |s: u32| &output_grads[s as usize * dim..][..dim];
    let mut acc = [0.0f32; ACC_CHUNK];
    for (k, &slot) in unique_slots.iter().enumerate() {
        let row = store.row_mut(slot as usize);
        match &samples[offsets[k] as usize..offsets[k + 1] as usize] {
            [] => {}
            [s] => axpy(row, -lr, grad(*s)),
            [first, rest @ ..] => {
                for (c, part) in row.chunks_mut(ACC_CHUNK).enumerate() {
                    let (lo, acc) = (c * ACC_CHUNK, &mut acc[..part.len()]);
                    acc.copy_from_slice(&grad(*first)[lo..][..acc.len()]);
                    for &s in rest {
                        add_assign_row(acc, &grad(s)[lo..][..acc.len()]);
                    }
                    axpy(part, -lr, acc);
                }
            }
        }
    }
}

/// Full embedding backward pass (duplicate → coalesce → scatter) for one
/// table, with an ID→index mapping. Returns the number of unique rows
/// updated (useful for traffic accounting).
pub fn embedding_backward_mapped<F>(
    store: &mut EmbeddingTable,
    bag: &TableBag,
    output_grads: &[f32],
    lr: f32,
    map: F,
) -> usize
where
    F: FnMut(u64) -> usize,
{
    let dim = store.dim();
    let dup = duplicate_gradients(bag, output_grads, dim);
    let (unique, summed) = coalesce(bag.ids(), &dup, dim);
    scatter_sgd_mapped(store, &unique, &summed, lr, map);
    unique.len()
}

/// Full embedding backward pass with the identity mapping.
pub fn embedding_backward(
    store: &mut EmbeddingTable,
    bag: &TableBag,
    output_grads: &[f32],
    lr: f32,
) -> usize {
    embedding_backward_mapped(store, bag, output_grads, lr, |id| id as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table whose row r is [r, r, ...] — sums are easy to verify.
    fn ramp_table(rows: usize, dim: usize) -> EmbeddingTable {
        EmbeddingTable::from_fn(rows, dim, |r, _| r as f32)
    }

    fn figure2_bag() -> TableBag {
        TableBag::from_samples(&[vec![0, 4], vec![0, 2, 5]])
    }

    #[test]
    fn gather_reduce_matches_figure2_forward() {
        // Paper Figure 2(a): outputs are E[0]+E[4] and E[0]+E[2]+E[5].
        let t = ramp_table(6, 2);
        let out = gather_reduce(&t, &figure2_bag());
        assert_eq!(out, vec![4.0, 4.0, 7.0, 7.0]);
    }

    #[test]
    fn empty_sample_pools_to_zero() {
        let t = ramp_table(4, 3);
        let bag = TableBag::from_samples(&[vec![], vec![2]]);
        let out = gather_reduce(&t, &bag);
        assert_eq!(out, vec![0.0, 0.0, 0.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_reduce_into_reuses_buffer_bitwise() {
        let t = EmbeddingTable::seeded(16, 4, 3);
        let bag = TableBag::from_samples(&[vec![1, 5, 5], vec![], vec![9]]);
        let fresh = gather_reduce(&t, &bag);
        // A dirty, reused buffer must produce the same bits.
        let mut reused = vec![f32::NAN; fresh.len()];
        gather_reduce_into(&t, &bag, |id| id as usize, &mut reused);
        assert_eq!(
            fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reused.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn indexed_gather_ranges_stitch_to_full_gather() {
        // Any partition of the batch into ranges must reproduce the
        // single-call gather bit-for-bit — the worker-sharding contract.
        let t = EmbeddingTable::seeded(32, 4, 11);
        let bag = TableBag::from_samples(&[
            vec![1, 5, 5],
            vec![],
            vec![9, 2],
            vec![31],
            vec![7, 7, 7, 0],
        ]);
        let (lookup_unique, unique_slots) = dedup_index(&bag, &[]);
        let full = gather_reduce(&t, &bag);
        let dim = 4;
        for cuts in [vec![0, 5], vec![0, 2, 5], vec![0, 1, 3, 4, 5]] {
            let mut stitched = vec![f32::NAN; full.len()];
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                gather_reduce_indexed(
                    &t,
                    &bag,
                    &lookup_unique,
                    &unique_slots,
                    lo,
                    hi,
                    &mut stitched[lo * dim..hi * dim],
                );
            }
            assert_eq!(
                full.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stitched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "cuts {cuts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch_size × dim")]
    fn gather_reduce_into_rejects_bad_shape() {
        let t = ramp_table(4, 2);
        let bag = TableBag::from_samples(&[vec![0]]);
        let mut out = vec![0.0; 3];
        gather_reduce_into(&t, &bag, |id| id as usize, &mut out);
    }

    #[test]
    fn duplicate_expands_per_lookup() {
        // G[0] for 2 lookups, G[1] for 3 (paper Figure 2(b)).
        let bag = figure2_bag();
        let grads = vec![1.0, 1.0, 2.0, 2.0]; // G[0]=(1,1), G[1]=(2,2)
        let dup = duplicate_gradients(&bag, &grads, 2);
        assert_eq!(dup, vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn coalesce_matches_figure2_backward() {
        // Row 0 is hit by G[0] and G[1]; rows 2, 4, 5 by one gradient each.
        let bag = figure2_bag();
        let grads = vec![1.0, 1.0, 2.0, 2.0];
        let dup = duplicate_gradients(&bag, &grads, 2);
        let (ids, summed) = coalesce(bag.ids(), &dup, 2);
        assert_eq!(ids, vec![0, 2, 4, 5]);
        // Row 0: G[0]+G[1] = (3,3); row 2: (2,2); row 4: (1,1); row 5: (2,2).
        assert_eq!(summed, vec![3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn scatter_sgd_applies_updates() {
        let mut t = ramp_table(6, 2);
        scatter_sgd(&mut t, &[0, 5], &[1.0, 1.0, 2.0, 2.0], 0.5);
        assert_eq!(t.row(0), &[-0.5, -0.5]);
        assert_eq!(t.row(5), &[4.0, 4.0]);
        assert_eq!(t.row(1), &[1.0, 1.0]); // untouched
    }

    #[test]
    fn full_backward_equals_manual_composition() {
        let bag = figure2_bag();
        let grads = vec![1.0, 1.0, 2.0, 2.0];
        let mut auto = ramp_table(6, 2);
        let updated = embedding_backward(&mut auto, &bag, &grads, 0.1);
        assert_eq!(updated, 4);

        let mut manual = ramp_table(6, 2);
        let dup = duplicate_gradients(&bag, &grads, 2);
        let (ids, summed) = coalesce(bag.ids(), &dup, 2);
        scatter_sgd(&mut manual, &ids, &summed, 0.1);
        assert!(auto.bit_eq(&manual));
    }

    #[test]
    fn mapped_kernels_follow_indirection() {
        // Store rows in arbitrary slots; map id -> slot.
        let slots = EmbeddingTable::from_flat(vec![9.0, 9.0, 5.0, 5.0, 7.0, 7.0], 2);
        let map = |id: u64| match id {
            10 => 2usize, // row (7,7)
            20 => 1,      // row (5,5)
            _ => 0,
        };
        let bag = TableBag::from_samples(&[vec![10, 20]]);
        let mut out = vec![f32::NAN; 2];
        gather_reduce_into(&slots, &bag, map, &mut out);
        assert_eq!(out, vec![12.0, 12.0]);

        let mut slots = slots;
        embedding_backward_mapped(&mut slots, &bag, &[1.0, 1.0], 1.0, map);
        assert_eq!(slots.row(2), &[6.0, 6.0]);
        assert_eq!(slots.row(1), &[4.0, 4.0]);
        assert_eq!(slots.row(0), &[9.0, 9.0]);
    }

    #[test]
    fn coalesce_is_deterministic_under_permutation_of_distinct_ids() {
        // Distinct ids in different order coalesce to the same sorted result.
        let dim = 1;
        let (ids_a, g_a) = coalesce(&[3, 1, 2], &[30.0, 10.0, 20.0], dim);
        let (ids_b, g_b) = coalesce(&[1, 2, 3], &[10.0, 20.0, 30.0], dim);
        assert_eq!(ids_a, ids_b);
        assert_eq!(g_a, g_b);
    }

    #[test]
    fn coalesce_duplicates_accumulate_in_occurrence_order() {
        // Occurrence order controls fp summation order; same input order
        // must give bitwise-same output.
        let dim = 1;
        let vals = [1e-7f32, 1.0, -1.0, 3e-8];
        let ids = [5u64, 5, 5, 5];
        let (u1, g1) = coalesce(&ids, &vals, dim);
        let (u2, g2) = coalesce(&ids, &vals, dim);
        assert_eq!(u1, vec![5]);
        assert_eq!(g1[0].to_bits(), g2[0].to_bits());
        assert_eq!(u1, u2);
    }

    #[test]
    #[should_panic(expected = "batch_size × dim")]
    fn duplicate_rejects_bad_shape() {
        let _ = duplicate_gradients(&figure2_bag(), &[1.0; 3], 2);
    }

    #[test]
    #[should_panic(expected = "coalesced gradient shape")]
    fn scatter_rejects_bad_shape() {
        let mut t = ramp_table(2, 2);
        scatter_sgd(&mut t, &[0], &[1.0; 3], 0.1);
    }

    /// Builds the deduplicated index pair for a bag, with `extra` IDs no
    /// lookup references merged into its sorted unique IDs: per-lookup
    /// indices, plus the unique IDs' slots (the identity mapping).
    fn dedup_index(bag: &TableBag, extra: &[u64]) -> (Vec<u32>, Vec<u32>) {
        let mut unique = bag.unique_ids();
        unique.extend_from_slice(extra);
        unique.sort_unstable();
        unique.dedup();
        let unique_slots: Vec<u32> = unique.iter().map(|&id| id as u32).collect();
        let lookup_unique: Vec<u32> = bag
            .ids()
            .iter()
            .map(|id| unique.binary_search(id).unwrap() as u32)
            .collect();
        (lookup_unique, unique_slots)
    }

    #[test]
    fn indexed_gather_matches_mapped_bitwise() {
        let t = EmbeddingTable::seeded(32, 4, 11);
        let bag = TableBag::from_samples(&[vec![1, 5, 5], vec![], vec![9, 2], vec![7, 7, 7, 0]]);
        let (lookup_unique, unique_slots) = dedup_index(&bag, &[]);
        let reference = gather_reduce(&t, &bag);
        let mut indexed = vec![f32::NAN; reference.len()];
        gather_reduce_indexed(
            &t,
            &bag,
            &lookup_unique,
            &unique_slots,
            0,
            bag.batch_size(),
            &mut indexed,
        );
        assert_eq!(
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            indexed.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The transpose of `lookup_unique` over `num_unique` unique indices,
    /// as `(offsets, samples)`, built one unique index at a time.
    fn transposed(
        bag: &TableBag,
        lookup_unique: &[u32],
        num_unique: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut offsets, mut samples) = (vec![0], Vec::new());
        for k in 0..num_unique as u32 {
            for (s, w) in bag.offsets().windows(2).enumerate() {
                let hits = lookup_unique[w[0] as usize..w[1] as usize].iter();
                samples.extend(hits.filter(|&&u| u == k).map(|_| s as u32));
            }
            offsets.push(samples.len() as u32);
        }
        (offsets, samples)
    }

    /// The transposed backward over `bag`'s index, identity slots, with
    /// `extra` unreferenced unique IDs.
    fn backward_transposed(
        store: &mut EmbeddingTable,
        bag: &TableBag,
        grads: &[f32],
        lr: f32,
        extra: &[u64],
    ) {
        let (lookup_unique, slots) = dedup_index(bag, extra);
        let (offsets, samples) = transposed(bag, &lookup_unique, slots.len());
        embedding_backward_transposed(store, grads, lr, &slots, &offsets, &samples);
    }

    #[test]
    fn indexed_backward_matches_mapped_bitwise() {
        let bag = TableBag::from_samples(&[vec![0, 4, 4], vec![0, 2, 5], vec![5]]);
        let grads = vec![1.0, -0.0, 2.0, 2.5, -1.0, 0.25];
        let mut reference = ramp_table(6, 2);
        embedding_backward_mapped(&mut reference, &bag, &grads, 0.1, |id| id as usize);
        let mut indexed = ramp_table(6, 2);
        backward_transposed(&mut indexed, &bag, &grads, 0.1, &[]);
        assert!(reference.bit_eq(&indexed));
    }

    #[test]
    fn transposed_backward_preserves_negative_zero_first_touch() {
        // Rows of -0.0 and -0.0 gradients: a row's summed gradient must
        // start as a copy of its first gradient (-0.0), not as 0.0 +
        // (-0.0) = +0.0, or the scattered row keeps the wrong sign. Row 3
        // is hit twice in one sample, row 1 once in each of two samples,
        // row 2 once.
        let bag = TableBag::from_samples(&[vec![3, 3, 1], vec![1, 2]]);
        let grads = [-0.0f32; 2];
        let mut reference = EmbeddingTable::from_flat(vec![-0.0; 4], 1);
        embedding_backward_mapped(&mut reference, &bag, &grads, 0.5, |id| id as usize);
        let mut indexed = EmbeddingTable::from_flat(vec![-0.0; 4], 1);
        backward_transposed(&mut indexed, &bag, &grads, 0.5, &[]);
        assert!(reference.bit_eq(&indexed));
        // -0.0 + (-0.5 × -0.0) = -0.0 + 0.0 = +0.0; row 0 is untouched.
        assert_eq!(indexed.row(3)[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(indexed.row(0)[0].to_bits(), (-0.0f32).to_bits());
    }

    proptest::proptest! {
        /// The transposed backward is bit-identical to the duplicate →
        /// coalesce → scatter reference over bags with repeats inside a
        /// sample and empty samples, with `-0.0` and order-sensitive
        /// magnitudes among the gradients, at widths on both sides of the
        /// accumulator chunk; unique IDs no lookup references leave their
        /// rows untouched.
        #[test]
        fn transposed_backward_matches_mapped_bitwise(
            samples in proptest::collection::vec(proptest::collection::vec(0u64..24, 0..6), 1..8),
            extra in proptest::collection::vec(0u64..32, 0..4),
            dim in 1usize..300
        ) {
            let bag = TableBag::from_samples(&samples);
            // Every fifth column holds -0.0 in every gradient and in every
            // other row, where only a first touch that copies keeps the
            // reference's bits; elsewhere ±1e7 makes the order of a sum
            // show.
            let grads: Vec<f32> = (0..bag.batch_size() * dim)
                .map(|i| match (i % dim % 5, i % 7) {
                    (0, _) => -0.0,
                    (_, 1) => 1e7,
                    (_, 2) => -1e7,
                    (_, k) => k as f32 * 0.375 - 1.1,
                })
                .collect();
            let before = EmbeddingTable::from_fn(32, dim, |r, c| match (c % 5, r % 2) {
                (0, 0) => -0.0,
                _ => ((r * 31 + c * 17) % 13) as f32 * 0.25 - 1.5,
            });
            let mut reference = before.clone();
            embedding_backward_mapped(&mut reference, &bag, &grads, 0.125, |id| id as usize);
            let mut indexed = before.clone();
            backward_transposed(&mut indexed, &bag, &grads, 0.125, &extra);
            proptest::prop_assert!(reference.bit_eq(&indexed), "samples {:?}", samples);
            for &id in extra.iter().filter(|id| !bag.ids().contains(id)) {
                proptest::prop_assert!(before.row(id as usize) == indexed.row(id as usize));
            }
        }

        /// Gather-reduce distributes over sample concatenation: pooling a
        /// sample equals the sum of its rows, for arbitrary id multisets.
        #[test]
        fn pooled_equals_row_sum(ids in proptest::collection::vec(0u64..32, 0..20)) {
            let t = EmbeddingTable::seeded(32, 4, 99);
            let bag = TableBag::from_samples(std::slice::from_ref(&ids));
            let pooled = gather_reduce(&t, &bag);
            let mut expect = vec![0.0f32; 4];
            for &id in &ids {
                for (a, v) in expect.iter_mut().zip(t.row(id as usize)) {
                    *a += v;
                }
            }
            proptest::prop_assert_eq!(pooled, expect);
        }

        /// Coalescing preserves the total gradient mass per row: the sum of
        /// coalesced gradients equals the sum of duplicated gradients.
        #[test]
        fn coalesce_conserves_mass(ids in proptest::collection::vec(0u64..16, 1..40)) {
            let dim = 2;
            let grads: Vec<f32> = (0..ids.len() * dim).map(|i| (i % 7) as f32 - 3.0).collect();
            let (unique, summed) = coalesce(&ids, &grads, dim);
            // unique ids are sorted and deduped
            proptest::prop_assert!(unique.windows(2).all(|w| w[0] < w[1]));
            let total_in: f64 = grads.iter().map(|&v| v as f64).sum();
            let total_out: f64 = summed.iter().map(|&v| v as f64).sum();
            proptest::prop_assert!((total_in - total_out).abs() < 1e-3);
        }

        /// One SGD step through the full backward path changes exactly the
        /// unique touched rows and no others.
        #[test]
        fn backward_touches_only_referenced_rows(
            ids in proptest::collection::vec(0u64..24, 1..12)
        ) {
            let bag = TableBag::from_samples(std::slice::from_ref(&ids));
            let before = EmbeddingTable::seeded(24, 3, 5);
            let mut after = before.clone();
            let grads = vec![1.0f32; 3];
            embedding_backward(&mut after, &bag, &grads, 0.25);
            let touched = bag.unique_ids();
            for r in 0..24u64 {
                let same = before.row(r as usize) == after.row(r as usize);
                if touched.contains(&r) {
                    proptest::prop_assert!(!same, "row {} should change", r);
                } else {
                    proptest::prop_assert!(same, "row {} must not change", r);
                }
            }
        }
    }
}
