//! Flat-arena vs per-row reference: property tests pinning the
//! stride-indexed gather→reduce→scatter path (the hot path after the
//! buffer-flattening refactor) against the old per-row `Vec<Vec<f32>>`
//! implementation, preserved here as a test-only reference before the
//! production copy was deleted.
//!
//! Floating-point addition is not associative, so the assertions are
//! **bitwise**: the flat path must perform the same additions in the same
//! order as the row-at-a-time reference.

use embeddings::{ops, EmbeddingTable, TableBag};
use proptest::prelude::*;
use scratchpipe::{stages, TablePlan};

const ROWS: u64 = 32;
const DIM: usize = 4;

/// The old per-row forward: gather every looked-up row into its own
/// `Vec<f32>`, then sum-pool per sample in bag order.
fn reference_gather_reduce(table: &EmbeddingTable, bag: &TableBag) -> Vec<f32> {
    let dim = table.dim();
    let mut out = Vec::new();
    for sample in bag.samples() {
        let rows: Vec<Vec<f32>> = sample
            .iter()
            .map(|&id| table.row(id as usize).to_vec())
            .collect();
        let mut acc = vec![0.0f32; dim];
        for row in &rows {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        out.extend_from_slice(&acc);
    }
    out
}

/// The old per-row backward: duplicate each sample's gradient into one
/// `Vec<f32>` per lookup, coalesce duplicates by stable sort (ties in
/// occurrence order), and scatter-update with SGD.
fn reference_backward(table: &mut EmbeddingTable, bag: &TableBag, grads: &[f32], lr: f32) {
    let dim = table.dim();
    let mut per_lookup: Vec<(u64, Vec<f32>)> = Vec::new();
    for (s, sample) in bag.samples().enumerate() {
        let g = grads[s * dim..(s + 1) * dim].to_vec();
        for &id in sample {
            per_lookup.push((id, g.clone()));
        }
    }
    let mut order: Vec<usize> = (0..per_lookup.len()).collect();
    order.sort_by_key(|&i| per_lookup[i].0); // stable
    let mut unique: Vec<u64> = Vec::new();
    let mut sums: Vec<Vec<f32>> = Vec::new();
    for &i in &order {
        let (id, g) = &per_lookup[i];
        if unique.last() == Some(id) {
            let acc = sums.last_mut().expect("non-empty with last id");
            for (a, v) in acc.iter_mut().zip(g) {
                *a += v;
            }
        } else {
            unique.push(*id);
            sums.push(g.clone());
        }
    }
    for (id, g) in unique.iter().zip(&sums) {
        let row = table.row_mut(*id as usize);
        for (w, v) in row.iter_mut().zip(g) {
            *w -= lr * v;
        }
    }
}

fn arb_bag() -> impl Strategy<Value = TableBag> {
    let sample = proptest::collection::vec(0u64..ROWS, 0..6);
    proptest::collection::vec(sample, 1..5).prop_map(|samples| TableBag::from_samples(&samples))
}

/// A scrambled id → slot permutation plus a scratchpad holding each row's
/// data at its assigned slot — the \[Train\] stage's indirection. The
/// plan carries the deduplicated flat layout: sorted `unique_ids`,
/// aligned `unique_slots`, and (once [`stages::index_lookups`] runs) the
/// per-lookup index into them.
fn scrambled_scratchpad(table: &EmbeddingTable) -> (TablePlan, EmbeddingTable) {
    let mut plan = TablePlan::default();
    let mut store = EmbeddingTable::zeros(ROWS as usize, DIM);
    for id in 0..ROWS {
        let slot = ((id * 7 + 3) % ROWS) as u32; // 7 ⊥ 32 → permutation
        plan.unique_ids.push(id);
        plan.unique_slots.push(slot);
        store.copy_row_from(slot as usize, table, id as usize);
    }
    (plan, store)
}

fn deterministic_grads(bag: &TableBag) -> Vec<f32> {
    (0..bag.batch_size() * DIM)
        .map(|i| (i % 7) as f32 * 0.25 - 0.75)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forward: `gather_reduce_into` over the flat arena matches the
    /// per-row reference bit for bit, for arbitrary bags (duplicates,
    /// empty samples and all).
    #[test]
    fn flat_gather_reduce_matches_per_row_reference(bag in arb_bag()) {
        let table = EmbeddingTable::seeded(ROWS as usize, DIM, 11);
        let expect = reference_gather_reduce(&table, &bag);
        let mut flat = vec![f32::NAN; bag.batch_size() * DIM]; // dirty arena
        ops::gather_reduce_into(&table, &bag, |id| id as usize, &mut flat);
        for (i, (a, b)) in expect.iter().zip(&flat).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "element {}", i);
        }
    }

    /// Backward: the flat duplicate→coalesce→scatter matches the per-row
    /// reference bit for bit on the updated table.
    #[test]
    fn flat_backward_matches_per_row_reference(bag in arb_bag()) {
        let grads = deterministic_grads(&bag);
        let mut expect = EmbeddingTable::seeded(ROWS as usize, DIM, 23);
        let mut flat = expect.clone();
        reference_backward(&mut expect, &bag, &grads, 0.125);
        ops::embedding_backward(&mut flat, &bag, &grads, 0.125);
        prop_assert!(
            expect.bit_eq(&flat),
            "diverged at row {:?}",
            expect.first_diff_row(&flat)
        );
    }

    /// The full stage-kernel round trip through a *scrambled* scratchpad
    /// (the real \[Train\] indirection): gather through the plan's
    /// id→slot map into a flat pooled slice, scatter gradients back, and
    /// compare every row against the identity-mapped reference table.
    #[test]
    fn stage_kernels_match_reference_through_slot_indirection(bag in arb_bag()) {
        let table = EmbeddingTable::seeded(ROWS as usize, DIM, 31);
        let (mut plan, mut store) = scrambled_scratchpad(&table);
        stages::index_lookups(&mut plan, &bag);

        // Forward through the slot indirection.
        let expect_pooled = reference_gather_reduce(&table, &bag);
        let mut pooled = vec![0.0f32; bag.batch_size() * DIM];
        stages::gather_pooled(&store, &bag, &plan, &mut pooled);
        for (a, b) in expect_pooled.iter().zip(&pooled) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Backward through the slot indirection.
        let grads = deterministic_grads(&bag);
        let mut expect_table = table.clone();
        reference_backward(&mut expect_table, &bag, &grads, 0.125);
        stages::scatter_grads(&mut store, &bag, &grads, 0.125, &plan);
        for id in 0..ROWS {
            let slot = plan.slot_of(id).expect("permutation covers every id") as usize;
            let expect_row = expect_table.row(id as usize);
            let got_row = store.row(slot);
            for (a, b) in expect_row.iter().zip(got_row) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}", id);
            }
        }
    }
}
