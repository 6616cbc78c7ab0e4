//! Dedup-correctness: the deduplicated Train kernels (gather through the
//! `lookup_unique → unique_slots` indirection, backward through its
//! transpose) must be **bit-identical** to the pre-dedup reference — the
//! hash-mapped `gather_reduce_into` / `embedding_backward_mapped` pair
//! that paid a probe per raw lookup and materialized a per-lookup
//! duplicate buffer.
//!
//! Exercised at widths {1, 2, 4} through a scrambled slot permutation,
//! over arbitrary bags (duplicate-heavy, empty samples and all), plus the
//! sample-range sharding the DataParallel schedule uses.

use embeddings::{ops, EmbeddingTable, TableBag};
use proptest::prelude::*;
use scratchpipe::{stages, TablePlan};

const ROWS: u64 = 48;

fn arb_bag() -> impl Strategy<Value = TableBag> {
    // Small ID domain → heavy intra-batch duplication, the case dedup
    // exists for.
    let sample = proptest::collection::vec(0u64..ROWS, 0..8);
    proptest::collection::vec(sample, 1..6).prop_map(|samples| TableBag::from_samples(&samples))
}

/// A scrambled id → slot permutation as a dedup-layout [`TablePlan`],
/// plus a store holding each row's data at its assigned slot.
fn scrambled_plan(
    table: &EmbeddingTable,
    bag: &TableBag,
    dim: usize,
) -> (TablePlan, EmbeddingTable) {
    let mut plan = TablePlan::default();
    let mut store = EmbeddingTable::zeros(ROWS as usize, dim);
    for id in 0..ROWS {
        let slot = ((id * 11 + 5) % ROWS) as u32; // 11 ⊥ 48 → permutation
        plan.unique_ids.push(id);
        plan.unique_slots.push(slot);
        store.copy_row_from(slot as usize, table, id as usize);
    }
    stages::index_lookups(&mut plan, bag);
    (plan, store)
}

/// The pre-dedup mapping equivalent to the plan's flat layout.
fn slot_map(plan: &TablePlan) -> impl Fn(u64) -> usize + '_ {
    move |id| plan.slot_of(id).expect("id planned") as usize
}

fn grads_for(bag: &TableBag, dim: usize) -> Vec<f32> {
    (0..bag.batch_size() * dim)
        .map(|i| match i % 5 {
            0 => -0.0, // negative zero must survive the first-touch copy
            k => (k as f32) * 0.375 - 1.0,
        })
        .collect()
}

fn check_width(bag: &TableBag, dim: usize) {
    let table = EmbeddingTable::seeded(ROWS as usize, dim, 7 + dim as u64);
    let (plan, store) = scrambled_plan(&table, bag, dim);

    // Forward: dedup-indexed gather vs hash-mapped reference.
    let mut reference = vec![f32::NAN; bag.batch_size() * dim];
    ops::gather_reduce_into(&store, bag, slot_map(&plan), &mut reference);
    let mut deduped = vec![f32::NAN; bag.batch_size() * dim];
    stages::gather_pooled(&store, bag, &plan, &mut deduped);
    for (i, (a, b)) in reference.iter().zip(&deduped).enumerate() {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "dim {} pooled element {}", dim, i);
    }

    // Sharded forward: any sample-range partition stitches to the same bits.
    let cuts = [0, bag.batch_size() / 2, bag.batch_size()];
    let mut stitched = vec![f32::NAN; bag.batch_size() * dim];
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        stages::gather_pooled_range(
            &store,
            bag,
            &plan,
            lo,
            hi,
            &mut stitched[lo * dim..hi * dim],
        );
    }
    for (a, b) in reference.iter().zip(&stitched) {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    // Backward: transposed-index scatter vs duplicate→coalesce
    // reference, compared slot by slot.
    let grads = grads_for(bag, dim);
    let mut ref_store = store.clone();
    ops::embedding_backward_mapped(&mut ref_store, bag, &grads, 0.125, slot_map(&plan));
    let mut dedup_store = store.clone();
    stages::scatter_grads(&mut dedup_store, bag, &grads, 0.125, &plan);
    for slot in 0..ROWS as usize {
        let a = ref_store.row(slot);
        let b = dedup_store.row(slot);
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "dim {} slot {}", dim, slot);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dedup_kernels_bit_identical_at_width_1(bag in arb_bag()) {
        check_width(&bag, 1);
    }

    #[test]
    fn dedup_kernels_bit_identical_at_width_2(bag in arb_bag()) {
        check_width(&bag, 2);
    }

    #[test]
    fn dedup_kernels_bit_identical_at_width_4(bag in arb_bag()) {
        check_width(&bag, 4);
    }
}
