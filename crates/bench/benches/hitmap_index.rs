//! Micro-benchmarks of the open-addressing Hit-Map index against the std
//! `HashMap` it replaced, plus the deduplicated Train gather against the
//! raw per-lookup gather it replaced.
//!
//! * `probe` / `insert_remove`: 10k and 100k resident keys — the working
//!   sets of the bench shapes' per-table scratchpads.
//! * `gather`: deduped (index fan-out) vs raw (hash probe per lookup) at
//!   duplicate ratios 1×, 2×, 8× — the skewed-trace regimes where batch
//!   dedup pays.
//! * `dedup`: a bag's sorted unique IDs through `sort_ids` (the LSD radix
//!   sort, `TableBag::unique_ids_into`) vs the `sort_unstable` + `dedup`
//!   it replaced, both into reused buffers, at n = 4, 64, 2 048 and
//!   40 960 lookups — the first n IDs of a paper-shape bag (10 M rows,
//!   Medium locality; 40 960 is one table of `paper_analytic`'s batch).

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use embeddings::store::DenseStore;
use embeddings::{ops, TableBag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scratchpipe::SlotIndex;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

/// `n` distinct keys in insertion order, spread over a 4× larger domain.
fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n * 2).map(|_| rng.gen_range(0..n as u64 * 4)).collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(n);
    v
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("hitmap_probe");
    for &n in &[10_000usize, 100_000] {
        let ks = keys(n, 7);
        group.throughput(Throughput::Elements(ks.len() as u64));
        group.bench_with_input(BenchmarkId::new("std_hashmap", n), &ks, |b, ks| {
            let mut m: HashMap<u64, u32> = HashMap::with_capacity(n);
            for (i, &k) in ks.iter().enumerate() {
                m.insert(k, i as u32);
            }
            b.iter(|| {
                let mut acc = 0u64;
                for &k in ks {
                    acc += u64::from(*m.get(&k).expect("resident"));
                    acc += u64::from(m.get(&(k ^ 0x5555_5555)).copied().unwrap_or(0));
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("slot_index", n), &ks, |b, ks| {
            let mut m = SlotIndex::with_capacity(n);
            for (i, &k) in ks.iter().enumerate() {
                m.insert(k, i as u32);
            }
            b.iter(|| {
                let mut acc = 0u64;
                for &k in ks {
                    acc += u64::from(m.get(k).expect("resident"));
                    acc += u64::from(m.get(k ^ 0x5555_5555).unwrap_or(0));
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("hitmap_insert_remove");
    for &n in &[10_000usize, 100_000] {
        let ks = keys(n, 13);
        group.throughput(Throughput::Elements(ks.len() as u64 * 2));
        group.bench_with_input(BenchmarkId::new("std_hashmap", n), &ks, |b, ks| {
            b.iter(|| {
                let mut m: HashMap<u64, u32> = HashMap::with_capacity(n);
                for (i, &k) in ks.iter().enumerate() {
                    m.insert(k, i as u32);
                }
                // Churn half the keys (the eviction/refill cycle).
                for &k in ks.iter().step_by(2) {
                    m.remove(&k);
                    m.insert(k | (1 << 62), 1);
                }
                black_box(m.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("slot_index", n), &ks, |b, ks| {
            b.iter(|| {
                let mut m = SlotIndex::with_capacity(n);
                for (i, &k) in ks.iter().enumerate() {
                    m.insert(k, i as u32);
                }
                for &k in ks.iter().step_by(2) {
                    m.remove(k);
                    m.insert(k | (1 << 62), 1);
                }
                black_box(m.len())
            });
        });
    }
    group.finish();
}

/// A bag of `batch × lookups` IDs where each unique ID repeats ~`ratio`
/// times batch-wide, plus the dedup index pair over a slot permutation.
fn dup_bag(ratio: usize, seed: u64) -> (TableBag, Vec<u32>, Vec<u32>, Vec<u64>) {
    let batch = 128;
    let lookups = 8;
    let domain = (batch * lookups / ratio).max(1) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<Vec<u64>> = (0..batch)
        .map(|_| (0..lookups).map(|_| rng.gen_range(0..domain)).collect())
        .collect();
    let bag = TableBag::from_samples(&samples);
    let unique = bag.unique_ids();
    let unique_slots: Vec<u32> = unique
        .iter()
        .map(|&id| ((id * 31 + 7) % domain) as u32)
        .collect();
    let lookup_unique: Vec<u32> = bag
        .ids()
        .iter()
        .map(|id| unique.binary_search(id).expect("in unique") as u32)
        .collect();
    (bag, lookup_unique, unique_slots, unique)
}

fn bench_gather(c: &mut Criterion) {
    let dim = 32;
    let mut group = c.benchmark_group("train_gather");
    for &ratio in &[1usize, 2, 8] {
        let (bag, lookup_unique, unique_slots, unique) = dup_bag(ratio, 42);
        let domain = (128 * 8 / ratio).max(1);
        let store = DenseStore::from_flat(
            (0..domain * dim).map(|i| (i % 97) as f32 * 0.01).collect(),
            dim,
        );
        let map: HashMap<u64, u32> = unique
            .iter()
            .zip(&unique_slots)
            .map(|(&id, &s)| (id, s))
            .collect();
        group.throughput(Throughput::Elements(bag.total_lookups() as u64));
        group.bench_with_input(
            BenchmarkId::new("raw_hash_probe", format!("{ratio}x")),
            &bag,
            |b, bag| {
                let mut out = vec![0.0f32; bag.batch_size() * dim];
                b.iter(|| {
                    ops::gather_reduce_into(&store, bag, |id| map[&id] as usize, &mut out);
                    black_box(out[0])
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dedup_index", format!("{ratio}x")),
            &bag,
            |b, bag| {
                let mut out = vec![0.0f32; bag.batch_size() * dim];
                b.iter(|| {
                    ops::gather_reduce_indexed(
                        &store,
                        bag,
                        &lookup_unique,
                        &unique_slots,
                        0,
                        bag.batch_size(),
                        &mut out,
                    );
                    black_box(out[0])
                });
            },
        );
    }
    group.finish();
}

fn bench_dedup(c: &mut Criterion) {
    let paper = TraceGenerator::new(TraceConfig {
        num_tables: 1,
        rows_per_table: 10_000_000,
        lookups_per_sample: 20,
        batch_size: 2_048,
        profile: LocalityProfile::Medium,
        seed: 42,
    })
    .take_batches(1);
    let ids = paper[0].bag(0).ids();
    let mut group = c.benchmark_group("dedup");
    for n in [4usize, 64, 2_048, 40_960] {
        let bag = TableBag::new(ids[..n].to_vec(), vec![0, n as u32]);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("sort_unstable_dedup", n),
            &bag,
            |b, bag| {
                let mut out = Vec::new();
                b.iter(|| {
                    out.clear();
                    out.extend_from_slice(bag.ids());
                    out.sort_unstable();
                    out.dedup();
                    black_box(out.len())
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("sort_ids", n), &bag, |b, bag| {
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            b.iter(|| black_box(bag.unique_ids_into(&mut out, &mut scratch)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_probe,
    bench_insert_remove,
    bench_gather,
    bench_dedup
);
criterion_main!(benches);
