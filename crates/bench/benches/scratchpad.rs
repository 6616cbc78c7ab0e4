//! Micro-benchmarks of ScratchPipe's cache-management structures: the
//! \[Plan\] stage (Hit-Map query + Hold-mask update + victim selection)
//! with its metadata in cache and at paper scale, the victim pool's two
//! orderings, and the two Hold-mask implementations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scratchpipe::holdmask::{HoldMask, NaiveHoldMask};
use scratchpipe::policy::VictimPool;
use scratchpipe::{EvictionPolicy, ScratchpadManager, TablePlan, WindowConfig};

fn unique_ids(n: usize, rows: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..rows)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_plan_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_stage");
    for &slots in &[10_000usize, 100_000] {
        let ids_per_batch = 2_000;
        group.throughput(Throughput::Elements(ids_per_batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            let batches: Vec<Vec<u64>> = (0..64)
                .map(|i| unique_ids(ids_per_batch, slots as u64 * 4, i))
                .collect();
            b.iter(|| {
                let mut m = ScratchpadManager::new(slots, WindowConfig::PAPER, EvictionPolicy::Lru)
                    .expect("manager");
                for (i, ids) in batches.iter().enumerate() {
                    let f1 = batches.get(i + 1).map(|v| v.as_slice()).unwrap_or(&[]);
                    let f2 = batches.get(i + 2).map(|v| v.as_slice()).unwrap_or(&[]);
                    let _ = m.plan(ids, &[f1, f2]).expect("plan");
                }
            });
        });
    }
    // Paper scale: a 200 k-slot scratchpad (2 % of a 10 M-row table) and
    // ≈ 40 k unique IDs a batch, so the Hit-Map, the Hold masks and the
    // pool's records are out of the core's caches, as in `paper_analytic`.
    // One element is one unique ID planned.
    let (slots, ids_per_batch, rows) = (200_000usize, 40_000, 10_000_000);
    let batches: Vec<Vec<u64>> = (0..16)
        .map(|i| unique_ids(ids_per_batch, rows, 1_000 + i))
        .collect();
    group.throughput(Throughput::Elements(
        batches.iter().map(Vec::len).sum::<usize>() as u64,
    ));
    let id = BenchmarkId::new("paper_scale", slots);
    group.bench_with_input(id, &slots, |b, &slots| {
        let mut plan = TablePlan::default();
        b.iter(|| {
            let mut m = ScratchpadManager::new(slots, WindowConfig::PAPER, EvictionPolicy::Lru)
                .expect("manager");
            for (i, ids) in batches.iter().enumerate() {
                let f1 = batches.get(i + 1).map_or(&[][..], Vec::as_slice);
                let f2 = batches.get(i + 2).map_or(&[][..], Vec::as_slice);
                m.plan_into(ids, &[f1, f2], &mut plan).expect("plan");
            }
        });
    });
    group.finish();
}

/// Steady-state victim-pool churn as \[Plan\] drives it: every cycle pops
/// one batch of victims, touches them, and re-inserts the batch whose
/// protection expired `HELD` cycles later — LRU's run queue against the
/// ordered set LFU and Random keep, at `plan_bound`'s and the paper-scale
/// workload's pool sizes.
fn bench_victim_pool(c: &mut Criterion) {
    const HELD: usize = 4;
    let mut group = c.benchmark_group("victim_pool_churn");
    for &slots in &[13_500usize, 200_000] {
        let batch = slots / 7;
        group.throughput(Throughput::Elements(2 * batch as u64));
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Lfu] {
            let id = BenchmarkId::new(policy.name(), slots);
            group.bench_with_input(id, &slots, |b, &slots| {
                let mut pool = VictimPool::new(slots, policy);
                for slot in 0..slots as u32 {
                    pool.insert(slot);
                }
                let mut held: std::collections::VecDeque<Vec<u32>> = Default::default();
                let mut cycle = 0u64;
                b.iter(|| {
                    cycle += 1;
                    let mut victims = if held.len() > HELD {
                        let mut expired = held.pop_front().expect("non-empty");
                        for &slot in &expired {
                            pool.insert(slot);
                        }
                        expired.clear();
                        expired
                    } else {
                        Vec::with_capacity(batch)
                    };
                    for _ in 0..batch {
                        let slot = pool.pop().expect("pool never runs dry");
                        pool.touch(slot, cycle);
                        victims.push(slot);
                    }
                    held.push_back(victims);
                });
            });
        }
    }
    group.finish();
}

fn bench_holdmask(c: &mut Criterion) {
    let slots = 100_000usize;
    let mut group = c.benchmark_group("holdmask_advance_and_set");
    group.throughput(Throughput::Elements(1_000));

    group.bench_function("naive_algorithm1", |b| {
        let mut m = NaiveHoldMask::new(slots, 6);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            m.advance(); // O(slots) global shift
            for _ in 0..1_000 {
                m.set_bit(rng.gen_range(0..slots as u32), 3);
            }
        });
    });
    group.bench_function("horizon", |b| {
        let mut m = HoldMask::new(slots, 6);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            m.advance(); // O(1)
            for _ in 0..1_000 {
                m.set_bit(rng.gen_range(0..slots as u32), 3);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_plan_stage, bench_victim_pool, bench_holdmask);
criterion_main!(benches);
