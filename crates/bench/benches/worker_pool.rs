//! Break-even of a [`WorkerPool`] region — the measurement behind
//! `WorkerPool::MIN_SHARD_WORK`.
//!
//! One region of four tasks (one per "table", as \[Collect\] and the Train
//! scatter shard), each gathering its share of `elems` f32 elements row by
//! row (dim 32) through a scattered index into a staging block: the
//! inline pool against a width-2 pool, as the region grows. The floor
//! belongs at the first size where the width-2 pool is no slower.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scratchpipe::WorkerPool;

const DIM: usize = 32;
const ROWS: usize = 50_000;
const TABLES: usize = 4;

fn bench_shard_region(c: &mut Criterion) {
    let tables: Vec<Vec<f32>> = (0..TABLES)
        .map(|t| (0..ROWS * DIM).map(|i| (i + t) as f32).collect())
        .collect();
    let mut group = c.benchmark_group("shard_region");
    for shift in 14..=22 {
        let elems = 1usize << shift;
        let rows_per_task = elems / TABLES / DIM;
        let index: Vec<Vec<usize>> = (0..TABLES)
            .map(|t| {
                (0..rows_per_task)
                    .map(|k| (k * 7919 + t * 13) % ROWS)
                    .collect()
            })
            .collect();
        let mut staged: Vec<Vec<f32>> = vec![vec![0.0; rows_per_task * DIM]; TABLES];
        group.throughput(Throughput::Elements(elems as u64));
        for (label, pool) in [
            ("inline", WorkerPool::inline()),
            ("width2", WorkerPool::new(2)),
        ] {
            group.bench_with_input(BenchmarkId::new(label, elems), &pool, |b, pool| {
                b.iter(|| {
                    let tasks: Vec<_> = staged
                        .iter_mut()
                        .zip(&tables)
                        .zip(&index)
                        .map(|((block, table), rows)| {
                            move || {
                                for (dst, &r) in block.chunks_exact_mut(DIM).zip(rows) {
                                    dst.copy_from_slice(&table[r * DIM..(r + 1) * DIM]);
                                }
                            }
                        })
                        .collect();
                    pool.run_tasks(tasks).expect("no task panics")
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_shard_region);
criterion_main!(benches);
