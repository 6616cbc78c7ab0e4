//! A steady-state dense step performs no heap allocation.
//!
//! This binary owns the process's global allocator — a counting wrapper
//! round `System` — and holds a single test, so no other test's thread
//! can allocate inside a measured region. It is the only allocator binary
//! for the dense step: `systems` is a dev-dependency here so that
//! `DlrmBackend::step` is measured under the same counter.
//! (`tests/supervised_alloc.rs` is the same pattern round `run_supervised`.)
//!
//! A step fanned out over a worker pool allocates too — each of its two
//! regions collects its tasks and their results into lists — but nothing
//! that grows with the batch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlrm::{interaction, DlrmConfig, DlrmModel, DlrmScratch};
use embeddings::SparseBatch;
use scratchpipe::backend::{DenseBackend, PooledView};
use scratchpipe::WorkerPool;
use systems::DlrmBackend;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` performs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_steps_allocate_nothing() {
    // `train_bound`'s dense model and batch (benchmark/src/workloads.rs).
    let (tables, dim, batch) = (4, 64, 256);
    let cfg = DlrmConfig {
        dense_dim: 13,
        bottom_widths: vec![13, 128, 64, dim],
        top_widths: vec![interaction::output_dim(tables, dim), 256, 128, 1],
        emb_dim: dim,
        num_tables: tables,
    };
    let dense: Vec<f32> = (0..batch * cfg.dense_dim)
        .map(|i| (i % 17) as f32 / 17.0 - 0.5)
        .collect();
    let pooled: Vec<f32> = (0..tables * batch * dim)
        .map(|i| (i % 23) as f32 / 46.0 - 0.25)
        .collect();
    let labels: Vec<f32> = (0..batch).map(|s| (s % 2) as f32).collect();
    let mut grads = vec![0.0f32; pooled.len()];

    let mut model = DlrmModel::seeded(&cfg, 1);
    let mut scratch = DlrmScratch::new();
    let mut step = |model: &mut DlrmModel| {
        let out = model.train_step_with(&mut scratch, &dense, &pooled, &labels, 0.05, &mut grads);
        assert!(out.loss.is_finite());
    };
    assert!(allocations_in(|| step(&mut model)) > 0, "counter is live");
    for i in 2..=5 {
        assert_eq!(allocations_in(|| step(&mut model)), 0, "model step {i}");
    }

    // The same through the pipeline's backend, whose inputs are generated
    // per iteration into its own reused buffers.
    let rows: Vec<Vec<Vec<u64>>> = (0..batch)
        .map(|s| (0..tables).map(|t| vec![(s + t) as u64]).collect())
        .collect();
    let sparse = SparseBatch::from_rows(tables, &rows);
    let mut backend = DlrmBackend::new(&cfg, 0.05, 1);
    let mut step = |backend: &mut DlrmBackend, i: usize| {
        let view = PooledView::new(&pooled, tables, batch, dim);
        assert!(backend.step(i, &sparse, view, &mut grads).loss.is_finite());
    };
    assert!(allocations_in(|| step(&mut backend, 1)) > 0);
    for i in 2..=5 {
        assert_eq!(
            allocations_in(|| step(&mut backend, i)),
            0,
            "backend step {i}"
        );
    }

    // Fanned out over a two-wide pool, a warm step allocates only for its
    // two regions' task and result lists: as much at batch 1 024 as at 256.
    let wide = 4 * batch;
    let rows: Vec<Vec<Vec<u64>>> = (0..wide)
        .map(|s| (0..tables).map(|t| vec![(s + t) as u64]).collect())
        .collect();
    let wide_sparse = SparseBatch::from_rows(tables, &rows);
    let wide_pooled: Vec<f32> = (0..tables * wide * dim)
        .map(|i| (i % 29) as f32 / 58.0 - 0.25)
        .collect();
    let mut wide_grads = vec![0.0f32; wide_pooled.len()];
    let mut fanned = |backend: &mut DlrmBackend, i: usize, wide: bool| {
        let (sparse, pooled, grads, batch) = if wide {
            (&wide_sparse, &wide_pooled, &mut wide_grads, 4 * batch)
        } else {
            (&sparse, &pooled, &mut grads, batch)
        };
        let view = PooledView::new(pooled, tables, batch, dim);
        let out = backend.step_on(WorkerPool::new(2), i, sparse, view, grads);
        assert!(out.expect("no task panics").loss.is_finite());
    };
    fanned(&mut backend, 6, true);
    fanned(&mut backend, 7, false);
    let at_256 = allocations_in(|| fanned(&mut backend, 8, false));
    let at_1024 = allocations_in(|| fanned(&mut backend, 9, true));
    assert!(at_256 > 0, "a fanned step's regions collect their tasks");
    assert_eq!(
        at_256, at_1024,
        "fanned-step allocations grow with the batch"
    );
}
