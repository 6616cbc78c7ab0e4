//! A warm pipeline's allocations do not grow with the embedding width.
//!
//! Every buffer the hot path refills — staged rows, the pooled arena, the
//! plans and their lookup index with its transpose — is recycled from run
//! to run, so once earlier runs have grown them, a run over the same
//! trace allocates only what does not depend on `dim` (the report, the
//! run log). A kernel that allocates a `num_unique × dim` buffer per
//! table per batch shows here as a byte count that differs between widths.
//!
//! This binary owns the process's global allocator — a counting wrapper
//! round `System`, the `tests/supervised_alloc.rs` pattern, counting
//! requested bytes — and holds a single test, so no other test's thread
//! can allocate inside a measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use embeddings::EmbeddingTable;
use scratchpipe::{Pipeline, PipelineConfig, Schedule, UnitBackend};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TABLES: usize = 4;
const ROWS: usize = 5_000;
const BATCH: usize = 64;
const LOOKUPS: usize = 4;

/// Bytes the third of three plain `Sync` runs over the same trace
/// allocates, on a pipeline of width `dim`. Two runs warm it: the first
/// fills the scratchpad from cold, and the second is the first to start
/// from a full one, so the first to stage evictions from its first batch
/// on (the third run's plans are the second's).
fn warm_run_bytes(dim: usize) -> u64 {
    let batches = TraceGenerator::new(TraceConfig {
        num_tables: TABLES,
        rows_per_table: ROWS as u64,
        lookups_per_sample: LOOKUPS,
        batch_size: BATCH,
        profile: LocalityProfile::Medium,
        seed: 0x7A4E,
    })
    .take_batches(24);
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(dim, 6 * BATCH * LOOKUPS))
        .tables(
            (0..TABLES)
                .map(|t| EmbeddingTable::seeded(ROWS, dim, 40 + t as u64))
                .collect(),
        )
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline");
    rt.run(&batches).expect("cold run");
    rt.run(&batches).expect("first warm run");
    let before = BYTES.load(Ordering::Relaxed);
    rt.run(&batches).expect("measured run");
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn warm_run_allocates_the_same_bytes_at_any_width() {
    let narrow = warm_run_bytes(8);
    let wide = warm_run_bytes(256);
    println!("warm run allocates {narrow} bytes at dim 8, {wide} at dim 256");
    assert_eq!(
        narrow, wide,
        "a warm run's allocations must not depend on the embedding width"
    );
}
