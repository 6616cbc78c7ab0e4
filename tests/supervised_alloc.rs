//! Supervision allocates per segment, not per dirtied row.
//!
//! `run_supervised` clones the scratchpad managers and the dense backend
//! once per checkpointed segment; the undo journal under \[Insert\] and
//! \[Train\] is flat arenas whose capacity survives the commit, so the
//! rows a segment dirties cost no allocation once the arenas are warm.
//!
//! This binary owns the process's global allocator — a counting wrapper
//! round `System`, the `crates/dlrm/tests/no_alloc.rs` pattern — and
//! holds a single test, so no other test's thread can allocate inside a
//! measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::{
    Pipeline, PipelineConfig, PipelineReport, RecoveryPolicy, Schedule, UnitBackend,
};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

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

const TABLES: usize = 4;
const ROWS: usize = 20_000;
const DIM: usize = 8;
const BATCH: usize = 128;

/// Allocations (including reallocations) of one run over `batches` on a
/// fresh pipeline, and the run's report; building the pipeline is not
/// counted.
fn allocations_of(
    batches: &[SparseBatch],
    slots: usize,
    supervised: bool,
) -> (f64, PipelineReport) {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, slots))
        .tables(
            (0..TABLES)
                .map(|t| EmbeddingTable::seeded(ROWS, DIM, 900 + t as u64))
                .collect(),
        )
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = if supervised {
        let run = rt
            .run_supervised(batches, RecoveryPolicy::default())
            .expect("fault-free supervised run");
        assert_eq!(run.stats.rollbacks, 0);
        run.report
    } else {
        rt.run(batches).expect("fault-free run")
    };
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations as f64, report)
}

/// `((A_sup(2n) − A_sup(n)) − (A_run(2n) − A_run(n))) / n`: what
/// supervision adds per iteration once both runs are warm, beside the
/// unique rows one of those iterations touches (each is saved before
/// \[Train\] updates it; the fills and evictions among them are saved
/// again at \[Insert\]).
fn supervision_allocations_per_iteration(lookups_per_sample: usize) -> (f64, f64) {
    let n = 40;
    let batches = TraceGenerator::new(TraceConfig {
        num_tables: TABLES,
        rows_per_table: ROWS as u64,
        lookups_per_sample,
        batch_size: BATCH,
        profile: LocalityProfile::Low,
        seed: 0xA110C,
    })
    .take_batches(2 * n);
    // The §VI-D worst case, so the steady state evicts: CPU rows are
    // dirtied too, and the LRU run queue the manager snapshot copies
    // stops growing.
    let slots = 6 * BATCH * lookups_per_sample;
    let grown = |supervised| {
        let (long, report) = allocations_of(&batches, slots, supervised);
        let (short, _) = allocations_of(&batches[..n], slots, supervised);
        (long - short, report)
    };
    let (supervised, report) = grown(true);
    let (plain, _) = grown(false);
    let unique_rows: u64 = report.records[n..].iter().map(|r| r.unique_rows).sum();
    (
        (supervised - plain) / n as f64,
        unique_rows as f64 / n as f64,
    )
}

#[test]
fn supervision_allocates_per_segment_not_per_row() {
    let (narrow, narrow_rows) = supervision_allocations_per_iteration(4);
    let (wide, wide_rows) = supervision_allocations_per_iteration(8);
    println!(
        "supervision adds {narrow:.1} allocations/iteration at {narrow_rows:.0} unique rows, \
         {wide:.1} at {wide_rows:.0}"
    );
    assert!(
        wide_rows > 1.8 * narrow_rows,
        "the second shape must dirty about twice the rows"
    );
    // Measured: 73.0 and 77.0 — four `ScratchpadManager` clones a segment
    // (index, Hold mask, slot→row map, victim-pool state, one buffer per
    // live LRU run and per expiry-ring cycle), and nothing for the 2 011 /
    // 3 956 unique rows the iteration dirties. The first-touch `HashMap`
    // log this journal replaced measured 3 615.6 and 6 309.0 on the same
    // two shapes (a `Vec` per saved row, plus the maps regrowing after
    // every commit), so the bound sits 24× / 42× below it.
    const BOUND: f64 = 150.0;
    for (label, measured) in [("4 lookups", narrow), ("8 lookups", wide)] {
        assert!(
            measured <= BOUND,
            "{label}: supervision adds {measured:.1} allocations per iteration (bound {BOUND})"
        );
    }
}
