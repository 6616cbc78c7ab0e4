//! The shared stage-kernel layer: one implementation of what the five
//! Plan/Collect/Exchange/Insert/Train stages do to rows and plans, called
//! by the (crate-private) stage bodies that the
//! [`Pipeline`](crate::pipeline::Pipeline) drives under every
//! [`Schedule`](crate::pipeline::Schedule). The paper describes one
//! pipeline; this module is its single source of truth, so bit-exact
//! equivalence between schedules — and identical per-stage
//! [`StageTraffic`] accounting — holds by construction rather than by
//! copy-paste discipline.
//!
//! # Flat hot-path buffers
//!
//! Every buffer a mini-batch carries through the pipeline is a flat,
//! stride-indexed arena reused across iterations:
//!
//! * [`StagedRows`] — the \[Collect\]→\[Insert\] staging payload (missed
//!   rows gathered from the CPU tables, victim rows gathered from the
//!   scratchpad), all tables concatenated into one `EmbeddingTable` with
//!   per-table offsets. Row `k` of table `t` lives at
//!   `(offset[t] + k) · dim ..`.
//! * [`TrainArena`] — the \[Train\] stage's pooled-embedding and
//!   embedding-gradient buffers, `num_tables × batch × dim` each, handed
//!   to the dense backend as a [`PooledView`].
//! * `StagePayload` / `PayloadPool` (crate-private) — the per-mini-batch
//!   pipeline register; retired payloads are recycled, so a steady-state
//!   run allocates none. The register order grows four payloads' buffers
//!   (`Sequential` one, `Threaded` up to six), and an analytic run's
//!   payloads carry no plan lists.
//! * [`UniqueWindow`] — the sorted unique IDs of the few mini-batches
//!   \[Plan\] can see (hazard past + current + look-ahead), deduplicated
//!   once as each batch enters and held in recycled buffers, so dedup
//!   memory is bounded by the window and not by the trace.

use embeddings::sparse::sort_scratch_len;
use embeddings::{ops, EmbeddingTable, SparseBatch, TableBag};
use memsim::cost::primitives;
use memsim::Traffic;

use crate::backend::PooledView;
use crate::error::ScratchError;
use crate::runtime::{IterationRecord, StageTraffic};
use crate::scratchpad::{ScratchpadManager, TablePlan};
use crate::workers::WorkerPool;

/// Staged embedding rows for one in-flight mini-batch: all tables
/// concatenated into one flat arena with per-table row offsets.
///
/// The backing [`EmbeddingTable`] is cleared — not deallocated — between
/// iterations, so the steady state stages rows with zero allocator
/// traffic.
#[derive(Debug)]
pub struct StagedRows {
    rows: EmbeddingTable,
    /// `offsets[t]..offsets[t + 1]` is table `t`'s row range;
    /// `offsets.len() == tables_sealed + 1`.
    offsets: Vec<usize>,
}

impl StagedRows {
    /// Creates an empty arena for `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        StagedRows {
            rows: EmbeddingTable::zeros(0, dim),
            offsets: vec![0],
        }
    }

    /// Drops all staged rows and table boundaries, keeping the allocation.
    pub(crate) fn reset(&mut self) {
        self.rows.clear_rows();
        self.offsets.truncate(1);
    }

    /// Sizes and seals the arena for exactly `counts[t]` rows per table in
    /// one shot, so the per-table blocks can be filled *out of order* (or
    /// concurrently) through [`StagedRows::table_blocks_mut`].
    pub fn prepare(&mut self, counts: &[usize]) {
        self.rows.clear_rows();
        self.offsets.truncate(1);
        let mut total = 0;
        for &c in counts {
            total += c;
            self.offsets.push(total);
        }
        self.rows.resize_rows(total);
    }

    /// Disjoint mutable per-table row blocks (flat `table_rows(t) × dim`
    /// slices), one per table sealed by [`StagedRows::prepare`] — the
    /// write targets handed to collect workers.
    pub fn table_blocks_mut(&mut self) -> Vec<&mut [f32]> {
        let dim = self.rows.dim();
        let bounds: Vec<usize> = self.offsets.iter().map(|&o| o * dim).collect();
        let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
        let mut rest = self.rows.as_flat_mut();
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            out.push(head);
            rest = tail;
        }
        out
    }

    /// Row `k` of (sealed) table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is unsealed or `k` out of range.
    pub(crate) fn row(&self, t: usize, k: usize) -> &[f32] {
        let (lo, hi) = (self.offsets[t], self.offsets[t + 1]);
        assert!(k < hi - lo, "staged row {k} out of range for table {t}");
        self.rows.row(lo + k)
    }

    /// Rows staged for (sealed) table `t`.
    #[cfg(test)]
    pub(crate) fn table_rows(&self, t: usize) -> usize {
        self.offsets[t + 1] - self.offsets[t]
    }

    /// Total rows staged across all tables.
    #[cfg(test)]
    pub(crate) fn total_rows(&self) -> usize {
        self.rows.len()
    }
}

/// One mini-batch's pipeline register: its record, counted at \[Plan\],
/// and in a functional run the plans \[Plan\] chose and the rows staged
/// at \[Collect\].
///
/// The record is the batch's whole account: \[Plan\] counts its cache
/// events and every stage's embedding traffic from the plans it just made
/// ([`plan_record`]), and \[Train\] adds the dense backend's traffic and
/// the loss. So a later stage reads the plans only to move rows, and an
/// analytic run, which moves none, leaves them with \[Plan\]: its
/// payloads carry no plan lists at all.
#[derive(Debug)]
pub(crate) struct StagePayload {
    /// Per-table \[Plan\] output, which \[Collect\], \[Insert\] and
    /// \[Train\] read in a functional run; empty in an analytic one.
    pub plans: Vec<TablePlan>,
    /// Missed rows gathered from the CPU tables (CPU→GPU direction).
    pub staged_miss: StagedRows,
    /// Victim rows gathered from the scratchpad (GPU→CPU direction).
    pub staged_evict: StagedRows,
    /// The mini-batch's record: its index, cache events and traffic.
    pub record: IterationRecord,
}

impl StagePayload {
    /// Creates a payload with empty arenas for `dim`-wide rows.
    fn new(dim: usize) -> Self {
        StagePayload {
            plans: Vec::new(),
            staged_miss: StagedRows::new(dim),
            staged_evict: StagedRows::new(dim),
            record: IterationRecord::default(),
        }
    }

    /// Re-arms a (possibly recycled) payload for mini-batch `index`.
    /// `plans` keeps the previous mini-batch's entries: the \[Plan\] stage
    /// overwrites them in place ([`plan_table`]) so their buffers are reused,
    /// and \[Collect\] sizes the staging arenas from the new plans in one
    /// shot ([`StagedRows::prepare`]).
    pub(crate) fn rearm(&mut self, index: usize) {
        self.staged_miss.reset();
        self.staged_evict.reset();
        self.record = IterationRecord {
            index,
            ..IterationRecord::default()
        };
    }
}

/// A free list of retired [`StagePayload`]s, and the only place a
/// pipeline mints one. Every schedule holds a bounded number of payloads
/// in flight, so after warm-up every take is a reuse. A run takes six
/// (`Sequential` one), but the register order only ever has four batches
/// in flight, so it grows four payloads' buffers and leaves two bare;
/// `Threaded` may grow all six. Payloads are boxed:
/// the stages hand one on at every stage boundary, and a pointer is
/// cheaper to move than the payload's several hundred bytes.
#[derive(Debug, Default)]
pub(crate) struct PayloadPool {
    // The boxes circulate too: a take or release allocates nothing.
    #[allow(clippy::vec_box)]
    free: Vec<Box<StagePayload>>,
    minted: usize,
}

impl PayloadPool {
    /// Takes a recycled payload (or allocates the pipeline's next one)
    /// **without** re-arming it — the \[Plan\] stage re-arms it and
    /// refills its plans in place.
    pub(crate) fn take(&mut self, dim: usize) -> Box<StagePayload> {
        self.free.pop().unwrap_or_else(|| {
            self.minted += 1;
            Box::new(StagePayload::new(dim))
        })
    }

    /// Payloads this pool has allocated since it was created — the
    /// pipeline's payload footprint (takes served from the free list do
    /// not count).
    #[cfg(test)]
    pub(crate) fn minted(&self) -> usize {
        self.minted
    }

    /// Returns a retired payload to the free list.
    pub(crate) fn release(&mut self, payload: Box<StagePayload>) {
        self.free.push(payload);
    }

    /// Per payload on the free list, the bytes it holds in `[plan lists,
    /// lookup index, staged rows]`: the capacity of its plans' unique IDs
    /// and slots, fills and evictions; of \[Train\]'s lookup index and its
    /// transpose; and the rows its last batch staged. A payload whose
    /// plans never grew reads 0 first.
    #[cfg(test)]
    pub(crate) fn footprints(&self) -> Vec<[usize; 3]> {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let staged = |s: &StagedRows| std::mem::size_of_val(s.rows.as_flat());
        (self.free.iter())
            .map(|p| {
                let mut held = [0; 3];
                for plan in &p.plans {
                    held[0] += bytes(&plan.unique_ids)
                        + bytes(&plan.unique_slots)
                        + bytes(&plan.fills)
                        + bytes(&plan.evictions);
                    held[1] += bytes(&plan.lookup_unique)
                        + bytes(&plan.unique_offsets)
                        + bytes(&plan.unique_samples);
                }
                held[2] = staged(&p.staged_miss) + staged(&p.staged_evict);
                held
            })
            .collect()
    }
}

/// The \[Train\] stage's flat pooled/gradient arenas, allocated once per
/// run and re-sliced every iteration.
#[derive(Debug, Default)]
pub struct TrainArena {
    pooled: Vec<f32>,
    grads: Vec<f32>,
    num_tables: usize,
    batch: usize,
    dim: usize,
}

impl TrainArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes the arenas for one iteration, keeping capacity. The
    /// contents are **not** zeroed: every pooled element is overwritten by
    /// [`gather_pooled`] (which zero-fills its slice) and every gradient
    /// element by the [`DenseBackend::step`] contract, so re-clearing here
    /// would just add two redundant memsets per iteration.
    ///
    /// [`DenseBackend::step`]: crate::backend::DenseBackend::step
    pub fn prepare(&mut self, num_tables: usize, batch: usize, dim: usize) {
        self.num_tables = num_tables;
        self.batch = batch;
        self.dim = dim;
        let n = num_tables * batch * dim;
        self.pooled.resize(n, 0.0);
        self.grads.resize(n, 0.0);
    }

    fn stride(&self) -> usize {
        self.batch * self.dim
    }

    /// Mutable `batch × dim` pooled block of table `t` (gather target).
    pub fn pooled_table_mut(&mut self, t: usize) -> &mut [f32] {
        let stride = self.stride();
        &mut self.pooled[t * stride..(t + 1) * stride]
    }

    /// Disjoint mutable per-table pooled blocks, in table order — the
    /// gather targets handed to train workers.
    pub(crate) fn pooled_blocks_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let stride = self.stride();
        self.pooled.chunks_exact_mut(stride)
    }

    /// Gradient block of table `t` (scatter source).
    pub fn grads_table(&self, t: usize) -> &[f32] {
        let stride = self.stride();
        &self.grads[t * stride..(t + 1) * stride]
    }

    /// Splits the arena into the backend's two halves: an immutable
    /// [`PooledView`] and the mutable gradient buffer.
    pub fn split(&mut self) -> (PooledView<'_>, &mut [f32]) {
        (
            PooledView::new(&self.pooled, self.num_tables, self.batch, self.dim),
            &mut self.grads,
        )
    }
}

/// The sorted unique IDs of the mini-batches around the one \[Plan\] is
/// working on: `past` batches behind it (the hazard checker's look-back),
/// the batch itself and `ahead` batches in front (look-ahead registration
/// and the checker's look-forward).
///
/// A ring of `past + 1 + ahead` slots keyed by batch index: batch `j`
/// lives in slot `j % len` and is deduplicated — one
/// [`TableBag::unique_ids_into`] per table, into the slot's recycled
/// buffers — when [`UniqueWindow::advance`] first finds it missing, which
/// evicts the batch `len` positions behind it. Moving forward one batch
/// therefore costs one dedup; repeating an index costs none; rewinding
/// re-deduplicates exactly the batches that had been overwritten.
///
/// The dedup also yields each batch's hottest-row count
/// (`UniqueWindow::hottest`), which the run reports as
/// [`PipelineReport::max_dup`](crate::PipelineReport::max_dup).
///
/// Tables share nothing, so an entering batch is deduplicated by table:
/// side by side over the pool `advance` is given when it carries at least
/// [`PLAN_FAN_OUT_MIN_UNIQUES`] lookups in two or more tables (\[Plan\]'s
/// fan-out rule, counted in lookups because the unique IDs are what the
/// dedup is about to find), one table after another on the calling thread
/// otherwise. Every buffer a table's task writes (the slot's, and the one
/// sort scratch per table the window keeps) is grown on the calling
/// thread first, so the workers allocate nothing.
#[derive(Debug)]
pub struct UniqueWindow {
    slots: Vec<WindowSlot>,
    /// [`sort_ids`](embeddings::sparse::sort_ids)' scratch, one per table.
    scratch: Vec<Vec<u64>>,
    past: usize,
    ahead: usize,
}

#[derive(Debug, Default)]
struct WindowSlot {
    /// The batch whose IDs `tables` holds, if any.
    batch: Option<usize>,
    /// Sorted unique IDs per table.
    tables: Vec<Vec<u64>>,
    /// The most lookups any one row of any table gets in the batch.
    hottest: u64,
}

impl UniqueWindow {
    /// Creates an empty window reaching `past` batches back and `ahead`
    /// batches forward.
    pub fn new(past: usize, ahead: usize) -> Self {
        UniqueWindow {
            slots: (0..past + 1 + ahead)
                .map(|_| WindowSlot::default())
                .collect(),
            scratch: Vec::new(),
            past,
            ahead,
        }
    }

    /// Batches currently held, and the most there is room for.
    #[cfg(test)]
    fn held_and_capacity(&self) -> (usize, usize) {
        let held = self.slots.iter().filter(|s| s.batch.is_some()).count();
        (held, self.slots.len())
    }

    /// Forgets every batch (keeping the buffers). Batch indices only mean
    /// something within one trace, so every run starts with this.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.batch = None;
        }
    }

    /// Makes batches `i - past ..= i + ahead` of `batches` (clipped to the
    /// trace) available through `UniqueWindow::get`, deduplicating the
    /// ones that enter over `pool` (see the type docs for when it is used).
    /// Records nothing: the observed streams of a run do not depend on
    /// where its dedup ran.
    ///
    /// # Errors
    ///
    /// [`ScratchError::WorkerPanic`] if a table's dedup panicked; the
    /// batch is then not in the window.
    pub fn advance(
        &mut self,
        batches: &[SparseBatch],
        i: usize,
        pool: WorkerPool,
    ) -> Result<(), ScratchError> {
        let len = self.slots.len();
        let reach = i.saturating_sub(self.past)..(i + self.ahead + 1).min(batches.len());
        for j in reach {
            let (slot, batch) = (&mut self.slots[j % len], &batches[j]);
            if slot.batch == Some(j) {
                continue;
            }
            slot.batch = None;
            slot.tables.resize_with(batch.num_tables(), Vec::new);
            self.scratch.resize_with(batch.num_tables(), Vec::new);
            let buffers = slot.tables.iter_mut().zip(&mut self.scratch);
            let tasks = buffers
                .zip(batch.bags())
                .map(|((ids, scratch), (_, bag))| {
                    let n = bag.total_lookups();
                    ids.clear();
                    ids.reserve(n);
                    scratch.resize(sort_scratch_len(n), 0);
                    move || bag.unique_ids_into(ids, scratch)
                })
                .collect();
            let fan_out =
                batch.num_tables() >= 2 && batch.total_lookups() >= PLAN_FAN_OUT_MIN_UNIQUES;
            let pool = if fan_out { pool } else { WorkerPool::inline() };
            let (hottest, _) = pool.run_tasks(tasks)?;
            slot.hottest = hottest.into_iter().max().unwrap_or(0);
            slot.batch = Some(j);
        }
        Ok(())
    }

    /// Per-table sorted unique IDs of batch `j`: `Some` for every batch in
    /// reach of the last [`advance`](UniqueWindow::advance) (and for an
    /// older one whose slot has not been reused yet), `None` otherwise —
    /// always for an index past the end of the trace.
    pub(crate) fn get(&self, j: usize) -> Option<&[Vec<u64>]> {
        self.slot(j).map(|slot| slot.tables.as_slice())
    }

    /// The most lookups any one row of any table gets in batch `j` (the
    /// longest run of equal IDs its dedup met), whenever
    /// [`UniqueWindow::get`] has the batch.
    pub(crate) fn hottest(&self, j: usize) -> Option<u64> {
        self.slot(j).map(|slot| slot.hottest)
    }

    fn slot(&self, j: usize) -> Option<&WindowSlot> {
        let slot = &self.slots[j % self.slots.len()];
        (slot.batch == Some(j)).then_some(slot)
    }
}

/// Deepest look-ahead [`plan_table`] hands a manager: a valid window is at
/// most 31 batches wide
/// ([`WindowConfig::validate`](crate::WindowConfig::validate)), one of
/// which is the current batch, and a manager ignores futures beyond its
/// own window anyway.
pub(crate) const MAX_FUTURE_DEPTH: usize = 30;

/// Unique IDs in a mini-batch (summed over its tables) from which
/// \[Plan\]'s table shards fan out over the worker pool. The same floor
/// counts the lookups from which a batch entering the [`UniqueWindow`] is
/// deduplicated by table side by side, and the rows from which a
/// [`Pipeline::prewarm`](crate::Pipeline::prewarm) fills its tables side
/// by side.
///
/// Derivation (the \[Plan\] sweep of `cargo run --release -p sp-bench
/// --bin calibrate_schedule`, 2-vCPU host; tables in docs/perf.md, "A pool
/// that costs microseconds"). Measured through the whole pipeline, not
/// around the region: the stages behind \[Plan\] read plans another CPU
/// wrote, and on a shared host the second CPU is not always free. On the
/// persistent pool (≈ 2 µs a region, see [`WorkerPool::run_tasks`]),
/// over 13 sweeps with the functional shapes fanned out, `copy_bound`'s
/// (1 021 unique IDs in 1 024 lookups) won 17 of 55 pairs, `train_bound`'s
/// (3.8 k) 38 of 65, `default_auto`'s (3.4 k) 57 of 65 and `plan_bound`'s
/// (16 k, 1.06–1.32×) 56 of 65; the analytic shapes won every pair
/// (1.7–2.2×). One sweep's five pairs read this host's noise — even
/// `plan_bound`'s shape lost a pair in seven of them — so the floor rule
/// (the power of two over the largest functional shape that did not win)
/// is applied to the pooled pairs, and in lookups, the dedup's count:
/// 2 048 keeps `copy_bound` inline. At 4 096 instead, `supervised`'s dedup
/// (4 096 lookups) fanned out without its \[Plan\] (3.4 k) and the harness
/// read it 0.945× (0 of 6 rounds).
///
/// [`WorkerPool::run_tasks`]: crate::WorkerPool::run_tasks
pub const PLAN_FAN_OUT_MIN_UNIQUES: usize = 2_048;

/// Dense-step FLOPs ([`DenseBackend::traffic`]'s `gpu_flops`) from which
/// \[Train\] hands the dense step \[Plan\]'s worker pool
/// ([`DenseBackend::step_on`]).
///
/// Derivation (the dense sweep of `cargo run --release -p sp-bench --bin
/// calibrate_schedule`, 2-vCPU host; tables in docs/perf.md, "A pool that
/// costs microseconds"): `train_bound`'s model, one step at pool width 1
/// against width 2, five alternating pairs per batch. On the persistent
/// pool the two regions cost microseconds, so what is left below the
/// floor is cutting a small batch into eight sample ranges: the pool lost
/// every pair up to 6.4 MFLOP a step (batch 16: 0.76–0.80×), won 5 and 2
/// of 5 at 12.8 MFLOP (batch 32: 1.17×, 0.92×) and every pair at
/// 25.5 MFLOP (batch 64: 1.25–1.33×). The floor is the power of two over
/// batch 32, the largest batch under the first one that won every pair
/// that did not, as for [`PLAN_FAN_OUT_MIN_UNIQUES`]; the single pairs
/// lost above it, where a sweep's whole column drifted with the host, are
/// in the tables.
///
/// [`DenseBackend::traffic`]: crate::DenseBackend::traffic
/// [`DenseBackend::step_on`]: crate::DenseBackend::step_on
pub const DENSE_FAN_OUT_MIN_FLOPS: u64 = 16_777_216;

/// \[Plan\], one table of one mini-batch: advance table `t`'s scratchpad
/// manager, pick its fills and victims. `current` is the batch's sorted
/// unique IDs for the table; `upcoming` the unique IDs of the batches
/// after it, nearest first and *all tables each* (as
/// [`UniqueWindow::get`] hands them out), whose table-`t` rows are
/// registered so they cannot be evicted (the paper's look-*forward*).
///
/// Managers are per table and share nothing (paper §IV-G), so the tables
/// of a batch are independent tasks: the \[Plan\] stage runs one per
/// table, side by side when the batch is big enough, and every plan is
/// the same whichever thread computed it.
///
/// `plan` is overwritten in place: a recycled payload's plans keep their
/// buffers, so the steady state plans without allocating.
/// [`TablePlan::lookup_unique`] is left empty — it is a pure function of
/// the plan and the bag that only the \[Train\] gather/scatter reads, so
/// \[Train\] builds it ([`index_lookups`]) and the managers' critical
/// path does not pay for it.
///
/// # Errors
///
/// Returns [`ScratchError::CapacityExhausted`], tagged with `t`, if the
/// scratchpad cannot hold the window's working set. The stage reports the
/// lowest failing table. What the *other* managers hold afterwards is
/// not defined: planned one after another, the tables behind the failing
/// one were never advanced; planned side by side, every table has been.
/// Neither state is one to continue from — a plain run ends there, and
/// [`Pipeline::run_supervised`](crate::Pipeline::run_supervised) puts
/// every manager back to its segment snapshot whichever it was.
///
/// # Panics
///
/// Panics if `upcoming` is deeper than [`MAX_FUTURE_DEPTH`].
pub(crate) fn plan_table(
    t: usize,
    manager: &mut ScratchpadManager,
    current: &[u64],
    upcoming: &[&[Vec<u64>]],
    plan: &mut TablePlan,
) -> Result<(), ScratchError> {
    let mut futures: [&[u64]; MAX_FUTURE_DEPTH] = [&[]; MAX_FUTURE_DEPTH];
    for (future, per_table) in futures.iter_mut().zip(upcoming) {
        *future = &per_table[t];
    }
    manager
        .plan_into(current, &futures[..upcoming.len()], plan)
        .map_err(|e| match e {
            ScratchError::CapacityExhausted { cycle, slots, .. } => {
                ScratchError::CapacityExhausted {
                    table: t,
                    cycle,
                    slots,
                }
            }
            other => other,
        })
}

/// \[Plan\] traffic: the sparse-ID upload and the Hit-Map probes of one
/// mini-batch whose sorted unique IDs per table are `current`.
pub(crate) fn plan_traffic(batch: &SparseBatch, current: &[Vec<u64>]) -> Traffic {
    let mut traffic = Traffic::ZERO;
    for (t, ids) in current.iter().enumerate() {
        // Deduplicated sparse-ID upload: one u32 slot per unique ID plus
        // the u32 per-lookup index into the unique set — what the Train
        // gather actually consumes — instead of the raw u64 per lookup.
        let lookups = batch.bag(t).total_lookups() as u64;
        let uniques = ids.len() as u64;
        traffic.pcie_h2d_bytes += (uniques + lookups) * 4;
        // Hit-Map probes: one per unique ID.
        traffic.gpu_random_read_bytes += uniques * 16;
        traffic.gpu_ops += 1;
    }
    traffic.pcie_ops += 1;
    traffic
}

/// Fills [`TablePlan::lookup_unique`]: for every raw lookup of `bag` (in
/// bag order), the index of its ID within the plan's sorted `unique_ids`.
/// The deduplicated Train gather fans out through it, so each unique row
/// is resolved exactly once per (table, batch). Then fills its transpose,
/// [`TablePlan::unique_offsets`] and [`TablePlan::unique_samples`], which
/// the Train scatter gathers each row's gradients through: a counting
/// sort. The pipeline runs the search in each gather shard, over its own
/// lookups, and the transpose in each table's scatter task.
///
/// # Panics
///
/// Panics if a bag ID is missing from the plan (a planning bug — the
/// always-hit guarantee makes this impossible with correct windows).
pub fn index_lookups(plan: &mut TablePlan, bag: &TableBag) {
    plan.lookup_unique.resize(bag.ids().len(), 0);
    search_lookups(&plan.unique_ids, bag.ids(), &mut plan.lookup_unique);
    transpose_lookups(plan, bag);
}

/// The search half of [`index_lookups`] over a run of lookups: `out[j]`
/// becomes the index of `ids[j]` within the sorted `unique_ids`.
pub(crate) fn search_lookups(unique_ids: &[u64], ids: &[u64], out: &mut [u32]) {
    debug_assert!(
        unique_ids.windows(2).all(|w| w[0] <= w[1]),
        "plan ids must be sorted"
    );
    for (k, &id) in out.iter_mut().zip(ids) {
        *k = unique_ids
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("id {id} missing from plan")) as u32;
    }
}

/// The transpose half of [`index_lookups`]. Prefix sums turn each row's
/// lookup count into its end; walked sample by sample backwards, every
/// lookup steps its row's offset down one and lands there: a row lists
/// its samples ascending, and its offset ends at the row's start.
pub(crate) fn transpose_lookups(plan: &mut TablePlan, bag: &TableBag) {
    let num_unique = plan.unique_ids.len();
    plan.unique_offsets.clear();
    plan.unique_offsets.resize(num_unique + 1, 0);
    for &k in &plan.lookup_unique {
        plan.unique_offsets[k as usize] += 1;
    }
    for k in 1..=num_unique {
        plan.unique_offsets[k] += plan.unique_offsets[k - 1];
    }
    plan.unique_samples.resize(bag.ids().len(), 0);
    for (s, w) in bag.offsets().windows(2).enumerate().rev() {
        for &k in &plan.lookup_unique[w[0] as usize..w[1] as usize] {
            plan.unique_offsets[k as usize] -= 1;
            plan.unique_samples[plan.unique_offsets[k as usize] as usize] = s as u32;
        }
    }
}

/// \[Collect\] traffic: CPU-table gathers of missed rows and scratchpad
/// gathers of victim rows.
pub(crate) fn collect_traffic(plans: &[TablePlan], row_bytes: u64) -> Traffic {
    let mut traffic = Traffic::ZERO;
    for plan in plans {
        let fills = plan.fills.len() as u64;
        let evicts = plan.evictions.len() as u64;
        traffic.cpu_random_read_bytes += fills * row_bytes;
        traffic.cpu_stream_write_bytes += fills * row_bytes;
        traffic.gpu_random_read_bytes += evicts * row_bytes;
        traffic.gpu_stream_write_bytes += evicts * row_bytes;
        if fills > 0 {
            traffic.cpu_ops += 1;
        }
        if evicts > 0 {
            traffic.gpu_ops += 1;
        }
    }
    traffic
}

/// \[Collect\], miss half of one table, direct to arena: writes the
/// planned fills' rows into the pre-sized table block of a
/// [`StagedRows::prepare`]d arena — the only staging path (no
/// intermediate copy), addressable by any worker. Fills are already
/// unique per batch (Plan deduplicates), so each missed row is staged
/// exactly once.
///
/// # Panics
///
/// Panics if `block.len() != plan.fills.len() × dim`.
pub fn stage_misses_into(plan: &TablePlan, cpu_table: &EmbeddingTable, block: &mut [f32]) {
    let dim = cpu_table.dim();
    assert_eq!(block.len(), plan.fills.len() * dim, "miss block shape");
    for (dst, f) in block.chunks_exact_mut(dim).zip(&plan.fills) {
        dst.copy_from_slice(cpu_table.row(f.row as usize));
    }
}

/// \[Collect\], eviction half of one table, direct to arena: writes the
/// planned victims' rows into the pre-sized table block of a
/// [`StagedRows::prepare`]d arena — the only staging path (no
/// intermediate copy), addressable by any worker.
///
/// # Panics
///
/// Panics if `block.len() != plan.evictions.len() × dim`.
pub fn stage_evictions_into(plan: &TablePlan, storage: &EmbeddingTable, block: &mut [f32]) {
    let dim = storage.dim();
    assert_eq!(block.len(), plan.evictions.len() * dim, "evict block shape");
    for (dst, ev) in block.chunks_exact_mut(dim).zip(&plan.evictions) {
        dst.copy_from_slice(storage.row(ev.slot as usize));
    }
}

/// \[Exchange\] — duplex PCIe transfer accounting (the data movement
/// itself is the staging arenas changing owner).
pub(crate) fn exchange_traffic(plans: &[TablePlan], row_bytes: u64) -> Traffic {
    let mut traffic = Traffic::ZERO;
    for plan in plans {
        traffic.pcie_h2d_bytes += plan.fills.len() as u64 * row_bytes;
        traffic.pcie_d2h_bytes += plan.evictions.len() as u64 * row_bytes;
    }
    if traffic.pcie_bytes() > 0 {
        traffic.pcie_ops += 2;
    }
    traffic
}

/// \[Insert\] traffic: CPU-table write-backs and scratchpad fills.
pub(crate) fn insert_traffic(plans: &[TablePlan], row_bytes: u64) -> Traffic {
    let mut traffic = Traffic::ZERO;
    for plan in plans {
        traffic.cpu_random_write_bytes += plan.evictions.len() as u64 * row_bytes;
        traffic.gpu_random_write_bytes += plan.fills.len() as u64 * row_bytes;
        if !plan.evictions.is_empty() {
            traffic.cpu_ops += 1;
        }
        if !plan.fills.is_empty() {
            traffic.gpu_ops += 1;
        }
    }
    traffic
}

/// \[Insert\], write-back half of one table: land the staged victim rows
/// in the CPU table.
pub fn insert_evictions(
    t: usize,
    plan: &TablePlan,
    staged_evict: &StagedRows,
    cpu_table: &mut EmbeddingTable,
) {
    for (k, ev) in plan.evictions.iter().enumerate() {
        cpu_table
            .row_mut(ev.row as usize)
            .copy_from_slice(staged_evict.row(t, k));
    }
}

/// \[Insert\], fill half of one table: land the staged missed rows in
/// their assigned scratchpad slots.
pub fn insert_fills(
    t: usize,
    plan: &TablePlan,
    staged_miss: &StagedRows,
    storage: &mut EmbeddingTable,
) {
    for (k, f) in plan.fills.iter().enumerate() {
        storage
            .row_mut(f.slot as usize)
            .copy_from_slice(staged_miss.row(t, k));
    }
}

/// \[Train\] traffic of the embedding half under the deduplicated
/// layout: each unique row is gathered from GPU memory once and fanned
/// out to its lookups through the `u32` index (a streaming read), the
/// backward pass sums pooled gradients per unique row (charged as a
/// streaming read of the pooled grads and a streaming write of one summed
/// gradient per unique row — no raw-lookup-sized duplicate buffer), and
/// the SGD scatter read-modify-writes each unique row once. All against
/// GPU memory (the always-hit guarantee); the dense backend's own
/// traffic is added by the caller.
pub(crate) fn train_traffic(plans: &[TablePlan], batch: &SparseBatch, dim: usize) -> Traffic {
    let mut traffic = Traffic::ZERO;
    let rb = dim as u64 * 4;
    for (t, plan) in plans.iter().enumerate() {
        let bag = batch.bag(t);
        let lookups = bag.total_lookups() as u64;
        let uniques = plan.num_unique() as u64;
        // Forward: gather each unique row once, fan out via the index.
        traffic.gpu_random_read_bytes += primitives::gather_bytes(uniques, dim as u32);
        traffic.gpu_stream_read_bytes += lookups * rb;
        traffic.gpu_stream_write_bytes +=
            primitives::reduce_output_bytes(bag.batch_size() as u64, dim as u32);
        // Backward: sum pooled grads per unique row.
        traffic.gpu_stream_read_bytes += lookups * rb;
        traffic.gpu_stream_write_bytes += uniques * rb;
        // SGD scatter: one RMW per unique row.
        traffic.gpu_random_read_bytes += uniques * rb;
        traffic.gpu_random_write_bytes += uniques * rb;
        traffic.gpu_ops += 4;
    }
    traffic
}

/// The record of mini-batch `index`, whose sorted unique IDs per table
/// are `current`, counted from the plans \[Plan\] just made for it: its
/// cache events and each stage's traffic, the dense backend's excepted
/// (\[Train\] adds that, and the loss).
pub(crate) fn plan_record(
    index: usize,
    batch: &SparseBatch,
    current: &[Vec<u64>],
    plans: &[TablePlan],
    dim: usize,
) -> IterationRecord {
    let row_bytes = dim as u64 * 4;
    IterationRecord {
        index,
        hits: plans.iter().map(|t| t.hits).sum(),
        misses: plans.iter().map(|t| t.misses).sum(),
        evictions: plans.iter().map(|t| t.evictions.len() as u64).sum(),
        total_lookups: batch.total_lookups() as u64,
        unique_rows: plans.iter().map(|t| t.num_unique() as u64).sum(),
        loss: 0.0,
        traffic: StageTraffic {
            plan: plan_traffic(batch, current),
            collect: collect_traffic(plans, row_bytes),
            exchange: exchange_traffic(plans, row_bytes),
            insert: insert_traffic(plans, row_bytes),
            train: train_traffic(plans, batch, dim),
        },
    }
}

/// \[Train\], forward half of one table: gather + sum-pool the batch's
/// rows out of the scratchpad into the pooled arena slice, resolving each
/// lookup through the plan's deduplicated `lookup_unique → unique_slots`
/// indirection (no hash probe per lookup).
///
/// # Panics
///
/// Panics if the plan's lookup index was not built for this bag (see
/// [`index_lookups`]).
pub fn gather_pooled(storage: &EmbeddingTable, bag: &TableBag, plan: &TablePlan, out: &mut [f32]) {
    gather_pooled_range(storage, bag, plan, 0, bag.batch_size(), out);
}

/// [`gather_pooled`] restricted to the sample range `lo..hi` — the
/// batch-chunk shard a train worker owns. Stitching the full range from
/// any partition reproduces [`gather_pooled`] bit-for-bit (each sample's
/// pooled sum is computed whole by exactly one shard).
pub fn gather_pooled_range(
    storage: &EmbeddingTable,
    bag: &TableBag,
    plan: &TablePlan,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    assert_eq!(plan.lookup_unique.len(), bag.ids().len(), "stale index");
    let lookups = bag.offsets()[lo] as usize..bag.offsets()[hi] as usize;
    ops::gather_reduce_indexed(
        storage,
        bag,
        &plan.lookup_unique[lookups],
        &plan.unique_slots,
        lo,
        hi,
        out,
    );
}

/// \[Train\], backward half of one table: for each of the plan's unique
/// rows, sum the dense backend's pooled gradients of the samples that
/// looked it up (the transpose [`index_lookups`] built, in occurrence
/// order, matching the duplicate→coalesce reference bit-for-bit) and
/// SGD-scatter the sum into the scratchpad — no per-lookup duplicate
/// buffer, no per-call sort, and nothing allocated.
///
/// # Panics
///
/// Panics if the plan's transpose was not built for this bag (see
/// [`index_lookups`]).
pub fn scatter_grads(
    storage: &mut EmbeddingTable,
    bag: &TableBag,
    grads: &[f32],
    lr: f32,
    plan: &TablePlan,
) {
    assert_eq!(
        plan.unique_samples.len(),
        bag.total_lookups(),
        "transpose must be of this bag"
    );
    ops::embedding_backward_transposed(
        storage,
        grads,
        lr,
        &plan.unique_slots,
        &plan.unique_offsets,
        &plan.unique_samples,
    );
}

/// Final-flush traffic for one table with `resident_rows` live scratchpad
/// rows: GPU gather → PCIe D2H → CPU scatter.
pub(crate) fn flush_traffic(resident_rows: u64, row_bytes: u64) -> Traffic {
    Traffic {
        gpu_random_read_bytes: resident_rows * row_bytes,
        pcie_d2h_bytes: resident_rows * row_bytes,
        cpu_random_write_bytes: resident_rows * row_bytes,
        ..Traffic::ZERO
    }
}

/// Final flush of one table: copy every resident scratchpad row that
/// passes `keep` back to the CPU table. The pipeline filters on its
/// data-residency shadow, so rows whose data never arrived under a broken
/// window are skipped.
pub fn flush_rows(
    storage: &EmbeddingTable,
    cpu_table: &mut EmbeddingTable,
    residents: &[(u64, u32)],
    mut keep: impl FnMut(u64, u32) -> bool,
) {
    for &(row, slot) in residents {
        if keep(row, slot) {
            cpu_table
                .row_mut(row as usize)
                .copy_from_slice(storage.row(slot as usize));
        }
    }
}

/// A one-sample batch whose lookups in table `t` are `tables[t]` (shared
/// by this module's and [`crate::stage`]'s window tests).
#[cfg(test)]
pub(crate) fn batch_of(tables: &[Vec<u64>]) -> SparseBatch {
    SparseBatch::new(
        tables
            .iter()
            .map(|ids| TableBag::from_samples(std::slice::from_ref(ids)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_trace() -> impl Strategy<Value = Vec<SparseBatch>> {
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u64..40, 0..12), 2..3),
            0..14,
        )
        .prop_map(|trace| trace.iter().map(|tables| batch_of(tables)).collect())
    }

    fn advance(window: &mut UniqueWindow, batches: &[SparseBatch], i: usize) {
        window
            .advance(batches, i, WorkerPool::inline())
            .expect("dedup");
    }

    /// The most lookups any one row of any table gets in `batch`, by a
    /// comparison sort and a scan.
    fn hottest(batch: &SparseBatch) -> u64 {
        let mut most = 0;
        for (_, bag) in batch.bags() {
            let mut ids = bag.ids().to_vec();
            ids.sort_unstable();
            let mut run = 0;
            for (k, id) in ids.iter().enumerate() {
                run = if k > 0 && ids[k - 1] == *id {
                    run + 1
                } else {
                    1
                };
                most = most.max(run);
            }
        }
        most
    }

    /// Everything [Plan] and the victim-safety check may ask the window
    /// for after `advance(i)` — batches `i - past ..= i + ahead`, clipped
    /// to the trace — is there; whatever else it still answers for is
    /// right too; and nothing past the end of the trace ever is.
    fn assert_window_matches(
        window: &UniqueWindow,
        batches: &[SparseBatch],
        i: usize,
        past: usize,
        ahead: usize,
    ) {
        for j in 0..batches.len() + ahead + 2 {
            let in_reach = (i.saturating_sub(past)..=i + ahead).contains(&j) && j < batches.len();
            match window.get(j) {
                Some(per_table) => {
                    assert!(j < batches.len(), "batch {j} is past the trace");
                    for (t, bag) in batches[j].bags() {
                        assert_eq!(per_table[t], bag.unique_ids(), "batch {j} table {t}");
                    }
                    assert_eq!(window.hottest(j), Some(hottest(&batches[j])), "batch {j}");
                }
                None => assert!(!in_reach, "batch {j} missing at i = {i}"),
            }
        }
        let (held, capacity) = window.held_and_capacity();
        assert!(held <= capacity);
        assert_eq!(capacity, past + 1 + ahead, "the ring never grows");
    }

    proptest! {
        /// The window returns exactly `TableBag::unique_ids` for every
        /// `(j, t)` in reach of the index it was advanced to — walking
        /// forward, repeating an index (a supervised retry), rewinding (a
        /// rolled-back segment) and across two runs over different traces
        /// — and never holds more batches than `past + 1 + ahead`.
        #[test]
        fn unique_window_serves_exactly_the_batches_in_reach(
            first in arb_trace(),
            second in arb_trace(),
            past in 0usize..4,
            ahead in 0usize..4,
            hops in proptest::collection::vec((0usize..14, 0usize..3), 0..24),
        ) {
            let mut window = UniqueWindow::new(past, ahead);
            for trace in [&first, &second] {
                // What `run` does on entry; without it, the second trace
                // would be served the first one's IDs.
                window.reset();
                prop_assert_eq!(window.held_and_capacity().0, 0);
                for i in 0..trace.len() {
                    advance(&mut window, trace, i);
                    assert_window_matches(&window, trace, i, past, ahead);
                }
                // Arbitrary jumps: back, forward, and on the spot.
                for &(at, repeats) in &hops {
                    if trace.is_empty() {
                        break;
                    }
                    let i = at % trace.len();
                    for _ in 0..=repeats {
                        advance(&mut window, trace, i);
                        assert_window_matches(&window, trace, i, past, ahead);
                    }
                }
            }
        }
    }

    /// Over the fan-out floor an entering batch is deduplicated by table
    /// side by side; which thread sorted a table must not show. The
    /// pipeline's window, walked through its first fill (three batches
    /// at once), to the end of the trace, back (a rewind re-deduplicates)
    /// and forward again, holds the same IDs and counts at widths 1, 2
    /// and 4 — and the IDs `TableBag::unique_ids` gives.
    #[test]
    fn unique_window_is_the_same_at_every_pool_width() {
        use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

        let batches = TraceGenerator::new(TraceConfig {
            num_tables: 4,
            rows_per_table: 1 << 20,
            lookups_per_sample: 8,
            batch_size: 1_024,
            profile: LocalityProfile::Medium,
            seed: 0xDED0,
        })
        .take_batches(7);
        assert!(batches[0].total_lookups() >= PLAN_FAN_OUT_MIN_UNIQUES);
        let walk = [0, 1, 2, 3, 4, 5, 6, 6, 1, 0, 3, 6];
        let snapshot = |window: &UniqueWindow| -> Vec<Option<(Vec<Vec<u64>>, u64)>> {
            (0..batches.len() + 3)
                .map(|j| Some((window.get(j)?.to_vec(), window.hottest(j)?)))
                .collect()
        };
        let want: Vec<(Vec<Vec<u64>>, u64)> = (batches.iter())
            .map(|batch| {
                let ids = batch.bags().map(|(_, bag)| bag.unique_ids()).collect();
                (ids, hottest(batch))
            })
            .collect();
        let mut seen: Vec<Vec<_>> = Vec::new();
        for width in [1, 2, 4] {
            let mut window = UniqueWindow::new(3, 2);
            let states: Vec<_> = walk
                .iter()
                .map(|&i| {
                    window
                        .advance(&batches, i, WorkerPool::new(width))
                        .expect("dedup");
                    snapshot(&window)
                })
                .collect();
            for (state, &i) in states.iter().zip(&walk) {
                for (j, held) in state.iter().enumerate() {
                    if let Some(held) = held {
                        assert_eq!(held, &want[j], "width {width} batch {j}");
                    } else {
                        let in_reach = j + 3 >= i && j <= i + 2 && j < batches.len();
                        assert!(!in_reach, "width {width}: batch {j} missing at {i}");
                    }
                }
            }
            seen.push(states);
        }
        assert!(seen.iter().all(|states| *states == seen[0]));
    }

    #[test]
    fn unique_window_dedups_each_batch_once_going_forward() {
        // Walking forward, a batch already in the window is not touched
        // again: poison the buffers behind the window's back and check the
        // poison survives until the batch leaves.
        let trace: Vec<SparseBatch> = (0..8u64).map(|i| batch_of(&[vec![i, i, i + 1]])).collect();
        let mut window = UniqueWindow::new(1, 2);
        advance(&mut window, &trace, 0);
        for slot in &mut window.slots {
            if slot.batch == Some(2) {
                slot.tables[0] = vec![777];
            }
        }
        advance(&mut window, &trace, 1);
        advance(&mut window, &trace, 2);
        assert_eq!(
            window.get(2).unwrap()[0],
            vec![777],
            "batch 2 was re-deduplicated"
        );
        advance(&mut window, &trace, 2);
        assert_eq!(
            window.get(2).unwrap()[0],
            vec![777],
            "a repeated index is free"
        );
        // Once batch 6 takes its slot (6 % 4 == 2) the poison is gone, and
        // rewinding rebuilds batch 2 from the trace.
        advance(&mut window, &trace, 4);
        assert!(window.get(2).is_none());
        advance(&mut window, &trace, 2);
        assert_eq!(window.get(2).unwrap()[0], vec![2, 3]);
    }

    #[test]
    fn staged_rows_round_trip() {
        let mut s = StagedRows::new(2);
        s.prepare(&[1]);
        s.table_blocks_mut()[0].copy_from_slice(&[9.0, 9.0]); // a previous iteration
        s.prepare(&[2, 0, 1]);
        let mut blocks = s.table_blocks_mut().into_iter();
        let (b0, b1, b2) = (
            blocks.next().unwrap(),
            blocks.next().unwrap(),
            blocks.next().unwrap(),
        );
        assert!(blocks.next().is_none());
        assert!(b1.is_empty());
        b2.copy_from_slice(&[5.0, 6.0]); // out of order on purpose
        b0.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.table_rows(0), 2);
        assert_eq!(s.table_rows(1), 0);
        assert_eq!(s.table_rows(2), 1);
        assert_eq!(s.row(0, 1), &[3.0, 4.0]);
        assert_eq!(s.row(2, 0), &[5.0, 6.0]);
        assert_eq!(s.total_rows(), 3);
        s.reset();
        assert_eq!(s.total_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn staged_rows_bounds_checked_per_table() {
        let mut s = StagedRows::new(2);
        s.prepare(&[1, 1]);
        let _ = s.row(0, 1); // row 1 belongs to table 1, not table 0
    }

    proptest! {
        /// `index_lookups` fills one relation both ways: each lookup's
        /// unique index, and the transpose — `num_unique + 1` monotone
        /// offsets from 0 to the lookup count and, per unique index, the
        /// sample of each of its lookups, ascending and once per lookup —
        /// whatever a recycled plan held before.
        #[test]
        fn index_lookups_fills_the_index_and_its_transpose(
            samples in proptest::collection::vec(proptest::collection::vec(0u64..24, 0..6), 1..8),
            stale in 0usize..60
        ) {
            let bag = TableBag::from_samples(&samples);
            let mut plan = TablePlan {
                unique_ids: bag.unique_ids(),
                lookup_unique: vec![7; stale],
                unique_offsets: vec![7; stale],
                unique_samples: vec![7; stale],
                ..TablePlan::default()
            };
            index_lookups(&mut plan, &bag);
            let (ids, offsets) = (&plan.unique_ids, &plan.unique_offsets);
            for (&id, &k) in bag.ids().iter().zip(&plan.lookup_unique) {
                prop_assert_eq!(ids[k as usize], id);
            }
            prop_assert_eq!(offsets.len(), ids.len() + 1);
            prop_assert_eq!(offsets[0], 0);
            prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(offsets[ids.len()] as usize, bag.total_lookups());
            for (k, id) in ids.iter().enumerate() {
                let expect: Vec<u32> = (bag.samples().enumerate())
                    .flat_map(|(s, sample)| sample.iter().filter(|&x| x == id).map(move |_| s as u32))
                    .collect();
                let row = &plan.unique_samples[offsets[k] as usize..offsets[k + 1] as usize];
                prop_assert_eq!(row, &expect[..]);
            }
        }
    }

    #[test]
    fn payload_pool_recycles_allocations() {
        let mut pool = PayloadPool::default();
        let mut p = pool.take(4);
        p.rearm(0);
        p.staged_miss.prepare(&[1]);
        p.plans.push(TablePlan {
            unique_ids: Vec::with_capacity(64),
            ..TablePlan::default()
        });
        p.record.hits = 3;
        p.record.loss = 0.5;
        p.record.traffic.train.gpu_ops = 1;
        pool.release(p);
        let mut p = pool.take(4);
        p.rearm(7);
        assert_eq!(p.record.index, 7);
        assert_eq!(p.staged_miss.total_rows(), 0, "re-arm must reset arenas");
        assert_eq!((p.record.hits, p.record.loss), (0, 0.0), "and the record");
        assert_eq!(p.record.traffic, StageTraffic::default());
        assert!(
            p.plans[0].unique_ids.capacity() >= 64,
            "plans ride along for [Plan] to refill in place"
        );
    }

    #[test]
    fn train_arena_layout_and_split() {
        let mut a = TrainArena::new();
        a.prepare(2, 3, 2);
        a.pooled_table_mut(1).copy_from_slice(&[9.0; 6]);
        let (view, grads) = a.split();
        assert_eq!(view.num_tables(), 2);
        assert_eq!(view.table(1), &[9.0; 6]);
        assert_eq!(grads.len(), 12);
        grads.fill(1.0);
        assert_eq!(a.grads_table(0), &[1.0; 6]);
        // Re-preparing with a smaller shape keeps it consistent; contents
        // are deliberately NOT zeroed (the step contract overwrites them).
        a.prepare(1, 2, 2);
        assert_eq!(a.grads_table(0).len(), 4);
    }
}
