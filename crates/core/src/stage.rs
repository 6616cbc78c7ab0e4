//! The five stage bodies and the state they run against.
//!
//! What each row of the [`StageId`] table does to the in-flight
//! [`StagePayload`] of one mini-batch. [`PlanStage`] and [`TrainStage`]
//! keep state between mini-batches (the scratchpad managers and the
//! deduplicated window; the dense backend and its arena); \[Collect\],
//! \[Exchange\] and \[Insert\] own nothing. The model state they all work
//! on ([`SharedState`]) is owned by the
//! [`Pipeline`](crate::pipeline::Pipeline) and lent to every execution
//! through the [`StageCtx`], behind per-table locks because the overlapped
//! schedule runs different stages (of different mini-batches) at once;
//! [`barriers`] lists the only orderings that schedule has to add.
//!
//! \[Plan\] counts a batch's whole record where its plans are made: cache
//! events and every stage's embedding traffic, into the payload's
//! [`IterationRecord`](crate::IterationRecord). The stages after it read
//! the plans only to move rows, so in an analytic run they do nothing —
//! \[Train\] adds the dense backend's traffic, and the \[Exchange\] body is
//! empty in every run — and the plans stay with \[Plan\].
//!
//! The set of stages is fixed — this is not an extension point — and every
//! schedule runs exactly these five bodies, which is what makes the
//! schedules bit-identical by construction. The heavy lifting lives in the
//! free kernels of [`crate::stages`].

use embeddings::sparse::sort_ids;
use embeddings::{ops, EmbeddingTable, SparseBatch};
use memsim::Edge;
use parking_lot::Mutex;

use crate::backend::DenseBackend;
use crate::config::WindowConfig;
use crate::error::ScratchError;
use crate::faults::FaultInjector;
use crate::recovery::Journaled;
use crate::runtime::StageId;
use crate::scratchpad::{ScratchpadManager, TablePlan};
use crate::stages::{self, StagePayload, TrainArena, UniqueWindow};
use crate::telemetry::{Event, Lane, RunTelemetry};
use crate::workers::WorkerPool;

/// Everything a stage body is lent for one execution: the run it belongs
/// to (trace, model state, worker pool, hooks) and where in that run it
/// sits (mini-batch, lane). A driver builds one per call and re-points it
/// with [`StageCtx::at`].
#[derive(Clone, Copy)]
pub(crate) struct StageCtx<'a> {
    /// The model state every stage reads and writes; owned by the
    /// pipeline.
    pub shared: &'a SharedState,
    /// The full trace of mini-batches (stages look ahead and behind).
    pub batches: &'a [SparseBatch],
    /// Mini-batch index this execution processes.
    pub index: usize,
    /// Whether stages of different mini-batches overlap (false only for
    /// the sequential straw-man). Victim-safety distances only exist
    /// under overlap.
    pub pipelined: bool,
    /// Worker pool every stage's shard regions fan out over once they
    /// clear their floor: the pipeline's pool under the register
    /// schedules, which run one stage at a time and so leave its other
    /// CPUs idle while one runs; inline (width 1) under `Threaded`, whose
    /// dispatch threads already are the pool's threads. A region on it hands its tasks to the
    /// process's persistent workers in a few microseconds, each claiming
    /// the next task as it comes free. Sharding never changes results —
    /// only where the disjoint pieces are computed.
    pub workers: WorkerPool,
    /// The armed fault injector, if a fault plan is attached. `None` —
    /// the default — makes every injection hook a single branch.
    pub faults: Option<&'a FaultInjector>,
    /// The run's event log, if anyone observes the run. Same pattern.
    pub observer: Option<&'a RunTelemetry>,
    /// Where this execution is recorded: [`Lane::Main`], or the stage's
    /// own [`Lane::Stage`] under the overlapped schedule. Recorded with every
    /// event of the execution.
    pub lane: Lane,
}

impl<'a> StageCtx<'a> {
    /// The same run, seen from mini-batch `index` on `lane`.
    pub(crate) fn at(&self, index: usize, lane: Lane) -> Self {
        StageCtx {
            index,
            lane,
            ..*self
        }
    }

    /// The mini-batch this execution processes.
    fn batch(&self) -> &'a SparseBatch {
        &self.batches[self.index]
    }
}

/// A stage body as the drivers hold it; `bodies[s]` belongs to
/// `StageId::ALL[s]`.
pub(crate) type Body<'a> =
    dyn FnMut(&StageCtx<'_>, &mut StagePayload) -> Result<(), ScratchError> + Send + 'a;

/// Runs one shard region of `stage` — `tasks`, fanned out over `pool` —
/// records it in the run's event log and returns what the tasks returned,
/// in task order.
fn run_region<T: Send, F: FnOnce() -> T + Send>(
    ctx: &StageCtx<'_>,
    stage: StageId,
    pool: WorkerPool,
    tasks: Vec<F>,
) -> Result<Vec<T>, ScratchError> {
    let start_ns = ctx.observer.map_or(0, |observer| observer.now_ns());
    let (results, timings) = pool.run_tasks(tasks)?;
    if let Some(observer) = ctx.observer {
        observer.record(Event::Shards {
            iteration: ctx.index,
            stage: stage.name(),
            lane: ctx.lane,
            start_ns,
            width: pool.threads().min(timings.len()),
            timings,
        });
    }
    Ok(results)
}

/// Runs a region of `stage` that is sharded per table — task `t` works on
/// table `t`'s state only — over `pool`. An armed worker-panic fault makes
/// the task of the shard it names panic instead of running.
fn run_table_shards<T: Send, F: FnOnce() -> T + Send>(
    ctx: &StageCtx<'_>,
    stage: StageId,
    pool: WorkerPool,
    tasks: impl ExactSizeIterator<Item = F>,
) -> Result<Vec<T>, ScratchError> {
    let panic_task = ctx
        .faults
        .and_then(|f| f.worker_panic(ctx.index, stage, tasks.len()));
    let (index, name) = (ctx.index, stage.name());
    let tasks = tasks
        .enumerate()
        .map(|(t, task)| {
            move || {
                if panic_task == Some(t) {
                    panic!("injected worker panic (iteration {index}, stage {name}, shard {t})");
                }
                task()
            }
        })
        .collect();
    run_region(ctx, stage, pool, tasks)
}

/// The pipeline's two barriers, as edges of
/// [`Schedule::edges`](crate::Schedule::edges): before `waiter` runs
/// batch `i`, `watched` must have completed batch `i - lag`. They are
/// the only cross-batch orderings a stage needs
/// beyond "batches pass each stage in order"; everything they do not
/// cover is made disjoint by the Hold-mask `window` itself. Both are
/// \[Collect\]'s (see the paper's §IV-C hazard analysis):
///
/// * a victim slot chosen at Plan(i) may belong to batch i-(past+1),
///   whose final Train update must land before the slot is read out;
/// * a row missed by batch i may have been evicted by batch
///   i-(future+1), whose CPU write-back must land before the re-read.
pub(crate) fn barriers(window: WindowConfig) -> [Edge; 2] {
    let collect_after = |watched: StageId, distance: u32| Edge {
        waiter: StageId::Collect.index(),
        watched: watched.index(),
        lag: distance as usize + 1,
    };
    [
        collect_after(StageId::Train, window.past),
        collect_after(StageId::Insert, window.future),
    ]
}

/// Mutable model state worked on by the Collect, Insert and Train stages
/// (and the final flush): the GPU scratchpad storage, the CPU tables, and
/// the data-residency shadow that backs the hazard checker. Each table's
/// three stores sit behind their own locks so the threaded schedule can
/// interleave stage bodies; under the sync schedule the locks are
/// uncontended.
///
/// Each store is [`Journaled`]: the supervised runtime's undo journal of
/// a store lives in the same value, under the same lock, and a stage can
/// only write the store by naming the rows it is about to change. So the
/// journal is in mutation order by construction, and there is no second
/// lock to order.
#[derive(Debug)]
pub(crate) struct SharedState {
    /// Per-table GPU scratchpad storage, one row per slot (empty in
    /// analytic mode).
    pub storages: Vec<Mutex<Journaled<EmbeddingTable>>>,
    /// Per-table CPU embedding tables (empty in analytic mode).
    pub cpu_tables: Vec<Mutex<Journaled<EmbeddingTable>>>,
    /// Which row's *data* each slot actually holds right now (updated at
    /// \[Insert\] time, unlike the Hit-Map which runs ahead). Drives the
    /// always-hit hazard assertion (empty in analytic mode).
    pub data_resident: Vec<Mutex<Journaled<Vec<Option<u64>>>>>,
    /// Whether real embedding data moves (false = analytic mode).
    pub functional: bool,
    /// Whether the hazard checker is active.
    pub check_hazards: bool,
    /// Embedding vector width.
    pub dim: usize,
}

impl SharedState {
    pub(crate) fn row_bytes(&self) -> u64 {
        self.dim as u64 * 4
    }

    /// Makes the current state of every store its checkpoint (see
    /// [`Journaled::checkpoint`]), journaling the writes that follow if
    /// `armed`.
    pub(crate) fn checkpoint(&self, armed: bool) {
        for rows in self.cpu_tables.iter().chain(&self.storages) {
            rows.lock().checkpoint(armed);
        }
        for resident in &self.data_resident {
            resident.lock().checkpoint(armed);
        }
    }

    /// Rolls every store back to its last checkpoint. Only called by the
    /// supervisor between drives, when no stage body runs.
    pub(crate) fn rollback(&self) {
        for rows in self.cpu_tables.iter().chain(&self.storages) {
            rows.lock().rollback();
        }
        for resident in &self.data_resident {
            resident.lock().rollback();
        }
    }
}

/// \[Plan\] — owns the per-table scratchpad managers: advances the
/// Hit-Map, assigns slots, picks victims (Hold-mask permitting) and
/// registers the look-ahead window. Also owns the [`UniqueWindow`] — the
/// only copy of the trace's deduplicated IDs, bounded by the window — and
/// runs the victim-safety half of the hazard checker, which is a
/// *plan-time* property.
pub(crate) struct PlanStage {
    /// The per-table scratchpad managers.
    pub managers: Vec<ScratchpadManager>,
    future_depth: usize,
    /// Sorted unique IDs of batches `i - HAZARD_PAST ..= i +
    /// max(future_depth, HAZARD_FUTURE)`: everything planning and the
    /// victim-safety check read.
    window: UniqueWindow,
    /// Per batch of the run, its hottest row's lookup count, as the
    /// window's dedup found it: the report's `max_dup`.
    max_dup: Vec<u64>,
    /// Scratch of the victim-safety check: one table's evicted rows,
    /// sorted, and their sort's scratch.
    evicted: Vec<u64>,
    evicted_scratch: Vec<u64>,
    /// An analytic run's plans: no stage after \[Plan\] reads them, so
    /// one set serves the run instead of one per payload in flight.
    pub plans: Vec<TablePlan>,
}

impl PlanStage {
    pub(crate) fn new(managers: Vec<ScratchpadManager>, future_depth: usize) -> Self {
        PlanStage {
            managers,
            future_depth,
            window: UniqueWindow::new(HAZARD_PAST, future_depth.max(HAZARD_FUTURE)),
            max_dup: Vec::new(),
            evicted: Vec::new(),
            evicted_scratch: Vec::new(),
            plans: Vec::new(),
        }
    }

    /// Forgets the deduplicated window: batch indices are about to refer
    /// to a (possibly) different trace of `iterations` batches. Called at
    /// every run entry.
    pub(crate) fn begin_run(&mut self, iterations: usize) {
        self.window.reset();
        self.max_dup.clear();
        self.max_dup.resize(iterations, 0);
    }

    /// The run's per-batch hottest-row counts (every planned batch's; a
    /// re-planned one wrote the same count again).
    pub(crate) fn take_max_dup(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.max_dup)
    }

    /// The \[Plan\] body: one [`stages::plan_table`] task per table, side
    /// by side over `ctx.workers` when the batch clears
    /// [`stages::PLAN_FAN_OUT_MIN_UNIQUES`], one after another on this
    /// thread otherwise. Either way the plans, the error reported (the
    /// lowest failing table's) and everything downstream are the same.
    /// The payload leaves with the batch's record ([`stages::plan_record`])
    /// and, in a functional run, the plans; an analytic run plans into the
    /// stage's own set, lent to the payload while it is filled.
    pub(crate) fn execute(
        &mut self,
        ctx: &StageCtx<'_>,
        payload: &mut StagePayload,
    ) -> Result<(), ScratchError> {
        payload.rearm(ctx.index);
        let analytic = !ctx.shared.functional;
        if analytic {
            std::mem::swap(&mut self.plans, &mut payload.plans);
        }
        let planned = self.plan(ctx, payload);
        if analytic {
            std::mem::swap(&mut self.plans, &mut payload.plans);
        }
        planned
    }

    /// [`PlanStage::execute`] on the plans the payload holds.
    fn plan(&mut self, ctx: &StageCtx<'_>, payload: &mut StagePayload) -> Result<(), ScratchError> {
        // The one sort/dedup per (batch, table) of the whole run happens
        // here, as each batch enters the window — by table, over the same
        // pool and from the same floor as the plans below.
        self.window.advance(ctx.batches, ctx.index, ctx.workers)?;
        let i = ctx.index;
        self.max_dup[i] = self
            .window
            .hottest(i)
            .expect("window advanced to the planned batch");
        let current = self
            .window
            .get(i)
            .expect("window advanced to the planned batch");
        let mut upcoming: [&[Vec<u64>]; stages::MAX_FUTURE_DEPTH] = [&[]; stages::MAX_FUTURE_DEPTH];
        let mut depth = 0;
        while depth < self.future_depth.min(stages::MAX_FUTURE_DEPTH) {
            let Some(ahead) = self.window.get(i + 1 + depth) else {
                break;
            };
            upcoming[depth] = ahead;
            depth += 1;
        }
        let upcoming = &upcoming[..depth];

        let uniques: usize = current.iter().map(Vec::len).sum();
        let pool = if uniques >= stages::PLAN_FAN_OUT_MIN_UNIQUES && current.len() >= 2 {
            ctx.workers
        } else {
            WorkerPool::inline()
        };
        payload
            .plans
            .resize_with(self.managers.len(), TablePlan::default);
        // Sized here, so that a plan's buffers stay in this thread's malloc
        // arena whichever worker claims its table (docs/perf.md).
        for (plan, ids) in payload.plans.iter_mut().zip(current) {
            plan.unique_ids.clear();
            plan.unique_ids.reserve(ids.len());
            plan.unique_slots.clear();
            plan.unique_slots.reserve(ids.len());
        }
        let tasks = (self.managers.iter_mut().zip(&mut payload.plans).enumerate()).map(
            |(t, (manager, plan))| {
                move || stages::plan_table(t, manager, &current[t], upcoming, plan)
            },
        );
        // The region is recorded only when it left this thread: inline,
        // the stage span already says all there is, and the observer
        // streams of runs under the floor stay the ones
        // `tests/golden_observers.rs` pins.
        let region = StageCtx {
            observer: ctx.observer.filter(|_| !pool.is_inline()),
            ..*ctx
        };
        run_table_shards(&region, StageId::Plan, pool, tasks)?
            .into_iter()
            .collect::<Result<(), _>>()?;
        let dim = ctx.shared.dim;
        payload.record = stages::plan_record(i, ctx.batch(), current, &payload.plans, dim);
        if ctx.shared.check_hazards && ctx.pipelined {
            self.check_victim_safety(ctx.index, &payload.plans)?;
        }
        Ok(())
    }

    /// Asserts the paper's sliding-window guarantee: an evicted row must
    /// not be referenced by any batch in the hazard window
    /// `[i-past, i-1] ∪ [i+1, i+future]` — otherwise a RAW-②/③ (pending
    /// scratchpad write) or RAW-④ (pending CPU write-back racing a
    /// re-fetch) would occur in the pipeline.
    ///
    /// Linear in the plan and the window: each table's evicted rows are
    /// sorted once and merged against every window batch's (already
    /// sorted) unique IDs. Only when an intersection exists does
    /// [`PlanStage::find_victim_violation`] run to name it.
    fn check_victim_safety(&mut self, i: usize, plans: &[TablePlan]) -> Result<(), ScratchError> {
        for (t, plan) in plans.iter().enumerate() {
            if plan.evictions.is_empty() {
                continue;
            }
            self.evicted.clear();
            self.evicted.extend(plan.evictions.iter().map(|ev| ev.row));
            sort_ids(&mut self.evicted, &mut self.evicted_scratch);
            // Batches past either end of the trace are not in the window.
            let neighbours = (i.saturating_sub(HAZARD_PAST)..=i + HAZARD_FUTURE)
                .filter(|&j| j != i)
                .filter_map(|j| self.window.get(j));
            let mut lanes: [&[u64]; HAZARD_WINDOW] = [&[]; HAZARD_WINDOW];
            for (lane, per_table) in lanes.iter_mut().zip(neighbours) {
                *lane = &per_table[t];
            }
            if intersects_any(&self.evicted, lanes) {
                return Self::find_victim_violation(i, plans, &self.window);
            }
        }
        Ok(())
    }

    /// The victim-safety check one eviction at a time: binary-searches
    /// every evicted row in every window batch and reports the first
    /// violating eviction in plan order, RAW-2/3 before RAW-4. The slow
    /// path behind [`PlanStage::check_victim_safety`] — it builds the
    /// error message — and the reference the linear check is tested
    /// against.
    fn find_victim_violation(
        i: usize,
        plans: &[TablePlan],
        window: &UniqueWindow,
    ) -> Result<(), ScratchError> {
        let references = |j: usize, t: usize, row: u64| {
            window
                .get(j)
                .is_some_and(|per_table| per_table[t].binary_search(&row).is_ok())
        };
        for (t, plan) in plans.iter().enumerate() {
            for ev in &plan.evictions {
                for j in i.saturating_sub(HAZARD_PAST)..i {
                    if references(j, t, ev.row) {
                        return Err(ScratchError::HazardViolation {
                            detail: format!(
                                "plan {i} evicts row {} of table {t}, still referenced by \
                                 in-flight batch {j} (RAW-2/3)",
                                ev.row
                            ),
                        });
                    }
                }
                for j in i + 1..=i + HAZARD_FUTURE {
                    if references(j, t, ev.row) {
                        return Err(ScratchError::HazardViolation {
                            detail: format!(
                                "plan {i} evicts row {} of table {t}, needed by upcoming \
                                 batch {j} (RAW-4)",
                                ev.row
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Stage distance Train←Collect: how far back a batch may still be
/// writing the scratchpad rows it references.
const HAZARD_PAST: usize = StageId::Train.after(StageId::Collect);
/// Stage distance Insert←Collect: how far ahead a batch may re-fetch a
/// row whose write-back is still in flight.
const HAZARD_FUTURE: usize = StageId::Insert.after(StageId::Collect);

/// Batches in the hazard window besides the planning one.
const HAZARD_WINDOW: usize = HAZARD_PAST + HAZARD_FUTURE;

/// Whether ascending `a` shares an element with any of the ascending
/// `others`: one two-pointer merge per lane, all lanes stepped in the
/// same loop. A merge step is branch-free (both cursors advance by
/// comparison results) but its next loads depend on the previous step, so
/// a single merge is latency-bound; stepping the independent lanes
/// together keeps that many loads in flight.
fn intersects_any(a: &[u64], others: [&[u64]; HAZARD_WINDOW]) -> bool {
    let mut cursors = [(0usize, 0usize); HAZARD_WINDOW];
    let mut hit = false;
    loop {
        let mut live = false;
        for (cursor, b) in cursors.iter_mut().zip(others) {
            let (i, j) = *cursor;
            if i < a.len() && j < b.len() {
                let (x, y) = (a[i], b[j]);
                hit |= x == y;
                *cursor = (i + usize::from(x <= y), j + usize::from(y <= x));
                live = true;
            }
        }
        if !live {
            return hit;
        }
    }
}

/// \[Collect\] — gathers missed rows from the CPU tables and victim rows
/// from the scratchpad into the payload's staging arenas. Runs the
/// victim-residency (RAW-3) half of the hazard checker.
pub(crate) fn collect(ctx: &StageCtx<'_>, payload: &mut StagePayload) -> Result<(), ScratchError> {
    let shared = ctx.shared;
    if !shared.functional {
        return Ok(());
    }
    // The RAW-3 residency check stays serial: it is cheap, and a
    // deterministic error (first failing table wins) is part of the
    // schedule-equivalence contract.
    if shared.check_hazards {
        for (t, plan) in payload.plans.iter().enumerate() {
            let resident = shared.data_resident[t].lock();
            for ev in &plan.evictions {
                if resident[ev.slot as usize] != Some(ev.row) {
                    return Err(ScratchError::HazardViolation {
                        detail: format!(
                            "collect {}: victim slot {} of table {t} holds {:?}, \
                             expected row {} (RAW-3)",
                            ctx.index, ev.slot, resident[ev.slot as usize], ev.row
                        ),
                    });
                }
            }
        }
    }
    // Shard per table: each worker owns one table's pre-sized miss and
    // evict blocks.
    let miss_counts: Vec<usize> = payload.plans.iter().map(|p| p.fills.len()).collect();
    let evict_counts: Vec<usize> = payload.plans.iter().map(|p| p.evictions.len()).collect();
    let staged_rows: usize = miss_counts.iter().chain(&evict_counts).sum();
    payload.staged_miss.prepare(&miss_counts);
    payload.staged_evict.prepare(&evict_counts);
    let tasks = payload
        .staged_miss
        .table_blocks_mut()
        .into_iter()
        .zip(payload.staged_evict.table_blocks_mut())
        .zip(&payload.plans)
        .enumerate()
        .map(|(t, ((miss_block, evict_block), plan))| {
            // One lock at a time: each guard drops with its statement.
            move || {
                stages::stage_misses_into(plan, &shared.cpu_tables[t].lock(), miss_block);
                stages::stage_evictions_into(plan, &shared.storages[t].lock(), evict_block);
            }
        });
    let pool = ctx.workers.for_work((staged_rows * shared.dim) as u64);
    run_table_shards(ctx, StageId::Collect, pool, tasks)?;
    Ok(())
}

/// \[Exchange\] — the duplex PCIe hop. Its data movement is the staging
/// arenas changing owner inside the payload, and \[Plan\] counts its
/// traffic ([`stages::exchange_traffic`]), so the body is empty. The stage
/// keeps its register: the window distances the hazard analysis derives
/// come from a five-register pipeline (docs/runtime-api.md).
pub(crate) fn exchange(_: &StageCtx<'_>, _: &mut StagePayload) -> Result<(), ScratchError> {
    Ok(())
}

/// \[Insert\] — lands staged missed rows in their scratchpad slots and
/// staged victim rows back in the CPU tables, then advances the
/// data-residency shadow (the hazard checker's ground truth).
pub(crate) fn insert(ctx: &StageCtx<'_>, payload: &mut StagePayload) -> Result<(), ScratchError> {
    let shared = ctx.shared;
    if !shared.functional {
        return Ok(());
    }
    // Shard per table: each worker lands one table's fills and
    // write-backs and advances its residency shadow.
    let moved_rows: usize = payload
        .plans
        .iter()
        .map(|p| p.fills.len() + p.evictions.len())
        .sum();
    let (staged_miss, staged_evict) = (&payload.staged_miss, &payload.staged_evict);
    let tasks = payload.plans.iter().enumerate().map(|(t, plan)| {
        // One lock at a time: each guard drops with its statement.
        move || {
            let evicted = plan.evictions.iter().map(|ev| ev.row as usize);
            let filled = plan.fills.iter().map(|f| f.slot as usize);
            let (table, store) = (&shared.cpu_tables[t], &shared.storages[t]);
            stages::insert_evictions(t, plan, staged_evict, table.lock().write(evicted));
            stages::insert_fills(t, plan, staged_miss, store.lock().write(filled.clone()));
            let mut resident = shared.data_resident[t].lock();
            let resident = resident.write(filled);
            for f in &plan.fills {
                resident[f.slot as usize] = Some(f.row);
            }
        }
    });
    let pool = ctx.workers.for_work((moved_rows * shared.dim) as u64);
    run_table_shards(ctx, StageId::Insert, pool, tasks).map(drop)
}

/// \[Train\] — owns the dense backend and the flat pooled/gradient
/// arenas: gathers pooled embeddings from the scratchpad, steps the dense
/// model, scatters embedding gradients back. Runs the always-hit half of
/// the hazard checker and records the iteration's loss into the payload.
pub(crate) struct TrainStage<B> {
    /// The dense backend.
    pub backend: B,
    arena: TrainArena,
}

impl<B: DenseBackend> TrainStage<B> {
    pub(crate) fn new(backend: B) -> Self {
        TrainStage {
            backend,
            arena: TrainArena::new(),
        }
    }

    /// The \[Train\] body.
    pub(crate) fn execute(
        &mut self,
        ctx: &StageCtx<'_>,
        payload: &mut StagePayload,
    ) -> Result<(), ScratchError> {
        let (shared, batch) = (ctx.shared, ctx.batch());
        // \[Plan\] counted the embedding half's traffic; the dense
        // backend's own is counted here.
        let dense = self.backend.traffic(batch.batch_size());
        payload.record.traffic.train += dense;
        if !shared.functional {
            return Ok(());
        }

        // Always-hit assertion: every row's data is resident before the
        // train step gathers it (the paper's core guarantee).
        if shared.check_hazards {
            for (t, plan) in payload.plans.iter().enumerate() {
                let resident = shared.data_resident[t].lock();
                for (id, slot) in plan.assignments() {
                    if resident[slot as usize] != Some(id) {
                        return Err(ScratchError::HazardViolation {
                            detail: format!(
                                "train {}: table {t} row {id} not resident in slot {slot} \
                                 (holds {:?}) — always-hit property violated",
                                ctx.index, resident[slot as usize]
                            ),
                        });
                    }
                }
            }
        }

        // Functional training from the scratchpad, through the flat
        // pooled/gradient arenas.
        let dim = shared.dim;
        let batch_size = batch.batch_size();
        self.arena.prepare(payload.plans.len(), batch_size, dim);

        // Forward gather, sharded by (table × contiguous sample range):
        // every sample's pooled sum is computed whole by exactly one
        // worker, so any pool width gathers bit-identical arenas. A shard
        // first builds its samples' range of the table's lookup index, the
        // search half of `stages::index_lookups`. All storages are
        // read-locked up front so chunks of the same table can gather
        // concurrently. The ranges follow the pool's width whether or not
        // the region clears the floor, so a warm run allocates the same
        // bytes at any embedding width.
        let gather_pool = ctx.workers.for_work((batch.total_lookups() * dim) as u64);
        let ranges = ctx.workers.split_ranges(batch_size);
        {
            let guards: Vec<_> = shared.storages.iter().map(|m| m.lock()).collect();
            let mut tasks = Vec::with_capacity(payload.plans.len() * ranges.len());
            let tables = self.arena.pooled_blocks_mut().zip(&mut payload.plans);
            for (t, (block, plan)) in tables.enumerate() {
                let bag = batch.bag(t);
                let store: &EmbeddingTable = &guards[t];
                plan.lookup_unique.resize(bag.ids().len(), 0);
                let (unique_ids, slots) = (&plan.unique_ids, &plan.unique_slots);
                let (mut rest, mut index) = (block, &mut plan.lookup_unique[..]);
                for r in &ranges {
                    let (head, tail) = rest.split_at_mut(r.len() * dim);
                    let ids =
                        &bag.ids()[bag.offsets()[r.start] as usize..bag.offsets()[r.end] as usize];
                    let (lookups, more) = index.split_at_mut(ids.len());
                    (rest, index) = (tail, more);
                    let (lo, hi) = (r.start, r.end);
                    tasks.push(move || {
                        stages::search_lookups(unique_ids, ids, lookups);
                        ops::gather_reduce_indexed(store, bag, lookups, slots, lo, hi, head);
                    });
                }
            }
            run_region(ctx, StageId::Train, gather_pool, tasks)?;
        }

        // The dense step fans out over the pool once it carries
        // `DENSE_FAN_OUT_MIN_FLOPS`: per sample range for the forward and
        // every `dx`, then per block of weight rows for the update, which
        // keeps each reduction's accumulation order whole (see the
        // determinism contract in docs/runtime-api.md).
        let dense_pool = (ctx.workers).over_floor(dense.gpu_flops, stages::DENSE_FAN_OUT_MIN_FLOPS);
        let (pooled, grads) = self.arena.split();
        let step = self
            .backend
            .step_on(dense_pool, ctx.index, batch, pooled, grads)?;
        let lr = self.backend.learning_rate();

        // Backward scatter, sharded per table: the duplicate → coalesce →
        // scatter chain of a table is one unsplittable reduction, but
        // different tables touch disjoint storages. Each task first builds
        // its table's transpose of the lookup index, the other half of
        // `stages::index_lookups`.
        let arena = &self.arena;
        let tasks = payload.plans.iter_mut().enumerate().map(|(t, plan)| {
            let bag = batch.bag(t);
            move || {
                stages::transpose_lookups(plan, bag);
                let updated = plan.unique_slots.iter().map(|&slot| slot as usize);
                let mut store = shared.storages[t].lock();
                stages::scatter_grads(store.write(updated), bag, arena.grads_table(t), lr, plan);
            }
        });
        let scatter_pool = ctx
            .workers
            .for_work((batch.total_lookups() * dim * 2) as u64);
        run_table_shards(ctx, StageId::Train, scatter_pool, tasks)?;

        payload.record.loss = step.loss;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratchpad::Evict;
    use proptest::prelude::*;

    fn plan_evicting(rows: &[u64]) -> TablePlan {
        TablePlan {
            evictions: rows
                .iter()
                .enumerate()
                .map(|(slot, &row)| Evict {
                    row,
                    slot: slot as u32,
                })
                .collect(),
            ..TablePlan::default()
        }
    }

    fn sorted_unique(mut ids: Vec<u64>) -> Vec<u64> {
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Everything that encodes the window is the same two distances in
    /// the stage table: Train is 3 registers after Collect, Insert 2.
    #[test]
    fn the_window_is_two_distances_in_the_stage_table() {
        use StageId::{Collect, Insert, Train};
        let (past, future) = (Train.after(Collect), Insert.after(Collect));
        assert_eq!((past, future), (3, 2));
        assert_eq!(WindowConfig::PAPER, WindowConfig { past: 3, future: 2 });
        assert_eq!((HAZARD_PAST, HAZARD_FUTURE), (past, future));
        assert_eq!(
            barriers(WindowConfig::PAPER),
            [
                Edge {
                    waiter: Collect.index(),
                    watched: Train.index(),
                    lag: past + 1,
                },
                Edge {
                    waiter: Collect.index(),
                    watched: Insert.index(),
                    lag: future + 1,
                },
            ]
        );
        assert_eq!(barriers(WindowConfig::PAPER).map(|b| b.lag), [4, 3]);
    }

    /// FNV-1a over everything a [`TablePlan`] tells the later stages, the
    /// way `tests/golden_victims.rs` folds it.
    fn fold_plans(hash: &mut u64, plans: &[TablePlan]) {
        let mut fold = |v: u64| *hash = (*hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        for plan in plans {
            fold(plan.hits);
            fold(plan.misses);
            fold(plan.fills.len() as u64);
            for f in &plan.fills {
                fold(f.row);
                fold(u64::from(f.slot));
            }
            fold(plan.evictions.len() as u64);
            for e in &plan.evictions {
                fold(e.row);
                fold(u64::from(e.slot));
            }
            fold(plan.unique_slots.len() as u64);
            for &slot in &plan.unique_slots {
                fold(u64::from(slot));
            }
        }
    }

    /// [Plan] plans a big batch's tables side by side on the pool. Which
    /// thread planned a table must not show in any plan: the digest over
    /// every [`TablePlan`] of a trace is the same at every pool width,
    /// and the same as each manager planning alone, one batch after
    /// another, outside any stage.
    #[test]
    fn every_table_plan_is_the_same_at_every_pool_width() {
        use crate::policy::EvictionPolicy;
        use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

        let tc = TraceConfig {
            num_tables: 8,
            rows_per_table: 40_000,
            lookups_per_sample: 8,
            batch_size: 768,
            profile: LocalityProfile::Low,
            seed: 0x91A7,
        };
        let batches = TraceGenerator::new(tc).take_batches(10);
        let uniques: usize = (batches[0].bags())
            .map(|(_, bag)| bag.unique_ids().len())
            .sum();
        assert!(
            uniques >= stages::PLAN_FAN_OUT_MIN_UNIQUES,
            "{uniques} unique IDs a batch would plan inline"
        );
        // Tight enough that most misses of the later batches evict.
        let slots = 26_000;
        let managers = || -> Vec<ScratchpadManager> {
            (0..tc.num_tables)
                .map(|_| ScratchpadManager::new(slots, WindowConfig::PAPER, EvictionPolicy::Lru))
                .collect::<Result<_, _>>()
                .expect("valid geometry")
        };

        let mut alone = 0xcbf2_9ce4_8422_2325;
        let unique: Vec<Vec<Vec<u64>>> = (batches.iter())
            .map(|batch| batch.bags().map(|(_, bag)| bag.unique_ids()).collect())
            .collect();
        let mut reference = managers();
        let mut evictions = 0;
        for i in 0..batches.len() {
            let plans: Vec<TablePlan> = (reference.iter_mut().enumerate())
                .map(|(t, manager)| {
                    let futures: Vec<&[u64]> = (unique.iter().skip(i + 1).take(2))
                        .map(|ahead| ahead[t].as_slice())
                        .collect();
                    manager.plan(&unique[i][t], &futures).expect("provisioned")
                })
                .collect();
            evictions += plans.iter().map(|p| p.evictions.len()).sum::<usize>();
            fold_plans(&mut alone, &plans);
        }
        assert!(evictions > 10_000, "only {evictions} evictions");

        let shared = SharedState {
            storages: Vec::new(),
            cpu_tables: Vec::new(),
            data_resident: Vec::new(),
            functional: false,
            check_hazards: true,
            dim: 4,
        };
        for width in [1, 2, 4] {
            let mut stage = PlanStage::new(managers(), WindowConfig::PAPER.future as usize);
            stage.begin_run(batches.len());
            let mut payload = stages::PayloadPool::default().take(shared.dim);
            let mut staged = 0xcbf2_9ce4_8422_2325;
            for index in 0..batches.len() {
                let ctx = StageCtx {
                    shared: &shared,
                    batches: &batches,
                    index,
                    pipelined: true,
                    workers: WorkerPool::new(width),
                    faults: None,
                    observer: None,
                    lane: Lane::Main,
                };
                stage.execute(&ctx, &mut payload).expect("provisioned");
                assert!(payload.plans.is_empty(), "an analytic payload carries none");
                fold_plans(&mut staged, &stage.plans);
            }
            assert_eq!(staged, alone, "width {width}");
        }
    }

    #[test]
    fn intersects_any_finds_a_shared_element_in_any_lane() {
        let a = [3, 8, 20, 41];
        let none: [&[u64]; HAZARD_WINDOW] = [&[1, 2, 4], &[], &[9, 19, 21, 40, 42], &[50], &[0]];
        assert!(!intersects_any(&a, none));
        for lane in 0..HAZARD_WINDOW {
            for shared in a {
                let with = sorted_unique(vec![1, 30, shared, 60]);
                let mut others = none;
                others[lane] = &with;
                assert!(intersects_any(&a, others), "lane {lane}, row {shared}");
            }
        }
        assert!(!intersects_any(&[], none));
    }

    proptest! {
        /// The linear check and the per-eviction search return the same
        /// `Result` — verdict and detail string — on random plans and
        /// windows, clean or with a RAW-2/3 or RAW-4 violation injected
        /// at a random position of a random table's eviction list.
        #[test]
        fn linear_victim_check_matches_the_per_eviction_search(
            uniq in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0u64..150, 0..10), 2..3),
                1..9),
            evictions in proptest::collection::vec(
                proptest::collection::vec(0u64..150, 0..8), 2..3),
            at in 0usize..9,
            kind in 0u8..3,
            table in 0usize..2,
            picks in (0usize..9, 0usize..9, 0usize..9),
        ) {
            let uniq: Vec<Vec<Vec<u64>>> = uniq
                .into_iter()
                .map(|batch| batch.into_iter().map(sorted_unique).collect())
                .collect();
            let i = at % uniq.len();
            let mut evictions = evictions;
            let (batch_pick, row_pick, position) = picks;
            // The batches a violation of the requested kind can come from.
            let window: Vec<usize> = match kind {
                1 => (i.saturating_sub(HAZARD_PAST)..i).collect(),
                2 => (i + 1..=(i + HAZARD_FUTURE).min(uniq.len() - 1)).collect(),
                _ => Vec::new(),
            };
            if !window.is_empty() {
                let ids = &uniq[window[batch_pick % window.len()]][table];
                if !ids.is_empty() {
                    let list = &mut evictions[table];
                    list.insert(position % (list.len() + 1), ids[row_pick % ids.len()]);
                }
            }
            let plans: Vec<TablePlan> = evictions.iter().map(|rows| plan_evicting(rows)).collect();

            let batches: Vec<_> = uniq.iter().map(|tables| stages::batch_of(tables)).collect();
            let mut stage = PlanStage::new(Vec::new(), HAZARD_FUTURE);
            stage.window.advance(&batches, i, WorkerPool::inline()).expect("dedup");
            let slow = PlanStage::find_victim_violation(i, &plans, &stage.window);
            let fast = stage.check_victim_safety(i, &plans);
            prop_assert_eq!(&fast, &slow);
            if let Err(ScratchError::HazardViolation { detail }) = &slow {
                prop_assert!(detail.contains("RAW-2/3") || detail.contains("RAW-4"));
            }
        }
    }
}
