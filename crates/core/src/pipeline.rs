//! The single pipeline driver.
//!
//! [`Pipeline`] owns the model state and the two stateful stages, and
//! drives the five stage bodies (Plan / Collect / Exchange / Insert /
//! Train, the rows of [`StageId`]) under a [`Schedule`]. Every schedule
//! runs one graph, [`Schedule::edges`] — the one [`memsim::PipelineSim`]
//! schedules on: each stage after the one before it in the batch and
//! after itself one batch back, \[Plan\] after \[Train\] as many
//! batches back as payloads circulate (`stages + 1`), and \[Collect\]'s
//! two barriers. One dispatch loop runs its nodes as they become ready:
//! on up to five of the [`WorkerPool`]'s threads under `Threaded`; on the
//! calling thread under the register schedules — pipelined, pipelined
//! over a wider pool, or with one payload, \[Plan\] planning a big
//! batch's tables side by side on the pool the other stages leave idle.
//!
//! Because every schedule drives the *same* five stage bodies, bit-exact
//! training and per-stage traffic parity between schedules hold by
//! construction — the driver-equivalence suite asserts it.
//!
//! Construction goes through [`PipelineBuilder`] (no positional
//! constructors). A run with an [`AuditSink`] or a [`Telemetry`] collector
//! attached records one event log ([`crate::telemetry`]) through one
//! handle: [`Pipeline::run`] and [`Pipeline::run_supervised`] open it the
//! same way and leave — completed, aborted or failed — through the same
//! close, which writes the terminal event and hands the log to the audit
//! stream and the collector. With neither attached there is no log, and
//! the drivers do not read the clock.

use std::fmt;
use std::ops::Range;
use std::time::Instant;

use embeddings::sparse::sort_ids;
use embeddings::{EmbeddingTable, SparseBatch};
use memsim::{Edge, Traffic};
use parking_lot::Mutex;
use serde::Serialize;

use crate::audit::AuditSink;
use crate::backend::DenseBackend;
use crate::config::{PipelineConfig, WindowConfig};
use crate::error::ScratchError;
use crate::faults::{FaultInjector, FaultPlan};
use crate::lanes;
use crate::recovery::{Journaled, RecoveryPolicy, RecoveryStats, SupervisedRun};
use crate::runtime::{IterationRecord, PipelineReport, StageId};
use crate::scratchpad::ScratchpadManager;
use crate::stage::{self, Body, PlanStage, SharedState, StageCtx, TrainStage};
use crate::stages::{self, PayloadPool, StagePayload};
use crate::telemetry::{self, Event, Lane, RunTelemetry, Telemetry};
use crate::workers::{self, WorkerPool};

/// Stages in the pipeline — also its depth: the most mini-batches the
/// register schedules overlap.
const STAGES: usize = StageId::COUNT;

/// How the [`Pipeline`] overlaps (or serializes) its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Schedule {
    /// The paper's Figure-10 register pipeline: the graph's nodes on one
    /// dispatch thread, the calling one, lowest cycle (batch + stage)
    /// first, so one cycle executes every occupied stage in reverse
    /// register order and at steady state five mini-batches are in flight.
    /// One stage runs at a time, so each hands its shard regions to the
    /// pipeline's [`WorkerPool`] ([`PipelineBuilder::parallelism`] wide):
    /// \[Plan\] and the batch's dedup by table from
    /// [`stages::PLAN_FAN_OUT_MIN_UNIQUES`] unique IDs; Collect, Insert
    /// and the \[Train\] scatter by table, and the gather by (table ×
    /// sample range), from [`WorkerPool::MIN_SHARD_WORK`] elements; the
    /// dense step from [`stages::DENSE_FAN_OUT_MIN_FLOPS`]. Shards own
    /// disjoint outputs and no floating-point reduction is ever split, so
    /// nothing a run produces depends on the pool's width.
    Sync,
    /// The §IV-B straw-man: the same dispatch of the same graph with one
    /// payload, so one batch finishes all stages before the next starts.
    /// No overlap, so no hazards can arise.
    Sequential,
    /// The overlapped pipeline (paper §IV-C): the graph's nodes on up to
    /// five interchangeable threads of the
    /// [`PipelineBuilder::parallelism`]-wide pool (stage regions inline) —
    /// the software analogue of CPU threads, DMA engines and GPU streams —
    /// each stage running its batches in order, \[Collect\]'s two
    /// cross-batch barriers, and exactly `stages + 1` payloads
    /// circulating. An iteration costs the slowest stage, not the sum of
    /// the stages; at width 1 the stages take turns on the calling thread,
    /// as under [`Schedule::Sync`]. Requires functional mode.
    Threaded,
    /// [`Schedule::Sync`] under the name the benchmark harness and the
    /// top rung of [`Pipeline::run_supervised`]'s degradation ladder use:
    /// the same stepping over the same pool, so the same bytes out at any
    /// width. Unlike `Sync`, it requires functional mode.
    DataParallel,
    /// Chooses [`Schedule::Threaded`] when overlap pays and
    /// [`Schedule::Sync`] otherwise: see
    /// [`Pipeline::effective_schedule`] for the rule.
    #[default]
    Auto,
}

impl Schedule {
    /// The pipeline's dependency graph, per stage ([`StageId::index`]):
    /// what the runtime runs, and what [`memsim::PipelineSim`] schedules
    /// on. The five stages in a [`memsim::Edge::line`] with as many
    /// payloads as circulate (one under [`Schedule::Sequential`]), plus
    /// \[Collect\]'s two barriers.
    pub fn edges(self) -> Vec<Edge> {
        let mut edges = Edge::line(STAGES, lanes::payloads(self));
        // The register distances, whatever the window: the register
        // schedules imply them, a narrower window is a hazard the
        // plan-time check reports, and a wider one waits for no more.
        edges.extend(stage::barriers(WindowConfig::PAPER));
        edges
    }

    /// Stable lower-case name, as used in audit events.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Sync => "sync",
            Schedule::Sequential => "sequential",
            Schedule::Threaded => "threaded",
            Schedule::DataParallel => "data_parallel",
            Schedule::Auto => "auto",
        }
    }
}

/// Sparse lookups per iteration (first batch, all tables) from which
/// [`Schedule::Auto`] overlaps.
///
/// From the calibration sweep (the `calibrate_schedule` bench bin,
/// 2-CPU host, best of 5 runs of 200 iterations, µs per iteration; full
/// table in docs/perf.md, "Schedule calibration"): the overlapped
/// schedule's hand-offs and barrier waits cost a fixed 20–30 µs per
/// iteration (16 lookups: sync 8.6, threaded 26.7), which overlap wins
/// back once Plan — whose cost follows the lookup count, not the
/// embedding width — is long enough to hide the other stages behind.
/// At dim 8 / dim 64, sync vs
/// threaded: 256 lookups 55 vs 72 / 80 vs 96 (sync ahead), 384 lookups
/// 84 vs 78 / 122 vs 114 (a tie within run-to-run spread), 512 lookups
/// 99 vs 93 / 153 vs 97, 4 096 lookups 700 vs 493 / 1 105 vs 724. 512 is
/// the smallest size measured at which overlap won at both widths, and
/// the width barely moves the crossover, so the floor is in lookups.
const AUTO_OVERLAP_MIN_LOOKUPS: u64 = 512;

/// The [`Schedule::Auto`] rule, as a function of everything it looks at:
/// whether data moves at all, the CPUs this process may run on, the sparse
/// lookups of one iteration and the iterations driven back to back (the
/// whole trace for [`Pipeline::run`], one checkpointed segment for
/// [`Pipeline::run_supervised`]). Stages on one CPU only take turns, a
/// small iteration is cheaper than its hand-offs, and a run no longer
/// than the pipeline is deep drains before it has overlapped anything.
fn auto_schedule(functional: bool, cpus: usize, lookups: u64, segment: usize) -> Schedule {
    if functional && cpus >= 2 && lookups >= AUTO_OVERLAP_MIN_LOOKUPS && segment > STAGES {
        Schedule::Threaded
    } else {
        Schedule::Sync
    }
}

/// Builder for [`Pipeline`] — the only way to construct one.
///
/// ```
/// # use scratchpipe::{Pipeline, PipelineConfig, Schedule, UnitBackend};
/// # use embeddings::EmbeddingTable;
/// let tables = vec![EmbeddingTable::seeded(100, 8, 1)];
/// let pipeline = Pipeline::builder()
///     .config(PipelineConfig::functional(8, 50))
///     .tables(tables)
///     .backend(UnitBackend::new(0.05))
///     .schedule(Schedule::Sync)
///     .build()
///     .unwrap();
/// # let _ = pipeline;
/// ```
pub struct PipelineBuilder<B> {
    config: Option<PipelineConfig>,
    tables: Vec<EmbeddingTable>,
    analytic: Option<(usize, u64)>,
    backend: Option<B>,
    schedule: Schedule,
    parallelism: usize,
    sink: Option<Box<dyn AuditSink>>,
    name: String,
    faults: Option<FaultPlan>,
    telemetry: Option<Telemetry>,
}

impl<B> fmt::Debug for PipelineBuilder<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("config", &self.config)
            .field("tables", &self.tables.len())
            .field("analytic", &self.analytic)
            .field("schedule", &self.schedule)
            .field("parallelism", &self.parallelism)
            .field("audit", &self.sink.is_some())
            .field("name", &self.name)
            .finish()
    }
}

impl<B> Default for PipelineBuilder<B> {
    fn default() -> Self {
        PipelineBuilder {
            config: None,
            tables: Vec::new(),
            analytic: None,
            backend: None,
            schedule: Schedule::default(),
            parallelism: 0,
            sink: None,
            name: "pipeline".to_owned(),
            faults: None,
            telemetry: None,
        }
    }
}

impl<B: DenseBackend> PipelineBuilder<B> {
    /// Creates an empty builder (see also [`Pipeline::builder`]).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the pipeline configuration (required).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Trains these CPU embedding tables in place (functional mode).
    /// Mutually exclusive with [`PipelineBuilder::analytic_tables`].
    pub fn tables(mut self, tables: Vec<EmbeddingTable>) -> Self {
        self.tables = tables;
        self
    }

    /// Simulates `num_tables` virtual tables of `rows_per_table` rows —
    /// metadata and traffic only, no data (forces analytic mode).
    /// Mutually exclusive with [`PipelineBuilder::tables`].
    pub fn analytic_tables(mut self, num_tables: usize, rows_per_table: u64) -> Self {
        self.analytic = Some((num_tables, rows_per_table));
        self
    }

    /// Sets the dense-model backend (required).
    pub fn backend(mut self, backend: B) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the schedule (default [`Schedule::Auto`]).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the width of the pipeline's worker pool: what the register
    /// schedules shard every stage over (see [`Schedule::Sync`]), and
    /// what [`Pipeline::prewarm`] fills its tables over. `0`
    /// — the default — sizes the pool to the machine's available
    /// parallelism. Any width produces bit-identical training results;
    /// only the wall-clock changes.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Attaches an audit sink: every run emits JSONL events to it.
    pub fn audit(mut self, sink: impl AuditSink + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Names the run in audit events (default `"pipeline"`).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Attaches a [`Telemetry`] collector: it keeps the event log of
    /// every run, from which it renders the span tree (run → iteration →
    /// stage → shard, plus barrier stalls) and the metric catalog, keyed
    /// by the pipeline's audit name ([`PipelineBuilder::named`]). One
    /// collector may be shared across pipelines — it is a cheap `Arc`
    /// clone — so several runs land in one `trace.json` / `METRICS.json`
    /// snapshot. With neither this nor [`PipelineBuilder::audit`] no log
    /// exists and every recording site is a single `None` check, the same
    /// contract as [`PipelineBuilder::faults`].
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Arms a deterministic [`FaultPlan`]: its faults fire at their
    /// `(iteration, stage, shard)` coordinates during [`Pipeline::run`]
    /// (raw propagation, attempt 0 only) and
    /// [`Pipeline::run_supervised`] (retried/degraded per the recovery
    /// policy). Without this call no injector exists and every fault
    /// hook is a single `None` check.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] if the configuration is
    /// missing, inconsistent with the tables, both [`tables`] and
    /// [`analytic_tables`] were given, or the armed [`FaultPlan`] holds a
    /// fault that could never fire: its stage is not a [`StageId::name`],
    /// or it is a worker panic on a stage that runs no shard tasks.
    ///
    /// [`tables`]: PipelineBuilder::tables
    /// [`analytic_tables`]: PipelineBuilder::analytic_tables
    pub fn build(self) -> Result<Pipeline<B>, ScratchError> {
        let mut config = self.config.ok_or_else(|| ScratchError::InvalidConfig {
            detail: "PipelineBuilder needs a config".to_owned(),
        })?;
        let backend = self.backend.ok_or_else(|| ScratchError::InvalidConfig {
            detail: "PipelineBuilder needs a backend".to_owned(),
        })?;
        if self.analytic.is_some() && !self.tables.is_empty() {
            return Err(ScratchError::InvalidConfig {
                detail: "give tables() or analytic_tables(), not both".to_owned(),
            });
        }

        if self.analytic.is_some() {
            config.functional = false;
            config.check_hazards = false;
        }
        config.validate()?;
        if self.tables.iter().any(|t| t.dim() != config.dim) {
            return Err(ScratchError::InvalidConfig {
                detail: "table dim mismatch with config".to_owned(),
            });
        }
        let table_rows: Vec<u64> = match self.analytic {
            Some((tables, rows)) => vec![rows; tables],
            None => self.tables.iter().map(|t| t.len() as u64).collect(),
        };
        let num_tables = table_rows.len();
        if num_tables == 0 {
            return Err(ScratchError::InvalidConfig {
                detail: "need at least one embedding table".to_owned(),
            });
        }
        let faults = self.faults.map(FaultInjector::new).transpose()?;

        let managers: Vec<ScratchpadManager> = (0..num_tables)
            .map(|_| ScratchpadManager::new(config.slots_per_table, config.window, config.policy))
            .collect::<Result<_, _>>()?;

        // Scratchpad storage and its residency shadow exist only where data
        // moves; an analytic pipeline keeps the per-table shells.
        let (stores, slots) = if config.functional {
            (num_tables, config.slots_per_table)
        } else {
            (0, 0)
        };
        let journaled = |rows| Mutex::new(Journaled::new(rows));
        let shared = SharedState {
            storages: (0..stores)
                .map(|_| journaled(EmbeddingTable::zeros(slots, config.dim)))
                .collect(),
            cpu_tables: self.tables.into_iter().map(journaled).collect(),
            data_resident: (0..stores)
                .map(|_| Mutex::new(Journaled::new(vec![None; slots])))
                .collect(),
            functional: config.functional,
            check_hazards: config.check_hazards,
            dim: config.dim,
        };

        Ok(Pipeline {
            name: self.name,
            plan: PlanStage::new(managers, config.window.future as usize),
            train: TrainStage::new(backend),
            shared,
            table_rows,
            schedule: self.schedule,
            workers: if self.parallelism == 0 {
                WorkerPool::auto()
            } else {
                WorkerPool::new(self.parallelism)
            },
            config,
            pool: PayloadPool::default(),
            sink: self.sink,
            faults,
            telemetry: self.telemetry,
        })
    }
}

/// The five-stage ScratchPipe pipeline — the single driver behind every
/// schedule, and the single owner of the model state the stages work on. See the [module docs](self) and the
/// [crate-level documentation](crate) for an end-to-end example.
pub struct Pipeline<B> {
    name: String,
    config: PipelineConfig,
    schedule: Schedule,
    workers: WorkerPool,
    /// Height of every table: what each bag's IDs are checked against.
    table_rows: Vec<u64>,
    shared: SharedState,
    plan: PlanStage,
    train: TrainStage<B>,
    pool: PayloadPool,
    sink: Option<Box<dyn AuditSink>>,
    faults: Option<FaultInjector>,
    telemetry: Option<Telemetry>,
}

impl<B> fmt::Debug for Pipeline<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .field("schedule", &self.schedule)
            .field("tables", &self.plan.managers.len())
            .field("audit", &self.sink.is_some())
            .finish()
    }
}

impl<B: DenseBackend + Send> Pipeline<B> {
    /// Starts building a pipeline.
    pub fn builder() -> PipelineBuilder<B> {
        PipelineBuilder::new()
    }

    /// The configured schedule (possibly [`Schedule::Auto`]).
    #[cfg(test)]
    pub(crate) fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The pipeline's worker pool ([`PipelineBuilder::parallelism`] wide;
    /// the machine's available parallelism by default).
    pub fn workers(&self) -> WorkerPool {
        self.workers
    }

    /// The per-table scratchpad managers (for cache statistics).
    pub fn managers(&self) -> &[ScratchpadManager] {
        &self.plan.managers
    }

    /// The dense backend.
    pub fn backend(&self) -> &B {
        &self.train.backend
    }

    /// Consumes the pipeline and returns the trained CPU tables (call
    /// after [`Pipeline::run`], which flushes the scratchpad).
    ///
    /// # Panics
    ///
    /// Panics in analytic mode, which has no tables.
    pub fn into_tables(self) -> Vec<EmbeddingTable> {
        let tables = self.shared.cpu_tables;
        assert!(!tables.is_empty(), "into_tables on an analytic pipeline");
        tables
            .into_iter()
            .map(|table| table.into_inner().into_inner())
            .collect()
    }

    /// Pre-fills every table's scratchpad with the given rows (hottest
    /// first, truncated to the slot count), reproducing the steady-state
    /// cache content a long warm-up would converge to. In functional mode
    /// the row data is copied from the CPU tables, so training remains
    /// exactly equivalent to sequential execution.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] if a run has already
    /// planned, the table count differs, a row is out of range for its
    /// table, a table's list names a row twice, or a row is already
    /// resident (an earlier prewarm listed it); no scratchpad has been
    /// touched when it does.
    pub fn prewarm(&mut self, hot_rows: &[Vec<u64>]) -> Result<(), ScratchError> {
        if self.plan.managers.iter().any(|m| m.cycle() != 0) {
            return Err(ScratchError::InvalidConfig {
                detail: "prewarm must precede planning: this pipeline has already run".to_owned(),
            });
        }
        if hot_rows.len() != self.plan.managers.len() {
            return Err(ScratchError::InvalidConfig {
                detail: format!(
                    "prewarm covers {} tables, pipeline has {}",
                    hot_rows.len(),
                    self.plan.managers.len()
                ),
            });
        }
        let (mut sorted, mut scratch) = (Vec::new(), Vec::new());
        for (t, (rows, &height)) in hot_rows.iter().zip(&self.table_rows).enumerate() {
            if let Some(row) = rows.iter().find(|&&r| r >= height) {
                return Err(ScratchError::InvalidConfig {
                    detail: format!("prewarm: table {t}: row {row} exceeds {height} rows"),
                });
            }
            // Only a second prewarm can meet a resident row; the first (the
            // paper-scale one) skips the probe per row.
            let manager = &self.plan.managers[t];
            let resident = |r: &&u64| manager.occupancy() > 0 && manager.lookup(**r).is_some();
            if let Some(row) = rows.iter().find(resident) {
                return Err(ScratchError::InvalidConfig {
                    detail: format!("prewarm: table {t}: row {row} is already resident"),
                });
            }
            sorted.clone_from(rows);
            sort_ids(&mut sorted, &mut scratch);
            if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(ScratchError::InvalidConfig {
                    detail: format!("prewarm: table {t}: row {} listed twice", pair[0]),
                });
            }
        }
        // Tables share nothing, so each is one task; a prewarm the size of
        // a batch that [Plan] would fan out is fanned out the same way.
        let rows: usize = hot_rows.iter().map(Vec::len).sum();
        let pool = (self.workers).over_floor(rows as u64, stages::PLAN_FAN_OUT_MIN_UNIQUES as u64);
        let (config, shared) = (&self.config, &self.shared);
        let tasks = (self.plan.managers.iter_mut().zip(hot_rows).enumerate())
            .map(|(t, (manager, rows))| {
                move || {
                    let rows = &rows[..rows.len().min(config.slots_per_table)];
                    manager.prewarm(rows);
                    if !config.functional {
                        return;
                    }
                    let slots = rows
                        .iter()
                        .map(|&row| manager.lookup(row).expect("just prewarmed") as usize);
                    let table = shared.cpu_tables[t].lock();
                    let mut store = shared.storages[t].lock();
                    let store = store.write(slots.clone());
                    let mut resident = shared.data_resident[t].lock();
                    let resident = resident.write(slots.clone());
                    for (&row, slot) in rows.iter().zip(slots) {
                        store.copy_row_from(slot, &table, row as usize);
                        resident[slot] = Some(row);
                    }
                }
            })
            .collect();
        pool.run_tasks(tasks).map(drop)
    }

    /// The schedule a run over `batches` would actually execute:
    /// [`Schedule::Auto`] resolves here, and [`Schedule::Threaded`] /
    /// [`Schedule::DataParallel`] are rejected in analytic mode (there is
    /// no data for the dispatch threads or worker shards to move, and the sync
    /// schedule counts identical cache events).
    ///
    /// `Auto` overlaps ([`Schedule::Threaded`]) when the pipeline is
    /// functional, this process may run on at least two CPUs, the first
    /// batch carries enough sparse lookups to outweigh the overlapped
    /// schedule's hand-offs, and the trace is longer than the pipeline is deep; otherwise
    /// it is [`Schedule::Sync`].
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] for an explicit
    /// [`Schedule::Threaded`] or [`Schedule::DataParallel`] on a
    /// non-functional pipeline.
    pub fn effective_schedule(&self, batches: &[SparseBatch]) -> Result<Schedule, ScratchError> {
        self.resolve_schedule(batches, batches.len())
    }

    /// [`Pipeline::effective_schedule`] for a run that drives `segment`
    /// iterations at a time (only `Auto` cares).
    fn resolve_schedule(
        &self,
        batches: &[SparseBatch],
        segment: usize,
    ) -> Result<Schedule, ScratchError> {
        match self.schedule {
            Schedule::Threaded | Schedule::DataParallel if !self.config.functional => {
                Err(ScratchError::InvalidConfig {
                    detail: format!("{} schedule requires functional mode", self.schedule.name()),
                })
            }
            Schedule::Auto => {
                let lookups = batches.first().map_or(0, |b| b.total_lookups() as u64);
                Ok(auto_schedule(
                    self.config.functional,
                    workers::available_cpus(),
                    lookups,
                    segment,
                ))
            }
            explicit => Ok(explicit),
        }
    }

    /// The worker pool a run under `schedule` shards its stages over: the
    /// pipeline's under the register schedules, which run one stage at a
    /// time and so leave the pool's other CPUs idle while one runs; inline
    /// under `Threaded`, whose dispatch threads are the pool's own, so a
    /// region one enters runs inline anyway; saying so fixes the shard
    /// split and the width a run reports.
    fn pool_for(&self, schedule: Schedule) -> WorkerPool {
        match schedule {
            Schedule::Threaded => WorkerPool::inline(),
            _ => self.workers,
        }
    }

    /// Opens a run: its event log if anyone observes it, its clock, and a
    /// blank record per iteration. Armed faults start at attempt 0 with an
    /// empty firing log.
    fn open(&mut self, schedule: Schedule, iterations: usize, supervised: bool) -> Run {
        let observer = (self.sink.is_some() || self.telemetry.is_some()).then(|| {
            let observer = telemetry::open_run(self.telemetry.as_ref());
            observer.record(Event::RunStarted {
                label: self.name.clone(),
                start_ns: observer.now_ns(),
                schedule: schedule.name(),
                iterations,
                num_tables: self.plan.managers.len(),
                config: self.config.clone(),
                supervised,
            });
            observer
        });
        self.plan.begin_run(iterations);
        if let Some(inj) = &self.faults {
            inj.begin_attempt(0);
            let _ = inj.drain_log();
        }
        Run {
            observer,
            started: Instant::now(),
            records: (0..iterations)
                .map(|index| IterationRecord {
                    index,
                    ..IterationRecord::default()
                })
                .collect(),
        }
    }

    /// Drives iterations `range` of `batches` through the stages under the
    /// (resolved) `schedule`, retiring each finished iteration into `run`.
    fn drive(
        &mut self,
        schedule: Schedule,
        batches: &[SparseBatch],
        range: Range<usize>,
        run: &mut Run,
    ) -> Result<(), ScratchError> {
        let ctx = StageCtx {
            shared: &self.shared,
            batches,
            index: range.start,
            // The straw-man never has two batches in flight, so
            // victim-safety distances don't apply to it.
            pipelined: schedule != Schedule::Sequential,
            workers: self.pool_for(schedule),
            faults: self.faults.as_ref(),
            observer: run.observer.as_ref(),
            lane: Lane::Main,
        };
        let (plan, train) = (&mut self.plan, &mut self.train);
        // In table order: `bodies[s]` is the body of `StageId::ALL[s]`.
        let bodies: [&mut Body<'_>; STAGES] = [
            &mut |ctx, payload| plan.execute(ctx, payload),
            &mut stage::collect,
            &mut stage::exchange,
            &mut stage::insert,
            &mut |ctx, payload| train.execute(ctx, payload),
        ];
        let (pool, records) = (&mut self.pool, &mut run.records[..]);
        lanes::drive(schedule, self.workers, bodies, pool, &ctx, range, records)
    }

    /// Moves the injector's firing log into the run's event log; returns
    /// how many faults fired.
    fn drain_faults(&self, run: &Run) -> u64 {
        let fired = self
            .faults
            .as_ref()
            .map_or_else(Vec::new, |inj| inj.drain_log());
        let count = fired.len() as u64;
        if let Some(observer) = &run.observer {
            fired
                .into_iter()
                .for_each(|record| observer.record(Event::Fault(record)));
        }
        count
    }

    /// The one way out of a run, whatever became of it. A completed run
    /// (`Ok`) is flushed and reported; a failed one (`Err`: iterations
    /// committed, attempts made, cause) gets its cause back. Either way
    /// the faults still pending and the terminal event go into the log,
    /// which is then folded into the audit stream and handed to the
    /// collector.
    fn close(
        &mut self,
        run: Run,
        schedule: Schedule,
        outcome: Result<(), (usize, u32, ScratchError)>,
    ) -> Result<PipelineReport, ScratchError> {
        let elapsed_ns = run.started.elapsed().as_nanos() as u64;
        self.drain_faults(&run);
        let Run {
            observer, records, ..
        } = run;
        let outcome = outcome.map(|()| PipelineReport {
            iterations: records.len(),
            records,
            flush_traffic: self.flush(),
            peak_held_slots: self
                .plan
                .managers
                .iter()
                .map(|m| m.stats().peak_held)
                .collect(),
            max_dup: self.plan.take_max_dup(),
        });
        if let Some(observer) = observer {
            let end_ns = observer.now_ns();
            let schedule_name = schedule.name();
            let pool_width = self.pool_for(schedule).threads();
            let tables = self
                .plan
                .managers
                .iter()
                .map(|m| (m.occupancy(), m.stats()))
                .collect();
            observer.record(match &outcome {
                Ok(report) => Event::Completed {
                    end_ns,
                    elapsed_ns,
                    schedule: schedule_name,
                    pool_width,
                    tables,
                    iterations: report.iterations,
                    flush_traffic: report.flush_traffic,
                    hit_rate: report.hit_rate(),
                    mean_loss: report.mean_loss(),
                },
                Err((committed, attempts, cause)) => Event::Aborted {
                    end_ns,
                    elapsed_ns,
                    schedule: schedule_name,
                    pool_width,
                    tables,
                    committed: *committed,
                    attempts: *attempts,
                    cause: cause.to_string(),
                },
            });
            observer.close(self.sink.as_deref_mut());
        }
        outcome.map_err(|(_, _, cause)| cause)
    }

    /// Runs the pipeline over `batches` under the configured schedule,
    /// then flushes the scratchpad back to the CPU tables. Emits the
    /// audit event stream if a sink is attached — ending in
    /// `run_completed`, or in `run_aborted` (nothing committed, one
    /// attempt) if the run fails.
    ///
    /// # Errors
    ///
    /// * [`ScratchError::CapacityExhausted`] if a scratchpad is too small
    ///   for the sliding window's working set (§VI-D provisioning rule).
    /// * [`ScratchError::HazardViolation`] if hazard checking is enabled
    ///   and the window configuration admits a RAW hazard.
    /// * [`ScratchError::InvalidConfig`] if a batch disagrees with the
    ///   pipeline shape, or the schedule is invalid for this mode.
    pub fn run(&mut self, batches: &[SparseBatch]) -> Result<PipelineReport, ScratchError> {
        self.validate_batches(batches)?;
        let schedule = self.effective_schedule(batches)?;
        let n = batches.len();
        // Plain runs are attempt 0 forever: armed faults fire raw, with
        // no supervisor to catch them.
        let mut run = self.open(schedule, n, false);
        let driven = self.drive(schedule, batches, 0..n, &mut run);
        self.close(run, schedule, driven.map_err(|cause| (0, 1, cause)))
    }

    /// Runs the pipeline under supervision: the trace executes in
    /// checkpointed segments ([`RecoveryPolicy::checkpoint_interval`]
    /// iterations each, default 1). Before each segment the supervisor
    /// snapshots the scratchpad managers and the dense backend and arms an
    /// append-only undo journal on the shared table state; a failing segment
    /// rolls all of it back and retries. A schedule rung that exhausts
    /// its [`RecoveryPolicy::retry_budget`] degrades down the ladder
    /// `DataParallel → Threaded → Sync` (monotonically — a degraded run
    /// never climbs back) before the run aborts.
    ///
    /// [`Schedule::Auto`] resolves from the *segment* length, not the
    /// trace length: every segment drains the pipeline, so overlap only
    /// exists inside one, and at the default interval of 1 `Auto` is
    /// [`Schedule::Sync`]. Explicit schedules are taken as given.
    ///
    /// Recovery is deterministic: with an armed seeded [`FaultPlan`]
    /// whose faults are all recoverable, the returned report and the
    /// trained tables are byte-identical to a fault-free
    /// [`Pipeline::run`] over the same trace, at any worker-pool width.
    ///
    /// # Errors
    ///
    /// Everything [`Pipeline::run`] returns, plus
    /// [`ScratchError::Aborted`] when the ladder's last rung exhausts its
    /// retry budget — the scratchpad is flushed first, so the tables hold
    /// exactly the last committed segment. A policy with a zero budget or
    /// interval is rejected as [`ScratchError::InvalidConfig`].
    pub fn run_supervised(
        &mut self,
        batches: &[SparseBatch],
        policy: RecoveryPolicy,
    ) -> Result<SupervisedRun, ScratchError>
    where
        B: Clone,
    {
        if policy.retry_budget == 0 || policy.checkpoint_interval == 0 {
            return Err(ScratchError::InvalidConfig {
                detail: "recovery policy requires retry_budget >= 1 and checkpoint_interval >= 1"
                    .to_owned(),
            });
        }
        self.validate_batches(batches)?;
        let n = batches.len();
        let base = self.resolve_schedule(batches, policy.checkpoint_interval.min(n))?;
        let ladder: Vec<Schedule> = match base {
            Schedule::DataParallel => {
                vec![Schedule::DataParallel, Schedule::Threaded, Schedule::Sync]
            }
            Schedule::Threaded => vec![Schedule::Threaded, Schedule::Sync],
            other => vec![other],
        };
        let mut stats = RecoveryStats::default();

        let mut run = self.open(ladder[0], n, true);
        self.shared.checkpoint(true);
        let mut rung = 0usize;
        let mut seg_start = 0usize;
        while seg_start < n {
            let seg_end = (seg_start + policy.checkpoint_interval).min(n);
            // Cheap global snapshots; per-row pre-images ride the
            // undo journal instead.
            let managers_snapshot = self.plan.managers.to_vec();
            let backend_snapshot = self.train.backend.clone();
            let mut attempt: u32 = 0;
            loop {
                if let Some(inj) = &self.faults {
                    inj.begin_attempt(attempt);
                }
                let driven = self.drive(ladder[rung], batches, seg_start..seg_end, &mut run);
                stats.faults_injected += self.drain_faults(&run);
                let Err(cause) = driven else {
                    self.shared.checkpoint(true);
                    break;
                };
                self.shared.rollback();
                self.plan.managers.clone_from_slice(&managers_snapshot);
                self.train.backend = backend_snapshot.clone();
                stats.rollbacks += 1;
                attempt += 1;
                run.record(|| Event::RolledBack {
                    iteration: seg_start,
                    attempt,
                    cause: cause.to_string(),
                });
                if attempt % policy.retry_budget != 0 {
                    stats.retries += 1;
                    run.record(|| Event::Retried {
                        iteration: seg_start,
                        attempt,
                        schedule: ladder[rung].name(),
                    });
                } else if rung + 1 < ladder.len() {
                    run.record(|| Event::Degraded {
                        iteration: seg_start,
                        from: ladder[rung].name(),
                        to: ladder[rung + 1].name(),
                    });
                    rung += 1;
                    stats.degradations += 1;
                } else {
                    // Ladder exhausted: flush what committed so the
                    // tables land exactly on the last checkpoint, then
                    // abort with provenance.
                    self.shared.checkpoint(false);
                    let _ = self.flush();
                    let cause = self
                        .close(run, ladder[rung], Err((seg_start, attempt, cause)))
                        .expect_err("a failed run closes with its cause");
                    return Err(ScratchError::Aborted {
                        iteration: seg_start,
                        attempts: attempt,
                        schedule: ladder[rung].name().to_owned(),
                        cause: Box::new(cause),
                    });
                }
            }
            seg_start = seg_end;
        }
        self.shared.checkpoint(false);
        let report = self.close(run, ladder[rung], Ok(()))?;
        stats.final_schedule = Some(ladder[rung]);
        Ok(SupervisedRun { report, stats })
    }

    /// Writes every resident scratchpad row back to its CPU table and
    /// returns the traffic of doing so. Idempotent;
    /// [`Pipeline::run`] calls it automatically.
    pub(crate) fn flush(&mut self) -> Traffic {
        let mut traffic = Traffic::ZERO;
        let rb = self.shared.row_bytes();
        for (t, manager) in self.plan.managers.iter().enumerate() {
            traffic += stages::flush_traffic(manager.occupancy() as u64, rb);
            if self.config.functional {
                // Only rows whose data actually arrived are dirty; with
                // correct windows every resident row is.
                let residents = manager.residents();
                let flushed = residents.iter().map(|&(row, _)| row as usize);
                let store = self.shared.storages[t].lock();
                let mut table = self.shared.cpu_tables[t].lock();
                let resident = self.shared.data_resident[t].lock();
                stages::flush_rows(&store, table.write(flushed), &residents, |row, slot| {
                    resident[slot as usize] == Some(row)
                });
            }
        }
        if traffic.pcie_d2h_bytes > 0 {
            traffic.pcie_ops += 1;
        }
        traffic
    }

    fn validate_batches(&self, batches: &[SparseBatch]) -> Result<(), ScratchError> {
        let num_tables = self.plan.managers.len();
        for (i, b) in batches.iter().enumerate() {
            if b.batch_size() == 0 {
                return Err(ScratchError::InvalidConfig {
                    detail: format!("batch {i} is empty (zero samples)"),
                });
            }
            if b.num_tables() != num_tables {
                return Err(ScratchError::InvalidConfig {
                    detail: format!(
                        "batch covers {} tables, pipeline has {num_tables}",
                        b.num_tables()
                    ),
                });
            }
            for (t, bag) in b.bags() {
                let height = self.table_rows[t];
                if let Some(max) = bag.max_id().filter(|&max| max >= height) {
                    return Err(ScratchError::InvalidConfig {
                        detail: format!("table {t}: id {max} exceeds {height} rows"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// One run in progress: its event log (if anyone observes it), its
/// clock, and the per-iteration records the report is made of.
struct Run {
    observer: Option<RunTelemetry>,
    started: Instant,
    records: Vec<IterationRecord>,
}

impl Run {
    /// Records the event `make` builds, if the run is observed.
    fn record(&self, make: impl FnOnce() -> Event) {
        if let Some(observer) = &self.observer {
            observer.record(make());
        }
    }
}

/// Records one finished iteration: the record its payload carried from
/// \[Plan\] to \[Train\].
pub(crate) fn retire(ctx: &StageCtx<'_>, records: &mut [IterationRecord], p: &StagePayload) {
    let rec = &mut records[p.record.index];
    *rec = p.record.clone();
    if let Some(observer) = ctx.observer {
        observer.record(Event::Retired(Box::new(rec.clone())));
    }
}

/// Executes the body of `stage` on `payload`. An observed run records the
/// execution — when it started, how long it took — as one
/// [`Event::Stage`]; the audit stream's `stage_nanos`, the stage-latency
/// histogram and the trace's stage span are all read from it. An
/// unobserved run does not read the clock.
pub(crate) fn timed_execute(
    stage: StageId,
    body: &mut Body<'_>,
    ctx: &StageCtx<'_>,
    payload: &mut StagePayload,
) -> Result<(), ScratchError> {
    if let Some(inj) = ctx.faults {
        if let Some(e) = inj.stage_error(ctx.index, stage) {
            return Err(e);
        }
    }
    let start_ns = ctx.observer.map_or(0, |observer| observer.now_ns());
    body(ctx, payload)?;
    if let Some(observer) = ctx.observer {
        observer.record(Event::Stage {
            iteration: ctx.index,
            stage: stage.name(),
            lane: ctx.lane,
            start_ns,
            dur_ns: observer.now_ns().saturating_sub(start_ns),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::UnitBackend;
    use crate::config::WindowConfig;
    use crate::runtime::{train_direct, StageTraffic};
    use embeddings::TableBag;
    use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

    fn make_tables(num: usize, rows: usize, dim: usize) -> Vec<EmbeddingTable> {
        (0..num)
            .map(|t| EmbeddingTable::seeded(rows, dim, 1000 + t as u64))
            .collect()
    }

    fn trace(profile: LocalityProfile, n: usize) -> (TraceConfig, Vec<SparseBatch>) {
        let cfg = TraceConfig {
            num_tables: 3,
            rows_per_table: 400,
            lookups_per_sample: 4,
            batch_size: 8,
            profile,
            seed: 11,
        };
        (cfg, TraceGenerator::new(cfg).take_batches(n))
    }

    fn functional(
        config: PipelineConfig,
        tables: Vec<EmbeddingTable>,
        schedule: Schedule,
    ) -> Pipeline<UnitBackend> {
        Pipeline::builder()
            .config(config)
            .tables(tables)
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .build()
            .unwrap()
    }

    /// The headline correctness test: pipelined ScratchPipe produces
    /// bit-identical tables to direct sequential training.
    #[test]
    fn pipelined_training_is_bit_identical_to_sequential() {
        for profile in [LocalityProfile::Random, LocalityProfile::High] {
            let (tcfg, batches) = trace(profile, 25);
            let dim = 8;
            let mut direct_tables = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
            let mut direct_backend = UnitBackend::new(0.05);
            let _ = train_direct(&mut direct_tables, &batches, &mut direct_backend);

            let config = PipelineConfig::functional(dim, 200);
            let sp_tables = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
            let mut pipe = functional(config, sp_tables, Schedule::Sync);
            let report = pipe.run(&batches).unwrap();
            assert_eq!(report.iterations, 25);
            let sp_tables = pipe.into_tables();
            for (t, (a, b)) in direct_tables.iter().zip(&sp_tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?}: table {t} diverged at row {:?}",
                    a.first_diff_row(b)
                );
            }
        }
    }

    #[test]
    fn threaded_pipeline_is_bit_identical_to_sequential() {
        for profile in [LocalityProfile::Random, LocalityProfile::High] {
            let cfg = TraceConfig {
                num_tables: 3,
                rows_per_table: 300,
                lookups_per_sample: 4,
                batch_size: 8,
                profile,
                seed: 21,
            };
            let batches = TraceGenerator::new(cfg).take_batches(40);
            let mut direct = make_tables(3, 300, 8);
            let direct_losses = train_direct(&mut direct, &batches, &mut UnitBackend::new(0.05));

            // §VI-D worst case: 6 windowed batches × 8 samples × 4 lookups
            // = 192 unique rows can be held at once; provision for all of
            // them so the test is independent of the trace's RNG stream.
            let mut pipe = functional(
                PipelineConfig::functional(8, 192),
                make_tables(3, 300, 8),
                Schedule::Threaded,
            );
            let report = pipe.run(&batches).unwrap();
            let threaded = pipe.into_tables();
            for (t, (a, b)) in direct.iter().zip(&threaded).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?} table {t} diverged at {:?}",
                    a.first_diff_row(b)
                );
            }
            assert_eq!(direct_losses.len(), report.records.len());
            for (a, r) in direct_losses.iter().zip(&report.records) {
                assert_eq!(a.to_bits(), r.loss.to_bits());
            }
        }
    }

    #[test]
    fn strawman_sequential_window_is_also_bit_identical() {
        let (tcfg, batches) = trace(LocalityProfile::Medium, 20);
        let dim = 8;
        let mut direct_tables = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
        let _ = train_direct(&mut direct_tables, &batches, &mut UnitBackend::new(0.05));

        let config = PipelineConfig::functional(dim, 64).sequential();
        let mut pipe = functional(
            config,
            make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim),
            Schedule::Sequential,
        );
        let _ = pipe.run(&batches).unwrap();
        let sp = pipe.into_tables();
        for (a, b) in direct_tables.iter().zip(&sp) {
            assert!(a.bit_eq(b));
        }
    }

    #[test]
    fn always_hit_property_holds() {
        // With correct windows the hazard checker (which contains the
        // always-hit assertion) never fires, and the hit rate matches the
        // plan-stage accounting.
        let (_, batches) = trace(LocalityProfile::High, 30);
        let mut pipe = functional(
            PipelineConfig::functional(8, 200),
            make_tables(3, 400, 8),
            Schedule::Sync,
        );
        let report = pipe.run(&batches).unwrap();
        assert!(report.hit_rate() > 0.0);
        assert_eq!(report.records.len(), 30);
    }

    /// Negative test: break the future window and feed an adversarial
    /// trace. The hazard checker must catch the RAW-4 eviction.
    #[test]
    fn broken_future_window_is_detected() {
        // Adversarial trace on one table, two slots:
        //   batch 0: {1, 2}   (fills slots 0, 1)
        //   batch 1: {3}      (must evict; with future=0 it may evict 1 or 2)
        //   batch 2: {1, 2}   (needs whichever was evicted → RAW-4)
        let mk = |ids: &[u64]| SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])]);
        let batches = vec![mk(&[1, 2]), mk(&[3]), mk(&[1, 2])];
        let config =
            PipelineConfig::functional(4, 2).with_window(WindowConfig { past: 0, future: 0 });
        let mut pipe = functional(config, make_tables(1, 10, 4), Schedule::Sync);
        let err = pipe.run(&batches).unwrap_err();
        assert!(
            matches!(err, ScratchError::HazardViolation { .. }),
            "expected hazard violation, got {err:?}"
        );
    }

    /// Negative test without the checker: the same broken window must
    /// produce *numerically different* tables than sequential training —
    /// demonstrating the Hold-mask mechanism is load-bearing.
    #[test]
    fn broken_window_without_checker_diverges_numerically() {
        let mk = |ids: &[u64]| SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])]);
        // Row 1 is trained by batch 0, evicted by batch 1 (write-back in
        // flight), then batch 2 re-fetches it from the CPU table *before*
        // the write-back lands → it trains on stale data.
        let batches = vec![mk(&[1, 2]), mk(&[3]), mk(&[1]), mk(&[4]), mk(&[1])];
        let mut direct_tables = make_tables(1, 10, 4);
        let _ = train_direct(&mut direct_tables, &batches, &mut UnitBackend::new(0.3));

        let mut config =
            PipelineConfig::functional(4, 2).with_window(WindowConfig { past: 0, future: 0 });
        config.check_hazards = false;
        let mut pipe = Pipeline::builder()
            .config(config)
            .tables(make_tables(1, 10, 4))
            .backend(UnitBackend::new(0.3))
            .schedule(Schedule::Sync)
            .build()
            .unwrap();
        let _ = pipe.run(&batches).unwrap();
        let sp = pipe.into_tables();
        assert!(
            !direct_tables[0].bit_eq(&sp[0]),
            "broken window should corrupt training"
        );
    }

    #[test]
    fn capacity_exhaustion_reports_table() {
        let mk = |ids: &[u64]| SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])]);
        let batches = vec![mk(&[1, 2]), mk(&[3, 4])];
        let mut pipe = functional(
            PipelineConfig::functional(4, 2),
            make_tables(1, 10, 4),
            Schedule::Sync,
        );
        let err = pipe.run(&batches).unwrap_err();
        assert!(matches!(
            err,
            ScratchError::CapacityExhausted { table: 0, .. }
        ));
    }

    #[test]
    fn threaded_capacity_error_propagates() {
        let cfg = TraceConfig {
            num_tables: 1,
            rows_per_table: 1000,
            lookups_per_sample: 8,
            batch_size: 16,
            profile: LocalityProfile::Random,
            seed: 1,
        };
        let batches = TraceGenerator::new(cfg).take_batches(10);
        let mut pipe = functional(
            PipelineConfig::functional(8, 4), // far too small
            make_tables(1, 1000, 8),
            Schedule::Threaded,
        );
        let err = pipe.run(&batches).unwrap_err();
        assert!(matches!(err, ScratchError::CapacityExhausted { .. }));
    }

    #[test]
    fn traffic_accounting_is_consistent() {
        let (_, batches) = trace(LocalityProfile::Medium, 12);
        let mut pipe = functional(
            PipelineConfig::functional(8, 150),
            make_tables(3, 400, 8),
            Schedule::Sync,
        );
        let report = pipe.run(&batches).unwrap();
        let total = report.total_traffic();
        // Misses flow CPU→GPU: collect reads = exchange h2d = insert fills.
        assert_eq!(
            total.collect.cpu_random_read_bytes,
            total.exchange.pcie_h2d_bytes
        );
        assert_eq!(
            total.exchange.pcie_h2d_bytes,
            total.insert.gpu_random_write_bytes
        );
        // Evictions flow GPU→CPU symmetrically.
        assert_eq!(
            total.collect.gpu_random_read_bytes,
            total.exchange.pcie_d2h_bytes
        );
        assert_eq!(
            total.exchange.pcie_d2h_bytes,
            total.insert.cpu_random_write_bytes
        );
        // Train traffic is pure GPU.
        assert_eq!(total.train.cpu_bytes(), 0);
        assert!(total.train.gpu_bytes() > 0);
    }

    #[test]
    fn analytic_mode_counts_identical_cache_events() {
        let (tcfg, batches) = trace(LocalityProfile::Low, 15);
        let functional_report = {
            let mut pipe = functional(
                PipelineConfig::functional(8, 150),
                make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, 8),
                Schedule::Sync,
            );
            pipe.run(&batches).unwrap()
        };
        let analytic = {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 150))
                .analytic_tables(tcfg.num_tables, tcfg.rows_per_table)
                .backend(UnitBackend::new(0.01))
                .schedule(Schedule::Sync)
                .build()
                .unwrap();
            pipe.run(&batches).unwrap()
        };
        for (f, a) in functional_report.records.iter().zip(&analytic.records) {
            assert_eq!(f.hits, a.hits, "iteration {}", f.index);
            assert_eq!(f.misses, a.misses);
            assert_eq!(f.evictions, a.evictions);
            assert_eq!(f.traffic.exchange, a.traffic.exchange);
        }
    }

    #[test]
    fn higher_locality_yields_higher_hit_rate() {
        let run = |p| {
            let (tcfg, batches) = trace(p, 30);
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 160)) // 40 % of 400 rows
                .analytic_tables(tcfg.num_tables, tcfg.rows_per_table)
                .backend(UnitBackend::new(0.01))
                .build()
                .unwrap();
            pipe.run(&batches).unwrap().hit_rate()
        };
        let low = run(LocalityProfile::Random);
        let high = run(LocalityProfile::High);
        assert!(high > low + 0.1, "high {high} vs random {low}");
    }

    #[test]
    fn report_helpers() {
        let (_, batches) = trace(LocalityProfile::Medium, 10);
        let mut pipe = functional(
            PipelineConfig::functional(8, 150),
            make_tables(3, 400, 8),
            Schedule::Sync,
        );
        let report = pipe.run(&batches).unwrap();
        assert_eq!(report.records.len(), 10);
        assert!(report.total_traffic().train.gpu_bytes() > 0);
        assert_eq!(report.peak_held_slots.len(), 3);
        assert!(report.peak_held_slots.iter().all(|&p| p > 0));
        let _ = report.mean_loss();
    }

    #[test]
    fn mismatched_batch_rejected() {
        let mut pipe = functional(
            PipelineConfig::functional(8, 50),
            make_tables(2, 100, 8),
            Schedule::Sync,
        );
        let bad = SparseBatch::from_rows(1, &[vec![vec![1]]]);
        assert!(matches!(
            pipe.run(&[bad]),
            Err(ScratchError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn out_of_range_id_rejected() {
        let mut pipe = functional(
            PipelineConfig::functional(8, 50),
            make_tables(1, 100, 8),
            Schedule::Sync,
        );
        let bad = SparseBatch::from_rows(1, &[vec![vec![100]]]);
        assert!(matches!(
            pipe.run(&[bad]),
            Err(ScratchError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_trace_is_fine() {
        for schedule in [
            Schedule::Sync,
            Schedule::Sequential,
            Schedule::Threaded,
            Schedule::DataParallel,
        ] {
            let mut pipe = functional(
                PipelineConfig::functional(8, 50),
                make_tables(1, 100, 8),
                schedule,
            );
            let report = pipe.run(&[]).unwrap();
            assert_eq!(report.iterations, 0);
        }
    }

    #[test]
    fn empty_trace_returns_tables_unchanged() {
        let tables = make_tables(2, 100, 8);
        let expect = tables.clone();
        let mut pipe = functional(
            PipelineConfig::functional(8, 50),
            tables,
            Schedule::Threaded,
        );
        let report = pipe.run(&[]).unwrap();
        assert!(report.records.is_empty());
        let out = pipe.into_tables();
        for (a, b) in expect.iter().zip(&out) {
            assert!(a.bit_eq(b));
        }
    }

    #[test]
    fn eviction_policies_all_train_correctly() {
        use crate::policy::EvictionPolicy;
        let (tcfg, batches) = trace(LocalityProfile::Medium, 20);
        let dim = 8;
        let mut direct = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
        let _ = train_direct(&mut direct, &batches, &mut UnitBackend::new(0.05));
        for policy in EvictionPolicy::ALL {
            let config = PipelineConfig::functional(dim, 150).with_policy(policy);
            let mut pipe = functional(
                config,
                make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim),
                Schedule::Sync,
            );
            let _ = pipe.run(&batches).unwrap();
            let sp = pipe.into_tables();
            for (a, b) in direct.iter().zip(&sp) {
                assert!(a.bit_eq(b), "policy {policy} diverged");
            }
        }
    }

    #[test]
    fn threaded_report_carries_stage_traffic() {
        let cfg = TraceConfig {
            num_tables: 2,
            rows_per_table: 200,
            lookups_per_sample: 4,
            batch_size: 8,
            profile: LocalityProfile::Medium,
            seed: 4,
        };
        let batches = TraceGenerator::new(cfg).take_batches(12);
        let mut pipe = functional(
            PipelineConfig::functional(8, 130),
            make_tables(2, 200, 8),
            Schedule::Threaded,
        );
        let report = pipe.run(&batches).unwrap();
        assert_eq!(report.iterations, 12);
        let total = report.total_traffic();
        assert!(total.plan.pcie_h2d_bytes > 0, "plan uploads sparse IDs");
        assert!(total.train.gpu_bytes() > 0, "train is pure GPU work");
        // Miss flow is conserved: collect reads = exchange h2d = insert fills.
        assert_eq!(
            total.collect.cpu_random_read_bytes,
            total.exchange.pcie_h2d_bytes
        );
        assert_eq!(
            total.exchange.pcie_h2d_bytes,
            total.insert.gpu_random_write_bytes
        );
        assert!(report.hit_rate() > 0.0);
        assert_eq!(report.peak_held_slots.len(), 2);
    }

    #[test]
    fn analytic_mode_rejects_threaded_schedule() {
        for schedule in [Schedule::Threaded, Schedule::DataParallel] {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 100))
                .analytic_tables(1, 100)
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .build()
                .unwrap();
            let err = pipe.run(&[]).unwrap_err();
            assert!(matches!(err, ScratchError::InvalidConfig { .. }));
        }
    }

    /// The data-parallel schedule is bit-identical to sync at every pool
    /// width — the worker-pool sharding never splits a floating-point
    /// reduction, so the width is invisible in the results.
    #[test]
    fn data_parallel_is_bit_identical_at_any_width() {
        let (tcfg, batches) = trace(LocalityProfile::Medium, 25);
        let dim = 8;
        let run = |schedule, parallelism| {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::functional(dim, 192))
                .tables(make_tables(
                    tcfg.num_tables,
                    tcfg.rows_per_table as usize,
                    dim,
                ))
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .parallelism(parallelism)
                .build()
                .unwrap();
            let report = pipe.run(&batches).unwrap();
            (report, pipe.into_tables())
        };
        let (sync_report, sync_tables) = run(Schedule::Sync, 1);
        for width in [1, 2, 4, 7] {
            let (dp_report, dp_tables) = run(Schedule::DataParallel, width);
            for (s, d) in sync_report.records.iter().zip(&dp_report.records) {
                assert_eq!(s.hits, d.hits, "width {width}");
                assert_eq!(s.traffic, d.traffic, "width {width}");
                assert_eq!(s.loss.to_bits(), d.loss.to_bits(), "width {width}");
            }
            assert_eq!(sync_report.flush_traffic, dp_report.flush_traffic);
            assert_eq!(sync_report.peak_held_slots, dp_report.peak_held_slots);
            for (a, b) in sync_tables.iter().zip(&dp_tables) {
                assert!(a.bit_eq(b), "width {width}");
            }
        }
    }

    #[test]
    fn auto_rule_overlaps_only_where_it_pays() {
        let floor = AUTO_OVERLAP_MIN_LOOKUPS;
        let long = STAGES + 1;
        // Either side of the lookup floor.
        assert_eq!(auto_schedule(true, 2, floor, long), Schedule::Threaded);
        assert_eq!(auto_schedule(true, 2, floor - 1, long), Schedule::Sync);
        // One CPU never overlaps, however much work there is; any count
        // from two up does.
        assert_eq!(auto_schedule(true, 1, u64::MAX, long), Schedule::Sync);
        assert_eq!(auto_schedule(true, 64, floor, long), Schedule::Threaded);
        // A run no longer than the pipeline is deep has nothing to overlap.
        assert_eq!(auto_schedule(true, 2, u64::MAX, STAGES), Schedule::Sync);
        assert_eq!(auto_schedule(true, 2, u64::MAX, 0), Schedule::Sync);
        // Analytic pipelines move no data.
        assert_eq!(auto_schedule(false, 2, u64::MAX, long), Schedule::Sync);
    }

    #[test]
    fn auto_resolves_from_the_first_batch_and_the_trace_length() {
        let cpus = workers::available_cpus();
        // 8 samples × 4 lookups × 3 tables = 96 lookups: under the floor.
        let (_, small) = trace(LocalityProfile::Medium, 12);
        // 256 samples × 8 lookups × 4 tables = 8 192 lookups: over it.
        let big = TraceGenerator::new(TraceConfig {
            num_tables: 4,
            rows_per_table: 5_000,
            lookups_per_sample: 8,
            batch_size: 256,
            profile: LocalityProfile::Medium,
            seed: 9,
        })
        .take_batches(STAGES + 1);
        assert!((small[0].total_lookups() as u64) < AUTO_OVERLAP_MIN_LOOKUPS);
        assert!(big[0].total_lookups() as u64 >= AUTO_OVERLAP_MIN_LOOKUPS);

        let pipe = functional(
            PipelineConfig::functional(8, 150),
            make_tables(3, 400, 8),
            Schedule::Auto,
        );
        assert_eq!(pipe.effective_schedule(&small).unwrap(), Schedule::Sync);
        assert_eq!(pipe.effective_schedule(&[]).unwrap(), Schedule::Sync);

        // The pool width is not part of the rule: Auto never resolves to
        // DataParallel, and what it does resolve to depends on this host's
        // CPUs only through `auto_schedule`.
        for parallelism in [1, 4] {
            let pipe = Pipeline::builder()
                .config(PipelineConfig::functional(32, 4_000))
                .tables(make_tables(4, 5_000, 32))
                .backend(UnitBackend::new(0.05))
                .parallelism(parallelism)
                .build()
                .unwrap();
            assert_eq!(pipe.schedule(), Schedule::Auto);
            assert_eq!(
                pipe.effective_schedule(&big).unwrap(),
                auto_schedule(true, cpus, big[0].total_lookups() as u64, big.len())
            );
            assert_eq!(
                pipe.effective_schedule(&big[..STAGES]).unwrap(),
                Schedule::Sync
            );
        }

        // Analytic pipelines always resolve to sync.
        let analytic = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::analytic(32, 4_000))
            .analytic_tables(4, 5_000)
            .backend(UnitBackend::new(0.05))
            .build()
            .unwrap();
        assert_eq!(analytic.effective_schedule(&big).unwrap(), Schedule::Sync);
    }

    /// The overlapped driver mints its payloads up front, on the calling
    /// thread, and only circulates those: however long the run and however
    /// often it is repeated, the pool has allocated `stages + 1`.
    #[test]
    fn overlapped_driver_circulates_exactly_stages_plus_one_payloads() {
        let (_, batches) = trace(LocalityProfile::Medium, 40);
        let mut pipe = functional(
            PipelineConfig::functional(8, 192),
            make_tables(3, 400, 8),
            Schedule::Threaded,
        );
        assert_eq!(pipe.pool.minted(), 0);
        let _ = pipe.run(&batches).unwrap();
        assert_eq!(pipe.pool.minted(), STAGES + 1);
        let _ = pipe.run(&batches[..3]).unwrap();
        assert_eq!(pipe.pool.minted(), STAGES + 1, "second run reuses them");

        // A failed attempt hands back every payload, wherever it was: its
        // retry mints none to replace them.
        use crate::faults::{Fault, FaultKind};
        let mut failing = Pipeline::builder()
            .config(PipelineConfig::functional(8, 192))
            .tables(make_tables(3, 400, 8))
            .backend(UnitBackend::new(0.05))
            .schedule(Schedule::Threaded)
            .faults(FaultPlan::new(vec![Fault {
                iteration: 11,
                stage: "Insert".to_owned(),
                shard: 0,
                kind: FaultKind::StageError,
                fires: 1,
            }]))
            .build()
            .unwrap();
        let policy = RecoveryPolicy {
            retry_budget: 2,
            checkpoint_interval: batches.len(),
        };
        let run = failing.run_supervised(&batches, policy).unwrap();
        assert_eq!(run.stats.rollbacks, 1);
        assert_eq!(failing.pool.minted(), STAGES + 1, "nothing was lost");

        // The register schedules circulate the same payloads.
        for schedule in [Schedule::Sync, Schedule::Sequential, Schedule::DataParallel] {
            let mut stepped = functional(
                PipelineConfig::functional(8, 192),
                make_tables(3, 400, 8),
                schedule,
            );
            let _ = stepped.run(&batches).unwrap();
            assert!(stepped.pool.minted() <= STAGES + 1, "{schedule:?}");
        }
    }

    /// Payloads in `pool` whose plan lists have grown.
    fn holding_plans(pool: &PayloadPool) -> usize {
        pool.footprints().iter().filter(|held| held[0] > 0).count()
    }

    /// The register order grows four payloads' plans, not the six it
    /// circulates: \[Train\](c−4) runs first in cycle `c` and hands its
    /// payload back before Plan(c) takes one, so batches c−4 … c−1 are
    /// all that is ever in flight. `Sequential` grows its one.
    #[test]
    fn the_register_order_grows_four_payloads() {
        let (_, batches) = trace(LocalityProfile::Medium, 16);
        for (schedule, grown) in [(Schedule::Sync, 4), (Schedule::Sequential, 1)] {
            let mut pipe = functional(
                PipelineConfig::functional(8, 192),
                make_tables(3, 400, 8),
                schedule,
            );
            let _ = pipe.run(&batches).unwrap();
            assert_eq!(holding_plans(&pipe.pool), grown, "{schedule:?}");
            let _ = pipe.run(&batches[..12]).unwrap();
            assert_eq!(holding_plans(&pipe.pool), grown, "{schedule:?} again");
        }
    }

    /// An analytic run moves no rows, so no stage after \[Plan\] reads a
    /// plan: its payloads grow no plan lists, and \[Plan\] keeps one set
    /// for the run.
    #[test]
    fn analytic_runs_keep_one_set_of_plans() {
        let (tcfg, batches) = trace(LocalityProfile::Low, 16);
        for schedule in [Schedule::Sync, Schedule::Sequential] {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 150))
                .analytic_tables(tcfg.num_tables, tcfg.rows_per_table)
                .backend(UnitBackend::new(0.01))
                .schedule(schedule)
                .build()
                .unwrap();
            let report = pipe.run(&batches).unwrap();
            assert!(report.records.iter().all(|r| r.unique_rows > 0));
            assert_eq!(holding_plans(&pipe.pool), 0, "{schedule:?}");
            let plans = &pipe.plan.plans;
            assert_eq!(plans.len(), tcfg.num_tables, "{schedule:?}");
            assert!(plans.iter().all(|p| p.unique_ids.capacity() > 0));
        }
    }

    /// A failed supervised attempt hands back every payload whichever of
    /// the five stages failed, however many dispatch threads were out in
    /// their stages' bodies when the graph closed.
    #[test]
    fn a_stage_error_at_any_stage_strands_no_payload() {
        use crate::faults::{Fault, FaultKind};
        let (_, batches) = trace(LocalityProfile::Medium, 40);
        for stage in StageTraffic::STAGE_NAMES {
            let mut failing = Pipeline::builder()
                .config(PipelineConfig::functional(8, 192))
                .tables(make_tables(3, 400, 8))
                .backend(UnitBackend::new(0.05))
                .schedule(Schedule::Threaded)
                .parallelism(2)
                .faults(FaultPlan::new(vec![Fault {
                    iteration: 11,
                    stage: stage.to_owned(),
                    shard: 0,
                    kind: FaultKind::StageError,
                    fires: 1,
                }]))
                .build()
                .unwrap();
            let policy = RecoveryPolicy {
                retry_budget: 2,
                checkpoint_interval: batches.len(),
            };
            let run = failing.run_supervised(&batches, policy).unwrap();
            assert_eq!(run.stats.rollbacks, 1, "{stage}");
            assert_eq!(
                failing.pool.minted(),
                STAGES + 1,
                "{stage}: nothing was lost"
            );
        }
    }

    /// An error at any stage — first, middle or last — stops every other
    /// stage (the run returns instead of hanging) and is the error
    /// reported, not the disconnections it causes.
    #[test]
    fn a_stage_error_on_any_lane_shuts_the_overlapped_pipeline_down() {
        use crate::faults::{Fault, FaultKind};
        let (_, batches) = trace(LocalityProfile::Medium, 30);
        for stage in StageTraffic::STAGE_NAMES {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::functional(8, 192))
                .tables(make_tables(3, 400, 8))
                .backend(UnitBackend::new(0.05))
                .schedule(Schedule::Threaded)
                .faults(FaultPlan::new(vec![Fault {
                    iteration: 11,
                    stage: stage.to_owned(),
                    shard: 0,
                    kind: FaultKind::StageError,
                    fires: 1,
                }]))
                .build()
                .unwrap();
            let err = pipe.run(&batches).unwrap_err();
            assert_eq!(
                err,
                ScratchError::Injected {
                    iteration: 11,
                    stage: stage.to_owned(),
                },
                "fault at {stage}"
            );
        }
    }

    /// The `Stage` events of an observed run of `batches` (supervised
    /// under `policy` if one is given), in the order they were recorded:
    /// (batch, stage index, start, end) on the run's clock.
    fn observed_stages(
        schedule: Schedule,
        width: usize,
        batches: &[SparseBatch],
        policy: Option<RecoveryPolicy>,
    ) -> Vec<(usize, usize, u64, u64)> {
        let telemetry = Telemetry::new();
        let mut pipe = Pipeline::builder()
            .config(PipelineConfig::functional(8, 192))
            .tables(make_tables(3, 400, 8))
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .parallelism(width)
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        match policy {
            Some(policy) => drop(pipe.run_supervised(batches, policy).unwrap()),
            None => drop(pipe.run(batches).unwrap()),
        }
        let stage_events = telemetry
            .events()
            .into_iter()
            .filter_map(|event| match event {
                Event::Stage {
                    iteration,
                    stage,
                    start_ns,
                    dur_ns,
                    ..
                } => {
                    let s = StageId::from_name(stage).expect("a stage").index();
                    Some((iteration, s, start_ns, start_ns + dur_ns))
                }
                _ => None,
            });
        stage_events.collect()
    }

    /// The (batch, stage) pairs of `stages`, in order.
    fn order(stages: Vec<(usize, usize, u64, u64)>) -> Vec<(usize, usize)> {
        stages.into_iter().map(|(i, s, ..)| (i, s)).collect()
    }

    /// (batch, stage) in the order of the register pipeline over batches
    /// `range`: cycle `c` runs Train(c−4), Insert(c−3), Exchange(c−2),
    /// Collect(c−1) and Plan(c), those of them that are in the range, from
    /// the fill to the drain.
    fn register_order(range: Range<usize>) -> Vec<(usize, usize)> {
        let n = range.len();
        let cycle = move |c: usize| {
            let stages = (0..STAGES).rev().filter(move |&s| s <= c && c - s < n);
            stages.map(move |s| (range.start + c - s, s))
        };
        (0..n + STAGES - 1).flat_map(cycle).collect()
    }

    #[test]
    fn sync_runs_in_register_order() {
        let (_, batches) = trace(LocalityProfile::Medium, 16);
        let sync = order(observed_stages(Schedule::Sync, 2, &batches, None));
        assert_eq!(sync, register_order(0..16));
    }

    #[test]
    fn sequential_runs_batch_at_a_time() {
        let (_, batches) = trace(LocalityProfile::Medium, 16);
        let sequential = order(observed_stages(Schedule::Sequential, 2, &batches, None));
        let batch_at_a_time: Vec<_> = (0..16)
            .flat_map(|i| (0..STAGES).map(move |s| (i, s)))
            .collect();
        assert_eq!(sequential, batch_at_a_time);
    }

    /// Each checkpointed segment is a register pipeline of its own: the
    /// order repeats, shifted by the segment's start.
    #[test]
    fn a_supervised_segment_repeats_the_register_order() {
        let (_, batches) = trace(LocalityProfile::Medium, 16);
        let policy = RecoveryPolicy {
            retry_budget: 1,
            checkpoint_interval: 7,
        };
        let segments = order(observed_stages(Schedule::Sync, 2, &batches, Some(policy)));
        let shifted: Vec<_> = [0..7, 7..14, 14..16]
            .into_iter()
            .flat_map(register_order)
            .collect();
        assert_eq!(segments, shifted);
    }

    /// Every stage execution of an observed run starts at or after the end
    /// of every predecessor [`Schedule::edges`] names: the measured run
    /// obeys the graph the simulator schedules on, at every dispatch width.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timed runs: run with --release")]
    fn observed_runs_obey_the_graph() {
        let (_, batches) = trace(LocalityProfile::Medium, 40);
        let runs = [
            (Schedule::Threaded, 1),
            (Schedule::Threaded, 2),
            (Schedule::Threaded, 4),
            (Schedule::Sync, 2),
        ];
        for (schedule, width) in runs {
            let stages = observed_stages(schedule, width, &batches, None);
            assert_eq!(stages.len(), batches.len() * STAGES, "{schedule:?}");
            let mut end = vec![[0; STAGES]; batches.len()];
            for &(i, s, _, e) in &stages {
                end[i][s] = e;
            }
            let edges = schedule.edges();
            for &(i, s, start, _) in &stages {
                for e in edges.iter().filter(|e| e.waiter == s && i >= e.lag) {
                    let watched = end[i - e.lag][e.watched];
                    assert!(
                        start >= watched,
                        "{schedule:?} at width {width}: {:?}({i}) starts at {start} before \
                         {:?}({}) ends at {watched}",
                        StageId::ALL[s],
                        StageId::ALL[e.watched],
                        i - e.lag,
                    );
                }
            }
        }
    }

    #[test]
    fn builder_rejects_inconsistent_setups() {
        let missing_config = Pipeline::<UnitBackend>::builder()
            .tables(make_tables(1, 10, 4))
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(missing_config.is_err());

        let missing_backend = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(4, 10))
            .tables(make_tables(1, 10, 4))
            .build();
        assert!(missing_backend.is_err());

        let no_tables = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(4, 10))
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(no_tables.is_err());

        let both = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(4, 10))
            .tables(make_tables(1, 10, 4))
            .analytic_tables(1, 10)
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(both.is_err());

        let dim_mismatch = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(8, 10))
            .tables(make_tables(1, 10, 4))
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(dim_mismatch.is_err());
    }

    #[test]
    fn sync_and_threaded_reports_are_identical() {
        let (tcfg, batches) = trace(LocalityProfile::Medium, 30);
        let dim = 8;
        let run = |schedule| {
            let mut pipe = functional(
                PipelineConfig::functional(dim, 192),
                make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim),
                schedule,
            );
            let report = pipe.run(&batches).unwrap();
            (report, pipe.into_tables())
        };
        let (sync_report, sync_tables) = run(Schedule::Sync);
        let (thr_report, thr_tables) = run(Schedule::Threaded);
        for (s, t) in sync_report.records.iter().zip(&thr_report.records) {
            assert_eq!(s.hits, t.hits);
            assert_eq!(s.traffic, t.traffic);
            assert_eq!(s.loss.to_bits(), t.loss.to_bits());
        }
        assert_eq!(sync_report.flush_traffic, thr_report.flush_traffic);
        assert_eq!(sync_report.peak_held_slots, thr_report.peak_held_slots);
        for (a, b) in sync_tables.iter().zip(&thr_tables) {
            assert!(a.bit_eq(b));
        }
    }
}
