//! The per-run event log, and telemetry as folds over it.
//!
//! A pipeline run with any observer attached — an audit sink
//! ([`PipelineBuilder::audit`]), a [`Telemetry`] collector
//! ([`PipelineBuilder::telemetry`]), or both — records **one** typed,
//! append-only log of [`Event`]s through one handle, the run's
//! [`RunTelemetry`]: what started, every stage execution and shard
//! region with its clock readings, every barrier stall and stage
//! backlog, every retired iteration, every fault and recovery decision, and
//! one terminal [`Event::Completed`] or [`Event::Aborted`]. Nothing else
//! is recorded anywhere. When the run closes, the log is handed to its
//! consumers, each of which is a fold over it:
//!
//! * the audit JSONL stream ([`crate::audit`]), written to the sink;
//! * the **metrics registry** — counters, gauges, log₂-bucketed
//!   histograms — rendered by [`Telemetry::write_metrics_json`]
//!   (`METRICS.json`);
//! * the **span tree** — run → iteration → stage → shard, plus barrier
//!   stalls — rendered by [`Telemetry::write_chrome_trace`] as Chrome
//!   trace-event JSON (`trace.json`), loadable in Perfetto or
//!   `chrome://tracing`. Each run is a process; lane 0 is the driver
//!   thread, lanes 1–5 are the threaded schedule's stages, lanes 100+ are
//!   worker-pool workers running the tasks of a recorded shard region
//!   that left its thread: the \[Plan\], Collect, Insert and Train
//!   regions the register schedules fan out. The pool's other work — the prewarm, the dedup of a batch
//!   entering the window and the dense step's two regions — records no
//!   event, so it lands on no lane.
//!
//! A [`Telemetry`] handle is a cheap `Arc` clone; attach one to every
//! pipeline whose runs should land in the same snapshot. It keeps the
//! logs of those runs and folds them each time a view is asked for, so
//! the audit stream's `stage_nanos`, the `sp_stage_latency_ns` histogram
//! and the trace's stage spans are the same recorded integers by
//! construction — there is no second copy to reconcile.
//!
//! # Determinism
//!
//! Histogram buckets are fixed powers of two (upper bounds 2⁰ … 2⁶³,
//! then +Inf) — no wall-clock feeds a bucket *boundary*, only observed
//! values. Every metric whose value is not a wall-clock measurement
//! (cache stats, shard/task counts, recovery counters, iteration counts)
//! is bit-identical across same-seed runs at any pool width;
//! [`Telemetry::deterministic_digest`] renders exactly that stable
//! subset, plus the structural span tree (which spans exist, on which
//! lanes — not how long they took), for tests to compare.
//!
//! # Overhead contract
//!
//! A pipeline with neither a sink nor a collector has no
//! [`RunTelemetry`]: every recording site is one `Option` check — the
//! same pattern as fault injection — and the driver does not read the
//! clock. With an observer attached, a recording is one clock read and
//! one `Vec` push under the run's own lock; labels, histograms and JSON
//! are built by the folds, after the run. The `telemetry_overhead` bench
//! bin asserts the enabled path stays within a few percent. See
//! `docs/observability.md` for the event table and the metric catalog.
//!
//! [`PipelineBuilder::audit`]: crate::pipeline::PipelineBuilder::audit
//! [`PipelineBuilder::telemetry`]: crate::pipeline::PipelineBuilder::telemetry

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use memsim::Traffic;
use parking_lot::Mutex;
use serde::Value;

use crate::audit::{self, AuditSink};
use crate::config::PipelineConfig;
use crate::faults::InjectionRecord;
use crate::runtime::IterationRecord;
use crate::scratchpad::ScratchpadStats;
use crate::workers::ShardTiming;

/// The lane (Chrome-trace `tid`) a span renders on: which thread-like
/// execution context did the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The driver thread (sync / sequential / data-parallel schedules).
    Main,
    /// Stage `s` (0 = Plan … 4 = Train) of the threaded schedule, on
    /// whichever dispatch thread ran it.
    Stage(u8),
    /// Worker `w` of a recorded shard region that ran on the pool (0 =
    /// the thread that entered the region): a register schedule's
    /// \[Plan\], Collect, Insert and Train regions. Pool work that records no region (the
    /// prewarm, the dedup, the dense step) has no lane.
    Worker(u16),
}

impl Lane {
    /// The Chrome-trace thread ID this lane renders as.
    fn tid(self) -> u64 {
        match self {
            Lane::Main => 0,
            Lane::Stage(s) => 1 + u64::from(s),
            Lane::Worker(w) => 100 + u64::from(w),
        }
    }
}

/// One entry of a run's event log. Timestamps (`*_ns`) are
/// `RunTelemetry::now_ns` readings. The log is in order of occurrence
/// as far as recovery goes: everything a failed attempt recorded precedes
/// the [`Event::RolledBack`] that voids it.
///
/// See `docs/observability.md` for which fold consumes which event.
#[derive(Debug, Clone)]
pub enum Event {
    /// First event of every log.
    RunStarted {
        /// The pipeline's name ([`PipelineBuilder::named`]) — the audit
        /// `run` field and the `run` label of every metric.
        ///
        /// [`PipelineBuilder::named`]: crate::pipeline::PipelineBuilder::named
        label: String,
        /// When the run opened.
        start_ns: u64,
        /// Name of the schedule the run starts on.
        schedule: &'static str,
        /// Mini-batches in the trace.
        iterations: usize,
        /// Embedding tables.
        num_tables: usize,
        /// The pipeline configuration.
        config: PipelineConfig,
        /// Whether the run is driven by `run_supervised` (only those
        /// publish the `sp_recovery_*` counters).
        supervised: bool,
    },
    /// One stage execution that returned `Ok`.
    Stage {
        /// Mini-batch index.
        iteration: usize,
        /// Stage name.
        stage: &'static str,
        /// Where it ran.
        lane: Lane,
        /// When it started.
        start_ns: u64,
        /// How long it took.
        dur_ns: u64,
    },
    /// One worker-pool region of a stage execution.
    Shards {
        /// Mini-batch index.
        iteration: usize,
        /// Stage name.
        stage: &'static str,
        /// Lane of the stage that entered the region.
        lane: Lane,
        /// When the region was entered; the timings are relative to it.
        start_ns: u64,
        /// Per task, in submission order.
        timings: Vec<ShardTiming>,
        /// Workers the region ran on, `min(pool width, tasks)`: 1 means
        /// inline, on `lane`.
        width: usize,
    },
    /// One barrier wait that actually blocked (threaded schedule): the
    /// stage's payload had arrived, but an edge still held its node.
    Stall {
        /// Mini-batch the waiter was about to process.
        iteration: usize,
        /// The waiting stage.
        stage: &'static str,
        /// The stage it waited on.
        watched: &'static str,
        /// The waiter's lane.
        lane: Lane,
        /// When the wait began.
        start_ns: u64,
        /// How long it lasted.
        dur_ns: u64,
    },
    /// The backlog in front of a stage, as the stage before it completes
    /// a batch (threaded schedule).
    Backlog {
        /// The stage the backlog waits for.
        stage: &'static str,
        /// Batches the stage before it completed that it has not taken.
        depth: u64,
    },
    /// An iteration left the last stage. A rolled-back iteration retires
    /// again on the retry; the last retirement is the committed one.
    Retired(Box<IterationRecord>),
    /// The injector fired a fault (recorded once the attempt it fired in
    /// has been driven).
    Fault(InjectionRecord),
    /// A segment attempt failed and its state was restored: whatever the
    /// log holds about this iteration and later ones is void.
    RolledBack {
        /// First iteration of the segment.
        iteration: usize,
        /// Attempts made so far.
        attempt: u32,
        /// The error, rendered.
        cause: String,
    },
    /// The rolled-back segment runs again on the same schedule.
    Retried {
        /// First iteration of the segment.
        iteration: usize,
        /// Attempts made so far.
        attempt: u32,
        /// The schedule it retries on.
        schedule: &'static str,
    },
    /// A schedule exhausted its retry budget; the run moves down the
    /// ladder.
    Degraded {
        /// First iteration of the segment.
        iteration: usize,
        /// The exhausted schedule.
        from: &'static str,
        /// The next one down.
        to: &'static str,
    },
    /// Terminal event of a run that finished its trace.
    Completed {
        /// When the run closed.
        end_ns: u64,
        /// Wall-clock of the drive (without the final flush).
        elapsed_ns: u64,
        /// Name of the schedule the run ended on.
        schedule: &'static str,
        /// Worker-pool width that schedule shards over.
        pool_width: usize,
        /// Per table: rows resident at run end, and the cache statistics.
        tables: Vec<(usize, ScratchpadStats)>,
        /// Iterations committed (all of them).
        iterations: usize,
        /// Traffic of the final flush.
        flush_traffic: Traffic,
        /// Unique-ID hit rate over the committed iterations.
        hit_rate: f64,
        /// Mean loss over the committed iterations.
        mean_loss: f32,
    },
    /// Terminal event of a run that failed: a supervised run whose ladder
    /// ran out, or a plain run whose error propagated.
    Aborted {
        /// When the run closed.
        end_ns: u64,
        /// Wall-clock until the failure was final.
        elapsed_ns: u64,
        /// Name of the schedule the run ended on.
        schedule: &'static str,
        /// Worker-pool width that schedule shards over.
        pool_width: usize,
        /// Per table: rows resident at run end, and the cache statistics.
        tables: Vec<(usize, ScratchpadStats)>,
        /// Iterations committed — also the first uncommitted index.
        committed: usize,
        /// Attempts made on the final schedule.
        attempts: u32,
        /// The error, rendered.
        cause: String,
    },
}

/// One pipeline run's event log — the single observer handle of the
/// runtime, created by the pipeline when a sink or a collector is
/// attached and lent to every stage execution as `Option<&RunTelemetry>`
/// (`None` keeps every recording site a single branch).
#[derive(Debug)]
pub struct RunTelemetry {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    /// The collector that keeps the log, and this run's slot in it.
    collector: Option<(Telemetry, usize)>,
}

/// Opens a run's log. With a collector, timestamps count from its epoch
/// (so runs sharing it share a timeline) and the run's slot is reserved
/// now, in opening order.
pub(crate) fn open_run(collector: Option<&Telemetry>) -> RunTelemetry {
    RunTelemetry {
        epoch: collector.map_or_else(Instant::now, |t| t.inner.epoch),
        events: Mutex::new(Vec::new()),
        collector: collector.map(|t| {
            let mut runs = t.inner.runs.lock();
            runs.push(Vec::new());
            (t.clone(), runs.len() - 1)
        }),
    }
}

impl RunTelemetry {
    /// Nanoseconds since the log's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends one event.
    pub(crate) fn record(&self, event: Event) {
        self.events.lock().push(event);
    }

    /// Closes the log: folds it into the audit stream on `sink`, then
    /// hands it to the collector.
    pub(crate) fn close(self, sink: Option<&mut (dyn AuditSink + 'static)>) {
        let events = self.events.into_inner();
        if let Some(sink) = sink {
            audit::write_run(sink, &events);
        }
        if let Some((telemetry, run)) = self.collector {
            telemetry.inner.runs.lock()[run] = events;
        }
    }
}

/// The head of a closed run's log; `None` for a run still open.
fn run_started(events: &[Event]) -> Option<(&str, &'static str, &PipelineConfig, bool)> {
    match events.first() {
        Some(Event::RunStarted {
            label,
            schedule,
            config,
            supervised,
            ..
        }) => Some((label, schedule, config, *supervised)),
        _ => None,
    }
}

/// Synthetic lanes used by the trace writer for derived spans.
const LANE_RUN: u64 = 89;
const LANE_ITER_BASE: u64 = 90;
/// Overlapping in-flight iterations round-robin over this many lanes so
/// the trace renders them side by side instead of stacked.
const ITER_LANES: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SpanKind {
    Run,
    Stage,
    Shard,
    Stall,
}

impl SpanKind {
    fn category(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Stage => "stage",
            SpanKind::Shard => "shard",
            SpanKind::Stall => "stall",
        }
    }
}

#[derive(Debug, Clone)]
struct SpanRecord {
    run: u32,
    kind: SpanKind,
    lane: Lane,
    iteration: u32,
    /// Stage the span belongs to (`""` for run spans).
    stage: &'static str,
    /// Stall spans: the watched stage the waiter blocked on.
    aux: &'static str,
    /// Shard spans: the task's index in its region.
    task: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// The span fold: every stage execution, shard task, barrier stall and
/// run of `runs`, sorted for stable output. Failed attempts of a
/// supervised run are in the log, so their spans are here too.
fn spans(runs: &[Vec<Event>]) -> Vec<SpanRecord> {
    let mut spans = Vec::new();
    for (run, events) in runs.iter().enumerate() {
        let run = run as u32;
        let mut run_start = 0;
        let span = |kind, lane, iteration: usize, stage, start_ns, dur_ns| SpanRecord {
            run,
            kind,
            lane,
            iteration: iteration as u32,
            stage,
            aux: "",
            task: 0,
            start_ns,
            dur_ns,
        };
        for event in events {
            match *event {
                Event::RunStarted { start_ns, .. } => run_start = start_ns,
                Event::Stage {
                    iteration,
                    stage,
                    lane,
                    start_ns,
                    dur_ns,
                    ..
                } => spans.push(span(
                    SpanKind::Stage,
                    lane,
                    iteration,
                    stage,
                    start_ns,
                    dur_ns,
                )),
                Event::Shards {
                    iteration,
                    stage,
                    lane,
                    start_ns,
                    ref timings,
                    width,
                } => spans.extend(timings.iter().enumerate().map(|(task, t)| SpanRecord {
                    task: task as u32,
                    ..span(
                        SpanKind::Shard,
                        if width > 1 {
                            Lane::Worker(t.worker)
                        } else {
                            lane
                        },
                        iteration,
                        stage,
                        start_ns + t.start_ns,
                        t.dur_ns,
                    )
                })),
                Event::Stall {
                    iteration,
                    stage,
                    watched,
                    lane,
                    start_ns,
                    dur_ns,
                } => spans.push(SpanRecord {
                    aux: watched,
                    ..span(SpanKind::Stall, lane, iteration, stage, start_ns, dur_ns)
                }),
                Event::Completed { end_ns, .. } | Event::Aborted { end_ns, .. } => {
                    spans.push(span(
                        SpanKind::Run,
                        Lane::Main,
                        0,
                        "",
                        run_start,
                        end_ns.saturating_sub(run_start),
                    ));
                }
                _ => {}
            }
        }
    }
    spans.sort_by_key(|s| {
        (
            s.run,
            s.iteration,
            s.kind,
            s.stage,
            s.lane.tid(),
            s.task,
            s.start_ns,
        )
    });
    spans
}

/// Fixed log₂ histogram: bucket `i` has upper bound `2^i` nanoseconds
/// (or units) for `i` in `0..64`, plus an implicit `+Inf` bucket. The
/// boundaries never depend on observed values or wall-clock state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Histogram {
    count: u64,
    sum: u64,
    /// `buckets[i]` counts observations `v` with `2^(i-1) < v <= 2^i`
    /// (index 0: `v <= 1`); index [`Histogram::BUCKETS`] is `+Inf`.
    buckets: Vec<u64>,
}

impl Histogram {
    const BUCKETS: usize = 64;

    fn observe(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; Self::BUCKETS + 1];
        }
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(Self::BUCKETS)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// `(upper-bound label, bucket count)` for every non-empty bucket.
    fn nonzero_buckets(&self) -> Vec<(String, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let le = if i >= Self::BUCKETS {
                    "+Inf".to_owned()
                } else {
                    (1u128 << i).to_string()
                };
                (le, c)
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Registry key: metric name plus labels sorted by label name.
type MetricKey = (&'static str, Vec<(&'static str, String)>);

/// Static metric metadata: type, unit and whether the *value* is
/// deterministic across same-seed runs (wall-clock-valued metrics and
/// timing-dependent ones are not). docs/observability.md describes each
/// metric.
struct MetricMeta {
    kind: &'static str,
    unit: &'static str,
    deterministic: bool,
}

fn meta(name: &str) -> MetricMeta {
    let (kind, unit, deterministic) = match name {
        "sp_run_iterations_total" => ("counter", "iterations", true),
        "sp_run_elapsed_ns" => ("gauge", "ns", false),
        "sp_worker_pool_width" => ("gauge", "workers", true),
        "sp_stage_latency_ns" | "sp_shard_latency_ns" => ("histogram", "ns", false),
        "sp_shard_tasks_total" => ("counter", "tasks", true),
        "sp_worker_busy_ns_total" | "sp_worker_idle_ns_total" | "sp_barrier_stall_ns_total" => {
            ("counter", "ns", false)
        }
        "sp_barrier_stalls_total" => ("counter", "stalls", false),
        "sp_stage_backlog" => ("histogram", "payloads", false),
        "sp_scratchpad_occupancy_rows" | "sp_scratchpad_slots" | "sp_scratchpad_peak_held_rows" => {
            ("gauge", "rows", true)
        }
        "sp_scratchpad_hits_total"
        | "sp_scratchpad_misses_total"
        | "sp_scratchpad_evictions_total" => ("counter", "rows", true),
        "sp_scratchpad_hit_rate" => ("gauge", "ratio", true),
        "sp_recovery_rollbacks_total"
        | "sp_recovery_retries_total"
        | "sp_recovery_degradations_total"
        | "sp_recovery_faults_injected_total"
        | "sp_recovery_aborts_total" => ("counter", "events", true),
        _ => ("gauge", "", false),
    };
    MetricMeta {
        kind,
        unit,
        deterministic,
    }
}

/// The metrics registry while a fold fills it. Counters and histograms
/// accumulate across runs that share a label; `set_*` overwrites.
#[derive(Default)]
struct Registry(BTreeMap<MetricKey, MetricValue>);

impl Registry {
    fn add(&mut self, key: MetricKey, v: u64) {
        match self.0.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            _ => unreachable!("metric kind is fixed per name"),
        }
    }

    fn set_counter(&mut self, key: MetricKey, v: u64) {
        self.0.insert(key, MetricValue::Counter(v));
    }

    fn set_gauge(&mut self, key: MetricKey, v: f64) {
        self.0.insert(key, MetricValue::Gauge(v));
    }

    fn observe(&mut self, key: MetricKey, v: u64) {
        match self
            .0
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.observe(v),
            _ => unreachable!("metric kind is fixed per name"),
        }
    }
}

/// The metrics fold: the whole `sp_*` catalog from the logs of `runs`.
/// The recovery counters are counts of the very events the audit fold
/// writes out as lines, published for supervised runs only.
fn registry(runs: &[Vec<Event>]) -> BTreeMap<MetricKey, MetricValue> {
    let mut reg = Registry::default();
    for events in runs {
        let Some((label, _, config, supervised)) = run_started(events) else {
            continue;
        };
        let run = || vec![("run", label.to_owned())];
        let staged = |stage: &str| vec![("run", label.to_owned()), ("stage", stage.to_owned())];
        let (mut faults, mut rollbacks, mut retries, mut degradations) = (0, 0, 0, 0);
        for event in events {
            match event {
                Event::Stage { stage, dur_ns, .. } => {
                    reg.observe(("sp_stage_latency_ns", staged(stage)), *dur_ns);
                }
                Event::Shards {
                    stage,
                    timings,
                    width,
                    ..
                } if !timings.is_empty() => {
                    let (mut busy, mut region_end) = (0u64, 0u64);
                    for t in timings {
                        reg.observe(("sp_shard_latency_ns", staged(stage)), t.dur_ns);
                        busy += t.dur_ns;
                        region_end = region_end.max(t.start_ns + t.dur_ns);
                    }
                    reg.add(
                        ("sp_shard_tasks_total", staged(stage)),
                        timings.len() as u64,
                    );
                    reg.add(("sp_worker_busy_ns_total", staged(stage)), busy);
                    reg.add(
                        ("sp_worker_idle_ns_total", staged(stage)),
                        (*width as u64 * region_end).saturating_sub(busy),
                    );
                }
                Event::Stall { stage, dur_ns, .. } => {
                    reg.add(("sp_barrier_stalls_total", staged(stage)), 1);
                    reg.add(("sp_barrier_stall_ns_total", staged(stage)), *dur_ns);
                }
                Event::Backlog { stage, depth } => {
                    reg.observe(("sp_stage_backlog", staged(stage)), *depth);
                }
                Event::Fault(_) => faults += 1,
                Event::RolledBack { .. } => rollbacks += 1,
                Event::Retried { .. } => retries += 1,
                Event::Degraded { .. } => degradations += 1,
                Event::Completed {
                    elapsed_ns,
                    pool_width,
                    tables,
                    iterations: committed,
                    ..
                }
                | Event::Aborted {
                    elapsed_ns,
                    pool_width,
                    tables,
                    committed,
                    ..
                } => {
                    let aborted = matches!(event, Event::Aborted { .. });
                    if supervised {
                        for (name, count) in [
                            ("sp_recovery_rollbacks_total", rollbacks),
                            ("sp_recovery_retries_total", retries),
                            ("sp_recovery_degradations_total", degradations),
                            ("sp_recovery_faults_injected_total", faults),
                            ("sp_recovery_aborts_total", u64::from(aborted)),
                        ] {
                            reg.set_counter((name, run()), count);
                        }
                    }
                    reg.set_counter(("sp_run_iterations_total", run()), *committed as u64);
                    reg.set_gauge(("sp_run_elapsed_ns", run()), *elapsed_ns as f64);
                    reg.set_gauge(("sp_worker_pool_width", run()), *pool_width as f64);
                    let (mut hits, mut misses) = (0u64, 0u64);
                    for (t, (occupancy, stats)) in tables.iter().enumerate() {
                        hits += stats.hits;
                        misses += stats.misses;
                        let table = || vec![("run", label.to_owned()), ("table", t.to_string())];
                        for (name, gauge) in [
                            ("sp_scratchpad_occupancy_rows", *occupancy),
                            ("sp_scratchpad_slots", config.slots_per_table),
                            ("sp_scratchpad_peak_held_rows", stats.peak_held),
                        ] {
                            reg.set_gauge((name, table()), gauge as f64);
                        }
                        for (name, counter) in [
                            ("sp_scratchpad_hits_total", stats.hits),
                            ("sp_scratchpad_misses_total", stats.misses),
                            ("sp_scratchpad_evictions_total", stats.evictions),
                        ] {
                            reg.set_counter((name, table()), counter);
                        }
                    }
                    let hit_rate = if hits + misses == 0 {
                        0.0
                    } else {
                        hits as f64 / (hits + misses) as f64
                    };
                    reg.set_gauge(("sp_scratchpad_hit_rate", run()), hit_rate);
                }
                _ => {}
            }
        }
    }
    reg.0
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    /// One log per run, in opening order; empty while the run is open.
    runs: Mutex<Vec<Vec<Event>>>,
}

/// A shared telemetry collector. Cloning is cheap (`Arc`); attach one
/// handle to every pipeline whose runs should land in the same
/// `trace.json` / `METRICS.json` snapshot. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
impl Telemetry {
    /// Every run's events, in the order they were recorded.
    pub(crate) fn events(&self) -> Vec<Event> {
        self.inner.runs.lock().concat()
    }
}

impl Telemetry {
    /// Creates an empty collector; its epoch (trace time zero) is now.
    pub fn new() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                runs: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Renders the span tree as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto format). Each run is a process;
    /// see the [module docs](self) for the lane layout. Iteration spans
    /// are derived from their stage spans and rendered on round-robin
    /// side lanes so overlapping in-flight iterations stay readable.
    pub fn chrome_trace_json(&self) -> String {
        let runs = self.inner.runs.lock();
        let spans = spans(&runs);
        let mut events: Vec<Value> = Vec::new();
        let str_v = |s: &str| Value::Str(s.to_owned());
        let map = |entries: Vec<(&str, Value)>| {
            Value::Map(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect(),
            )
        };
        let metadata = |name: &str, pid: u64, tid: Option<u64>, arg: Value| {
            let mut entries = vec![
                ("ph", str_v("M")),
                ("name", str_v(name)),
                ("pid", Value::UInt(pid)),
            ];
            if let Some(tid) = tid {
                entries.push(("tid", Value::UInt(tid)));
            }
            entries.push(("args", map(vec![("name", arg)])));
            map(entries)
        };

        // Process metadata: one process per run, named by the run label
        // (exactly the audit `run` field, so traces join to the stream).
        for (run, events_of) in runs.iter().enumerate() {
            let Some((label, schedule, ..)) = run_started(events_of) else {
                continue;
            };
            let pid = run as u64 + 1;
            events.push(metadata("process_name", pid, None, str_v(label)));
            events.push(metadata("process_labels", pid, None, str_v(schedule)));
        }
        // Thread metadata for every lane that actually appears.
        let mut lanes: BTreeMap<(u64, u64), String> = BTreeMap::new();
        for s in &spans {
            let pid = u64::from(s.run) + 1;
            match s.kind {
                SpanKind::Run => {
                    lanes
                        .entry((pid, LANE_RUN))
                        .or_insert_with(|| "run".to_owned());
                }
                SpanKind::Stage | SpanKind::Stall | SpanKind::Shard => {
                    lanes
                        .entry((pid, s.lane.tid()))
                        .or_insert_with(|| match s.lane {
                            Lane::Main => "driver".to_owned(),
                            Lane::Stage(_) => format!("stage {}", s.stage),
                            Lane::Worker(w) => format!("worker {w}"),
                        });
                }
            }
        }
        // Derived iteration lanes.
        let mut iter_bounds: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.kind == SpanKind::Stage) {
            let end = s.start_ns + s.dur_ns;
            iter_bounds
                .entry((s.run, s.iteration))
                .and_modify(|(lo, hi)| {
                    *lo = (*lo).min(s.start_ns);
                    *hi = (*hi).max(end);
                })
                .or_insert((s.start_ns, end));
        }
        for &(run, iteration) in iter_bounds.keys() {
            let pid = u64::from(run) + 1;
            let tid = LANE_ITER_BASE + u64::from(iteration) % ITER_LANES;
            lanes
                .entry((pid, tid))
                .or_insert_with(|| format!("iterations +{}", u64::from(iteration) % ITER_LANES));
        }
        for ((pid, tid), name) in &lanes {
            events.push(metadata("thread_name", *pid, Some(*tid), str_v(name)));
        }

        let us = |ns: u64| Value::Float(ns as f64 / 1000.0);
        for ((run, iteration), (lo, hi)) in &iter_bounds {
            events.push(map(vec![
                ("ph", str_v("X")),
                ("cat", str_v("iteration")),
                ("name", str_v(&format!("iter {iteration}"))),
                ("pid", Value::UInt(u64::from(*run) + 1)),
                (
                    "tid",
                    Value::UInt(LANE_ITER_BASE + u64::from(*iteration) % ITER_LANES),
                ),
                ("ts", us(*lo)),
                ("dur", us(hi.saturating_sub(*lo))),
                (
                    "args",
                    map(vec![
                        ("iteration", Value::UInt(u64::from(*iteration))),
                        ("start_ns", Value::UInt(*lo)),
                        ("dur_ns", Value::UInt(hi.saturating_sub(*lo))),
                    ]),
                ),
            ]));
        }
        for s in &spans {
            let pid = u64::from(s.run) + 1;
            let (tid, name) = match s.kind {
                SpanKind::Run => (LANE_RUN, "run".to_owned()),
                SpanKind::Stage => (s.lane.tid(), s.stage.to_owned()),
                SpanKind::Shard => (s.lane.tid(), format!("{}[{}]", s.stage, s.task)),
                SpanKind::Stall => (s.lane.tid(), format!("stall:{}<-{}", s.stage, s.aux)),
            };
            let mut args = vec![
                ("iteration", Value::UInt(u64::from(s.iteration))),
                ("start_ns", Value::UInt(s.start_ns)),
                ("dur_ns", Value::UInt(s.dur_ns)),
            ];
            if s.kind == SpanKind::Shard {
                let worker = s.lane.tid().saturating_sub(Lane::Worker(0).tid());
                args.push(("worker", Value::UInt(worker)));
            }
            if !s.stage.is_empty() {
                args.push(("stage", str_v(s.stage)));
            }
            events.push(map(vec![
                ("ph", str_v("X")),
                ("cat", str_v(s.kind.category())),
                ("name", str_v(&name)),
                ("pid", Value::UInt(pid)),
                ("tid", Value::UInt(tid)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns)),
                ("args", map(args)),
            ]));
        }
        let doc = map(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", str_v("ms")),
        ]);
        serde_json::to_string(&doc).expect("trace serialization is infallible")
    }

    /// Writes [`Telemetry::chrome_trace_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(path, &self.chrome_trace_json())
    }

    /// Renders the metrics registry as machine-readable JSON
    /// (`METRICS.json`): `{"version": 1, "metrics": [...]}` with one
    /// entry per `(name, labels)` pair, sorted, carrying `type`, `unit`,
    /// structured `labels`, and either `value` or
    /// `count`/`sum`/`buckets` (non-empty buckets as `[le, count]`
    /// pairs, `le` the power-of-two upper bound or `"+Inf"`).
    pub fn metrics_json(&self) -> String {
        let metrics = registry(&self.inner.runs.lock());
        let mut out: Vec<Value> = Vec::new();
        for ((name, labels), value) in metrics.iter() {
            let info = meta(name);
            let mut entries = vec![
                ("name".to_owned(), Value::Str((*name).to_owned())),
                ("type".to_owned(), Value::Str(info.kind.to_owned())),
                ("unit".to_owned(), Value::Str(info.unit.to_owned())),
                (
                    "labels".to_owned(),
                    Value::Map(
                        labels
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ),
            ];
            match value {
                MetricValue::Counter(c) => entries.push(("value".to_owned(), Value::UInt(*c))),
                MetricValue::Gauge(g) => entries.push(("value".to_owned(), Value::Float(*g))),
                MetricValue::Histogram(h) => {
                    entries.push(("count".to_owned(), Value::UInt(h.count)));
                    entries.push(("sum".to_owned(), Value::UInt(h.sum)));
                    entries.push((
                        "buckets".to_owned(),
                        Value::Seq(
                            h.nonzero_buckets()
                                .into_iter()
                                .map(|(le, c)| Value::Seq(vec![Value::Str(le), Value::UInt(c)]))
                                .collect(),
                        ),
                    ));
                }
            }
            out.push(Value::Map(entries));
        }
        let doc = Value::Map(vec![
            ("version".to_owned(), Value::UInt(1)),
            ("metrics".to_owned(), Value::Seq(out)),
        ]);
        serde_json::to_string(&doc).expect("metrics serialization is infallible")
    }

    /// Writes [`Telemetry::metrics_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_metrics_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(path, &self.metrics_json())
    }

    /// Renders the deterministic subset of the telemetry: the structural
    /// span tree (which spans exist, on which lanes — a pooled shard by
    /// its task index, since which worker claimed it is timing —
    /// durations and stall spans excluded) and every metric whose value
    /// does not derive from wall-clock time (histograms contribute their
    /// observation *count*; the stall metrics are left out with the stall
    /// spans). Two same-seed runs at the same pool width produce identical
    /// digests, whatever the machine is doing.
    pub fn deterministic_digest(&self) -> String {
        let runs = self.inner.runs.lock();
        let mut out = String::new();
        for (i, events) in runs.iter().enumerate() {
            if let Some((label, schedule, ..)) = run_started(events) {
                let _ = writeln!(out, "run {i} label={label} schedule={schedule}");
            }
        }
        let spans = spans(&runs);
        let mut i = 0;
        while i < spans.len() {
            let s = &spans[i];
            match s.kind {
                // Stall spans (and their count) are timing-dependent.
                SpanKind::Stall => i += 1,
                SpanKind::Run => {
                    let _ = writeln!(out, "span run r{}", s.run);
                    i += 1;
                }
                SpanKind::Stage => {
                    let _ = writeln!(
                        out,
                        "span stage r{} i{} {} lane={}",
                        s.run,
                        s.iteration,
                        s.stage,
                        s.lane.tid()
                    );
                    i += 1;
                }
                SpanKind::Shard => {
                    // One line per (run, iteration, stage); a pooled task
                    // as the pool's first lane and its index, since which
                    // worker claimed it is timing.
                    let (run, iteration, stage) = (s.run, s.iteration, s.stage);
                    let mut tasks = Vec::new();
                    while i < spans.len() {
                        let t = &spans[i];
                        if t.kind != SpanKind::Shard
                            || t.run != run
                            || t.iteration != iteration
                            || t.stage != stage
                        {
                            break;
                        }
                        tasks.push(match t.lane {
                            Lane::Worker(_) => (Lane::Worker(0).tid(), t.task),
                            lane => (lane.tid(), 0),
                        });
                        i += 1;
                    }
                    tasks.sort_unstable();
                    let tasks: Vec<_> = tasks.iter().map(|(l, k)| format!("{l}:{k}")).collect();
                    let _ = writeln!(
                        out,
                        "span shards r{run} i{iteration} {stage} [{}]",
                        tasks.join(",")
                    );
                }
            }
        }
        for ((name, labels), value) in registry(&runs).iter() {
            // Like the stall spans, the stall metrics exist only if a lane
            // happened to block.
            if name.starts_with("sp_barrier_") {
                continue;
            }
            let info = meta(name);
            let labels_s: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let labels_s = labels_s.join(",");
            match value {
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} count={}", h.count);
                }
                MetricValue::Counter(c) if info.deterministic => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} {c}");
                }
                MetricValue::Gauge(g) if info.deterministic => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} {g}");
                }
                // Wall-clock-valued: presence only.
                MetricValue::Counter(_) | MetricValue::Gauge(_) => {
                    let _ = writeln!(out, "metric {name}{{{labels_s}}} present");
                }
            }
        }
        out
    }
}

fn write_file(path: impl AsRef<Path>, content: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())?;
    writeln!(f)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 5, 1023, 1024, 1025] {
            h.observe(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.sum, 3087);
        // v <= 1 -> bucket 0; v = 2 -> le 2; v in (2,4] -> le 4.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 2, "1023 and 1024 land in le=1024");
        assert_eq!(h.buckets[11], 1, "1025 lands in le=2048");
        let huge = u64::MAX;
        h.observe(huge);
        assert_eq!(h.buckets[Histogram::BUCKETS], 1, "overflow lands in +Inf");
    }

    /// A collector holding one closed run with the given events between
    /// its `RunStarted` and a `Completed`.
    fn collected(label: &str, schedule: &'static str, events: Vec<Event>) -> Telemetry {
        let tel = Telemetry::new();
        let run = open_run(Some(&tel));
        run.record(Event::RunStarted {
            label: label.to_owned(),
            start_ns: 0,
            schedule,
            iterations: 1,
            num_tables: 0,
            config: PipelineConfig::functional(8, 16),
            supervised: false,
        });
        events.into_iter().for_each(|e| run.record(e));
        run.record(Event::Completed {
            end_ns: 2_000,
            elapsed_ns: 2_000,
            schedule,
            pool_width: 1,
            tables: Vec::new(),
            iterations: 1,
            flush_traffic: Traffic::ZERO,
            hit_rate: 0.0,
            mean_loss: 0.0,
        });
        run.close(None);
        tel
    }

    fn stage(stage: &'static str, lane: Lane, start_ns: u64, dur_ns: u64) -> Event {
        Event::Stage {
            iteration: 0,
            stage,
            lane,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn metrics_render_in_stable_order() {
        let tel = collected(
            "t",
            "sync",
            vec![
                stage("Plan", Lane::Main, 0, 100),
                stage("Train", Lane::Main, 10, 50),
            ],
        );
        let json = tel.metrics_json();
        assert_eq!(json, tel.metrics_json());
        assert!(json.starts_with("{\"version\":1,"));
        let plan = json
            .find("\"labels\":{\"run\":\"t\",\"stage\":\"Plan\"},\"count\":1,\"sum\":100,")
            .expect("Plan histogram");
        let train = json
            .find("\"labels\":{\"run\":\"t\",\"stage\":\"Train\"},\"count\":1,\"sum\":50,")
            .expect("Train histogram");
        assert!(plan < train, "entries are sorted by (name, labels)");
        assert!(json[..plan]
            .ends_with("\"name\":\"sp_stage_latency_ns\",\"type\":\"histogram\",\"unit\":\"ns\","));
    }

    #[test]
    fn digest_excludes_wall_clock_values() {
        let tel = collected("d", "sync", vec![stage("Plan", Lane::Main, 0, 12345)]);
        let digest = tel.deterministic_digest();
        assert!(digest.contains("span stage r0 i0 Plan lane=0"));
        assert!(digest.contains("metric sp_stage_latency_ns{run=d,stage=Plan} count=1"));
        assert!(
            !digest.contains("12345"),
            "durations must not leak into the digest:\n{digest}"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let tel = collected(
            "trace-me",
            "threaded",
            vec![
                stage("Collect", Lane::Stage(1), 100, 500),
                Event::Stall {
                    iteration: 1,
                    stage: "Collect",
                    watched: "Train",
                    lane: Lane::Stage(1),
                    start_ns: 700,
                    dur_ns: 40,
                },
                Event::Shards {
                    iteration: 0,
                    stage: "Train",
                    lane: Lane::Main,
                    start_ns: 1000,
                    timings: vec![
                        ShardTiming {
                            start_ns: 0,
                            dur_ns: 10,
                            worker: 0,
                        },
                        ShardTiming {
                            start_ns: 2,
                            dur_ns: 8,
                            worker: 1,
                        },
                    ],
                    width: 2,
                },
            ],
        );
        let json = tel.chrome_trace_json();
        let parsed = serde_json::from_str(&json).expect("trace must parse");
        let Value::Map(entries) = parsed else {
            panic!("trace root must be a map");
        };
        assert!(entries.iter().any(|(k, _)| k == "traceEvents"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("stall:Collect<-Train"));
        assert!(json.contains("\"worker 1\""));
    }

    #[test]
    fn an_open_run_keeps_its_slot_and_renders_nothing() {
        let tel = Telemetry::new();
        let open = open_run(Some(&tel));
        let closed = open_run(Some(&tel));
        closed.record(Event::RunStarted {
            label: "closed".to_owned(),
            start_ns: 0,
            schedule: "sync",
            iterations: 0,
            num_tables: 0,
            config: PipelineConfig::functional(8, 16),
            supervised: false,
        });
        closed.close(None);
        assert_eq!(
            tel.deterministic_digest(),
            "run 1 label=closed schedule=sync\n",
            "runs are numbered in opening order"
        );
        drop(open);
    }
}
