//! Structured audit events for pipeline runs.
//!
//! Every [`Pipeline`](crate::pipeline::Pipeline) run can emit a JSONL
//! audit stream — one JSON object per line — to an [`AuditSink`]. The
//! stream is the run's ground truth: per-iteration stage timings and
//! [`StageTraffic`], hit/evict counts, and a closing summary from which
//! the benchmark numbers (iterations/sec, bytes staged, hit rate) are
//! reproducible without re-running.
//!
//! The stream is a fold over the run's event log
//! ([`crate::telemetry::Event`]), written when the run closes — on
//! success, on a supervised abort and on a plain run's failure alike, so
//! every stream that starts also ends. The telemetry views are folds over
//! the same log; the integers here are the integers there.
//!
//! # Event schema
//!
//! Every line carries the envelope fields `event`, `run_id`, `run`
//! (descriptor name) and `seq` (line number within the run, from 0).
//! See `docs/runtime-api.md` for the full field tables:
//!
//! * `run_started` — schedule, iteration count and the pipeline
//!   configuration.
//! * `iteration` — one per committed mini-batch: the serialized
//!   [`IterationRecord`] (index, hits, misses, evictions, total_lookups,
//!   unique_rows, loss, per-stage `traffic`) plus `stage_nanos`, a map of
//!   per-stage wall-clock nanoseconds, and `stage_shards`, a map from
//!   stage name to the wall-clock nanoseconds of every shard task that
//!   stage handed to its [`WorkerPool`](crate::workers::WorkerPool)
//!   (stages that ran none are left out; the map is omitted when no stage
//!   ran any).
//! * `run_completed` — elapsed nanoseconds, flush traffic, peak held
//!   slots, hit rate and mean loss.
//!
//! Fault injection and the supervised recovery runtime add five more
//! kinds, all stamped with the same envelope:
//!
//! * `fault_injected` — one per fired fault: iteration, attempt, stage,
//!   fault kind and shard.
//! * `iteration_rolled_back` — a segment attempt failed and its state was
//!   rolled back to the checkpoint (iteration, attempt, cause).
//! * `stage_retried` — the rolled-back segment will retry on the same
//!   schedule rung (iteration, attempt, schedule).
//! * `schedule_degraded` — a rung exhausted its retry budget and the run
//!   degraded down the ladder (iteration, `from`, `to`).
//! * `run_aborted` — terminal event of a failed run: iteration (first
//!   uncommitted), committed count, attempts on the final rung, schedule
//!   and cause. Replaces `run_completed`. A plain
//!   [`Pipeline::run`](crate::pipeline::Pipeline::run) that fails commits
//!   nothing and tries once: `committed: 0`, `attempts: 1`.
//!
//! Records serialize through the same [`serde::Serialize`] path as
//! [`PipelineReport`](crate::runtime::PipelineReport), so the audit
//! stream and report JSON never disagree on field names.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::runtime::{IterationRecord, StageId, StageTraffic};
use crate::telemetry::Event;

/// Destination for audit JSONL lines. Implementors must tolerate being
/// handed one complete JSON object per `write_line` call and must not
/// add or reorder content (the line *is* the event).
pub trait AuditSink: Send {
    /// Writes one complete JSON object (no trailing newline included).
    fn write_line(&mut self, line: &str);

    /// Flushes buffered lines; called once when a run completes.
    fn flush(&mut self) {}

    /// Lines this sink failed to deliver so far. Lossless sinks (the
    /// default) report 0; [`FileSink`] counts failed writes. Sampled just
    /// before the terminal `run_completed` / `run_aborted` event is
    /// written, so truncation is detectable *from the stream itself*, not
    /// only in-process.
    fn dropped_lines(&self) -> u64 {
        0
    }
}

/// An in-memory [`AuditSink`] for tests and for deriving benchmark
/// numbers from the audit stream without touching the filesystem.
/// Cloning shares the underlying line buffer.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every line written so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }
}

impl AuditSink for MemorySink {
    fn write_line(&mut self, line: &str) {
        self.lines.lock().push(line.to_owned());
    }
}

/// A buffered [`AuditSink`] writing one JSON object per line, usually to
/// a file.
///
/// # Write-failure semantics
///
/// Audit output is best-effort observability: a failed write must never
/// panic or poison a training run. A line whose write errors is dropped
/// and counted — [`FileSink::dropped_lines`] exposes the count (shareable
/// via [`FileSink::dropped_counter`] since the sink itself moves into the
/// pipeline), so callers that care can tell a clean stream from a
/// truncated one after the run.
pub struct FileSink {
    writer: Box<dyn io::Write + Send>,
    dropped: Arc<AtomicU64>,
}

impl fmt::Debug for FileSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSink")
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl FileSink {
    /// Creates (or truncates) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::from_writer(BufWriter::new(File::create(path)?)))
    }

    /// Wraps an arbitrary writer (tests use this to exercise the
    /// write-failure contract without a filesystem).
    pub fn from_writer(writer: impl io::Write + Send + 'static) -> Self {
        FileSink {
            writer: Box::new(writer),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Lines dropped because the underlying writer errored.
    pub fn dropped_lines(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A handle to the dropped-line counter that stays readable after
    /// the sink is boxed into a pipeline.
    pub fn dropped_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.dropped)
    }
}

impl AuditSink for FileSink {
    fn write_line(&mut self, line: &str) {
        if writeln!(self.writer, "{line}").is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }

    fn dropped_lines(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Process-wide counter making [`RunDescriptor::fresh`] IDs unique.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Identity of one pipeline run, stamped on every audit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDescriptor {
    /// Unique-per-process run ID (`<pid>-<counter>`).
    pub run_id: String,
    /// Human-readable run name (defaults to `"pipeline"`).
    pub name: String,
}

impl RunDescriptor {
    /// Allocates a fresh descriptor with a unique `run_id`.
    pub(crate) fn fresh(name: &str) -> Self {
        let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        RunDescriptor {
            run_id: format!("{}-{}", std::process::id(), n),
            name: name.to_owned(),
        }
    }
}

/// One run's JSONL stream while the audit fold writes it.
struct Stream<'s> {
    sink: &'s mut dyn AuditSink,
    descriptor: RunDescriptor,
    seq: u64,
}

impl Stream<'_> {
    /// Writes one event: the envelope (`event`, `run_id`, `run`, `seq`)
    /// followed by `fields`, as a single JSON line.
    fn emit<K: Into<String>>(&mut self, event: &str, fields: Vec<(K, Value)>) {
        let mut entries = vec![
            ("event".to_owned(), text(event)),
            ("run_id".to_owned(), text(&self.descriptor.run_id)),
            ("run".to_owned(), text(&self.descriptor.name)),
            ("seq".to_owned(), Value::UInt(self.seq)),
        ];
        entries.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
        if let Ok(line) = serde_json::to_string(&Value::Map(entries)) {
            self.sink.write_line(&line);
            self.seq += 1;
        }
    }
}

fn uint(n: usize) -> Value {
    Value::UInt(n as u64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

fn stage_index(stage: &str) -> usize {
    StageId::from_name(stage)
        .expect("events name the stages of the table")
        .index()
}

/// What the log says about one iteration, as of the latest attempt at it.
#[derive(Default)]
struct IterationTrail<'a> {
    record: Option<&'a IterationRecord>,
    /// Wall-clock nanoseconds per stage.
    nanos: [u64; StageId::COUNT],
    /// Per stage, the nanoseconds of every shard task it ran, regions
    /// back to back.
    shards: [Vec<u64>; StageId::COUNT],
}

impl IterationTrail<'_> {
    /// The fields of the `iteration` line: the serialized record, plus
    /// `stage_nanos`, plus — when any stage ran shard tasks — the
    /// `stage_shards` breakdown of those that did.
    fn fields(&self) -> Vec<(String, Value)> {
        let record = self.record.expect("a committed iteration retired");
        let mut fields = match record.to_value() {
            Value::Map(entries) => entries,
            other => vec![("record".to_owned(), other)],
        };
        let named = StageTraffic::STAGE_NAMES
            .iter()
            .map(|name| (*name).to_owned());
        fields.push((
            "stage_nanos".to_owned(),
            Value::Map(
                named
                    .clone()
                    .zip(self.nanos.iter().map(|&ns| Value::UInt(ns)))
                    .collect(),
            ),
        ));
        let sharded: Vec<(String, Value)> = named
            .zip(&self.shards)
            .filter(|(_, shards)| !shards.is_empty())
            .map(|(name, shards)| {
                let nanos = shards.iter().map(|&ns| Value::UInt(ns)).collect();
                (name, Value::Seq(nanos))
            })
            .collect();
        if !sharded.is_empty() {
            fields.push(("stage_shards".to_owned(), Value::Map(sharded)));
        }
        fields
    }
}

/// The audit fold: writes one closed run's event log to `sink` as JSONL,
/// under a fresh [`RunDescriptor`], and flushes it.
///
/// Line order: `run_started`; the fault and recovery events in log order;
/// one `iteration` line per committed iteration, in index order, carrying
/// the stage and shard timings of the attempt that committed it (a
/// `RolledBack` voids what earlier attempts left); the terminal
/// `run_completed` / `run_aborted`. Its `dropped_lines` is the
/// sink's drop counter sampled just before that line is written — lines
/// lost *before* the summary; whether the summary itself lands is the
/// reader's to observe.
pub(crate) fn write_run(sink: &mut dyn AuditSink, events: &[Event]) {
    let Some(Event::RunStarted {
        label,
        schedule,
        iterations,
        num_tables,
        config,
        ..
    }) = events.first()
    else {
        return;
    };
    let mut out = Stream {
        sink,
        descriptor: RunDescriptor::fresh(label),
        seq: 0,
    };
    out.emit(
        "run_started",
        vec![
            ("schedule", text(schedule)),
            ("iterations", uint(*iterations)),
            ("num_tables", uint(*num_tables)),
            ("dim", uint(config.dim)),
            ("slots_per_table", uint(config.slots_per_table)),
            ("policy", text(config.policy.name())),
            (
                "window",
                Value::Seq(vec![
                    Value::UInt(u64::from(config.window.past)),
                    Value::UInt(u64::from(config.window.future)),
                ]),
            ),
            ("functional", Value::Bool(config.functional)),
        ],
    );

    let mut trails: Vec<IterationTrail<'_>> = Vec::new();
    trails.resize_with(*iterations, IterationTrail::default);
    for event in &events[1..] {
        match event {
            Event::Stage {
                iteration,
                stage,
                dur_ns,
                ..
            } => trails[*iteration].nanos[stage_index(stage)] = *dur_ns,
            Event::Shards {
                iteration,
                stage,
                timings,
                ..
            } => trails[*iteration].shards[stage_index(stage)]
                .extend(timings.iter().map(|t| t.dur_ns)),
            Event::Retired(record) => trails[record.index].record = Some(record),
            Event::Fault(record) => {
                out.emit(
                    "fault_injected",
                    vec![
                        ("iteration", uint(record.iteration)),
                        ("attempt", Value::UInt(u64::from(record.attempt))),
                        ("stage", text(&record.stage)),
                        ("kind", text(record.kind.name())),
                        ("shard", uint(record.shard)),
                    ],
                );
            }
            Event::RolledBack {
                iteration,
                attempt,
                cause,
            } => {
                trails[*iteration..].fill_with(IterationTrail::default);
                out.emit(
                    "iteration_rolled_back",
                    vec![
                        ("iteration", uint(*iteration)),
                        ("attempt", Value::UInt(u64::from(*attempt))),
                        ("cause", text(cause)),
                    ],
                );
            }
            Event::Retried {
                iteration,
                attempt,
                schedule,
            } => out.emit(
                "stage_retried",
                vec![
                    ("iteration", uint(*iteration)),
                    ("attempt", Value::UInt(u64::from(*attempt))),
                    ("schedule", text(schedule)),
                ],
            ),
            Event::Degraded {
                iteration,
                from,
                to,
            } => out.emit(
                "schedule_degraded",
                vec![
                    ("iteration", uint(*iteration)),
                    ("from", text(from)),
                    ("to", text(to)),
                ],
            ),
            Event::Completed {
                elapsed_ns,
                schedule,
                tables,
                iterations,
                flush_traffic,
                hit_rate,
                mean_loss,
                ..
            } => {
                for trail in &trails[..*iterations] {
                    out.emit("iteration", trail.fields());
                }
                let peaks = tables.iter().map(|(_, stats)| uint(stats.peak_held));
                out.emit(
                    "run_completed",
                    vec![
                        ("dropped_lines", Value::UInt(out.sink.dropped_lines())),
                        ("iterations", uint(*iterations)),
                        ("elapsed_ns", Value::UInt(*elapsed_ns)),
                        ("schedule", text(schedule)),
                        ("flush_traffic", flush_traffic.to_value()),
                        ("peak_held_slots", Value::Seq(peaks.collect())),
                        ("hit_rate", Value::Float(*hit_rate)),
                        ("mean_loss", Value::Float(f64::from(*mean_loss))),
                    ],
                );
            }
            Event::Aborted {
                schedule,
                committed,
                attempts,
                cause,
                ..
            } => {
                for trail in &trails[..*committed] {
                    out.emit("iteration", trail.fields());
                }
                out.emit(
                    "run_aborted",
                    vec![
                        ("dropped_lines", Value::UInt(out.sink.dropped_lines())),
                        ("iteration", uint(*committed)),
                        ("committed", uint(*committed)),
                        ("attempts", Value::UInt(u64::from(*attempts))),
                        ("schedule", text(schedule)),
                        ("cause", text(cause)),
                    ],
                );
            }
            Event::RunStarted { .. } | Event::Stall { .. } | Event::Backlog { .. } => {}
        }
    }
    out.sink.flush();
}
