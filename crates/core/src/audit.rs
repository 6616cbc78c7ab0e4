//! Structured audit events for pipeline runs.
//!
//! Every [`Pipeline`](crate::pipeline::Pipeline) run can emit a JSONL
//! audit stream — one JSON object per line — to an [`AuditSink`]. The
//! stream is the run's ground truth: per-iteration stage timings and
//! [`StageTraffic`](crate::runtime::StageTraffic), hit/evict counts, and
//! a closing summary from which the benchmark numbers (iterations/sec,
//! bytes staged, hit rate) are reproducible without re-running.
//!
//! # Event schema
//!
//! Every line carries the envelope fields `event`, `run_id`, `run`
//! (descriptor name) and `seq` (line number within the run, from 0).
//! See `docs/runtime-api.md` for the full field tables:
//!
//! * `run_started` — schedule, iteration count and the pipeline
//!   configuration.
//! * `iteration` — one per mini-batch: the serialized
//!   [`IterationRecord`](crate::runtime::IterationRecord) (index, hits,
//!   misses, evictions, total_lookups, unique_rows, loss, per-stage
//!   `traffic`) plus `stage_nanos`, a map of per-stage wall-clock
//!   nanoseconds, and — when a stage sharded work over a
//!   [`WorkerPool`](crate::workers::WorkerPool) — `stage_shards`, a map
//!   from stage name to the per-shard wall-clock nanoseconds of every
//!   shard task that stage ran (omitted entirely when no stage sharded).
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
//! * `run_aborted` — terminal event of a failed supervised run:
//!   iteration (first uncommitted), committed count, attempts on the
//!   final rung, schedule and cause. Replaces `run_completed`.
//!
//! Events serialize through the same [`serde::Serialize`] path as
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

use crate::faults::InjectionRecord;
use crate::runtime::{IterationRecord, PipelineReport};

/// Destination for audit JSONL lines. Implementors must tolerate being
/// handed one complete JSON object per `write_line` call and must not
/// add or reorder content (the line *is* the event).
pub trait AuditSink: Send {
    /// Writes one complete JSON object (no trailing newline included).
    fn write_line(&mut self, line: &str);

    /// Flushes buffered lines; called once when a run completes.
    fn flush(&mut self) {}

    /// Lines this sink failed to deliver so far. Lossless sinks (the
    /// default) report 0; [`FileSink`] counts failed writes. The emitter
    /// samples this just before the terminal `run_completed` /
    /// `run_aborted` event, so truncation is detectable *from the stream
    /// itself*, not only in-process.
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
    pub fn fresh(name: &str) -> Self {
        let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        RunDescriptor {
            run_id: format!("{}-{}", std::process::id(), n),
            name: name.to_owned(),
        }
    }
}

/// Emits the audit event stream for one pipeline. Holds the optional
/// sink; with no sink every emit is a no-op.
pub struct AuditEmitter {
    sink: Option<Box<dyn AuditSink>>,
    descriptor: RunDescriptor,
    seq: u64,
}

impl fmt::Debug for AuditEmitter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditEmitter")
            .field("enabled", &self.sink.is_some())
            .field("descriptor", &self.descriptor)
            .field("seq", &self.seq)
            .finish()
    }
}

impl AuditEmitter {
    /// An emitter writing to `sink` under `descriptor`'s identity.
    pub fn new(sink: Box<dyn AuditSink>, descriptor: RunDescriptor) -> Self {
        AuditEmitter {
            sink: Some(sink),
            descriptor,
            seq: 0,
        }
    }

    /// An emitter that drops every event.
    pub fn disabled() -> Self {
        AuditEmitter {
            sink: None,
            descriptor: RunDescriptor {
                run_id: String::new(),
                name: String::new(),
            },
            seq: 0,
        }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Serializes one event: the envelope (`event`, `run_id`, `run`,
    /// `seq`) followed by `fields`, as a single JSON line.
    fn emit(&mut self, event: &str, fields: Vec<(String, Value)>) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let mut entries = vec![
            ("event".to_owned(), Value::Str(event.to_owned())),
            (
                "run_id".to_owned(),
                Value::Str(self.descriptor.run_id.clone()),
            ),
            ("run".to_owned(), Value::Str(self.descriptor.name.clone())),
            ("seq".to_owned(), Value::UInt(self.seq)),
        ];
        entries.extend(fields);
        if let Ok(line) = serde_json::to_string(&Value::Map(entries)) {
            sink.write_line(&line);
            self.seq += 1;
        }
    }

    /// Emits the `run_started` event.
    pub fn run_started(
        &mut self,
        schedule: &str,
        iterations: usize,
        num_tables: usize,
        config: &crate::config::PipelineConfig,
    ) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "run_started",
            vec![
                ("schedule".to_owned(), Value::Str(schedule.to_owned())),
                ("iterations".to_owned(), Value::UInt(iterations as u64)),
                ("num_tables".to_owned(), Value::UInt(num_tables as u64)),
                ("dim".to_owned(), Value::UInt(config.dim as u64)),
                (
                    "slots_per_table".to_owned(),
                    Value::UInt(config.slots_per_table as u64),
                ),
                (
                    "policy".to_owned(),
                    Value::Str(config.policy.name().to_owned()),
                ),
                (
                    "window".to_owned(),
                    Value::Seq(vec![
                        Value::UInt(u64::from(config.window.past)),
                        Value::UInt(u64::from(config.window.future)),
                    ]),
                ),
                ("functional".to_owned(), Value::Bool(config.functional)),
            ],
        );
    }

    /// Emits one `iteration` event: the serialized record plus the
    /// per-stage wall-clock timings and, for stages that sharded work
    /// over a worker pool, the per-shard timing breakdown (`shards[s]`
    /// aligns with `stage_names[s]`; empty entries are omitted).
    pub fn iteration(
        &mut self,
        record: &IterationRecord,
        stage_names: &[&str],
        nanos: &[u64],
        shards: &[&[u64]],
    ) {
        if self.sink.is_none() {
            return;
        }
        let mut fields = match record.to_value() {
            Value::Map(entries) => entries,
            other => vec![("record".to_owned(), other)],
        };
        let timing: Vec<(String, Value)> = stage_names
            .iter()
            .zip(nanos)
            .map(|(name, &ns)| ((*name).to_owned(), Value::UInt(ns)))
            .collect();
        fields.push(("stage_nanos".to_owned(), Value::Map(timing)));
        let shard_map: Vec<(String, Value)> = stage_names
            .iter()
            .zip(shards)
            .filter(|(_, s)| !s.is_empty())
            .map(|(name, s)| {
                (
                    (*name).to_owned(),
                    Value::Seq(s.iter().map(|&ns| Value::UInt(ns)).collect()),
                )
            })
            .collect();
        if !shard_map.is_empty() {
            fields.push(("stage_shards".to_owned(), Value::Map(shard_map)));
        }
        self.emit("iteration", fields);
    }

    /// Emits the closing `run_completed` event and flushes the sink.
    /// `dropped_lines` is the sink's drop counter sampled just before
    /// this line is written — lines lost *before* the summary; whether
    /// the summary itself lands is the reader's to observe.
    pub fn run_completed(&mut self, report: &PipelineReport, elapsed_ns: u64, schedule: &str) {
        let Some(sink) = self.sink.as_ref() else {
            return;
        };
        let dropped = sink.dropped_lines();
        self.emit(
            "run_completed",
            vec![
                ("dropped_lines".to_owned(), Value::UInt(dropped)),
                (
                    "iterations".to_owned(),
                    Value::UInt(report.iterations as u64),
                ),
                ("elapsed_ns".to_owned(), Value::UInt(elapsed_ns)),
                ("schedule".to_owned(), Value::Str(schedule.to_owned())),
                ("flush_traffic".to_owned(), report.flush_traffic.to_value()),
                (
                    "peak_held_slots".to_owned(),
                    report.peak_held_slots.to_value(),
                ),
                ("hit_rate".to_owned(), Value::Float(report.hit_rate())),
                (
                    "mean_loss".to_owned(),
                    Value::Float(f64::from(report.mean_loss())),
                ),
            ],
        );
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }

    /// Emits one `fault_injected` event for a fault the injector fired.
    pub fn fault_injected(&mut self, record: &InjectionRecord) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "fault_injected",
            vec![
                ("iteration".to_owned(), Value::UInt(record.iteration as u64)),
                ("attempt".to_owned(), Value::UInt(u64::from(record.attempt))),
                ("stage".to_owned(), Value::Str(record.stage.clone())),
                ("kind".to_owned(), Value::Str(record.kind.name().to_owned())),
                ("shard".to_owned(), Value::UInt(record.shard as u64)),
            ],
        );
    }

    /// Emits one `iteration_rolled_back` event: the segment starting at
    /// `iteration` failed its `attempt`-th attempt and was restored to
    /// the checkpoint.
    pub fn iteration_rolled_back(&mut self, iteration: usize, attempt: u32, cause: &str) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "iteration_rolled_back",
            vec![
                ("iteration".to_owned(), Value::UInt(iteration as u64)),
                ("attempt".to_owned(), Value::UInt(u64::from(attempt))),
                ("cause".to_owned(), Value::Str(cause.to_owned())),
            ],
        );
    }

    /// Emits one `stage_retried` event: the rolled-back segment will run
    /// again on the same schedule rung.
    pub fn stage_retried(&mut self, iteration: usize, attempt: u32, schedule: &str) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "stage_retried",
            vec![
                ("iteration".to_owned(), Value::UInt(iteration as u64)),
                ("attempt".to_owned(), Value::UInt(u64::from(attempt))),
                ("schedule".to_owned(), Value::Str(schedule.to_owned())),
            ],
        );
    }

    /// Emits one `schedule_degraded` event: `from` exhausted its retry
    /// budget and the run moves down the ladder to `to`.
    pub fn schedule_degraded(&mut self, iteration: usize, from: &str, to: &str) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "schedule_degraded",
            vec![
                ("iteration".to_owned(), Value::UInt(iteration as u64)),
                ("from".to_owned(), Value::Str(from.to_owned())),
                ("to".to_owned(), Value::Str(to.to_owned())),
            ],
        );
    }

    /// Emits the terminal `run_aborted` event (instead of
    /// `run_completed`) and flushes the sink. `iteration` is the first
    /// uncommitted iteration — everything before it committed and was
    /// flushed to the CPU tables.
    pub fn run_aborted(&mut self, iteration: usize, attempts: u32, schedule: &str, cause: &str) {
        let Some(sink) = self.sink.as_ref() else {
            return;
        };
        let dropped = sink.dropped_lines();
        self.emit(
            "run_aborted",
            vec![
                ("dropped_lines".to_owned(), Value::UInt(dropped)),
                ("iteration".to_owned(), Value::UInt(iteration as u64)),
                ("committed".to_owned(), Value::UInt(iteration as u64)),
                ("attempts".to_owned(), Value::UInt(u64::from(attempts))),
                ("schedule".to_owned(), Value::Str(schedule.to_owned())),
                ("cause".to_owned(), Value::Str(cause.to_owned())),
            ],
        );
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }
}
