//! Golden audit-log test — the JSONL stream is the run's ground truth.
//!
//! A pipeline run with an audit sink attached must produce a stream that
//! (a) parses line-by-line as JSON with the documented envelope, (b)
//! reconstructs every [`IterationRecord`] through the ordinary serde
//! path, and (c) *reconciles*: the per-stage traffic summed over the
//! `iteration` events equals [`PipelineReport::total_traffic`], and the
//! closing `run_completed` summary matches the report. This is what lets
//! the benchmark reproduce its numbers from the log alone.

use scratchpipe::{
    Fault, FaultKind, FaultPlan, FileSink, IterationRecord, MemorySink, Pipeline, PipelineConfig,
    RecoveryPolicy, Schedule, ScratchError, StageTraffic, Telemetry, UnitBackend,
};
use serde::{Deserialize as _, Value};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

fn run_with_audit(schedule: Schedule) -> (scratchpipe::PipelineReport, Vec<String>) {
    run_with_audit_at(schedule, 1)
}

fn run_with_audit_at(
    schedule: Schedule,
    parallelism: usize,
) -> (scratchpipe::PipelineReport, Vec<String>) {
    let tc = TraceConfig {
        num_tables: 3,
        rows_per_table: 500,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 0xA0D1,
    };
    let batches = TraceGenerator::new(tc).take_batches(25);
    let tables: Vec<embeddings::EmbeddingTable> = (0..3)
        .map(|t| embeddings::EmbeddingTable::seeded(500, 8, 60 + t))
        .collect();
    let sink = MemorySink::new();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(8, 192))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(parallelism)
        .audit(sink.clone())
        .named("audit-golden")
        .build()
        .expect("pipeline");
    let report = rt.run(&batches).expect("run");
    (report, sink.lines())
}

fn str_field<'v>(event: &'v Value, key: &str) -> &'v str {
    match event.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("field {key}: expected Str, got {other:?}"),
    }
}

fn uint_field(event: &Value, key: &str) -> u64 {
    match event.get(key) {
        Some(Value::UInt(n)) => *n,
        other => panic!("field {key}: expected UInt, got {other:?}"),
    }
}

#[test]
fn every_line_parses_with_the_documented_envelope() {
    let (_, lines) = run_with_audit(Schedule::Sync);
    assert!(!lines.is_empty());
    let mut run_id = None;
    for (i, line) in lines.iter().enumerate() {
        let event: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON: {e}"));
        let kind = str_field(&event, "event");
        assert!(
            ["run_started", "iteration", "run_completed"].contains(&kind),
            "line {i}: unknown event kind {kind}"
        );
        assert_eq!(str_field(&event, "run"), "audit-golden");
        assert_eq!(
            uint_field(&event, "seq"),
            i as u64,
            "seq is the line number"
        );
        let id = str_field(&event, "run_id").to_owned();
        assert!(!id.is_empty());
        match &run_id {
            None => run_id = Some(id),
            Some(first) => assert_eq!(first, &id, "run_id constant within a run"),
        }
    }
    let first: Value = serde_json::from_str(&lines[0]).unwrap();
    assert_eq!(str_field(&first, "event"), "run_started");
    let last: Value = serde_json::from_str(lines.last().unwrap()).unwrap();
    assert_eq!(str_field(&last, "event"), "run_completed");
}

#[test]
fn iteration_events_reconcile_with_the_report() {
    for schedule in [Schedule::Sync, Schedule::Threaded, Schedule::DataParallel] {
        let (report, lines) = run_with_audit_at(schedule, 2);
        let mut summed = StageTraffic::default();
        let mut indices = Vec::new();
        for line in &lines {
            let event: Value = serde_json::from_str(line).expect("parse");
            if str_field(&event, "event") != "iteration" {
                continue;
            }
            // The iteration event *is* a serialized IterationRecord (plus
            // the envelope and stage_nanos, which deserialization ignores).
            let rec = IterationRecord::from_value(&event).expect("IterationRecord");
            let reference = &report.records[rec.index];
            assert_eq!(rec.hits, reference.hits);
            assert_eq!(rec.misses, reference.misses);
            assert_eq!(rec.evictions, reference.evictions);
            assert_eq!(rec.total_lookups, reference.total_lookups);
            assert_eq!(rec.unique_rows, reference.unique_rows);
            assert_eq!(rec.loss.to_bits(), reference.loss.to_bits());
            assert_eq!(rec.traffic, reference.traffic);
            // The Plan upload contract: one u32 slot per unique row plus
            // one u32 index per raw lookup.
            assert_eq!(
                rec.traffic.plan.pcie_h2d_bytes,
                4 * (rec.unique_rows + rec.total_lookups),
                "{schedule:?}: iteration {} Plan upload",
                rec.index
            );
            summed += rec.traffic;
            indices.push(rec.index);
            // Per-stage wall-clock timings exist for all five stages.
            let Some(Value::Map(nanos)) = event.get("stage_nanos") else {
                panic!("iteration event lacks stage_nanos map");
            };
            let names: Vec<&str> = nanos.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, ["Plan", "Collect", "Exchange", "Insert", "Train"]);
            // The sharded stages report a per-shard timing breakdown;
            // Plan and Exchange never shard and are omitted from it.
            let Some(Value::Map(shards)) = event.get("stage_shards") else {
                panic!("iteration event lacks stage_shards map");
            };
            let shard_names: Vec<&str> = shards.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(shard_names, ["Collect", "Insert", "Train"]);
            for (stage, entry) in shards {
                let Value::Seq(items) = entry else {
                    panic!("stage_shards.{stage}: expected a sequence");
                };
                assert!(!items.is_empty(), "stage_shards.{stage} is empty");
                assert!(
                    items.iter().all(|v| matches!(v, Value::UInt(_))),
                    "stage_shards.{stage}: non-integer shard nanos"
                );
            }
        }
        // One event per mini-batch, in order.
        assert_eq!(indices, (0..report.iterations).collect::<Vec<_>>());
        // The reconciliation at the heart of the audit contract.
        assert_eq!(
            summed,
            report.total_traffic(),
            "{schedule:?}: summed per-stage traffic != report total"
        );
    }
}

#[test]
fn run_completed_summary_matches_the_report() {
    let (report, lines) = run_with_audit(Schedule::Sync);
    let last: Value = serde_json::from_str(lines.last().unwrap()).expect("parse");
    assert_eq!(uint_field(&last, "iterations"), report.iterations as u64);
    assert!(uint_field(&last, "elapsed_ns") > 0);
    assert_eq!(str_field(&last, "schedule"), "sync");
    let flush = memsim::Traffic::from_value(last.get("flush_traffic").expect("flush_traffic"))
        .expect("Traffic");
    assert_eq!(flush, report.flush_traffic);
    match last.get("hit_rate") {
        Some(Value::Float(hr)) => assert!((hr - report.hit_rate()).abs() < 1e-12),
        other => panic!("hit_rate: {other:?}"),
    }
    match last.get("peak_held_slots") {
        Some(Value::Seq(items)) => assert_eq!(items.len(), report.peak_held_slots.len()),
        other => panic!("peak_held_slots: {other:?}"),
    }
    // A lossless sink reports zero drops in the closing event.
    assert_eq!(uint_field(&last, "dropped_lines"), 0);
}

#[test]
fn disabled_audit_emits_nothing_and_changes_nothing() {
    // Same run with and without a sink: identical reports, empty stream.
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 200,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 9,
    };
    let batches = TraceGenerator::new(tc).take_batches(10);
    let tables = || -> Vec<embeddings::EmbeddingTable> {
        (0..2)
            .map(|t| embeddings::EmbeddingTable::seeded(200, 8, t))
            .collect()
    };
    let run = |sink: Option<MemorySink>| {
        let mut b = Pipeline::builder()
            .config(PipelineConfig::functional(8, 192))
            .tables(tables())
            .backend(UnitBackend::new(0.05))
            .schedule(Schedule::Sync);
        if let Some(s) = sink {
            b = b.audit(s);
        }
        b.build().expect("pipeline").run(&batches).expect("run")
    };
    let audited_sink = MemorySink::new();
    let audited = run(Some(audited_sink.clone()));
    let silent = run(None);
    assert_eq!(
        serde_json::to_string(&audited).unwrap(),
        serde_json::to_string(&silent).unwrap(),
        "audit must be a pure observer"
    );
    assert_eq!(audited_sink.lines().len(), batches.len() + 2);
}

/// A writer whose every byte fails — the worst disk imaginable.
struct BrokenWriter;

impl std::io::Write for BrokenWriter {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("disk full"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("disk full"))
    }
}

#[test]
fn file_sink_write_failures_drop_lines_without_panicking() {
    // Audit output is best-effort: a sink whose writer errors on every
    // line must not panic or perturb the run, and must count what it
    // lost so the truncation is detectable afterwards.
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 200,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 9,
    };
    let batches = TraceGenerator::new(tc).take_batches(10);
    let tables: Vec<embeddings::EmbeddingTable> = (0..2)
        .map(|t| embeddings::EmbeddingTable::seeded(200, 8, t))
        .collect();
    let sink = FileSink::from_writer(BrokenWriter);
    assert_eq!(sink.dropped_lines(), 0);
    let dropped = sink.dropped_counter();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(8, 192))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .audit(sink)
        .build()
        .expect("pipeline");
    let report = rt
        .run(&batches)
        .expect("a broken audit disk must not fail the run");
    assert_eq!(report.iterations, batches.len());
    assert_eq!(
        dropped.load(std::sync::atomic::Ordering::Relaxed),
        batches.len() as u64 + 2,
        "every attempted line (run_started + iterations + run_completed) is counted"
    );
}

/// A writer that fails its first `failures` write calls, then recovers —
/// a disk that was briefly full. Successful writes land in `buf`.
struct FlakyWriter {
    failures: usize,
    buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl std::io::Write for FlakyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.failures > 0 {
            self.failures -= 1;
            return Err(std::io::Error::other("disk full"));
        }
        self.buf.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn run_completed_reports_dropped_lines_in_the_stream_itself() {
    // When a FileSink loses early lines, the closing run_completed event
    // must carry the drop count, so a reader of the (truncated) stream
    // can tell it is incomplete without access to the in-process counter.
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 200,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 9,
    };
    let batches = TraceGenerator::new(tc).take_batches(10);
    let tables: Vec<embeddings::EmbeddingTable> = (0..2)
        .map(|t| embeddings::EmbeddingTable::seeded(200, 8, t))
        .collect();
    let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    // Lose run_started and the first two iteration lines, then recover.
    let sink = FileSink::from_writer(FlakyWriter {
        failures: 3,
        buf: buf.clone(),
    });
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(8, 192))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .audit(sink)
        .build()
        .expect("pipeline");
    rt.run(&batches).expect("run");
    let written = String::from_utf8(buf.lock().unwrap().clone()).expect("utf8");
    let lines: Vec<&str> = written.lines().collect();
    assert_eq!(
        lines.len(),
        batches.len() + 2 - 3,
        "exactly the surviving lines landed"
    );
    let last: Value = serde_json::from_str(lines.last().unwrap()).expect("parse");
    assert_eq!(str_field(&last, "event"), "run_completed");
    assert_eq!(
        uint_field(&last, "dropped_lines"),
        3,
        "the stream itself records how many lines it lost"
    );
    // seq still counts every *attempted* line, exposing the gaps.
    assert_eq!(uint_field(&last, "seq"), batches.len() as u64 + 1);
}

/// The two-table trace and tables of the failure-path tests below.
fn small_trace(iterations: usize) -> Vec<embeddings::SparseBatch> {
    TraceGenerator::new(TraceConfig {
        num_tables: 2,
        rows_per_table: 200,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 9,
    })
    .take_batches(iterations)
}

fn small_tables() -> Vec<embeddings::EmbeddingTable> {
    (0..2)
        .map(|t| embeddings::EmbeddingTable::seeded(200, 8, t))
        .collect()
}

#[test]
fn a_failing_plain_run_still_ends_its_stream() {
    // `Pipeline::run` has no supervisor: the first error propagates. The
    // observers must still be told how the run ended — the fault that
    // fired, a terminal `run_aborted` with nothing committed after one
    // attempt, a flushed sink, a closed telemetry run — and the caller
    // must get the error unchanged.
    let batches = small_trace(10);
    let injected = FaultPlan::new(vec![Fault {
        iteration: 4,
        stage: "Insert".to_owned(),
        shard: 0,
        kind: FaultKind::StageError,
        fires: 1,
    }]);
    // (schedule, slots per table, armed plan, expected fault_injected lines)
    let cases = [
        (Schedule::Sync, 192, Some(injected.clone()), 1),
        (Schedule::Threaded, 192, Some(injected), 1),
        // Four slots cannot hold one batch's working set.
        (Schedule::Sync, 4, None, 0),
    ];
    for (schedule, slots, plan, faults) in cases {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let telemetry = Telemetry::new();
        let mut builder = Pipeline::builder()
            .config(PipelineConfig::functional(8, slots))
            .tables(small_tables())
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .audit(FileSink::from_writer(std::io::BufWriter::new(
                FlakyWriter {
                    failures: 0,
                    buf: buf.clone(),
                },
            )))
            .telemetry(telemetry.clone())
            .named("doomed");
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        let err = builder
            .build()
            .expect("pipeline")
            .run(&batches)
            .expect_err("the run must fail");
        match faults {
            1 => assert_eq!(
                err,
                ScratchError::Injected {
                    iteration: 4,
                    stage: "Insert".to_owned(),
                }
            ),
            _ => assert!(matches!(err, ScratchError::CapacityExhausted { .. })),
        }

        // Everything reached the writer: the sink was flushed.
        let written = String::from_utf8(buf.lock().unwrap().clone()).expect("utf8");
        let events: Vec<Value> = written
            .lines()
            .map(|l| serde_json::from_str(l).expect("parse"))
            .collect();
        let kinds: Vec<&str> = events.iter().map(|e| str_field(e, "event")).collect();
        let mut expected = vec!["run_started"];
        expected.extend(std::iter::repeat("fault_injected").take(faults));
        expected.push("run_aborted");
        assert_eq!(kinds, expected, "{schedule:?} / {slots} slots");
        let last = events.last().expect("nonempty");
        assert_eq!(uint_field(last, "seq"), events.len() as u64 - 1);
        assert_eq!(uint_field(last, "iteration"), 0);
        assert_eq!(uint_field(last, "committed"), 0);
        assert_eq!(uint_field(last, "attempts"), 1);
        assert_eq!(uint_field(last, "dropped_lines"), 0);
        assert_eq!(str_field(last, "schedule"), schedule.name());
        assert_eq!(str_field(last, "cause"), err.to_string());

        // The telemetry run was closed: a run span and the end-of-run
        // scratchpad gauges exist, and nothing committed.
        let digest = telemetry.deterministic_digest();
        assert!(digest.contains("span run r0"), "{digest}");
        assert!(digest.contains("metric sp_run_iterations_total{run=doomed} 0"));
        assert!(digest.contains("metric sp_scratchpad_slots{run=doomed,table=1}"));
    }
}

fn parse_all(lines: &[String]) -> Vec<Value> {
    lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("parse"))
        .collect()
}

#[test]
fn two_runs_through_one_sink_are_two_streams() {
    let batches = small_trace(5);
    let sink = MemorySink::new();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(8, 192))
        .tables(small_tables())
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .audit(sink.clone())
        .build()
        .expect("pipeline");
    rt.run(&batches).expect("first run");
    rt.run(&batches).expect("second run");
    let events = parse_all(&sink.lines());
    let (first, second) = events.split_at(batches.len() + 2);
    assert_eq!(second.len(), batches.len() + 2);
    for run in [first, second] {
        let run_id = str_field(&run[0], "run_id");
        for (i, event) in run.iter().enumerate() {
            assert_eq!(uint_field(event, "seq"), i as u64, "seq restarts at 0");
            assert_eq!(str_field(event, "run_id"), run_id);
        }
        assert_eq!(str_field(&run[0], "event"), "run_started");
        assert_eq!(str_field(&run[run.len() - 1], "event"), "run_completed");
    }
    assert_ne!(
        str_field(&first[0], "run_id"),
        str_field(&second[0], "run_id"),
        "every run gets a fresh run_id"
    );
}

/// `run_started` and `run_completed` claim the same iteration count, it
/// is the number of `iteration` lines, and the hit rate recomputed from
/// those lines is `run_completed.hit_rate` — in a plain stream, and in a
/// supervised one whose rolled-back attempts audit nothing.
#[test]
fn bracketing_events_agree_with_the_iteration_lines() {
    let (_, plain) = run_with_audit(Schedule::Sync);
    let sink = MemorySink::new();
    Pipeline::builder()
        .config(PipelineConfig::functional(8, 192))
        .tables(small_tables())
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .faults(FaultPlan::new(vec![Fault {
            iteration: 3,
            stage: "Train".to_owned(),
            shard: 0,
            kind: FaultKind::StageError,
            fires: 2,
        }]))
        .audit(sink.clone())
        .build()
        .expect("pipeline")
        .run_supervised(&small_trace(6), RecoveryPolicy::default())
        .expect("recoverable");
    let supervised = sink.lines();
    assert!(supervised
        .iter()
        .any(|l| l.contains("iteration_rolled_back")));
    for lines in [plain, supervised] {
        let events = parse_all(&lines);
        let (first, last) = (&events[0], &events[events.len() - 1]);
        let iterations: Vec<&Value> = events
            .iter()
            .filter(|e| str_field(e, "event") == "iteration")
            .collect();
        assert_eq!(uint_field(first, "iterations"), iterations.len() as u64);
        assert_eq!(uint_field(last, "iterations"), iterations.len() as u64);
        let hits: u64 = iterations.iter().map(|e| uint_field(e, "hits")).sum();
        let misses: u64 = iterations.iter().map(|e| uint_field(e, "misses")).sum();
        let recomputed = hits as f64 / (hits + misses) as f64;
        match last.get("hit_rate") {
            Some(Value::Float(hr)) => assert!((hr - recomputed).abs() < 1e-9),
            other => panic!("hit_rate: {other:?}"),
        }
    }
}

/// A worker panic's shard is taken modulo the stage's task count, and the
/// `fault_injected` line names the task that panicked — the one the
/// rollback's cause blames.
#[test]
fn an_injected_worker_panic_names_the_task_that_panicked() {
    let sink = MemorySink::new();
    Pipeline::builder()
        .config(PipelineConfig::functional(8, 192))
        .tables(small_tables())
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .faults(FaultPlan::new(vec![Fault {
            iteration: 3,
            stage: "Insert".to_owned(),
            shard: 5,
            kind: FaultKind::WorkerPanic,
            fires: 1,
        }]))
        .audit(sink.clone())
        .build()
        .expect("pipeline")
        .run_supervised(&small_trace(6), RecoveryPolicy::default())
        .expect("recoverable");
    let events = parse_all(&sink.lines());
    let first = |kind: &str| {
        events
            .iter()
            .find(|e| str_field(e, "event") == kind)
            .unwrap_or_else(|| panic!("no {kind} line"))
    };
    // Insert runs one task per table: shard 5 of 2 tasks is task 1.
    assert_eq!(uint_field(first("fault_injected"), "shard"), 1);
    let cause = str_field(first("iteration_rolled_back"), "cause");
    assert!(cause.starts_with("worker task 1 panicked"), "{cause}");
}
