//! Chaos suite — deterministic fault injection against the supervised
//! recovery runtime.
//!
//! The headline property: a seeded [`FaultPlan`] whose faults are all
//! recoverable must leave **no trace in the results** — the supervised
//! run's `PipelineReport` serializes byte-identically to a fault-free
//! run's, and the trained tables are bit-identical — while the audit
//! stream records every injection, rollback, retry and degradation.
//! Unrecoverable plans must fail *cleanly*: `ScratchError::Aborted` with
//! full provenance, tables flushed at exactly the last committed
//! iteration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use embeddings::EmbeddingTable;
use proptest::prelude::*;
use scratchpipe::runtime::train_direct;
use scratchpipe::{
    AuditSink, Fault, FaultKind, FaultPlan, MemorySink, Pipeline, PipelineConfig, RecoveryPolicy,
    Schedule, ScratchError, SupervisedRun, UnitBackend,
};
use serde::Value;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const N: usize = 12;
const DIM: usize = 8;
const ROWS: usize = 400;

fn trace() -> Vec<embeddings::SparseBatch> {
    trace_of(N)
}

fn trace_of(batches: usize) -> Vec<embeddings::SparseBatch> {
    let tc = TraceConfig {
        num_tables: 3,
        rows_per_table: ROWS as u64,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 0xC4A5,
    };
    TraceGenerator::new(tc).take_batches(batches)
}

fn tables() -> Vec<EmbeddingTable> {
    (0..3)
        .map(|t| EmbeddingTable::seeded(ROWS, DIM, 700 + t))
        .collect()
}

fn build(
    schedule: Schedule,
    parallelism: usize,
    plan: Option<FaultPlan>,
    sink: Option<MemorySink>,
) -> Pipeline<UnitBackend> {
    let mut b = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, 192))
        .tables(tables())
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(parallelism)
        .named("chaos");
    if let Some(plan) = plan {
        b = b.faults(plan);
    }
    if let Some(sink) = sink {
        b = b.audit(sink);
    }
    b.build().expect("pipeline")
}

fn fault(iteration: usize, stage: &str, shard: usize, kind: FaultKind, fires: u32) -> Fault {
    Fault {
        iteration,
        stage: stage.to_owned(),
        shard,
        kind,
        fires,
    }
}

/// Recoverable faults of both kinds, spread over the trace. Every
/// `fires` stays below the default retry budget of 3.
fn recoverable_plan() -> FaultPlan {
    FaultPlan::new(vec![
        fault(2, "Plan", 0, FaultKind::StageError, 2),
        fault(5, "Collect", 1, FaultKind::WorkerPanic, 1),
        fault(7, "Insert", 0, FaultKind::WorkerPanic, 1),
        fault(9, "Insert", 0, FaultKind::StageError, 1),
    ])
}

fn baseline(schedule: Schedule, parallelism: usize) -> (String, Vec<EmbeddingTable>) {
    let mut rt = build(schedule, parallelism, None, None);
    let report = rt.run(&trace()).expect("fault-free run");
    let json = serde_json::to_string(&report).expect("serialize");
    (json, rt.into_tables())
}

#[test]
fn recovered_run_is_byte_identical_to_fault_free() {
    for (schedule, parallelism) in [
        (Schedule::Sync, 1),
        (Schedule::Threaded, 1),
        (Schedule::DataParallel, 2),
    ] {
        let (base_json, base_tables) = baseline(schedule, parallelism);
        let mut rt = build(schedule, parallelism, Some(recoverable_plan()), None);
        let SupervisedRun { report, stats } = rt
            .run_supervised(&trace(), RecoveryPolicy::default())
            .expect("all faults recoverable");
        assert_eq!(
            serde_json::to_string(&report).expect("serialize"),
            base_json,
            "{schedule:?}: recovered report must be byte-identical"
        );
        // StageError×2 + WorkerPanic×1 + WorkerPanic×1 + StageError×1
        // failing attempts.
        assert_eq!(stats.rollbacks, 5, "{schedule:?}");
        assert_eq!(stats.retries, 5, "{schedule:?}");
        assert_eq!(stats.degradations, 0, "{schedule:?}");
        assert_eq!(stats.faults_injected, 5, "{schedule:?}");
        assert_eq!(stats.final_schedule, Some(schedule), "{schedule:?}");
        let recovered = rt.into_tables();
        for (t, (a, b)) in recovered.iter().zip(&base_tables).enumerate() {
            assert!(
                a.bit_eq(b),
                "{schedule:?}: table {t} diverged after recovery"
            );
        }
    }
}

#[test]
fn supervised_run_without_faults_matches_plain_run() {
    let (base_json, base_tables) = baseline(Schedule::Sync, 1);
    let mut rt = build(Schedule::Sync, 1, None, None);
    let SupervisedRun { report, stats } = rt
        .run_supervised(&trace(), RecoveryPolicy::default())
        .expect("clean run");
    assert_eq!(
        serde_json::to_string(&report).expect("serialize"),
        base_json
    );
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(stats.faults_injected, 0);
    assert_eq!(stats.final_schedule, Some(Schedule::Sync));
    for (a, b) in rt.into_tables().iter().zip(&base_tables) {
        assert!(a.bit_eq(b));
    }
}

#[test]
fn unrecoverable_fault_aborts_with_provenance_and_committed_tables() {
    let abort_at = 4usize;
    let plan = FaultPlan::new(vec![fault(
        abort_at,
        "Train",
        0,
        FaultKind::StageError,
        u32::MAX,
    )]);
    let mut rt = build(Schedule::Sync, 1, Some(plan), None);
    let policy = RecoveryPolicy {
        retry_budget: 2,
        checkpoint_interval: 1,
    };
    let err = rt
        .run_supervised(&trace(), policy)
        .expect_err("persistent fault must abort");
    match &err {
        ScratchError::Aborted {
            iteration,
            attempts,
            schedule,
            cause,
        } => {
            assert_eq!(*iteration, abort_at);
            assert_eq!(*attempts, 2, "single-rung ladder × budget 2");
            assert_eq!(schedule, "sync");
            assert_eq!(
                **cause,
                ScratchError::Injected {
                    iteration: abort_at,
                    stage: "Train".to_owned(),
                }
            );
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    // The tables hold exactly the committed prefix: training the first
    // `abort_at` batches directly is bit-identical.
    let mut expected = tables();
    let mut backend = UnitBackend::new(0.05);
    train_direct(&mut expected, &trace()[..abort_at], &mut backend);
    for (t, (got, want)) in rt.into_tables().iter().zip(&expected).enumerate() {
        assert!(got.bit_eq(want), "table {t} not at the committed prefix");
    }
}

#[test]
fn degradation_ladder_walks_down_to_sync() {
    // fires = 5 survives DataParallel (attempts 0,1) and Threaded (2,3)
    // and the first Sync attempt (4), then attempt 5 succeeds on Sync.
    let plan = FaultPlan::new(vec![fault(1, "Insert", 0, FaultKind::StageError, 5)]);
    let (base_json, base_tables) = baseline(Schedule::DataParallel, 2);
    let sink = MemorySink::new();
    let mut rt = build(Schedule::DataParallel, 2, Some(plan), Some(sink.clone()));
    let policy = RecoveryPolicy {
        retry_budget: 2,
        checkpoint_interval: 1,
    };
    let SupervisedRun { report, stats } = rt
        .run_supervised(&trace(), policy)
        .expect("recoverable on the last rung");
    assert_eq!(
        serde_json::to_string(&report).expect("serialize"),
        base_json
    );
    assert_eq!(stats.rollbacks, 5);
    assert_eq!(stats.degradations, 2, "DataParallel → Threaded → Sync");
    assert_eq!(stats.retries, 3);
    assert_eq!(stats.final_schedule, Some(Schedule::Sync));
    for (a, b) in rt.into_tables().iter().zip(&base_tables) {
        assert!(a.bit_eq(b));
    }
    assert_eq!(recovery_story(&sink.lines()), [5, 3, 2, 0]);
}

#[test]
fn audit_stream_tells_the_recovery_story() {
    let sink = MemorySink::new();
    let mut rt = build(
        Schedule::Sync,
        1,
        Some(recoverable_plan()),
        Some(sink.clone()),
    );
    rt.run_supervised(&trace(), RecoveryPolicy::default())
        .expect("recoverable");
    let mut injected = 0u64;
    let mut rolled_back = 0u64;
    let mut retried = 0u64;
    let mut iterations = 0u64;
    for line in sink.lines() {
        let event: Value = serde_json::from_str(&line).expect("parse");
        let Some(Value::Str(kind)) = event.get("event") else {
            panic!("missing event kind");
        };
        match kind.as_str() {
            "fault_injected" => injected += 1,
            "iteration_rolled_back" => rolled_back += 1,
            "stage_retried" => retried += 1,
            "iteration" => iterations += 1,
            "run_started" | "run_completed" => {}
            other => panic!("unexpected event kind {other}"),
        }
    }
    assert_eq!(injected, 5);
    assert_eq!(rolled_back, 5);
    assert_eq!(retried, 5, "rollbacks == retries when nothing degrades");
    assert_eq!(iterations, N as u64, "one committed event per mini-batch");
}

#[test]
fn aborted_run_audits_committed_iterations_and_run_aborted() {
    let sink = MemorySink::new();
    let plan = FaultPlan::new(vec![fault(3, "Plan", 0, FaultKind::StageError, u32::MAX)]);
    let mut rt = build(Schedule::Sync, 1, Some(plan), Some(sink.clone()));
    let policy = RecoveryPolicy {
        retry_budget: 1,
        checkpoint_interval: 1,
    };
    rt.run_supervised(&trace(), policy).expect_err("must abort");
    let lines = sink.lines();
    let last: Value = serde_json::from_str(lines.last().expect("nonempty")).expect("parse");
    assert!(matches!(last.get("event"), Some(Value::Str(k)) if k == "run_aborted"));
    assert!(matches!(last.get("committed"), Some(Value::UInt(3))));
    let iteration_events = lines
        .iter()
        .filter(|l| {
            let e: Value = serde_json::from_str(l).expect("parse");
            matches!(e.get("event"), Some(Value::Str(k)) if k == "iteration")
        })
        .count();
    assert_eq!(iteration_events, 3, "exactly the committed prefix");
}

/// What an audit stream says the supervisor did, as `[rollbacks, retries,
/// degradations, aborts]`. Asserts on the way that every rollback is
/// answered by exactly one retry, degradation or abort, that every
/// degradation changes the rung, and that an aborted run audits exactly
/// the iterations its `run_aborted` says it committed.
fn recovery_story(lines: &[String]) -> [u64; 4] {
    let mut story = [0u64; 4];
    let mut iterations = 0u64;
    for line in lines {
        let event: Value = serde_json::from_str(line).expect("parse");
        let Some(Value::Str(kind)) = event.get("event") else {
            panic!("missing event kind");
        };
        match kind.as_str() {
            "iteration" => iterations += 1,
            "iteration_rolled_back" => story[0] += 1,
            "stage_retried" => story[1] += 1,
            "schedule_degraded" => {
                story[2] += 1;
                assert_ne!(event.get("from"), event.get("to"), "{line}");
            }
            "run_aborted" => {
                story[3] += 1;
                assert_eq!(event.get("committed"), Some(&Value::UInt(iterations)));
            }
            _ => {}
        }
    }
    assert_eq!(
        story[0],
        story[1] + story[2] + story[3],
        "rollbacks != retries + degradations + aborts"
    );
    story
}

/// A persistent fault walks a run that started on `DataParallel` down the
/// whole ladder: it aborts off the last rung, `sync`, with the tables at
/// the committed prefix, and the abort answers the last rollback.
#[test]
fn a_persistent_fault_aborts_a_data_parallel_run_off_the_sync_rung() {
    const ITERS: usize = 16;
    let abort_at = ITERS / 2;
    let batches = trace_of(ITERS);
    let sink = MemorySink::new();
    let plan = FaultPlan::new(vec![fault(
        abort_at,
        "Train",
        0,
        FaultKind::StageError,
        u32::MAX,
    )]);
    let mut rt = build(Schedule::DataParallel, 2, Some(plan), Some(sink.clone()));
    let policy = RecoveryPolicy::default();
    let err = rt
        .run_supervised(&batches, policy)
        .expect_err("persistent fault must abort");
    match &err {
        ScratchError::Aborted {
            iteration,
            attempts,
            schedule,
            ..
        } => {
            assert_eq!(*iteration, abort_at);
            assert_eq!(*attempts, 3 * policy.retry_budget, "three rungs");
            assert_eq!(schedule, "sync");
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    let mut expected = tables();
    train_direct(
        &mut expected,
        &batches[..abort_at],
        &mut UnitBackend::new(0.05),
    );
    for (t, (got, want)) in rt.into_tables().iter().zip(&expected).enumerate() {
        assert!(got.bit_eq(want), "table {t} not at the committed prefix");
    }
    assert_eq!(recovery_story(&sink.lines()), [9, 6, 2, 1]);
}

/// Every plan [`FaultPlan::seeded`] draws is recoverable: over a seed
/// matrix, the supervised run on `DataParallel` at width 2 reports byte
/// for byte and trains bit for bit what the fault-free run does.
#[test]
fn seeded_plans_recover_to_the_fault_free_run() {
    const ITERS: usize = 16;
    let batches = trace_of(ITERS);
    let mut plain = build(Schedule::DataParallel, 2, None, None);
    let report = plain.run(&batches).expect("fault-free run");
    let base_json = serde_json::to_string(&report).expect("serialize");
    let base_tables = plain.into_tables();
    for seed in [11u64, 23, 37, 58] {
        let sink = MemorySink::new();
        let plan = FaultPlan::seeded(seed, ITERS, 4);
        let mut rt = build(Schedule::DataParallel, 2, Some(plan), Some(sink.clone()));
        let SupervisedRun { report, stats } = rt
            .run_supervised(&batches, RecoveryPolicy::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            serde_json::to_string(&report).expect("serialize"),
            base_json,
            "seed {seed}: report"
        );
        for (t, (a, b)) in rt.into_tables().iter().zip(&base_tables).enumerate() {
            assert!(a.bit_eq(b), "seed {seed}: table {t} diverged");
        }
        assert!(stats.faults_injected > 0, "seed {seed}: nothing fired");
        let [rollbacks, ..] = recovery_story(&sink.lines());
        assert_eq!(rollbacks, stats.rollbacks, "seed {seed}");
    }
}

#[test]
fn seeded_plans_replay_identically() {
    let plan = FaultPlan::seeded(0xFEED, N, 4);
    let run = || {
        let mut rt = build(Schedule::Sync, 1, Some(plan.clone()), None);
        let out = rt.run_supervised(&trace(), RecoveryPolicy::default());
        match out {
            Ok(SupervisedRun { report, stats }) => (
                Ok((serde_json::to_string(&report).expect("serialize"), stats)),
                rt.into_tables(),
            ),
            Err(e) => (Err(e), rt.into_tables()),
        }
    };
    let (a, tables_a) = run();
    let (b, tables_b) = run();
    match (&a, &b) {
        (Ok((ja, sa)), Ok((jb, sb))) => {
            assert_eq!(ja, jb);
            assert_eq!(sa, sb);
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb),
        _ => panic!("replay diverged: {a:?} vs {b:?}"),
    }
    for (x, y) in tables_a.iter().zip(&tables_b) {
        assert!(x.bit_eq(y), "replayed tables diverged");
    }
}

/// An audit sink that drops, and counts, the lines whose index (counting
/// every line offered to it, from 0) is in `drop_lines` — the test double
/// for the best-effort sink contract (`FileSink` behaves the same way when
/// its writer errors).
struct FaultySink {
    inner: MemorySink,
    drop_lines: Vec<u64>,
    written: u64,
    dropped: Arc<AtomicU64>,
}

impl FaultySink {
    fn new(inner: MemorySink, drop_lines: Vec<u64>) -> Self {
        FaultySink {
            inner,
            drop_lines,
            written: 0,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The dropped-line counter, readable after the sink moved into a
    /// pipeline.
    fn dropped_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.dropped)
    }
}

impl AuditSink for FaultySink {
    fn write_line(&mut self, line: &str) {
        let index = self.written;
        self.written += 1;
        if self.drop_lines.contains(&index) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.write_line(line);
        }
    }
}

#[test]
fn faulty_sink_drops_configured_lines_only() {
    let mem = MemorySink::new();
    let mut sink = FaultySink::new(mem.clone(), vec![1, 3]);
    let dropped = sink.dropped_counter();
    for k in 0..5 {
        sink.write_line(&format!("line{k}"));
    }
    assert_eq!(mem.lines(), vec!["line0", "line2", "line4"]);
    assert_eq!(dropped.load(Ordering::Relaxed), 2);
}

#[test]
fn faulty_audit_sink_never_disturbs_the_run() {
    let (base_json, base_tables) = baseline(Schedule::Sync, 1);
    let inner = MemorySink::new();
    let sink = FaultySink::new(inner.clone(), vec![1, 3, 4]);
    let dropped = sink.dropped_counter();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, 192))
        .tables(tables())
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .named("chaos")
        .audit(sink)
        .build()
        .expect("pipeline");
    let report = rt.run(&trace()).expect("run");
    assert_eq!(
        serde_json::to_string(&report).expect("serialize"),
        base_json
    );
    assert_eq!(
        dropped.load(std::sync::atomic::Ordering::Relaxed),
        3,
        "exactly the planned lines dropped"
    );
    assert_eq!(inner.lines().len(), N + 2 - 3);
    for (a, b) in rt.into_tables().iter().zip(&base_tables) {
        assert!(a.bit_eq(b), "a failing audit sink must be a pure observer");
    }
}

/// Trace length of the checkpoint-interval grids: prime, so every interval
/// below leaves a short last segment, and long enough that an interval-7
/// or -8 segment fills, runs full and drains the six-payload window.
const GRID_N: usize = 23;
const GRID_STAGES: [&str; 4] = ["Plan", "Collect", "Insert", "Train"];

/// A fault anywhere in a multi-iteration segment — while the pipeline is
/// filling, full or draining — rolls the *whole* segment back: rows the
/// segment dirtied several times over (Insert fills a slot, Train updates
/// it, a later Insert evicts and refills it) must all land on their
/// checkpoint image, or the re-run diverges from the fault-free one.
#[test]
fn recovery_at_every_point_of_a_multi_iteration_segment() {
    let batches = trace_of(GRID_N);
    for schedule in [Schedule::Sync, Schedule::Threaded] {
        let mut plain = build(schedule, 1, None, None);
        let report = plain.run(&batches).expect("fault-free run");
        let base_json = serde_json::to_string(&report).expect("serialize");
        let base_tables = plain.into_tables();
        for checkpoint_interval in [2usize, 3, 7, 8, GRID_N] {
            let policy = RecoveryPolicy {
                checkpoint_interval,
                ..RecoveryPolicy::default()
            };
            for stage in GRID_STAGES {
                for at in 0..GRID_N {
                    let label = format!("{schedule:?}/interval {checkpoint_interval}/{stage}@{at}");
                    let plan = FaultPlan::new(vec![fault(at, stage, 0, FaultKind::StageError, 2)]);
                    let mut rt = build(schedule, 1, Some(plan), None);
                    let SupervisedRun { report, stats } = rt
                        .run_supervised(&batches, policy)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(
                        serde_json::to_string(&report).expect("serialize"),
                        base_json,
                        "{label}: report"
                    );
                    assert_eq!(stats.rollbacks, 2, "{label}");
                    assert_eq!(stats.degradations, 0, "{label}");
                    for (t, (a, b)) in rt.into_tables().iter().zip(&base_tables).enumerate() {
                        assert!(a.bit_eq(b), "{label}: table {t} diverged");
                    }
                }
            }
        }
    }
}

/// A persistent fault aborts at the start of *its segment*, whatever the
/// interval and the schedule the run started on, and the tables hold
/// exactly the segments committed before it.
#[test]
fn abort_lands_on_the_last_committed_segment_at_every_interval() {
    let batches = trace_of(GRID_N);
    for (schedule, parallelism, rungs) in [
        (Schedule::Sync, 1, 1u32),
        (Schedule::Sequential, 1, 1),
        (Schedule::Threaded, 1, 2),
        (Schedule::DataParallel, 2, 3),
    ] {
        for checkpoint_interval in [1usize, 2, 4, 7, GRID_N] {
            let policy = RecoveryPolicy {
                retry_budget: 2,
                checkpoint_interval,
            };
            for stage in GRID_STAGES {
                for at in [0usize, 1, 5, 6, 13, 22] {
                    let label = format!("{schedule:?}/interval {checkpoint_interval}/{stage}@{at}");
                    let committed = at / checkpoint_interval * checkpoint_interval;
                    let plan =
                        FaultPlan::new(vec![fault(at, stage, 0, FaultKind::StageError, u32::MAX)]);
                    let mut rt = build(schedule, parallelism, Some(plan), None);
                    let err = rt
                        .run_supervised(&batches, policy)
                        .expect_err("persistent fault must abort");
                    match &err {
                        ScratchError::Aborted {
                            iteration,
                            attempts,
                            cause,
                            ..
                        } => {
                            assert_eq!(*iteration, committed, "{label}");
                            assert_eq!(*attempts, rungs * policy.retry_budget, "{label}");
                            assert_eq!(
                                **cause,
                                ScratchError::Injected {
                                    iteration: at,
                                    stage: stage.to_owned(),
                                },
                                "{label}"
                            );
                        }
                        other => panic!("{label}: expected Aborted, got {other:?}"),
                    }
                    let mut expected = tables();
                    let mut backend = UnitBackend::new(0.05);
                    train_direct(&mut expected, &batches[..committed], &mut backend);
                    for (t, (got, want)) in rt.into_tables().iter().zip(&expected).enumerate() {
                        assert!(
                            got.bit_eq(want),
                            "{label}: table {t} not at the committed prefix"
                        );
                    }
                }
            }
        }
    }
}

/// A `WorkerPanic` in \[Plan\]'s task for table `shard` (0, 1), `fires`
/// times, mid-trace, at each checkpoint interval: the supervised run over
/// `batches` must report and train exactly what a fault-free run does.
fn assert_plan_panics_roll_back(
    label: &str,
    batches: &[embeddings::SparseBatch],
    build: impl Fn(Option<FaultPlan>) -> Pipeline<UnitBackend>,
    intervals: &[usize],
    fires: u32,
) {
    let mut plain = build(None);
    let report = plain.run(batches).expect("fault-free run");
    let base_json = serde_json::to_string(&report).expect("serialize");
    let base_tables = plain.into_tables();
    for &checkpoint_interval in intervals {
        for shard in [0, 1] {
            let label = format!("{label}/interval {checkpoint_interval}/shard {shard}");
            let at = batches.len() / 2;
            let plan = FaultPlan::new(vec![fault(
                at,
                "Plan",
                shard,
                FaultKind::WorkerPanic,
                fires,
            )]);
            let mut rt = build(Some(plan));
            let policy = RecoveryPolicy {
                checkpoint_interval,
                ..RecoveryPolicy::default()
            };
            let SupervisedRun { report, stats } = rt
                .run_supervised(batches, policy)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                serde_json::to_string(&report).expect("serialize"),
                base_json,
                "{label}: report"
            );
            assert_eq!(stats.rollbacks, u64::from(fires), "{label}");
            assert_eq!(stats.faults_injected, u64::from(fires), "{label}");
            assert_eq!(stats.degradations, 0, "{label}");
            for (t, (a, b)) in rt.into_tables().iter().zip(&base_tables).enumerate() {
                assert!(a.bit_eq(b), "{label}: table {t} diverged");
            }
        }
    }
}

/// \[Plan\] is a shard region like the other table-wise stages: a panic in
/// one table's planning task — on the calling thread (shard 0) or, when
/// the batch is big enough to fan out, on a pool worker (shard 1), with
/// the other tables' managers already advanced past the checkpoint — rolls
/// the segment back and leaves no trace in the results.
#[test]
fn a_panicking_plan_shard_is_rolled_back_without_a_trace() {
    // The suite's small trace plans inline whatever the pool.
    assert_plan_panics_roll_back(
        "inline",
        &trace(),
        |plan| build(Schedule::Sync, 2, plan, None),
        &[1, 4],
        2,
    );

    // ≈ 37 k unique IDs a batch over four tables: side by side at width 2.
    let wide = TraceConfig {
        num_tables: 4,
        rows_per_table: 50_000,
        lookups_per_sample: 8,
        batch_size: 1_536,
        profile: LocalityProfile::Low,
        seed: 0xC4A5,
    };
    let batches = TraceGenerator::new(wide).take_batches(6);
    let uniques: usize = (batches[0].bags())
        .map(|(_, bag)| bag.unique_ids().len())
        .sum();
    assert!(uniques > 34_000, "only {uniques} unique IDs in a batch");
    let build_wide = |plan: Option<FaultPlan>| {
        let tables = (0..wide.num_tables as u64)
            .map(|t| EmbeddingTable::seeded(wide.rows_per_table as usize, 4, 70 + t))
            .collect();
        let mut b = Pipeline::builder()
            .config(PipelineConfig::functional(4, wide.rows_per_table as usize))
            .tables(tables)
            .backend(UnitBackend::new(0.05))
            .schedule(Schedule::Sync)
            .parallelism(2);
        if let Some(plan) = plan {
            b = b.faults(plan);
        }
        b.build().expect("pipeline")
    };
    assert_plan_panics_roll_back("fanned out", &batches, build_wide, &[4], 1);
}

/// The recovery decision stream, as `(event, iteration, attempt, detail)`
/// tuples with the envelope stripped.
fn recovery_sequence(lines: &[String]) -> Vec<String> {
    let mut seq = Vec::new();
    for line in lines {
        let event: Value = serde_json::from_str(line).expect("parse");
        let Some(Value::Str(kind)) = event.get("event") else {
            continue;
        };
        let grab = |key: &str| -> String {
            match event.get(key) {
                Some(Value::UInt(n)) => n.to_string(),
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            }
        };
        match kind.as_str() {
            "fault_injected" => seq.push(format!(
                "inject:{}:{}:{}:{}:{}",
                grab("iteration"),
                grab("attempt"),
                grab("stage"),
                grab("kind"),
                grab("shard")
            )),
            "iteration_rolled_back" => seq.push(format!(
                "rollback:{}:{}:{}",
                grab("iteration"),
                grab("attempt"),
                grab("cause")
            )),
            "stage_retried" => seq.push(format!(
                "retry:{}:{}:{}",
                grab("iteration"),
                grab("attempt"),
                grab("schedule")
            )),
            "schedule_degraded" => seq.push(format!(
                "degrade:{}:{}:{}",
                grab("iteration"),
                grab("from"),
                grab("to")
            )),
            "run_aborted" => seq.push(format!(
                "abort:{}:{}:{}",
                grab("iteration"),
                grab("attempts"),
                grab("schedule")
            )),
            _ => {}
        }
    }
    seq
}

type WidthOutcome = (
    Vec<String>,
    Result<String, ScratchError>,
    Vec<EmbeddingTable>,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Worker-pool width is unobservable in recovery: the same seeded
    /// plan yields the identical injection/rollback/retry/degradation
    /// sequence and bit-identical tables at widths 1, 2 and 4.
    #[test]
    fn recovery_is_width_invariant(seed in 0u64..1_000) {
        let plan = FaultPlan::seeded(seed, N, 3);
        let mut reference: Option<WidthOutcome> = None;
        for width in [1usize, 2, 4] {
            let sink = MemorySink::new();
            let mut rt = build(
                Schedule::DataParallel,
                width,
                Some(plan.clone()),
                Some(sink.clone()),
            );
            let outcome = rt
                .run_supervised(&trace(), RecoveryPolicy::default())
                .map(|run| serde_json::to_string(&run.report).expect("serialize"));
            let seq = recovery_sequence(&sink.lines());
            let trained = rt.into_tables();
            match &reference {
                None => reference = Some((seq, outcome, trained)),
                Some((ref_seq, ref_outcome, ref_tables)) => {
                    prop_assert_eq!(&seq, ref_seq, "width {} recovery sequence", width);
                    match (&outcome, ref_outcome) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "width {}", width),
                        (Err(a), Err(b)) => prop_assert_eq!(a, b, "width {}", width),
                        _ => prop_assert!(false, "width {} outcome kind diverged", width),
                    }
                    for (x, y) in trained.iter().zip(ref_tables) {
                        prop_assert!(x.bit_eq(y), "width {} tables diverged", width);
                    }
                }
            }
        }
    }
}
