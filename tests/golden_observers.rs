//! Golden observer digests: what a run's observers report is part of the
//! repo's contract — the audit JSONL's event kinds, field names, values
//! and line order, and the telemetry collector's span tree and
//! deterministic metrics. The digests below were recorded at the commit
//! *before* audit, metrics and trace became folds over one per-run event
//! log; any rewrite of the recording path must reproduce them byte for
//! byte, for every schedule and for a supervised run that rolls back,
//! retries and degrades.
//!
//! Wall-clock values are masked before hashing: the audit stream's
//! `run_id`, `elapsed_ns` and the numbers inside `stage_nanos` /
//! `stage_shards` (their keys and shard counts stay), and the digest's
//! `sp_barrier_*` lines, which exist only if a lane happened to block.

use embeddings::EmbeddingTable;
use scratchpipe::{
    Fault, FaultKind, FaultPlan, MemorySink, Pipeline, PipelineConfig, RecoveryPolicy, Schedule,
    Telemetry, UnitBackend,
};
use serde::Value;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const NUM_TABLES: usize = 4;
const ROWS: u64 = 20_000;
/// Wide enough that the Train gather and scatter of one iteration
/// (8 192 lookups × 64) clear `WorkerPool::MIN_SHARD_WORK`, so the
/// data-parallel case records pooled shard regions, not only inline ones.
const DIM: usize = 64;
const SLOTS: usize = 13_000;
const ITERS: usize = 8;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn zero_numbers(v: &mut Value) {
    match v {
        Value::UInt(n) => *n = 0,
        Value::Seq(items) => items.iter_mut().for_each(zero_numbers),
        Value::Map(entries) => entries.iter_mut().for_each(|(_, v)| zero_numbers(v)),
        _ => {}
    }
}

/// The audit stream with its wall-clock values masked, one line per
/// event, in stream order.
fn masked_stream(lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        let mut event: Value = serde_json::from_str(line).expect("audit line parses");
        let Value::Map(entries) = &mut event else {
            panic!("audit line is not an object");
        };
        for (key, v) in entries.iter_mut() {
            match key.as_str() {
                "run_id" => *v = Value::Str(String::new()),
                "elapsed_ns" | "stage_nanos" | "stage_shards" => zero_numbers(v),
                _ => {}
            }
        }
        out.push_str(&serde_json::to_string(&event).expect("serialize"));
        out.push('\n');
    }
    out
}

/// `(digest of Telemetry::deterministic_digest, digest of the masked
/// audit stream)` of one observed run; `supervised` arms a fault plan and
/// runs under `run_supervised`.
fn observe(schedule: Schedule, width: usize, supervised: Option<FaultPlan>) -> [u64; 2] {
    let batches = TraceGenerator::new(TraceConfig {
        num_tables: NUM_TABLES,
        rows_per_table: ROWS,
        lookups_per_sample: 8,
        batch_size: 256,
        profile: LocalityProfile::Medium,
        seed: 0x60_1D,
    })
    .take_batches(ITERS);
    let tables: Vec<EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::seeded(ROWS as usize, DIM, 80 + t as u64))
        .collect();
    let telemetry = Telemetry::new();
    let sink = MemorySink::new();
    let mut builder = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, SLOTS))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(width)
        .telemetry(telemetry.clone())
        .audit(sink.clone())
        .named("golden");
    if let Some(plan) = supervised.clone() {
        builder = builder.faults(plan);
    }
    let mut rt = builder.build().expect("pipeline");
    if supervised.is_some() {
        let policy = RecoveryPolicy {
            retry_budget: 2,
            checkpoint_interval: 1,
        };
        let run = rt.run_supervised(&batches, policy).expect("recoverable");
        assert!(run.stats.rollbacks > 0 && run.stats.retries > 0 && run.stats.degradations > 0);
    } else {
        rt.run(&batches).expect("run");
    }
    let digest: String = telemetry
        .deterministic_digest()
        .lines()
        .filter(|l| !l.contains("sp_barrier_"))
        .flat_map(|l| [l, "\n"])
        .collect();
    [fnv(&digest), fnv(&masked_stream(&sink.lines()))]
}

/// Survives both `DataParallel` attempts, both `Threaded` ones and the
/// first on `Sync` (budget 2 per rung), then two worker panics strike the
/// degraded run.
fn degrading_plan() -> FaultPlan {
    let fault = |iteration, stage: &str, shard, kind, fires| Fault {
        iteration,
        stage: stage.to_owned(),
        shard,
        kind,
        fires,
    };
    FaultPlan::new(vec![
        fault(1, "Insert", 0, FaultKind::StageError, 5),
        fault(5, "Collect", 1, FaultKind::WorkerPanic, 1),
        fault(6, "Insert", 0, FaultKind::WorkerPanic, 1),
    ])
}

/// `[telemetry digest, masked audit stream]` per case, in the order of
/// the test below. The supervised row was re-recorded when its plan's
/// payload-corruption and slow-shard faults became a worker panic. Both
/// `DataParallel` rows were re-recorded when the persistent worker pool
/// lowered \[Plan\]'s fan-out floor to 2 048 unique IDs and
/// `WorkerPool::MIN_SHARD_WORK` to 2¹⁷: every iteration gained a \[Plan\]
/// shard region (a `Plan` key in the audit line's `stage_shards`, a Plan
/// shard span and Plan shard metrics), and the Collect and Insert regions
/// that clear the lower floor moved from lane 0 to the worker lanes. The
/// degrading row was re-recorded again when `Sync` began sharding every
/// stage over the pool: its `Sync` rung, at width 2, now runs Collect,
/// Insert and Train on the worker lanes, splits the gather into two
/// sample ranges per table (four more Train shards per iteration), and
/// reports `sp_worker_pool_width` 2. The telemetry halves of both
/// `DataParallel` rows were re-recorded when the pool's workers began
/// claiming tasks instead of being dealt them: the digest renders a pooled
/// shard as the pool's first lane and its task index (`100:k`), not as the
/// lane of the worker that ran it; no other line moved. The telemetry
/// halves of the `Threaded` row and the degrading row (whose `Threaded`
/// rung is observed) were re-recorded when the queue-depth metric became
/// the backlog in front of each stage, recorded as the stage before it
/// completes: each gained an Exchange series (count 8 and 2); no other
/// line moved. They were re-recorded again when that metric was renamed
/// `sp_stage_backlog` (and its event `Backlog`): only its lines changed,
/// four `sp_stage_backlog{run=golden,stage=…} count=8` lines (Collect,
/// Exchange, Insert, Train) and three `count=2` lines (Collect, Exchange,
/// Insert), now listed before `sp_stage_latency_ns`. The `Sync` row is
/// the original.
const GOLDEN: [[u64; 2]; 4] = [
    [0xc97349be712d3bf2, 0x5eafac82b58cded2],
    [0x364006e8da50b922, 0xd70ed4f4fcfd596e],
    [0xabc191c894a154e2, 0x116e2dedf74ed7c6],
    [0x607bdcc418fb209d, 0x507231eecd7305ec],
];

#[test]
fn observers_match_the_recorded_digests() {
    let actual = [
        observe(Schedule::Sync, 1, None),
        observe(Schedule::DataParallel, 2, None),
        observe(Schedule::Threaded, 1, None),
        observe(Schedule::DataParallel, 2, Some(degrading_plan())),
    ];
    assert_eq!(
        actual, GOLDEN,
        "observer output moved; computed digests:\n{actual:#x?}"
    );
}

/// `[telemetry digest, masked audit stream]` of the unpipelined straw-man
/// (`Schedule::Sequential`: every batch through all five stages before
/// the next is admitted). Recorded at the commit before its driver was
/// folded into the register driver, so that fold reproduces the event
/// order byte for byte.
const GOLDEN_SEQUENTIAL: [u64; 2] = [0x223df7398a935926, 0xa977fa661e35434a];

#[test]
fn sequential_observers_match_the_recorded_digests() {
    let actual = observe(Schedule::Sequential, 1, None);
    assert_eq!(
        actual, GOLDEN_SEQUENTIAL,
        "observer output moved; computed digests:\n{actual:#x?}"
    );
}
