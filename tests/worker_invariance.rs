//! Worker-count invariance — the data-parallel determinism contract.
//!
//! The register schedules (`Sync`, `Sequential`, and `DataParallel`, which
//! is `Sync` under another name) shard \[Plan\], Collect, Insert and the
//! Train gather/scatter over a `WorkerPool`, but sharding only ever moves
//! work between threads along disjoint-output boundaries: no
//! floating-point reduction is split, so the pool width must be
//! *unobservable* in every result. This suite pins that down the strongest
//! way available: for arbitrary traces, parallelism ∈ {1, 2, 4, 7} must
//! produce byte-identical `PipelineReport` JSON, bit-identical trained
//! tables and identical audit iteration totals.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use proptest::prelude::*;
use scratchpipe::{
    IterationRecord, MemorySink, Pipeline, PipelineConfig, Schedule, Telemetry, UnitBackend,
};
use serde::{Deserialize as _, Value};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const WIDTHS: [usize; 4] = [1, 2, 4, 7];

/// Aggregate of one audit stream's `iteration` events.
#[derive(Debug, PartialEq, Eq)]
struct AuditTotals {
    iterations: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    loss_bits: Vec<u32>,
}

fn audit_totals(lines: &[String]) -> AuditTotals {
    let mut totals = AuditTotals {
        iterations: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
        loss_bits: Vec::new(),
    };
    for line in lines {
        let event: Value = serde_json::from_str(line).expect("audit line parses");
        if !matches!(event.get("event"), Some(Value::Str(kind)) if kind == "iteration") {
            continue;
        }
        let rec = IterationRecord::from_value(&event).expect("IterationRecord");
        totals.iterations += 1;
        totals.hits += rec.hits;
        totals.misses += rec.misses;
        totals.evictions += rec.evictions;
        totals.loss_bits.push(rec.loss.to_bits());
    }
    totals
}

/// Runs one trace under `schedule` at `parallelism`, returning the
/// report JSON, the trained tables and the audit totals.
fn run(
    tables: Vec<EmbeddingTable>,
    dim: usize,
    slots: usize,
    trace: &[SparseBatch],
    schedule: Schedule,
    parallelism: usize,
) -> (String, Vec<EmbeddingTable>, AuditTotals) {
    let sink = MemorySink::new();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(dim, slots))
        .tables(tables)
        .backend(UnitBackend::new(0.1))
        .schedule(schedule)
        .parallelism(parallelism)
        .audit(sink.clone())
        .build()
        .expect("pipeline");
    let report = rt.run(trace).expect("run");
    let json = serde_json::to_string(&report).expect("serialize report");
    (json, rt.into_tables(), audit_totals(&sink.lines()))
}

const ROWS: u64 = 64;
const DIM: usize = 4;

fn small_tables() -> Vec<EmbeddingTable> {
    (0..2)
        .map(|t| EmbeddingTable::seeded(ROWS as usize, DIM, t))
        .collect()
}

fn arb_trace() -> impl Strategy<Value = Vec<SparseBatch>> {
    // 2 tables, up to 16 batches of 1-3 samples × 1-4 lookups over 64 rows.
    let sample = proptest::collection::vec(0u64..ROWS, 1..4);
    let table = proptest::collection::vec(sample, 1..3);
    let batch = (table.clone(), table).prop_map(|(t0, t1)| {
        let b = t0.len().min(t1.len());
        SparseBatch::new(vec![
            TableBag::from_samples(&t0[..b]),
            TableBag::from_samples(&t1[..b]),
        ])
    });
    proptest::collection::vec(batch, 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_worker_count_is_byte_identical(trace in arb_trace()) {
        for schedule in [Schedule::Sync, Schedule::DataParallel] {
            let (base_json, base_tables, base_totals) =
                run(small_tables(), DIM, 64, &trace, schedule, WIDTHS[0]);
            prop_assert_eq!(base_totals.iterations as usize, trace.len());
            for &width in &WIDTHS[1..] {
                let (json, tables, totals) =
                    run(small_tables(), DIM, 64, &trace, schedule, width);
                prop_assert_eq!(
                    &base_json, &json, "{:?}: report JSON diverged at width {}", schedule, width
                );
                prop_assert_eq!(
                    &base_totals, &totals, "{:?}: audit totals diverged at width {}", schedule, width
                );
                for (t, (a, b)) in base_tables.iter().zip(&tables).enumerate() {
                    prop_assert!(
                        a.bit_eq(b),
                        "{:?} width {} table {} diverged at {:?}",
                        schedule, width, t, a.first_diff_row(b)
                    );
                }
            }
        }
    }
}

/// The same invariance at a shape large enough that the stage regions
/// clear `WorkerPool::MIN_SHARD_WORK` and the wide pools genuinely spawn
/// threads (gather work = 128 × 8 × 4 tables × dim 16 = 65 536 elements),
/// checked against the plain synchronous schedule as ground truth.
#[test]
fn wide_pools_match_sync_above_the_sharding_floor() {
    let tc = TraceConfig {
        num_tables: 4,
        rows_per_table: 3_000,
        lookups_per_sample: 8,
        batch_size: 128,
        profile: LocalityProfile::Medium,
        seed: 123,
    };
    let dim = 16;
    let batches = TraceGenerator::new(tc).take_batches(12);
    let mk_tables = || -> Vec<EmbeddingTable> {
        (0..tc.num_tables)
            .map(|t| EmbeddingTable::seeded(tc.rows_per_table as usize, dim, 700 + t as u64))
            .collect()
    };
    let slots = 3_000;
    let (sync_json, sync_tables, sync_totals) =
        run(mk_tables(), dim, slots, &batches, Schedule::Sync, 1);
    for width in WIDTHS {
        let (json, tables, totals) = run(
            mk_tables(),
            dim,
            slots,
            &batches,
            Schedule::DataParallel,
            width,
        );
        assert_eq!(sync_json, json, "width {width}: report JSON diverged");
        assert_eq!(sync_totals, totals, "width {width}: audit totals diverged");
        for (t, (a, b)) in sync_tables.iter().zip(&tables).enumerate() {
            assert!(
                a.bit_eq(b),
                "width {width}: table {t} diverged at {:?}",
                a.first_diff_row(b)
            );
        }
    }
}

/// The invariance at a shape whose batches carry enough unique IDs
/// (≈ 40 k over the eight tables) that \[Plan\] plans its tables side by
/// side on the pool — which it does under every register schedule, not
/// only the data-parallel one. Width must stay unobservable: functional
/// runs land bit-identical to `train_direct` with byte-identical reports,
/// analytic runs (metadata only, where \[Plan\] is all the work) report
/// the same bytes and leave every scratchpad manager in the same state.
///
/// Slots sit just over the §VI-D bound — the largest six-batch working
/// set of any table — so from the seventh batch on every miss evicts and
/// a victim chosen differently would show.
#[test]
fn plan_by_table_is_width_invariant_under_every_schedule() {
    let tc = TraceConfig {
        num_tables: 8,
        rows_per_table: 40_000,
        lookups_per_sample: 8,
        batch_size: 768,
        profile: LocalityProfile::Low,
        seed: 0x91A7,
    };
    let dim = 4;
    let batches = TraceGenerator::new(tc).take_batches(9);
    let uniques: usize = batches[0]
        .bags()
        .map(|(_, bag)| bag.unique_ids().len())
        .sum();
    assert!(uniques > 36_000, "only {uniques} unique IDs in a batch");
    let bound = (0..tc.num_tables)
        .flat_map(|t| {
            batches.windows(6).map(move |window| {
                let mut ids: Vec<u64> = window.iter().flat_map(|b| b.bag(t).unique_ids()).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            })
        })
        .max()
        .expect("more than six batches");
    let slots = bound + 64;
    let seeded: Vec<EmbeddingTable> = (0..tc.num_tables)
        .map(|t| EmbeddingTable::seeded(tc.rows_per_table as usize, dim, 40 + t as u64))
        .collect();
    let mk_tables = || seeded.clone();
    let mut direct = mk_tables();
    scratchpipe::runtime::train_direct(&mut direct, &batches, &mut UnitBackend::new(0.1));

    let mut reference: Option<String> = None;
    for schedule in [
        Schedule::Sync,
        Schedule::Sequential,
        Schedule::DataParallel,
        Schedule::Threaded,
    ] {
        for width in [1, 2, 4] {
            let (json, tables, totals) = run(mk_tables(), dim, slots, &batches, schedule, width);
            assert_eq!(totals.iterations as usize, batches.len());
            assert!(totals.evictions > 0, "the scratchpads never filled up");
            // Sequential plans without a look-ahead window, so it evicts
            // other rows than the pipelined schedules: one report each.
            let expected = match schedule {
                Schedule::Sequential => None,
                _ => Some(reference.get_or_insert_with(|| json.clone())),
            };
            if let Some(expected) = expected {
                assert_eq!(
                    &json, expected,
                    "{schedule:?} width {width}: report diverged"
                );
            }
            for (t, (a, b)) in direct.iter().zip(&tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{schedule:?} width {width}: table {t} diverged from train_direct at {:?}",
                    a.first_diff_row(b)
                );
            }
        }
    }

    for schedule in [Schedule::Sync, Schedule::Sequential] {
        let analytic = |width: usize| {
            let mut rt = Pipeline::builder()
                .config(PipelineConfig::analytic(dim, slots))
                .analytic_tables(tc.num_tables, tc.rows_per_table)
                .backend(UnitBackend::new(0.1))
                .schedule(schedule)
                .parallelism(width)
                .build()
                .expect("pipeline");
            let report = rt.run(&batches).expect("run");
            let managers: Vec<_> = (rt.managers().iter())
                .map(|m| (m.residents(), m.stats()))
                .collect();
            (
                serde_json::to_string(&report).expect("serialize report"),
                managers,
            )
        };
        let (base_json, base_managers) = analytic(1);
        for width in [2, 4] {
            let (json, managers) = analytic(width);
            assert_eq!(
                base_json, json,
                "analytic {schedule:?} width {width}: report"
            );
            assert_eq!(
                base_managers, managers,
                "analytic {schedule:?} width {width}: managers"
            );
        }
    }
}

/// How many of a run's `iteration` audit lines carry \[Plan\] shard
/// timings — which they do exactly when the region left the calling
/// thread.
fn iterations_with_plan_shards(
    schedule: Schedule,
    parallelism: usize,
    num_tables: usize,
    lookups: usize,
) -> usize {
    let tc = TraceConfig {
        num_tables,
        rows_per_table: 300_000 / num_tables as u64,
        lookups_per_sample: 8,
        batch_size: lookups / (8 * num_tables),
        profile: LocalityProfile::Low,
        seed: 77,
    };
    let sink = MemorySink::new();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(2, tc.rows_per_table as usize))
        .tables(
            (0..num_tables)
                .map(|t| EmbeddingTable::seeded(tc.rows_per_table as usize, 2, t as u64))
                .collect(),
        )
        .backend(UnitBackend::new(0.1))
        .schedule(schedule)
        .parallelism(parallelism)
        .audit(sink.clone())
        .build()
        .expect("pipeline");
    rt.run(&TraceGenerator::new(tc).take_batches(7))
        .expect("run");
    (sink.lines().iter())
        .filter(|line| {
            let event: Value = serde_json::from_str(line).expect("audit line parses");
            (event.get("stage_shards")).is_some_and(|shards| shards.get("Plan").is_some())
        })
        .count()
}

/// The one rule for when \[Plan\] fans out: a register schedule (the
/// lanes already occupy the pool's CPUs), a pool and a table count of at
/// least two, and a batch with `PLAN_FAN_OUT_MIN_UNIQUES` unique IDs.
#[test]
fn plan_fans_out_under_register_schedules_with_a_pool_and_a_big_batch() {
    // 49 152 lookups over 300 k rows: ≈ 45 k unique IDs a batch.
    let big = 49_152;
    for schedule in [Schedule::Sync, Schedule::Sequential, Schedule::DataParallel] {
        assert_eq!(
            iterations_with_plan_shards(schedule, 2, 4, big),
            7,
            "{schedule:?}"
        );
    }
    assert_eq!(
        iterations_with_plan_shards(Schedule::Threaded, 2, 4, big),
        0
    );
    assert_eq!(iterations_with_plan_shards(Schedule::Sync, 1, 4, big), 0);
    assert_eq!(iterations_with_plan_shards(Schedule::Sync, 2, 1, big), 0);
    // ≈ 16 k unique IDs a batch (`plan_bound`'s shape): over the floor.
    assert_eq!(iterations_with_plan_shards(Schedule::Sync, 2, 4, 16_384), 7);
    // ≈ 1 k unique IDs a batch (`copy_bound`'s shape): under the floor.
    assert_eq!(iterations_with_plan_shards(Schedule::Sync, 2, 4, 1_024), 0);
}

/// `Pipeline::prewarm` fills its tables side by side once it carries as
/// many rows as a batch that \[Plan\] would fan out. The scratchpads it
/// leaves — and the training that follows — are the same at any width.
#[test]
fn prewarm_by_table_is_width_invariant() {
    let tc = TraceConfig {
        num_tables: 8,
        rows_per_table: 6_000,
        lookups_per_sample: 4,
        batch_size: 32,
        profile: LocalityProfile::Medium,
        seed: 5,
    };
    let (dim, slots) = (2, 5_000);
    let batches = TraceGenerator::new(tc).take_batches(8);
    // 8 × 5 000 rows, over the floor; hottest first, as the harness does.
    let hot: Vec<Vec<u64>> = (0..tc.num_tables)
        .map(|t| TraceGenerator::new(tc).hot_rows(t, slots as u64))
        .collect();
    let mk_tables = || -> Vec<EmbeddingTable> {
        (0..tc.num_tables)
            .map(|t| EmbeddingTable::seeded(tc.rows_per_table as usize, dim, t as u64))
            .collect()
    };
    let mut direct = mk_tables();
    scratchpipe::runtime::train_direct(&mut direct, &batches, &mut UnitBackend::new(0.1));
    let mut reference = None;
    for width in [1, 2, 4] {
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::functional(dim, slots))
            .tables(mk_tables())
            .backend(UnitBackend::new(0.1))
            .schedule(Schedule::Sync)
            .parallelism(width)
            .build()
            .expect("pipeline");
        rt.prewarm(&hot).expect("prewarm");
        let prewarmed: Vec<_> = rt.managers().iter().map(|m| m.residents()).collect();
        assert!(prewarmed.iter().all(|residents| residents.len() == slots));
        let report = rt.run(&batches).expect("run");
        let outcome = (
            prewarmed,
            serde_json::to_string(&report).expect("serialize report"),
        );
        let expected = reference.get_or_insert_with(|| outcome.clone());
        assert_eq!(&outcome, expected, "width {width}");
        for (t, (a, b)) in direct.iter().zip(&rt.into_tables()).enumerate() {
            assert!(a.bit_eq(b), "width {width}: table {t} diverged");
        }
    }
}

/// `copy_bound`'s shape (4 tables, batch 256, one lookup, dim 256, 2 200
/// slots, random locality) over fewer rows: ≈ 1 000 staged rows of 1 KiB
/// a batch, so Collect, Insert, the Train gather and its scatter each
/// clear `WorkerPool::MIN_SHARD_WORK` in every iteration, while \[Plan\]
/// (≈ 1 000 unique IDs) stays under its fan-out floor.
const COPY_TABLES: usize = 4;
const COPY_ROWS: usize = 10_000;
const COPY_DIM: usize = 256;
const COPY_SLOTS: usize = 2_200;
const COPY_ITERS: usize = 8;

fn copy_bound_trace() -> Vec<SparseBatch> {
    TraceGenerator::new(TraceConfig {
        num_tables: COPY_TABLES,
        rows_per_table: COPY_ROWS as u64,
        lookups_per_sample: 1,
        batch_size: 256,
        profile: LocalityProfile::Random,
        seed: 0xC0B1,
    })
    .take_batches(COPY_ITERS)
}

/// What one observed run at `copy_bound`'s shape leaves behind: the report
/// JSON, the trained tables, the audit stream with its wall-clock values
/// and schedule names masked, and the telemetry collector's deterministic
/// digest with its schedule names masked.
fn observe_copy_bound(
    batches: &[SparseBatch],
    schedule: Schedule,
    parallelism: usize,
) -> (String, Vec<EmbeddingTable>, String, String) {
    let sink = MemorySink::new();
    let telemetry = Telemetry::new();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(COPY_DIM, COPY_SLOTS))
        .tables(
            (0..COPY_TABLES)
                .map(|t| EmbeddingTable::seeded(COPY_ROWS, COPY_DIM, 900 + t as u64))
                .collect(),
        )
        .backend(UnitBackend::new(0.1))
        .schedule(schedule)
        .parallelism(parallelism)
        .audit(sink.clone())
        .telemetry(telemetry.clone())
        .build()
        .expect("pipeline");
    let report = rt.run(batches).expect("run");
    let json = serde_json::to_string(&report).expect("serialize report");
    let name = schedule.name();
    let digest = telemetry
        .deterministic_digest()
        .replace(&format!("schedule={name}"), "schedule=?");
    (json, rt.into_tables(), masked_audit(&sink.lines()), digest)
}

fn zero_numbers(v: &mut Value) {
    match v {
        Value::UInt(n) => *n = 0,
        Value::Seq(items) => items.iter_mut().for_each(zero_numbers),
        Value::Map(entries) => entries.iter_mut().for_each(|(_, v)| zero_numbers(v)),
        _ => {}
    }
}

/// The audit stream with the values a run's wall clock decides zeroed
/// (`run_id`, `elapsed_ns`, the nanos inside `stage_nanos` and
/// `stage_shards`; their keys and shard counts stay) and every `schedule`
/// field blanked.
fn masked_audit(lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        let mut event: Value = serde_json::from_str(line).expect("audit line parses");
        let Value::Map(entries) = &mut event else {
            panic!("audit line is not an object");
        };
        for (key, v) in entries.iter_mut() {
            match key.as_str() {
                "run_id" | "schedule" => *v = Value::Str(String::new()),
                "elapsed_ns" | "stage_nanos" | "stage_shards" => zero_numbers(v),
                _ => {}
            }
        }
        out.push_str(&serde_json::to_string(&event).expect("serialize"));
        out.push('\n');
    }
    out
}

/// `DataParallel` is `Sync` under another name: at pool widths 1, 2 and 4
/// the two give byte-identical reports, bit-identical tables, and the same
/// audit stream and telemetry digest (which record every shard region,
/// its task count and the worker each task ran on) apart from the
/// schedule's name.
#[test]
fn sync_and_data_parallel_are_one_schedule_at_every_width() {
    let batches = copy_bound_trace();
    for width in [1, 2, 4] {
        let (sync_json, sync_tables, sync_audit, sync_digest) =
            observe_copy_bound(&batches, Schedule::Sync, width);
        let (dp_json, dp_tables, dp_audit, dp_digest) =
            observe_copy_bound(&batches, Schedule::DataParallel, width);
        assert_eq!(sync_json, dp_json, "width {width}: report");
        assert_eq!(sync_audit, dp_audit, "width {width}: masked audit stream");
        assert_eq!(sync_digest, dp_digest, "width {width}: telemetry digest");
        for (t, (a, b)) in sync_tables.iter().zip(&dp_tables).enumerate() {
            assert!(
                a.bit_eq(b),
                "width {width}: table {t} diverged at {:?}",
                a.first_diff_row(b)
            );
        }
    }
}

/// Per iteration, the stages whose shard regions ran on the pool's
/// workers, read off the telemetry digest: a region's shard line lists
/// `lane:worker` per task, and a pooled task's lane is a worker lane
/// (trace thread 100 and up).
fn pooled_stages(schedule: Schedule, parallelism: usize) -> Vec<Vec<String>> {
    let (_, _, _, digest) = observe_copy_bound(&copy_bound_trace(), schedule, parallelism);
    let mut pooled = vec![Vec::new(); COPY_ITERS];
    for line in digest.lines() {
        let Some(rest) = line.strip_prefix("span shards r0 i") else {
            continue;
        };
        let (iteration, rest) = rest.split_once(' ').expect("iteration");
        let (stage, tasks) = rest.split_once(' ').expect("stage");
        let on_worker = (tasks.trim_matches(|c| c == '[' || c == ']').split(',')).any(|task| {
            task.split(':')
                .next()
                .and_then(|lane| lane.parse::<u64>().ok())
                >= Some(100)
        });
        let stages = &mut pooled[iteration.parse::<usize>().expect("iteration index")];
        if on_worker && !stages.iter().any(|s| s == stage) {
            stages.push(stage.to_owned());
        }
    }
    pooled
}

/// The register schedules hand every stage the pipeline's pool: at
/// `copy_bound`'s shape under `Sync` at width 2, every iteration's
/// Collect, Insert and Train regions run on it. At width 1 nothing leaves
/// the calling thread, and under `Threaded` the lanes keep every region
/// inline.
#[test]
fn sync_shards_collect_insert_and_train_at_copy_bounds_shape() {
    let every = vec![vec!["Collect", "Insert", "Train"]; COPY_ITERS];
    let mut wide = pooled_stages(Schedule::Sync, 2);
    wide.iter_mut().for_each(|stages| stages.sort());
    assert_eq!(wide, every, "Sync at width 2");
    let none = vec![Vec::<String>::new(); COPY_ITERS];
    assert_eq!(pooled_stages(Schedule::Sync, 1), none, "Sync at width 1");
    assert_eq!(pooled_stages(Schedule::Threaded, 2), none, "Threaded");
}
