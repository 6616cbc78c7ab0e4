//! Driver equivalence — one driver, interchangeable schedules.
//!
//! The [`Pipeline`] drives the same five stage bodies under every
//! [`Schedule`]; this suite pins down that the
//! synchronous register schedule, the per-stage-thread schedule and the
//! intra-stage data-parallel schedule are
//! observably *identical*: bit-identical tables, and
//! [`PipelineReport`]s whose JSON serializations match byte-for-byte
//! (records, losses, per-stage traffic, flush traffic, peak held slots).
//!
//! This subsumes the old sync-vs-threaded stage-parity suite: report
//! equality is checked wholesale through the serde path rather than
//! field-by-field, so a new report field is covered the day it is added.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use scratchpipe::{
    Fault, FaultKind, FaultPlan, Pipeline, PipelineConfig, PipelineReport, RecoveryPolicy,
    Schedule, UnitBackend,
};
use systems::DlrmBackend;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

fn make_tables(num: usize, rows: usize, dim: usize, seed0: u64) -> Vec<EmbeddingTable> {
    (0..num)
        .map(|t| EmbeddingTable::seeded(rows, dim, seed0 + t as u64))
        .collect()
}

/// Reports must agree on *everything*, including float bit patterns —
/// the serde JSON path preserves both (shortest-round-trip floats), so
/// string equality is the strongest practical whole-report comparison.
fn assert_reports_identical(sync: &PipelineReport, threaded: &PipelineReport, label: &str) {
    let a = serde_json::to_string(sync).expect("serialize sync report");
    let b = serde_json::to_string(threaded).expect("serialize threaded report");
    assert_eq!(a, b, "{label}: reports diverged");
    // Belt and braces: loss bit patterns, independent of the JSON path.
    for (s, t) in sync.records.iter().zip(&threaded.records) {
        assert_eq!(
            s.loss.to_bits(),
            t.loss.to_bits(),
            "{label}: loss bits diverged at iteration {}",
            s.index
        );
    }
}

#[test]
fn sync_and_threaded_schedules_agree_on_tables_and_reports() {
    for profile in [
        LocalityProfile::Random,
        LocalityProfile::Medium,
        LocalityProfile::High,
    ] {
        let tc = TraceConfig {
            num_tables: 3,
            rows_per_table: 400,
            lookups_per_sample: 4,
            batch_size: 8,
            profile,
            seed: 77,
        };
        let batches = TraceGenerator::new(tc).take_batches(30);
        let dim = 8;
        // §VI-D worst case: 6 windowed batches × 8 × 4 = 192 held rows.
        let config = PipelineConfig::functional(dim, 192);

        let run = |schedule: Schedule| {
            let mut rt = Pipeline::builder()
                .config(config.clone())
                .tables(make_tables(3, 400, dim, 9000))
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .parallelism(4)
                .build()
                .expect("pipeline");
            let report = rt.run(&batches).expect("run");
            (report, rt.into_tables())
        };
        let (sync_report, sync_tables) = run(Schedule::Sync);
        for schedule in [Schedule::Threaded, Schedule::DataParallel] {
            let (other_report, other_tables) = run(schedule);
            for (t, (a, b)) in sync_tables.iter().zip(&other_tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?}/{}: table {t} diverged at row {:?}",
                    schedule.name(),
                    a.first_diff_row(b)
                );
            }
            assert_reports_identical(
                &sync_report,
                &other_report,
                &format!("{profile:?}/{}", schedule.name()),
            );
        }
    }
}

#[test]
fn schedule_equivalence_holds_with_full_dlrm_backend() {
    // The Train stage's traffic includes the dense backend's contribution;
    // run both schedules with the real DLRM backend to cover it.
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 300,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 5,
    };
    let batches = TraceGenerator::new(tc).take_batches(15);
    let dlrm_cfg = dlrm::DlrmConfig::tiny_with_tables(2);
    let dim = dlrm_cfg.emb_dim;
    let config = PipelineConfig::functional(dim, 192);

    let run = |schedule: Schedule| {
        let mut rt = Pipeline::builder()
            .config(config.clone())
            .tables(make_tables(2, 300, dim, 40))
            .backend(DlrmBackend::new(&dlrm_cfg, 0.05, 7))
            .schedule(schedule)
            .parallelism(3)
            .build()
            .expect("pipeline");
        let report = rt.run(&batches).expect("run");
        (report, rt.into_tables())
    };
    let (sync_report, sync_tables) = run(Schedule::Sync);
    for schedule in [Schedule::Threaded, Schedule::DataParallel] {
        let (other_report, other_tables) = run(schedule);
        for (a, b) in sync_tables.iter().zip(&other_tables) {
            assert!(a.bit_eq(b), "{} diverged", schedule.name());
        }
        assert_reports_identical(&sync_report, &other_report, schedule.name());
    }
}

#[test]
fn auto_schedule_matches_both_fixed_schedules() {
    // Whatever `Auto` resolves to, the observable results must be the
    // common result of the fixed schedules.
    let tc = TraceConfig {
        num_tables: 3,
        rows_per_table: 400,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 31,
    };
    let batches = TraceGenerator::new(tc).take_batches(20);
    let config = PipelineConfig::functional(8, 192);
    let run = |schedule: Schedule| {
        let mut rt = Pipeline::builder()
            .config(config.clone())
            .tables(make_tables(3, 400, 8, 500))
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .build()
            .expect("pipeline");
        let report = rt.run(&batches).expect("run");
        (report, rt.into_tables())
    };
    let (auto_report, auto_tables) = run(Schedule::Auto);
    let (sync_report, sync_tables) = run(Schedule::Sync);
    for (a, b) in auto_tables.iter().zip(&sync_tables) {
        assert!(a.bit_eq(b));
    }
    assert_reports_identical(&sync_report, &auto_report, "auto");
}

/// One bag per table from `ids`, every sample looking up the same rows —
/// or nothing at all when `ids` is empty.
fn uniform_batch(tables: usize, samples: usize, ids: &[u64]) -> SparseBatch {
    SparseBatch::new(
        (0..tables)
            .map(|_| TableBag::from_samples(&vec![ids.to_vec(); samples]))
            .collect(),
    )
}

/// The overlapped driver on traces shorter than, as long as and just
/// longer than the pipeline is deep (five stages, six payloads), where
/// fill and drain are the whole run — with bags that look nothing up and
/// batches that are one row repeated mixed in.
#[test]
fn overlap_matches_sync_on_traces_around_the_pipeline_depth() {
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 300,
        // 64 × 4 × 2 = 512 lookups per batch: enough for `Auto` to overlap.
        lookups_per_sample: 4,
        batch_size: 64,
        profile: LocalityProfile::Medium,
        seed: 19,
    };
    let dim = 8;
    for n in [0usize, 1, 2, 4, 5, 6] {
        let mut batches = TraceGenerator::new(tc).take_batches(n);
        // Degenerate batches in the middle and at the end of the trace.
        if n >= 2 {
            batches[1] = uniform_batch(tc.num_tables, tc.batch_size, &[]);
        }
        if n >= 4 {
            batches[3] = uniform_batch(tc.num_tables, tc.batch_size, &[7, 7, 7, 7]);
            batches[n - 1] = uniform_batch(tc.num_tables, tc.batch_size, &[]);
        }
        let run = |schedule: Schedule| {
            let mut rt = Pipeline::builder()
                // Every row of a table fits: capacity is not what is tested.
                .config(PipelineConfig::functional(dim, 300))
                .tables(make_tables(tc.num_tables, 300, dim, 70))
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .build()
                .expect("pipeline");
            let resolved = rt.effective_schedule(&batches).expect("resolve");
            let report = rt.run(&batches).expect("run");
            (report, rt.into_tables(), resolved)
        };
        let (sync_report, sync_tables, _) = run(Schedule::Sync);
        assert_eq!(sync_report.iterations, n);
        for schedule in [Schedule::Threaded, Schedule::Auto] {
            let (report, tables, resolved) = run(schedule);
            let label = format!("{n} batches/{}→{}", schedule.name(), resolved.name());
            for (t, (a, b)) in sync_tables.iter().zip(&tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{label}: table {t} diverged at {:?}",
                    a.first_diff_row(b)
                );
            }
            assert_reports_identical(&sync_report, &report, &label);
            // A run no longer than the pipeline is deep has nothing to
            // overlap, whatever the machine.
            if schedule == Schedule::Auto && n <= 5 {
                assert_eq!(resolved, Schedule::Sync, "{label}");
            }
        }
    }
}

/// Under supervision `Auto` resolves from the segment length: at the
/// default checkpoint interval of 1 every segment drains the pipeline, so
/// it is `Sync`; with segments longer than the pipeline is deep it
/// overlaps (given two CPUs). Either way the run is byte-identical to the
/// unsupervised, fault-free one.
#[test]
fn supervised_auto_resolves_from_the_segment_length() {
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 300,
        lookups_per_sample: 4,
        batch_size: 64,
        profile: LocalityProfile::Medium,
        seed: 23,
    };
    let dim = 8;
    let batches = TraceGenerator::new(tc).take_batches(20);
    let build = |schedule: Schedule| {
        Pipeline::builder()
            .config(PipelineConfig::functional(dim, 300))
            .tables(make_tables(tc.num_tables, 300, dim, 80))
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .build()
            .expect("pipeline")
    };
    let mut plain = build(Schedule::Sync);
    let plain_report = plain.run(&batches).expect("run");
    let plain_tables = plain.into_tables();

    // What `Auto` picks for the unsupervised run of this trace: `Threaded`
    // wherever there are two CPUs to overlap on.
    let unsupervised = build(Schedule::Auto)
        .effective_schedule(&batches)
        .expect("resolve");
    let long = RecoveryPolicy {
        checkpoint_interval: 8,
        ..RecoveryPolicy::default()
    };
    let short = RecoveryPolicy {
        checkpoint_interval: 5,
        ..RecoveryPolicy::default()
    };
    for (schedule, policy, expect) in [
        (Schedule::Auto, RecoveryPolicy::default(), Schedule::Sync),
        (Schedule::Auto, short, Schedule::Sync),
        (Schedule::Auto, long, unsupervised),
        // Explicit schedules are left alone, whatever the interval.
        (
            Schedule::Threaded,
            RecoveryPolicy::default(),
            Schedule::Threaded,
        ),
    ] {
        let mut rt = build(schedule);
        let run = rt.run_supervised(&batches, policy).expect("supervised run");
        let label = format!(
            "{} @ interval {}",
            schedule.name(),
            policy.checkpoint_interval
        );
        assert_eq!(run.stats.final_schedule, Some(expect), "{label}");
        assert_eq!(run.stats.rollbacks, 0, "{label}");
        assert_reports_identical(&plain_report, &run.report, &label);
        for (a, b) in plain_tables.iter().zip(&rt.into_tables()) {
            assert!(a.bit_eq(b), "{label}: tables diverged");
        }
    }
}

/// `run_supervised` snapshots the backend once per checkpointed segment,
/// and a `DlrmBackend` snapshot drops its scratch buffers instead of
/// copying them; the supervised run must still end byte-identical to the
/// plain one, dense model included.
#[test]
fn supervised_run_matches_plain_run_with_full_dlrm_backend() {
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 300,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 5,
    };
    let batches = TraceGenerator::new(tc).take_batches(15);
    let dlrm_cfg = dlrm::DlrmConfig::tiny_with_tables(2);
    let dim = dlrm_cfg.emb_dim;
    let build = || {
        Pipeline::builder()
            .config(PipelineConfig::functional(dim, 192))
            .tables(make_tables(2, 300, dim, 40))
            .backend(DlrmBackend::new(&dlrm_cfg, 0.05, 7))
            .schedule(Schedule::Sync)
            .build()
            .expect("pipeline")
    };
    let mut plain = build();
    let plain_report = plain.run(&batches).expect("run");
    let plain_model = plain.backend().model().clone();
    let plain_tables = plain.into_tables();

    for checkpoint_interval in [1, 4] {
        let policy = RecoveryPolicy {
            checkpoint_interval,
            ..RecoveryPolicy::default()
        };
        let label = format!("interval {checkpoint_interval}");
        let mut rt = build();
        let run = rt.run_supervised(&batches, policy).expect("supervised run");
        assert_eq!(run.stats.rollbacks, 0, "{label}");
        assert_reports_identical(&plain_report, &run.report, &label);
        assert!(rt.backend().model().bit_eq(&plain_model), "{label}: model");
        for (a, b) in plain_tables.iter().zip(&rt.into_tables()) {
            assert!(a.bit_eq(b), "{label}: tables diverged");
        }
    }
}

/// The dense backend really rolls back. A worker panic in \[Train\]'s
/// scatter region strikes *after* the dense step of its iteration moved
/// the weights (and, at interval 4, after up to three earlier steps of
/// the segment did), so the retry only reproduces the fault-free run if
/// `backend = snapshot.clone()` restores a model with weights in it.
#[test]
fn dlrm_backend_is_restored_when_train_fails_mid_segment() {
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 300,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 5,
    };
    let batches = TraceGenerator::new(tc).take_batches(15);
    let dlrm_cfg = dlrm::DlrmConfig::tiny_with_tables(2);
    let dim = dlrm_cfg.emb_dim;
    let build = |schedule: Schedule, plan: Option<FaultPlan>| {
        let mut b = Pipeline::builder()
            .config(PipelineConfig::functional(dim, 192))
            .tables(make_tables(2, 300, dim, 40))
            .backend(DlrmBackend::new(&dlrm_cfg, 0.05, 7))
            .schedule(schedule);
        if let Some(plan) = plan {
            b = b.faults(plan);
        }
        b.build().expect("pipeline")
    };
    for schedule in [Schedule::Sync, Schedule::Threaded] {
        let mut plain = build(schedule, None);
        let plain_report = plain.run(&batches).expect("run");
        let plain_model = plain.backend().model().clone();
        let plain_tables = plain.into_tables();

        for checkpoint_interval in [1, 4] {
            let policy = RecoveryPolicy {
                checkpoint_interval,
                ..RecoveryPolicy::default()
            };
            for (iteration, shard) in [(0, 0), (3, 1), (7, 0), (14, 1)] {
                let label = format!(
                    "{}/interval {checkpoint_interval}/train@{iteration} shard {shard}",
                    schedule.name()
                );
                let plan = FaultPlan::new(vec![Fault {
                    iteration,
                    stage: "Train".to_owned(),
                    shard,
                    kind: FaultKind::WorkerPanic,
                    fires: 2,
                }]);
                let mut rt = build(schedule, Some(plan));
                let run = rt.run_supervised(&batches, policy).expect("recoverable");
                assert_eq!(run.stats.rollbacks, 2, "{label}");
                assert_eq!(run.stats.faults_injected, 2, "{label}");
                assert_reports_identical(&plain_report, &run.report, &label);
                assert!(rt.backend().model().bit_eq(&plain_model), "{label}: model");
                for (a, b) in plain_tables.iter().zip(&rt.into_tables()) {
                    assert!(a.bit_eq(b), "{label}: tables diverged");
                }
            }
        }
    }
}

/// Data parallelism at a shape whose gather and scatter regions clear
/// `WorkerPool::MIN_SHARD_WORK` (256 × 8 × 4 tables × dim 64 = 524 288
/// elements), so the wide pools really spawn workers — against `Sync`.
#[test]
fn data_parallel_matches_sync_above_the_sharding_floor() {
    let tc = TraceConfig {
        num_tables: 4,
        rows_per_table: 2_000,
        lookups_per_sample: 8,
        batch_size: 256,
        profile: LocalityProfile::Medium,
        seed: 41,
    };
    let dim = 64;
    let batches = TraceGenerator::new(tc).take_batches(7);
    assert!(
        (batches[0].total_lookups() * dim) as u64 >= scratchpipe::WorkerPool::MIN_SHARD_WORK,
        "the shape no longer reaches the pooled path"
    );
    let run = |schedule: Schedule, width: usize| {
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::functional(dim, 2_000))
            .tables(make_tables(tc.num_tables, 2_000, dim, 300))
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .parallelism(width)
            .build()
            .expect("pipeline");
        let report = rt.run(&batches).expect("run");
        (report, rt.into_tables())
    };
    let (sync_report, sync_tables) = run(Schedule::Sync, 1);
    for width in [2, 3] {
        let (report, tables) = run(Schedule::DataParallel, width);
        for (t, (a, b)) in sync_tables.iter().zip(&tables).enumerate() {
            assert!(a.bit_eq(b), "width {width}: table {t} diverged");
        }
        assert_reports_identical(&sync_report, &report, &format!("width {width}"));
    }
}
