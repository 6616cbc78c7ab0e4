//! Sort once: every row-ID sort goes through `embeddings::sparse::sort_ids`,
//! a batch is deduplicated once as it enters \[Plan\]'s window — by table,
//! over the pool once it is big enough — and that dedup's hottest-row
//! count is what the run reports as `PipelineReport::max_dup`.
//!
//! * the report's count equals a second, independent sort of every bag
//!   (`systems::timing::max_dup_count`) under every schedule, in
//!   functional and analytic mode, at pool widths that do and do not fan
//!   the dedup out, and after a supervised rollback re-plans a segment;
//! * edge shapes (bags of 0, 1 and 2 IDs, all-equal IDs, a one-row table
//!   whose every key is 0, dim 1, IDs at `rows − 1`) train exactly what
//!   `train_direct` trains;
//! * an analytic table of 2⁴⁰ rows (40-bit keys: four radix passes)
//!   caches exactly what a replay of \[Plan\] over comparison-sorted IDs
//!   caches.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use scratchpipe::runtime::train_direct;
use scratchpipe::{
    EvictionPolicy, Fault, FaultKind, FaultPlan, Pipeline, PipelineConfig, PipelineReport,
    RecoveryPolicy, Schedule, ScratchpadManager, SupervisedRun, UnitBackend, WindowConfig,
};
use systems::timing::max_dup_count;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

/// The hottest-row count of every batch, by a second sort of every bag.
fn recounted(batches: &[SparseBatch]) -> Vec<u64> {
    batches
        .iter()
        .map(|batch| {
            batch
                .bags()
                .map(|(_, bag)| max_dup_count(bag))
                .max()
                .unwrap_or(0)
        })
        .collect()
}

fn trace(num_tables: usize, rows: u64, lookups: usize, batch: usize, n: usize) -> Vec<SparseBatch> {
    TraceGenerator::new(TraceConfig {
        num_tables,
        rows_per_table: rows,
        lookups_per_sample: lookups,
        batch_size: batch,
        // High locality: hot rows repeat within a batch, so the counts
        // are well above 1 and differ between batches.
        profile: LocalityProfile::High,
        seed: 0x5047,
    })
    .take_batches(n)
}

fn functional(
    rows: &[usize],
    dim: usize,
    slots: usize,
    schedule: Schedule,
    width: usize,
) -> Pipeline<UnitBackend> {
    let config = PipelineConfig::functional(dim, slots);
    let config = match schedule {
        Schedule::Sequential => config.sequential(),
        _ => config,
    };
    Pipeline::builder()
        .config(config)
        .tables(
            (rows.iter().enumerate())
                .map(|(t, &rows)| EmbeddingTable::seeded(rows, dim, 40 + t as u64))
                .collect(),
        )
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(width)
        .build()
        .expect("pipeline")
}

fn assert_counts(report: &PipelineReport, batches: &[SparseBatch], label: &str) {
    assert_eq!(report.max_dup.len(), batches.len(), "{label}");
    assert_eq!(report.max_dup, recounted(batches), "{label}");
}

const SCHEDULES: [Schedule; 4] = [
    Schedule::Sync,
    Schedule::Sequential,
    Schedule::Threaded,
    Schedule::DataParallel,
];

#[test]
fn reported_counts_equal_a_second_sort_under_every_schedule() {
    let batches = trace(3, 500, 4, 16, 14);
    let counts = recounted(&batches);
    assert!(counts.iter().all(|&c| c >= 2), "{counts:?}");
    for schedule in SCHEDULES {
        for width in [1, 2] {
            let mut rt = functional(&[500; 3], 4, 600, schedule, width);
            let report = rt.run(&batches).expect("run");
            assert_counts(&report, &batches, &format!("{schedule:?} width {width}"));
        }
    }
}

#[test]
fn reported_counts_equal_a_second_sort_in_analytic_mode() {
    // 4 × 1 024 × 8 = 32 768 lookups a batch: at width 2 the dedup fans
    // out (the lanes and data-parallel schedules need data to move, so
    // the analytic pipeline runs the register ones only).
    for (batch, lookups) in [(16, 4), (1_024, 8)] {
        let batches = trace(4, 1 << 20, lookups, batch, 8);
        for schedule in [Schedule::Sync, Schedule::Sequential] {
            for width in [1, 2] {
                let config = PipelineConfig::analytic(16, 6 * batch * lookups);
                let config = match schedule {
                    Schedule::Sequential => config.sequential(),
                    _ => config,
                };
                let mut rt = Pipeline::builder()
                    .config(config)
                    .analytic_tables(4, 1 << 20)
                    .backend(UnitBackend::new(0.0))
                    .schedule(schedule)
                    .parallelism(width)
                    .build()
                    .expect("pipeline");
                let report = rt.run(&batches).expect("run");
                let label = format!("batch {batch}, {schedule:?}, width {width}");
                assert_counts(&report, &batches, &label);
            }
        }
    }
}

#[test]
fn a_rolled_back_segment_reports_its_counts_again() {
    let batches = trace(3, 500, 4, 16, 14);
    for schedule in [Schedule::Sync, Schedule::Threaded] {
        // A Train fault late in a four-batch segment: the whole segment
        // rolls back and is planned (and counted) a second time.
        let plan = FaultPlan::new(vec![Fault {
            iteration: 6,
            stage: "Train".to_owned(),
            shard: 0,
            kind: FaultKind::StageError,
            fires: 1,
        }]);
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::functional(4, 600))
            .tables(
                (0..3)
                    .map(|t| EmbeddingTable::seeded(500, 4, 40 + t))
                    .collect(),
            )
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .faults(plan)
            .build()
            .expect("pipeline");
        let policy = RecoveryPolicy {
            checkpoint_interval: 4,
            ..RecoveryPolicy::default()
        };
        let SupervisedRun { report, stats } =
            rt.run_supervised(&batches, policy).expect("recoverable");
        assert_eq!(stats.rollbacks, 1, "{schedule:?}");
        assert_counts(&report, &batches, &format!("{schedule:?}"));
    }
}

/// Bags of 0, 1 and 2 IDs; a one-row table (every key is 0: the sort
/// makes no pass); a two-row table; IDs at `rows − 1`, all-equal bags and
/// a wholly empty bag; dim 1.
fn edge_trace() -> Vec<SparseBatch> {
    let rows = [1u64, 2, 1_000];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..12)
        .map(|i| {
            let bags = (0..rows.len())
                .map(|t| {
                    let samples: Vec<Vec<u64>> = (0..5)
                        .map(|s| {
                            let len = if i == 3 && t == 1 { 0 } else { (s + i + t) % 3 };
                            (0..len)
                                .map(|_| {
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    match (t, i % 2) {
                                        (2, 0) => rows[t] - 1,
                                        (2, _) => [0, 500, 998, 999][(x % 4) as usize],
                                        _ => x % rows[t],
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    TableBag::from_samples(&samples)
                })
                .collect();
            SparseBatch::new(bags)
        })
        .collect()
}

#[test]
fn edge_shapes_train_what_train_direct_trains() {
    let batches = edge_trace();
    let rows = [1, 2, 1_000];
    let fresh = || -> Vec<EmbeddingTable> {
        (rows.iter().enumerate())
            .map(|(t, &rows)| EmbeddingTable::seeded(rows, 1, 40 + t as u64))
            .collect()
    };
    let mut direct = fresh();
    train_direct(&mut direct, &batches, &mut UnitBackend::new(0.05));
    for schedule in SCHEDULES {
        for width in [1, 2] {
            let mut rt = functional(&rows, 1, 64, schedule, width);
            let report = rt.run(&batches).expect("run");
            let label = format!("{schedule:?} width {width}");
            assert_counts(&report, &batches, &label);
            for (t, (a, b)) in direct.iter().zip(&rt.into_tables()).enumerate() {
                assert!(a.bit_eq(b), "{label}: table {t}");
            }
        }
    }
}

/// A bijection of `0..2⁴⁰` that spreads small indices over all 40 bits.
fn spread(k: u64) -> u64 {
    k.wrapping_mul(0x9E_3779_B97F) & ((1 << 40) - 1)
}

#[test]
fn forty_bit_row_ids_cache_what_a_comparison_sort_caches() {
    const TABLES: usize = 2;
    const ROWS: u64 = 1 << 40;
    const SLOTS: usize = 20_000;
    // 2 × 16 384 lookups a batch — over the fan-out floor at width 2 —
    // drawn from a window of 8 000 rows that drifts 2 000 rows a batch,
    // so the later batches evict.
    let n = 12;
    let mut x = 0x0123_4567_89AB_CDEFu64;
    let batches: Vec<SparseBatch> = (0..n as u64)
        .map(|i| {
            let bags = (0..TABLES)
                .map(|_| {
                    let ids = (0..16_384)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            spread(i * 2_000 + x % 8_000)
                        })
                        .collect();
                    TableBag::new(ids, vec![0, 16_384])
                })
                .collect();
            SparseBatch::new(bags)
        })
        .collect();
    assert!(batches
        .iter()
        .all(|b| b.bags().all(|(_, bag)| bag.max_id() > Some(1 << 39))));

    // The reference: [Plan] replayed over `sort_unstable`-deduplicated IDs.
    let uniq: Vec<Vec<Vec<u64>>> = (batches.iter())
        .map(|batch| {
            (batch.bags())
                .map(|(_, bag)| {
                    let mut ids = bag.ids().to_vec();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                })
                .collect()
        })
        .collect();
    let mut managers: Vec<ScratchpadManager> = (0..TABLES)
        .map(|_| ScratchpadManager::new(SLOTS, WindowConfig::PAPER, EvictionPolicy::Lru))
        .collect::<Result<_, _>>()
        .expect("geometry");
    let mut want = Vec::new();
    for i in 0..n {
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for (t, manager) in managers.iter_mut().enumerate() {
            let futures: Vec<&[u64]> = (uniq.iter().skip(i + 1).take(2))
                .map(|ahead| ahead[t].as_slice())
                .collect();
            let plan = manager.plan(&uniq[i][t], &futures).expect("provisioned");
            hits += plan.hits;
            misses += plan.misses;
            evictions += plan.evictions.len() as u64;
        }
        want.push((hits, misses, evictions));
    }
    assert!(want.iter().map(|w| w.2).sum::<u64>() > 1_000, "{want:?}");

    for width in [1, 2] {
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::analytic(16, SLOTS))
            .analytic_tables(TABLES, ROWS)
            .backend(UnitBackend::new(0.0))
            .schedule(Schedule::Sync)
            .parallelism(width)
            .build()
            .expect("pipeline");
        let report = rt.run(&batches).expect("run");
        let got: Vec<(u64, u64, u64)> = (report.records.iter())
            .map(|r| (r.hits, r.misses, r.evictions))
            .collect();
        assert_eq!(got, want, "width {width}");
        assert_counts(&report, &batches, &format!("width {width}"));
    }
}
