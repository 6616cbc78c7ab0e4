//! Exact-variant error contracts — misconfiguration and bad input must
//! fail with the *documented* `ScratchError` variant and a message that
//! names the offending quantity, not a generic failure.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use scratchpipe::{
    Fault, FaultKind, FaultPlan, Pipeline, PipelineConfig, RecoveryPolicy, Schedule, ScratchError,
    UnitBackend, WindowConfig,
};

fn tables(num: usize, rows: usize, dim: usize) -> Vec<EmbeddingTable> {
    (0..num)
        .map(|t| EmbeddingTable::seeded(rows, dim, t as u64))
        .collect()
}

fn batch(num_tables: usize, ids: &[u64]) -> SparseBatch {
    SparseBatch::new(
        (0..num_tables)
            .map(|_| TableBag::from_samples(&[ids.to_vec()]))
            .collect(),
    )
}

fn assert_invalid_config(result: Result<impl std::fmt::Debug, ScratchError>, needle: &str) {
    match result {
        Err(ScratchError::InvalidConfig { detail }) => assert!(
            detail.contains(needle),
            "detail {detail:?} does not mention {needle:?}"
        ),
        other => panic!("expected InvalidConfig mentioning {needle:?}, got {other:?}"),
    }
}

#[test]
fn builder_without_config_names_the_missing_piece() {
    let result = Pipeline::builder()
        .tables(tables(1, 16, 4))
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "needs a config");
}

#[test]
fn builder_without_backend_names_the_missing_piece() {
    let result = Pipeline::<UnitBackend>::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 16, 4))
        .build();
    assert_invalid_config(result, "needs a backend");
}

#[test]
fn builder_without_tables_is_rejected() {
    let result = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "at least one embedding table");
}

#[test]
fn builder_rejects_tables_and_analytic_together() {
    let result = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 16, 4))
        .analytic_tables(2, 100)
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "not both");
}

#[test]
fn builder_rejects_table_dim_mismatch() {
    let result = Pipeline::builder()
        .config(PipelineConfig::functional(8, 8))
        .tables(tables(1, 16, 4))
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "dim mismatch");
}

#[test]
fn window_widths_past_u32_are_rejected_at_build() {
    // `past + 1 + future` overflows a u32 for both; neither may wrap into
    // a width that passes validation.
    for window in [
        WindowConfig {
            past: u32::MAX,
            future: 5,
        },
        WindowConfig {
            past: 0,
            future: u32::MAX,
        },
    ] {
        let result = Pipeline::builder()
            .config(PipelineConfig::functional(4, 8).with_window(window))
            .tables(tables(1, 16, 4))
            .backend(UnitBackend::new(0.1))
            .build();
        assert_invalid_config(result, "window width");
    }
}

#[test]
fn threaded_schedule_on_analytic_pipeline_is_rejected_at_run() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::analytic(4, 8))
        .analytic_tables(1, 64)
        .backend(UnitBackend::new(0.1))
        .schedule(Schedule::Threaded)
        .build()
        .expect("builds fine; schedule resolves at run");
    let result = rt.run(&[batch(1, &[1, 2])]);
    assert_invalid_config(result, "functional mode");
}

#[test]
fn run_rejects_empty_batches() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 64, 4))
        .backend(UnitBackend::new(0.1))
        .build()
        .expect("pipeline");
    let empty = SparseBatch::new(vec![TableBag::from_samples(&[])]);
    let result = rt.run(&[batch(1, &[1]), empty]);
    assert_invalid_config(result, "batch 1 is empty");
}

#[test]
fn run_rejects_table_count_mismatch() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(2, 64, 4))
        .backend(UnitBackend::new(0.1))
        .build()
        .expect("pipeline");
    let result = rt.run(&[batch(1, &[1])]);
    assert_invalid_config(result, "covers 1 tables, pipeline has 2");
}

#[test]
fn run_rejects_out_of_range_ids() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 64, 4))
        .backend(UnitBackend::new(0.1))
        .build()
        .expect("pipeline");
    let result = rt.run(&[batch(1, &[63, 64])]);
    assert_invalid_config(result, "id 64 exceeds 64 rows");
}

#[test]
fn supervised_rejects_zero_budget_and_zero_interval() {
    for policy in [
        RecoveryPolicy {
            retry_budget: 0,
            checkpoint_interval: 1,
        },
        RecoveryPolicy {
            retry_budget: 3,
            checkpoint_interval: 0,
        },
    ] {
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::functional(4, 8))
            .tables(tables(1, 64, 4))
            .backend(UnitBackend::new(0.1))
            .build()
            .expect("pipeline");
        let result = rt.run_supervised(&[batch(1, &[1])], policy);
        match result {
            Err(ScratchError::InvalidConfig { detail }) => {
                assert!(detail.contains("retry_budget"), "detail: {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}

/// One table of `rows[t]` rows per entry.
fn ragged(rows: &[usize]) -> Pipeline<UnitBackend> {
    let tables = (rows.iter().enumerate())
        .map(|(t, &rows)| EmbeddingTable::seeded(rows, 4, t as u64))
        .collect();
    Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables)
        .backend(UnitBackend::new(0.1))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline")
}

#[test]
fn run_checks_each_bag_against_its_own_table() {
    // ID 70 exists in a 100-row table and not in a 50-row one, whichever
    // of the two comes first.
    let bags = |first: u64, second: u64| {
        SparseBatch::new(vec![
            TableBag::from_samples(&[vec![first]]),
            TableBag::from_samples(&[vec![second]]),
        ])
    };
    let result = ragged(&[100, 50]).run(&[bags(70, 70)]);
    assert_invalid_config(result, "table 1: id 70 exceeds 50 rows");
    let result = ragged(&[50, 100]).run(&[bags(70, 70)]);
    assert_invalid_config(result, "table 0: id 70 exceeds 50 rows");
    ragged(&[50, 100])
        .run(&[bags(49, 70)])
        .expect("70 is a row of the second table");
}

#[test]
fn prewarm_rejects_bad_lists_before_touching_a_scratchpad() {
    let mut rt = ragged(&[100, 50]);
    assert_invalid_config(rt.prewarm(&[vec![1]]), "covers 1 tables, pipeline has 2");
    assert_invalid_config(
        rt.prewarm(&[vec![1, 2], vec![3, 70]]),
        "table 1: row 70 exceeds 50 rows",
    );
    assert_invalid_config(
        rt.prewarm(&[vec![1, 2], vec![5, 6, 5]]),
        "table 1: row 5 listed twice",
    );
    // Nothing was cached by the rejected calls — table 0's rows included —
    // so the same rows prewarm fine afterwards.
    assert!(rt.managers().iter().all(|m| m.occupancy() == 0));
    rt.prewarm(&[vec![1, 2, 70], vec![5, 6]]).expect("valid");
    assert_eq!(rt.managers()[0].occupancy(), 3);
}

#[test]
fn prewarm_rejects_resident_rows_and_a_pipeline_that_has_run() {
    let mut rt = ragged(&[100, 50]);
    rt.prewarm(&[vec![5], vec![7]]).expect("first prewarm");
    assert_invalid_config(
        rt.prewarm(&[vec![6], vec![8, 7]]),
        "table 1: row 7 is already resident",
    );
    assert_eq!(
        rt.managers()[0].occupancy(),
        1,
        "table 0 must not have taken row 6 from the rejected call"
    );
    rt.prewarm(&[vec![6], vec![8]])
        .expect("rows not yet resident extend the prewarm");
    rt.run(&[batch(2, &[5, 9])]).expect("run");
    assert_invalid_config(
        rt.prewarm(&[vec![1], vec![1]]),
        "prewarm must precede planning",
    );
}

fn armed_with(stage: &str, kind: FaultKind) -> Result<Pipeline<UnitBackend>, ScratchError> {
    Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 16, 4))
        .backend(UnitBackend::new(0.1))
        .schedule(Schedule::Sync)
        .faults(FaultPlan::new(vec![Fault {
            iteration: 0,
            stage: stage.to_owned(),
            shard: 0,
            kind,
            fires: 1,
        }]))
        .build()
}

#[test]
fn a_fault_that_could_never_fire_is_rejected_when_armed() {
    // A misspelt stage matched nothing, so the chaos run it configured
    // passed without injecting anything.
    assert_invalid_config(
        armed_with("Colect", FaultKind::StageError),
        "fault 0 (stage_error at iteration 0) can never fire: no stage is named \"Colect\"",
    );
    // [Exchange] runs no shard region, so nothing ever consulted this one.
    assert_invalid_config(
        armed_with("Exchange", FaultKind::WorkerPanic),
        "fault 0 (worker_panic at iteration 0) can never fire: [Exchange] runs no shard tasks",
    );
    // [Plan] does, whether or not the batch is big enough to fan it out.
    let mut rt = armed_with("Plan", FaultKind::WorkerPanic).expect("[Plan] shards by table");
    match rt.run(&[batch(1, &[3])]) {
        Err(ScratchError::WorkerPanic { task, detail }) => {
            assert_eq!(task, 0);
            assert!(detail.contains("stage Plan, shard 0"), "{detail}");
        }
        other => panic!("expected the armed fault to fire, got {other:?}"),
    }
    // Names are still matched whatever their case, and still fire.
    let mut rt = armed_with("tRAIN", FaultKind::StageError).expect("a stage name");
    match rt.run(&[batch(1, &[3])]) {
        Err(ScratchError::Injected { iteration, stage }) => {
            assert_eq!((iteration, stage.as_str()), (0, "Train"));
        }
        other => panic!("expected the armed fault to fire, got {other:?}"),
    }
}

#[test]
fn capacity_exhausted_names_the_lowest_failing_table_at_every_width() {
    // Tables 1 and 2 both run out of slots in the first batch, table 0
    // fits. The batch carries enough unique IDs (40 010) that [Plan]
    // plans the tables side by side on a pool wider than one, so table 2
    // may well fail first on the clock; the error names table 1 anyway.
    let slots = 1_000;
    let wide: Vec<u64> = (0..20_000).collect();
    let bags = vec![
        TableBag::from_samples(&[(0..10).collect::<Vec<u64>>()]),
        TableBag::from_samples(std::slice::from_ref(&wide)),
        TableBag::from_samples(std::slice::from_ref(&wide)),
    ];
    let batches = [SparseBatch::new(bags)];
    for schedule in [Schedule::Sync, Schedule::DataParallel, Schedule::Threaded] {
        for width in [1, 2, 4] {
            let mut rt = Pipeline::builder()
                .config(PipelineConfig::functional(4, slots))
                .tables(tables(3, 20_000, 4))
                .backend(UnitBackend::new(0.1))
                .schedule(schedule)
                .parallelism(width)
                .build()
                .expect("pipeline");
            match rt.run(&batches) {
                Err(ScratchError::CapacityExhausted {
                    table,
                    cycle,
                    slots: reported,
                }) => assert_eq!(
                    (table, cycle, reported),
                    (1, 1, slots),
                    "{schedule:?} width {width}"
                ),
                other => {
                    panic!("{schedule:?} width {width}: expected CapacityExhausted, got {other:?}")
                }
            }
        }
    }
}
