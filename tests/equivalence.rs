//! Cross-crate equivalence tests — the paper's central correctness claim:
//! ScratchPipe "does not change the algorithmic properties of RecSys
//! training and provides identical training accuracy vs. the original
//! training algorithm executed over baseline hybrid CPU-GPU" (§II-D).
//!
//! We verify this *literally*: every system design point, under every
//! eviction policy and scheduling mode — including the multi-threaded
//! runtime — produces bit-identical embedding tables, bit-identical dense
//! MLP weights and bit-identical per-iteration losses.

use scratchpipe::runtime::train_direct;
use scratchpipe::{EvictionPolicy, Pipeline, PipelineConfig, Schedule};
use systems::{train_functional, DlrmBackend, ExperimentConfig, SystemKind};
use tracegen::{LocalityProfile, TraceGenerator};

fn scaled(profile: LocalityProfile) -> ExperimentConfig {
    ExperimentConfig::scaled_down(profile, 0.15, 12)
}

#[test]
fn all_five_systems_train_identically_across_localities() {
    for profile in [
        LocalityProfile::Random,
        LocalityProfile::Low,
        LocalityProfile::High,
    ] {
        let cfg = scaled(profile);
        let (ref_tables, ref_backend, ref_losses) =
            train_functional(SystemKind::Hybrid, &cfg, 0.05).expect("reference");
        for kind in [
            SystemKind::StaticCache,
            SystemKind::StrawMan,
            SystemKind::ScratchPipe,
            SystemKind::MultiGpu8,
        ] {
            let (tables, backend, losses) =
                train_functional(kind, &cfg, 0.05).unwrap_or_else(|e| panic!("{kind}: {e}"));
            for (t, (a, b)) in ref_tables.iter().zip(&tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?}/{kind}: table {t} diverged at row {:?}",
                    a.first_diff_row(b)
                );
            }
            assert!(
                backend.model().bit_eq(ref_backend.model()),
                "{profile:?}/{kind}: dense model diverged"
            );
            for (i, (a, b)) in ref_losses.iter().zip(&losses).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{profile:?}/{kind}: loss {i}");
            }
        }
    }
}

#[test]
fn every_eviction_policy_is_equivalence_preserving() {
    for policy in EvictionPolicy::ALL {
        let mut cfg = scaled(LocalityProfile::Medium);
        cfg.policy = policy;
        let (ref_tables, _, _) = train_functional(SystemKind::Hybrid, &cfg, 0.05).expect("ref");
        let (tables, _, _) =
            train_functional(SystemKind::ScratchPipe, &cfg, 0.05).expect("scratchpipe");
        for (a, b) in ref_tables.iter().zip(&tables) {
            assert!(a.bit_eq(b), "policy {policy} diverged");
        }
    }
}

#[test]
fn threaded_runtime_matches_direct_training_with_full_dlrm() {
    let cfg = scaled(LocalityProfile::Medium);
    let batches = cfg.batches();
    let make_tables = || -> Vec<embeddings::EmbeddingTable> {
        (0..cfg.shape.num_tables)
            .map(|t| {
                embeddings::EmbeddingTable::seeded(
                    cfg.shape.rows_per_table as usize,
                    cfg.shape.dim,
                    t as u64,
                )
            })
            .collect()
    };
    let mut reference = make_tables();
    let mut ref_backend = DlrmBackend::new(&cfg.shape.dlrm, 0.05, cfg.seed);
    let ref_losses = train_direct(&mut reference, &batches, &mut ref_backend);

    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(cfg.shape.dim, 9_000))
        .tables(make_tables())
        .backend(DlrmBackend::new(&cfg.shape.dlrm, 0.05, cfg.seed))
        .schedule(Schedule::Threaded)
        .build()
        .expect("pipeline");
    let report = rt.run(&batches).expect("threaded run");
    let tables = rt.into_tables();
    for (t, (a, b)) in reference.iter().zip(&tables).enumerate() {
        assert!(
            a.bit_eq(b),
            "threaded: table {t} diverged at row {:?}",
            a.first_diff_row(b)
        );
    }
    for (a, r) in ref_losses.iter().zip(&report.records) {
        assert_eq!(a.to_bits(), r.loss.to_bits());
    }
}

#[test]
fn prewarmed_scratchpad_preserves_equivalence() {
    // Pre-warming seeds the cache with *valid* table data, so it must not
    // perturb training in any way.
    let cfg = scaled(LocalityProfile::High);
    let batches = cfg.batches();
    let gen = TraceGenerator::new(cfg.shape.trace_config(cfg.profile, cfg.seed));
    let make_tables = || -> Vec<embeddings::EmbeddingTable> {
        (0..cfg.shape.num_tables)
            .map(|t| {
                embeddings::EmbeddingTable::seeded(
                    cfg.shape.rows_per_table as usize,
                    cfg.shape.dim,
                    t as u64,
                )
            })
            .collect()
    };
    let mut reference = make_tables();
    let _ = train_direct(
        &mut reference,
        &batches,
        &mut DlrmBackend::new(&cfg.shape.dlrm, 0.05, cfg.seed),
    );

    let slots = 8_000u64;
    let hot: Vec<Vec<u64>> = (0..cfg.shape.num_tables)
        .map(|t| gen.hot_rows(t, slots))
        .collect();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(cfg.shape.dim, slots as usize))
        .tables(make_tables())
        .backend(DlrmBackend::new(&cfg.shape.dlrm, 0.05, cfg.seed))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline");
    rt.prewarm(&hot).expect("prewarm");
    let report = rt.run(&batches).expect("run");
    assert!(report.hit_rate() > 0.5, "prewarm should lift the hit rate");
    let tables = rt.into_tables();
    for (a, b) in reference.iter().zip(&tables) {
        assert!(a.bit_eq(b), "prewarmed run diverged");
    }
}

#[test]
fn ragged_tables_train_identically_to_direct_training() {
    // Tables need not be equally tall: every bag is checked against its
    // own table, so an ID past the first table's height is fine in a
    // taller second one — including when it is prewarmed.
    use embeddings::{EmbeddingTable, SparseBatch};
    use scratchpipe::UnitBackend;
    let make_tables = || {
        vec![
            EmbeddingTable::seeded(50, 4, 1),
            EmbeddingTable::seeded(100, 4, 2),
        ]
    };
    let batches: Vec<SparseBatch> = (0..12u64)
        .map(|i| {
            SparseBatch::from_rows(
                2,
                &[
                    vec![vec![i % 50, 49], vec![70, 50 + i]],
                    vec![vec![(i * 7) % 50], vec![99, (i * 13) % 100]],
                ],
            )
        })
        .collect();
    let mut reference = make_tables();
    let ref_losses = train_direct(&mut reference, &batches, &mut UnitBackend::new(0.05));

    for schedule in [Schedule::Sync, Schedule::Threaded] {
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::functional(4, 32))
            .tables(make_tables())
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .build()
            .expect("pipeline");
        rt.prewarm(&[vec![49, 3], vec![99, 70]]).expect("prewarm");
        let report = rt.run(&batches).expect("ragged run");
        for (a, r) in ref_losses.iter().zip(&report.records) {
            assert_eq!(a.to_bits(), r.loss.to_bits());
        }
        for (t, (a, b)) in reference.iter().zip(&rt.into_tables()).enumerate() {
            assert!(a.bit_eq(b), "{schedule:?}: table {t} diverged");
        }
    }
}
