//! Hazard-window ablation — demonstrating that the paper's Hold-mask
//! sliding window (§IV-C: 3 past + current + 2 future) is exactly
//! load-bearing:
//!
//! * with the paper window, training is always correct;
//! * shrinking either side — by as little as one batch — admits real RAW
//!   hazards, caught by the hazard checker and visible as numeric
//!   corruption when the checker is off.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use scratchpipe::runtime::train_direct;
use scratchpipe::{Pipeline, PipelineConfig, Schedule, ScratchError, UnitBackend, WindowConfig};

fn pipeline(config: PipelineConfig, tables: Vec<EmbeddingTable>) -> Pipeline<UnitBackend> {
    Pipeline::builder()
        .config(config)
        .tables(tables)
        .backend(UnitBackend::new(0.2))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline")
}

fn mk(ids: &[u64]) -> SparseBatch {
    SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])])
}

fn tables() -> Vec<EmbeddingTable> {
    vec![EmbeddingTable::seeded(64, 4, 7)]
}

/// A trace engineered so that, with a 2-slot cache, evictions repeatedly
/// target rows needed by nearby batches.
fn adversarial_trace() -> Vec<SparseBatch> {
    vec![
        mk(&[1, 2]),
        mk(&[3]),
        mk(&[1]),
        mk(&[4]),
        mk(&[2]),
        mk(&[5]),
        mk(&[3]),
        mk(&[1, 4]),
    ]
}

#[test]
fn paper_window_survives_adversarial_trace() {
    // With the full window the same trace needs more headroom (the window
    // holds more slots), so use a larger scratchpad; it must run cleanly
    // and match sequential training bit-for-bit.
    let mut reference = tables();
    let _ = train_direct(
        &mut reference,
        &adversarial_trace(),
        &mut UnitBackend::new(0.2),
    );
    let mut rt = pipeline(PipelineConfig::functional(4, 24), tables());
    let _ = rt.run(&adversarial_trace()).expect("paper window is safe");
    let out = rt.into_tables();
    assert!(reference[0].bit_eq(&out[0]));
}

#[test]
fn zero_future_window_is_detected_as_raw4() {
    let config = PipelineConfig::functional(4, 2).with_window(WindowConfig { past: 0, future: 0 });
    let mut rt = pipeline(config, tables());
    let err = rt.run(&adversarial_trace()).expect_err("hazard expected");
    assert!(
        matches!(err, ScratchError::HazardViolation { .. }),
        "got {err}"
    );
}

/// One fresh row per batch, then row 1 again in the batch at `again` (if
/// any): with as many slots as batches before the first eviction, row 1 —
/// the oldest — is the victim as soon as its Hold mask lets go.
fn one_row_per_batch(len: u64, again: Option<usize>) -> Vec<SparseBatch> {
    let mut trace: Vec<SparseBatch> = (1..=len).map(|row| mk(&[row])).collect();
    if let Some(at) = again {
        trace[at] = mk(&[1]);
    }
    trace
}

fn run_with(window: WindowConfig, slots: usize, trace: &[SparseBatch]) -> Result<(), ScratchError> {
    let config = PipelineConfig::functional(4, slots).with_window(window);
    pipeline(config, tables()).run(trace).map(|_| ())
}

fn assert_hazard(result: Result<(), ScratchError>, needle: &str) {
    match result {
        Err(ScratchError::HazardViolation { detail }) => {
            assert!(detail.contains(needle), "{detail:?} lacks {needle:?}")
        }
        other => panic!("expected a {needle} violation, got {other:?}"),
    }
}

#[test]
fn one_batch_less_past_is_a_raw23_hazard() {
    // [Train] is three registers after [Collect]: when batch 3 is planned,
    // batch 0 has not trained yet. A past window of 2 lets go of batch 0's
    // row one batch early, and plan 3 picks it as its victim.
    let trace = one_row_per_batch(4, None);
    let short = WindowConfig { past: 2, future: 2 };
    assert_hazard(
        run_with(short, 3, &trace),
        "plan 3 evicts row 1 of table 0, still referenced by in-flight batch 0 (RAW-2/3)",
    );
    // The paper window still holds the row, so the same scratchpad is
    // simply too small: it refuses, it does not corrupt.
    assert!(matches!(
        run_with(WindowConfig::PAPER, 3, &trace),
        Err(ScratchError::CapacityExhausted { .. })
    ));
    run_with(WindowConfig::PAPER, 4, &trace).expect("one more slot and it fits");
}

#[test]
fn one_batch_less_future_is_a_raw4_hazard() {
    // [Insert] is two registers after [Collect]: the write-back of a row
    // evicted by plan 4 lands when batch 6 is already collecting. A future
    // window of 1 only sees batch 5, so plan 4 evicts the row batch 6
    // re-fetches.
    let trace = one_row_per_batch(7, Some(6));
    let short = WindowConfig { past: 3, future: 1 };
    assert_hazard(
        run_with(short, 4, &trace),
        "plan 4 evicts row 1 of table 0, needed by upcoming batch 6 (RAW-4)",
    );
    assert!(matches!(
        run_with(WindowConfig::PAPER, 4, &trace),
        Err(ScratchError::CapacityExhausted { .. })
    ));
    run_with(WindowConfig::PAPER, 5, &trace).expect("one more slot and it fits");
}

#[test]
fn window_matrix_safe_configs_match_sequential() {
    // Every window at least as wide as the paper's (3, 2) must be safe
    // AND bit-identical; wider windows only hold more slots.
    let mut reference = tables();
    let _ = train_direct(
        &mut reference,
        &adversarial_trace(),
        &mut UnitBackend::new(0.2),
    );
    for (past, future) in [(3u32, 2u32), (4, 2), (3, 3), (5, 4)] {
        let config = PipelineConfig::functional(4, 32).with_window(WindowConfig { past, future });
        let mut rt = pipeline(config, tables());
        let _ = rt
            .run(&adversarial_trace())
            .unwrap_or_else(|e| panic!("window ({past},{future}): {e}"));
        let out = rt.into_tables();
        assert!(
            reference[0].bit_eq(&out[0]),
            "window ({past},{future}) diverged"
        );
    }
}

#[test]
fn undersized_windows_corrupt_training_when_unchecked() {
    // The smoking gun for the mechanism: disable the checker, shrink the
    // window, and watch SGD silently corrupt — for at least one of the
    // undersized configurations (which one depends on eviction timing).
    let mut reference = tables();
    let _ = train_direct(
        &mut reference,
        &adversarial_trace(),
        &mut UnitBackend::new(0.2),
    );
    let mut any_diverged = false;
    for (past, future) in [(0u32, 0u32), (1, 0), (0, 1)] {
        let mut config =
            PipelineConfig::functional(4, 2).with_window(WindowConfig { past, future });
        config.check_hazards = false;
        let mut rt = pipeline(config, tables());
        if rt.run(&adversarial_trace()).is_ok() {
            let out = rt.into_tables();
            if !reference[0].bit_eq(&out[0]) {
                any_diverged = true;
            }
        } else {
            // Capacity exhaustion also counts as "cannot run correctly".
            any_diverged = true;
        }
    }
    assert!(
        any_diverged,
        "at least one undersized window must corrupt or fail"
    );
}

#[test]
fn always_hit_guarantee_under_stress() {
    // 300 batches of skewed traffic over a small scratchpad: the hazard
    // checker (which asserts data-residency at every train) must stay
    // silent with the paper window.
    use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 1_000,
        lookups_per_sample: 6,
        batch_size: 12,
        profile: LocalityProfile::High,
        seed: 77,
    };
    let batches = TraceGenerator::new(tc).take_batches(300);
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::seeded(1_000, 4, t as u64))
        .collect();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 400))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline");
    let report = rt.run(&batches).expect("no hazards under stress");
    assert_eq!(report.iterations, 300);
    assert!(report.hit_rate() > 0.4);
}
