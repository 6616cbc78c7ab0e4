//! The root cause wins when the overlapped lanes shut down: a worker panic
//! in \[Train\] is the error a `Threaded` run returns, however the other
//! lanes interleave as they stop. Run it on one CPU
//! (`taskset -c 0 cargo test --release --test lane_shutdown`), where the
//! lanes only take turns and the orders they stop in vary most.

use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::{
    DenseBackend, Fault, FaultKind, FaultPlan, Pipeline, PipelineConfig, PooledView, Schedule,
    ScratchError, StepResult, UnitBackend,
};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

/// A dense step that takes 2 ms, so \[Train\] is the slowest lane and the
/// others are blocked on it when it fails.
struct Slow(UnitBackend);

impl DenseBackend for Slow {
    fn step(
        &mut self,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult {
        std::thread::sleep(std::time::Duration::from_millis(2));
        self.0.step(iteration, batch, pooled, grads)
    }

    fn learning_rate(&self) -> f32 {
        self.0.learning_rate()
    }
}

#[test]
fn a_worker_panic_is_what_a_threaded_run_returns_every_time() {
    let batches = TraceGenerator::new(TraceConfig {
        num_tables: 3,
        rows_per_table: 400,
        lookups_per_sample: 4,
        batch_size: 16,
        profile: LocalityProfile::Medium,
        seed: 11,
    })
    .take_batches(30);
    for run in 0..100 {
        let mut pipeline = Pipeline::builder()
            .config(PipelineConfig::functional(8, 6 * 16 * 4))
            .tables((0..3).map(|t| EmbeddingTable::seeded(400, 8, t)).collect())
            .backend(Slow(UnitBackend::new(0.05)))
            .schedule(Schedule::Threaded)
            .faults(FaultPlan::new(vec![Fault {
                iteration: 11,
                stage: "Train".to_owned(),
                shard: 0,
                kind: FaultKind::WorkerPanic,
                fires: 1,
            }]))
            .build()
            .expect("pipeline");
        let err = pipeline.run(&batches).expect_err("the fault fires");
        assert!(
            matches!(err, ScratchError::WorkerPanic { task: 0, .. }),
            "run {run}: {err:?}"
        );
    }
}
