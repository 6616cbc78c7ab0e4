//! The root cause wins when the overlapped lanes shut down: a worker panic
//! in \[Train\] is the error a `Threaded` run returns, however the other
//! lanes interleave as they stop, and a stage body that panics outside the
//! pool's shards never ends in a finished run. Run it on one CPU
//! (`taskset -c 0 cargo test --release --test lane_shutdown`), where the
//! dispatch threads only take turns and the orders they stop in vary most.

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

/// A dense step that panics at iteration 5. The pipeline calls it outside
/// any pool shard, on whichever thread runs \[Train\].
struct Exploding(UnitBackend);

impl DenseBackend for Exploding {
    fn step(
        &mut self,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult {
        assert!(iteration != 5, "dense step exploded");
        self.0.step(iteration, batch, pooled, grads)
    }

    fn learning_rate(&self) -> f32 {
        self.0.learning_rate()
    }
}

/// A panic in a stage body neither hangs a run nor lets it return `Ok`.
/// Under `Threaded` the lanes' dispatch region returns it as a
/// [`ScratchError::WorkerPanic`] carrying the panic's message: at the
/// default width, and at width 4, which is four dispatch threads taking
/// turns on one CPU. Under `Sync` the panic unwinds out of `run`.
#[test]
fn a_panicking_stage_body_never_finishes_a_run() {
    let batches = TraceGenerator::new(TraceConfig {
        num_tables: 3,
        rows_per_table: 400,
        lookups_per_sample: 4,
        batch_size: 16,
        profile: LocalityProfile::Medium,
        seed: 11,
    })
    .take_batches(30);
    let pipeline = |schedule, width| {
        Pipeline::builder()
            .config(PipelineConfig::functional(8, 6 * 16 * 4))
            .tables((0..3).map(|t| EmbeddingTable::seeded(400, 8, t)).collect())
            .backend(Exploding(UnitBackend::new(0.05)))
            .schedule(schedule)
            .parallelism(width)
            .build()
            .expect("pipeline")
    };
    for width in [0, 4] {
        for run in 0..20 {
            let err = pipeline(Schedule::Threaded, width)
                .run(&batches)
                .expect_err("the dense step panics");
            assert!(
                matches!(&err, ScratchError::WorkerPanic { detail, .. } if detail == "dense step exploded"),
                "width {width}, run {run}: {err:?}"
            );
        }
    }
    let mut sync = pipeline(Schedule::Sync, 0);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sync.run(&batches)))
        .expect_err("the panic unwinds out of a Sync run");
    assert_eq!(unwound.downcast_ref::<&str>(), Some(&"dense step exploded"));
}
