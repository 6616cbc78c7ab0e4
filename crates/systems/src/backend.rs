//! The DLRM dense backend plugged into the \[Train\] stage.

use dlrm::{DlrmConfig, DlrmModel, DlrmScratch, ForkJoin, Inline};
use embeddings::SparseBatch;
use memsim::Traffic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scratchpipe::backend::{DenseBackend, PooledView, StepResult};
use scratchpipe::{ScratchError, WorkerPool};

/// A full DLRM dense path (bottom MLP → interaction → top MLP → BCE) as a
/// ScratchPipe [`DenseBackend`].
///
/// The \[Train\] stage's flat pooled arena is handed to the DLRM
/// interaction *without copying* — both sides use the same
/// `num_tables × batch × dim` stride-indexed layout — and the model writes
/// the embedding gradients straight into the runtime's gradient arena.
/// The backend holds a [`DlrmScratch`] and its own input buffers, so after
/// the first step [`DenseBackend::step`] performs no heap allocation.
/// [`DenseBackend::step_on`] runs the step's two regions on the pool it is
/// given ([`DlrmModel::train_step_on`]), with the same bits at every
/// width.
///
/// Dense inputs and click labels are generated *deterministically from the
/// iteration index*, so two systems training the same trace see the same
/// samples — the requirement for the cross-system bit-equality tests. In a
/// production system these would come from the dataset loader alongside
/// the sparse IDs.
///
/// A *clone* carries the model and the input-stream seed but starts with
/// empty buffers: `run_supervised` snapshots the backend once per
/// checkpointed segment, and the buffers hold nothing a step reads before
/// overwriting.
#[derive(Debug)]
pub struct DlrmBackend {
    model: DlrmModel,
    config: DlrmConfig,
    lr: f32,
    seed: u64,
    scratch: DlrmScratch,
    dense: Vec<f32>,
    labels: Vec<f32>,
}

impl Clone for DlrmBackend {
    fn clone(&self) -> Self {
        DlrmBackend {
            model: self.model.clone(),
            config: self.config.clone(),
            lr: self.lr,
            seed: self.seed,
            scratch: DlrmScratch::new(),
            dense: Vec::new(),
            labels: Vec::new(),
        }
    }
}

impl DlrmBackend {
    /// Creates a backend with a seeded model and input stream.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: &DlrmConfig, lr: f32, seed: u64) -> Self {
        DlrmBackend {
            model: DlrmModel::seeded(config, seed),
            config: config.clone(),
            lr,
            seed,
            scratch: DlrmScratch::new(),
            dense: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The dense model (for equality assertions in tests).
    pub fn model(&self) -> &DlrmModel {
        &self.model
    }
}

/// A [`WorkerPool`] as the fork-join the DLRM step's regions run on.
struct Pool(WorkerPool);

impl ForkJoin for Pool {
    type Error = ScratchError;

    fn width(&self) -> usize {
        self.0.threads()
    }

    fn join<F: FnOnce() + Send>(&self, tasks: impl Iterator<Item = F>) -> Result<(), ScratchError> {
        self.0.run_tasks(tasks.collect()).map(drop)
    }
}

impl DlrmBackend {
    /// One step of iteration `iteration`'s inputs on `fork_join`.
    fn step_with<J: ForkJoin>(
        &mut self,
        fork_join: &J,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> Result<StepResult, J::Error> {
        let batch_size = batch.batch_size();
        fill_inputs(
            self.seed,
            iteration,
            batch_size * self.config.dense_dim,
            batch_size,
            &mut self.dense,
            &mut self.labels,
        );
        let out = self.model.train_step_on(
            fork_join,
            &mut self.scratch,
            &self.dense,
            pooled.as_flat(),
            &self.labels,
            self.lr,
            grads,
        )?;
        Ok(StepResult { loss: out.loss })
    }
}

/// Refills `dense` with `dense_len` features and `labels` with
/// `batch_size` clicks, drawn in that order from iteration `i`'s stream.
fn fill_inputs(
    seed: u64,
    i: usize,
    dense_len: usize,
    batch_size: usize,
    dense: &mut Vec<f32>,
    labels: &mut Vec<f32>,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xDA7A_0000 + i as u64));
    dense.clear();
    dense.extend((0..dense_len).map(|_| rng.gen_range(-1.0f32..1.0)));
    labels.clear();
    labels.extend((0..batch_size).map(|_| f32::from(rng.gen_bool(0.5))));
}

impl DenseBackend for DlrmBackend {
    fn step(
        &mut self,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult {
        let Ok(result) = self.step_with(&Inline, iteration, batch, pooled, grads);
        result
    }

    fn step_on(
        &mut self,
        workers: WorkerPool,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> Result<StepResult, ScratchError> {
        if workers.threads() == 1 {
            return Ok(self.step(iteration, batch, pooled, grads));
        }
        self.step_with(&Pool(workers), iteration, batch, pooled, grads)
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn traffic(&self, batch_size: usize) -> Traffic {
        Traffic {
            gpu_flops: self.config.train_flops(batch_size),
            gpu_ops: self.config.train_kernel_count(),
            // Activation reads/writes through the MLP stack: roughly the
            // pooled-embedding volume twice (forward) and twice (backward).
            gpu_stream_read_bytes: 2 * self.config.pooled_bytes(batch_size),
            gpu_stream_write_bytes: 2 * self.config.pooled_bytes(batch_size),
            ..Traffic::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_trains_and_reports_loss() {
        let cfg = DlrmConfig::tiny();
        let mut b = DlrmBackend::new(&cfg, 0.05, 1);
        let batch = SparseBatch::from_rows(
            cfg.num_tables,
            &[vec![vec![0], vec![1]], vec![vec![2], vec![3]]],
        );
        let pooled = vec![0.1f32; cfg.num_tables * 2 * cfg.emb_dim];
        let mut grads = vec![0.0f32; pooled.len()];
        let view = PooledView::new(&pooled, cfg.num_tables, 2, cfg.emb_dim);
        let r = b.step(0, &batch, view, &mut grads);
        assert!(r.loss.is_finite() && r.loss > 0.0);
        assert!(
            grads.iter().any(|&g| g != 0.0),
            "step must write embedding gradients"
        );
    }

    #[test]
    fn two_backends_same_seed_train_identically() {
        let cfg = DlrmConfig::tiny();
        let mut a = DlrmBackend::new(&cfg, 0.05, 3);
        let mut b = DlrmBackend::new(&cfg, 0.05, 3);
        let batch = SparseBatch::from_rows(cfg.num_tables, &[vec![vec![0], vec![1]]]);
        let pooled = vec![0.3f32; cfg.num_tables * cfg.emb_dim];
        let mut ga = vec![0.0f32; pooled.len()];
        let mut gb = vec![0.0f32; pooled.len()];
        for i in 0..4 {
            let view = PooledView::new(&pooled, cfg.num_tables, 1, cfg.emb_dim);
            let ra = a.step(i, &batch, view, &mut ga);
            let rb = b.step(i, &batch, view, &mut gb);
            assert_eq!(ra.loss.to_bits(), rb.loss.to_bits());
            for (x, y) in ga.iter().zip(&gb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(a.model().bit_eq(b.model()));
    }

    #[test]
    fn a_clone_drops_the_buffers_and_trains_identically() {
        let cfg = DlrmConfig::tiny();
        let mut source = DlrmBackend::new(&cfg, 0.05, 9);
        let batch = SparseBatch::from_rows(
            cfg.num_tables,
            &[vec![vec![0], vec![1]], vec![vec![2], vec![3]]],
        );
        let pooled = vec![0.2f32; cfg.num_tables * 2 * cfg.emb_dim];
        let mut gs = vec![0.0f32; pooled.len()];
        let mut gc = vec![0.0f32; pooled.len()];
        let view = PooledView::new(&pooled, cfg.num_tables, 2, cfg.emb_dim);
        // Warm the source's buffers, then fork it mid-training.
        source.step(0, &batch, view, &mut gs);
        assert!(!source.dense.is_empty() && source.scratch.logits().next().is_some());
        let mut copy = source.clone();
        assert!(copy.dense.is_empty() && copy.labels.is_empty());
        assert!(copy.scratch.logits().next().is_none());
        for i in 1..=4 {
            let rs = source.step(i, &batch, view, &mut gs);
            let rc = copy.step(i, &batch, view, &mut gc);
            assert_eq!(rs.loss.to_bits(), rc.loss.to_bits(), "step {i}");
            for (x, y) in gs.iter().zip(&gc) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {i}");
            }
        }
        assert!(source.model().bit_eq(copy.model()));
    }

    #[test]
    fn traffic_reflects_model_size() {
        let small = DlrmBackend::new(&DlrmConfig::tiny(), 0.01, 0).traffic(64);
        let big = DlrmBackend::new(&DlrmConfig::paper_default(), 0.01, 0).traffic(2048);
        assert!(big.gpu_flops > 1000 * small.gpu_flops);
        assert!(big.gpu_ops > 0);
    }
}
