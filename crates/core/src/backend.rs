//! The dense-model backend interface of the \[Train\] stage.
//!
//! ScratchPipe is agnostic to what the backend DNN looks like: the
//! \[Train\] stage pools embeddings out of the scratchpad into a flat
//! arena, hands a [`PooledView`] of it to a [`DenseBackend`], and scatters
//! the gradients the backend wrote into the caller's flat gradient arena
//! back into the scratchpad. The `systems` crate plugs a full DLRM in
//! here; this crate ships a [`UnitBackend`] whose gradient is a scalar
//! multiple of the pooled values — enough to make every embedding update
//! *depend on the gathered data*, so any stale read in the pipeline shows
//! up as numeric divergence in the equivalence tests.
//!
//! # Flat buffer layout
//!
//! Both the pooled embeddings and their gradients use one stride-indexed
//! buffer: table `t` occupies `t·batch·dim .. (t+1)·batch·dim`, and sample
//! `s`'s vector sits at `s·dim` within that block. The arenas are
//! allocated once per run (see [`crate::stages::TrainArena`]) and reused
//! every iteration — no per-table or per-row `Vec`s exist on the hot path.

use embeddings::SparseBatch;
use memsim::Traffic;

use crate::error::ScratchError;
use crate::workers::WorkerPool;

/// Borrowed view of the flat `num_tables × batch × dim` pooled-embedding
/// arena the \[Train\] stage hands to a [`DenseBackend`].
#[derive(Debug, Clone, Copy)]
pub struct PooledView<'a> {
    data: &'a [f32],
    num_tables: usize,
    batch: usize,
    dim: usize,
}

impl<'a> PooledView<'a> {
    /// Wraps a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != num_tables × batch × dim`.
    pub fn new(data: &'a [f32], num_tables: usize, batch: usize, dim: usize) -> Self {
        assert_eq!(
            data.len(),
            num_tables * batch * dim,
            "pooled arena must be num_tables × batch × dim"
        );
        PooledView {
            data,
            num_tables,
            batch,
            dim,
        }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Samples per table block.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Table `t`'s `batch × dim` block.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_tables`.
    pub fn table(&self, t: usize) -> &'a [f32] {
        let stride = self.batch * self.dim;
        &self.data[t * stride..(t + 1) * stride]
    }

    /// The whole flat buffer (the layout the DLRM interaction consumes
    /// directly).
    pub fn as_flat(&self) -> &'a [f32] {
        self.data
    }
}

/// One training step's result from the dense backend. The embedding
/// gradients are written into the caller-provided flat arena, not
/// returned.
#[derive(Debug, Clone, Copy)]
pub struct StepResult {
    /// Scalar training loss of the step (0 for synthetic backends).
    pub loss: f32,
}

/// The dense (MLP) half of the model, as seen from the \[Train\] stage.
pub trait DenseBackend {
    /// Executes one dense forward/backward step for `batch`, given the
    /// pooled embeddings of every table, and **overwrites** `grads` (same
    /// flat layout and length as `pooled` — a dirty reused arena is fine)
    /// with the gradients to backpropagate into the embedding layer.
    fn step(
        &mut self,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult;

    /// [`DenseBackend::step`] with a worker pool the step may fan out
    /// over. A backend that shards its step must write the bits `step`
    /// writes, at every pool width; the default runs `step` and leaves the
    /// pool idle.
    ///
    /// # Errors
    ///
    /// [`ScratchError::WorkerPanic`] if a shard of the step panicked; the
    /// backend may then be part-updated (the supervised pipeline restores
    /// its snapshot).
    fn step_on(
        &mut self,
        workers: WorkerPool,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> Result<StepResult, ScratchError> {
        let _ = workers;
        Ok(self.step(iteration, batch, pooled, grads))
    }

    /// Learning rate the embedding SGD scatter should apply.
    fn learning_rate(&self) -> f32;

    /// The hardware traffic one dense step generates (GEMM FLOPs, kernel
    /// dispatches, activation bytes). Synthetic backends return zero.
    fn traffic(&self, _batch_size: usize) -> Traffic {
        Traffic::ZERO
    }
}

/// A minimal deterministic backend: `grad = scale × pooled`.
///
/// Under SGD this decays every touched row toward zero, and — because the
/// gradient is a function of the *gathered values* — it turns any stale
/// gather anywhere in the pipeline into a lasting numeric difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitBackend {
    lr: f32,
    scale: f32,
}

impl UnitBackend {
    /// Creates a backend with learning rate `lr` and gradient scale 0.5.
    pub fn new(lr: f32) -> Self {
        UnitBackend { lr, scale: 0.5 }
    }
}

impl DenseBackend for UnitBackend {
    fn step(
        &mut self,
        _iteration: usize,
        _batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult {
        assert_eq!(grads.len(), pooled.as_flat().len(), "gradient arena shape");
        for (g, &v) in grads.iter_mut().zip(pooled.as_flat()) {
            *g = v * self.scale;
        }
        StepResult { loss: 0.0 }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embeddings::SparseBatch;

    #[test]
    fn unit_backend_scales_pooled_values() {
        let mut b = UnitBackend {
            lr: 0.1,
            scale: 2.0,
        };
        let batch = SparseBatch::from_rows(1, &[vec![vec![0]]]);
        let pooled = [1.0, -3.0];
        let mut grads = [f32::NAN; 2]; // dirty reused arena
        let r = b.step(0, &batch, PooledView::new(&pooled, 1, 1, 2), &mut grads);
        assert_eq!(grads, [2.0, -6.0]);
        assert_eq!(r.loss, 0.0);
        assert_eq!(b.learning_rate(), 0.1);
    }

    #[test]
    fn pooled_view_slices_tables() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let v = PooledView::new(&data, 2, 3, 2); // 2 tables × 3 samples × 2
        assert_eq!(v.num_tables(), 2);
        assert_eq!(v.batch(), 3);
        assert_eq!(v.dim(), 2);
        assert_eq!(v.table(0), &data[..6]);
        assert_eq!(v.table(1), &data[6..]);
        assert_eq!(v.as_flat(), &data[..]);
    }

    #[test]
    #[should_panic(expected = "num_tables × batch × dim")]
    fn pooled_view_rejects_bad_shape() {
        let _ = PooledView::new(&[0.0; 5], 2, 1, 2);
    }

    #[test]
    fn default_traffic_is_zero() {
        let b = UnitBackend::new(0.01);
        assert!(b.traffic(2048).is_zero());
    }
}
