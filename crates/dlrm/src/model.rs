//! The assembled DLRM dense path.
//!
//! [`DlrmModel`] owns the bottom and top MLPs and performs one *dense-side*
//! training step: everything in the paper's Figure 4 training pipeline
//! except the embedding gathers/scatters themselves. Its output — the
//! gradient of the loss w.r.t. every table's pooled embedding — is exactly
//! the tensor the embedding backward pass (gradient duplicate / coalesce /
//! scatter) consumes, wherever the embeddings happen to live (CPU table,
//! static GPU cache, or ScratchPipe scratchpad).
//!
//! Pooled embeddings and their gradients cross the model boundary as **one
//! flat `num_tables × batch × emb_dim` buffer each** (table-major, row
//! `s` of table `t` at `t·batch·dim + s·dim`): the caller gathers into a
//! reusable arena, the model writes gradients back into a second arena,
//! and no per-table `Vec`s are allocated on the training hot path.
//! [`DlrmScratch`] extends the same discipline to everything else a step
//! touches, so a steady-state step on the calling thread performs no heap
//! allocation at all. [`DlrmModel::train_step_on`] runs the step as two
//! fork-join regions — per sample range, then per block of weight rows —
//! with the same bits at every width.

use std::convert::Infallible;
use std::ops::Range;

use crate::config::DlrmConfig;
use crate::interaction::{self, Operands};
use crate::linear::RowBlock;
use crate::loss;
use crate::mlp::{Mlp, MlpActivations};

/// The dense half of a DLRM: bottom MLP, dot interaction, top MLP, BCE.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmModel {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
}

/// Result of one dense-side training step. The pooled-embedding gradients
/// are written into the caller's flat buffer rather than returned.
#[derive(Debug, Clone)]
pub struct TrainStepOutput {
    /// Mean binary cross-entropy of the batch.
    pub loss: f32,
    /// The batch's raw logits (pre-sigmoid), for evaluation metrics.
    /// Filled by [`DlrmModel::train_step`]; the allocation-free
    /// [`DlrmModel::train_step_with`] leaves it empty and the logits in
    /// [`DlrmScratch::logits`].
    pub logits: Vec<f32>,
}

/// The fork-join a training step's two regions run on
/// ([`DlrmModel::train_step_on`]): a way to run a set of tasks that own
/// disjoint data and to wait for all of them.
pub trait ForkJoin {
    /// What a region reports when a task failed (panicked, say).
    type Error;

    /// How many tasks may run at once. Above 1, the step cuts its batch
    /// into `RANGES_PER_WORKER` (4) sample ranges per task that may run
    /// and each layer's update into this many blocks of weight rows.
    fn width(&self) -> usize;

    /// Runs every task and returns once all have finished.
    ///
    /// # Errors
    ///
    /// Whatever the implementation reports for a failed task.
    fn join<F: FnOnce() + Send>(&self, tasks: impl Iterator<Item = F>) -> Result<(), Self::Error>;
}

/// The width-1 [`ForkJoin`]: every task on the calling thread, in order,
/// with nothing allocated. A panicking task unwinds through the step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl ForkJoin for Inline {
    type Error = Infallible;

    fn width(&self) -> usize {
        1
    }

    fn join<F: FnOnce() + Send>(&self, tasks: impl Iterator<Item = F>) -> Result<(), Infallible> {
        tasks.for_each(|task| task());
        Ok(())
    }
}

/// Sample ranges per task a fanned-out step may run at once. The
/// pipeline's fork-join (`WorkerPool::run_tasks`) hands tasks out as
/// workers come free, so a worker that starts late, or on a CPU the host
/// is busy with, holds region 1 up by a quarter of its share at most.
const RANGES_PER_WORKER: usize = 4;

/// Every buffer a [`DlrmModel`] training step needs besides its inputs
/// and outputs: the forward kernel's packed weight copies, and per sample
/// range of the batch the MLP activation caches (with the update's packed
/// copies), every layer's gradient, the interaction output and its
/// gradient and the per-sample loss terms. Allocate once and pass to every
/// step: buffers grow to steady-state size on the first step, after which
/// a step allocates nothing.
///
/// The contents are scratch, not state — every step overwrites what it
/// reads — so a *clone* starts empty instead of copying megabytes of
/// stale activations.
#[derive(Debug, Default)]
pub struct DlrmScratch {
    /// The sample ranges of the last step, in sample order; the vector
    /// only grows, and `live` of its entries were used.
    shards: Vec<Shard>,
    live: usize,
    /// Every layer's packed weights, bottom MLP then top, packed once per
    /// step and read by every shard's forward.
    packed: [Vec<Vec<f32>>; 2],
}

/// One contiguous sample range of a step: everything region 1 computes
/// for its samples, and what region 2 reads back.
#[derive(Debug, Default)]
struct Shard {
    samples: Range<usize>,
    bottom: MlpActivations,
    top: MlpActivations,
    /// The interaction output (the top MLP's input) and its gradient.
    z: Vec<f32>,
    dz: Vec<f32>,
    /// Each sample's loss term, folded in sample order between the
    /// regions.
    terms: Vec<f32>,
}

impl DlrmScratch {
    /// Creates an empty scratch; buffers grow to steady-state size on the
    /// first step and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The logits of the last step through this scratch, in sample order
    /// (none before the first).
    pub fn logits(&self) -> impl Iterator<Item = f32> + '_ {
        self.shards[..self.live]
            .iter()
            .flat_map(|shard| shard.top.output().iter().copied())
    }
}

impl Clone for DlrmScratch {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl Shard {
    /// Region 1 for this shard's samples of a step: the forward, the loss
    /// terms and `dlogits`, then every layer's `dx` and packed update input
    /// — each a function of the sample's own row and the weights, which no
    /// task writes in this region.
    fn forward_backward(&mut self, model: &DlrmModel, packed: &[Vec<Vec<f32>>; 2], step: Step<'_>) {
        let Step {
            dense,
            pooled,
            labels,
            lr,
        } = step;
        let (c, batch) = (&model.config, labels.len());
        let s = self.samples.clone();
        let (tables, dim) = (c.num_tables, c.emb_dim);
        let dense = &dense[s.start * c.dense_dim..s.end * c.dense_dim];
        model
            .bottom
            .forward_packed(dense, &packed[0], &mut self.bottom);
        let operands = Operands::range(self.bottom.output(), pooled, tables, dim, batch, s.start);
        interaction::forward_range(operands, &mut self.z);
        model.top.forward_packed(&self.z, &packed[1], &mut self.top);
        let (logits, dlogits) = self.top.output_and_grad_mut();
        loss::bce_terms_into(logits, &labels[s.clone()], batch, &mut self.terms, dlogits);
        model
            .top
            .backward_samples(&mut self.top, lr, Some(&mut self.dz));
        let (bottom, d_bottom) = self.bottom.output_and_grad_mut();
        let operands = Operands::range(bottom, pooled, tables, dim, batch, s.start);
        interaction::bottom_grad_into(operands, &self.dz, d_bottom);
        // The dense features take no gradient.
        model.bottom.backward_samples(&mut self.bottom, lr, None);
    }
}

/// A step's inputs, as the tasks of both regions read them.
#[derive(Clone, Copy)]
struct Step<'a> {
    dense: &'a [f32],
    pooled: &'a [f32],
    labels: &'a [f32],
    lr: f32,
}

/// One task of region 2.
enum Update<'a> {
    /// A block of weight rows of layer `layer` of the bottom or top MLP.
    Rows {
        block: RowBlock<'a>,
        top: bool,
        layer: usize,
    },
    /// Table `t`'s pooled-embedding gradient, `batch × dim`.
    Table { t: usize, grads: &'a mut [f32] },
}

impl Update<'_> {
    fn run(self, shards: &[Shard], c: &DlrmConfig, step: Step<'_>) {
        let (pooled, batch) = (step.pooled, step.labels.len());
        match self {
            Update::Rows { block, top, layer } => {
                let parts = shards.iter().map(|shard| {
                    let acts = if top { &shard.top } else { &shard.bottom };
                    acts.update_rows(layer)
                });
                block.sgd(parts);
            }
            Update::Table { t, grads } => {
                for shard in shards {
                    let (s, dim) = (shard.samples.clone(), c.emb_dim);
                    let operands = Operands::range(
                        shard.bottom.output(),
                        pooled,
                        c.num_tables,
                        dim,
                        batch,
                        s.start,
                    );
                    let rows = &mut grads[s.start * dim..s.end * dim];
                    interaction::table_grad(operands, &shard.dz, t, rows);
                }
            }
        }
    }
}

impl DlrmModel {
    /// Builds a model with seeded deterministic initialization.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn seeded(config: &DlrmConfig, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid DLRM config: {e}"));
        DlrmModel {
            config: config.clone(),
            bottom: Mlp::seeded(&config.bottom_widths, true, seed),
            top: Mlp::seeded(&config.top_widths, false, seed.wrapping_add(0xD1A0)),
        }
    }

    /// Forward-only prediction: returns per-sample click probabilities.
    /// `pooled` is the flat `num_tables × batch × emb_dim` buffer.
    ///
    /// # Panics
    ///
    /// Panics if buffer shapes disagree with the configuration.
    pub fn predict(&self, dense: &[f32], pooled: &[f32]) -> Vec<f32> {
        let c = &self.config;
        let acts_b = self.bottom.forward(dense);
        let z = interaction::forward(acts_b.output(), pooled, c.num_tables, c.emb_dim);
        let acts_t = self.top.forward(&z);
        acts_t.output().iter().map(|&z| loss::sigmoid(z)).collect()
    }

    /// One full dense-side training step with SGD at learning rate `lr`,
    /// allocating fresh scratch (convenience wrapper over
    /// [`DlrmModel::train_step_with`]; hot loops should hold a
    /// [`DlrmScratch`] instead).
    ///
    /// # Panics
    ///
    /// Same conditions as [`DlrmModel::train_step_with`].
    pub fn train_step(
        &mut self,
        dense: &[f32],
        pooled: &[f32],
        labels: &[f32],
        lr: f32,
        emb_grads: &mut [f32],
    ) -> TrainStepOutput {
        let mut scratch = DlrmScratch::new();
        let mut out = self.train_step_with(&mut scratch, dense, pooled, labels, lr, emb_grads);
        out.logits = scratch.logits().collect();
        out
    }

    /// One full dense-side training step with SGD at learning rate `lr`:
    /// [`DlrmModel::train_step_on`] on the calling thread ([`Inline`]).
    /// Once `scratch` has seen this batch size the step performs no heap
    /// allocation; the logits stay in [`DlrmScratch::logits`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`DlrmModel::train_step_on`].
    pub fn train_step_with(
        &mut self,
        scratch: &mut DlrmScratch,
        dense: &[f32],
        pooled: &[f32],
        labels: &[f32],
        lr: f32,
        emb_grads: &mut [f32],
    ) -> TrainStepOutput {
        let Ok(out) = self.train_step_on(&Inline, scratch, dense, pooled, labels, lr, emb_grads);
        out
    }

    /// One full dense-side training step with SGD at learning rate `lr`:
    /// forward through bottom MLP → interaction → top MLP → BCE, backward
    /// all the way, update both MLPs, and write the pooled-embedding
    /// gradients into `emb_grads` (same flat layout as `pooled`,
    /// overwritten — a dirty reused arena is fine).
    ///
    /// The step is two regions of `fork_join`, with the loss folded on the
    /// calling thread in between:
    ///
    /// 1. **Per contiguous sample range** (one at width 1, four per task
    ///    that may run otherwise, fewer if the batch is smaller): forward,
    ///    loss terms and `dlogits`, every layer's `dx`, then the layer's
    ///    steps `−(lr·dy)` and its packed input. No sample reads another's row,
    ///    and every `dx` reads the weights as they were before the step —
    ///    as the layer-by-layer order computes it too, since a layer's
    ///    update never feeds a `dx` below it.
    /// 2. **Per block of weight rows** (each layer cut into up to `width`)
    ///    and **per table**: the SGD update, each weight and bias folding
    ///    the whole batch's samples in ascending order, and each table's
    ///    pooled-embedding gradient.
    ///
    /// Every output element keeps the accumulation chain of the
    /// one-thread step, so every width computes the same bits.
    ///
    /// # Errors
    ///
    /// What `fork_join` reports for a failed task. The model may then be
    /// part-updated (a caller that retries restores it first).
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not `batch × dense_dim`, `pooled` is not
    /// `num_tables × batch × emb_dim`, `labels` is not `batch` long or
    /// outside `[0, 1]`, or `emb_grads` does not match `pooled`.
    #[allow(clippy::too_many_arguments)]
    pub fn train_step_on<J: ForkJoin>(
        &mut self,
        fork_join: &J,
        scratch: &mut DlrmScratch,
        dense: &[f32],
        pooled: &[f32],
        labels: &[f32],
        lr: f32,
        emb_grads: &mut [f32],
    ) -> Result<TrainStepOutput, J::Error> {
        let c = &self.config;
        assert_eq!(dense.len() % c.dense_dim, 0, "ragged dense batch");
        let batch = dense.len() / c.dense_dim;
        assert_eq!(
            pooled.len(),
            c.num_tables * batch * c.emb_dim,
            "pooled must be num_tables × batch × emb_dim"
        );
        assert_eq!(labels.len(), batch, "one label per sample");
        assert!(
            labels.iter().all(|&y| (0.0..=1.0).contains(&y)),
            "labels must be in [0, 1]"
        );
        assert_eq!(
            emb_grads.len(),
            pooled.len(),
            "gradient buffer must match pooled layout"
        );

        // Near-equal contiguous sample ranges, as `WorkerPool` cuts them.
        let width = fork_join.width().max(1);
        let ranges = if width == 1 {
            1
        } else {
            width * RANGES_PER_WORKER
        };
        let live = ranges.min(batch);
        if scratch.shards.len() < live {
            scratch.shards.resize_with(live, Shard::default);
        }
        scratch.live = live;
        let shards = &mut scratch.shards[..live];
        let mut start = 0;
        for (k, shard) in shards.iter_mut().enumerate() {
            let len = (batch - start) / (live - k);
            shard.samples = start..start + len;
            start += len;
        }

        let [packed_bottom, packed_top] = &mut scratch.packed;
        self.bottom.pack(packed_bottom);
        self.top.pack(packed_top);
        let step = Step {
            dense,
            pooled,
            labels,
            lr,
        };
        let (model, packed) = (&*self, &scratch.packed);
        fork_join.join(
            shards
                .iter_mut()
                .map(|shard| move || shard.forward_backward(model, packed, step)),
        )?;
        let loss = loss::mean(shards.iter().flat_map(|shard| &shard.terms), batch);

        let DlrmModel {
            config,
            bottom,
            top,
        } = self;
        // The top MLP's layers are the larger ones: first in the queue.
        let mlps = [(true, top), (false, bottom)];
        let rows = mlps.into_iter().flat_map(|(top, mlp)| {
            let layers = mlp.layers_mut().iter_mut().enumerate();
            layers.flat_map(move |(layer, linear)| {
                linear
                    .row_blocks(width)
                    .map(move |block| Update::Rows { block, top, layer })
            })
        });
        let updates = rows.chain(
            emb_grads
                .chunks_exact_mut((batch * config.emb_dim).max(1))
                .enumerate()
                .map(|(t, grads)| Update::Table { t, grads }),
        );
        let (shards, config) = (&scratch.shards[..live], &*config);
        fork_join.join(updates.map(|update| move || update.run(shards, config, step)))?;

        Ok(TrainStepOutput {
            loss,
            logits: Vec::new(),
        })
    }

    /// Exact bitwise equality of all dense parameters.
    pub fn bit_eq(&self, other: &DlrmModel) -> bool {
        self.bottom.bit_eq(&other.bottom) && self.top.bit_eq(&other.top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn inputs(cfg: &DlrmConfig, batch: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense: Vec<f32> = (0..batch * cfg.dense_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let pooled: Vec<f32> = (0..cfg.num_tables * batch * cfg.emb_dim)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let labels: Vec<f32> = (0..batch).map(|_| f32::from(rng.gen_bool(0.5))).collect();
        (dense, pooled, labels)
    }

    fn grads_for(cfg: &DlrmConfig, batch: usize) -> Vec<f32> {
        vec![0.0f32; cfg.num_tables * batch * cfg.emb_dim]
    }

    #[test]
    fn train_step_shapes() {
        let cfg = DlrmConfig::tiny();
        let mut m = DlrmModel::seeded(&cfg, 1);
        let (dense, pooled, labels) = inputs(&cfg, 6, 2);
        let mut grads = grads_for(&cfg, 6);
        let out = m.train_step(&dense, &pooled, &labels, 0.01, &mut grads);
        assert_eq!(grads.len(), cfg.num_tables * 6 * cfg.emb_dim);
        assert_eq!(out.logits.len(), 6);
        assert!(out.loss.is_finite());
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let cfg = DlrmConfig::tiny();
        let mut m = DlrmModel::seeded(&cfg, 3);
        let (dense, pooled, labels) = inputs(&cfg, 16, 4);
        let mut grads = grads_for(&cfg, 16);
        let mut scratch = DlrmScratch::new();
        let first = m
            .train_step_with(&mut scratch, &dense, &pooled, &labels, 0.1, &mut grads)
            .loss;
        let mut last = first;
        for _ in 0..60 {
            last = m
                .train_step_with(&mut scratch, &dense, &pooled, &labels, 0.1, &mut grads)
                .loss;
        }
        assert!(
            last < first * 0.7,
            "loss should fall on a memorizable batch: {first} → {last}"
        );
    }

    #[test]
    fn reused_scratch_trains_bit_identically_to_fresh() {
        let cfg = DlrmConfig::tiny();
        let mut fresh = DlrmModel::seeded(&cfg, 13);
        let mut reused = fresh.clone();
        let mut scratch = DlrmScratch::new();
        for i in 0..5 {
            let (dense, pooled, labels) = inputs(&cfg, 8, 100 + i);
            let mut ga = grads_for(&cfg, 8);
            let mut gb = grads_for(&cfg, 8);
            let oa = fresh.train_step(&dense, &pooled, &labels, 0.05, &mut ga);
            let ob = reused.train_step_with(&mut scratch, &dense, &pooled, &labels, 0.05, &mut gb);
            assert_eq!(oa.loss.to_bits(), ob.loss.to_bits());
            for (a, b) in ga.iter().zip(&gb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(fresh.bit_eq(&reused));
    }

    #[test]
    fn predictions_are_probabilities() {
        let cfg = DlrmConfig::tiny();
        let m = DlrmModel::seeded(&cfg, 5);
        let (dense, pooled, _) = inputs(&cfg, 10, 6);
        let p = m.predict(&dense, &pooled);
        assert_eq!(p.len(), 10);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn embedding_gradients_match_finite_differences() {
        let cfg = DlrmConfig::tiny();
        let m = DlrmModel::seeded(&cfg, 7);
        let batch = 2;
        let (dense, pooled, labels) = inputs(&cfg, batch, 8);
        // Analytic gradient from a zero-lr step (no parameter movement).
        let mut grads = grads_for(&cfg, batch);
        let _ = m
            .clone()
            .train_step(&dense, &pooled, &labels, 0.0, &mut grads);
        let loss_of = |pooled: &[f32]| -> f32 {
            let acts_b = m.bottom.forward(&dense);
            let z = interaction::forward(acts_b.output(), pooled, cfg.num_tables, cfg.emb_dim);
            let acts_t = m.top.forward(&z);
            loss::bce_with_logits(acts_t.output(), &labels).0
        };
        let eps = 1e-2f32;
        for t in 0..cfg.num_tables {
            for i in (0..batch * cfg.emb_dim).step_by(5) {
                let idx = t * batch * cfg.emb_dim + i;
                let mut pp = pooled.clone();
                pp[idx] += eps;
                let mut pm = pooled.clone();
                pm[idx] -= eps;
                let numeric = (loss_of(&pp) - loss_of(&pm)) / (2.0 * eps);
                let analytic = grads[idx];
                assert!(
                    (analytic - numeric).abs() < 2e-2,
                    "table {t} elem {i}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn identical_seeds_train_identically() {
        let cfg = DlrmConfig::tiny();
        let mut a = DlrmModel::seeded(&cfg, 11);
        let mut b = DlrmModel::seeded(&cfg, 11);
        let (dense, pooled, labels) = inputs(&cfg, 8, 12);
        let mut ga = grads_for(&cfg, 8);
        let mut gb = grads_for(&cfg, 8);
        for _ in 0..5 {
            let oa = a.train_step(&dense, &pooled, &labels, 0.05, &mut ga);
            let ob = b.train_step(&dense, &pooled, &labels, 0.05, &mut gb);
            assert_eq!(oa.loss.to_bits(), ob.loss.to_bits());
        }
        assert!(a.bit_eq(&b));
    }

    #[test]
    #[should_panic(expected = "num_tables × batch × emb_dim")]
    fn wrong_pooled_shape_rejected() {
        let cfg = DlrmConfig::tiny();
        let mut m = DlrmModel::seeded(&cfg, 0);
        let mut grads = [];
        let _ = m.train_step(&[0.0; 4], &[], &[1.0], 0.1, &mut grads);
    }

    #[test]
    #[should_panic(expected = "invalid DLRM config")]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = DlrmConfig::tiny();
        cfg.top_widths[0] = 3;
        let _ = DlrmModel::seeded(&cfg, 0);
    }
}
