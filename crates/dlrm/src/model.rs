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
//! touches, so a steady-state step performs no heap allocation at all.

use crate::config::DlrmConfig;
use crate::interaction;
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

/// Every buffer a [`DlrmModel`] training step needs besides its inputs
/// and outputs: MLP activation caches (with the forward kernel's packed
/// weight copy), the interaction output, and the two ping-pong buffers the
/// backward chain's gradients alternate between. Allocate once and pass to
/// every [`DlrmModel::train_step_with`] call: buffers grow to steady-state
/// size on the first step, after which a step allocates nothing.
///
/// The contents are scratch, not state — every step overwrites what it
/// reads — so a *clone* starts empty instead of copying megabytes of
/// stale activations.
#[derive(Debug, Default)]
pub struct DlrmScratch {
    acts_bottom: MlpActivations,
    acts_top: MlpActivations,
    z: Vec<f32>,
    grad: Vec<f32>,
    spare: Vec<f32>,
}

impl DlrmScratch {
    /// Creates an empty scratch; buffers grow to steady-state size on the
    /// first step and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The logits of the last [`DlrmModel::train_step_with`] call through
    /// this scratch (empty before the first).
    pub fn logits(&self) -> &[f32] {
        self.acts_top.output_or_empty()
    }
}

impl Clone for DlrmScratch {
    fn clone(&self) -> Self {
        Self::new()
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
        out.logits = scratch.logits().to_vec();
        out
    }

    /// One full dense-side training step with SGD at learning rate `lr`:
    /// forward through bottom MLP → interaction → top MLP → BCE, backward
    /// all the way, update both MLPs, and write the pooled-embedding
    /// gradients into `emb_grads` (same flat layout as `pooled`,
    /// overwritten — a dirty reused arena is fine). Once `scratch` has
    /// seen this batch size the step performs no heap allocation; the
    /// logits stay in [`DlrmScratch::logits`].
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not `batch × dense_dim`, `pooled` is not
    /// `num_tables × batch × emb_dim`, `labels` is not `batch` long, or
    /// `emb_grads` does not match `pooled`.
    pub fn train_step_with(
        &mut self,
        scratch: &mut DlrmScratch,
        dense: &[f32],
        pooled: &[f32],
        labels: &[f32],
        lr: f32,
        emb_grads: &mut [f32],
    ) -> TrainStepOutput {
        let c = &self.config;
        assert_eq!(dense.len() % c.dense_dim, 0, "ragged dense batch");
        let batch = dense.len() / c.dense_dim;
        assert_eq!(
            pooled.len(),
            c.num_tables * batch * c.emb_dim,
            "pooled must be num_tables × batch × emb_dim"
        );
        assert_eq!(labels.len(), batch, "one label per sample");
        assert_eq!(
            emb_grads.len(),
            pooled.len(),
            "gradient buffer must match pooled layout"
        );

        // Forward.
        self.bottom.forward_into(dense, &mut scratch.acts_bottom);
        interaction::forward_into(
            scratch.acts_bottom.output(),
            pooled,
            c.num_tables,
            c.emb_dim,
            &mut scratch.z,
        );
        self.top.forward_into(&scratch.z, &mut scratch.acts_top);
        let loss = loss::bce_with_logits_into(scratch.acts_top.output(), labels, &mut scratch.grad);

        // Backward: `grad` carries the running gradient (dlogits → dz),
        // the interaction hands d_bottom to `spare`, and the bottom MLP
        // runs the same ping-pong the other way round.
        self.top.backward_into(
            &mut scratch.acts_top,
            lr,
            &mut scratch.grad,
            &mut scratch.spare,
        );
        interaction::backward_into(
            scratch.acts_bottom.output(),
            pooled,
            c.num_tables,
            c.emb_dim,
            &scratch.grad,
            emb_grads,
            &mut scratch.spare,
        );
        self.bottom.backward_into(
            &mut scratch.acts_bottom,
            lr,
            &mut scratch.spare,
            &mut scratch.grad,
        );

        TrainStepOutput {
            loss,
            logits: Vec::new(),
        }
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
