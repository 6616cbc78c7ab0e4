//! Multi-layer perceptrons with ReLU activations.

use crate::kernels;
use crate::linear::{Linear, UpdateRows};

/// A stack of [`Linear`] layers with ReLU between (and optionally after)
/// them.
///
/// DLRM uses two MLPs: the *bottom* MLP (ReLU after every layer, including
/// the last, whose output feeds feature interaction) and the *top* MLP
/// (ReLU after every layer except the last, which emits the CTR logit).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    relu_last: bool,
}

/// Forward activations cached for the backward pass, and the gradients
/// the backward leaves for the weight update.
///
/// Activation widths differ per layer, so this is the one place a
/// vector-of-vectors layout is structural rather than incidental; the
/// buffers are *reused* across iterations via [`Mlp::forward_into`], which
/// refills them in place without reallocating.
#[derive(Debug, Clone, Default)]
pub struct MlpActivations {
    /// `inputs[l]` is the input to layer `l`; `inputs.last()` is the final
    /// output (post-activation).
    inputs: Vec<Vec<f32>>,
    /// Pre-activation outputs of each layer (needed for the ReLU mask).
    pre_act: Vec<Vec<f32>>,
    /// `grads[l]` is the loss gradient at layer `l`'s pre-activation (its
    /// ReLU mask applied), what layer `l`'s `dx` reads; once that is
    /// taken, [`Mlp::backward_samples`] turns it into the layer's SGD
    /// steps `−(lr·dy)`, what its update reads.
    grads: Vec<Vec<f32>>,
    /// The k-major weight copies the forward kernel streams, one per
    /// layer, for [`Mlp::forward_into`].
    packed: Vec<Vec<f32>>,
    /// The zero-padded weight copy the `dx` kernel reads for a layer
    /// narrower than its tile, rebuilt by each layer that needs it.
    padded: Vec<f32>,
    /// Per layer, the packed input panels its update streams
    /// ([`UpdateRows`]).
    x_panels: Vec<Vec<f32>>,
}

impl MlpActivations {
    /// Creates an empty activation cache, ready to be filled by
    /// [`Mlp::forward_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The MLP's final output.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has filled the cache yet.
    pub fn output(&self) -> &[f32] {
        self.inputs.last().expect("at least one layer")
    }

    /// Layer `l`'s share of its update, as [`Mlp::backward_samples`] left
    /// it.
    pub(crate) fn update_rows(&self, l: usize) -> UpdateRows<'_> {
        UpdateRows {
            x: &self.inputs[l],
            x_panels: &self.x_panels[l],
            steps: &self.grads[l],
        }
    }

    /// The MLP's output, and where the gradient of the loss w.r.t. it
    /// goes before [`Mlp::backward_samples`].
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has filled the cache yet.
    pub(crate) fn output_and_grad_mut(&mut self) -> (&[f32], &mut Vec<f32>) {
        let output = self.inputs.last().expect("at least one layer");
        (output, self.grads.last_mut().expect("at least one layer"))
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[13, 512, 256, 128]`
    /// creates three layers. `relu_last` controls whether the final layer's
    /// output passes through ReLU (true for DLRM bottom MLPs).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn seeded(widths: &[usize], relu_last: bool, seed: u64) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least one layer");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::seeded(w[0], w[1], seed.wrapping_add(i as u64 * 0x9E37)))
            .collect();
        Mlp { layers, relu_last }
    }

    /// Input width of the first layer.
    #[cfg(test)]
    pub(crate) fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width of the last layer.
    #[cfg(test)]
    pub(crate) fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass, retaining the activations needed by
    /// [`Mlp::backward`].
    pub fn forward(&self, x: &[f32]) -> MlpActivations {
        let mut acts = MlpActivations::new();
        self.forward_into(x, &mut acts);
        acts
    }

    /// Forward pass into a reusable activation cache: every buffer is
    /// cleared and refilled in place, so a steady-state training loop
    /// performs no activation allocations.
    pub fn forward_into(&self, x: &[f32], acts: &mut MlpActivations) {
        let mut packed = std::mem::take(&mut acts.packed);
        self.pack(&mut packed);
        self.forward_packed(x, &packed, acts);
        acts.packed = packed;
    }

    /// Refills `packed` with every layer's k-major weight copy
    /// ([`Linear::pack_panels`]), the forward kernel's operand.
    pub(crate) fn pack(&self, packed: &mut Vec<Vec<f32>>) {
        packed.resize_with(self.layers.len(), Vec::new);
        for (layer, packed) in self.layers.iter().zip(packed) {
            layer.pack_panels(packed);
        }
    }

    /// [`Mlp::forward_into`] from weight copies [`Mlp::pack`] made, which
    /// any number of forwards may share.
    pub(crate) fn forward_packed(&self, x: &[f32], packed: &[Vec<f32>], acts: &mut MlpActivations) {
        let n = self.layers.len();
        acts.inputs.resize_with(n + 1, Vec::new);
        acts.pre_act.resize_with(n, Vec::new);
        acts.grads.resize_with(n, Vec::new);
        acts.x_panels.resize_with(n, Vec::new);
        acts.inputs[0].clear();
        acts.inputs[0].extend_from_slice(x);
        for ((l, layer), packed) in self.layers.iter().enumerate().zip(packed) {
            let (head, tail) = acts.inputs.split_at_mut(l + 1);
            let (x, post) = (&head[l], &mut tail[0]);
            let pre = &mut acts.pre_act[l];
            let len = layer.batch_of(x) * layer.out_dim();
            pre.resize(len, 0.0);
            post.resize(len, 0.0);
            // The kernel's epilogue writes the pre-activation and the
            // activation while the tile is still in registers.
            let relu = l + 1 < n || self.relu_last;
            layer.forward_tiles(x, packed, |at, vals| {
                let to = at + vals.len();
                pre[at..to].copy_from_slice(vals);
                if relu {
                    kernels::relu_into(&mut post[at..to], vals);
                } else {
                    post[at..to].copy_from_slice(vals);
                }
            });
        }
    }

    /// Backward pass from the output gradient; applies SGD to every layer
    /// and returns the gradient w.r.t. the MLP input.
    ///
    /// # Panics
    ///
    /// Panics if `dy` does not match the cached activation shapes.
    pub fn backward(&mut self, acts: &MlpActivations, dy: &[f32], lr: f32) -> Vec<f32> {
        let mut grad = dy.to_vec();
        self.backward_into(&mut acts.clone(), lr, &mut grad);
        grad
    }

    /// [`Mlp::backward`] over reusable buffers: `grad` holds the output
    /// gradient on entry and the gradient w.r.t. the MLP input on return;
    /// the layer gradients and the kernels' packed copies live in `acts`,
    /// whose activations are left as they were. Allocates nothing once
    /// every buffer has grown to its layer.
    ///
    /// Every `dx` is taken before any weight moves, which is what the
    /// layer-by-layer order (`dx` of a layer, then its update) computes
    /// too: a layer's update never feeds a `dx` below it.
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not match the cached activation shapes.
    pub fn backward_into(&mut self, acts: &mut MlpActivations, lr: f32, grad: &mut Vec<f32>) {
        let (_, out) = acts.output_and_grad_mut();
        out.clear();
        out.extend_from_slice(grad);
        self.backward_samples(acts, lr, Some(grad));
        for (l, layer) in self.layers.iter_mut().enumerate() {
            for block in layer.row_blocks(1) {
                block.sgd(std::iter::once(acts.update_rows(l)));
            }
        }
    }

    /// The backward's per-sample half: from the output gradient in
    /// [`MlpActivations::output_and_grad_mut`], applies each layer's ReLU
    /// mask, packs its update's share of these samples
    /// ([`Linear::pack_update`]) and takes its `dx` into the layer below's
    /// gradient, top layer first; the first layer's `dx` goes to `dx`, or
    /// is not computed when `None`. Reads the weights and moves none.
    ///
    /// # Panics
    ///
    /// Panics if the output gradient does not match the cached activation
    /// shapes.
    pub(crate) fn backward_samples(
        &self,
        acts: &mut MlpActivations,
        lr: f32,
        mut dx: Option<&mut Vec<f32>>,
    ) {
        let MlpActivations {
            inputs,
            pre_act,
            grads,
            padded,
            x_panels,
            ..
        } = acts;
        for (l, layer) in self.layers.iter().enumerate().rev() {
            if l + 1 < self.layers.len() || self.relu_last {
                // ReLU mask from the pre-activation values.
                kernels::relu_mask(&mut grads[l], &pre_act[l]);
            }
            let (below, at) = grads.split_at_mut(l);
            if let Some(dx) = below.last_mut().or_else(|| dx.take()) {
                layer.input_gradient_into(&at[0], dx, padded);
            }
            layer.pack_update(&inputs[l], &mut at[0], lr, &mut x_panels[l]);
        }
    }

    /// The layers, to cut their updates into row blocks.
    pub(crate) fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Exact bitwise equality of all parameters.
    pub(crate) fn bit_eq(&self, other: &Mlp) -> bool {
        self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(&other.layers)
                .all(|(a, b)| a.bit_eq(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_propagate() {
        let mlp = Mlp::seeded(&[13, 64, 32, 8], true, 1);
        assert_eq!(mlp.in_dim(), 13);
        assert_eq!(mlp.out_dim(), 8);
        assert_eq!(mlp.layers().len(), 3);
        let acts = mlp.forward(&[0.1; 2 * 13]);
        assert_eq!(acts.output().len(), 2 * 8);
    }

    #[test]
    fn relu_clamps_negative_activations() {
        let mlp = Mlp::seeded(&[4, 4], true, 5);
        let acts = mlp.forward(&[-1.0, 2.0, -3.0, 0.5]);
        assert!(acts.output().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn no_relu_on_last_layer_when_disabled() {
        // With relu_last = false some outputs should be negative for a
        // generic input.
        let mlp = Mlp::seeded(&[8, 16, 8], false, 9);
        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 4.0).collect();
        let out = mlp.forward(&x);
        assert!(
            out.output().iter().any(|&v| v < 0.0),
            "expected some negative logits: {:?}",
            out.output()
        );
    }

    #[test]
    fn backward_reduces_loss() {
        // One SGD step on L = ½‖y‖² must reduce the loss.
        let mut mlp = Mlp::seeded(&[6, 12, 4], false, 3);
        let x = vec![0.5, -0.3, 0.8, 0.2, -0.7, 0.9];
        let loss = |m: &Mlp| -> f32 { m.forward(&x).output().iter().map(|v| 0.5 * v * v).sum() };
        let before = loss(&mlp);
        let acts = mlp.forward(&x);
        let dy: Vec<f32> = acts.output().to_vec(); // dL/dy = y
        let _ = mlp.backward(&acts, &dy, 0.01);
        let after = loss(&mlp);
        assert!(after < before, "loss {before} → {after}");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut mlp = Mlp::seeded(&[5, 7, 3], true, 11);
        let x = vec![0.4, -0.2, 0.9, 0.1, -0.5];
        let loss = |m: &Mlp, x: &[f32]| -> f32 { m.forward(x).output().iter().sum() };
        let acts = mlp.forward(&x);
        let dy = vec![1.0f32; 3];
        let dx = mlp.clone().backward(&acts, &dy, 0.0);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (loss(&mlp, &xp) - loss(&mlp, &xm)) / (2.0 * eps);
            assert!(
                (dx[i] - numeric).abs() < 1e-2,
                "input {i}: analytic {} vs numeric {numeric}",
                dx[i]
            );
        }
        let _ = &mut mlp;
    }

    #[test]
    fn bit_eq_detects_divergence() {
        let a = Mlp::seeded(&[4, 4], true, 1);
        let mut b = a.clone();
        assert!(a.bit_eq(&b));
        let acts = b.forward(&[1.0; 4]);
        let _ = b.backward(&acts, &[1.0; 4], 0.1);
        assert!(!a.bit_eq(&b));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn too_few_widths_rejected() {
        let _ = Mlp::seeded(&[4], true, 0);
    }

    #[test]
    fn forward_into_reuses_buffers_bitwise() {
        let mlp = Mlp::seeded(&[6, 12, 4], true, 7);
        let a: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) / 3.0).collect();
        let b: Vec<f32> = (0..12).map(|i| (i as f32) * 0.11 - 0.7).collect();
        let fresh = mlp.forward(&a);
        // Fill the cache with a different batch first, then reuse it.
        let mut acts = MlpActivations::new();
        mlp.forward_into(&b, &mut acts);
        mlp.forward_into(&a, &mut acts);
        assert_eq!(
            fresh
                .output()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            acts.output()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
