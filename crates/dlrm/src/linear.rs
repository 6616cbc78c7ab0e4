//! Fully-connected layers with explicit forward/backward.

use crate::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples per register tile of the forward kernel.
const SB: usize = 4;
/// Outputs per register tile, and the lane width of a packed weight panel.
/// `SB × OB` = 4 × 8 accumulators fill eight of baseline x86-64's sixteen
/// 4-lane registers, leaving room for a panel row and the broadcast input
/// (4 × 16 spills); the other shapes tried are in `docs/perf.md`.
const OB: usize = 8;

/// A dense layer `y = x·Wᵀ + b` over row-major batches.
///
/// Weights are stored `out_dim × in_dim`. The layer owns no optimizer
/// state beyond the weights themselves; [`Linear::backward`] applies a
/// plain SGD update immediately (matching the paper's SGD training).
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with He-uniform initialization from a seed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn seeded(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / in_dim as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        let bias = vec![0.0; out_dim];
        Linear {
            in_dim,
            out_dim,
            weights,
            bias,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Immutable weight matrix (row-major `out_dim × in_dim`).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Immutable bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass for a batch of `x.len() / in_dim` rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass writing into a reusable output buffer (resized in
    /// place and overwritten, so repeated calls don't reallocate it). The
    /// packed weight copy is allocated per call; layers inside an
    /// [`Mlp`](crate::Mlp) reuse the one in its activation cache instead.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`.
    pub fn forward_into(&self, x: &[f32], y: &mut Vec<f32>) {
        y.resize(self.batch_of(x) * self.out_dim, 0.0);
        self.forward_tiles(x, &mut Vec::new(), |at, vals| {
            y[at..at + vals.len()].copy_from_slice(vals);
        });
    }

    /// Rows in the batch `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`.
    pub(crate) fn batch_of(&self, x: &[f32]) -> usize {
        assert_eq!(x.len() % self.in_dim, 0, "ragged input batch");
        x.len() / self.in_dim
    }

    /// The forward kernel: computes `y = x·Wᵀ + b` one `SB × OB` register
    /// tile at a time and hands each finished run of one sample's
    /// consecutive outputs to `store(offset into y, values)`; every
    /// element of `y` is stored exactly once.
    ///
    /// Each output is `((b + x₀w₀) + x₁w₁) + …` — the chain a scalar
    /// left-to-right dot product folds — but a tile carries `SB × OB`
    /// such chains through `k` together, and the `OB` chains of one sample
    /// read one contiguous row of `packed`, so the inner loop is an
    /// independent-lane multiply-then-add the compiler vectorises. The
    /// speed comes from vectorising *across* outputs; the order *within*
    /// an output never changes, so no bit does.
    ///
    /// `x` must be whole rows: callers size `y` from [`Linear::batch_of`],
    /// which rejects a ragged batch.
    pub(crate) fn forward_tiles(
        &self,
        x: &[f32],
        packed: &mut Vec<f32>,
        mut store: impl FnMut(usize, &[f32]),
    ) {
        debug_assert_eq!(x.len() % self.in_dim, 0, "ragged input batch");
        self.pack_panels(packed);
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        for (p, panel) in packed.chunks_exact(in_dim * OB).enumerate() {
            let o = p * OB;
            let n = OB.min(out_dim - o);
            let mut bias = [0.0f32; OB];
            bias[..n].copy_from_slice(&self.bias[o..o + n]);
            let mut at = o;
            let mut emit = |row: &[f32; OB]| {
                // A full panel stores a compile-time width.
                if n == OB {
                    store(at, row);
                } else {
                    store(at, &row[..n]);
                }
                at += out_dim;
            };
            let mut blocks = x.chunks_exact(SB * in_dim);
            for block in &mut blocks {
                tile::<SB>(block, in_dim, panel, &bias)
                    .iter()
                    .for_each(&mut emit);
            }
            for xs in blocks.remainder().chunks_exact(in_dim) {
                tile::<1>(xs, in_dim, panel, &bias)
                    .iter()
                    .for_each(&mut emit);
            }
        }
    }

    /// Rebuilds the k-major copy of the weights the tiles stream: panel
    /// `p` holds outputs `p·OB..(p+1)·OB` as `in_dim` rows of `OB` lanes
    /// (`packed[(p·in_dim + k)·OB + j] = W[(p·OB + j)·in_dim + k]`), the
    /// last panel zero-padded, so lanes past `out_dim` compute on zeros and
    /// are never stored. `in·out` moves against the forward's
    /// `batch·in·out` multiply-adds.
    fn pack_panels(&self, packed: &mut Vec<f32>) {
        let panel_len = self.in_dim * OB;
        packed.clear();
        packed.resize(self.out_dim.div_ceil(OB) * panel_len, 0.0);
        for (o, w) in self.weights.chunks_exact(self.in_dim).enumerate() {
            let lane = &mut packed[o / OB * panel_len + o % OB..];
            for (dst, &v) in lane.iter_mut().step_by(OB).zip(w) {
                *dst = v;
            }
        }
    }

    /// Backward pass: given the forward input `x` and the output gradient
    /// `dy`, returns `dx` and applies the SGD update
    /// `W -= lr·dyᵀx, b -= lr·Σ dy` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn backward(&mut self, x: &[f32], dy: &[f32], lr: f32) -> Vec<f32> {
        let mut dx = Vec::new();
        self.backward_into(x, dy, lr, &mut dx);
        dx
    }

    /// [`Linear::backward`] writing `dx` into a reusable buffer (cleared
    /// and refilled in place).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn backward_into(&mut self, x: &[f32], dy: &[f32], lr: f32, dx: &mut Vec<f32>) {
        let batch = self.batch_of(x);
        assert_eq!(dy.len(), batch * self.out_dim, "gradient shape mismatch");
        dx.clear();
        dx.resize(batch * self.in_dim, 0.0);
        // dx = dy · W
        for (dys, dxs) in dy
            .chunks_exact(self.out_dim)
            .zip(dx.chunks_exact_mut(self.in_dim))
        {
            for (&g, w) in dys.iter().zip(self.weights.chunks_exact(self.in_dim)) {
                kernels::axpy(dxs, g, w);
            }
        }
        // W -= lr · dyᵀ · x ; b -= lr · Σ_batch dy
        for (xs, dys) in x
            .chunks_exact(self.in_dim)
            .zip(dy.chunks_exact(self.out_dim))
        {
            for ((&g, w), b) in dys
                .iter()
                .zip(self.weights.chunks_exact_mut(self.in_dim))
                .zip(self.bias.iter_mut())
            {
                let step = lr * g;
                kernels::axpy(w, -step, xs);
                *b -= step;
            }
        }
    }

    /// Exact bitwise equality of parameters (see
    /// `EmbeddingTable::bit_eq` for why tests need this).
    pub fn bit_eq(&self, other: &Linear) -> bool {
        self.in_dim == other.in_dim
            && self.out_dim == other.out_dim
            && self
                .weights
                .iter()
                .zip(&other.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self
                .bias
                .iter()
                .zip(&other.bias)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One register tile: `R` samples (`xs`, `R × in_dim`) against one packed
/// panel (`in_dim × OB`), every accumulator row starting from `bias`.
#[inline]
fn tile<const R: usize>(
    xs: &[f32],
    in_dim: usize,
    panel: &[f32],
    bias: &[f32; OB],
) -> [[f32; OB]; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &xs[r * in_dim..(r + 1) * in_dim]);
    let mut acc = [*bias; R];
    for (k, w) in panel.chunks_exact(OB).enumerate() {
        for (row, acc) in rows.iter().zip(&mut acc) {
            let xv = row[k];
            for (a, &wv) in acc.iter_mut().zip(w) {
                *a += xv * wv;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2→2 layer with hand-written weights for exact arithmetic checks.
    fn fixture() -> Linear {
        let mut l = Linear::seeded(2, 2, 0);
        l.weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        l.bias.copy_from_slice(&[0.5, -0.5]);
        l
    }

    #[test]
    fn forward_matches_hand_computation() {
        let l = fixture();
        // x = (1, 1): y0 = 1+2+0.5 = 3.5; y1 = 3+4-0.5 = 6.5
        let y = l.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
        // batch of two
        let y = l.forward(&[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(y, vec![1.5, 2.5, 2.5, 3.5]);
    }

    #[test]
    fn backward_dx_matches_hand_computation() {
        let mut l = fixture();
        // dy = (1, 1): dx = dy·W = (1·1+1·3, 1·2+1·4) = (4, 6)
        let dx = l.backward(&[1.0, 1.0], &[1.0, 1.0], 0.0);
        assert_eq!(dx, vec![4.0, 6.0]);
    }

    #[test]
    fn sgd_update_moves_weights_down_gradient() {
        let mut l = fixture();
        let _ = l.backward(&[1.0, 2.0], &[1.0, 0.0], 0.1);
        // dW row 0 = dy0 · x = (1, 2); W row 0 -= 0.1·(1,2) → (0.9, 1.8)
        assert_eq!(&l.weights[..2], &[0.9, 1.8]);
        // Row 1 has zero gradient — untouched.
        assert_eq!(&l.weights[2..], &[3.0, 4.0]);
        assert_eq!(l.bias, vec![0.4, -0.5]);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numeric gradient of a scalar loss L = Σ y wrt one weight.
        let l = Linear::seeded(3, 2, 7);
        let x = vec![0.3, -0.2, 0.8, 0.1, 0.5, -0.6];
        let eps = 1e-3f32;
        let loss = |layer: &Linear| -> f32 { layer.forward(&x).iter().sum() };
        // Analytic: dL/dW[o][i] = Σ_batch x[s][i] (since dy = 1).
        let mut l_mut = l.clone();
        let before = l.weights.clone();
        let dy = vec![1.0f32; 4];
        let _ = l_mut.backward(&x, &dy, 1.0); // lr=1 → ΔW = -dW
        for (idx, &w_before) in before.iter().enumerate() {
            let analytic = w_before - l_mut.weights[idx]; // dW[idx]
            let mut lp = l.clone();
            lp.weights[idx] += eps;
            let mut lm = l.clone();
            lm.weights[idx] -= eps;
            let numeric = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "weight {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Linear::seeded(8, 4, 3);
        let b = Linear::seeded(8, 4, 3);
        assert!(a.bit_eq(&b));
        assert!(!a.bit_eq(&Linear::seeded(8, 4, 4)));
    }

    #[test]
    fn param_count() {
        let l = Linear::seeded(10, 5, 0);
        assert_eq!(l.param_count(), 55);
        assert_eq!(l.in_dim(), 10);
        assert_eq!(l.out_dim(), 5);
    }

    #[test]
    #[should_panic(expected = "ragged input batch")]
    fn ragged_input_rejected() {
        let l = Linear::seeded(3, 2, 0);
        let _ = l.forward(&[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn bad_gradient_shape_rejected() {
        let mut l = Linear::seeded(2, 2, 0);
        let _ = l.backward(&[1.0, 2.0], &[1.0; 3], 0.1);
    }

    /// The per-output scalar forward the tiled kernel replaced: one
    /// left-to-right `dot_from` chain per output element.
    fn forward_reference(l: &Linear, x: &[f32]) -> Vec<f32> {
        x.chunks_exact(l.in_dim)
            .flat_map(|xs| {
                l.weights
                    .chunks_exact(l.in_dim)
                    .zip(&l.bias)
                    .map(move |(w, &b)| kernels::dot_from(b, xs, w))
            })
            .collect()
    }

    fn assert_forward_matches_reference(l: &Linear, x: &[f32]) {
        let want = forward_reference(l, x);
        let mut got = vec![f32::NAN; 3]; // dirty, wrong-sized
        l.forward_into(x, &mut got);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "output {i}: {g} vs {w}");
        }
    }

    /// A layer and a batch whose every operand is `pick(rng)`.
    fn layer_and_batch(
        in_dim: usize,
        out_dim: usize,
        batch: usize,
        rng: &mut StdRng,
        pick: impl Fn(&mut StdRng) -> f32,
    ) -> (Linear, Vec<f32>) {
        let mut l = Linear::seeded(in_dim, out_dim, 0);
        l.weights.iter_mut().for_each(|w| *w = pick(rng));
        l.bias.iter_mut().for_each(|b| *b = pick(rng));
        let x = (0..batch * in_dim).map(|_| pick(rng)).collect();
        (l, x)
    }

    proptest::proptest! {
        /// Shapes straddle both tile dimensions: `out = 1`, `in = 1`, a
        /// batch smaller than a tile, an empty batch.
        #[test]
        fn tiled_forward_is_bit_identical_to_the_scalar_reference(
            in_dim in 1usize..=80,
            out_dim in 1usize..=40,
            batch in 0usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            // Signed, spread over 2⁻⁴..2³, never denormal.
            let pick = |rng: &mut StdRng| {
                let magnitude = rng.gen_range(0.5f32..1.0) * [0.125, 1.0, 8.0][rng.gen_range(0..3usize)];
                if rng.gen_bool(0.5) { magnitude } else { -magnitude }
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (l, x) = layer_and_batch(in_dim, out_dim, batch, &mut rng, pick);
            assert_forward_matches_reference(&l, &x);
        }
    }

    #[test]
    fn tiled_forward_keeps_the_sign_of_zero() {
        // Products and sums of signed zeros: -0.0 survives only if every
        // term of a chain is -0.0, so any reordering or a +0.0 padding
        // lane leaking into a sum would flip bits here.
        let pick = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.5,
            _ => -1.5,
        };
        let mut rng = StdRng::seed_from_u64(5);
        for (in_dim, out_dim, batch) in [(1, 1, 1), (3, 9, 5), (17, 8, 4), (9, 23, 7)] {
            let (mut l, x) = layer_and_batch(in_dim, out_dim, batch, &mut rng, pick);
            assert_forward_matches_reference(&l, &x);
            l.bias.fill(-0.0);
            l.weights.fill(0.0);
            assert_forward_matches_reference(&l, &x);
        }
    }

    #[test]
    fn tiled_forward_reproduces_cancellation() {
        // ±2²⁴ terms swamp and then cancel around small ones, so each
        // output depends on exactly where in the chain every add happens.
        let pick = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => 4096.0,
            1 => -4096.0,
            _ => rng.gen_range(-1.0f32..1.0),
        };
        let mut rng = StdRng::seed_from_u64(6);
        for (in_dim, out_dim, batch) in [(40, 11, 6), (64, 16, 8), (80, 40, 9)] {
            let (l, x) = layer_and_batch(in_dim, out_dim, batch, &mut rng, pick);
            let y = forward_reference(&l, &x);
            assert!(y.iter().any(|v| v.abs() < 4096.0), "nothing cancelled");
            assert_forward_matches_reference(&l, &x);
        }
    }
}
