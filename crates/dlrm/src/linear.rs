//! Fully-connected layers with explicit forward/backward.

use crate::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Samples per register tile of the forward kernel.
const SB: usize = 4;
/// Outputs per register tile, and the lane width of a packed weight panel.
/// `SB × OB` = 4 × 16 accumulators fill eight of AVX's sixteen 8-lane
/// registers, leaving room for a panel row and the broadcast inputs; the
/// other shapes tried are in `docs/perf.md`.
const OB: usize = 16;
/// Consecutive `k` lanes per register tile of the backward kernel (both
/// `dx` and the SGD update), and the lane width of a packed `x` panel.
const KB: usize = 16;
/// Samples per `dx` tile: `R × KB` accumulators, eight 8-lane registers.
const R: usize = 4;
/// Weight rows per SGD-update tile: `OBW × KB` weights, eight 8-lane
/// registers, and the lane width of a packed step panel.
const OBW: usize = 4;

/// The backward kernel's reusable buffers, rebuilt by every
/// [`Linear::backward_tiles`] call (sized by the largest layer seen).
#[derive(Debug, Clone, Default)]
pub(crate) struct BackwardScratch {
    /// Lanes `k..k + KB` of every sample of the layer input, zero-padded
    /// past `in_dim`: `batch` rows of `KB`, repacked per `k`-block.
    x_panel: Vec<f32>,
    /// The SGD steps `−(lr·dy)` as zero-padded output panels: panel `p`
    /// holds outputs `p·OBW..(p+1)·OBW` of every sample, `batch` rows of
    /// `OBW`.
    steps: Vec<f32>,
    /// A layer narrower than `KB`: its weight rows zero-padded to `KB`.
    padded_w: Vec<f32>,
}

/// A dense layer `y = x·Wᵀ + b` over row-major batches.
///
/// Weights are stored `out_dim × in_dim`. The layer owns no optimizer
/// state beyond the weights themselves; its backward pass (driven by
/// [`crate::Mlp::backward`]) applies a plain SGD update immediately
/// (matching the paper's SGD training).
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
    pub(crate) fn seeded(in_dim: usize, out_dim: usize, seed: u64) -> Self {
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
    #[cfg(test)]
    pub(crate) fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub(crate) fn out_dim(&self) -> usize {
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

    /// Forward pass for a batch of `x.len() / in_dim` rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`.
    #[cfg(test)]
    pub(crate) fn forward(&self, x: &[f32]) -> Vec<f32> {
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
    #[cfg(test)]
    pub(crate) fn forward_into(&self, x: &[f32], y: &mut Vec<f32>) {
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
    #[cfg(test)]
    pub(crate) fn backward(&mut self, x: &[f32], dy: &[f32], lr: f32) -> Vec<f32> {
        let mut dx = Vec::new();
        self.backward_into(x, dy, lr, &mut dx);
        dx
    }

    /// [`Linear::backward`] writing `dx` into a reusable buffer (cleared
    /// and refilled in place). The kernel's packed copies are allocated per
    /// call; layers inside an [`Mlp`](crate::Mlp) reuse the ones in its
    /// activation cache instead.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    #[cfg(test)]
    pub(crate) fn backward_into(&mut self, x: &[f32], dy: &[f32], lr: f32, dx: &mut Vec<f32>) {
        self.backward_tiles(x, dy, lr, dx, &mut BackwardScratch::default());
    }

    /// The backward kernel: `dx = dy·W`, then `W -= lr·dyᵀx, b -= lr·Σ dy`,
    /// each as a register tile that keeps every element's accumulation
    /// chain exactly as the elementwise form folds it — one
    /// [`kernels::axpy`] over a row of `dx` per output, then one over a row
    /// of `W` per sample per output:
    ///
    /// * `dx[s][k] = ((0 + dy[s][0]·W[0][k]) + dy[s][1]·W[1][k]) + …`, `o`
    ///   ascending — [`dx_tile`] carries `R × KB` such chains through `o`
    ///   together;
    /// * `W[o][k] = ((W[o][k] + t[0][o]·x[0][k]) + t[1][o]·x[1][k]) + …`
    ///   with `t[s][o] = −(lr·dy[s][o])`, `s` ascending — [`sgd_tile`]
    ///   holds an `OBW × KB` block of `W` in registers for the whole batch
    ///   and stores it once, where the elementwise form read and wrote the
    ///   matrix once per sample; each bias subtracts `lr·dy[s][o]`, `s`
    ///   ascending, as it always did.
    ///
    /// As in the forward, the speed comes from which chains run side by
    /// side; the order within a chain never changes, so no bit does. A
    /// layer with fewer than `OBW` outputs has no block to tile and runs
    /// [`Linear::backward_elementwise`] itself.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub(crate) fn backward_tiles(
        &mut self,
        x: &[f32],
        dy: &[f32],
        lr: f32,
        dx: &mut Vec<f32>,
        scratch: &mut BackwardScratch,
    ) {
        let batch = self.batch_of(x);
        assert_eq!(dy.len(), batch * self.out_dim, "gradient shape mismatch");
        dx.clear();
        dx.resize(batch * self.in_dim, 0.0);
        if self.out_dim < OBW {
            return self.backward_elementwise(x, dy, lr, dx);
        }
        self.input_gradient(dy, dx, &mut scratch.padded_w);
        self.sgd_update(x, dy, lr, scratch);
    }

    /// The backward as its definition reads: into a zeroed `dx`, one
    /// [`kernels::axpy`] over a row of `dx` per output; then per sample one
    /// over every row of `W` and one step off every bias. It is what the
    /// tiles are tested against, and what a layer with fewer than `OBW`
    /// outputs runs: there is no block of `W` to keep in registers, `dx` is
    /// under `OBW` products per element, and packing `x` costs as much as
    /// the update itself (`docs/perf.md` has the 128 × 1 timings).
    fn backward_elementwise(&mut self, x: &[f32], dy: &[f32], lr: f32, dx: &mut [f32]) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        for (dys, dxs) in dy.chunks_exact(out_dim).zip(dx.chunks_exact_mut(in_dim)) {
            for (&g, w) in dys.iter().zip(self.weights.chunks_exact(in_dim)) {
                kernels::axpy(dxs, g, w);
            }
        }
        for (xs, dys) in x.chunks_exact(in_dim).zip(dy.chunks_exact(out_dim)) {
            for ((&g, w), b) in dys
                .iter()
                .zip(self.weights.chunks_exact_mut(in_dim))
                .zip(self.bias.iter_mut())
            {
                let step = lr * g;
                kernels::axpy(w, -step, xs);
                *b -= step;
            }
        }
    }

    /// `dx = dy · W` into a zeroed `dx`. `k`-blocks are the outer loop so
    /// the `out_dim × KB` slab of `W` a block reads stays cached across the
    /// batch. A ragged last block overlaps the one before it: `dx` is a
    /// pure function of `dy` and `W`, so the shared lanes are computed and
    /// stored twice with the same bits.
    fn input_gradient(&self, dy: &[f32], dx: &mut [f32], padded: &mut Vec<f32>) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        if in_dim < KB {
            // Rows narrower than a tile are read from a zero-padded copy;
            // the lanes past `in_dim` are computed and dropped.
            pack_columns::<KB>(&self.weights, in_dim, 0..in_dim, padded, |v| v);
            dx_blocks(dy, out_dim, padded, KB, 0, |s, row| {
                dx[s * in_dim..(s + 1) * in_dim].copy_from_slice(&row[..in_dim]);
            });
            return;
        }
        for k in (0..in_dim).step_by(KB).map(|k| k.min(in_dim - KB)) {
            dx_blocks(dy, out_dim, &self.weights, in_dim, k, |s, row| {
                dx[s * in_dim + k..][..KB].copy_from_slice(row);
            });
        }
    }

    /// `W -= lr · dyᵀ · x ; b -= lr · Σ_batch dy`, one `OBW × KB` block of
    /// `W` at a time. `k`-blocks are the outer loop: each packs its panel
    /// of `x` (`batch × KB`, 16 KiB at batch 256) right before the output
    /// blocks that stream it, so they read it from L1. Blocks never
    /// overlap (an overlapped lane would be updated twice): a ragged `k`
    /// tail loads and stores only its own lanes and computes the rest on
    /// the panel's zero padding, and a ragged output tail runs one row at
    /// a time.
    fn sgd_update(&mut self, x: &[f32], dy: &[f32], lr: f32, s: &mut BackwardScratch) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let batch = dy.len() / out_dim;
        if batch == 0 {
            return;
        }
        for dys in dy.chunks_exact(out_dim) {
            for (b, &g) in self.bias.iter_mut().zip(dys) {
                *b -= lr * g;
            }
        }
        pack_columns::<OBW>(dy, out_dim, 0..out_dim, &mut s.steps, |g| -(lr * g));
        let (steps, tail) = s.steps.split_at(out_dim / OBW * batch * OBW);
        for k in (0..in_dim).step_by(KB) {
            let n = KB.min(in_dim - k);
            pack_columns::<KB>(x, in_dim, k..k + n, &mut s.x_panel, |v| v);
            let mut blocks = self.weights.chunks_exact_mut(OBW * in_dim);
            for (w, t) in (&mut blocks).zip(steps.chunks_exact(batch * OBW)) {
                sgd_tile::<OBW>(w, in_dim, k, n, &s.x_panel, t, 0);
            }
            let rows = blocks.into_remainder().chunks_exact_mut(in_dim);
            for (lane, w) in rows.enumerate() {
                sgd_tile::<1>(w, in_dim, k, n, &s.x_panel, tail, lane);
            }
        }
    }

    /// Exact bitwise equality of parameters (see
    /// `EmbeddingTable::bit_eq` for why tests need this).
    pub(crate) fn bit_eq(&self, other: &Linear) -> bool {
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

/// One register tile: `N` samples (`xs`, `N × in_dim`) against one packed
/// panel (`in_dim × OB`), every accumulator row starting from `bias`.
#[inline]
fn tile<const N: usize>(
    xs: &[f32],
    in_dim: usize,
    panel: &[f32],
    bias: &[f32; OB],
) -> [[f32; OB]; N] {
    let rows: [&[f32]; N] = std::array::from_fn(|r| &xs[r * in_dim..(r + 1) * in_dim]);
    let mut acc = [*bias; N];
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

/// Lanes `k..k + KB` of `dx` for the whole batch, `R` samples per tile
/// (a batch tail one sample per tile), each sample's finished lanes handed
/// to `store(sample, lanes)`.
fn dx_blocks(
    dy: &[f32],
    out_dim: usize,
    w: &[f32],
    stride: usize,
    k: usize,
    mut store: impl FnMut(usize, &[f32; KB]),
) {
    let mut s = 0;
    let mut emit = |row: &[f32; KB]| {
        store(s, row);
        s += 1;
    };
    let mut blocks = dy.chunks_exact(R * out_dim);
    for block in &mut blocks {
        dx_tile::<R>(block, out_dim, w, stride, k)
            .iter()
            .for_each(&mut emit);
    }
    for dys in blocks.remainder().chunks_exact(out_dim) {
        dx_tile::<1>(dys, out_dim, w, stride, k)
            .iter()
            .for_each(&mut emit);
    }
}

/// One `dx` register tile: `N` samples' gradients (`dys`, `N × out_dim`)
/// against lanes `k..k + KB` of every row of `w` (`out_dim × in_dim`, read
/// in place), every accumulator starting from `+0.0`, `o` ascending.
#[inline]
fn dx_tile<const N: usize>(
    dys: &[f32],
    out_dim: usize,
    w: &[f32],
    stride: usize,
    k: usize,
) -> [[f32; KB]; N] {
    let rows: [&[f32]; N] = std::array::from_fn(|r| &dys[r * out_dim..(r + 1) * out_dim]);
    let mut acc = [[0.0f32; KB]; N];
    for (o, w) in w.chunks_exact(stride).enumerate() {
        let w = &w[k..k + KB];
        for (row, acc) in rows.iter().zip(&mut acc) {
            let g = row[o];
            for (a, &wv) in acc.iter_mut().zip(w) {
                *a += g * wv;
            }
        }
    }
    acc
}

/// One SGD-update register tile: lanes `k..k + n` of `N` consecutive rows
/// of `W` (`w`, `N × in_dim`) are loaded, take `t[s][lane + r] · x[s][j]`
/// for every sample `s` ascending (`xs` one `k`-panel, `steps` one output
/// panel), and are stored back. Lanes past `n` start from zero, run on
/// the panel's zero padding and are dropped.
#[inline]
fn sgd_tile<const N: usize>(
    w: &mut [f32],
    in_dim: usize,
    k: usize,
    n: usize,
    xs: &[f32],
    steps: &[f32],
    lane: usize,
) {
    let mut acc = [[0.0f32; KB]; N];
    for (acc, w) in acc.iter_mut().zip(w.chunks_exact(in_dim)) {
        // A full block moves a compile-time width.
        if n == KB {
            acc.copy_from_slice(&w[k..k + KB]);
        } else {
            acc[..n].copy_from_slice(&w[k..k + n]);
        }
    }
    for (x, t) in xs.chunks_exact(KB).zip(steps.chunks_exact(OBW)) {
        for (acc, &t) in acc.iter_mut().zip(&t[lane..lane + N]) {
            for (a, &xv) in acc.iter_mut().zip(x) {
                *a += t * xv;
            }
        }
    }
    for (acc, w) in acc.iter().zip(w.chunks_exact_mut(in_dim)) {
        if n == KB {
            w[k..k + KB].copy_from_slice(acc);
        } else {
            w[k..k + n].copy_from_slice(&acc[..n]);
        }
    }
}

/// Repacks columns `cols` of row-major `rows` (`batch × width`) as
/// `L`-lane panels: panel `p` holds `f` of columns `cols.start + p·L..`
/// of every row, `batch` rows of `L`, the last panel zero-padded
/// (`panels[(p·batch + s)·L + j] = f(rows[s·width + cols.start + p·L + j])`).
fn pack_columns<const L: usize>(
    rows: &[f32],
    width: usize,
    cols: Range<usize>,
    panels: &mut Vec<f32>,
    f: impl Fn(f32) -> f32,
) {
    let batch = rows.len() / width;
    panels.clear();
    panels.resize(cols.len().div_ceil(L) * batch * L, 0.0);
    for (s, row) in rows.chunks_exact(width).enumerate() {
        let mut at = s * L;
        let mut chunks = row[cols.clone()].chunks_exact(L);
        for lanes in &mut chunks {
            for (dst, &v) in panels[at..at + L].iter_mut().zip(lanes) {
                *dst = f(v);
            }
            at += batch * L;
        }
        for (dst, &v) in panels.iter_mut().skip(at).zip(chunks.remainder()) {
            *dst = f(v);
        }
    }
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

    /// Two steps in a row through both backwards — the second starts from
    /// the first's weights, so an update applied twice to an overlapped
    /// lane cannot pass — comparing `dx`, `W` and `b` bit for bit.
    fn assert_backward_matches_reference(l: &Linear, x: &[f32], dy: &[f32], lr: f32) {
        let (mut tiled, mut reference) = (l.clone(), l.clone());
        let mut got = vec![f32::NAN; 3]; // dirty, wrong-sized
        for step in 0..2 {
            let mut want = vec![0.0; x.len()];
            reference.backward_elementwise(x, dy, lr, &mut want);
            tiled.backward_into(x, dy, lr, &mut got);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "step {step} dx {i}: {g} vs {w}");
            }
            for (i, (g, w)) in tiled.weights.iter().zip(&reference.weights).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "step {step} W {i}: {g} vs {w}");
            }
            for (i, (g, w)) in tiled.bias.iter().zip(&reference.bias).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "step {step} b {i}: {g} vs {w}");
            }
        }
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

    /// A layer, a batch and an output gradient whose every operand is
    /// `pick(rng)`.
    fn layer_batch_and_gradient(
        in_dim: usize,
        out_dim: usize,
        batch: usize,
        rng: &mut StdRng,
        pick: impl Fn(&mut StdRng) -> f32,
    ) -> (Linear, Vec<f32>, Vec<f32>) {
        let (l, x) = layer_and_batch(in_dim, out_dim, batch, rng, &pick);
        let dy = (0..batch * out_dim).map(|_| pick(rng)).collect();
        (l, x, dy)
    }

    /// Signed, spread over 2⁻⁴..2³, never denormal.
    fn spread(rng: &mut StdRng) -> f32 {
        let magnitude = rng.gen_range(0.5f32..1.0) * [0.125, 1.0, 8.0][rng.gen_range(0..3usize)];
        if rng.gen_bool(0.5) {
            magnitude
        } else {
            -magnitude
        }
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
            let mut rng = StdRng::seed_from_u64(seed);
            let (l, x) = layer_and_batch(in_dim, out_dim, batch, &mut rng, spread);
            assert_forward_matches_reference(&l, &x);
        }

        /// Shapes straddle every tile dimension of both backward tiles:
        /// `in < KB`, `in % KB ≠ 0` (13, 74), `out < OBW`, `out % OBW ≠ 0`,
        /// an empty batch and a batch smaller than `R`.
        #[test]
        fn tiled_backward_is_bit_identical_to_the_axpy_reference(
            in_dim in 1usize..=80,
            out_dim in 1usize..=40,
            batch in 0usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (l, x, dy) = layer_batch_and_gradient(in_dim, out_dim, batch, &mut rng, spread);
            assert_backward_matches_reference(&l, &x, &dy, 0.3);
        }
    }

    #[test]
    fn tiled_backward_covers_the_named_ragged_shapes() {
        // The widths `train_bound` really has, whatever the proptest drew.
        let mut rng = StdRng::seed_from_u64(8);
        for (in_dim, out_dim, batch) in [(13, 128, 9), (74, 37, 6), (128, 1, 5), (80, 40, 3)] {
            let (l, x, dy) = layer_batch_and_gradient(in_dim, out_dim, batch, &mut rng, spread);
            assert_backward_matches_reference(&l, &x, &dy, 0.05);
        }
    }

    #[test]
    fn tiled_backward_keeps_the_sign_of_zero() {
        // Products and sums of signed zeros, as in the forward's case: any
        // reordering, or a padding lane's +0.0 leaking into a chain, would
        // flip bits here.
        let pick = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.5,
            _ => -1.5,
        };
        let mut rng = StdRng::seed_from_u64(9);
        for (in_dim, out_dim, batch) in [(1, 1, 1), (13, 9, 5), (17, 4, 4), (35, 23, 7)] {
            let (mut l, x, mut dy) =
                layer_batch_and_gradient(in_dim, out_dim, batch, &mut rng, pick);
            assert_backward_matches_reference(&l, &x, &dy, 0.5);
            // Every term of every `dx` chain is -0.0, so only a chain
            // started from +0.0 ends at +0.0.
            dy.fill(-0.0);
            l.weights.fill(1.5);
            assert_backward_matches_reference(&l, &x, &dy, 0.5);
            // Every step is +0.0: a weight of -0.0 keeps its sign only
            // where every `x` it meets is negative.
            l.weights.fill(-0.0);
            l.bias.fill(-0.0);
            assert_backward_matches_reference(&l, &x, &dy, 0.5);
        }
    }

    #[test]
    fn tiled_backward_reproduces_cancellation() {
        // ±2¹² terms swamp and then cancel around small ones, so every
        // `dx` and every weight depends on exactly where in its chain each
        // add happens.
        let pick = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => 4096.0,
            1 => -4096.0,
            _ => rng.gen_range(-1.0f32..1.0),
        };
        let mut rng = StdRng::seed_from_u64(10);
        for (in_dim, out_dim, batch) in [(40, 11, 6), (64, 16, 8), (80, 40, 9)] {
            let (l, x, dy) = layer_batch_and_gradient(in_dim, out_dim, batch, &mut rng, pick);
            let mut dx = vec![0.0; x.len()];
            l.clone().backward_elementwise(&x, &dy, 1.0, &mut dx);
            assert!(dx.iter().any(|v| v.abs() < 4096.0), "nothing cancelled");
            assert_backward_matches_reference(&l, &x, &dy, 1.0);
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
