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

/// A contiguous run of samples' share of one layer's SGD update, as
/// [`Linear::pack_update`] left it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpdateRows<'a> {
    /// The layer input, `n × in_dim`.
    pub(crate) x: &'a [f32],
    /// `x` as zero-padded `KB`-lane panels: panel `p` holds lanes
    /// `p·KB..(p+1)·KB` of every sample, `n` rows of `KB`.
    pub(crate) x_panels: &'a [f32],
    /// The steps `t = −(lr·dy)`, `n × out_dim`.
    pub(crate) steps: &'a [f32],
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
    /// [`Mlp`](crate::Mlp) reuse the ones in its activation cache instead.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `in_dim`.
    #[cfg(test)]
    pub(crate) fn forward_into(&self, x: &[f32], y: &mut Vec<f32>) {
        y.resize(self.batch_of(x) * self.out_dim, 0.0);
        let mut packed = Vec::new();
        self.pack_panels(&mut packed);
        self.forward_tiles(x, &packed, |at, vals| {
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
    /// `packed` is [`Linear::pack_panels`]'s copy of the weights. `x` must
    /// be whole rows: callers size `y` from [`Linear::batch_of`], which
    /// rejects a ragged batch.
    pub(crate) fn forward_tiles(
        &self,
        x: &[f32],
        packed: &[f32],
        mut store: impl FnMut(usize, &[f32]),
    ) {
        debug_assert_eq!(x.len() % self.in_dim, 0, "ragged input batch");
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

    /// Rebuilds the k-major copy of the weights the forward tiles stream:
    /// panel `p` holds outputs `p·OB..(p+1)·OB` as `in_dim` rows of `OB`
    /// lanes (`packed[(p·in_dim + k)·OB + j] = W[(p·OB + j)·in_dim + k]`),
    /// the last panel zero-padded, so lanes past `out_dim` compute on zeros
    /// and are never stored. `in·out` moves against the forward's
    /// `batch·in·out` multiply-adds, written in order.
    pub(crate) fn pack_panels(&self, packed: &mut Vec<f32>) {
        let in_dim = self.in_dim;
        packed.clear();
        packed.reserve(self.out_dim.div_ceil(OB) * in_dim * OB);
        for rows in self.weights.chunks(OB * in_dim) {
            let mut lanes = [0.0f32; OB];
            for k in 0..in_dim {
                for (lane, row) in lanes.iter_mut().zip(rows.chunks_exact(in_dim)) {
                    *lane = row[k];
                }
                packed.extend_from_slice(&lanes);
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
    /// and refilled in place): [`Linear::input_gradient_into`] and
    /// [`Linear::pack_update`], then the update as one [`RowBlock`], the
    /// way an [`Mlp`](crate::Mlp) runs a layer.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    #[cfg(test)]
    pub(crate) fn backward_into(&mut self, x: &[f32], dy: &[f32], lr: f32, dx: &mut Vec<f32>) {
        assert_eq!(
            dy.len(),
            self.batch_of(x) * self.out_dim,
            "gradient shape mismatch"
        );
        self.input_gradient_into(dy, dx, &mut Vec::new());
        let (mut x_panels, mut steps) = (Vec::new(), dy.to_vec());
        self.pack_update(x, &mut steps, lr, &mut x_panels);
        let rows = UpdateRows {
            x,
            x_panels: &x_panels,
            steps: &steps,
        };
        for block in self.row_blocks(1) {
            block.sgd(std::iter::once(rows));
        }
    }

    /// The backward as its definition reads: into a zeroed `dx`, one
    /// [`kernels::axpy`] over a row of `dx` per output; then per sample one
    /// over every row of `W` and one step off every bias. It is what the
    /// tiles are tested against.
    #[cfg(test)]
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

    /// The backward's first half, `dx = dy·W` into `dx` (resized and
    /// overwritten), each element the chain the elementwise form folds —
    /// one [`kernels::axpy`] over a row of `dx` per output, `o` ascending:
    /// `dx[s][k] = ((0 + dy[s][0]·W[0][k]) + dy[s][1]·W[1][k]) + …`.
    /// [`dx_tile`] carries `R × KB` such chains through `o` together; a
    /// layer with fewer than `OBW` outputs runs the `axpy`s themselves (its
    /// `dx` is under `OBW` products per element).
    ///
    /// Each sample's `dx` reads only its own `dy` row and `W`, so any split
    /// of the batch computes the same bits. `padded` holds the zero-padded
    /// weight copy a layer narrower than `KB` reads.
    ///
    /// # Panics
    ///
    /// Panics if `dy` is not whole rows of `out_dim`.
    pub(crate) fn input_gradient_into(&self, dy: &[f32], dx: &mut Vec<f32>, padded: &mut Vec<f32>) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        assert_eq!(dy.len() % out_dim, 0, "gradient shape mismatch");
        dx.clear();
        dx.resize(dy.len() / out_dim * in_dim, 0.0);
        if out_dim < OBW {
            for (dys, dxs) in dy.chunks_exact(out_dim).zip(dx.chunks_exact_mut(in_dim)) {
                for (&g, w) in dys.iter().zip(self.weights.chunks_exact(in_dim)) {
                    kernels::axpy(dxs, g, w);
                }
            }
            return;
        }
        if in_dim < KB {
            // Rows narrower than a tile are read from a zero-padded copy;
            // the lanes past `in_dim` are computed and dropped.
            let rows = self.weights.chunks_exact(in_dim);
            pack_columns::<KB>(rows, out_dim, 0..in_dim, padded);
            dx_blocks(dy, out_dim, padded, KB, 0, |s, row| {
                dx[s * in_dim..(s + 1) * in_dim].copy_from_slice(&row[..in_dim]);
            });
            return;
        }
        // `k`-blocks are the outer loop so the `out_dim × KB` slab of `W` a
        // block reads stays cached across the batch. A ragged last block
        // overlaps the one before it: `dx` is a pure function of `dy` and
        // `W`, so the shared lanes are computed and stored twice with the
        // same bits.
        for k in (0..in_dim).step_by(KB).map(|k| k.min(in_dim - KB)) {
            dx_blocks(dy, out_dim, &self.weights, in_dim, k, |s, row| {
                dx[s * in_dim + k..][..KB].copy_from_slice(row);
            });
        }
    }

    /// Readies a run of samples' share of the update (see
    /// [`UpdateRows`]), once its `dx` is taken: turns the output gradient
    /// `dy` (`n × out_dim`) into the steps `−(lr·dy)` in place, and packs
    /// `x` (`n × in_dim`) into `x_panels` (cleared and refilled; nothing
    /// for a layer with fewer than `OBW` outputs, which updates from the
    /// rows themselves). Per sample, like the `dx`: any split of the batch
    /// computes the same rows.
    pub(crate) fn pack_update(&self, x: &[f32], dy: &mut [f32], lr: f32, x_panels: &mut Vec<f32>) {
        for g in dy.iter_mut() {
            *g = -(lr * *g);
        }
        x_panels.clear();
        if self.out_dim >= OBW {
            let in_dim = self.in_dim;
            let n = x.len() / in_dim;
            pack_columns::<KB>(x.chunks_exact(in_dim), n, 0..in_dim, x_panels);
        }
    }

    /// The backward's second half, the SGD update, cut into at most
    /// `blocks` disjoint blocks of weight rows (and their biases), in row
    /// order. Each block's update is a pure function of its own rows and
    /// the batch, so the blocks may run anywhere, in any order.
    pub(crate) fn row_blocks(&mut self, blocks: usize) -> impl Iterator<Item = RowBlock<'_>> {
        // Whole `OBW` panels, as evenly as they go.
        let rows = self.out_dim.div_ceil(OBW).div_ceil(blocks.max(1)) * OBW;
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        self.weights
            .chunks_mut(rows * in_dim)
            .zip(self.bias.chunks_mut(rows))
            .enumerate()
            .map(move |(i, (weights, bias))| RowBlock {
                in_dim,
                out_dim,
                first: i * rows,
                weights,
                bias,
            })
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

/// Rows `first..first + bias.len()` of a [`Linear`] layer's parameters:
/// one shard of its SGD update (see [`Linear::row_blocks`]).
#[derive(Debug)]
pub(crate) struct RowBlock<'a> {
    in_dim: usize,
    out_dim: usize,
    first: usize,
    weights: &'a mut [f32],
    bias: &'a mut [f32],
}

impl RowBlock<'_> {
    /// `W -= lr · dyᵀ · x ; b -= lr · Σ_batch dy` over this block's rows,
    /// the batch being the samples of `parts` in order: each part is a
    /// contiguous run of samples, readied by [`Linear::pack_update`].
    ///
    /// Every element keeps the chain the elementwise form folds, `s`
    /// ascending over the whole batch: `W[o][k] = ((W[o][k] + t[0][o]·x[0][k])
    /// + t[1][o]·x[1][k]) + …` with `t[s][o] = −(lr·dy[s][o])`, and each
    /// bias adds `t[s][o]` — the same as subtracting `lr·dy[s][o]`, since
    /// IEEE-754 subtraction is addition of the negation. [`sgd_tile`] holds
    /// an `OBW × KB` block of `W` in registers across every part and stores
    /// it once, where the elementwise form read and wrote the matrix once
    /// per sample. A layer with fewer than `OBW` outputs runs the
    /// elementwise form itself: there is no block of `W` to keep in
    /// registers, and packing `x` costs as much as the update
    /// (`docs/perf.md` has the 128 × 1 timings).
    ///
    /// Blocks never overlap (an overlapped lane would be updated twice): a
    /// ragged `k` tail loads and stores only its own lanes and computes the
    /// rest on the panels' zero padding, and a ragged output tail runs one
    /// row at a time.
    pub(crate) fn sgd<'x>(self, parts: impl Iterator<Item = UpdateRows<'x>> + Clone) {
        let RowBlock {
            in_dim,
            out_dim,
            first,
            weights,
            bias,
        } = self;
        let cols = first..first + bias.len();
        if out_dim < OBW {
            for part in parts {
                let rows = part
                    .x
                    .chunks_exact(in_dim)
                    .zip(part.steps.chunks_exact(out_dim));
                for (xs, ts) in rows {
                    for ((&t, w), b) in ts[cols.clone()]
                        .iter()
                        .zip(weights.chunks_exact_mut(in_dim))
                        .zip(bias.iter_mut())
                    {
                        kernels::axpy(w, t, xs);
                        *b += t;
                    }
                }
            }
            return;
        }
        for part in parts.clone() {
            for ts in part.steps.chunks_exact(out_dim) {
                for (b, &t) in bias.iter_mut().zip(&ts[cols.clone()]) {
                    *b += t;
                }
            }
        }
        for (p, k) in (0..in_dim).step_by(KB).enumerate() {
            let n = KB.min(in_dim - k);
            // Panel `p` of each part: its rows of `KB` lanes.
            let parts = parts.clone().map(|part| {
                let rows = part.x.len() / in_dim;
                (
                    &part.x_panels[p * rows * KB..(p + 1) * rows * KB],
                    part.steps,
                )
            });
            let mut blocks = weights.chunks_exact_mut(OBW * in_dim);
            for (o, w) in (first..).step_by(OBW).zip(&mut blocks) {
                sgd_tile::<OBW>(w, in_dim, k, n, parts.clone(), out_dim, o);
            }
            let rows = blocks.into_remainder().chunks_exact_mut(in_dim);
            for (o, w) in (first + bias.len() / OBW * OBW..).zip(rows) {
                sgd_tile::<1>(w, in_dim, k, n, parts.clone(), out_dim, o);
            }
        }
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
/// `o..o + N` of `W` (`w`, `N × in_dim`) are loaded, take
/// `t[s][o + r] · x[s][j]` for every sample `s` of every part in order
/// (each part one `k`-panel of `x` and its steps, `out_dim` wide), and are
/// stored back. Lanes past `n` start from zero, run on the panel's zero
/// padding and are dropped.
#[inline]
fn sgd_tile<'p, const N: usize>(
    w: &mut [f32],
    in_dim: usize,
    k: usize,
    n: usize,
    parts: impl Iterator<Item = (&'p [f32], &'p [f32])>,
    out_dim: usize,
    o: usize,
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
    for (xs, steps) in parts {
        for (x, ts) in xs.chunks_exact(KB).zip(steps.chunks_exact(out_dim)) {
            let ts: &[f32; N] = ts[o..o + N].try_into().expect("N steps");
            for (acc, &t) in acc.iter_mut().zip(ts) {
                for (a, &xv) in acc.iter_mut().zip(x) {
                    *a += t * xv;
                }
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

/// Repacks columns `cols` of `batch` rows as `L`-lane panels: panel `p`
/// holds columns `cols.start + p·L..` of every row, `batch` rows of `L`,
/// the last panel zero-padded
/// (`panels[(p·batch + s)·L + j] = rows[s][cols.start + p·L + j]`).
fn pack_columns<'r, const L: usize>(
    rows: impl Iterator<Item = &'r [f32]>,
    batch: usize,
    cols: Range<usize>,
    panels: &mut Vec<f32>,
) {
    panels.clear();
    panels.resize(cols.len().div_ceil(L) * batch * L, 0.0);
    for (s, row) in rows.enumerate() {
        let mut at = s * L;
        let mut chunks = row[cols.clone()].chunks_exact(L);
        for lanes in &mut chunks {
            panels[at..at + L].copy_from_slice(lanes);
            at += batch * L;
        }
        for (dst, &v) in panels.iter_mut().skip(at).zip(chunks.remainder()) {
            *dst = v;
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
