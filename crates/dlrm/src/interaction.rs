//! DLRM dot-product feature interaction.
//!
//! The interaction stage (paper Figure 1) combines the bottom-MLP output
//! with every table's pooled embedding: all `T + 1` vectors (each of width
//! `d`) are paired and their dot products, concatenated after the bottom
//! output itself, form the top MLP's input of width `d + (T+1)·T/2`.
//!
//! Pooled embeddings arrive as **one flat buffer**: table `t` occupies
//! `t·batch·dim .. (t+1)·batch·dim`, and sample `s`'s pooled vector sits
//! at `s·dim` within that table block — the same stride-indexed layout the
//! ScratchPipe \[Train\] stage's pooled arena uses, so no per-table `Vec`s
//! are ever materialized on the hot path.

use crate::kernels;

/// Number of interaction features for `t` tables and width-`d` vectors:
/// `d + C(t+1, 2)`.
pub fn output_dim(num_tables: usize, dim: usize) -> usize {
    let v = num_tables + 1;
    dim + v * (v - 1) / 2
}

/// Forward interaction.
///
/// * `bottom` — bottom-MLP output, `batch × dim`.
/// * `pooled` — flat `num_tables × batch × dim` pooled embeddings.
///
/// Returns the `batch × output_dim` interaction output: for each sample,
/// the bottom vector followed by the upper-triangle pairwise dot products
/// in row-major `(i, j), i < j` order over the vector list
/// `[bottom, table_0, …, table_{T-1}]`.
///
/// # Panics
///
/// Panics if buffer shapes disagree.
pub fn forward(bottom: &[f32], pooled: &[f32], num_tables: usize, dim: usize) -> Vec<f32> {
    let mut out = Vec::new();
    forward_into(bottom, pooled, num_tables, dim, &mut out);
    out
}

/// [`forward`] into a reusable output buffer (cleared in place, so
/// repeated calls don't reallocate).
///
/// # Panics
///
/// Panics if buffer shapes disagree.
pub fn forward_into(
    bottom: &[f32],
    pooled: &[f32],
    num_tables: usize,
    dim: usize,
    out: &mut Vec<f32>,
) {
    forward_range(Operands::whole(bottom, pooled, num_tables, dim), out);
}

/// The vectors the interaction pairs up for a contiguous run of a batch's
/// samples: their bottom-MLP outputs and the whole batch's flat pooled
/// embeddings, which they index from sample `first` on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operands<'a> {
    bottom: &'a [f32],
    pooled: &'a [f32],
    num_tables: usize,
    dim: usize,
    /// Samples in the whole batch (the pooled buffer's table stride).
    batch: usize,
    first: usize,
}

impl<'a> Operands<'a> {
    /// Samples `first..first + bottom.len() / dim` of a `batch`-sample
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if buffer shapes disagree.
    pub(crate) fn range(
        bottom: &'a [f32],
        pooled: &'a [f32],
        num_tables: usize,
        dim: usize,
        batch: usize,
        first: usize,
    ) -> Self {
        assert_eq!(bottom.len() % dim, 0, "ragged bottom buffer");
        assert!(
            first + bottom.len() / dim <= batch,
            "samples past the batch"
        );
        assert_eq!(
            pooled.len(),
            num_tables * batch * dim,
            "pooled buffer shape mismatch"
        );
        Operands {
            bottom,
            pooled,
            num_tables,
            dim,
            batch,
            first,
        }
    }

    /// Every sample of the batch.
    fn whole(bottom: &'a [f32], pooled: &'a [f32], num_tables: usize, dim: usize) -> Self {
        Self::range(bottom, pooled, num_tables, dim, bottom.len() / dim, 0)
    }

    fn samples(&self) -> usize {
        self.bottom.len() / self.dim
    }

    /// Vector `v` of sample `s` (counted from `first`): the bottom output
    /// for `v = 0`, table `v − 1`'s pooled embedding otherwise.
    fn vector(&self, s: usize, v: usize) -> &'a [f32] {
        let dim = self.dim;
        if v == 0 {
            &self.bottom[s * dim..(s + 1) * dim]
        } else {
            let base = ((v - 1) * self.batch + self.first + s) * dim;
            &self.pooled[base..base + dim]
        }
    }

    /// The interaction-output row of each sample in `dout`, checked.
    fn rows<'g>(&self, dout: &'g [f32]) -> std::slice::ChunksExact<'g, f32> {
        let out_dim = output_dim(self.num_tables, self.dim);
        assert_eq!(
            dout.len(),
            self.samples() * out_dim,
            "output gradient shape"
        );
        dout.chunks_exact(out_dim)
    }
}

/// [`forward_into`] for the samples of `ops`.
pub(crate) fn forward_range(ops: Operands<'_>, out: &mut Vec<f32>) {
    let t = ops.num_tables;
    out.clear();
    out.reserve(ops.samples() * output_dim(t, ops.dim));
    for s in 0..ops.samples() {
        out.extend_from_slice(ops.vector(s, 0));
        for i in 0..=t {
            for j in (i + 1)..=t {
                out.push(kernels::dot_from(0.0, ops.vector(s, i), ops.vector(s, j)));
            }
        }
    }
}

/// Backward interaction: maps the gradient of the interaction output to
/// gradients of the bottom output and each pooled embedding.
///
/// `d_pooled` is a caller-provided flat `num_tables × batch × dim` buffer
/// (same layout as `pooled`); it is zeroed and then accumulated into, so a
/// reused arena needs no clearing by the caller. Returns `d_bottom` with
/// the same shape as `bottom`.
///
/// # Panics
///
/// Panics if buffer shapes disagree.
pub fn backward(
    bottom: &[f32],
    pooled: &[f32],
    num_tables: usize,
    dim: usize,
    dout: &[f32],
    d_pooled: &mut [f32],
) -> Vec<f32> {
    let ops = Operands::whole(bottom, pooled, num_tables, dim);
    assert_eq!(d_pooled.len(), pooled.len(), "pooled gradient buffer shape");
    let mut d_bottom = Vec::new();
    bottom_grad_into(ops, dout, &mut d_bottom);
    if !d_pooled.is_empty() {
        let stride = d_pooled.len() / num_tables;
        for (t, d_table) in d_pooled.chunks_exact_mut(stride).enumerate() {
            table_grad(ops, dout, t, d_table);
        }
    }
    d_bottom
}

/// The bottom-output half of [`backward`] for the samples of `ops`, into
/// `d_bottom` (resized and overwritten): each row the pass-through part of
/// its gradient, then one [`kernels::axpy`] per pair with the bottom
/// vector, in pair order.
///
/// # Panics
///
/// Panics if `dout` is not one interaction-output row per sample.
pub(crate) fn bottom_grad_into(ops: Operands<'_>, dout: &[f32], d_bottom: &mut Vec<f32>) {
    let dim = ops.dim;
    d_bottom.resize(ops.samples() * dim, 0.0);
    for (s, (g, row)) in ops
        .rows(dout)
        .zip(d_bottom.chunks_exact_mut(dim))
        .enumerate()
    {
        // Pass-through part: the first `dim` outputs are the bottom vector.
        row.copy_from_slice(&g[..dim]);
        // The pairs (0, j) come first in pair order.
        for (j, &gk) in (1..=ops.num_tables).zip(&g[dim..]) {
            if gk != 0.0 {
                kernels::axpy(row, gk, ops.vector(s, j));
            }
        }
    }
}

/// Table `t`'s half of [`backward`] for the samples of `ops`: `d_table`
/// holds their rows of table `t`'s pooled gradient (`samples × dim`), is
/// zeroed and takes one [`kernels::axpy`] per pair that contains the table,
/// in pair order — the chain [`backward`] folds into every element, since
/// it walks the same pairs in the same order for all owners at once.
///
/// # Panics
///
/// Panics if `dout` or `d_table` is not one row per sample.
pub(crate) fn table_grad(ops: Operands<'_>, dout: &[f32], t: usize, d_table: &mut [f32]) {
    let (dim, owner) = (ops.dim, t + 1);
    assert_eq!(d_table.len(), ops.samples() * dim, "table gradient shape");
    d_table.fill(0.0);
    for (s, (g, row)) in ops
        .rows(dout)
        .zip(d_table.chunks_exact_mut(dim))
        .enumerate()
    {
        let mut k = dim;
        for i in 0..=ops.num_tables {
            for j in (i + 1)..=ops.num_tables {
                let gk = g[k];
                k += 1;
                if gk == 0.0 {
                    continue;
                }
                // d(a·b)/da = b, /db = a.
                if i == owner {
                    kernels::axpy(row, gk, ops.vector(s, j));
                } else if j == owner {
                    kernels::axpy(row, gk, ops.vector(s, i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dim_formula() {
        assert_eq!(output_dim(0, 8), 8); // no tables: just bottom
        assert_eq!(output_dim(1, 8), 9); // one pair
        assert_eq!(output_dim(8, 128), 128 + 36);
    }

    #[test]
    fn forward_matches_hand_computation() {
        // bottom = (1, 2); table0 = (3, 4); table1 = (5, 6), batch 1.
        let bottom = vec![1.0, 2.0];
        let pooled = vec![3.0, 4.0, 5.0, 6.0];
        let out = forward(&bottom, &pooled, 2, 2);
        // pairs: b·t0 = 3+8 = 11; b·t1 = 5+12 = 17; t0·t1 = 15+24 = 39
        assert_eq!(out, vec![1.0, 2.0, 11.0, 17.0, 39.0]);
    }

    #[test]
    fn forward_handles_batches_independently() {
        let bottom = vec![1.0, 0.0, 0.0, 1.0];
        let pooled = vec![2.0, 2.0, 3.0, 3.0];
        let out = forward(&bottom, &pooled, 1, 2);
        // sample 0: [1, 0, (1,0)·(2,2) = 2]; sample 1: [0, 1, (0,1)·(3,3) = 3]
        assert_eq!(out, vec![1.0, 0.0, 2.0, 0.0, 1.0, 3.0]);
    }

    #[test]
    fn forward_into_reuses_buffer() {
        let bottom = vec![1.0, 2.0];
        let pooled = vec![3.0, 4.0];
        let mut out = vec![9.9f32; 32]; // dirty, over-sized
        forward_into(&bottom, &pooled, 1, 2, &mut out);
        assert_eq!(out, forward(&bottom, &pooled, 1, 2));
    }

    #[test]
    fn backward_pass_through_part() {
        let bottom = vec![1.0, 2.0];
        let mut dp: [f32; 0] = [];
        let db = backward(&bottom, &[], 0, 2, &[7.0, 9.0], &mut dp);
        assert_eq!(db, vec![7.0, 9.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let dim = 3;
        let batch = 1;
        let bottom = vec![0.5, -0.2, 0.8];
        let pooled = vec![0.1, 0.9, -0.4, -0.6, 0.3, 0.7]; // 2 tables × 1 × 3
        let dout: Vec<f32> = (0..output_dim(2, dim))
            .map(|i| 0.1 * (i as f32 + 1.0))
            .collect();
        let loss = |bottom: &[f32], pooled: &[f32]| -> f32 {
            forward(bottom, pooled, 2, dim)
                .iter()
                .zip(&dout)
                .map(|(y, g)| y * g)
                .sum()
        };
        let mut dp = vec![0.0f32; pooled.len()];
        let db = backward(&bottom, &pooled, 2, dim, &dout, &mut dp);
        let eps = 1e-3f32;
        for i in 0..dim {
            let mut bp = bottom.clone();
            bp[i] += eps;
            let mut bm = bottom.clone();
            bm[i] -= eps;
            let numeric = (loss(&bp, &pooled) - loss(&bm, &pooled)) / (2.0 * eps);
            assert!((db[i] - numeric).abs() < 1e-2, "bottom[{i}]");
        }
        for t in 0..2 {
            for i in 0..dim {
                let idx = t * batch * dim + i;
                let mut pp = pooled.clone();
                pp[idx] += eps;
                let mut pm = pooled.clone();
                pm[idx] -= eps;
                let numeric = (loss(&bottom, &pp) - loss(&bottom, &pm)) / (2.0 * eps);
                assert!(
                    (dp[idx] - numeric).abs() < 1e-2,
                    "pooled[{t}][{i}]: {} vs {numeric}",
                    dp[idx]
                );
            }
        }
    }

    #[test]
    fn backward_zeroes_a_dirty_gradient_arena() {
        let bottom = vec![1.0, 1.0];
        let pooled = vec![2.0, 2.0];
        let mut dout = vec![0.0f32; output_dim(1, 2)];
        dout[0] = 1.0; // only the pass-through part
        let mut dp = vec![f32::NAN; 2]; // reused arena full of garbage
        let db = backward(&bottom, &pooled, 1, 2, &dout, &mut dp);
        assert_eq!(db, vec![1.0, 0.0]);
        assert_eq!(dp, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "pooled buffer shape mismatch")]
    fn ragged_pooled_rejected() {
        let _ = forward(&[1.0, 2.0], &[1.0; 3], 1, 2);
    }
}
