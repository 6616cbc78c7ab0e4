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
    let batch = bottom.len() / dim;
    assert_eq!(bottom.len(), batch * dim, "ragged bottom buffer");
    assert_eq!(
        pooled.len(),
        num_tables * batch * dim,
        "pooled buffer shape mismatch"
    );
    let t = num_tables;
    let out_dim = output_dim(t, dim);
    out.clear();
    out.reserve(batch * out_dim);
    for s in 0..batch {
        let vector = |v: usize| -> &[f32] {
            if v == 0 {
                &bottom[s * dim..(s + 1) * dim]
            } else {
                let base = (v - 1) * batch * dim + s * dim;
                &pooled[base..base + dim]
            }
        };
        out.extend_from_slice(vector(0));
        for i in 0..=t {
            for j in (i + 1)..=t {
                out.push(kernels::dot_from(0.0, vector(i), vector(j)));
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
    let mut d_bottom = Vec::new();
    backward_into(
        bottom,
        pooled,
        num_tables,
        dim,
        dout,
        d_pooled,
        &mut d_bottom,
    );
    d_bottom
}

/// [`backward`] writing `d_bottom` into a reusable buffer (resized in
/// place and overwritten).
///
/// # Panics
///
/// Panics if buffer shapes disagree.
pub(crate) fn backward_into(
    bottom: &[f32],
    pooled: &[f32],
    num_tables: usize,
    dim: usize,
    dout: &[f32],
    d_pooled: &mut [f32],
    d_bottom: &mut Vec<f32>,
) {
    let batch = bottom.len() / dim;
    let t = num_tables;
    let out_dim = output_dim(t, dim);
    assert_eq!(
        pooled.len(),
        t * batch * dim,
        "pooled buffer shape mismatch"
    );
    assert_eq!(dout.len(), batch * out_dim, "output gradient shape");
    assert_eq!(d_pooled.len(), pooled.len(), "pooled gradient buffer shape");
    // Every sample's pass-through copy below overwrites its whole row.
    d_bottom.resize(batch * dim, 0.0);
    d_pooled.fill(0.0);
    for s in 0..batch {
        let vector = |v: usize| -> &[f32] {
            if v == 0 {
                &bottom[s * dim..(s + 1) * dim]
            } else {
                let base = (v - 1) * batch * dim + s * dim;
                &pooled[base..base + dim]
            }
        };
        let g = &dout[s * out_dim..(s + 1) * out_dim];
        // Pass-through part: the first `dim` outputs are the bottom vector.
        d_bottom[s * dim..(s + 1) * dim].copy_from_slice(&g[..dim]);
        // Dot-product part.
        let mut k = dim;
        for i in 0..=t {
            for j in (i + 1)..=t {
                let gk = g[k];
                k += 1;
                if gk == 0.0 {
                    continue;
                }
                // d(a·b)/da = b, /db = a — accumulate into the right owner.
                let (vi, vj) = (vector(i), vector(j));
                {
                    let di: &mut [f32] = if i == 0 {
                        &mut d_bottom[s * dim..(s + 1) * dim]
                    } else {
                        let base = (i - 1) * batch * dim + s * dim;
                        &mut d_pooled[base..base + dim]
                    };
                    kernels::axpy(di, gk, vj);
                }
                {
                    let base = (j - 1) * batch * dim + s * dim;
                    kernels::axpy(&mut d_pooled[base..base + dim], gk, vi);
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
