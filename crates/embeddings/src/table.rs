//! The row store: dense `rows × dim` fp32 storage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `rows × dim` fp32 row store, flat and row-major — the one type behind
/// every home an embedding row has.
///
/// * A CPU embedding table (one categorical feature), where a row is
///   addressed by sparse feature ID. In the hybrid CPU-GPU systems of the
///   paper these tables live in capacity-optimized CPU DRAM; this type is
///   their functional stand-in.
/// * The GPU scratchpad of the `scratchpipe` crate, where a row is a cache
///   slot.
/// * The staging arenas rows cross PCIe in, which are cleared and resized
///   rather than reallocated ([`EmbeddingTable::clear_rows`],
///   [`EmbeddingTable::resize_rows`]).
///
/// The kernels of [`crate::ops`] therefore run against any of them.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self::from_flat(vec![0.0; rows * dim], dim)
    }

    /// Creates a table from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "data must be a whole number of rows");
        EmbeddingTable { dim, data }
    }

    /// Creates a table initialized uniformly in `[-1/√dim, 1/√dim]` from a
    /// deterministic seed (the usual DLRM embedding init).
    pub fn seeded(rows: usize, dim: usize, seed: u64) -> Self {
        let mut t = Self::zeros(rows, dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = 1.0 / (dim as f32).sqrt();
        for v in &mut t.data {
            *v = rng.gen_range(-bound..=bound);
        }
        t
    }

    /// Creates a table whose row `r`, element `e` is `f(r, e)` — handy for
    /// constructing recognizable fixtures in tests.
    pub fn from_fn(rows: usize, dim: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut t = Self::zeros(rows, dim);
        for r in 0..rows {
            for e in 0..dim {
                t.data[r * dim + e] = f(r, e);
            }
        }
        t
    }

    /// Width of every row in elements.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn row(&self, idx: usize) -> &[f32] {
        &self.data[idx * self.dim..(idx + 1) * self.dim]
    }

    /// Row `idx`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn row_mut(&mut self, idx: usize) -> &mut [f32] {
        &mut self.data[idx * self.dim..(idx + 1) * self.dim]
    }

    /// Copies row `src` of `from` into row `dst` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or either index is out of bounds.
    pub fn copy_row_from(&mut self, dst: usize, from: &EmbeddingTable, src: usize) {
        assert_eq!(self.dim, from.dim, "row width mismatch");
        self.row_mut(dst).copy_from_slice(from.row(src));
    }

    /// The flat row-major data buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major data buffer, mutably — disjoint row ranges of it
    /// can be handed to different workers.
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Drops all rows but keeps the allocation, so the table can be
    /// resized with [`EmbeddingTable::resize_rows`] and refilled without
    /// reallocating — the arena-reuse pattern of the pipeline's staging
    /// buffers.
    pub fn clear_rows(&mut self) {
        self.data.clear();
    }

    /// Resizes the table to exactly `rows` rows, zero-filling any new tail.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.dim, 0.0);
    }

    /// Exact bitwise equality with another table — stricter than `==` on
    /// floats because it distinguishes `-0.0`/`0.0` and NaN payloads. The
    /// ScratchPipe correctness tests use this to prove the pipelined runtime
    /// performs *identical* arithmetic to the sequential baseline.
    pub fn bit_eq(&self, other: &EmbeddingTable) -> bool {
        self.first_diff_row(other).is_none()
    }

    /// Index of the first row that differs bitwise from `other`, if any.
    /// Useful in test diagnostics.
    pub fn first_diff_row(&self, other: &EmbeddingTable) -> Option<usize> {
        if self.len() != other.len() || self.dim != other.dim {
            return Some(0);
        }
        for r in 0..self.len() {
            let a = self.row(r);
            let b = other.row(r);
            if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                return Some(r);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_init_is_deterministic_and_bounded() {
        let a = EmbeddingTable::seeded(50, 16, 42);
        let b = EmbeddingTable::seeded(50, 16, 42);
        assert!(a.bit_eq(&b));
        let bound = 1.0 / 4.0;
        assert!(a.as_flat().iter().all(|v| v.abs() <= bound));
        // Different seed differs.
        let c = EmbeddingTable::seeded(50, 16, 43);
        assert!(!a.bit_eq(&c));
    }

    #[test]
    fn from_fn_builds_expected_pattern() {
        let t = EmbeddingTable::from_fn(3, 2, |r, e| (r * 10 + e) as f32);
        assert_eq!(t.row(0), &[0.0, 1.0]);
        assert_eq!(t.row(2), &[20.0, 21.0]);
    }

    #[test]
    fn size_accounting() {
        let t = EmbeddingTable::zeros(10, 128);
        assert_eq!(t.dim(), 128);
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
    }

    #[test]
    fn first_diff_row_localizes_divergence() {
        let a = EmbeddingTable::from_fn(4, 2, |r, e| (r + e) as f32);
        let mut b = a.clone();
        assert_eq!(a.first_diff_row(&b), None);
        b.row_mut(2)[1] = 99.0;
        assert_eq!(a.first_diff_row(&b), Some(2));
        assert!(!a.bit_eq(&b));
    }

    #[test]
    fn bit_eq_distinguishes_signed_zero() {
        let a = EmbeddingTable::zeros(1, 1);
        let mut b = EmbeddingTable::zeros(1, 1);
        b.row_mut(0)[0] = -0.0;
        assert!(!a.bit_eq(&b));
        assert_eq!(a.first_diff_row(&b), Some(0));
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        let _ = EmbeddingTable::zeros(1, 0);
    }
}
