//! Dense embedding tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::store::VectorStore;

/// A `rows × dim` fp32 embedding table (one categorical feature).
///
/// Rows are addressed by sparse feature ID. In the hybrid CPU-GPU systems of
/// the paper these tables live in capacity-optimized CPU DRAM; this type is
/// their functional stand-in.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
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
        assert!(dim > 0, "dim must be positive");
        EmbeddingTable {
            rows,
            dim,
            data: vec![0.0; rows * dim],
        }
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

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The flat row-major data buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Exact bitwise equality with another table — stricter than `==` on
    /// floats because it distinguishes `-0.0`/`0.0` and NaN payloads. The
    /// ScratchPipe correctness tests use this to prove the pipelined runtime
    /// performs *identical* arithmetic to the sequential baseline.
    pub fn bit_eq(&self, other: &EmbeddingTable) -> bool {
        self.rows == other.rows
            && self.dim == other.dim
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Index of the first row that differs bitwise from `other`, if any.
    /// Useful in test diagnostics.
    pub fn first_diff_row(&self, other: &EmbeddingTable) -> Option<usize> {
        if self.rows != other.rows || self.dim != other.dim {
            return Some(0);
        }
        for r in 0..self.rows {
            let a = &self.data[r * self.dim..(r + 1) * self.dim];
            let b = &other.data[r * self.dim..(r + 1) * self.dim];
            if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                return Some(r);
            }
        }
        None
    }
}

impl VectorStore for EmbeddingTable {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn row(&self, idx: usize) -> &[f32] {
        &self.data[idx * self.dim..(idx + 1) * self.dim]
    }

    fn row_mut(&mut self, idx: usize) -> &mut [f32] {
        &mut self.data[idx * self.dim..(idx + 1) * self.dim]
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
        assert_eq!(t.rows(), 10);
        assert_eq!(t.dim(), 128);
        assert_eq!(t.len(), 10);
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
