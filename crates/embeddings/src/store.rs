//! The [`VectorStore`] abstraction over row-addressable fp32 storage.
//!
//! The same gather/reduce/scatter kernels of [`crate::ops`] must run against
//! two very different homes: a CPU-resident [`EmbeddingTable`]
//! (index = row ID) and the GPU scratchpad of the `scratchpipe` crate
//! (index = cache slot). `VectorStore` is the minimal interface both
//! provide.
//!
//! [`EmbeddingTable`]: crate::EmbeddingTable

/// Row-addressable storage of fixed-width fp32 vectors.
pub trait VectorStore {
    /// Width of every row in elements.
    fn dim(&self) -> usize;

    /// Number of rows.
    fn len(&self) -> usize;

    /// True if the store holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    fn row(&self, idx: usize) -> &[f32];

    /// Mutable view of row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    fn row_mut(&mut self, idx: usize) -> &mut [f32];

    /// Copies row `src` of `from` into row `dst` of `self`.
    ///
    /// Takes the source as `&dyn VectorStore` (rather than a generic
    /// parameter) so the trait stays object-safe: `&dyn VectorStore` is a
    /// valid store and callers holding concrete stores coerce for free.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or either index is out of bounds.
    fn copy_row_from(&mut self, dst: usize, from: &dyn VectorStore, src: usize) {
        assert_eq!(self.dim(), from.dim(), "row width mismatch");
        self.row_mut(dst).copy_from_slice(from.row(src));
    }
}

/// A plain heap-allocated store, used for staging buffers and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseStore {
    dim: usize,
    data: Vec<f32>,
}

impl DenseStore {
    /// Creates a zero-filled store of `rows × dim`.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        DenseStore {
            dim,
            data: vec![0.0; rows * dim],
        }
    }

    /// Creates a store from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "data must be a whole number of rows");
        DenseStore { dim, data }
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Drops all rows but keeps the allocation, so the store can be
    /// resized with [`DenseStore::resize_rows`] and refilled without
    /// reallocating — the arena-reuse pattern of the pipeline's staging
    /// buffers.
    pub fn clear_rows(&mut self) {
        self.data.clear();
    }

    /// Resizes the store to exactly `rows` rows, zero-filling any new
    /// tail. Lets callers size the arena up front and then fill disjoint
    /// row ranges through [`DenseStore::as_flat_mut`] — the worker-shard
    /// write pattern.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.dim, 0.0);
    }
}

impl VectorStore for DenseStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.data.len() / self.dim
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
    fn zeros_store_has_shape() {
        let s = DenseStore::zeros(3, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 4);
        assert!(!s.is_empty());
        assert!(s.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_store() {
        let s = DenseStore::zeros(0, 4);
        assert!(s.is_empty());
    }

    #[test]
    fn row_mut_writes_through() {
        let mut s = DenseStore::zeros(2, 2);
        s.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.as_flat(), &[0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn copy_row_between_stores() {
        let mut a = DenseStore::zeros(2, 3);
        let b = DenseStore::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        a.copy_row_from(0, &b, 1);
        assert_eq!(a.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn vector_store_is_object_safe() {
        let b = DenseStore::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        let dynamic: &dyn VectorStore = &b;
        assert_eq!(dynamic.row(1), &[3.0, 4.0]);
        let mut a = DenseStore::zeros(1, 2);
        a.copy_row_from(0, dynamic, 0);
        assert_eq!(a.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn arena_reuse_does_not_reallocate() {
        let mut s = DenseStore::zeros(8, 4);
        let base = s.as_flat().as_ptr();
        for rows in [8, 3, 8] {
            s.as_flat_mut().fill(7.0);
            s.clear_rows();
            assert!(s.is_empty());
            s.resize_rows(rows);
            assert_eq!(s.len(), rows);
            assert_eq!(s.row(rows - 1), &[0.0; 4], "new rows are zeroed");
        }
        // The first allocation was reused across all refills.
        assert_eq!(s.as_flat().as_ptr(), base);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_flat_rejected() {
        let _ = DenseStore::from_flat(vec![1.0; 5], 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_row_panics() {
        let s = DenseStore::zeros(1, 2);
        let _ = s.row(1);
    }
}
