//! `DenseStore`: the one row store, [`EmbeddingTable`], under its
//! scratchpad-side name.
//!
//! A CPU table, a scratchpad and a staging arena are all an
//! `EmbeddingTable`. The alias stays only because the benchmark harness
//! names `store::DenseStore::zeros`.

use crate::table::EmbeddingTable;

/// [`EmbeddingTable`] under its scratchpad-side name.
pub type DenseStore = EmbeddingTable;

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
        let b = EmbeddingTable::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        a.copy_row_from(0, &b, 1);
        assert_eq!(a.row(0), &[4.0, 5.0, 6.0]);
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
