//! `embeddings` — the embedding-layer substrate of the ScratchPipe
//! reproduction.
//!
//! RecSys models spend most of their memory (and most of their training
//! time) in *embedding layers*: giant lookup tables mapping sparse
//! categorical feature IDs to dense vectors (paper §II-A). This crate
//! implements the full functional data path of §II-B:
//!
//! * [`SparseBatch`] / [`TableBag`] — the per-mini-batch sparse feature IDs,
//!   in CSR layout (the paper's "sparse IDs stored as part of the training
//!   dataset"),
//! * [`EmbeddingTable`] — a dense `rows × dim` fp32 row store: a
//!   CPU-resident table, the GPU scratchpad of the `scratchpipe` crate
//!   and its staging arenas alike, so the same training kernels run
//!   against every home a row has,
//! * [`ops`] — forward **gather + pooled reduce**, backward **gradient
//!   duplicate → coalesce → scatter-update** (Figure 2 of the paper), and a
//!   plain SGD update rule.
//!
//! All kernels are deterministic: gathered sums run in bag order and
//! coalescing sorts by row ID, so two systems that perform the same logical
//! updates produce **bit-identical** tables — the property the ScratchPipe
//! correctness tests rely on.
//!
//! # Example
//!
//! ```
//! use embeddings::{EmbeddingTable, SparseBatch, ops};
//!
//! // One table, 100 rows of dim 4; batch of 2 samples with 2 lookups each.
//! let mut table = EmbeddingTable::seeded(100, 4, 7);
//! let batch = SparseBatch::from_rows(1, &[vec![vec![0, 4]], vec![vec![0, 2]]]);
//! let bag = batch.bag(0);
//! let mut pooled = vec![0.0f32; 2 * 4];
//! ops::gather_reduce_into(&table, bag, |id| id as usize, &mut pooled);
//! // Sample 0 sum-pools rows 0 and 4.
//! assert_eq!(pooled[0], table.row(0)[0] + table.row(4)[0]);
//! // Backpropagate a gradient of ones and apply SGD at lr 0.01.
//! let grads = vec![1.0f32; 2 * 4];
//! ops::embedding_backward(&mut table, bag, &grads, 0.01);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod ops;
pub mod sparse;
pub mod store;
pub mod table;

pub use sparse::{SparseBatch, TableBag};
pub use table::EmbeddingTable;
