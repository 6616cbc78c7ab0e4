//! `tracegen` — synthetic RecSys trace generation.
//!
//! Real production click traces are not public, so the ScratchPipe paper
//! (§V "Benchmarks") *generates* embedding-table access traces from
//! probability density functions fitted to four public datasets (Alibaba
//! User Behavior, Kaggle Anime, MovieLens, Criteo). This crate reproduces
//! that methodology:
//!
//! * [`zipf`] — a Hörmann rejection-inversion sampler for power-law
//!   (Zipf-like) rank distributions, O(1) memory at any table size,
//! * [`scramble`] — a seeded bijective permutation so that "hot" rows are
//!   spread across the ID space instead of clustered at low IDs,
//! * [`profiles`] — the paper's four locality regimes
//!   (Random / Low / Medium / High) with exponents calibrated to the quoted
//!   anchor points (Criteo: top 2 % of rows ≈ 80 % of accesses; Alibaba:
//!   top 2 % ≈ 8.5 %), plus per-dataset models for Figures 3 and 6,
//! * [`generator`] — deterministic, seeded mini-batch trace generation
//!   producing [`embeddings::SparseBatch`] values,
//! * [`stats`] — access histograms, sorted-count curves (Figure 3) and
//!   static-cache hit-rate curves (Figure 6).
//!
//! # Example
//!
//! ```
//! use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};
//!
//! let cfg = TraceConfig {
//!     num_tables: 2,
//!     rows_per_table: 1000,
//!     lookups_per_sample: 4,
//!     batch_size: 8,
//!     profile: LocalityProfile::High,
//!     seed: 42,
//! };
//! let batches = TraceGenerator::new(cfg).take_batches(1);
//! let batch = &batches[0];
//! assert_eq!(batch.num_tables(), 2);
//! assert_eq!(batch.batch_size(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod generator;
pub mod profiles;
pub mod scramble;
pub mod stats;
pub mod zipf;

pub use generator::{HotOracle, TraceConfig, TraceGenerator};
pub use profiles::{DatasetModel, LocalityProfile, TableProfile};
pub use scramble::Scrambler;
pub use stats::AccessHistogram;
pub use zipf::ZipfSampler;
