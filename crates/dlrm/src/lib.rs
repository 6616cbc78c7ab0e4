//! `dlrm` — the dense ("backend DNN") half of a DLRM-style recommendation
//! model.
//!
//! The ScratchPipe paper trains a representative DLRM (§V, Figure 1): a
//! **bottom MLP** transforms continuous features, an **embedding layer**
//! (the `embeddings` crate) pools sparse features, a **feature
//! interaction** stage combines them via pairwise dot products, and a
//! **top MLP** produces the click-through-rate logit trained with binary
//! cross-entropy. This crate implements that dense path with full
//! forward/backward passes and SGD, in deterministic pure Rust:
//!
//! * [`Linear`] — fully-connected layer with cached activations,
//! * [`Mlp`] — ReLU MLP stack,
//! * [`interaction`] — DLRM dot-product feature interaction,
//! * [`loss`] — fused sigmoid + binary cross-entropy,
//! * [`DlrmModel`] — the assembled model: takes pooled embeddings, returns
//!   the gradients to backpropagate *into* the embedding layer — the
//!   boundary where ScratchPipe's scratchpad takes over,
//! * [`DlrmConfig`] — model shapes, including the paper's default and the
//!   FLOP counts the timing model charges for MLP training.
//!
//! # Example
//!
//! ```
//! use dlrm::{DlrmConfig, DlrmModel, DlrmScratch};
//!
//! let cfg = DlrmConfig::tiny();
//! let mut model = DlrmModel::seeded(&cfg, 42);
//! let b = 4;
//! let dense = vec![0.1f32; b * cfg.dense_dim];
//! // Pooled embeddings are one flat num_tables × batch × emb_dim buffer
//! // (table t at t·b·emb_dim..), and gradients come back the same way —
//! // allocate both once and reuse them every iteration.
//! let pooled = vec![0.2f32; cfg.num_tables * b * cfg.emb_dim];
//! let mut emb_grads = vec![0.0f32; pooled.len()];
//! let mut scratch = DlrmScratch::new();
//! let labels = vec![1.0, 0.0, 1.0, 0.0];
//! let out = model.train_step_with(&mut scratch, &dense, &pooled, &labels, 0.01, &mut emb_grads);
//! assert!(out.loss.is_finite());
//! assert_eq!(emb_grads.len(), cfg.num_tables * b * cfg.emb_dim);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod config;
pub mod interaction;
pub mod kernels;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod model;

pub use config::DlrmConfig;
pub use linear::Linear;
pub use mlp::{Mlp, MlpActivations};
pub use model::{DlrmModel, DlrmScratch, ForkJoin, Inline, TrainStepOutput};
