//! `systems` — the training-system architectures the ScratchPipe paper
//! evaluates against each other (§VI, "four design points" + the Table I
//! multi-GPU comparator):
//!
//! 1. [`HybridCpuGpu`] — the baseline hybrid CPU-GPU with no embedding
//!    cache (Figure 4(a)): every embedding gather and gradient scatter runs
//!    against slow CPU DRAM.
//! 2. [`StaticCacheSystem`] — the software-managed static top-N GPU
//!    embedding cache of Yin et al. (Figure 4(b)): hot rows live on the
//!    GPU forever; misses pay the CPU path.
//! 3. [`ScratchPipeSystem`] with [`CacheMode::Sequential`] — the paper's
//!    straw-man: a dynamic cache whose Query/Collect/Exchange/Insert steps
//!    run sequentially before every training step.
//! 4. [`ScratchPipeSystem`] with [`CacheMode::Pipelined`] — full
//!    ScratchPipe: the six-stage pipeline with Hold-mask hazard
//!    elimination, always hitting in GPU memory.
//! 5. [`MultiGpuSystem`] — the 8-GPU "GPU-only" comparator: tables
//!    partitioned across GPU HBM (table-wise model parallelism), MLPs
//!    data-parallel, connected by NVLink all-to-all/all-reduce.
//!
//! Every system implements [`TrainingSystem::simulate`], producing a
//! [`SystemReport`] with per-iteration stage-time breakdowns, steady-state
//! iteration time, energy and cache statistics — the raw material for
//! every figure and table of the paper (regenerated by the `sp-bench`
//! crate). All systems also expose a *functional* training path used by
//! the cross-system equivalence tests: every one of them performs exactly
//! the same SGD updates.
//!
//! # Example
//!
//! ```
//! use systems::{ExperimentConfig, SystemKind};
//! use tracegen::LocalityProfile;
//!
//! let cfg = ExperimentConfig::scaled_down(LocalityProfile::High, 0.05, 8);
//! let report = systems::run_system(SystemKind::ScratchPipe, &cfg).unwrap();
//! assert!(report.iteration_time.as_millis() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod backend;
pub mod hybrid;
pub mod multi_gpu;
pub mod report;
pub mod runner;
pub mod scratchpipe_multi_gpu;
pub mod scratchpipe_sys;
pub mod shape;
pub mod static_cache;
pub mod timing;

pub use backend::DlrmBackend;
pub use hybrid::HybridCpuGpu;
pub use multi_gpu::MultiGpuSystem;
pub use report::{SystemReport, TrainingSystem};
pub use runner::{run_system, train_functional, ExperimentConfig, SystemKind};
pub use scratchpipe_multi_gpu::ScratchPipeMultiGpu;
pub use scratchpipe_sys::{CacheMode, ScratchPipeSystem};
pub use shape::ModelShape;
pub use static_cache::StaticCacheSystem;
