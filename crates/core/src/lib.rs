//! `scratchpipe` — the paper's primary contribution: a software runtime
//! that manages GPU DRAM as an **always-hit embedding cache** for RecSys
//! training.
//!
//! # How it works (paper §IV)
//!
//! Conventional embedding caches react to misses; ScratchPipe *never
//! misses*, because the training dataset records every future sparse
//! feature ID. The runtime reads ahead, and a six-stage software pipeline
//!
//! ```text
//! Load → Plan → Collect → Exchange → Insert → Train
//! ```
//!
//! prefetches exactly the rows each upcoming mini-batch needs into a GPU
//! *scratchpad* before its training step begins:
//!
//! * **\[Plan\]** ([`ScratchpadManager::plan`]) queries the Hit-Map,
//!   assigns scratchpad slots to missed rows, and picks eviction victims —
//!   but only among slots whose [`HoldMask`] is clear. The Hold mask
//!   implements the paper's sliding window (3 past + current + 2 future
//!   mini-batches) that eliminates the pipeline's RAW hazards ①–④.
//! * **\[Collect\]** gathers missed rows from the CPU tables and victim
//!   rows from the scratchpad.
//! * **\[Exchange\]** crosses PCIe in both directions simultaneously.
//! * **\[Insert\]** fills missed rows into the scratchpad and writes
//!   evicted (dirty, trained) rows back to the CPU tables.
//! * **\[Train\]** runs the full embedding + DNN training step entirely at
//!   GPU memory speed — every access is a hit, by construction.
//!
//! The [`Pipeline`] executes this pipeline functionally: real `f32`
//! embeddings are trained, and the final model state is **bit-identical**
//! to sequential execution of the same trace — the paper's claim that
//! ScratchPipe "does not change the algorithmic properties of SGD",
//! which this crate's tests verify literally.
//!
//! # Five fixed stages, one driver, pluggable schedules
//!
//! The pipeline's shape is stated **once**, in the [`StageId`] table
//! (order, names, simulated resources); the Hold-mask window
//! ([`WindowConfig::PAPER`]), the hazard checker's reach and the barrier
//! lags are distances in that table. The five stage bodies live once too:
//! free kernels in [`stages`], run against the model state the
//! [`Pipeline`] owns. The stages are not an extension point: the single
//! driver, [`Pipeline`], executes exactly these five under a
//! [`Schedule`] — the synchronous register pipeline, each stage sharded
//! over a [`WorkerPool`] ([`Schedule::Sync`]), the overlapped pipeline with lanes of stages on
//! their own threads ([`Schedule::Threaded`]), the register pipeline
//! under another name ([`Schedule::DataParallel`]), the
//! unpipelined straw-man ([`Schedule::Sequential`]), or overlap wherever
//! it pays ([`Schedule::Auto`], the default) — so bit-exact equivalence
//! with [`runtime::train_direct`], and identical per-stage [`StageTraffic`]
//! accounting between schedules, holds by construction. Pipelines are
//! built with [`PipelineBuilder`], and every run can emit a structured
//! JSONL audit stream ([`audit`]).
//!
//! # Flat hot-path buffer layout
//!
//! Every hot-path buffer is a single stride-indexed `f32` arena, allocated
//! once per run and reused each iteration (stride = `dim`; row `i` of a
//! buffer lives at `i*dim..(i+1)*dim`):
//!
//! * staged miss/evict rows ([`stages::StagedRows`]) concatenate all
//!   tables with per-table row offsets;
//! * pooled embeddings and embedding gradients
//!   ([`stages::TrainArena`]) are `num_tables × batch × dim`, table `t` at
//!   `t·batch·dim..`, sample `s` at `s·dim` within the table block — the
//!   exact layout [`backend::PooledView`] exposes to the dense backend and
//!   the DLRM interaction consumes without copying.
//!
//! # Example
//!
//! ```
//! use embeddings::EmbeddingTable;
//! use scratchpipe::{Pipeline, PipelineConfig, Schedule, UnitBackend};
//! use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};
//!
//! let trace_cfg = TraceConfig::functional_default(LocalityProfile::Medium);
//! let batches = TraceGenerator::new(trace_cfg).take_batches(10);
//! let tables: Vec<EmbeddingTable> = (0..trace_cfg.num_tables)
//!     .map(|t| EmbeddingTable::seeded(trace_cfg.rows_per_table as usize, 16, t as u64))
//!     .collect();
//! let mut pipeline = Pipeline::builder()
//!     .config(PipelineConfig::functional(16, 4096))
//!     .tables(tables)
//!     .backend(UnitBackend::new(0.01))
//!     .schedule(Schedule::Sync)
//!     .build()
//!     .unwrap();
//! let report = pipeline.run(&batches).unwrap();
//! assert_eq!(report.iterations, 10);
//! let trained = pipeline.into_tables();
//! assert_eq!(trained.len(), trace_cfg.num_tables);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod audit;
pub mod backend;
pub mod config;
pub mod error;
pub mod faults;
pub mod holdmask;
pub mod index;
mod lanes;
pub mod pipeline;
pub mod policy;
pub mod recovery;
pub mod runtime;
pub mod scratchpad;
mod stage;
pub mod stages;
pub mod telemetry;
pub mod workers;

pub use audit::{AuditSink, FileSink, MemorySink, RunDescriptor};
pub use backend::{DenseBackend, PooledView, StepResult, UnitBackend};
pub use config::{PipelineConfig, WindowConfig};
pub use error::ScratchError;
pub use faults::{Fault, FaultKind, FaultPlan, InjectionRecord};
pub use holdmask::{HoldMask, NaiveHoldMask};
pub use index::SlotIndex;
pub use pipeline::{Pipeline, PipelineBuilder, Schedule};
pub use policy::EvictionPolicy;
pub use recovery::{RecoveryPolicy, RecoveryStats, SupervisedRun};
pub use runtime::{IterationRecord, PipelineReport, StageId, StageTraffic};
pub use scratchpad::{ScratchpadManager, TablePlan};
pub use stages::{StagedRows, TrainArena};
pub use telemetry::{Event, Lane, RunTelemetry, Telemetry};
pub use workers::{ShardTiming, WorkerPool};
