//! `memsim` — analytical memory-system and pipeline timing substrate.
//!
//! The ScratchPipe paper ([ISCA 2022][paper]) evaluates on a real
//! Xeon + V100 node; every result it reports is ultimately a story about
//! *bytes moved per device at some effective bandwidth*. This crate is the
//! stand-in for that hardware: it models
//!
//! * **devices** (CPU DDR4, GPU HBM2) with distinct effective bandwidths for
//!   random-granule vs streaming access ([`DeviceSpec`]),
//! * **links** (PCIe gen3) with duplex channels ([`LinkSpec`]),
//! * **compute** (GEMM throughput with an efficiency factor and a per-stage
//!   framework/kernel-launch overhead) ([`ComputeSpec`]),
//! * a **cost model** mapping a [`Traffic`] vector (bytes per device and
//!   access class, FLOPs, link bytes) to wall-clock time ([`CostModel`]),
//! * a **pipeline schedule simulator** that turns per-stage latencies into
//!   end-to-end makespans under resource contention ([`pipeline`]),
//! * an **energy model** (active/idle power per device × residency)
//!   ([`energy`]) and an **AWS pricing model** ([`pricing`]) used to
//!   regenerate the paper's Figure 14 and Table I.
//!
//! The numbers produced are *nominal*: they are calibrated so that the
//! baseline hybrid CPU-GPU system lands in the paper's reported band
//! (≈100–190 ms/iteration for the default model), after which every other
//! result follows from traffic counts rather than tuning.
//!
//! # Example
//!
//! ```
//! use memsim::{CostModel, SystemSpec, Traffic};
//!
//! let spec = SystemSpec::isca_paper();
//! let model = CostModel::new(spec);
//! let mut t = Traffic::default();
//! // One mini-batch of embedding gathers: 327,680 rows of 512 B, random.
//! t.cpu_random_read_bytes = 327_680 * 512;
//! let time = model.traffic_time(&t);
//! assert!(time.as_millis() > 1.0);
//! ```
//!
//! [paper]: https://arxiv.org/abs/2205.04702

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod cost;
pub mod energy;
pub mod pipeline;
pub mod pricing;
pub mod spec;
pub mod time;
pub mod traffic;

pub use cost::CostModel;
pub use energy::{EnergyReport, PowerModel};
pub use pipeline::{Edge, PipelineSim, Resource, StageDef, StageTimes};
pub use pricing::{InstanceSpec, TrainingCost};
pub use spec::{ComputeSpec, DeviceSpec, LinkSpec, SystemSpec};
pub use time::SimTime;
pub use traffic::Traffic;
