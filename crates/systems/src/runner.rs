//! One-call experiment execution: configuration → trace → system → report.

use embeddings::{EmbeddingTable, SparseBatch};
use memsim::SystemSpec;
use scratchpipe::runtime::train_direct;
use scratchpipe::EvictionPolicy;
use serde::Serialize;
use tracegen::{HotOracle, LocalityProfile, TraceGenerator};

use crate::backend::DlrmBackend;
use crate::hybrid::HybridCpuGpu;
use crate::multi_gpu::MultiGpuSystem;
use crate::report::{SystemError, SystemReport, TrainingSystem};
use crate::scratchpipe_sys::{CacheMode, ScratchPipeSystem};
use crate::shape::ModelShape;
use crate::static_cache::StaticCacheSystem;

/// The five design points of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SystemKind {
    /// Baseline hybrid CPU-GPU, no cache (Figure 4(a)).
    Hybrid,
    /// Static top-N GPU embedding cache (Figure 4(b), Yin et al.).
    StaticCache,
    /// Dynamic cache without pipelining (§IV-B).
    StrawMan,
    /// Full pipelined ScratchPipe (§IV-C).
    ScratchPipe,
    /// 8-GPU table-parallel GPU-only system (§VI-F).
    MultiGpu8,
}

impl SystemKind {
    /// The four single-node design points of Figure 13, in paper order.
    pub const FIGURE13: [SystemKind; 4] = [
        SystemKind::Hybrid,
        SystemKind::StaticCache,
        SystemKind::StrawMan,
        SystemKind::ScratchPipe,
    ];

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SystemKind::Hybrid => "Hybrid CPU-GPU",
            SystemKind::StaticCache => "Static cache",
            SystemKind::StrawMan => "Straw-man",
            SystemKind::ScratchPipe => "ScratchPipe",
            SystemKind::MultiGpu8 => "8-GPU (GPU-only)",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one experiment run needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload/model shape.
    pub shape: ModelShape,
    /// Trace locality regime.
    pub profile: LocalityProfile,
    /// GPU cache size as a fraction of each table (cached systems).
    pub cache_fraction: f64,
    /// Mini-batches to simulate.
    pub iterations: usize,
    /// Trace seed.
    pub seed: u64,
    /// Single-GPU node hardware.
    pub spec: SystemSpec,
    /// Eviction policy for the dynamic cache systems.
    pub policy: EvictionPolicy,
}

impl ExperimentConfig {
    /// Paper-scale configuration (8×10 M×128, batch 2048) — used by the
    /// reproduction ledger (`sp_bench::FIGURES`).
    pub fn paper(profile: LocalityProfile, cache_fraction: f64, iterations: usize) -> Self {
        ExperimentConfig {
            shape: ModelShape::paper_default(),
            profile,
            cache_fraction,
            iterations,
            seed: 0x15CA,
            spec: SystemSpec::isca_paper(),
            policy: EvictionPolicy::Lru,
        }
    }

    /// A scaled-down configuration (4 tables × 50 K rows, batch 128, thin
    /// MLPs) for fast tests and examples; same code paths, less work.
    pub fn scaled_down(profile: LocalityProfile, cache_fraction: f64, iterations: usize) -> Self {
        let dlrm = dlrm::DlrmConfig {
            dense_dim: 13,
            bottom_widths: vec![13, 64, 32],
            top_widths: vec![dlrm::interaction::output_dim(4, 32), 64, 1],
            emb_dim: 32,
            num_tables: 4,
        };
        ExperimentConfig {
            shape: ModelShape {
                num_tables: 4,
                rows_per_table: 50_000,
                dim: 32,
                lookups_per_sample: 8,
                batch_size: 128,
                dlrm,
            },
            profile,
            cache_fraction,
            iterations,
            seed: 0x15CA,
            spec: SystemSpec::isca_paper(),
            policy: EvictionPolicy::Lru,
        }
    }

    /// Generates this experiment's trace (deterministic in the seed).
    pub fn batches(&self) -> Vec<SparseBatch> {
        TraceGenerator::new(self.shape.trace_config(self.profile, self.seed))
            .take_batches(self.iterations)
    }

    /// The popularity oracle matching [`ExperimentConfig::batches`].
    pub(crate) fn oracle(&self) -> HotOracle {
        TraceGenerator::new(self.shape.trace_config(self.profile, self.seed)).hot_oracle()
    }

    /// The `slots` hottest rows of every table, hottest first — the
    /// steady-state cache content a long warm-up under any recency policy
    /// converges to, which the dynamic-cache systems are pre-warmed with.
    pub fn hot_rows(&self, slots: u64) -> Vec<Vec<u64>> {
        let gen = TraceGenerator::new(self.shape.trace_config(self.profile, self.seed));
        (0..self.shape.num_tables)
            .map(|t| gen.hot_rows(t, slots))
            .collect()
    }
}

/// Builds the requested system and simulates this experiment's trace.
///
/// # Errors
///
/// Propagates shape/runtime errors from the system.
pub fn run_system(kind: SystemKind, cfg: &ExperimentConfig) -> Result<SystemReport, SystemError> {
    let batches = cfg.batches();
    match kind {
        SystemKind::Hybrid => HybridCpuGpu::new(cfg.shape.clone(), cfg.spec).simulate(&batches),
        SystemKind::StaticCache => StaticCacheSystem::new(
            cfg.shape.clone(),
            cfg.cache_fraction,
            cfg.oracle(),
            cfg.spec,
        )
        .simulate(&batches),
        SystemKind::StrawMan => dynamic_cache_system(cfg, CacheMode::Sequential).simulate(&batches),
        SystemKind::ScratchPipe => {
            dynamic_cache_system(cfg, CacheMode::Pipelined).simulate(&batches)
        }
        SystemKind::MultiGpu8 => {
            MultiGpuSystem::new(cfg.shape.clone(), SystemSpec::p3_16xlarge()).simulate(&batches)
        }
    }
}

/// Builds a ScratchPipe/straw-man system for `cfg`, pre-warmed to the
/// steady-state cache content ([`ExperimentConfig::hot_rows`]).
fn dynamic_cache_system(cfg: &ExperimentConfig, mode: CacheMode) -> ScratchPipeSystem {
    let sys = ScratchPipeSystem::new(cfg.shape.clone(), cfg.cache_fraction, mode, cfg.spec)
        .with_policy(cfg.policy);
    let hot = cfg.hot_rows(sys.slots_per_table() as u64);
    sys.with_prewarm(hot)
}

/// Functionally trains the experiment's model under the given system and
/// returns the final `(embedding tables, dense backend, losses)`. Every
/// system performs identical SGD updates — asserted by the cross-system
/// equivalence tests.
///
/// # Errors
///
/// Propagates runtime errors (e.g. scratchpad capacity exhaustion).
///
/// # Panics
///
/// Panics if the shape fails validation.
pub fn train_functional(
    kind: SystemKind,
    cfg: &ExperimentConfig,
    lr: f32,
) -> Result<(Vec<EmbeddingTable>, DlrmBackend, Vec<f32>), SystemError> {
    cfg.shape.validate().map_err(SystemError::Shape)?;
    let batches = cfg.batches();
    let tables: Vec<EmbeddingTable> = (0..cfg.shape.num_tables)
        .map(|t| EmbeddingTable::seeded(cfg.shape.rows_per_table as usize, cfg.shape.dim, t as u64))
        .collect();
    let backend = DlrmBackend::new(&cfg.shape.dlrm, lr, cfg.seed);
    match kind {
        // The baselines and the multi-GPU system perform SGD in plain
        // batch order; their functional semantics are direct training.
        SystemKind::Hybrid | SystemKind::StaticCache | SystemKind::MultiGpu8 => {
            let mut tables = tables;
            let mut backend = backend;
            let losses = train_direct(&mut tables, &batches, &mut backend);
            Ok((tables, backend, losses))
        }
        SystemKind::StrawMan | SystemKind::ScratchPipe => {
            let mode = if kind == SystemKind::StrawMan {
                CacheMode::Sequential
            } else {
                CacheMode::Pipelined
            };
            let sys = dynamic_cache_system(cfg, mode);
            let (tables, backend, report) = sys.train_functional(tables, &batches, backend)?;
            let losses = report.records.iter().map(|r| r.loss).collect();
            Ok((tables, backend, losses))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_run_scaled_down() {
        let cfg = ExperimentConfig::scaled_down(LocalityProfile::Medium, 0.1, 8);
        for kind in [
            SystemKind::Hybrid,
            SystemKind::StaticCache,
            SystemKind::StrawMan,
            SystemKind::ScratchPipe,
            SystemKind::MultiGpu8,
        ] {
            let r = run_system(kind, &cfg).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(r.iteration_time.as_millis() > 0.0, "{kind}");
            assert_eq!(r.iterations, 8, "{kind}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn figure13_ordering_holds_at_paper_scale() {
        // The paper's headline ordering at medium locality, 2 % cache:
        // ScratchPipe < Straw-man < Static cache ≤ Hybrid (iteration time).
        let cfg = ExperimentConfig::paper(LocalityProfile::Medium, 0.02, 10);
        let sp = run_system(SystemKind::ScratchPipe, &cfg).unwrap();
        let straw = run_system(SystemKind::StrawMan, &cfg).unwrap();
        let stat = run_system(SystemKind::StaticCache, &cfg).unwrap();
        let hyb = run_system(SystemKind::Hybrid, &cfg).unwrap();
        assert!(
            sp.iteration_time < straw.iteration_time,
            "sp {} straw {}",
            sp.iteration_time,
            straw.iteration_time
        );
        assert!(
            straw.iteration_time < stat.iteration_time,
            "straw {} static {}",
            straw.iteration_time,
            stat.iteration_time
        );
        assert!(
            stat.iteration_time < hyb.iteration_time,
            "static {} hybrid {}",
            stat.iteration_time,
            hyb.iteration_time
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn scratchpipe_speedup_vs_static_in_paper_band() {
        // Paper: avg 2.8× (max 4.2×) vs static caching; high-locality
        // worst case still 1.6–1.9×.
        let mut speedups = Vec::new();
        for profile in LocalityProfile::SWEEP {
            let cfg = ExperimentConfig::paper(profile, 0.02, 10);
            let sp = run_system(SystemKind::ScratchPipe, &cfg).unwrap();
            let stat = run_system(SystemKind::StaticCache, &cfg).unwrap();
            speedups.push(sp.speedup_over(&stat));
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (1.8..4.5).contains(&avg),
            "avg speedup {avg} (per-profile: {speedups:?})"
        );
        let high = *speedups.last().expect("4 profiles");
        assert!((1.2..2.8).contains(&high), "high-locality speedup {high}");
        // Gains shrink as locality rises.
        assert!(speedups[0] > speedups[3], "{speedups:?}");
    }

    #[test]
    fn functional_training_is_identical_across_all_systems() {
        // The paper's accuracy-neutrality claim, verified bitwise: every
        // design point produces the same tables, the same dense model and
        // the same losses.
        let cfg = ExperimentConfig::scaled_down(LocalityProfile::Medium, 0.2, 10);
        let (ref_tables, ref_backend, ref_losses) =
            train_functional(SystemKind::Hybrid, &cfg, 0.05).unwrap();
        for kind in [
            SystemKind::StaticCache,
            SystemKind::StrawMan,
            SystemKind::ScratchPipe,
            SystemKind::MultiGpu8,
        ] {
            let (tables, backend, losses) = train_functional(kind, &cfg, 0.05).unwrap();
            for (t, (a, b)) in ref_tables.iter().zip(&tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{kind}: table {t} diverged at row {:?}",
                    a.first_diff_row(b)
                );
            }
            assert!(backend.model().bit_eq(ref_backend.model()), "{kind}: MLPs");
            assert_eq!(losses.len(), ref_losses.len());
            for (i, (a, b)) in ref_losses.iter().zip(&losses).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind}: loss {i}");
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn multi_gpu_is_fastest_but_scratchpipe_close_at_high_locality() {
        let cfg = ExperimentConfig::paper(LocalityProfile::High, 0.02, 10);
        let sp = run_system(SystemKind::ScratchPipe, &cfg).unwrap();
        let mg = run_system(SystemKind::MultiGpu8, &cfg).unwrap();
        assert!(mg.iteration_time < sp.iteration_time);
        // Paper: at high locality the 8-GPU system is only ≈29 % faster.
        let gap = sp.iteration_time / mg.iteration_time;
        assert!((1.0..2.2).contains(&gap), "gap {gap}");
    }

    #[test]
    fn system_kind_display() {
        assert_eq!(SystemKind::ScratchPipe.to_string(), "ScratchPipe");
        assert_eq!(SystemKind::FIGURE13.len(), 4);
    }
}
