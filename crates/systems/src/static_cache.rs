//! The static top-N GPU embedding cache baseline (paper Figure 4(b)).
//!
//! Following Yin et al. (TT-Rec), the most-frequently-accessed `N` rows of
//! every table are pinned in GPU memory for the whole run — no eviction,
//! no write-back (the cached rows' master copy *is* the GPU copy). Hit
//! lookups train at GPU speed; missed lookups pay the full CPU path:
//! gather on the CPU, PCIe crossing, and — the expensive part — gradient
//! duplicate/coalesce/scatter back on the CPU.

use embeddings::SparseBatch;
use memsim::cost::primitives;
use memsim::pipeline::Resource;
use memsim::{CostModel, Edge, PowerModel, SimTime, SystemSpec, Traffic};
use tracegen::HotOracle;

use crate::report::{SystemError, SystemReport, TrainingSystem};
use crate::shape::ModelShape;
use crate::timing;

/// Per-batch hot/cold split statistics.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    hot_lookups: u64,
    cold_lookups: u64,
    hot_unique: u64,
    cold_unique: u64,
    max_dup_hot: u64,
}

/// Hybrid CPU-GPU training with a static top-N GPU embedding cache.
#[derive(Debug, Clone)]
pub struct StaticCacheSystem {
    shape: ModelShape,
    cache_fraction: f64,
    oracle: HotOracle,
    cost: CostModel,
    power: PowerModel,
    hits_seen: u64,
    lookups_seen: u64,
}

impl StaticCacheSystem {
    /// Framework slowdown of the CPU miss path. Lower than the pure-CPU
    /// baseline's factor: the missed-ID indices arrive pre-deduplicated
    /// and densely packed from the GPU's hit filter, which vectorizes far
    /// better than full-width framework operators. Fitted: it sets the
    /// static-cache bars of Figures 5 / 12(a), the denominator of
    /// Figure 13's 2.8× average (`EXPERIMENTS.md`, "Constants").
    pub const FRAMEWORK_FACTOR: f64 = 1.4;

    /// Creates the static-cache baseline.
    ///
    /// * `cache_fraction` — fraction of every table pinned on the GPU
    ///   (the paper sweeps 2–10 %).
    /// * `oracle` — popularity oracle from the trace generator, standing
    ///   in for the offline frequency profile Yin et al. compute.
    pub fn new(
        shape: ModelShape,
        cache_fraction: f64,
        oracle: HotOracle,
        spec: SystemSpec,
    ) -> Self {
        StaticCacheSystem {
            shape,
            cache_fraction: cache_fraction.clamp(0.0, 1.0),
            oracle,
            cost: CostModel::new(spec),
            power: PowerModel::isca_paper(),
            hits_seen: 0,
            lookups_seen: 0,
        }
    }

    fn split(&self, batch: &SparseBatch) -> Split {
        let hot_rows = (self.cache_fraction * self.shape.rows_per_table as f64).floor() as u64;
        let mut sp = Split::default();
        let (mut unique, mut scratch) = (Vec::new(), Vec::new());
        for (t, bag) in batch.bags() {
            for &id in bag.ids() {
                if self.oracle.is_hot(t, id, hot_rows) {
                    sp.hot_lookups += 1;
                } else {
                    sp.cold_lookups += 1;
                }
            }
            let hottest = bag.unique_ids_into(&mut unique, &mut scratch);
            sp.max_dup_hot = sp.max_dup_hot.max(hottest);
            for &id in &unique {
                if self.oracle.is_hot(t, id, hot_rows) {
                    sp.hot_unique += 1;
                } else {
                    sp.cold_unique += 1;
                }
            }
        }
        sp
    }

    fn stage_times(&mut self, batch: &SparseBatch) -> Vec<SimTime> {
        let s = &self.shape;
        let rb = s.row_bytes();
        let dim = s.dim as u32;
        let sp = self.split(batch);
        self.hits_seen += sp.hot_lookups;
        self.lookups_seen += sp.hot_lookups + sp.cold_lookups;
        let total_lookups = sp.hot_lookups + sp.cold_lookups;
        let pooled_bytes = s.dlrm.pooled_bytes(s.batch_size);

        // [0] Sparse IDs cross to the GPU; the hit filter runs there.
        let filter = Traffic {
            pcie_h2d_bytes: total_lookups * 8,
            gpu_random_read_bytes: total_lookups * 16,
            gpu_ops: s.num_tables as u32,
            pcie_ops: 1,
            ..Traffic::ZERO
        };
        // [1] Missed IDs return to the CPU.
        let miss_ids = Traffic {
            pcie_d2h_bytes: sp.cold_unique * 8,
            pcie_ops: 1,
            ..Traffic::ZERO
        };
        // [2] CPU gathers the missed rows into a pinned staging buffer.
        let cpu_gather = Traffic {
            cpu_random_read_bytes: sp.cold_unique * rb,
            cpu_stream_write_bytes: sp.cold_unique * rb,
            cpu_ops: s.num_tables as u32,
            ..Traffic::ZERO
        };
        // [3] Missed rows + dense features cross to the GPU.
        let h2d = Traffic {
            pcie_h2d_bytes: sp.cold_unique * rb + (s.batch_size * s.dlrm.dense_dim * 4) as u64,
            pcie_ops: 1,
            ..Traffic::ZERO
        };
        // [4] GPU: gather hit + staged rows, reduce, dense fwd/bwd, and the
        //     hit rows' duplicate/coalesce/scatter — all at HBM speed.
        let coalesce_hot = primitives::coalesce_bytes(sp.hot_lookups, dim);
        let gpu = Traffic {
            gpu_random_read_bytes: primitives::gather_bytes(total_lookups, dim)
                + sp.hot_unique * rb,
            gpu_random_write_bytes: sp.hot_unique * rb,
            gpu_stream_write_bytes: pooled_bytes
                + primitives::duplicate_bytes(sp.hot_lookups, dim)
                + (coalesce_hot - coalesce_hot / 2)
                + 2 * pooled_bytes,
            gpu_stream_read_bytes: coalesce_hot / 2 + 2 * pooled_bytes,
            gpu_flops: s.dlrm.train_flops(s.batch_size),
            gpu_ops: s.dlrm.train_kernel_count() + 5 * s.num_tables as u32,
            ..Traffic::ZERO
        };
        let gpu_time =
            self.cost.traffic_time(&gpu) + timing::contention_time(sp.max_dup_hot, s.dim);
        // [5] Pooled-embedding gradients return for the missed rows.
        let grad_d2h = Traffic {
            pcie_d2h_bytes: pooled_bytes,
            pcie_ops: 1,
            ..Traffic::ZERO
        };
        // [6] CPU backward for the missed rows: duplicate → coalesce →
        //     scatter over slow CPU DRAM (the stage the paper blames).
        let coalesce_cold = primitives::coalesce_bytes(sp.cold_lookups, dim);
        let cpu_bwd = Traffic {
            cpu_stream_write_bytes: primitives::duplicate_bytes(sp.cold_lookups, dim)
                + (coalesce_cold - coalesce_cold / 2),
            cpu_stream_read_bytes: coalesce_cold / 2,
            cpu_random_read_bytes: sp.cold_unique * rb,
            cpu_random_write_bytes: sp.cold_unique * rb,
            cpu_ops: 3 * s.num_tables as u32,
            ..Traffic::ZERO
        };

        vec![
            self.cost.traffic_time(&filter),
            self.cost.traffic_time(&miss_ids),
            self.cost.traffic_time(&cpu_gather) * Self::FRAMEWORK_FACTOR,
            self.cost.traffic_time(&h2d),
            gpu_time,
            self.cost.traffic_time(&grad_d2h),
            self.cost.traffic_time(&cpu_bwd) * Self::FRAMEWORK_FACTOR,
        ]
    }

    /// Figure 5 grouping for this system.
    pub const FIG5_GROUPS: [(&'static str, &'static [usize]); 3] = [
        ("CPU embedding forward", &[2]),
        ("CPU embedding backward", &[6]),
        ("GPU", &[0, 1, 3, 4, 5]),
    ];
}

impl TrainingSystem for StaticCacheSystem {
    fn name(&self) -> &'static str {
        "Static cache"
    }

    fn simulate(&mut self, batches: &[SparseBatch]) -> Result<SystemReport, SystemError> {
        self.shape.validate().map_err(SystemError::Shape)?;
        if self.oracle.num_tables() != self.shape.num_tables {
            return Err(SystemError::Shape(format!(
                "oracle covers {} tables, shape has {}",
                self.oracle.num_tables(),
                self.shape.num_tables
            )));
        }
        self.hits_seen = 0;
        self.lookups_seen = 0;
        let times: Vec<Vec<SimTime>> = batches.iter().map(|b| self.stage_times(b)).collect();
        let mut report = SystemReport::on_graph(
            self.name(),
            vec![
                "ID upload + hit filter".to_owned(),
                "Missed-ID D2H".to_owned(),
                "CPU gather missed".to_owned(),
                "Missed rows H2D".to_owned(),
                "GPU hit path + dense".to_owned(),
                "Pooled-grad D2H".to_owned(),
                "CPU backward missed".to_owned(),
            ],
            vec![
                Resource::Gpu,
                Resource::PcieD2H,
                Resource::CpuMem,
                Resource::PcieH2D,
                Resource::Gpu,
                Resource::PcieD2H,
                Resource::CpuMem,
            ],
            times,
            Edge::line(7, 1),
            &self.power,
        );
        report.hit_rate = if self.lookups_seen == 0 {
            None
        } else {
            Some(self.hits_seen as f64 / self.lookups_seen as f64)
        };
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{LocalityProfile, TraceGenerator};

    fn run(profile: LocalityProfile, fraction: f64, n: usize) -> SystemReport {
        let shape = ModelShape::paper_default();
        let tc = shape.trace_config(profile, 3);
        let gen = TraceGenerator::new(tc);
        let oracle = gen.hot_oracle();
        let batches = gen.take_batches(n);
        let mut sys = StaticCacheSystem::new(shape, fraction, oracle, SystemSpec::isca_paper());
        sys.simulate(&batches).expect("simulate")
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn hit_rate_tracks_locality() {
        // Paper §III-B: 12 % miss (high locality) to 91 % miss (low).
        let high = run(LocalityProfile::High, 0.02, 2);
        let low = run(LocalityProfile::Low, 0.02, 2);
        let rand = run(LocalityProfile::Random, 0.02, 2);
        let h = high.hit_rate.unwrap();
        let l = low.hit_rate.unwrap();
        let r = rand.hit_rate.unwrap();
        assert!(h > 0.6, "high-locality hit rate {h}");
        assert!(l < 0.35, "low-locality hit rate {l}");
        assert!((r - 0.02).abs() < 0.01, "random hit rate {r}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn static_cache_beats_hybrid_with_locality() {
        use crate::hybrid::HybridCpuGpu;
        let shape = ModelShape::paper_default();
        let tc = shape.trace_config(LocalityProfile::High, 3);
        let gen = TraceGenerator::new(tc);
        let oracle = gen.hot_oracle();
        let batches = gen.take_batches(2);
        let mut hybrid = HybridCpuGpu::new(shape.clone(), SystemSpec::isca_paper());
        let hybrid_r = hybrid.simulate(&batches).unwrap();
        let mut cache = StaticCacheSystem::new(shape, 0.10, oracle, SystemSpec::isca_paper());
        let cache_r = cache.simulate(&batches).unwrap();
        let speedup = cache_r.speedup_over(&hybrid_r);
        assert!(speedup > 1.5, "static cache speedup {speedup}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn bigger_caches_help() {
        let small = run(LocalityProfile::Medium, 0.02, 2);
        let big = run(LocalityProfile::Medium, 0.10, 2);
        assert!(big.iteration_time < small.iteration_time);
        assert!(big.hit_rate.unwrap() > small.hit_rate.unwrap());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn cpu_misses_still_dominate_at_low_locality() {
        // Paper: even with a cache, 77–94 % of time is CPU-side for the
        // missed rows when locality is poor.
        let r = run(LocalityProfile::Low, 0.02, 2);
        let g = r.grouped_breakdown(&StaticCacheSystem::FIG5_GROUPS);
        let cpu = g[0].1 + g[1].1;
        let total: SimTime = g.iter().map(|x| x.1).sum();
        assert!(cpu / total > 0.6, "cpu share {}", cpu / total);
    }

    #[test]
    fn oracle_table_mismatch_rejected() {
        let shape = ModelShape::paper_default();
        let small = ModelShape::tiny();
        let gen = TraceGenerator::new(small.trace_config(LocalityProfile::High, 1));
        let oracle = gen.hot_oracle();
        let mut sys = StaticCacheSystem::new(shape, 0.05, oracle, SystemSpec::isca_paper());
        assert!(matches!(sys.simulate(&[]), Err(SystemError::Shape(_))));
    }
}
