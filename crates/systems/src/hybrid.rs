//! The baseline hybrid CPU-GPU system (paper Figure 4(a)).
//!
//! All embedding work — forward gather + pooled reduce, backward gradient
//! duplicate/coalesce/scatter — executes against CPU DRAM through
//! framework operators; the GPU only trains the dense MLPs. This is the
//! design the paper's Figure 5 shows spending 77–94 % of its time on the
//! CPU side.

use embeddings::SparseBatch;
use memsim::cost::primitives;
use memsim::pipeline::Resource;
use memsim::{CostModel, Edge, PowerModel, SimTime, SystemSpec, Traffic};

use crate::report::{SystemError, SystemReport, TrainingSystem};
use crate::shape::ModelShape;

/// Hybrid CPU-GPU training with no embedding cache.
#[derive(Debug, Clone)]
pub struct HybridCpuGpu {
    shape: ModelShape,
    cost: CostModel,
    power: PowerModel,
}

impl HybridCpuGpu {
    /// Slowdown factor of framework-grade CPU embedding operators relative
    /// to the raw random-access bandwidth model (PyTorch dispatch,
    /// per-table op granularity, imperfect threading). Fitted: it lands
    /// the baseline in Figure 5's 150–200 ms band (`EXPERIMENTS.md`,
    /// "Constants").
    pub const FRAMEWORK_FACTOR: f64 = 2.2;

    /// Creates the baseline for a workload shape on a hardware spec.
    pub(crate) fn new(shape: ModelShape, spec: SystemSpec) -> Self {
        HybridCpuGpu {
            shape,
            cost: CostModel::new(spec),
            power: PowerModel::isca_paper(),
        }
    }

    /// The stage-time vector for one mini-batch.
    fn stage_times(&self, batch: &SparseBatch) -> Vec<SimTime> {
        let s = &self.shape;
        let rb = s.row_bytes();
        let dim = s.dim as u32;
        let total_lookups: u64 = batch.total_lookups() as u64;
        let unique_total: u64 = batch
            .bags()
            .map(|(_, bag)| bag.unique_ids().len() as u64)
            .sum();
        let pooled_bytes = s.dlrm.pooled_bytes(s.batch_size);

        // [1] CPU embedding forward: gather every lookup + write pooled.
        let fwd = Traffic {
            cpu_random_read_bytes: primitives::gather_bytes(total_lookups, dim),
            cpu_stream_write_bytes: pooled_bytes,
            cpu_ops: 2 * s.num_tables as u32,
            ..Traffic::ZERO
        };
        // [2] Pooled embeddings + dense features cross PCIe.
        let h2d = Traffic {
            pcie_h2d_bytes: pooled_bytes + (s.batch_size * s.dlrm.dense_dim * 4) as u64,
            pcie_ops: 1,
            ..Traffic::ZERO
        };
        // [3] GPU dense training (MLPs + interaction + loss).
        let gpu = Traffic {
            gpu_flops: s.dlrm.train_flops(s.batch_size),
            gpu_ops: s.dlrm.train_kernel_count(),
            gpu_stream_read_bytes: 2 * pooled_bytes,
            gpu_stream_write_bytes: 2 * pooled_bytes,
            ..Traffic::ZERO
        };
        // [4] Pooled-embedding gradients return.
        let d2h = Traffic {
            pcie_d2h_bytes: pooled_bytes,
            pcie_ops: 1,
            ..Traffic::ZERO
        };
        // [5] CPU embedding backward: duplicate → coalesce → scatter.
        let coalesce = primitives::coalesce_bytes(total_lookups, dim);
        let bwd = Traffic {
            cpu_stream_write_bytes: primitives::duplicate_bytes(total_lookups, dim)
                + (coalesce - coalesce / 2),
            cpu_stream_read_bytes: coalesce / 2,
            cpu_random_read_bytes: unique_total * rb,
            cpu_random_write_bytes: unique_total * rb,
            cpu_ops: 3 * s.num_tables as u32,
            ..Traffic::ZERO
        };

        vec![
            self.cost.traffic_time(&fwd) * Self::FRAMEWORK_FACTOR,
            self.cost.traffic_time(&h2d),
            self.cost.traffic_time(&gpu),
            self.cost.traffic_time(&d2h),
            self.cost.traffic_time(&bwd) * Self::FRAMEWORK_FACTOR,
        ]
    }

    /// Indices of the Figure 5 grouping:
    /// `(CPU embedding forward, CPU embedding backward, GPU-side)`.
    pub const FIG5_GROUPS: [(&'static str, &'static [usize]); 3] = [
        ("CPU embedding forward", &[0]),
        ("CPU embedding backward", &[4]),
        ("GPU", &[1, 2, 3]),
    ];
}

impl TrainingSystem for HybridCpuGpu {
    fn name(&self) -> &'static str {
        "Hybrid CPU-GPU"
    }

    fn simulate(&mut self, batches: &[SparseBatch]) -> Result<SystemReport, SystemError> {
        self.shape.validate().map_err(SystemError::Shape)?;
        let times: Vec<Vec<SimTime>> = batches.iter().map(|b| self.stage_times(b)).collect();
        Ok(SystemReport::on_graph(
            self.name(),
            vec![
                "CPU embedding forward".to_owned(),
                "Pooled H2D".to_owned(),
                "GPU dense".to_owned(),
                "Grad D2H".to_owned(),
                "CPU embedding backward".to_owned(),
            ],
            vec![
                Resource::CpuMem,
                Resource::PcieH2D,
                Resource::Gpu,
                Resource::PcieD2H,
                Resource::CpuMem,
            ],
            times,
            Edge::line(5, 1),
            &self.power,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{LocalityProfile, TraceGenerator};

    fn paper_run(profile: LocalityProfile, n: usize) -> SystemReport {
        let shape = ModelShape::paper_default();
        let tc = shape.trace_config(profile, 3);
        let batches = TraceGenerator::new(tc).take_batches(n);
        let mut sys = HybridCpuGpu::new(shape, SystemSpec::isca_paper());
        sys.simulate(&batches).expect("simulate")
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn paper_scale_iteration_lands_in_figure5_band() {
        // Figure 5 hybrid bars: ≈150–200 ms per iteration.
        let r = paper_run(LocalityProfile::Random, 3);
        let ms = r.iteration_time.as_millis();
        assert!((120.0..260.0).contains(&ms), "hybrid iteration {ms} ms");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn cpu_side_dominates() {
        // The paper's motivating observation: 77–94 % of hybrid training
        // time is CPU-side embedding work.
        let r = paper_run(LocalityProfile::Medium, 3);
        let grouped = r.grouped_breakdown(&HybridCpuGpu::FIG5_GROUPS);
        let cpu = grouped[0].1 + grouped[1].1;
        let total: SimTime = grouped.iter().map(|g| g.1).sum();
        let share = cpu / total;
        assert!(share > 0.7, "CPU share {share}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn backward_costs_more_than_forward() {
        let r = paper_run(LocalityProfile::Random, 3);
        let g = r.grouped_breakdown(&HybridCpuGpu::FIG5_GROUPS);
        assert!(g[1].1 > g[0].1, "bwd {} vs fwd {}", g[1].1, g[0].1);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn locality_barely_matters_without_a_cache() {
        // No cache → only the unique-row count (scatter volume) changes.
        let rand = paper_run(LocalityProfile::Random, 3).iteration_time;
        let high = paper_run(LocalityProfile::High, 3).iteration_time;
        let ratio = rand / high;
        assert!((0.9..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn energy_is_positive_and_cpu_heavy() {
        let r = paper_run(LocalityProfile::Medium, 3);
        let e = r.energy_per_iteration;
        assert!(e.cpu_joules > 0.0 && e.gpu_joules > 0.0);
    }
}
