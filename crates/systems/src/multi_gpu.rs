//! The 8-GPU "GPU-only" comparator (paper §VI-F, Table I).
//!
//! Embedding tables are partitioned table-wise across the GPUs' pooled HBM
//! (model parallelism); every GPU runs the embedding forward/backward of
//! its own tables locally, pooled embeddings cross the NVLink fabric in an
//! all-to-all, and the MLPs train data-parallel with a gradient
//! all-reduce. Everything runs at GPU memory speed — the paper's point is
//! that this costs 8 GPUs while ScratchPipe gets most of the way there
//! with one.

use embeddings::SparseBatch;
use memsim::cost::primitives;
use memsim::pipeline::Resource;
use memsim::{CostModel, Edge, PowerModel, SimTime, SystemSpec, Traffic};

use crate::report::{SystemError, SystemReport, TrainingSystem};
use crate::shape::ModelShape;
use crate::timing;

/// Table-wise model-parallel, data-parallel-MLP multi-GPU training.
#[derive(Debug, Clone)]
pub struct MultiGpuSystem {
    shape: ModelShape,
    cost: CostModel,
    power: PowerModel,
    gpus: u32,
}

impl MultiGpuSystem {
    /// Creates the comparator on an 8-GPU node spec.
    pub(crate) fn new(shape: ModelShape, spec: SystemSpec) -> Self {
        let gpus = spec.num_gpus;
        MultiGpuSystem {
            shape,
            cost: CostModel::new(spec),
            power: PowerModel::p3_16xlarge(),
            gpus,
        }
    }

    fn stage_times(&self, batch: &SparseBatch) -> Vec<SimTime> {
        let s = &self.shape;
        let g = self.gpus as u64;
        let rb = s.row_bytes();
        let dim = s.dim as u32;
        let tables_per_gpu = (s.num_tables as u64).div_ceil(g);
        let pooled_bytes = s.dlrm.pooled_bytes(s.batch_size);
        let params = 2_100_000u64; // dense parameter count ≈ 2.1 M for the
                                   // paper MLPs; only the all-reduce sees it

        // Worst-loaded GPU: lookups/uniques of its assigned tables.
        let mut per_gpu_lookups = vec![0u64; g as usize];
        let mut per_gpu_unique = vec![0u64; g as usize];
        let mut max_dup = 0u64;
        let (mut unique, mut scratch) = (Vec::new(), Vec::new());
        for (t, bag) in batch.bags() {
            let owner = t % g as usize;
            per_gpu_lookups[owner] += bag.total_lookups() as u64;
            max_dup = max_dup.max(bag.unique_ids_into(&mut unique, &mut scratch));
            per_gpu_unique[owner] += unique.len() as u64;
        }
        let lookups = per_gpu_lookups.iter().copied().max().unwrap_or(0);
        let uniques = per_gpu_unique.iter().copied().max().unwrap_or(0);

        // [0] Embedding forward on the owning GPU: gather + pooled reduce.
        let fwd = Traffic {
            gpu_random_read_bytes: primitives::gather_bytes(lookups, dim),
            gpu_stream_write_bytes: (tables_per_gpu * s.batch_size as u64) * rb,
            gpu_ops: 2 * tables_per_gpu as u32,
            ..Traffic::ZERO
        };
        // [1] All-to-all of pooled embeddings (forward) and their
        //     gradients (backward): each byte crosses the fabric once per
        //     direction, minus the local fraction.
        let a2a = Traffic {
            nvlink_bytes: 2 * pooled_bytes * (g - 1) / g,
            ..Traffic::ZERO
        };
        // [2] Data-parallel dense training: per-GPU batch shard, full
        //     kernel count (launches do not shrink), plus the ring
        //     all-reduce of MLP gradients.
        let dense = Traffic {
            gpu_flops: s.dlrm.train_flops(s.batch_size) / g,
            gpu_ops: s.dlrm.train_kernel_count(),
            gpu_stream_read_bytes: 2 * pooled_bytes / g,
            gpu_stream_write_bytes: 2 * pooled_bytes / g,
            nvlink_bytes: 2 * params * 4 * (g - 1) / g,
            ..Traffic::ZERO
        };
        // [3] Embedding backward on the owning GPU: duplicate → coalesce →
        //     scatter at HBM speed, serialized on hot-row conflicts.
        let coalesce = primitives::coalesce_bytes(lookups, dim);
        let bwd = Traffic {
            gpu_stream_write_bytes: primitives::duplicate_bytes(lookups, dim)
                + (coalesce - coalesce / 2),
            gpu_stream_read_bytes: coalesce / 2,
            gpu_random_read_bytes: uniques * rb,
            gpu_random_write_bytes: uniques * rb,
            gpu_ops: 5 * tables_per_gpu as u32,
            ..Traffic::ZERO
        };

        vec![
            self.cost.traffic_time(&fwd),
            self.cost.traffic_time(&a2a),
            self.cost.traffic_time(&dense) + SimTime::from_millis(timing::SYNC_OVERHEAD_MS),
            self.cost.traffic_time(&bwd) + timing::contention_time(max_dup, s.dim),
        ]
    }
}

impl TrainingSystem for MultiGpuSystem {
    fn name(&self) -> &'static str {
        "8-GPU (GPU-only)"
    }

    fn simulate(&mut self, batches: &[SparseBatch]) -> Result<SystemReport, SystemError> {
        self.shape.validate().map_err(SystemError::Shape)?;
        if self.gpus < 2 {
            return Err(SystemError::Shape(
                "multi-GPU comparator needs num_gpus ≥ 2 (use SystemSpec::p3_16xlarge)".to_owned(),
            ));
        }
        let times: Vec<Vec<SimTime>> = batches.iter().map(|b| self.stage_times(b)).collect();
        Ok(SystemReport::on_graph(
            self.name(),
            vec![
                "Embedding forward".to_owned(),
                "All-to-all".to_owned(),
                "Dense + all-reduce".to_owned(),
                "Embedding backward".to_owned(),
            ],
            vec![
                Resource::Gpu,
                Resource::NvLink,
                Resource::Gpu,
                Resource::Gpu,
            ],
            times,
            Edge::line(4, 1),
            &self.power,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{LocalityProfile, TraceGenerator};

    fn run(profile: LocalityProfile) -> SystemReport {
        let shape = ModelShape::paper_default();
        let tc = shape.trace_config(profile, 3);
        let batches = TraceGenerator::new(tc).take_batches(3);
        let mut sys = MultiGpuSystem::new(shape, SystemSpec::p3_16xlarge());
        sys.simulate(&batches).expect("simulate")
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn paper_scale_iteration_lands_in_table1_band() {
        // Table I: 8-GPU iteration times 16.1–18.6 ms.
        let r = run(LocalityProfile::Random);
        let ms = r.iteration_time.as_millis();
        assert!((10.0..26.0).contains(&ms), "8-GPU iteration {ms} ms");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn high_locality_is_slower_due_to_contention() {
        // Table I's counter-intuitive trend: the GPU-only system slows
        // *down* with locality (hot-row atomic serialization).
        let rand = run(LocalityProfile::Random).iteration_time;
        let high = run(LocalityProfile::High).iteration_time;
        assert!(
            high > rand,
            "high locality {high} should exceed random {rand}"
        );
        let delta_ms = (high - rand).as_millis();
        assert!((0.2..8.0).contains(&delta_ms), "delta {delta_ms} ms");
    }

    #[test]
    fn single_gpu_spec_rejected() {
        let shape = ModelShape::paper_default();
        let mut sys = MultiGpuSystem::new(shape, SystemSpec::isca_paper());
        assert!(matches!(sys.simulate(&[]), Err(SystemError::Shape(_))));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn energy_accounts_for_eight_gpus() {
        let r = run(LocalityProfile::Medium);
        // Eight idle-plus-active GPUs must dwarf the single CPU socket.
        assert!(r.energy_per_iteration.gpu_joules > r.energy_per_iteration.cpu_joules);
    }
}
