//! §VI-G extension — ScratchPipe across multiple GPUs.
//!
//! The paper's discussion section sketches how ScratchPipe extends to a
//! table-wise model-parallel multi-GPU node: each GPU hosts the scratchpad
//! of its own tables ("RecSys with N embedding tables will have N
//! instances of ScratchPipe's cache manager"), so no inter-GPU RAW hazards
//! arise and the Hold-mask machinery works unchanged per GPU. The paper
//! then argues the design is *"likely not going to be cost-effective in
//! terms of TCO reduction"* because the DNNs were never the bottleneck —
//! and leaves the quantitative evaluation as future work.
//!
//! This module is that evaluation. It reuses the single-GPU analytic
//! runtime per GPU (per-table managers are already independent) and
//! re-times the pipeline under the multi-GPU resource topology:
//!
//! * \[Plan\]/\[Train\] run per GPU **in parallel** — the slowest GPU sets
//!   the stage time; the dense work is data-parallel (`/G`) with an
//!   all-to-all + all-reduce like the GPU-only comparator;
//! * \[Collect\]/\[Insert\] still funnel through the **single** host
//!   memory system — their traffic is the *sum* over GPUs;
//! * \[Exchange\] shares the host's PCIe complex (model: one x16 link per
//!   direction, as on the paper's Zion-like host).
//!
//! The punchline (`repro_report ext_multigpu`, `EXPERIMENTS.md` §VI-G): on
//! low-locality traces the pipeline stays CPU-bound, so 8× the GPUs buy
//! almost nothing; on high-locality traces the Train stage shrinks ~G-fold
//! but the price grows 8× — the single-GPU design point remains the TCO
//! winner, exactly as §VI-G predicts.

use embeddings::{SparseBatch, TableBag};
use memsim::{CostModel, PowerModel, SimTime, SystemSpec, Traffic};
use scratchpipe::{EvictionPolicy, Pipeline, PipelineConfig, Schedule, StageId};

use crate::report::{SystemError, SystemReport, TrainingSystem};
use crate::scratchpipe_sys::ScratchPipeSystem;
use crate::shape::ModelShape;
use crate::timing;

/// ScratchPipe running table-wise model-parallel across `G` GPUs.
#[derive(Debug, Clone)]
pub struct ScratchPipeMultiGpu {
    shape: ModelShape,
    cache_fraction: f64,
    policy: EvictionPolicy,
    cost: CostModel,
    power: PowerModel,
    gpus: u32,
    prewarm: Option<Vec<Vec<u64>>>,
}

impl ScratchPipeMultiGpu {
    /// Creates the extension on a multi-GPU node spec.
    pub fn new(shape: ModelShape, cache_fraction: f64, spec: SystemSpec) -> Self {
        let gpus = spec.num_gpus;
        ScratchPipeMultiGpu {
            shape,
            cache_fraction: cache_fraction.clamp(0.0, 1.0),
            policy: EvictionPolicy::Lru,
            cost: CostModel::new(spec),
            power: PowerModel::p3_16xlarge(),
            gpus,
            prewarm: None,
        }
    }

    /// Pre-warms every table's scratchpad (hottest rows first).
    pub fn with_prewarm(mut self, hot_rows: Vec<Vec<u64>>) -> Self {
        self.prewarm = Some(hot_rows);
        self
    }

    /// Scratchpad slots per table — same §VI-D provisioning as the
    /// single-GPU system.
    pub fn slots_per_table(&self) -> usize {
        ScratchPipeSystem::new(
            self.shape.clone(),
            self.cache_fraction,
            crate::scratchpipe_sys::CacheMode::Pipelined,
            *self.cost.spec(),
        )
        .slots_per_table()
    }

    /// Which GPU owns table `t` (round-robin table-wise parallelism).
    fn owner(&self, t: usize) -> usize {
        t % self.gpus as usize
    }

    /// Splits one batch into per-GPU sub-batches (each GPU sees only the
    /// bags of its own tables, in stable table order).
    fn split_batch(&self, batch: &SparseBatch) -> Vec<Vec<TableBag>> {
        let mut per_gpu: Vec<Vec<TableBag>> = vec![Vec::new(); self.gpus as usize];
        for (t, bag) in batch.bags() {
            per_gpu[self.owner(t)].push(bag.clone());
        }
        per_gpu
    }
}

impl TrainingSystem for ScratchPipeMultiGpu {
    fn name(&self) -> &'static str {
        "ScratchPipe 8-GPU (§VI-G)"
    }

    fn simulate(&mut self, batches: &[SparseBatch]) -> Result<SystemReport, SystemError> {
        self.shape.validate().map_err(SystemError::Shape)?;
        if self.gpus < 2 {
            return Err(SystemError::Shape(
                "multi-GPU ScratchPipe needs num_gpus ≥ 2".to_owned(),
            ));
        }
        let g = self.gpus as usize;
        let slots = self.slots_per_table();

        // One analytic ScratchPipe runtime per GPU over its own tables.
        let mut per_gpu_tables: Vec<Vec<usize>> = vec![Vec::new(); g];
        for t in 0..self.shape.num_tables {
            per_gpu_tables[self.owner(t)].push(t);
        }
        let mut runtimes: Vec<Option<Pipeline<scratchpipe::UnitBackend>>> = per_gpu_tables
            .iter()
            .map(|tables| {
                if tables.is_empty() {
                    return Ok(None);
                }
                let config =
                    PipelineConfig::analytic(self.shape.dim, slots).with_policy(self.policy);
                let mut rt = Pipeline::builder()
                    .config(config)
                    .analytic_tables(tables.len(), self.shape.rows_per_table)
                    .backend(scratchpipe::UnitBackend::new(0.0))
                    .schedule(Schedule::Sync)
                    .named("scratchpipe-multi-gpu")
                    .build()?;
                if let Some(all_hot) = &self.prewarm {
                    let mine: Vec<Vec<u64>> = tables.iter().map(|&t| all_hot[t].clone()).collect();
                    rt.prewarm(&mine)?;
                }
                Ok(Some(rt))
            })
            .collect::<Result<_, scratchpipe::ScratchError>>()?;

        // Per-GPU sub-traces.
        let sub_traces: Vec<Vec<SparseBatch>> = (0..g)
            .map(|gpu| {
                batches
                    .iter()
                    .filter(|_| !per_gpu_tables[gpu].is_empty())
                    .map(|b| SparseBatch::new(self.split_batch(b)[gpu].clone()))
                    .collect()
            })
            .collect();
        let reports: Vec<Option<scratchpipe::PipelineReport>> = runtimes
            .iter_mut()
            .zip(&sub_traces)
            .map(|(rt, trace)| match rt {
                Some(rt) => rt.run(trace).map(Some),
                None => Ok(None),
            })
            .collect::<Result<_, scratchpipe::ScratchError>>()?;

        // Re-time each iteration under the multi-GPU topology.
        let pooled_bytes = self.shape.dlrm.pooled_bytes(self.shape.batch_size);
        let params = 2_100_000u64;
        let gq = self.gpus as u64;
        let times: Vec<Vec<SimTime>> = (0..batches.len())
            .map(|i| {
                // GPU-parallel stages: slowest GPU wins.
                let mut plan = SimTime::ZERO;
                let mut train_emb = SimTime::ZERO;
                // Host-funnel stages: sum over GPUs.
                let mut collect = Traffic::ZERO;
                let mut exchange = Traffic::ZERO;
                let mut insert = Traffic::ZERO;
                for rep in reports.iter().flatten() {
                    let st = &rep.records[i].traffic;
                    plan = plan.max(self.cost.traffic_time(&st.plan));
                    train_emb = train_emb.max(self.cost.gpu_time(&st.train));
                    collect += st.collect;
                    exchange += st.exchange;
                    insert += st.insert;
                }
                // Every table is some GPU's, so the hottest row over the
                // pipelines' own dedup counts is the batch's.
                let max_dup = reports
                    .iter()
                    .flatten()
                    .map(|rep| rep.max_dup[i])
                    .max()
                    .unwrap_or(0);
                // Dense: data-parallel shard + fabric traffic + sync.
                let dense = Traffic {
                    gpu_flops: self.shape.dlrm.train_flops(self.shape.batch_size) / gq,
                    gpu_ops: self.shape.dlrm.train_kernel_count(),
                    gpu_stream_read_bytes: 2 * pooled_bytes / gq,
                    gpu_stream_write_bytes: 2 * pooled_bytes / gq,
                    nvlink_bytes: 2 * pooled_bytes * (gq - 1) / gq + 2 * params * 4 * (gq - 1) / gq,
                    ..Traffic::ZERO
                };
                let train = train_emb
                    + self.cost.traffic_time(&dense)
                    + SimTime::from_millis(timing::SYNC_OVERHEAD_MS)
                    + timing::contention_time(max_dup, self.shape.dim);
                let mut times = vec![SimTime::ZERO; StageId::COUNT];
                times[StageId::Plan.index()] = plan;
                times[StageId::Collect.index()] = self.cost.traffic_time(&collect);
                times[StageId::Exchange.index()] = self.cost.traffic_time(&exchange);
                times[StageId::Insert.index()] = self.cost.traffic_time(&insert);
                times[StageId::Train.index()] = train;
                times
            })
            .collect();

        let mut report = SystemReport::on_graph(
            self.name(),
            ScratchPipeSystem::stage_names(),
            ScratchPipeSystem::stage_resources(),
            times,
            Schedule::Sync.edges(),
            &self.power,
        );
        let (hits, misses) = reports.iter().flatten().fold((0u64, 0u64), |acc, r| {
            let h: u64 = r.records.iter().map(|x| x.hits).sum();
            let m: u64 = r.records.iter().map(|x| x.misses).sum();
            (acc.0 + h, acc.1 + m)
        });
        report.hit_rate = if hits + misses > 0 {
            Some(hits as f64 / (hits + misses) as f64)
        } else {
            None
        };
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{LocalityProfile, TraceGenerator};

    fn run(profile: LocalityProfile, shape: ModelShape, fraction: f64) -> SystemReport {
        let tc = shape.trace_config(profile, 3);
        let gen = TraceGenerator::new(tc);
        let slots = ScratchPipeMultiGpu::new(shape.clone(), fraction, SystemSpec::p3_16xlarge())
            .slots_per_table() as u64;
        let hot: Vec<Vec<u64>> = (0..shape.num_tables)
            .map(|t| gen.hot_rows(t, slots))
            .collect();
        let batches = gen.take_batches(8);
        let mut sys =
            ScratchPipeMultiGpu::new(shape, fraction, SystemSpec::p3_16xlarge()).with_prewarm(hot);
        sys.simulate(&batches).expect("simulate")
    }

    fn scaled_shape() -> ModelShape {
        let mut s =
            crate::runner::ExperimentConfig::scaled_down(LocalityProfile::Medium, 0.1, 1).shape;
        s.num_tables = 4;
        s
    }

    #[test]
    fn runs_and_reports_at_scaled_size() {
        let r = run(LocalityProfile::Medium, scaled_shape(), 0.1);
        assert_eq!(r.stage_names.len(), 5);
        assert!(r.iteration_time.as_millis() > 0.0);
        assert!(r.hit_rate.is_some());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn cpu_funnel_limits_multi_gpu_scratchpipe_at_low_locality() {
        // §VI-G's argument, quantified: on a Random trace the pipeline is
        // CPU-bound, so 8 GPUs barely improve on 1.
        let shape = ModelShape::paper_default();
        let multi = run(LocalityProfile::Random, shape.clone(), 0.02);
        let single = {
            let cfg = crate::runner::ExperimentConfig::paper(LocalityProfile::Random, 0.02, 8);
            crate::runner::run_system(crate::runner::SystemKind::ScratchPipe, &cfg)
                .expect("single-GPU")
        };
        let gain = single.iteration_time / multi.iteration_time;
        assert!(
            gain < 1.35,
            "8 GPUs should barely help a CPU-bound pipeline: gain {gain}"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn multi_gpu_scratchpipe_is_never_cost_effective() {
        // TCO check across localities: gain < 8× price ratio everywhere.
        use memsim::{InstanceSpec, TrainingCost};
        for profile in tracegen::LocalityProfile::SWEEP {
            let shape = ModelShape::paper_default();
            let multi = run(profile, shape.clone(), 0.02);
            let cfg = crate::runner::ExperimentConfig::paper(profile, 0.02, 8);
            let single = crate::runner::run_system(crate::runner::SystemKind::ScratchPipe, &cfg)
                .expect("single");
            let multi_cost = TrainingCost::per_million_iterations(
                InstanceSpec::p3_16xlarge(),
                multi.iteration_time,
            );
            let single_cost = TrainingCost::per_million_iterations(
                InstanceSpec::p3_2xlarge(),
                single.iteration_time,
            );
            assert!(
                multi_cost.total_usd > single_cost.total_usd,
                "{profile}: multi ${} vs single ${}",
                multi_cost.total_usd,
                single_cost.total_usd
            );
        }
    }
}
