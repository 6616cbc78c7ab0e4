//! ScratchPipe and its straw-man as simulated training systems.
//!
//! Both share the dynamic scratchpad of the `scratchpipe` crate; they
//! differ only in scheduling:
//!
//! * [`CacheMode::Sequential`] — the §IV-B straw-man: Query/Collect/
//!   Exchange/Insert run to completion before every training step, so the
//!   iteration time is the *sum* of the stage times.
//! * [`CacheMode::Pipelined`] — full ScratchPipe: six concurrent
//!   mini-batches, Hold-mask hazard elimination, and an iteration time
//!   equal to the pipeline's steady-state initiation interval — in
//!   practice `max(GPU: Plan+Train, CPU: Collect+Insert, PCIe: Exchange)`.

use dlrm::DlrmConfig;
use embeddings::{EmbeddingTable, SparseBatch};
use memsim::pipeline::Resource;
use memsim::{CostModel, PowerModel, SimTime, SystemSpec, Traffic};
use scratchpipe::backend::{DenseBackend, PooledView, StepResult};
use scratchpipe::{
    EvictionPolicy, Pipeline, PipelineConfig, PipelineReport, Schedule, StageId, StageTraffic,
    WindowConfig,
};
use serde::Serialize;

use crate::backend::DlrmBackend;
use crate::report::{SystemError, SystemReport, TrainingSystem};
use crate::shape::ModelShape;
use crate::timing;

/// Scheduling discipline of the dynamic cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheMode {
    /// Straw-man: cache management serializes with training (§IV-B).
    Sequential,
    /// Full ScratchPipe: six-stage pipelined execution (§IV-C).
    Pipelined,
}

/// A backend that contributes only *traffic* — used for analytic
/// (paper-scale) runs where the dense arithmetic never executes.
#[derive(Debug, Clone)]
struct TrafficOnlyBackend {
    config: DlrmConfig,
}

impl DenseBackend for TrafficOnlyBackend {
    fn step(
        &mut self,
        _: usize,
        _: &SparseBatch,
        _pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult {
        grads.fill(0.0);
        StepResult { loss: 0.0 }
    }

    fn learning_rate(&self) -> f32 {
        0.0
    }

    fn traffic(&self, batch_size: usize) -> Traffic {
        Traffic {
            gpu_flops: self.config.train_flops(batch_size),
            gpu_ops: self.config.train_kernel_count(),
            gpu_stream_read_bytes: 2 * self.config.pooled_bytes(batch_size),
            gpu_stream_write_bytes: 2 * self.config.pooled_bytes(batch_size),
            ..Traffic::ZERO
        }
    }
}

/// ScratchPipe (or its straw-man) as a [`TrainingSystem`].
#[derive(Debug, Clone)]
pub struct ScratchPipeSystem {
    shape: ModelShape,
    cache_fraction: f64,
    mode: CacheMode,
    policy: EvictionPolicy,
    cost: CostModel,
    power: PowerModel,
    prewarm: Option<Vec<Vec<u64>>>,
    last_report: Option<PipelineReport>,
}

impl ScratchPipeSystem {
    /// Creates the system with the given scratchpad size (fraction of each
    /// table) and scheduling mode.
    pub fn new(shape: ModelShape, cache_fraction: f64, mode: CacheMode, spec: SystemSpec) -> Self {
        ScratchPipeSystem {
            shape,
            cache_fraction: cache_fraction.clamp(0.0, 1.0),
            mode,
            policy: EvictionPolicy::Lru,
            cost: CostModel::new(spec),
            power: PowerModel::isca_paper(),
            prewarm: None,
            last_report: None,
        }
    }

    /// Overrides the eviction policy (§VI-E ablation).
    pub(crate) fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Pre-warms the scratchpad with per-table hot rows (hottest first) so
    /// short simulations measure steady-state eviction traffic rather than
    /// the cold fill. Typically fed from
    /// [`TraceGenerator::hot_rows`](tracegen::TraceGenerator::hot_rows).
    pub fn with_prewarm(mut self, hot_rows: Vec<Vec<u64>>) -> Self {
        self.prewarm = Some(hot_rows);
        self
    }

    /// Scratchpad slots per table: the requested cache fraction, floored
    /// by the §VI-D provisioning rule (the window's worst-case working
    /// set must always fit; the paper sizes its Storage array the same
    /// way).
    pub fn slots_per_table(&self) -> usize {
        let want = (self.cache_fraction * self.shape.rows_per_table as f64).floor() as usize;
        // The past window plus the current batch — future rows are only
        // held when already cached.
        let window_batches = WindowConfig::PAPER.past as usize + 1;
        let per_batch = self.shape.batch_size * self.shape.lookups_per_sample;
        let floor = (window_batches * per_batch * 21 / 20).max(per_batch) + 8;
        want.max(floor).min(self.shape.rows_per_table as usize)
    }

    /// The cache-management report of the most recent simulation.
    pub fn last_pipeline_report(&self) -> Option<&PipelineReport> {
        self.last_report.as_ref()
    }

    /// The pipeline schedule matching this cache mode.
    fn schedule(&self) -> Schedule {
        match self.mode {
            CacheMode::Sequential => Schedule::Sequential,
            CacheMode::Pipelined => Schedule::Sync,
        }
    }

    /// The pipeline's stage names, in order, as a [`SystemReport`] takes
    /// them.
    pub(crate) fn stage_names() -> Vec<String> {
        StageTraffic::STAGE_NAMES.map(str::to_owned).to_vec()
    }

    /// The simulated resource of each stage, aligned with
    /// [`ScratchPipeSystem::stage_names`].
    pub(crate) fn stage_resources() -> Vec<Resource> {
        StageId::ALL.map(StageId::resource).to_vec()
    }

    /// Trains real tables functionally (used by the equivalence tests and
    /// the examples); returns the trained tables and the cache report.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (capacity, hazards, shape).
    pub fn train_functional(
        &self,
        tables: Vec<EmbeddingTable>,
        batches: &[SparseBatch],
        backend: DlrmBackend,
    ) -> Result<(Vec<EmbeddingTable>, DlrmBackend, PipelineReport), SystemError> {
        let config = PipelineConfig::functional(self.shape.dim, self.slots_per_table())
            .with_policy(self.policy);
        let config = match self.mode {
            CacheMode::Sequential => config.sequential(),
            CacheMode::Pipelined => config,
        };
        let mut pipeline = Pipeline::builder()
            .config(config)
            .tables(tables)
            .backend(backend)
            .schedule(self.schedule())
            .named("scratchpipe-system")
            .build()?;
        if let Some(rows) = &self.prewarm {
            pipeline.prewarm(rows)?;
        }
        let report = pipeline.run(batches)?;
        let backend = pipeline.backend().clone();
        Ok((pipeline.into_tables(), backend, report))
    }
}

impl TrainingSystem for ScratchPipeSystem {
    fn name(&self) -> &'static str {
        match self.mode {
            CacheMode::Sequential => "Straw-man",
            CacheMode::Pipelined => "ScratchPipe",
        }
    }

    fn simulate(&mut self, batches: &[SparseBatch]) -> Result<SystemReport, SystemError> {
        self.shape.validate().map_err(SystemError::Shape)?;
        let config = PipelineConfig::analytic(self.shape.dim, self.slots_per_table())
            .with_policy(self.policy);
        let config = match self.mode {
            CacheMode::Sequential => config.sequential(),
            CacheMode::Pipelined => config,
        };
        let backend = TrafficOnlyBackend {
            config: self.shape.dlrm.clone(),
        };
        let mut pipeline = Pipeline::builder()
            .config(config)
            .analytic_tables(self.shape.num_tables, self.shape.rows_per_table)
            .backend(backend)
            .schedule(self.schedule())
            .named("scratchpipe-analytic")
            .build()?;
        if let Some(rows) = &self.prewarm {
            pipeline.prewarm(rows)?;
        }
        let report = pipeline.run(batches)?;

        // Map per-iteration stage traffic to stage latencies, adding the
        // hot-row scatter-contention penalty to the Train stage (its
        // duplicate count comes from [Plan]'s dedup, not a second sort).
        let times: Vec<Vec<SimTime>> = report
            .records
            .iter()
            .zip(&report.max_dup)
            .map(|(rec, &max_dup)| {
                let mut times: Vec<SimTime> = rec
                    .traffic
                    .stages()
                    .iter()
                    .map(|traffic| self.cost.traffic_time(traffic))
                    .collect();
                times[StageId::Train.index()] += timing::contention_time(max_dup, self.shape.dim);
                times
            })
            .collect();

        let mut sys_report = SystemReport::on_graph(
            self.name(),
            Self::stage_names(),
            Self::stage_resources(),
            times,
            self.schedule().edges(),
            &self.power,
        );
        sys_report.hit_rate = Some(report.hit_rate());
        self.last_report = Some(report);
        Ok(sys_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{LocalityProfile, TraceGenerator};

    fn run(mode: CacheMode, profile: LocalityProfile, fraction: f64, n: usize) -> SystemReport {
        let shape = ModelShape::paper_default();
        let tc = shape.trace_config(profile, 3);
        let batches = TraceGenerator::new(tc).take_batches(n);
        let mut sys = ScratchPipeSystem::new(shape, fraction, mode, SystemSpec::isca_paper());
        sys.simulate(&batches).expect("simulate")
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn paper_scale_iteration_lands_in_table1_band() {
        // Table I: ScratchPipe 26–48 ms per iteration across localities.
        let rand = run(CacheMode::Pipelined, LocalityProfile::Random, 0.02, 12);
        let high = run(CacheMode::Pipelined, LocalityProfile::High, 0.02, 12);
        let r = rand.iteration_time.as_millis();
        let h = high.iteration_time.as_millis();
        assert!((30.0..75.0).contains(&r), "random {r} ms");
        assert!((15.0..40.0).contains(&h), "high {h} ms");
        assert!(r > h, "locality must reduce iteration time");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn pipelining_beats_strawman() {
        let straw = run(CacheMode::Sequential, LocalityProfile::Medium, 0.04, 10);
        let pipe = run(CacheMode::Pipelined, LocalityProfile::Medium, 0.04, 10);
        let speedup = pipe.speedup_over(&straw);
        assert!(speedup > 1.3, "pipelining speedup {speedup}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn provisioning_floor_prevents_capacity_exhaustion() {
        // Even a 0.1 % cache request gets the §VI-D floor and must run.
        let r = run(CacheMode::Pipelined, LocalityProfile::Random, 0.001, 8);
        assert!(r.iteration_time > SimTime::ZERO);
    }

    #[test]
    fn slots_respect_fraction_when_above_floor() {
        let shape = ModelShape::paper_default();
        let sys =
            ScratchPipeSystem::new(shape, 0.05, CacheMode::Pipelined, SystemSpec::isca_paper());
        assert_eq!(sys.slots_per_table(), 500_000);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn train_stage_dominates_at_high_locality() {
        // Figure 12(b): with locality, Collect/Insert shrink and the GPU
        // Train stage becomes the pipeline bottleneck.
        let r = run(CacheMode::Pipelined, LocalityProfile::High, 0.10, 12);
        let train = r.breakdown[4].1;
        let collect = r.breakdown[1].1;
        assert!(train > collect, "train {train} vs collect {collect}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn cpu_stages_dominate_at_random() {
        // Figure 12(b): with no locality, Collect+Insert grow past Train.
        let r = run(CacheMode::Pipelined, LocalityProfile::Random, 0.02, 12);
        let train = r.breakdown[4].1;
        let cpu = r.breakdown[1].1 + r.breakdown[3].1;
        assert!(cpu > train, "cpu {cpu} vs train {train}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
    fn hit_rate_reported() {
        // Note: this is the *unique-ID* hit rate over a short run that
        // includes the cold fill, so it sits well below the per-lookup
        // steady-state hit rate the paper quotes.
        let r = run(CacheMode::Pipelined, LocalityProfile::High, 0.05, 10);
        let hr = r.hit_rate.expect("hit rate");
        assert!(hr > 0.15 && hr < 1.0, "hit rate {hr}");
    }
}
