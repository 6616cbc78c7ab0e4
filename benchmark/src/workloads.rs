//! The six workloads: their shapes, their set-up, and the one public
//! call each of them times.
//!
//! Names and shapes are the benchmark's contract (see `BENCHMARK.json`
//! and `README.md`): changing one changes what every later PR is
//! measured against.

use std::time::Instant;

use dlrm::DlrmConfig;
use embeddings::{EmbeddingTable, SparseBatch};
use memsim::{CostModel, PowerModel, Resource, SimTime, SystemSpec};
use scratchpipe::{
    DenseBackend, MemorySink, Pipeline, PipelineConfig, PipelineReport, RecoveryPolicy, Schedule,
    StageTraffic, Telemetry,
};
use systems::report::SystemReport;
use systems::{timing, CacheMode, ModelShape, ScratchPipeSystem, StaticCacheSystem};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

/// Embedding/dense learning rate of every functional workload.
pub const LR: f32 = 0.01;

/// The public call a functional workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Pipeline::run` under this schedule.
    Run(Schedule),
    /// `Pipeline::run_supervised(RecoveryPolicy::default())`, `Sync`.
    Supervised,
}

impl Call {
    /// The schedule handed to the builder (before `Auto` resolves).
    pub fn schedule(self) -> Schedule {
        match self {
            Call::Run(schedule) => schedule,
            Call::Supervised => Schedule::Sync,
        }
    }
}

/// The dense half plugged into \[Train\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dense {
    /// `scratchpipe::UnitBackend` — negligible dense work.
    Unit,
    /// `systems::DlrmBackend` — a real MLP stack.
    Dlrm,
}

/// What a workload executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Real tables trained through a `Pipeline`.
    Functional {
        /// Timed entry point.
        call: Call,
        /// Dense backend.
        dense: Dense,
    },
    /// `ScratchPipeSystem::simulate` (analytic pipeline + `memsim`):
    /// metadata and traffic only.
    Analytic,
}

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Contract name.
    pub name: &'static str,
    /// Trace locality.
    pub profile: LocalityProfile,
    /// Embedding tables.
    pub num_tables: usize,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Embedding width.
    pub dim: usize,
    /// Lookups per table per sample.
    pub lookups: usize,
    /// Samples per mini-batch.
    pub batch: usize,
    /// Scratchpad slots per table.
    pub slots: usize,
    /// Mini-batches per repetition.
    pub iterations: usize,
    /// What it executes.
    pub kind: Kind,
}

/// Paper-scale cache fraction of `paper_analytic` (2 % of each table).
const PAPER_CACHE_FRACTION: f64 = 0.02;

/// The workloads, in report order. Each exists because it loads a
/// different layer (validated by the traced pass's `stages.*_share`):
///
/// * `plan_bound` — ~80 % misses on 64-byte rows: Plan (Hit-Map index,
///   Hold mask, victim pool, lookup indexing) dominates.
/// * `copy_bound` — ~95 % misses on 1 KiB rows: Collect + Insert +
///   embedding gather/scatter dominate; Plan work should barely move it.
/// * `train_bound` — the dense DLRM step dominates: the bypass workload
///   for every cache-side optimisation.
/// * `default_auto` — `Schedule::Auto` with a machine-sized pool: what a
///   user gets out of the box; where overlap and dispatch changes show.
/// * `supervised` — `default_auto`'s trace under `run_supervised`: the
///   same layers plus snapshots and undo logging.
/// * `paper_analytic` — paper scale, metadata only: Plan at 200 k slots
///   with the index out of cache, and the only source of the paper's
///   *simulated* numbers.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "plan_bound",
        profile: LocalityProfile::Low,
        num_tables: 8,
        rows_per_table: 100_000,
        dim: 16,
        lookups: 8,
        batch: 256,
        slots: 13_500,
        iterations: 250,
        kind: Kind::Functional {
            call: Call::Run(Schedule::Sync),
            dense: Dense::Unit,
        },
    },
    Workload {
        name: "copy_bound",
        profile: LocalityProfile::Random,
        num_tables: 4,
        rows_per_table: 50_000,
        dim: 256,
        lookups: 1,
        batch: 256,
        slots: 2_200,
        iterations: 1_400,
        kind: Kind::Functional {
            call: Call::Run(Schedule::Sync),
            dense: Dense::Unit,
        },
    },
    Workload {
        name: "train_bound",
        profile: LocalityProfile::High,
        num_tables: 4,
        rows_per_table: 50_000,
        dim: 64,
        lookups: 8,
        batch: 256,
        slots: 9_000,
        iterations: 130,
        kind: Kind::Functional {
            call: Call::Run(Schedule::Sync),
            dense: Dense::Dlrm,
        },
    },
    Workload {
        name: "default_auto",
        profile: LocalityProfile::Medium,
        num_tables: 4,
        rows_per_table: 50_000,
        dim: 32,
        lookups: 8,
        batch: 128,
        slots: 6_800,
        iterations: 1_500,
        kind: Kind::Functional {
            call: Call::Run(Schedule::Auto),
            dense: Dense::Unit,
        },
    },
    Workload {
        name: "supervised",
        profile: LocalityProfile::Medium,
        num_tables: 4,
        rows_per_table: 50_000,
        dim: 32,
        lookups: 8,
        batch: 128,
        slots: 6_800,
        iterations: 1_500,
        kind: Kind::Functional {
            call: Call::Supervised,
            dense: Dense::Unit,
        },
    },
    Workload {
        name: "paper_analytic",
        profile: LocalityProfile::Medium,
        num_tables: 8,
        rows_per_table: 10_000_000,
        dim: 128,
        lookups: 20,
        batch: 2_048,
        slots: 200_000,
        iterations: 16,
        kind: Kind::Analytic,
    },
];

/// Looks a workload up by its contract name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Iterations per repetition; `--smoke` runs about a twentieth.
    pub fn iterations(&self, smoke: bool) -> usize {
        if smoke {
            (self.iterations / 20).max(8)
        } else {
            self.iterations
        }
    }

    /// The trace configuration `seed` feeds.
    pub fn trace_config(&self, seed: u64) -> TraceConfig {
        TraceConfig {
            num_tables: self.num_tables,
            rows_per_table: self.rows_per_table,
            lookups_per_sample: self.lookups,
            batch_size: self.batch,
            profile: self.profile,
            seed,
        }
    }

    /// Generates the first `iterations` mini-batches of the seed's trace.
    pub fn trace(&self, seed: u64, iterations: usize) -> Vec<SparseBatch> {
        TraceGenerator::new(self.trace_config(seed)).take_batches(iterations)
    }

    /// Freshly seeded CPU tables (functional workloads).
    pub fn tables(&self, seed: u64) -> Vec<EmbeddingTable> {
        (0..self.num_tables)
            .map(|t| {
                EmbeddingTable::seeded(
                    self.rows_per_table as usize,
                    self.dim,
                    seed.wrapping_add(t as u64),
                )
            })
            .collect()
    }

    /// `train_bound`'s dense model: 13→128→64→64 bottom, →256→128→1 top.
    pub fn dlrm_config(&self) -> DlrmConfig {
        DlrmConfig {
            dense_dim: 13,
            bottom_widths: vec![13, 128, 64, self.dim],
            top_widths: vec![
                dlrm::interaction::output_dim(self.num_tables, self.dim),
                256,
                128,
                1,
            ],
            emb_dim: self.dim,
            num_tables: self.num_tables,
        }
    }

    /// Samples one repetition trains.
    pub fn samples(&self, iterations: usize) -> f64 {
        (self.batch * iterations) as f64
    }

    /// Builds the functional pipeline over `tables`. `observed` attaches
    /// a `MemorySink` and a `Telemetry` collector (traced pass only).
    pub fn build<B: DenseBackend + Send>(
        &self,
        tables: Vec<EmbeddingTable>,
        backend: B,
        call: Call,
        observed: bool,
    ) -> Result<Pipeline<B>, String> {
        // The library's default functional configuration, hazard checker
        // included: what a user gets without tuning anything.
        let mut builder = Pipeline::builder()
            .config(PipelineConfig::functional(self.dim, self.slots))
            .tables(tables)
            .backend(backend)
            .schedule(call.schedule())
            .parallelism(0)
            .named(self.name);
        if observed {
            builder = builder.audit(MemorySink::new()).telemetry(Telemetry::new());
        }
        builder.build().map_err(|e| e.to_string())
    }

    /// The paper-scale analytic system, prewarmed with the hottest rows.
    pub fn analytic_system(&self, seed: u64) -> ScratchPipeSystem {
        let sys = ScratchPipeSystem::new(
            ModelShape::paper_default(),
            PAPER_CACHE_FRACTION,
            CacheMode::Pipelined,
            SystemSpec::isca_paper(),
        );
        assert_eq!(sys.slots_per_table(), self.slots, "paper_analytic slots");
        sys.with_prewarm(self.hot_rows(seed))
    }

    /// The static top-N cache comparator at the same shape, cache
    /// fraction and trace popularity as [`Workload::analytic_system`].
    pub fn static_cache_system(&self, seed: u64) -> StaticCacheSystem {
        StaticCacheSystem::new(
            ModelShape::paper_default(),
            PAPER_CACHE_FRACTION,
            TraceGenerator::new(self.trace_config(seed)).hot_oracle(),
            SystemSpec::isca_paper(),
        )
    }

    /// Per-table hottest rows, hottest first, one scratchpad's worth.
    pub fn hot_rows(&self, seed: u64) -> Vec<Vec<u64>> {
        let gen = TraceGenerator::new(self.trace_config(seed));
        (0..self.num_tables)
            .map(|t| gen.hot_rows(t, self.slots as u64))
            .collect()
    }
}

/// Runs the workload's timed public call once and returns its report and
/// wall seconds. The clock sits *outside* the call, so the per-batch
/// dedup pre-pass and the final flush are on it.
pub fn timed_call<B: DenseBackend + Send + Clone>(
    call: Call,
    pipeline: &mut Pipeline<B>,
    batches: &[SparseBatch],
) -> Result<(PipelineReport, f64), String> {
    let started = Instant::now();
    let report = match call {
        Call::Run(_) => pipeline.run(batches),
        Call::Supervised => pipeline
            .run_supervised(batches, RecoveryPolicy::default())
            .map(|run| run.report),
    };
    let wall = started.elapsed().as_secs_f64();
    report.map(|r| (r, wall)).map_err(|e| e.to_string())
}

/// Modelled CPU↔GPU bytes per iteration: Σ over stages of
/// `pcie_h2d_bytes + pcie_d2h_bytes`, ÷ iterations (the one-off final
/// flush is not a per-iteration cost and is left out).
pub fn pcie_bytes_per_iter(report: &PipelineReport) -> f64 {
    let total = report.total_traffic().total();
    (total.pcie_h2d_bytes + total.pcie_d2h_bytes) as f64 / report.iterations.max(1) as f64
}

/// Steady-state *simulated* iteration time (µs) of a run's per-iteration
/// stage traffic under `SystemSpec::isca_paper()` — the same composition
/// `ScratchPipeSystem::simulate` applies to its own report, so on
/// `paper_analytic` the two must agree exactly.
pub fn sim_iter_us(report: &PipelineReport, batches: &[SparseBatch], dim: usize) -> f64 {
    let cost = CostModel::new(SystemSpec::isca_paper());
    let times: Vec<Vec<SimTime>> = report
        .records
        .iter()
        .zip(batches)
        .map(|(rec, batch)| {
            let st = &rec.traffic;
            let max_dup = batch
                .bags()
                .map(|(_, bag)| timing::max_dup_count(bag))
                .max()
                .unwrap_or(0);
            vec![
                cost.traffic_time(&st.plan),
                cost.traffic_time(&st.collect),
                cost.traffic_time(&st.exchange),
                cost.traffic_time(&st.insert),
                cost.traffic_time(&st.train) + timing::contention_time(max_dup, dim),
            ]
        })
        .collect();
    let names = StageTraffic::STAGE_NAMES.map(str::to_owned).to_vec();
    let resources = vec![
        Resource::Gpu,
        Resource::CpuMem,
        Resource::PcieH2D,
        Resource::CpuMem,
        Resource::Gpu,
    ];
    let skip = (batches.len() / 3).min(10);
    SystemReport::from_pipelined_stages(
        "replayed",
        names,
        resources,
        times,
        &PowerModel::isca_paper(),
        skip,
    )
    .iteration_time
    .as_micros()
}

/// Order-sensitive hash of every table's exact f32 bit patterns — a
/// cheap stand-in for `bit_eq` when comparing many repetitions.
pub fn tables_hash(tables: &[EmbeddingTable]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for table in tables {
        for pair in table.as_flat().chunks(2) {
            let lo = u64::from(pair[0].to_bits());
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            h = (h ^ (lo | hi << 32)).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn scratchpads_fit_the_worst_case_window() {
        // past(3) + current + future(2) batches of all-distinct IDs must
        // fit, so no seed can exhaust capacity. Two workloads rely on
        // their locality instead and report how close they get as
        // `scratchpad.peak_held_share`: train_bound (High locality,
        // ~0.4) and paper_analytic (the paper's own 2 % sizing, ~0.7).
        let by_locality = ["train_bound", "paper_analytic"];
        for w in WORKLOADS.iter().filter(|w| !by_locality.contains(&w.name)) {
            assert!(6 * w.batch * w.lookups <= w.slots, "{}", w.name);
        }
    }

    #[test]
    fn dlrm_shape_validates() {
        let w = find("train_bound").unwrap();
        w.dlrm_config().validate().unwrap();
    }

    #[test]
    fn tables_hash_sees_single_bit_flips() {
        let a = vec![EmbeddingTable::seeded(10, 3, 1)];
        let mut flat = a[0].as_flat().to_vec();
        flat[29] = f32::from_bits(flat[29].to_bits() ^ 1);
        let b = vec![EmbeddingTable::from_fn(10, 3, |r, e| flat[r * 3 + e])];
        assert_ne!(tables_hash(&a), tables_hash(&b));
        assert_eq!(tables_hash(&a), tables_hash(&a.clone()));
    }
}
