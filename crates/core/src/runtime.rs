//! The stage table, run reports and the sequential reference trainer.
//!
//! [`StageId`] is the one statement of the pipeline's shape — which five
//! stages there are, in which order, under which names and on which
//! simulated resource — and everything else that depends on that shape is
//! derived from it. The pipeline *driver* lives in [`crate::pipeline`];
//! this module also holds what a run *produces*: per-stage
//! [`StageTraffic`], per-iteration [`IterationRecord`]s and the
//! aggregate [`PipelineReport`] — plus [`train_direct`], the cache-less
//! sequential reference implementation every pipelined schedule must
//! match bit-for-bit (the paper's "identical algorithmic behavior"
//! claim).
//!
//! All report types serialize through the vendored serde stand-in, and
//! the audit event stream (see [`crate::audit`]) reuses the exact same
//! `Serialize` path — summing the `traffic` field of emitted `iteration`
//! events reproduces [`PipelineReport::total_traffic`].

use embeddings::{ops, EmbeddingTable, SparseBatch};
use memsim::{Resource, Traffic};
use serde::{Deserialize, Serialize};

use crate::backend::DenseBackend;
use crate::stages::TrainArena;

/// The five pipeline stages (paper §IV-C, Fig. 10), in register order.
///
/// This is the only place the pipeline's shape is written down. A
/// mini-batch occupies one register per stage, so the distance between
/// two stages *is* the number of mini-batches in flight between them:
/// [`StageId::after`] gives the Hold-mask window
/// ([`WindowConfig::PAPER`](crate::WindowConfig::PAPER) — \[Train\] is 3
/// registers after \[Collect\], \[Insert\] is 2), the hazard checker's
/// reach, \[Collect\]'s barrier lags and the §VI-D provisioning window.
/// \[Exchange\] does nothing but account the PCIe hop, yet it keeps its
/// register: without it both distances, and with them the window, would
/// shrink by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Advance the Hit-Map, assign slots, pick victims.
    Plan,
    /// Gather missed rows from the CPU tables and victim rows from the
    /// scratchpad.
    Collect,
    /// The duplex PCIe hop.
    Exchange,
    /// Land fills in the scratchpad and write-backs in the CPU tables.
    Insert,
    /// Embedding forward/backward and the dense step, all on the GPU.
    Train,
}

impl StageId {
    /// Every stage, in pipeline order.
    pub const ALL: [StageId; 5] = [
        StageId::Plan,
        StageId::Collect,
        StageId::Exchange,
        StageId::Insert,
        StageId::Train,
    ];

    /// Number of stages — also the pipeline's depth, the most
    /// mini-batches the register schedule overlaps.
    pub const COUNT: usize = Self::ALL.len();

    /// Position in pipeline order (`ALL[s.index()] == s`).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable name, as used in audit events, telemetry and fault plans.
    pub const fn name(self) -> &'static str {
        match self {
            StageId::Plan => "Plan",
            StageId::Collect => "Collect",
            StageId::Exchange => "Exchange",
            StageId::Insert => "Insert",
            StageId::Train => "Train",
        }
    }

    /// The stage called `name` (ASCII case ignored), if any.
    pub fn from_name(name: &str) -> Option<StageId> {
        Self::ALL
            .into_iter()
            .find(|stage| stage.name().eq_ignore_ascii_case(name))
    }

    /// The hardware resource the stage occupies in the simulated system.
    pub const fn resource(self) -> Resource {
        match self {
            StageId::Plan | StageId::Train => Resource::Gpu,
            StageId::Collect | StageId::Insert => Resource::CpuMem,
            StageId::Exchange => Resource::PcieH2D,
        }
    }

    /// Whether the stage splits its iteration into shard tasks (and so
    /// can be the target of a shard fault or of a wider worker pool).
    /// Every stage that touches per-table state does; \[Exchange\] only
    /// accounts the PCIe hop.
    pub const fn shards(self) -> bool {
        !matches!(self, StageId::Exchange)
    }

    /// How many registers this stage sits after `earlier` (which must not
    /// come later in the pipeline).
    pub const fn after(self, earlier: StageId) -> usize {
        self.index() - earlier.index()
    }
}

const _: () = {
    let mut s = 0;
    while s < StageId::COUNT {
        assert!(StageId::ALL[s].index() == s, "ALL is in pipeline order");
        s += 1;
    }
};

/// Per-stage traffic of one iteration (or the sum over a run).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTraffic {
    /// \[Plan\]: sparse-ID upload + Hit-Map probing.
    pub plan: Traffic,
    /// \[Collect\]: CPU-table gathers of missed rows, scratchpad gathers of
    /// victim rows.
    pub collect: Traffic,
    /// \[Exchange\]: duplex PCIe transfers.
    pub exchange: Traffic,
    /// \[Insert\]: CPU-table write-backs, scratchpad fills.
    pub insert: Traffic,
    /// \[Train\]: embedding gathers/reduce/coalesce/scatter + dense model.
    pub train: Traffic,
}

impl StageTraffic {
    /// Stage names in pipeline order (matching the struct fields).
    pub const STAGE_NAMES: [&'static str; StageId::COUNT] = {
        let mut names = [""; StageId::COUNT];
        let mut s = 0;
        while s < StageId::COUNT {
            names[s] = StageId::ALL[s].name();
            s += 1;
        }
        names
    };

    /// Per-stage traffic in pipeline order.
    pub fn stages(&self) -> [Traffic; StageId::COUNT] {
        [
            self.plan,
            self.collect,
            self.exchange,
            self.insert,
            self.train,
        ]
    }

    /// The inverse of [`StageTraffic::stages`].
    fn from_stages([plan, collect, exchange, insert, train]: [Traffic; StageId::COUNT]) -> Self {
        StageTraffic {
            plan,
            collect,
            exchange,
            insert,
            train,
        }
    }

    /// Sum of all stages.
    pub fn total(&self) -> Traffic {
        self.stages().into_iter().sum()
    }
}

impl std::ops::Add for StageTraffic {
    type Output = StageTraffic;
    fn add(self, rhs: StageTraffic) -> StageTraffic {
        let (lhs, rhs) = (self.stages(), rhs.stages());
        StageTraffic::from_stages(std::array::from_fn(|s| lhs[s] + rhs[s]))
    }
}

impl std::ops::AddAssign for StageTraffic {
    fn add_assign(&mut self, rhs: StageTraffic) {
        *self = *self + rhs;
    }
}

/// Statistics of one pipeline iteration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Mini-batch index.
    pub index: usize,
    /// Unique-ID hits across tables at \[Plan\].
    pub hits: u64,
    /// Unique-ID misses (fills) across tables.
    pub misses: u64,
    /// Evictions (write-backs) across tables.
    pub evictions: u64,
    /// Total sparse lookups of the batch.
    pub total_lookups: u64,
    /// Unique rows touched by the batch.
    pub unique_rows: u64,
    /// Dense-model loss reported by the backend.
    pub loss: f32,
    /// Per-stage traffic of this iteration.
    pub traffic: StageTraffic,
}

/// Result of a pipelined run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Number of mini-batches trained.
    pub iterations: usize,
    /// Per-iteration statistics.
    pub records: Vec<IterationRecord>,
    /// Traffic of the final scratchpad flush back to CPU tables.
    pub flush_traffic: Traffic,
    /// Peak held (non-evictable) slots per table — the §VI-D working-set
    /// measurement.
    pub peak_held_slots: Vec<usize>,
    /// Per iteration, the hottest row's lookup count: the most times any
    /// one row of any table is looked up in the batch — the longest
    /// serialized update chain its gradient scatter meets. \[Plan\]'s
    /// dedup counts it for free, so the analytic systems read it here
    /// instead of sorting every bag again. (Not on [`IterationRecord`],
    /// whose fields are the audit stream's `iteration` line.)
    pub max_dup: Vec<u64>,
}

impl PipelineReport {
    /// Sum of all iterations' stage traffic.
    pub fn total_traffic(&self) -> StageTraffic {
        self.records
            .iter()
            .fold(StageTraffic::default(), |acc, r| acc + r.traffic)
    }

    /// Aggregate unique-ID hit rate across the run.
    pub fn hit_rate(&self) -> f64 {
        let hits: u64 = self.records.iter().map(|r| r.hits).sum();
        let misses: u64 = self.records.iter().map(|r| r.misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Mean loss over all iterations.
    pub fn mean_loss(&self) -> f32 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.loss).sum::<f32>() / self.records.len() as f32
    }
}

/// Reference implementation: sequential training directly on the CPU
/// tables, no cache. The pipelined runtime must produce **bit-identical**
/// tables and losses — the paper's "identical algorithmic behavior" claim.
pub fn train_direct<B: DenseBackend>(
    tables: &mut [EmbeddingTable],
    batches: &[SparseBatch],
    backend: &mut B,
) -> Vec<f32> {
    let mut losses = Vec::with_capacity(batches.len());
    let dim = tables.first().map_or(0, EmbeddingTable::dim);
    let mut arena = TrainArena::new();
    for (i, batch) in batches.iter().enumerate() {
        arena.prepare(tables.len(), batch.batch_size(), dim);
        for (t, bag) in batch.bags() {
            ops::gather_reduce_into(&tables[t], bag, |id| id as usize, arena.pooled_table_mut(t));
        }
        let (pooled, grads) = arena.split();
        let step = backend.step(i, batch, pooled, grads);
        let lr = backend.learning_rate();
        for (t, bag) in batch.bags() {
            ops::embedding_backward(&mut tables[t], bag, arena.grads_table(t), lr);
        }
        losses.push(step.loss);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let mut report = PipelineReport {
            iterations: 1,
            records: vec![IterationRecord {
                index: 0,
                hits: 3,
                misses: 2,
                evictions: 1,
                total_lookups: 8,
                unique_rows: 5,
                loss: 0.125,
                traffic: StageTraffic::default(),
            }],
            flush_traffic: Traffic::ZERO,
            peak_held_slots: vec![4],
            max_dup: vec![2],
        };
        report.records[0].traffic.train.gpu_flops = 99;
        let json = serde_json::to_string(&report).unwrap();
        let back: PipelineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records[0].hits, 3);
        assert_eq!(back.records[0].loss.to_bits(), 0.125f32.to_bits());
        assert_eq!(back.records[0].traffic.train.gpu_flops, 99);
        assert_eq!(back.peak_held_slots, vec![4]);
        assert_eq!(back.max_dup, vec![2]);
    }

    #[test]
    fn stage_traffic_total_sums_all_stages() {
        let mut st = StageTraffic::default();
        st.plan.pcie_h2d_bytes = 1;
        st.collect.cpu_random_read_bytes = 2;
        st.exchange.pcie_h2d_bytes = 4;
        st.insert.gpu_random_write_bytes = 8;
        st.train.gpu_flops = 16;
        let total = st.total();
        assert_eq!(total.pcie_h2d_bytes, 5);
        assert_eq!(total.cpu_random_read_bytes, 2);
        assert_eq!(total.gpu_random_write_bytes, 8);
        assert_eq!(total.gpu_flops, 16);
        assert_eq!(st.stages().len(), StageTraffic::STAGE_NAMES.len());
    }
}
