//! The outside-in *layer replay*: one training run re-enacted from the
//! program's lowest-level public functions, with a span around each call
//! and counts taken at the same boundaries.
//!
//! Per iteration: `ScratchpadManager::plan` + `stages::index_lookups` →
//! `stage_misses_into` / `stage_evictions_into` → `insert_evictions` /
//! `insert_fills` → `gather_pooled` → `DenseBackend::step` →
//! `scatter_grads`; before the loop the `TableBag::unique_ids` pre-pass,
//! after it `flush_rows`. One mini-batch finishes all stages before the
//! next starts; Plan sees the same look-ahead as the pipeline's, so the
//! cache events (hits, fills, evictions) are the pipeline's exactly, and
//! the trained tables must be `bit_eq` to `train_direct`'s — the proof
//! that the replay does the program's work.

use embeddings::store::DenseStore;
use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::scratchpad::ScratchpadManager;
use scratchpipe::{
    stages, DenseBackend, EvictionPolicy, StagedRows, TablePlan, TrainArena, WindowConfig,
};

use crate::spans::{Recorder, SpanId};

/// Span names (layer = module name).
pub mod layer {
    /// `TraceGenerator::take_batches`.
    pub const TRACEGEN: &str = "tracegen.take_batches";
    /// The whole replay (parent of everything below).
    pub const REPLAY: &str = "replay.run";
    /// `TableBag::unique_ids` over the whole trace.
    pub const DEDUP: &str = "embeddings.unique_ids";
    /// One replayed iteration (parent of the four stage spans).
    pub const ITERATION: &str = "replay.iteration";
    /// \[Plan\]: parent of the two spans below.
    pub const PLAN: &str = "stages.plan";
    /// `ScratchpadManager::plan` over all tables.
    pub const SCRATCHPAD_PLAN: &str = "scratchpad.plan";
    /// `stages::index_lookups` over all tables.
    pub const INDEX_LOOKUPS: &str = "stages.index_lookups";
    /// \[Collect\]: `stage_misses_into` + `stage_evictions_into`.
    pub const COLLECT: &str = "stages.collect";
    /// \[Insert\]: `insert_evictions` + `insert_fills`.
    pub const INSERT: &str = "stages.insert";
    /// \[Train\]: parent of the three spans below.
    pub const TRAIN: &str = "stages.train";
    /// `stages::gather_pooled` over all tables.
    pub const GATHER: &str = "embeddings.gather";
    /// `DenseBackend::step`.
    pub const DENSE_STEP: &str = "dlrm.step";
    /// `stages::scatter_grads` over all tables.
    pub const SCATTER: &str = "embeddings.scatter";
    /// `stages::flush_rows` over all tables.
    pub const FLUSH: &str = "stages.flush";
}

/// Counts taken at the span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Mini-batches replayed.
    pub iterations: u64,
    /// Raw sparse lookups.
    pub lookups: u64,
    /// Unique IDs over all (batch, table) pairs.
    pub uniques: u64,
    /// Unique-ID hits at Plan.
    pub hits: u64,
    /// Unique-ID misses (= rows filled).
    pub fills: u64,
    /// Rows evicted (= rows written back).
    pub evictions: u64,
    /// Rows flushed at the end.
    pub flushed: u64,
}

/// What the replay hands back.
#[derive(Debug)]
pub struct Replay {
    /// Counts over the whole run.
    pub counts: Counts,
    /// `(hits, misses, evictions)` per iteration, for the cross-check
    /// against the pipeline's own report.
    pub per_iteration: Vec<(u64, u64, u64)>,
    /// Every plan with its per-lookup index and ID list dropped: the
    /// fill / evict / slot stream the index and policy probes replay.
    pub plans: Vec<Vec<TablePlan>>,
    /// Sorted unique IDs per (batch, table).
    pub uniq: Vec<Vec<Vec<u64>>>,
    /// Largest `peak_held ÷ slots` over the tables.
    pub peak_held_share: f64,
}

/// The functional half of a replay: real tables and a dense backend.
#[derive(Debug)]
pub struct Model<B> {
    /// CPU tables, trained in place.
    pub tables: Vec<EmbeddingTable>,
    /// Dense backend.
    pub backend: B,
}

/// Replays `batches`. With `model` the whole data path runs; without it
/// (analytic mode) only the dedup pre-pass and Plan exist, which is all
/// the analytic pipeline executes. `prewarm` pre-fills each scratchpad
/// with metadata, as `Pipeline::prewarm` does in analytic mode.
pub fn replay<B: DenseBackend>(
    rec: &mut Recorder,
    parent: SpanId,
    batches: &[SparseBatch],
    dim: usize,
    slots: usize,
    prewarm: Option<&[Vec<u64>]>,
    mut model: Option<&mut Model<B>>,
) -> Result<Replay, String> {
    let root = rec.open(layer::REPLAY, Some(parent));
    let num_tables = batches.first().map_or(0, SparseBatch::num_tables);
    let mut managers = (0..num_tables)
        .map(|_| ScratchpadManager::new(slots, WindowConfig::PAPER, EvictionPolicy::Lru))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if let Some(hot) = prewarm {
        for (manager, rows) in managers.iter_mut().zip(hot) {
            manager.prewarm(&rows[..rows.len().min(slots)]);
        }
    }
    let mut storages: Vec<DenseStore> = match model {
        Some(_) => (0..num_tables)
            .map(|_| DenseStore::zeros(slots, dim))
            .collect(),
        None => Vec::new(),
    };
    let mut staged_miss = StagedRows::new(dim);
    let mut staged_evict = StagedRows::new(dim);
    let mut arena = TrainArena::new();
    let future_depth = WindowConfig::PAPER.future as usize;

    let uniq: Vec<Vec<Vec<u64>>> = rec.time(layer::DEDUP, root, || {
        batches
            .iter()
            .map(|b| b.bags().map(|(_, bag)| bag.unique_ids()).collect())
            .collect()
    });

    let mut counts = Counts::default();
    let mut per_iteration = Vec::with_capacity(batches.len());
    let mut kept_plans = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let iteration = rec.open(layer::ITERATION, Some(root));

        let plan_span = rec.open(layer::PLAN, Some(iteration));
        let mut plans: Vec<TablePlan> = rec.time(layer::SCRATCHPAD_PLAN, plan_span, || {
            managers
                .iter_mut()
                .enumerate()
                .map(|(t, manager)| {
                    let futures: Vec<&[u64]> = (1..=future_depth)
                        .filter_map(|k| uniq.get(i + k).map(|u| u[t].as_slice()))
                        .collect();
                    manager.plan(&uniq[i][t], &futures)
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("replay plan {i}: {e}"))
        })?;
        rec.time(layer::INDEX_LOOKUPS, plan_span, || {
            for (t, plan) in plans.iter_mut().enumerate() {
                stages::index_lookups(plan, batch.bag(t));
            }
        });
        rec.close(plan_span);

        if let Some(model) = model.as_deref_mut() {
            rec.time(layer::COLLECT, iteration, || {
                let misses: Vec<usize> = plans.iter().map(|p| p.fills.len()).collect();
                let evicts: Vec<usize> = plans.iter().map(|p| p.evictions.len()).collect();
                staged_miss.prepare(&misses);
                staged_evict.prepare(&evicts);
                let blocks = staged_miss
                    .table_blocks_mut()
                    .into_iter()
                    .zip(staged_evict.table_blocks_mut());
                for (t, (miss_block, evict_block)) in blocks.enumerate() {
                    stages::stage_misses_into(&plans[t], &model.tables[t], miss_block);
                    stages::stage_evictions_into(&plans[t], &storages[t], evict_block);
                }
            });
            rec.time(layer::INSERT, iteration, || {
                for (t, plan) in plans.iter().enumerate() {
                    stages::insert_evictions(t, plan, &staged_evict, &mut model.tables[t]);
                    stages::insert_fills(t, plan, &staged_miss, &mut storages[t]);
                }
            });
            let train = rec.open(layer::TRAIN, Some(iteration));
            arena.prepare(num_tables, batch.batch_size(), dim);
            rec.time(layer::GATHER, train, || {
                for (t, plan) in plans.iter().enumerate() {
                    stages::gather_pooled(
                        &storages[t],
                        batch.bag(t),
                        plan,
                        arena.pooled_table_mut(t),
                    );
                }
            });
            rec.time(layer::DENSE_STEP, train, || {
                let (pooled, grads) = arena.split();
                model.backend.step(i, batch, pooled, grads)
            });
            let lr = model.backend.learning_rate();
            rec.time(layer::SCATTER, train, || {
                for (t, plan) in plans.iter().enumerate() {
                    stages::scatter_grads(
                        &mut storages[t],
                        batch.bag(t),
                        arena.grads_table(t),
                        lr,
                        plan,
                    );
                }
            });
            rec.close(train);
        }
        rec.close(iteration);

        let hits: u64 = plans.iter().map(|p| p.hits).sum();
        let misses: u64 = plans.iter().map(|p| p.misses).sum();
        let evictions: u64 = plans.iter().map(|p| p.evictions.len() as u64).sum();
        counts.iterations += 1;
        counts.lookups += batch.total_lookups() as u64;
        counts.uniques += hits + misses;
        counts.hits += hits;
        counts.fills += misses;
        counts.evictions += evictions;
        per_iteration.push((hits, misses, evictions));
        for plan in &mut plans {
            plan.lookup_unique = Vec::new();
            plan.unique_ids = Vec::new();
        }
        kept_plans.push(plans);
    }

    if let Some(model) = model {
        counts.flushed = rec.time(layer::FLUSH, root, || {
            let mut flushed = 0;
            for (t, manager) in managers.iter().enumerate() {
                let residents = manager.residents();
                flushed += residents.len() as u64;
                stages::flush_rows(&storages[t], &mut model.tables[t], &residents, |_, _| true);
            }
            flushed
        });
    }

    rec.close(root);

    let peak_held_share = managers
        .iter()
        .map(|m| m.stats().peak_held as f64 / slots as f64)
        .fold(0.0, f64::max);
    Ok(Replay {
        counts,
        per_iteration,
        plans: kept_plans,
        uniq,
        peak_held_share,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use embeddings::EmbeddingTable;
    use scratchpipe::runtime::train_direct;
    use scratchpipe::UnitBackend;
    use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

    #[test]
    fn replay_trains_bit_identical_tables() {
        let cfg = TraceConfig {
            num_tables: 2,
            rows_per_table: 500,
            lookups_per_sample: 4,
            batch_size: 8,
            profile: LocalityProfile::Medium,
            seed: 5,
        };
        let batches = TraceGenerator::new(cfg).take_batches(20);
        let fresh = || -> Vec<EmbeddingTable> {
            (0..2).map(|t| EmbeddingTable::seeded(500, 4, t)).collect()
        };
        let mut reference = fresh();
        train_direct(&mut reference, &batches, &mut UnitBackend::new(0.01));

        let mut model = Model {
            tables: fresh(),
            backend: UnitBackend::new(0.01),
        };
        let mut rec = Recorder::new("test");
        let root = rec.open("root", None);
        let out = replay(&mut rec, root, &batches, 4, 200, None, Some(&mut model)).unwrap();
        rec.close(root);
        assert!(model
            .tables
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.bit_eq(b)));
        assert_eq!(out.counts.iterations, 20);
        assert_eq!(out.counts.hits + out.counts.fills, out.counts.uniques);
        assert_eq!(out.counts.lookups, 20 * 2 * 8 * 4);
        // Every stage span hangs off an iteration span.
        let iterations = rec.spans().iter().filter(|s| s.name == layer::ITERATION);
        assert_eq!(iterations.count(), 20);
    }
}
