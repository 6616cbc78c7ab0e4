//! The supervised recovery runtime's policy, bookkeeping and result
//! types.
//!
//! [`Pipeline::run_supervised`] executes the trace in checkpointed
//! segments. Before each segment it snapshots the cheap-but-global state
//! (the \[Plan\] stage's scratchpad managers and the dense backend) and
//! arms an append-only undo journal on the expensive shared state (CPU
//! table rows, scratchpad slots and the residency shadow save their
//! pre-image whenever a stage is about to overwrite them — deltas, not
//! full copies — and a rollback replays them newest-first). A failed
//! segment rolls everything back and retries under
//! [`RecoveryPolicy::retry_budget`]; when a rung of the schedule ladder
//! exhausts its budget the runtime degrades
//! `DataParallel → Threaded → Sync` before giving up with
//! [`ScratchError::Aborted`](crate::error::ScratchError::Aborted),
//! leaving the tables exactly at the last committed segment.
//!
//! [`Pipeline::run_supervised`]: crate::pipeline::Pipeline::run_supervised

use embeddings::{EmbeddingTable, VectorStore};

use crate::pipeline::Schedule;
use crate::runtime::PipelineReport;

/// Tuning knobs of [`Pipeline::run_supervised`].
///
/// [`Pipeline::run_supervised`]: crate::pipeline::Pipeline::run_supervised
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Attempts per schedule rung before degrading (≥ 1). With a ladder
    /// of `L` rungs a segment gets `L × retry_budget` total attempts.
    pub retry_budget: u32,
    /// Iterations per checkpointed segment (≥ 1). The default of 1
    /// snapshots at every iteration boundary, which also pins the whole
    /// recovery decision sequence — retries, degradations, the audit
    /// stream — to be deterministic under every schedule rung, because at
    /// most one mini-batch is in flight per attempt.
    pub checkpoint_interval: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            retry_budget: 3,
            checkpoint_interval: 1,
        }
    }
}

/// What the supervisor did to finish a run (all zero on a fault-free
/// run).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Segments rolled back (each failed attempt rolls back once).
    pub rollbacks: u64,
    /// Retries on the same schedule rung.
    pub retries: u64,
    /// Rung-to-rung degradations down the schedule ladder.
    pub degradations: u64,
    /// Faults the injector fired (0 when no plan is armed).
    pub faults_injected: u64,
    /// The rung the run finished on (the starting schedule when nothing
    /// degraded).
    pub final_schedule: Option<Schedule>,
}

/// A completed supervised run: the ordinary report plus the recovery
/// story. The report — and the trained tables — are byte-identical to a
/// fault-free [`Pipeline::run`] whenever every injected fault was
/// recovered.
///
/// [`Pipeline::run`]: crate::pipeline::Pipeline::run
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The report, exactly as an unsupervised run would produce it.
    pub report: PipelineReport,
    /// What recovery work the supervisor performed.
    pub stats: RecoveryStats,
}

/// Undo journal of one table's mutable state for the current segment:
/// the pre-image of every CPU row, scratchpad slot and residency entry a
/// stage was about to overwrite, appended in mutation order. Each of the
/// three resources has its own journal — a key vector beside one flat
/// arena of `dim` floats per entry — so a save is a `push` and a
/// `memcpy`, with no lookup and no per-row allocation. A key saved
/// several times in one segment has several entries; [`rollback`]
/// replays each journal newest-first, so the *oldest* pre-image of a key
/// is written last and the checkpoint image wins. Per-resource order is
/// mutation order because entries are appended under the lock of the
/// resource they shadow (see the `SharedState::undo` lock-ordering rule).
///
/// The journal holds one segment's writes, so its size grows with
/// [`RecoveryPolicy::checkpoint_interval`]; [`clear`] keeps the capacity,
/// and a steady-state segment allocates nothing.
///
/// [`rollback`]: TableUndo::rollback
/// [`clear`]: TableUndo::clear
#[derive(Debug, Default)]
pub(crate) struct TableUndo {
    cpu_keys: Vec<u64>,
    cpu_rows: Vec<f32>,
    store_keys: Vec<u32>,
    store_rows: Vec<f32>,
    resident: Vec<(u32, Option<u64>)>,
}

impl TableUndo {
    /// Makes room for `rows` more CPU-row saves of `dim` floats each, so
    /// the save loop that follows grows the journal at most once.
    pub(crate) fn reserve_cpu_rows(&mut self, rows: usize, dim: usize) {
        self.cpu_keys.reserve(rows);
        self.cpu_rows.reserve(rows * dim);
    }

    /// [`TableUndo::reserve_cpu_rows`] for scratchpad rows.
    pub(crate) fn reserve_store_rows(&mut self, rows: usize, dim: usize) {
        self.store_keys.reserve(rows);
        self.store_rows.reserve(rows * dim);
    }

    /// [`TableUndo::reserve_cpu_rows`] for residency entries.
    pub(crate) fn reserve_resident(&mut self, entries: usize) {
        self.resident.reserve(entries);
    }

    pub(crate) fn save_cpu_row(&mut self, row: u64, data: &[f32]) {
        self.cpu_keys.push(row);
        self.cpu_rows.extend_from_slice(data);
    }

    pub(crate) fn save_store_row(&mut self, slot: u32, data: &[f32]) {
        self.store_keys.push(slot);
        self.store_rows.extend_from_slice(data);
    }

    pub(crate) fn save_resident(&mut self, slot: u32, value: Option<u64>) {
        self.resident.push((slot, value));
    }

    /// Restores every saved pre-image, newest first, and clears the
    /// journal.
    pub(crate) fn rollback(
        &mut self,
        cpu_table: Option<&mut EmbeddingTable>,
        store: Option<&mut embeddings::store::DenseStore>,
        resident: &mut [Option<u64>],
    ) {
        if let Some(table) = cpu_table {
            let saved = self.cpu_rows.chunks_exact(table.dim());
            for (&row, data) in self.cpu_keys.iter().zip(saved).rev() {
                table.row_mut(row as usize).copy_from_slice(data);
            }
        }
        if let Some(store) = store {
            let saved = self.store_rows.chunks_exact(store.dim());
            for (&slot, data) in self.store_keys.iter().zip(saved).rev() {
                store.row_mut(slot as usize).copy_from_slice(data);
            }
        }
        for &(slot, value) in self.resident.iter().rev() {
            resident[slot as usize] = value;
        }
        self.clear();
    }

    /// Empties the journal (the segment committed); capacity is kept.
    pub(crate) fn clear(&mut self) {
        self.cpu_keys.clear();
        self.cpu_rows.clear();
        self.store_keys.clear();
        self.store_rows.clear();
        self.resident.clear();
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.cpu_keys.is_empty() && self.store_keys.is_empty() && self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embeddings::store::DenseStore;
    use proptest::prelude::*;

    #[test]
    fn default_policy_is_sane() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.retry_budget, 3);
        assert_eq!(p.checkpoint_interval, 1);
    }

    #[test]
    fn undo_restores_first_touch_pre_images() {
        let mut table = EmbeddingTable::seeded(4, 2, 7);
        let mut store = DenseStore::zeros(3, 2);
        let mut resident = vec![None, Some(9u64), None];
        let table_before: Vec<Vec<f32>> = (0..4).map(|r| table.row(r).to_vec()).collect();

        let mut undo = TableUndo::default();
        undo.save_cpu_row(2, table.row(2));
        undo.save_store_row(1, store.row(1));
        undo.save_resident(1, resident[1]);
        // Dirty everything, then re-save (idempotent: first touch wins).
        table.row_mut(2).copy_from_slice(&[5.0, 5.0]);
        store.row_mut(1).copy_from_slice(&[6.0, 6.0]);
        resident[1] = Some(42);
        undo.save_cpu_row(2, table.row(2));
        undo.save_store_row(1, store.row(1));
        undo.save_resident(1, resident[1]);

        undo.rollback(Some(&mut table), Some(&mut store), &mut resident);
        assert_eq!(table.row(2), table_before[2].as_slice());
        assert_eq!(store.row(1), &[0.0, 0.0]);
        assert_eq!(resident[1], Some(9));
        assert!(undo.is_empty(), "rollback clears the log");
    }

    const DIM: usize = 3;
    const ROWS: usize = 6;
    const SLOTS: usize = 5;

    /// The three resources one table's journal shadows.
    #[derive(Clone)]
    struct Shadowed {
        table: EmbeddingTable,
        store: DenseStore,
        resident: Vec<Option<u64>>,
    }

    impl Shadowed {
        fn new() -> Self {
            Shadowed {
                table: EmbeddingTable::seeded(ROWS, DIM, 11),
                store: DenseStore::from_flat((0..SLOTS * DIM).map(|i| i as f32).collect(), DIM),
                resident: (0..SLOTS as u64)
                    .map(|s| (s % 2 == 0).then_some(s))
                    .collect(),
            }
        }

        fn bits(&self) -> (Vec<u32>, Vec<u32>, &[Option<u64>]) {
            let bits = |flat: &[f32]| flat.iter().map(|v| v.to_bits()).collect();
            (
                bits(self.table.as_flat()),
                bits(self.store.as_flat()),
                &self.resident,
            )
        }

        /// One segment as the stages write it: per burst, reserve for the
        /// keys, save every key's pre-image under the journal, then
        /// overwrite them — each write with a value never written before.
        fn dirty(&mut self, undo: &mut TableUndo, bursts: &[(u8, Vec<usize>)], stamp: &mut u32) {
            for (resource, keys) in bursts {
                match resource {
                    0 => {
                        undo.reserve_cpu_rows(keys.len(), DIM);
                        for &k in keys {
                            undo.save_cpu_row((k % ROWS) as u64, self.table.row(k % ROWS));
                        }
                    }
                    1 => {
                        undo.reserve_store_rows(keys.len(), DIM);
                        for &k in keys {
                            undo.save_store_row((k % SLOTS) as u32, self.store.row(k % SLOTS));
                        }
                    }
                    _ => {
                        undo.reserve_resident(keys.len());
                        for &k in keys {
                            undo.save_resident((k % SLOTS) as u32, self.resident[k % SLOTS]);
                        }
                    }
                }
                for &k in keys {
                    *stamp += 1;
                    match resource {
                        0 => self.table.row_mut(k % ROWS).fill(*stamp as f32 + 0.5),
                        1 => self.store.row_mut(k % SLOTS).fill(-(*stamp as f32)),
                        _ => self.resident[k % SLOTS] = (*stamp % 3 != 0).then_some(*stamp as u64),
                    }
                }
            }
        }

        fn rollback(&mut self, undo: &mut TableUndo) {
            undo.rollback(
                Some(&mut self.table),
                Some(&mut self.store),
                &mut self.resident,
            );
        }
    }

    fn capacities(undo: &TableUndo) -> [usize; 5] {
        [
            undo.cpu_keys.capacity(),
            undo.cpu_rows.capacity(),
            undo.store_keys.capacity(),
            undo.store_rows.capacity(),
            undo.resident.capacity(),
        ]
    }

    proptest! {
        /// The journal against its specification, over a key space small
        /// enough that most keys are saved several times a segment.
        #[test]
        fn journal_restores_the_checkpoint_image(
            bursts in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0usize..30, 0..6)), 0..24),
        ) {
            let checkpoint = Shadowed::new();
            let mut state = checkpoint.clone();
            let mut undo = TableUndo::default();
            let mut stamp = 0;

            // Rollback lands exactly on the checkpoint and empties the
            // journal.
            state.dirty(&mut undo, &bursts, &mut stamp);
            state.rollback(&mut undo);
            prop_assert_eq!(state.bits(), checkpoint.bits());
            prop_assert!(undo.is_empty());
            prop_assert!(undo.cpu_rows.is_empty() && undo.store_rows.is_empty());

            // A committed segment stands: clear, then rollback, is a no-op.
            state.dirty(&mut undo, &bursts, &mut stamp);
            let committed = state.clone();
            undo.clear();
            state.rollback(&mut undo);
            prop_assert_eq!(state.bits(), committed.bits());

            // The first two segments warmed the arenas; a segment of the
            // same size grows nothing.
            let warm = capacities(&undo);
            state.dirty(&mut undo, &bursts, &mut stamp);
            prop_assert_eq!(capacities(&undo), warm);
            state.rollback(&mut undo);
            prop_assert_eq!(state.bits(), committed.bits());
        }
    }
}
