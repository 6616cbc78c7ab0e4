//! The supervised recovery runtime's policy, bookkeeping and result
//! types.
//!
//! [`Pipeline::run_supervised`] executes the trace in checkpointed
//! segments. Before each segment it snapshots the cheap-but-global state
//! (the \[Plan\] stage's scratchpad managers and the dense backend); the
//! expensive shared state — each table's CPU rows, scratchpad slots and
//! residency shadow — carries an append-only undo journal inside the lock
//! of the rows it shadows. A stage writes a row store only by naming the
//! rows it is about to overwrite, whose pre-images the journal saves
//! (deltas, not full copies); a rollback replays them newest-first. A
//! failed segment rolls everything back and retries under
//! [`RecoveryPolicy::retry_budget`]; when a rung of the schedule ladder
//! exhausts its budget the runtime degrades
//! `DataParallel → Threaded → Sync` before giving up with
//! [`ScratchError::Aborted`](crate::error::ScratchError::Aborted),
//! leaving the tables exactly at the last committed segment.
//!
//! [`Pipeline::run_supervised`]: crate::pipeline::Pipeline::run_supervised

use std::ops::Deref;

use embeddings::EmbeddingTable;

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

/// Storage a [`Journaled`] can shadow: a flat, row-major buffer of
/// fixed-width rows. The CPU tables and the scratchpads are rows of `dim`
/// floats; the residency shadow is rows of one `Option<u64>`.
pub(crate) trait Rows {
    /// One element of a row.
    type Elem: Copy;
    /// Every row, row-major, and the elements per row (≥ 1).
    fn flat_mut(&mut self) -> (&mut [Self::Elem], usize);
}

impl Rows for EmbeddingTable {
    type Elem = f32;
    fn flat_mut(&mut self) -> (&mut [f32], usize) {
        let dim = self.dim();
        (self.as_flat_mut(), dim)
    }
}

impl Rows for Vec<Option<u64>> {
    type Elem = Option<u64>;
    fn flat_mut(&mut self) -> (&mut [Option<u64>], usize) {
        (self, 1)
    }
}

/// A row store and the undo journal of the current checkpointed segment,
/// in one value, so one lock covers both.
///
/// Reads go through [`Deref`]. The only way to write is
/// [`Journaled::write`], which names the rows about to change and, while
/// the journal is armed, appends their pre-images first — a key beside one
/// flat arena of `width` elements per entry, so a save is a `push` and a
/// `memcpy`, with no lookup and no per-row allocation. A key written
/// several times in one segment has several entries. The journal is
/// appended to only through `&mut self`, so its order is the order the
/// rows were mutated in, under every schedule; [`Journaled::rollback`]
/// replays it newest-first, so the *oldest* pre-image of a key — the
/// checkpoint image — is written last.
///
/// The journal holds one segment's writes, so its size grows with
/// [`RecoveryPolicy::checkpoint_interval`]; [`Journaled::checkpoint`] keeps
/// the capacity, and a steady-state segment allocates nothing.
#[derive(Debug)]
pub(crate) struct Journaled<S: Rows> {
    rows: S,
    /// Whether writes are journaled: only inside a supervised run.
    armed: bool,
    keys: Vec<usize>,
    saved: Vec<S::Elem>,
}

impl<S: Rows> Journaled<S> {
    /// `rows`, with an empty, disarmed journal.
    pub(crate) fn new(rows: S) -> Self {
        Journaled {
            rows,
            armed: false,
            keys: Vec::new(),
            saved: Vec::new(),
        }
    }

    /// The store, to write the rows `keys` names — and only those. While
    /// the journal is armed their pre-images are appended first, after one
    /// `reserve` for all of them.
    pub(crate) fn write(&mut self, keys: impl ExactSizeIterator<Item = usize>) -> &mut S {
        if self.armed {
            let (flat, width) = self.rows.flat_mut();
            self.keys.reserve(keys.len());
            self.saved.reserve(keys.len() * width);
            for key in keys {
                self.keys.push(key);
                self.saved
                    .extend_from_slice(&flat[key * width..(key + 1) * width]);
            }
        }
        &mut self.rows
    }

    /// Makes the store's current state its checkpoint: the journal is
    /// emptied (the segment it held commits; capacity is kept), and the
    /// writes that follow are journaled if `armed` — inside a supervised
    /// run.
    pub(crate) fn checkpoint(&mut self, armed: bool) {
        self.armed = armed;
        self.keys.clear();
        self.saved.clear();
    }

    /// Restores every journaled pre-image, newest first, and empties the
    /// journal.
    pub(crate) fn rollback(&mut self) {
        let (flat, width) = self.rows.flat_mut();
        for (&key, row) in self.keys.iter().zip(self.saved.chunks_exact(width)).rev() {
            flat[key * width..(key + 1) * width].copy_from_slice(row);
        }
        self.checkpoint(self.armed);
    }

    /// The store, journal dropped.
    pub(crate) fn into_inner(self) -> S {
        self.rows
    }
}

impl<S: Rows> Deref for Journaled<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_policy_is_sane() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.retry_budget, 3);
        assert_eq!(p.checkpoint_interval, 1);
    }

    #[test]
    fn undo_restores_first_touch_pre_images() {
        let mut table = Journaled::new(EmbeddingTable::seeded(4, 2, 7));
        let mut store = Journaled::new(EmbeddingTable::zeros(3, 2));
        let mut resident = Journaled::new(vec![None, Some(9u64), None]);
        let before = table.row(2).to_vec();
        table.checkpoint(true);
        store.checkpoint(true);
        resident.checkpoint(true);
        // Dirty everything twice: the second write journals the first's
        // result, and the oldest pre-image (the first touch) wins.
        for (value, row) in [(5.0, 42), (6.0, 43)] {
            table.write([2].into_iter()).row_mut(2).fill(value);
            store.write([1].into_iter()).row_mut(1).fill(value);
            resident.write([1].into_iter())[1] = Some(row);
        }

        table.rollback();
        store.rollback();
        resident.rollback();
        assert_eq!(table.row(2), before.as_slice());
        assert_eq!(store.row(1), &[0.0, 0.0]);
        assert_eq!(resident[1], Some(9));
        assert!(
            table.keys.is_empty() && store.keys.is_empty() && resident.keys.is_empty(),
            "rollback clears the journal"
        );
    }

    #[test]
    fn a_disarmed_journal_saves_nothing() {
        let mut store = Journaled::new(EmbeddingTable::zeros(3, 2));
        store.write([0, 2].into_iter()).row_mut(2).fill(1.0);
        assert!(store.keys.is_empty() && store.saved.is_empty());
        store.checkpoint(true);
        store.write([0, 2].into_iter()).row_mut(2).fill(2.0);
        assert_eq!(
            (store.keys.as_slice(), store.saved.as_slice()),
            (&[0, 2][..], &[0.0, 0.0, 1.0, 1.0][..])
        );
        store.checkpoint(false);
        assert!(store.keys.is_empty(), "a checkpoint drops the journal");
        store.rollback();
        assert_eq!(store.row(2), &[2.0, 2.0], "and nothing is replayed");
    }

    const DIM: usize = 3;
    const ROWS: usize = 6;
    const SLOTS: usize = 5;

    /// The three row stores one table journals, each with its own
    /// journal.
    struct Shadowed {
        table: Journaled<EmbeddingTable>,
        store: Journaled<EmbeddingTable>,
        resident: Journaled<Vec<Option<u64>>>,
    }

    /// Every element of the three stores, floats as bits.
    type Image = (Vec<u32>, Vec<u32>, Vec<Option<u64>>);

    impl Shadowed {
        fn armed() -> Self {
            let mut state = Shadowed {
                table: Journaled::new(EmbeddingTable::seeded(ROWS, DIM, 11)),
                store: Journaled::new(EmbeddingTable::from_flat(
                    (0..SLOTS * DIM).map(|i| i as f32).collect(),
                    DIM,
                )),
                resident: Journaled::new(
                    (0..SLOTS as u64)
                        .map(|s| (s % 2 == 0).then_some(s))
                        .collect(),
                ),
            };
            state.table.checkpoint(true);
            state.store.checkpoint(true);
            state.resident.checkpoint(true);
            state
        }

        fn image(&self) -> Image {
            let bits = |flat: &[f32]| flat.iter().map(|v| v.to_bits()).collect();
            (
                bits(self.table.as_flat()),
                bits(self.store.as_flat()),
                self.resident.to_vec(),
            )
        }

        /// One segment as the stages write it: per burst, name the keys to
        /// the journal, then overwrite them — each write with a value never
        /// written before.
        fn dirty(&mut self, bursts: &[(u8, Vec<usize>)], stamp: &mut u32) {
            for (resource, keys) in bursts {
                let height = if *resource == 0 { ROWS } else { SLOTS };
                let keys = keys.iter().map(|k| k % height);
                match resource {
                    0 => {
                        let table = self.table.write(keys.clone());
                        for k in keys {
                            *stamp += 1;
                            table.row_mut(k).fill(*stamp as f32 + 0.5);
                        }
                    }
                    1 => {
                        let store = self.store.write(keys.clone());
                        for k in keys {
                            *stamp += 1;
                            store.row_mut(k).fill(-(*stamp as f32));
                        }
                    }
                    _ => {
                        let resident = self.resident.write(keys.clone());
                        for k in keys {
                            *stamp += 1;
                            resident[k] = (*stamp % 3 != 0).then_some(u64::from(*stamp));
                        }
                    }
                }
            }
        }

        fn rollback(&mut self) {
            self.table.rollback();
            self.store.rollback();
            self.resident.rollback();
        }

        fn checkpoint(&mut self) {
            self.table.checkpoint(true);
            self.store.checkpoint(true);
            self.resident.checkpoint(true);
        }

        fn entries(&self) -> usize {
            self.table.saved.len() + self.store.saved.len() + self.resident.keys.len()
        }

        fn capacities(&self) -> [usize; 6] {
            [
                self.table.keys.capacity(),
                self.table.saved.capacity(),
                self.store.keys.capacity(),
                self.store.saved.capacity(),
                self.resident.keys.capacity(),
                self.resident.saved.capacity(),
            ]
        }
    }

    proptest! {
        /// The journal against its specification, over a key space small
        /// enough that most keys are saved several times a segment.
        #[test]
        fn journal_restores_the_checkpoint_image(
            bursts in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0usize..30, 0..6)), 0..24),
        ) {
            let mut state = Shadowed::armed();
            let checkpoint = state.image();
            let mut stamp = 0;

            // Rollback lands exactly on the checkpoint and empties the
            // journals.
            state.dirty(&bursts, &mut stamp);
            state.rollback();
            prop_assert_eq!(state.image(), checkpoint);
            prop_assert_eq!(state.entries(), 0);

            // A committed segment stands: checkpoint, then rollback, is a
            // no-op.
            state.dirty(&bursts, &mut stamp);
            let committed = state.image();
            state.checkpoint();
            state.rollback();
            prop_assert_eq!(state.image(), committed.clone());

            // The first two segments warmed the arenas; a segment of the
            // same size grows nothing.
            let warm = state.capacities();
            state.dirty(&bursts, &mut stamp);
            prop_assert_eq!(state.capacities(), warm);
            state.rollback();
            prop_assert_eq!(state.image(), committed);
        }
    }
}
