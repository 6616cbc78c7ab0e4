//! Lock-step reference model of the whole \[Plan\] state machine.
//!
//! [`Model`] is the paper's §IV-D mechanism written the slow, obvious
//! way: Algorithm 1's Hold mask verbatim ([`NaiveHoldMask`], every mask
//! shifted every cycle), residency as two `BTreeMap`s (row → slot and
//! slot → row), and `CHOOSE_VICTIM` as the smallest element of a
//! `BTreeSet<(priority, slot)>` rebuilt from scratch each cycle out of
//! "every resident slot whose mask is all-zero". It shares no code with
//! `ScratchpadManager`'s expiry ring, run-queue victim pool or
//! open-addressed index, so stepping the two side by side checks the
//! manager's *representation* against the mechanism it represents:
//! fills, evictions, slot assignment, hit/miss counts, the resident set
//! and the §VI-D working-set peak must agree after every plan, and
//! `CapacityExhausted` must be raised exactly when the model's working
//! set exceeds the slot count.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use scratchpipe::scratchpad::{Evict, Fill};
use scratchpipe::{
    EvictionPolicy, NaiveHoldMask, ScratchError, ScratchpadManager, TablePlan, WindowConfig,
};

const WINDOWS: [WindowConfig; 6] = [
    WindowConfig::PAPER,
    WindowConfig::SEQUENTIAL,
    WindowConfig { past: 1, future: 0 },
    WindowConfig { past: 3, future: 0 },
    WindowConfig { past: 0, future: 2 },
    WindowConfig { past: 2, future: 1 },
];

/// What one plan decided, in the vocabulary of [`TablePlan`].
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    unique_slots: Vec<u32>,
    fills: Vec<Fill>,
    evictions: Vec<Evict>,
    hits: u64,
    misses: u64,
    exhausted: bool,
}

struct Model {
    slots: usize,
    window: WindowConfig,
    hold: NaiveHoldMask,
    slot_of: BTreeMap<u64, u32>,
    row_of: BTreeMap<u32, u64>,
    /// Never-used slots are handed out in ascending order.
    next_free: u32,
    /// LRU priority per resident slot: the plan cycle that last used it
    /// (0 for a prewarmed row).
    last_use: BTreeMap<u32, u64>,
    /// This cycle's evictable slots, smallest `(priority, slot)` first.
    lru: BTreeSet<(u64, u32)>,
    cycle: u64,
    /// Cumulative hits, misses and evictions, then the §VI-D peak.
    totals: (u64, u64, u64),
    peak_held: usize,
}

impl Model {
    fn new(slots: usize, window: WindowConfig) -> Self {
        Model {
            slots,
            window,
            hold: NaiveHoldMask::new(slots, window.width()),
            slot_of: BTreeMap::new(),
            row_of: BTreeMap::new(),
            next_free: 0,
            last_use: BTreeMap::new(),
            lru: BTreeSet::new(),
            cycle: 0,
            totals: (0, 0, 0),
            peak_held: 0,
        }
    }

    fn map(&mut self, row: u64, slot: u32) {
        if let Some(old) = self.row_of.insert(slot, row) {
            self.slot_of.remove(&old);
        }
        assert!(self.slot_of.insert(row, slot).is_none());
        self.last_use.insert(slot, self.cycle);
    }

    /// Coldest-first into ascending free slots, so ties among prewarmed
    /// rows (all priority 0) break towards the coldest.
    fn prewarm(&mut self, rows: &[u64]) {
        for &row in rows.iter().rev() {
            if self.next_free as usize == self.slots {
                break;
            }
            self.map(row, self.next_free);
            self.next_free += 1;
        }
    }

    fn protect(&mut self, slot: u32, bit: u32) {
        self.hold.set_bit(slot, bit);
        self.lru.remove(&(self.last_use[&slot], slot));
    }

    /// Slots whose mask is not all-zero: the working set.
    fn held(&self) -> usize {
        (0..self.slots as u32)
            .filter(|&s| !self.hold.is_clear(s))
            .count()
    }

    fn plan(&mut self, current: &[u64], futures: &[&[u64]]) -> Outcome {
        self.cycle += 1;
        self.hold.advance();
        self.lru = self
            .row_of
            .keys()
            .filter(|&&s| self.hold.is_clear(s))
            .map(|&s| (self.last_use[&s], s))
            .collect();

        let past = self.window.past;
        for id in current {
            if let Some(&slot) = self.slot_of.get(id) {
                self.protect(slot, past);
            }
        }
        for (k, ids) in (1..=self.window.future).zip(futures) {
            for id in *ids {
                if let Some(&slot) = self.slot_of.get(id) {
                    self.protect(slot, past + k);
                }
            }
        }

        let mut out = Outcome::default();
        for &id in current {
            let slot = if let Some(&slot) = self.slot_of.get(&id) {
                out.hits += 1;
                self.last_use.insert(slot, self.cycle);
                slot
            } else {
                out.misses += 1;
                let slot = if (self.next_free as usize) < self.slots {
                    self.next_free += 1;
                    self.next_free - 1
                } else if let Some((_, victim)) = self.lru.pop_first() {
                    out.evictions.push(Evict {
                        row: self.row_of[&victim],
                        slot: victim,
                    });
                    victim
                } else {
                    // One more row than there are slots is needed at once.
                    assert_eq!(self.held(), self.slots);
                    out.exhausted = true;
                    break;
                };
                self.map(id, slot);
                self.protect(slot, past);
                out.fills.push(Fill { row: id, slot });
                slot
            };
            out.unique_slots.push(slot);
        }
        self.totals.0 += out.hits;
        self.totals.1 += out.misses;
        self.totals.2 += out.evictions.len() as u64;
        self.peak_held = self.peak_held.max(self.held());
        out
    }
}

/// Steps the manager and the model through one plan and compares
/// everything observable. Returns whether the plan ran out of capacity.
fn step(
    mgr: &mut ScratchpadManager,
    model: &mut Model,
    current: &[u64],
    futures: &[&[u64]],
) -> bool {
    let mut plan = TablePlan::default();
    let result = mgr.plan_into(current, futures, &mut plan);
    let want = model.plan(current, futures);
    match &result {
        Ok(()) => assert!(!want.exhausted, "model ran out of slots, manager did not"),
        Err(ScratchError::CapacityExhausted { cycle, slots, .. }) => {
            assert!(want.exhausted, "manager ran out of slots, model did not");
            assert_eq!((*cycle, *slots), (model.cycle, model.slots));
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
    let got = Outcome {
        unique_slots: plan.unique_slots,
        fills: plan.fills,
        evictions: plan.evictions,
        hits: plan.hits,
        misses: plan.misses,
        exhausted: result.is_err(),
    };
    assert_eq!(got, want, "plan {} diverged", model.cycle);
    let resident: Vec<(u64, u32)> = model.slot_of.iter().map(|(&r, &s)| (r, s)).collect();
    assert_eq!(
        mgr.residents(),
        resident,
        "resident set after plan {}",
        model.cycle
    );
    let stats = mgr.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), model.totals);
    assert_eq!(stats.peak_held, model.peak_held);
    want.exhausted
}

/// The look-ahead the pipeline passes: the next batches, nearest first,
/// fewer near the end of the trace.
fn lookahead(batches: &[Vec<u64>], i: usize, window: WindowConfig) -> Vec<&[u64]> {
    batches
        .iter()
        .skip(i + 1)
        .take(window.future as usize)
        .map(Vec::as_slice)
        .collect()
}

fn pair(slots: usize, window: WindowConfig) -> (ScratchpadManager, Model) {
    let mgr = ScratchpadManager::new(slots, window, EvictionPolicy::Lru).expect("valid");
    (mgr, Model::new(slots, window))
}

/// Largest number of distinct rows in any run of batches
/// `t - before ..= t + after`.
fn widest_union(batches: &[Vec<u64>], before: usize, after: usize) -> usize {
    (0..batches.len())
        .map(|t| {
            let span = &batches[t.saturating_sub(before)..batches.len().min(t + after + 1)];
            span.iter().flatten().collect::<BTreeSet<_>>().len()
        })
        .max()
        .unwrap_or(0)
}

fn to_vecs(sets: Vec<BTreeSet<u64>>) -> Vec<Vec<u64>> {
    sets.into_iter().map(|s| s.into_iter().collect()).collect()
}

proptest! {
    /// Adversarial traces: a row universe small enough that rows are
    /// re-protected while still held, look-ahead registration, prewarmed
    /// content, idle gaps longer than the window (the expiry ring wraps)
    /// and scratchpads too small for the trace (plans that fail half-way,
    /// after which both sides must still agree).
    #[test]
    fn manager_matches_the_model_in_lock_step(
        steps in collection::vec(
            (collection::btree_set(0u64..40, 0..8),
             prop_oneof![Just(0usize), Just(0usize), Just(0usize), 1usize..10]),
            1..40),
        prewarm in collection::btree_set(0u64..40, 0..24),
        slots in 1usize..48,
        window in 0usize..WINDOWS.len(),
    ) {
        let window = WINDOWS[window];
        let (gaps, batches): (Vec<usize>, Vec<BTreeSet<u64>>) =
            steps.into_iter().map(|(b, g)| (g, b)).unzip();
        let batches = to_vecs(batches);
        let prewarm: Vec<u64> = prewarm.into_iter().collect();
        let (mut mgr, mut model) = pair(slots, window);
        mgr.prewarm(&prewarm);
        model.prewarm(&prewarm);
        for (i, batch) in batches.iter().enumerate() {
            let futures = lookahead(&batches, i, window);
            // Idle cycles keep registering the same upcoming batches, at
            // the same distance: protection that outlives its promise.
            for _ in 0..gaps[i] {
                step(&mut mgr, &mut model, &[], &futures);
            }
            step(&mut mgr, &mut model, batch, &futures);
        }
    }

    /// §VI-D: `CapacityExhausted` iff the window's working set exceeds the
    /// slot count. Every row of the past window and the current batch is
    /// held, so fewer slots than their widest union (`low`) must fail, no
    /// later than the first plan whose union does not fit; the look-ahead
    /// can add at most the cached rows of the future window, so `high`
    /// slots never fail. Without look-ahead the two bounds coincide and
    /// the probe at bound - 1 / bound / bound + 1 is exact, down to the
    /// failing plan; between them the model's own working set is the
    /// verdict (`step` compares it).
    #[test]
    fn capacity_is_exhausted_iff_the_working_set_exceeds_the_slots(
        batches in collection::vec(collection::btree_set(0u64..60, 1..9), 1..30),
        window in 0usize..WINDOWS.len(),
    ) {
        let window = WINDOWS[window];
        let batches = to_vecs(batches);
        let past = window.past as usize;
        let low = widest_union(&batches, past, 0);
        let high = widest_union(&batches, past, window.future as usize);
        prop_assert!(window.future > 0 || low == high);
        let probes: BTreeSet<usize> = [low, high]
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1])
            .filter(|&s| s > 0)
            .collect();
        for slots in probes {
            let (mut mgr, mut model) = pair(slots, window);
            let failed_at = (0..batches.len()).find(|&i| {
                step(&mut mgr, &mut model, &batches[i], &lookahead(&batches, i, window))
            });
            if slots < low {
                let first_misfit = (0..batches.len())
                    .find(|&t| widest_union(&batches[..=t], past, 0) > slots);
                prop_assert!(failed_at.is_some() && failed_at <= first_misfit);
                if window.future == 0 {
                    prop_assert_eq!(failed_at, first_misfit, "{} slots, bound {}", slots, low);
                }
            }
            if slots >= high {
                prop_assert_eq!(failed_at, None, "{} slots, bound {}", slots, high);
            }
        }
    }
}
