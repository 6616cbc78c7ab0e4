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
//!
//! The model's priorities follow each [`EvictionPolicy`] as the policy
//! module defines it (LRU: the last plan cycle; LFU: a per-slot use
//! count; Random: SplitMix64 over the slot and a global touch counter),
//! so the edge cases at the bottom run under all three.

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
    policy: EvictionPolicy,
    /// Policy priority per slot, kept across remaps: under LRU the plan
    /// cycle that last used it (0 for a prewarmed row).
    last_use: Vec<u64>,
    /// Touches so far: the Random policy's counter.
    tick: u64,
    /// This cycle's evictable slots, smallest `(priority, slot)` first.
    lru: BTreeSet<(u64, u32)>,
    cycle: u64,
    /// Cumulative hits, misses and evictions, then the §VI-D peak.
    totals: (u64, u64, u64),
    peak_held: usize,
}

impl Model {
    fn new(slots: usize, window: WindowConfig, policy: EvictionPolicy) -> Self {
        Model {
            slots,
            window,
            hold: NaiveHoldMask::new(slots, window.width()),
            slot_of: BTreeMap::new(),
            row_of: BTreeMap::new(),
            next_free: 0,
            policy,
            last_use: vec![0; slots],
            tick: 0,
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
    }

    /// A use of `slot` this cycle, as `VictimPool::touch` books it.
    fn touch(&mut self, slot: u32) {
        let priority = &mut self.last_use[slot as usize];
        *priority = match self.policy {
            EvictionPolicy::Lru => self.cycle,
            EvictionPolicy::Lfu => *priority + 1,
            EvictionPolicy::Random => {
                self.tick += 1;
                splitmix(u64::from(slot) ^ (self.tick << 20))
            }
        };
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
        self.lru.remove(&(self.last_use[slot as usize], slot));
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
            .map(|&s| (self.last_use[s as usize], s))
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
                self.touch(slot);
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
                self.touch(slot);
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
    step_outcome(mgr, model, current, futures).exhausted
}

/// [`step`], returning what the plan decided.
fn step_outcome(
    mgr: &mut ScratchpadManager,
    model: &mut Model,
    current: &[u64],
    futures: &[&[u64]],
) -> Outcome {
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
    want
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
    pair_with(slots, window, EvictionPolicy::Lru)
}

fn pair_with(
    slots: usize,
    window: WindowConfig,
    policy: EvictionPolicy,
) -> (ScratchpadManager, Model) {
    let mgr = ScratchpadManager::new(slots, window, policy).expect("valid");
    (mgr, Model::new(slots, window, policy))
}

/// SplitMix64, the Random policy's priority function.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// Batch lengths for the edge cases: `0..=40` holds one short of, at and
/// one past every look-ahead distance up to 39 that a pass over the
/// batch's lists could use.
const LENGTHS: std::ops::RangeInclusive<usize> = 0..=40;

/// `n` distinct rows drawn from `0..universe`, ascending.
fn rows(n: usize, universe: u64, seed: u64) -> Vec<u64> {
    assert!(n as u64 <= universe);
    let mut picked = BTreeSet::new();
    let mut x = seed;
    while picked.len() < n {
        x = splitmix(x);
        picked.insert(x % universe);
    }
    picked.into_iter().collect()
}

/// Every batch length, with hits, misses, evictions and look-ahead, on a
/// scratchpad just large enough for the widest window (no plan fails).
#[test]
fn every_batch_length_matches_the_model() {
    for policy in EvictionPolicy::ALL {
        for window in [WindowConfig::PAPER, WindowConfig::SEQUENTIAL] {
            for n in LENGTHS {
                let universe = 3 * n as u64 + 5;
                let batches: Vec<Vec<u64>> = (0..8)
                    .map(|i| rows(n, universe, i * 977 + n as u64))
                    .collect();
                let past = window.past as usize;
                let slots = widest_union(&batches, past, window.future as usize).max(1);
                let (mut mgr, mut model) = pair_with(slots, window, policy);
                let warm: Vec<u64> = (0..slots as u64 / 2).map(|r| r * 2).collect();
                mgr.prewarm(&warm);
                model.prewarm(&warm);
                for i in 0..batches.len() {
                    let futures = lookahead(&batches, i, window);
                    let out = step_outcome(&mut mgr, &mut model, &batches[i], &futures);
                    assert!(!out.exhausted, "{policy} {window:?} n={n} plan {i}");
                }
            }
        }
    }
}

/// A batch that only hits (prewarmed rows, then the same rows again while
/// they are held) and a batch that only misses (first into never-used
/// slots, then into victims, then with every slot held).
#[test]
fn all_hit_and_all_miss_batches_match_the_model() {
    for policy in EvictionPolicy::ALL {
        for n in LENGTHS.filter(|&n| n > 0) {
            let hot: Vec<u64> = (0..n as u64).collect();
            let (mut mgr, mut model) = pair_with(n, WindowConfig::PAPER, policy);
            mgr.prewarm(&hot);
            model.prewarm(&hot);
            for _ in 0..2 {
                let out = step_outcome(&mut mgr, &mut model, &hot, &[&hot]);
                assert_eq!((out.hits, out.misses), (n as u64, 0), "{policy} n={n}");
            }

            // Never-used slots, then victims: the cold batch fills `n`
            // fresh slots, the next one evicts every one of them once the
            // window has let them go.
            let (mut mgr, mut model) = pair_with(n, WindowConfig::PAPER, policy);
            let cold: Vec<u64> = (100..100 + n as u64).collect();
            let out = step_outcome(&mut mgr, &mut model, &cold, &[]);
            assert_eq!((out.misses, out.evictions.len()), (n as u64, 0));
            for _ in 0..WindowConfig::PAPER.past {
                step(&mut mgr, &mut model, &[], &[]);
            }
            let fresh: Vec<u64> = (200..200 + n as u64).collect();
            let out = step_outcome(&mut mgr, &mut model, &fresh, &[]);
            assert_eq!(
                (out.misses, out.evictions.len()),
                (n as u64, n),
                "{policy} n={n}"
            );
            // Every slot is held now: the next cold batch fails at once.
            let colder: Vec<u64> = (300..300 + n as u64).collect();
            let out = step_outcome(&mut mgr, &mut model, &colder, &[]);
            assert!(out.exhausted, "{policy} n={n}");
            assert_eq!((out.misses, out.fills.len()), (1, 0));
        }
    }
}

/// Misses that take every never-used slot and every pooled victim, with
/// hits among them: the plan succeeds with nothing left over, and one
/// miss more fails at its first miss.
#[test]
fn misses_that_use_up_the_free_and_pooled_slots_exactly() {
    let sizes = [0usize, 1, 7, 15, 16, 17, 33];
    for policy in EvictionPolicy::ALL {
        for free in sizes {
            for pooled in sizes {
                let hits = (free + pooled) / 2;
                let slots = free + pooled + hits;
                if slots == 0 {
                    continue;
                }
                // Even rows are prewarmed (the first `hits` of them hit),
                // odd rows miss: sorted, the two interleave.
                let warm: Vec<u64> = (0..(pooled + hits) as u64).map(|r| 2 * r).collect();
                let misses = (0..(free + pooled) as u64).map(|r| 2 * r + 1);
                let mut batch: Vec<u64> = warm[..hits].iter().copied().chain(misses).collect();
                batch.sort_unstable();
                let (mut mgr, mut model) = pair_with(slots, WindowConfig::PAPER, policy);
                mgr.prewarm(&warm);
                model.prewarm(&warm);
                let out = step_outcome(&mut mgr, &mut model, &batch, &[]);
                let case = format!("{policy} free={free} pooled={pooled}");
                assert!(!out.exhausted, "{case}");
                assert_eq!(
                    (out.hits, out.misses),
                    (hits as u64, (free + pooled) as u64)
                );
                assert_eq!(out.evictions.len(), pooled, "{case}");
                let out = step_outcome(&mut mgr, &mut model, &[1_000_001], &[]);
                assert!(out.exhausted, "{case}");
            }
        }
    }
}

/// `CapacityExhausted` at the batch's first miss, at a middle miss and at
/// its last miss, with hits before and after the failing one: the partial
/// plan, the booked statistics and every later plan must match the model.
#[test]
fn capacity_exhausted_at_the_first_a_middle_and_the_last_miss() {
    for policy in EvictionPolicy::ALL {
        for avail in [0usize, 1, 7, 15, 16, 17, 40] {
            // (misses in the batch, which miss fails): the first when no
            // slot is available, else the middle one or the last one.
            let shapes = if avail == 0 {
                vec![(1, "first"), (9, "first"), (40, "first")]
            } else {
                vec![(2 * avail + 1, "middle"), (avail + 1, "last")]
            };
            for (misses, which) in shapes {
                let held = 2 * misses + 8;
                let slots = avail + held;
                // `avail` prewarmed rows are the only victims; the first
                // batch takes every never-used slot and holds it.
                let warm: Vec<u64> = (0..avail as u64).map(|r| 10_000 + r).collect();
                let first: Vec<u64> = (0..held as u64).map(|r| 2 * r).collect();
                let hits = &first[..held / 2];
                let mut batch: Vec<u64> = hits
                    .iter()
                    .copied()
                    .chain((0..misses as u64).map(|r| 2 * r + 1))
                    .collect();
                batch.sort_unstable();
                let case = format!("{policy} avail={avail} misses={misses} ({which})");

                let (mut mgr, mut model) = pair_with(slots, WindowConfig::PAPER, policy);
                mgr.prewarm(&warm);
                model.prewarm(&warm);
                let out = step_outcome(&mut mgr, &mut model, &first, &[]);
                assert!(!out.exhausted && out.evictions.is_empty(), "{case}");
                let out = step_outcome(&mut mgr, &mut model, &batch, &[]);
                assert!(out.exhausted, "{case}");
                assert_eq!(
                    out.misses,
                    avail as u64 + 1,
                    "{case}: the failing miss counts"
                );
                assert_eq!(
                    (out.fills.len(), out.evictions.len()),
                    (avail, avail),
                    "{case}"
                );
                let failed_at = batch
                    .iter()
                    .position(|&r| r == 2 * avail as u64 + 1)
                    .expect("the failing miss is in the batch");
                assert_eq!(out.unique_slots.len(), failed_at, "{case}: planned prefix");
                let later_hits = batch[failed_at..].iter().filter(|r| *r % 2 == 0).count();
                assert_eq!(out.hits, (hits.len() - later_hits) as u64, "{case}");

                // Still usable: once the window has let the held rows go,
                // the same batch plans in full, and then hits in full.
                for _ in 0..WindowConfig::PAPER.width() {
                    step(&mut mgr, &mut model, &[], &[]);
                }
                let out = step_outcome(&mut mgr, &mut model, &batch, &[]);
                assert!(!out.exhausted, "{case}: after the error");
                let out = step_outcome(&mut mgr, &mut model, &batch, &[]);
                assert_eq!(out.hits, batch.len() as u64, "{case}: the batch again");
            }
        }
    }
}
