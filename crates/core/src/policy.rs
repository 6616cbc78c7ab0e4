//! Eviction policies and the victim pool.
//!
//! When the \[Plan\] stage misses, it must pick a victim among the slots
//! whose Hold mask is clear (paper Algorithm 1, `CHOOSE_VICTIM`). The
//! paper's default policy is LRU, with LFU and random eviction studied in
//! the §VI-E sensitivity analysis — ScratchPipe's performance is robust
//! across all three because *which* evictable slot is chosen never affects
//! correctness, only the future hit rate.
//!
//! # Victim order
//!
//! Every policy reduces to a 64-bit priority per slot, and the victim is
//! always the pooled slot with the smallest `(priority, slot)` pair — the
//! slot index breaks ties, which is what makes `prewarm` evict its coldest
//! rows first and keeps the `ablation_policy` sweep reproducible.
//!
//! * **LRU** priorities are plan cycles: every slot released in one cycle
//!   shares one priority, and cycles arrive (almost always) in ascending
//!   order. The pool is therefore a *run queue*: one run of slots per
//!   priority, runs kept in ascending priority order, a read cursor at the
//!   front. `insert` appends to the run of the slot's priority, `remove`
//!   and `touch` are lazy (they only flip the per-slot state), and `pop`
//!   advances the cursor past entries that are no longer live. All four
//!   are `O(1)` amortised. Run-queue invariants:
//!
//!   1. an entry `(run priority, slot)` is **live** iff the slot is pooled
//!      and its current priority equals the run's — anything else is a
//!      stale leftover of a lazy `remove`/`touch` and is skipped;
//!   2. every pooled slot has at least one live entry ahead of the cursor
//!      (duplicates of one key are harmless: popping the first clears the
//!      slot's pooled flag, which kills the rest);
//!   3. the unread part of a run is ascending by slot once a `pop` reaches
//!      it: a run that receives a slot out of order is marked and its
//!      unread suffix is sorted once, on that `pop`;
//!   4. unread entries never exceed `2 × slots`: past that the queue is
//!      compacted down to its live entries (at most `slots`), so a pool
//!      that is refilled but never popped cannot grow without bound.
//!
//!   A priority that arrives out of order (the public API allows any
//!   `cycle`) finds or creates its run by binary search — correct, just
//!   not `O(1)`.
//! * **LFU** and **Random** priorities are arbitrary 64-bit values, so they
//!   keep an ordered set (`O(log n)`); the policy the pool was built with
//!   selects the structure.

use std::collections::{BTreeSet, VecDeque};

use serde::Serialize;

/// Victim-selection policy among evictable slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used evictable slot (paper default).
    Lru,
    /// Evict the least-frequently-used evictable slot.
    Lfu,
    /// Evict a pseudo-random evictable slot (deterministic per seed).
    Random,
}

impl EvictionPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [EvictionPolicy; 3] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::Random,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "LRU",
            EvictionPolicy::Lfu => "LFU",
            EvictionPolicy::Random => "Random",
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-slot policy state: the slot's current priority and whether it is
/// pooled. One record per slot, so the liveness test of a queue entry is
/// one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    priority: u64,
    pooled: bool,
}

/// One run of the LRU queue: the slots released at one priority.
#[derive(Debug, Clone)]
struct Run {
    priority: u64,
    slots: Vec<u32>,
    /// Read cursor: `slots[..head]` have been consumed.
    head: usize,
    /// Whether `slots[head..]` is ascending.
    sorted: bool,
}

/// The LRU victim order: runs in ascending priority order, read from the
/// front (see the module docs for the invariants).
#[derive(Debug, Clone, Default)]
struct RunQueue {
    runs: VecDeque<Run>,
    /// Emptied run buffers, reused by the next new run.
    spare: Vec<Vec<u32>>,
    /// Unread entries across all runs, live or stale.
    queued: usize,
}

impl RunQueue {
    fn new_run(&mut self, priority: u64) -> Run {
        Run {
            priority,
            slots: self.spare.pop().unwrap_or_default(),
            head: 0,
            sorted: true,
        }
    }

    fn push(&mut self, priority: u64, slot: u32) {
        let idx = match self.runs.back().map(|back| back.priority.cmp(&priority)) {
            Some(std::cmp::Ordering::Equal) => self.runs.len() - 1,
            Some(std::cmp::Ordering::Less) | None => {
                let run = self.new_run(priority);
                self.runs.push_back(run);
                self.runs.len() - 1
            }
            Some(std::cmp::Ordering::Greater) => {
                // A priority older than the newest run: find its place.
                let idx = self.runs.partition_point(|r| r.priority < priority);
                if self.runs[idx].priority != priority {
                    let run = self.new_run(priority);
                    self.runs.insert(idx, run);
                }
                idx
            }
        };
        let run = &mut self.runs[idx];
        if run.slots.last().is_some_and(|&last| slot < last) {
            run.sorted = false;
        }
        run.slots.push(slot);
        self.queued += 1;
    }

    /// Consumes entries from the front until a live one is found; clears
    /// its pooled flag and returns it.
    fn pop(&mut self, state: &mut [SlotState]) -> Option<u32> {
        loop {
            let run = self.runs.front_mut()?;
            if run.head == run.slots.len() {
                let run = self.runs.pop_front().expect("front exists");
                self.recycle(run);
                continue;
            }
            if !run.sorted {
                run.slots[run.head..].sort_unstable();
                run.sorted = true;
            }
            let slot = run.slots[run.head];
            run.head += 1;
            self.queued -= 1;
            let s = &mut state[slot as usize];
            if s.pooled && s.priority == run.priority {
                s.pooled = false;
                return Some(slot);
            }
        }
    }

    /// Keeps a retired run's buffer for the next new run.
    fn recycle(&mut self, mut run: Run) {
        run.slots.clear();
        self.spare.push(run.slots);
    }

    /// Drops every entry (all are stale once no slot is pooled).
    fn clear(&mut self) {
        while let Some(run) = self.runs.pop_front() {
            self.recycle(run);
        }
        self.queued = 0;
    }

    /// Rewrites the queue down to one entry per live key.
    fn compact(&mut self, state: &[SlotState]) {
        let mut queued = 0;
        self.runs.retain_mut(|run| {
            let priority = run.priority;
            run.slots.drain(..run.head);
            run.head = 0;
            run.slots.retain(|&slot| {
                let s = state[slot as usize];
                s.pooled && s.priority == priority
            });
            if !run.sorted {
                run.slots.sort_unstable();
                run.sorted = true;
            }
            run.slots.dedup();
            queued += run.slots.len();
            !run.slots.is_empty()
        });
        self.queued = queued;
    }
}

/// The structure that orders pooled slots by `(priority, slot)`.
#[derive(Debug, Clone)]
enum VictimOrder {
    /// LRU: per-priority runs, lazy deletion.
    Runs(RunQueue),
    /// LFU / Random: arbitrary priorities, exact membership.
    Set(BTreeSet<(u64, u32)>),
}

/// The pool of currently evictable slots, ordered by policy priority.
///
/// The scratchpad manager inserts a slot when its Hold mask expires and
/// removes it when the slot is touched (protected) again; `pop` yields the
/// policy's preferred victim — the smallest `(priority, slot)` — in
/// amortised `O(1)` for LRU and `O(log n)` for LFU / Random.
#[derive(Debug, Clone)]
pub struct VictimPool {
    policy: EvictionPolicy,
    order: VictimOrder,
    state: Vec<SlotState>,
    len: usize,
    tick: u64,
}

impl VictimPool {
    /// Creates an empty pool over `slots` slots.
    pub fn new(slots: usize, policy: EvictionPolicy) -> Self {
        VictimPool {
            policy,
            order: match policy {
                EvictionPolicy::Lru => VictimOrder::Runs(RunQueue::default()),
                EvictionPolicy::Lfu | EvictionPolicy::Random => VictimOrder::Set(BTreeSet::new()),
            },
            state: vec![SlotState::default(); slots],
            len: 0,
            tick: 0,
        }
    }

    /// Number of evictable slots currently pooled.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True if no slot is evictable.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `slot` is currently pooled.
    #[cfg(test)]
    pub(crate) fn contains(&self, slot: u32) -> bool {
        self.state[slot as usize].pooled
    }

    /// Starts loading `slot`'s policy record into the cache (see
    /// [`crate::index::prefetch`]).
    #[inline]
    pub(crate) fn prefetch(&self, slot: u32) {
        crate::index::prefetch(&self.state[slot as usize]);
    }

    /// Queues a pooled slot at its current priority.
    fn enqueue(&mut self, slot: u32) {
        let priority = self.state[slot as usize].priority;
        match &mut self.order {
            VictimOrder::Runs(queue) => {
                queue.push(priority, slot);
                if queue.queued > 2 * self.state.len() {
                    queue.compact(&self.state);
                }
            }
            VictimOrder::Set(ordered) => {
                ordered.insert((priority, slot));
            }
        }
    }

    /// Records an access to `slot` at plan-cycle `cycle`, updating the
    /// policy metadata. Does **not** change pool membership — the manager
    /// removes touched slots separately because protection, not recency,
    /// governs membership — but a pooled slot is repositioned so the
    /// victim order stays consistent with its new priority.
    pub fn touch(&mut self, slot: u32, cycle: u64) {
        let s = &mut self.state[slot as usize];
        let old = s.priority;
        s.priority = match self.policy {
            EvictionPolicy::Lru => cycle,
            EvictionPolicy::Lfu => old + 1,
            EvictionPolicy::Random => {
                self.tick += 1;
                splitmix(slot as u64 ^ (self.tick << 20))
            }
        };
        if s.pooled && s.priority != old {
            // The run queue's old entry went stale with the priority.
            if let VictimOrder::Set(ordered) = &mut self.order {
                ordered.remove(&(old, slot));
            }
            self.enqueue(slot);
        }
    }

    /// Adds `slot` to the pool (idempotent).
    pub fn insert(&mut self, slot: u32) {
        let s = &mut self.state[slot as usize];
        if s.pooled {
            return;
        }
        s.pooled = true;
        self.len += 1;
        self.enqueue(slot);
    }

    /// Removes `slot` from the pool if present.
    pub fn remove(&mut self, slot: u32) {
        let s = &mut self.state[slot as usize];
        if !s.pooled {
            return;
        }
        s.pooled = false;
        self.len -= 1;
        // The run queue drops the entry lazily, when `pop` reaches it.
        if let VictimOrder::Set(ordered) = &mut self.order {
            let removed = ordered.remove(&(s.priority, slot));
            debug_assert!(removed, "pool bookkeeping out of sync for slot {slot}");
        }
    }

    /// Pops the policy-preferred victim, or `None` if the pool is empty.
    pub fn pop(&mut self) -> Option<u32> {
        let slot = match &mut self.order {
            VictimOrder::Runs(queue) => {
                if self.len == 0 {
                    queue.clear();
                    return None;
                }
                queue
                    .pop(&mut self.state)
                    .expect("a pooled slot has a live entry")
            }
            VictimOrder::Set(ordered) => {
                let (_, slot) = ordered.pop_first()?;
                self.state[slot as usize].pooled = false;
                slot
            }
        };
        self.len -= 1;
        Some(slot)
    }
}

/// SplitMix64 — deterministic pseudo-random priorities.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_pops_oldest_touch() {
        let mut p = VictimPool::new(4, EvictionPolicy::Lru);
        p.touch(0, 10);
        p.touch(1, 5);
        p.touch(2, 20);
        for s in 0..3 {
            p.insert(s);
        }
        assert_eq!(p.pop(), Some(1));
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.pop(), Some(2));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn lfu_pops_least_frequent() {
        let mut p = VictimPool::new(4, EvictionPolicy::Lfu);
        for _ in 0..3 {
            p.touch(0, 0);
        }
        p.touch(1, 0);
        p.touch(2, 0);
        p.touch(2, 0);
        for s in 0..3 {
            p.insert(s);
        }
        assert_eq!(p.pop(), Some(1)); // freq 1
        assert_eq!(p.pop(), Some(2)); // freq 2
        assert_eq!(p.pop(), Some(0)); // freq 3
    }

    #[test]
    fn random_policy_is_deterministic_and_complete() {
        let run = || {
            let mut p = VictimPool::new(8, EvictionPolicy::Random);
            for s in 0..8 {
                p.touch(s, 0);
                p.insert(s);
            }
            let mut order = Vec::new();
            while let Some(s) = p.pop() {
                order.push(s);
            }
            order
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "deterministic");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "complete");
        assert_ne!(a, sorted, "random order should not be identity");
    }

    #[test]
    fn membership_tracking() {
        let mut p = VictimPool::new(4, EvictionPolicy::Lru);
        assert!(p.is_empty());
        p.insert(2);
        assert!(p.contains(2));
        assert!(!p.contains(1));
        assert_eq!(p.len(), 1);
        p.remove(2);
        assert!(p.is_empty());
        // Idempotent operations.
        p.remove(2);
        p.insert(3);
        p.insert(3);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn touch_then_insert_uses_fresh_priority() {
        let mut p = VictimPool::new(2, EvictionPolicy::Lru);
        p.touch(0, 1);
        p.touch(1, 2);
        p.insert(0);
        p.insert(1);
        // Re-touch slot 0 outside the pool: must not corrupt ordering,
        // because the manager always removes before re-protecting.
        p.remove(0);
        p.touch(0, 99);
        p.insert(0);
        assert_eq!(p.pop(), Some(1));
        assert_eq!(p.pop(), Some(0));
    }

    /// The ordered-set pool every policy used before the LRU run queue
    /// existed, verbatim — the reference model of the differential test.
    struct ModelPool {
        policy: EvictionPolicy,
        ordered: BTreeSet<(u64, u32)>,
        in_pool: Vec<bool>,
        priority: Vec<u64>,
        tick: u64,
    }

    impl ModelPool {
        fn new(slots: usize, policy: EvictionPolicy) -> Self {
            ModelPool {
                policy,
                ordered: BTreeSet::new(),
                in_pool: vec![false; slots],
                priority: vec![0; slots],
                tick: 0,
            }
        }

        fn touch(&mut self, slot: u32, cycle: u64) {
            let s = slot as usize;
            if self.in_pool[s] {
                self.ordered.remove(&(self.priority[s], slot));
            }
            match self.policy {
                EvictionPolicy::Lru => self.priority[s] = cycle,
                EvictionPolicy::Lfu => self.priority[s] += 1,
                EvictionPolicy::Random => {
                    self.tick += 1;
                    self.priority[s] = splitmix(slot as u64 ^ (self.tick << 20));
                }
            }
            if self.in_pool[s] {
                self.ordered.insert((self.priority[s], slot));
            }
        }

        fn insert(&mut self, slot: u32) {
            let s = slot as usize;
            if !self.in_pool[s] {
                self.in_pool[s] = true;
                self.ordered.insert((self.priority[s], slot));
            }
        }

        fn remove(&mut self, slot: u32) {
            let s = slot as usize;
            if self.in_pool[s] {
                self.in_pool[s] = false;
                assert!(self.ordered.remove(&(self.priority[s], slot)));
            }
        }

        fn pop(&mut self) -> Option<u32> {
            let &(p, slot) = self.ordered.iter().next()?;
            self.ordered.remove(&(p, slot));
            self.in_pool[slot as usize] = false;
            Some(slot)
        }
    }

    const MODEL_SLOTS: u32 = 12;

    /// Applies one generated op to both pools and compares everything
    /// observable. `clock` is the LRU cycle source; `mode` picks how it
    /// moves: 0 = steady plan cycles, 1 = sparse (large gaps), 2 = mostly
    /// decreasing arrival, 3 = arbitrary.
    fn step(
        pool: &mut VictimPool,
        model: &mut ModelPool,
        clock: &mut u64,
        mode: u8,
        (kind, slot, arg): (u8, u32, u64),
    ) -> Result<(), String> {
        match kind {
            0..=2 => {
                pool.insert(slot);
                model.insert(slot);
            }
            3 | 4 => {
                pool.remove(slot);
                model.remove(slot);
            }
            5 | 6 => {
                // Touch, pooled or not; kind 6 first moves the clock.
                if kind == 6 {
                    *clock = match mode {
                        0 => *clock + 1,
                        1 => *clock + 1 + arg * 1_000,
                        2 => clock.saturating_sub(1 + arg % 3),
                        _ => arg,
                    };
                }
                pool.touch(slot, *clock);
                model.touch(slot, *clock);
            }
            7 => {
                // What `benchmark/src/probes.rs::policy_probe` does per
                // batch: protect-and-touch a set of slots, later re-insert
                // them in plan (i.e. unsorted) order.
                *clock += 1;
                let picks: Vec<u32> = (0..4)
                    .map(|k| ((arg >> (8 * k)) % u64::from(MODEL_SLOTS)) as u32)
                    .collect();
                for &s in &picks {
                    pool.remove(s);
                    model.remove(s);
                    pool.touch(s, *clock);
                    model.touch(s, *clock);
                }
                for &s in &picks {
                    pool.insert(s);
                    model.insert(s);
                }
            }
            _ => {
                let (got, want) = (pool.pop(), model.pop());
                if got != want {
                    return Err(format!("pop: got {got:?}, reference {want:?}"));
                }
            }
        }
        if pool.len() != model.ordered.len() {
            return Err(format!("len {} vs {}", pool.len(), model.ordered.len()));
        }
        if pool.is_empty() != model.ordered.is_empty() {
            return Err("is_empty diverged".to_owned());
        }
        for s in 0..MODEL_SLOTS {
            if pool.contains(s) != model.in_pool[s as usize] {
                return Err(format!("contains({s}) diverged"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// Differential test: under arbitrary `insert` / `remove` /
        /// `touch` / `pop` interleavings — touch-while-pooled, re-insert
        /// at an unchanged priority, sparse and decreasing LRU cycles,
        /// unsorted insert order — the pool pops exactly the reference
        /// model's `min (priority, slot)` and agrees on `len`/`contains`,
        /// for every policy. Long sequences over few slots also drive the
        /// run queue through compaction.
        #[test]
        fn pool_matches_ordered_set_model(
            policy in 0usize..3,
            mode in 0u8..4,
            ops in proptest::collection::vec(
                (0u8..10, 0u32..MODEL_SLOTS, 0u64..50), 1..600),
        ) {
            let policy = EvictionPolicy::ALL[policy];
            let mut pool = VictimPool::new(MODEL_SLOTS as usize, policy);
            let mut model = ModelPool::new(MODEL_SLOTS as usize, policy);
            let mut clock = 100u64;
            for (n, op) in ops.into_iter().enumerate() {
                if let Err(e) = step(&mut pool, &mut model, &mut clock, mode, op) {
                    proptest::prop_assert!(false, "{policy} mode {mode} op {n} {op:?}: {e}");
                }
            }
            // Drain: the full remaining order must agree too.
            loop {
                let (got, want) = (pool.pop(), model.pop());
                proptest::prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn lru_ties_break_by_slot_even_when_inserted_unsorted() {
        let mut p = VictimPool::new(8, EvictionPolicy::Lru);
        for s in [5, 1, 7, 3] {
            p.insert(s); // all at priority 0
        }
        assert_eq!(p.pop(), Some(1));
        // A smaller slot arriving after the run was partly read.
        p.insert(0);
        p.insert(6);
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.pop(), Some(3));
        assert_eq!(p.pop(), Some(5));
        assert_eq!(p.pop(), Some(6));
        assert_eq!(p.pop(), Some(7));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn lru_out_of_order_priorities_find_their_run() {
        let mut p = VictimPool::new(8, EvictionPolicy::Lru);
        p.touch(0, 30);
        p.insert(0);
        p.touch(1, 10);
        p.insert(1); // older than the newest run: new front run
        p.touch(2, 20);
        p.insert(2); // between the two
        p.touch(3, 10);
        p.insert(3); // joins the existing priority-10 run
        assert_eq!(p.pop(), Some(1));
        assert_eq!(p.pop(), Some(3));
        assert_eq!(p.pop(), Some(2));
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn lru_queue_stays_bounded_without_pops() {
        // A pool that is refilled and re-protected every cycle but never
        // popped (a scratchpad larger than its working set) must not
        // accumulate stale entries without bound.
        let slots = 16u32;
        let mut p = VictimPool::new(slots as usize, EvictionPolicy::Lru);
        for cycle in 1..=1_000u64 {
            for s in 0..slots {
                p.remove(s);
                p.touch(s, cycle);
                p.insert(s);
            }
        }
        let VictimOrder::Runs(queue) = &p.order else {
            panic!("LRU uses the run queue");
        };
        assert!(
            queue.queued <= 2 * slots as usize,
            "queued {}",
            queue.queued
        );
        assert_eq!(p.len(), slots as usize);
        for s in 0..slots {
            assert_eq!(p.pop(), Some(s));
        }
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn policy_names() {
        assert_eq!(EvictionPolicy::Lru.to_string(), "LRU");
        assert_eq!(EvictionPolicy::ALL.len(), 3);
    }
}
