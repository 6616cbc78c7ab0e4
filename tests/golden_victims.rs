//! Golden victim-sequence test: the exact `(fills, evictions,
//! unique_slots)` stream of `ScratchpadManager::plan` is part of the
//! repo's contract — `repro_report`'s figures (`ablation_policy` first)
//! and the benchmark's `sim_iter_us` / `pcie_bytes_per_iter` all move if
//! a victim moves. The digests below were recorded at the commit *before*
//! the Plan metadata path was rebuilt (ordered-set victim pool, expiry buckets);
//! any rewrite of that path must reproduce them bit for bit, for every
//! policy, window and prewarm setting.
//!
//! The traces come from an integer-only generator so the digests do not
//! depend on the host's libm.

use scratchpipe::{EvictionPolicy, ScratchpadManager, WindowConfig};

const ROWS: u64 = 4_000;
const SLOTS: usize = 1_400;
const BATCHES: usize = 80;
const LOOKUPS: usize = 200;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sorted unique IDs per batch. `skewed` multiplies two uniform draws, so
/// low IDs are hot (a long-tailed head); otherwise IDs are uniform.
fn trace(seed: u64, skewed: bool) -> Vec<Vec<u64>> {
    let mut state = seed;
    (0..BATCHES)
        .map(|_| {
            let mut ids: Vec<u64> = (0..LOOKUPS)
                .map(|_| {
                    let a = splitmix(&mut state) % ROWS;
                    if skewed {
                        a * (splitmix(&mut state) % ROWS) / ROWS
                    } else {
                        a
                    }
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of every plan of both traces under one configuration.
fn digest(policy: EvictionPolicy, window: WindowConfig, prewarm: bool) -> u64 {
    let mut h = Fnv::new();
    for (seed, skewed) in [(11, true), (12, false)] {
        let batches = trace(seed, skewed);
        let mut m = ScratchpadManager::new(SLOTS, window, policy).expect("valid geometry");
        if prewarm {
            // Hottest first; more rows than slots, so the tail is dropped.
            let hot: Vec<u64> = (0..SLOTS as u64 + 100).map(|r| r * 2).collect();
            m.prewarm(&hot);
        }
        for (i, current) in batches.iter().enumerate() {
            let futures: Vec<&[u64]> = (1..=window.future as usize)
                .filter_map(|k| batches.get(i + k).map(Vec::as_slice))
                .collect();
            let plan = m
                .plan(current, &futures)
                .expect("provisioned for the window");
            h.fold(plan.hits);
            h.fold(plan.misses);
            h.fold(plan.fills.len() as u64);
            for f in &plan.fills {
                h.fold(f.row);
                h.fold(u64::from(f.slot));
            }
            h.fold(plan.evictions.len() as u64);
            for e in &plan.evictions {
                h.fold(e.row);
                h.fold(u64::from(e.slot));
            }
            for &s in &plan.unique_slots {
                h.fold(u64::from(s));
            }
        }
        let stats = m.stats();
        h.fold(stats.evictions);
        h.fold(stats.peak_held as u64);
    }
    h.0
}

const WINDOWS: [WindowConfig; 3] = [
    WindowConfig::PAPER,
    WindowConfig::SEQUENTIAL,
    WindowConfig { past: 0, future: 2 },
];

/// `GOLDEN[policy][window][prewarm]`, policies in `EvictionPolicy::ALL`
/// order, windows in `WINDOWS` order.
const GOLDEN: [[[u64; 2]; 3]; 3] = [
    [
        [0x75ca2595e3546a75, 0x1a82a3812c87d0e3],
        [0xf8b79aac646933a3, 0xc0ede720f51a1697],
        [0x4cb863b7eb4240f9, 0x21d5a8032e85b62a],
    ],
    [
        [0xc42619568c5cdbb8, 0x76a1b693b15ba97f],
        [0x361e468d59bc6d87, 0x07b435c347673d6a],
        [0xe958c8ac069b2bcb, 0xcd56fa65001f1e30],
    ],
    [
        [0x21ef4b6778b5da0d, 0x87202166b191a831],
        [0x19313f7f9c6a9bed, 0xde327fbd6139ed7f],
        [0x828d9d35fc25b23d, 0xe6b3891e8c96f5d3],
    ],
];

#[test]
fn victim_sequences_match_the_recorded_digests() {
    let mut actual = [[[0u64; 2]; 3]; 3];
    for (p, &policy) in EvictionPolicy::ALL.iter().enumerate() {
        for (w, &window) in WINDOWS.iter().enumerate() {
            for (pw, prewarm) in [false, true].into_iter().enumerate() {
                actual[p][w][pw] = digest(policy, window, prewarm);
            }
        }
    }
    assert_eq!(
        actual, GOLDEN,
        "victim sequence moved; computed digests:\n{actual:#x?}"
    );
}

#[test]
fn traces_actually_churn() {
    // The digests only pin victim choice if victims are chosen: every
    // configuration must evict, and the policies must disagree.
    let batches = trace(11, true);
    let mut m =
        ScratchpadManager::new(SLOTS, WindowConfig::PAPER, EvictionPolicy::Lru).expect("valid");
    for (i, current) in batches.iter().enumerate() {
        let futures: Vec<&[u64]> = (1..=2)
            .filter_map(|k| batches.get(i + k).map(Vec::as_slice))
            .collect();
        m.plan(current, &futures).expect("provisioned");
    }
    let stats = m.stats();
    assert!(stats.evictions > 1_000, "evictions: {}", stats.evictions);
    assert!(stats.hits > 1_000, "hits: {}", stats.hits);
    let lru = digest(EvictionPolicy::Lru, WindowConfig::PAPER, false);
    let lfu = digest(EvictionPolicy::Lfu, WindowConfig::PAPER, false);
    let random = digest(EvictionPolicy::Random, WindowConfig::PAPER, false);
    assert!(lru != lfu && lfu != random && lru != random);
}
