//! Single-layer probes the traced pass runs beside the replay: the
//! Hit-Map index and the victim pool driven with the workload's own
//! stream, the worker pool's dispatch cost, and what the host's memory
//! system can attain (so every `*_gbps` reads as a share of attainable).

use std::hint::black_box;
use std::time::Instant;

use scratchpipe::policy::VictimPool;
use scratchpipe::{EvictionPolicy, SlotIndex, TablePlan, WindowConfig, WorkerPool};

use crate::stats::median;

/// Nanoseconds per operation, 0 when no operation ran.
fn per_op(ns: u128, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        ns as f64 / ops as f64
    }
}

/// `SlotIndex` cost under the workload's probe / fill / evict stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexProbe {
    /// ns per `SlotIndex::get` (one per unique ID per batch).
    pub get_ns: f64,
    /// ns per `insert` or `remove` (one per fill, one per eviction).
    pub insert_remove_ns: f64,
}

/// Drives one `SlotIndex` per table, at scratchpad capacity, with the
/// replay's stream: every batch probes its unique IDs, then removes the
/// rows it evicted and inserts the rows it filled.
pub fn index_probe(
    slots: usize,
    uniq: &[Vec<Vec<u64>>],
    plans: &[Vec<TablePlan>],
    prewarm: Option<&[Vec<u64>]>,
) -> IndexProbe {
    let num_tables = uniq.first().map_or(0, Vec::len);
    let mut indexes: Vec<SlotIndex> = (0..num_tables)
        .map(|_| SlotIndex::with_capacity(slots))
        .collect();
    if let Some(hot) = prewarm {
        for (index, rows) in indexes.iter_mut().zip(hot) {
            for (slot, &row) in rows.iter().take(slots).enumerate() {
                index.insert(row, slot as u32);
            }
        }
    }
    let (mut get_ns, mut gets) = (0u128, 0u64);
    let (mut churn_ns, mut churns) = (0u128, 0u64);
    for (batch_uniq, batch_plans) in uniq.iter().zip(plans) {
        let t0 = Instant::now();
        for (index, ids) in indexes.iter().zip(batch_uniq) {
            for &id in ids {
                black_box(index.get(id));
            }
            gets += ids.len() as u64;
        }
        get_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        for (index, plan) in indexes.iter_mut().zip(batch_plans) {
            for ev in &plan.evictions {
                black_box(index.remove(ev.row));
            }
            for f in &plan.fills {
                black_box(index.insert(f.row, f.slot));
            }
            churns += (plan.evictions.len() + plan.fills.len()) as u64;
        }
        churn_ns += t0.elapsed().as_nanos();
    }
    IndexProbe {
        get_ns: per_op(get_ns, gets),
        insert_remove_ns: per_op(churn_ns, churns),
    }
}

/// `VictimPool` cost under the workload's slot stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyProbe {
    /// ns per protect-and-touch (`remove` + `touch`) of a planned slot.
    pub touch_ns: f64,
    /// ns per victim `pop` or expiry `insert`.
    pub pop_insert_ns: f64,
}

/// Drives one LRU `VictimPool` per table with the slots the replay's
/// plans touched: each batch protects and touches its slots, the slots
/// last touched one window ago become evictable again, and one victim is
/// popped per eviction the plan made. (The pool's own pops need not pick
/// the plan's victims — membership follows the stream, which is what
/// sets the ordered set's size and churn.)
pub fn policy_probe(slots: usize, plans: &[Vec<TablePlan>]) -> PolicyProbe {
    let num_tables = plans.first().map_or(0, Vec::len);
    let mut pools: Vec<VictimPool> = (0..num_tables)
        .map(|_| VictimPool::new(slots, EvictionPolicy::Lru))
        .collect();
    let mut last_touch: Vec<Vec<u32>> = vec![vec![u32::MAX; slots]; num_tables];
    // A slot protected at cycle c is held through c + past.
    let hold = WindowConfig::PAPER.past as usize + 1;
    let (mut touch_ns, mut touches) = (0u128, 0u64);
    let (mut pool_ns, mut pool_ops) = (0u128, 0u64);
    for (i, batch_plans) in plans.iter().enumerate() {
        let t0 = Instant::now();
        for (t, plan) in batch_plans.iter().enumerate() {
            for &slot in &plan.unique_slots {
                pools[t].remove(slot);
                pools[t].touch(slot, i as u64);
                last_touch[t][slot as usize] = i as u32;
            }
            touches += plan.unique_slots.len() as u64;
        }
        touch_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        for (t, plan) in batch_plans.iter().enumerate() {
            if let Some(expired) = i.checked_sub(hold) {
                for &slot in &plans[expired][t].unique_slots {
                    if last_touch[t][slot as usize] == expired as u32 {
                        pools[t].insert(slot);
                        pool_ops += 1;
                    }
                }
            }
            for _ in &plan.evictions {
                pool_ops += u64::from(black_box(pools[t].pop()).is_some());
            }
        }
        pool_ns += t0.elapsed().as_nanos();
    }
    PolicyProbe {
        touch_ns: per_op(touch_ns, touches),
        pop_insert_ns: per_op(pool_ns, pool_ops),
    }
}

/// Median µs of one `WorkerPool::run_tasks` fork-join over `width`
/// empty tasks — the fixed cost every sharded stage region pays.
pub fn dispatch_us(pool: WorkerPool) -> f64 {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let tasks: Vec<_> = (0..pool.threads()).map(|_| || ()).collect();
            let t0 = Instant::now();
            black_box(pool.run_tasks(tasks).expect("empty tasks cannot panic"));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// What this host's memory system attains, in-process, at row width
/// `dim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProbe {
    /// GB/s of a sequential `copy_from_slice` (bytes copied ÷ time).
    pub copy_gbps: f64,
    /// GB/s of gathering random `dim`-wide rows into a dense buffer.
    pub gather_gbps: f64,
}

/// Measures [`HostProbe`] over a 64 MiB source, well past the caches.
pub fn host_probe(dim: usize, seed: u64) -> HostProbe {
    const SOURCE_ELEMS: usize = 16 << 20;
    let rows = SOURCE_ELEMS / dim;
    let source: Vec<f32> = (0..rows * dim).map(|i| i as f32).collect();
    let mut dest = vec![0.0f32; rows * dim];
    let bytes = (rows * dim * 4) as f64;

    let copy: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            dest.copy_from_slice(black_box(&source));
            black_box(&mut dest);
            bytes / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();

    // One pass of `rows` random row reads (splitmix-style index stream).
    let mut state = seed | 1;
    let picks: Vec<usize> = (0..rows)
        .map(|_| {
            state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ 0x5851_F42D;
            (state % rows as u64) as usize
        })
        .collect();
    let gather: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for (dst, &r) in dest.chunks_exact_mut(dim).zip(&picks) {
                dst.copy_from_slice(&source[r * dim..(r + 1) * dim]);
            }
            black_box(&mut dest);
            bytes / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();

    HostProbe {
        copy_gbps: median(&copy),
        gather_gbps: median(&gather),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scratchpipe::scratchpad::{Evict, Fill};

    fn plan(slots: &[u32], fills: &[(u64, u32)], evictions: &[(u64, u32)]) -> TablePlan {
        TablePlan {
            unique_slots: slots.to_vec(),
            fills: fills
                .iter()
                .map(|&(row, slot)| Fill { row, slot })
                .collect(),
            evictions: evictions
                .iter()
                .map(|&(row, slot)| Evict { row, slot })
                .collect(),
            ..TablePlan::default()
        }
    }

    #[test]
    fn probes_run_on_a_tiny_stream() {
        let uniq = vec![vec![vec![1, 2]], vec![vec![2, 3]]];
        let plans = vec![
            vec![plan(&[0, 1], &[(1, 0), (2, 1)], &[])],
            vec![plan(&[1, 0], &[(3, 0)], &[(1, 0)])],
        ];
        let index = index_probe(2, &uniq, &plans, None);
        assert!(index.get_ns > 0.0 && index.insert_remove_ns > 0.0);
        let policy = policy_probe(2, &plans);
        assert!(policy.touch_ns > 0.0);
        assert!(dispatch_us(WorkerPool::new(2)) > 0.0);
    }

    #[test]
    fn per_op_handles_zero_operations() {
        assert_eq!(per_op(100, 0), 0.0);
        assert_eq!(per_op(100, 4), 25.0);
    }
}
