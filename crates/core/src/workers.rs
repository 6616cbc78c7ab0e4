//! Scoped worker pool for intra-stage data parallelism.
//!
//! [`WorkerPool`] is the fork-join primitive behind
//! `Schedule::DataParallel`; behind the prewarm, and behind \[Plan\] and
//! the batch's dedup under every schedule the stepper runs (all but
//! `Threaded`), once the work clears `stages::PLAN_FAN_OUT_MIN_UNIQUES`;
//! and behind the dense step's two regions (`DenseBackend::step_on`)
//! under those schedules, once the step clears
//! `stages::DENSE_FAN_OUT_MIN_FLOPS`: a stage splits its iteration into
//! disjoint shard tasks (per table, or per contiguous sample range) and
//! hands them to [`WorkerPool::run_tasks`], which fans them out over
//! [`std::thread::scope`] and returns results *and per-shard wall-clock
//! nanos* in task order. The pool is deliberately stateless — a width plus
//! a spawn policy — so it can live inside the `Copy` stage context and
//! cost nothing when parallelism is disabled.
//!
//! # Determinism
//!
//! The pool never changes *what* is computed, only *where*: every task
//! owns a disjoint slice of the output, and callers are required to shard
//! along boundaries that keep each floating-point reduction whole (a
//! sample's pooled sum, a table's coalesced gradient). Results are
//! reassembled in task-submission order, so any width — including the
//! inline width-1 path — produces bit-identical output. That contract is
//! what lets `WorkerPool::for_work` pick inline execution for small
//! iterations without perturbing a single bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::error::ScratchError;

/// Timing of one shard task, measured against a region clock that starts
/// when [`WorkerPool::run_tasks`] is entered. The two timestamps come
/// from the same `Instant` reads the pool always took for its per-task
/// nanos, so recording them adds nothing to the hot path; telemetry
/// turns them into absolute worker-lane spans by adding the region's
/// start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    /// Start offset in nanoseconds from region entry.
    pub start_ns: u64,
    /// Wall-clock duration of the task in nanoseconds.
    pub dur_ns: u64,
    /// Worker that ran the task (0 = the calling thread; tasks are dealt
    /// round-robin, so worker `w` runs tasks `w, w+groups, …`).
    pub worker: u16,
}

/// Renders a caught panic payload as a human-readable string.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// CPUs this process may run on — affinity masks and cgroup quotas
/// included, so under `taskset -c 0` this is 1 — or 1 if that cannot be
/// determined.
pub(crate) fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-width fork-join worker pool.
///
/// Width 1 (the [`WorkerPool::inline`] pool) executes tasks on the calling
/// thread with no synchronization at all; wider pools distribute tasks
/// round-robin over scoped threads spawned per [`WorkerPool::run_tasks`]
/// call. Spawning per region keeps the pool borrow-friendly (tasks may
/// capture non-`'static` references to stage state) at the cost of a
/// thread launch per region, which [`WorkerPool::MIN_SHARD_WORK`] keeps
/// off the small-iteration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Work floor (in f32 elements touched) below which
    /// `WorkerPool::for_work` degrades to inline execution: under it,
    /// the per-region thread-launch cost outweighs any parallel gain.
    ///
    /// Derivation (`cargo bench -p sp-bench --bench worker_pool`, 2-CPU
    /// host; table in docs/perf.md): a region pays one scoped-thread
    /// launch and join, 58–95 µs once the workers touch real data (an
    /// empty region costs 16–53 µs). Width 2 at best halves a region's
    /// inline time `T`, so it wins only when `T / 2` exceeds that, i.e.
    /// `T` ≳ 150–200 µs. Row gathers and scatters run at 2–3 k elements
    /// per µs, which puts the break-even near 400 k elements; measured,
    /// the width-2 pool first ties the inline one at 2¹⁹ elements
    /// (232 vs 235 µs) and loses below it (139 vs 133 µs at 2¹⁸, 144 vs
    /// 43 µs at 2¹⁷). The previous floor of 32 768 elements — 8 µs of
    /// work — made `Schedule::DataParallel` slower than `Schedule::Sync`
    /// at every shape whose regions sat between the two floors.
    pub const MIN_SHARD_WORK: u64 = 524_288;

    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The width-1 pool: every task runs inline on the calling thread.
    pub const fn inline() -> Self {
        WorkerPool { threads: 1 }
    }

    /// A pool sized to the machine's available parallelism (1 if that
    /// cannot be determined).
    pub fn auto() -> Self {
        WorkerPool::new(available_cpus())
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether tasks run on the calling thread only.
    pub(crate) fn is_inline(&self) -> bool {
        self.threads == 1
    }

    /// The pool to use for a region touching roughly `work_elems` f32
    /// elements: this pool if the region is big enough to amortize thread
    /// launches, the inline pool otherwise. Because shard decomposition
    /// never changes results, callers may apply this freely per region.
    pub(crate) fn for_work(&self, work_elems: u64) -> WorkerPool {
        if work_elems >= Self::MIN_SHARD_WORK {
            *self
        } else {
            WorkerPool::inline()
        }
    }

    /// Splits `0..total` into at most `threads` contiguous, near-equal,
    /// non-empty ranges (fewer when `total < threads`; none when `total`
    /// is 0).
    pub(crate) fn split_ranges(&self, total: usize) -> Vec<std::ops::Range<usize>> {
        let shards = self.threads.min(total);
        let mut out = Vec::with_capacity(shards);
        let mut start = 0;
        for k in 0..shards {
            // Distribute the remainder one item at a time: shard k gets
            // ⌈(total - k·size)/…⌉-balanced length.
            let len = (total - start) / (shards - k);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    /// Runs every task, returning `(results, per-task [`ShardTiming`]s)`
    /// in task-submission order regardless of which worker ran what.
    ///
    /// Width 1 (or a single task) executes inline; otherwise tasks are
    /// dealt round-robin to `min(threads, tasks)` scoped workers, with the
    /// calling thread serving as worker 0.
    ///
    /// # Errors
    ///
    /// A panicking task is caught (`catch_unwind`) and converted to
    /// [`ScratchError::WorkerPanic`] instead of poisoning the scope; when
    /// several tasks panic, the lowest submission index wins. Tasks other
    /// than the panicking one still run to completion — any partial
    /// writes the failed task made to its disjoint output are the
    /// caller's to discard (the supervised pipeline rolls them back).
    pub fn run_tasks<T, F>(&self, tasks: Vec<F>) -> Result<(Vec<T>, Vec<ShardTiming>), ScratchError>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let region_t0 = Instant::now();
        let timed = |worker: u16, task: F| {
            let start_ns = region_t0.elapsed().as_nanos() as u64;
            let out = catch_unwind(AssertUnwindSafe(task))
                .map_err(|payload| panic_detail(payload.as_ref()));
            let end_ns = region_t0.elapsed().as_nanos() as u64;
            (
                out,
                ShardTiming {
                    start_ns,
                    dur_ns: end_ns.saturating_sub(start_ns),
                    worker,
                },
            )
        };
        let n = tasks.len();
        let mut slots: Vec<Option<(Result<T, String>, ShardTiming)>> =
            (0..n).map(|_| None).collect();
        if self.threads <= 1 || n <= 1 {
            for (k, task) in tasks.into_iter().enumerate() {
                slots[k] = Some(timed(0, task));
            }
        } else {
            let groups = self.threads.min(n);
            let mut buckets: Vec<Vec<(usize, F)>> = (0..groups).map(|_| Vec::new()).collect();
            for (k, task) in tasks.into_iter().enumerate() {
                buckets[k % groups].push((k, task));
            }
            std::thread::scope(|scope| {
                let mut rest = buckets.into_iter().enumerate();
                let (_, local) = rest.next().expect("at least one bucket");
                let handles: Vec<_> = rest
                    .map(|(w, bucket)| {
                        let timed = &timed;
                        scope.spawn(move || {
                            bucket
                                .into_iter()
                                .map(|(k, task)| (k, timed(w as u16, task)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for (k, task) in local {
                    slots[k] = Some(timed(0, task));
                }
                for handle in handles {
                    for (k, result) in handle.join().expect("worker thread died outside a task") {
                        slots[k] = Some(result);
                    }
                }
            });
        }
        let (mut outs, mut timings) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (k, slot) in slots.into_iter().enumerate() {
            let (out, timing) = slot.expect("every task produced a result");
            match out {
                Ok(v) => {
                    outs.push(v);
                    timings.push(timing);
                }
                Err(detail) => return Err(ScratchError::WorkerPanic { task: k, detail }),
            }
        }
        Ok((outs, timings))
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::inline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let tasks: Vec<_> = (0..23).map(|k| move || k * k).collect();
            let (outs, nanos) = pool.run_tasks(tasks).unwrap();
            assert_eq!(outs, (0..23).map(|k| k * k).collect::<Vec<i32>>());
            assert_eq!(nanos.len(), 23);
        }
    }

    #[test]
    fn disjoint_slices_can_be_written_from_tasks() {
        let mut data = vec![0u64; 64];
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = data
            .chunks_mut(16)
            .enumerate()
            .map(|(i, chunk)| {
                move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 16 + j) as u64;
                    }
                }
            })
            .collect();
        pool.run_tasks(tasks).unwrap();
        assert_eq!(data, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn panicking_task_is_caught_as_worker_panic() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
                .map(|k| {
                    Box::new(move || {
                        if k == 5 {
                            panic!("shard {k} exploded");
                        }
                        k
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let err = pool.run_tasks(tasks).unwrap_err();
            assert_eq!(
                err,
                ScratchError::WorkerPanic {
                    task: 5,
                    detail: "shard 5 exploded".to_owned(),
                },
                "width {threads}"
            );
        }
    }

    #[test]
    fn first_panic_by_submission_order_wins() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|k| {
                Box::new(move || {
                    if k >= 3 {
                        panic!("task {k}");
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        match pool.run_tasks(tasks).unwrap_err() {
            ScratchError::WorkerPanic { task, detail } => {
                assert_eq!(task, 3);
                assert_eq!(detail, "task 3");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn split_ranges_cover_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            for total in [0usize, 1, 7, 8, 9, 100] {
                let ranges = pool.split_ranges(total);
                assert_eq!(ranges.len(), threads.min(total));
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, total, "{threads} threads over {total}");
                // Near-equal: lengths differ by at most one.
                if let (Some(lo), Some(hi)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(hi - lo <= 1);
                }
            }
        }
    }

    #[test]
    fn zero_width_clamps_to_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_inline());
    }

    #[test]
    fn small_work_degrades_to_inline() {
        let pool = WorkerPool::new(8);
        assert!(pool.for_work(WorkerPool::MIN_SHARD_WORK - 1).is_inline());
        assert_eq!(pool.for_work(WorkerPool::MIN_SHARD_WORK), pool);
    }
}
