//! Persistent worker pool for intra-stage data parallelism.
//!
//! [`WorkerPool`] is the fork-join primitive behind the prewarm, and
//! behind every stage under the schedules the stepper runs (all but
//! `Threaded`), each region once its work clears its floor: \[Plan\] and
//! the batch's dedup `stages::PLAN_FAN_OUT_MIN_UNIQUES`, Collect, Insert
//! and the \[Train\] gather and scatter [`WorkerPool::MIN_SHARD_WORK`],
//! the dense step's two regions (`DenseBackend::step_on`)
//! `stages::DENSE_FAN_OUT_MIN_FLOPS`: a stage splits its iteration into
//! disjoint shard tasks (per table, or per contiguous sample range) and
//! hands them to [`WorkerPool::run_tasks`], which deals them over a
//! process-wide set of long-lived worker threads and returns results *and
//! per-shard wall-clock nanos* in task order.
//!
//! The handle is only a width, so it lives inside the `Copy` stage context
//! and costs nothing when parallelism is disabled. The threads behind it
//! are shared by every handle: created on first use, grown to the widest
//! width any region asks for, and kept for the life of the process. A
//! worker with nothing to do spins on the region counter for 2 ms
//! (not at all when the process may use one CPU), then sleeps on a
//! condition variable until the next region wakes it, so a region that
//! follows another within that window dispatches without waking a thread.
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
//!
//! Where a task runs is fixed too: task `k` of a region of `g` groups runs
//! on worker `k % g`, and worker `w` is the same OS thread in every
//! region (0 is the caller), so a table's shard keeps its state in one
//! core's cache from batch to batch. One region runs at a time: a second
//! caller waits for the pool, and a region entered from inside a task runs
//! inline on that task's thread. Both follow from the code's structure,
//! not from timing, so [`ShardTiming::worker`] is deterministic.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

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

/// How long an idle worker, and a caller waiting for its workers, spin
/// before sleeping on a condition variable.
///
/// Derivation (docs/perf.md, "A pool that costs microseconds"; 2-vCPU
/// host): an empty two-wide region costs ≈ 2 µs while the worker still
/// spins and 15–65 µs once it sleeps (a futex wake each way, more the
/// longer the vCPU idled). A pipeline enters its regions in bursts once an
/// iteration — a batch's dedup, its \[Plan\], the dense step's two — so
/// the spin decides whether every burst starts with a wake. Through the
/// harness, against 0.5 ms: on `supervised` (1.4 ms iterations, which
/// 2 ms bridges) 2 ms read 1.32× in 6 of 6 rounds and no spin 1.05×; on
/// `plan_bound` (7 ms iterations, which neither bridges) 0.98× and 0.96×,
/// each ahead in 2 of 6, inside the host's noise. An idle process stops
/// burning a CPU 2 ms after its last region.
const SPIN: Duration = Duration::from_millis(2);

thread_local! {
    /// Whether this thread is running a region's tasks: always on a
    /// worker, and on a caller while its region runs. A region entered
    /// from such a thread runs inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// A region as its workers see it: `run(w)` runs the tasks dealt to worker
/// `w`, for `w` below `groups`.
#[derive(Clone, Copy)]
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    groups: usize,
}

/// The process-wide workers' meeting point.
struct Workers {
    /// Held by the caller of the one region running at a time; counts the
    /// worker threads spawned so far (ids `1..=count`).
    turn: Mutex<usize>,
    state: Mutex<State>,
    /// Sleeping workers wait here for the next region.
    wake: Condvar,
    /// A sleeping caller waits here for its region's last worker.
    done: Condvar,
    /// Regions published so far; idle workers spin on it.
    epoch: AtomicU64,
    /// Workers of the running region that have not finished their tasks.
    pending: AtomicUsize,
    /// [`SPIN`], or zero when the process may use one CPU only.
    spin: Duration,
}

#[derive(Default)]
struct State {
    /// The running region, if any.
    job: Option<Job>,
    /// Workers asleep on `wake`.
    sleepers: usize,
    /// Whether the caller is asleep on `done`.
    caller_asleep: bool,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn workers() -> &'static Workers {
    static WORKERS: OnceLock<Workers> = OnceLock::new();
    WORKERS.get_or_init(|| Workers {
        turn: Mutex::new(0),
        state: Mutex::default(),
        wake: Condvar::new(),
        done: Condvar::new(),
        epoch: AtomicU64::new(0),
        pending: AtomicUsize::new(0),
        spin: if available_cpus() > 1 {
            SPIN
        } else {
            Duration::ZERO
        },
    })
}

impl Workers {
    /// Spins for at most `self.spin` until `ready()`, pausing between
    /// looks and yielding the CPU every 64th, so a spinning thread leaves
    /// its core's sibling the execution units and a wider-than-the-machine
    /// pool its CPUs; returns whether it became ready.
    fn spin_until(&self, ready: impl Fn() -> bool) -> bool {
        if self.spin.is_zero() {
            return ready();
        }
        let (start, mut looks) = (Instant::now(), 0u32);
        loop {
            if ready() {
                return true;
            }
            looks = looks.wrapping_add(1);
            if looks % 64 != 0 {
                std::hint::spin_loop();
            } else if start.elapsed() < self.spin {
                std::thread::yield_now();
            } else {
                return false;
            }
        }
    }

    /// Runs `run(0)` on the calling thread and `run(w)`, `w` in
    /// `1..groups`, on worker `w`; returns once every one has returned.
    fn fan_out(&'static self, groups: usize, run: &(dyn Fn(usize) + Sync)) {
        let mut spawned = lock(&self.turn);
        while *spawned + 1 < groups {
            let (id, seen) = (*spawned + 1, self.epoch.load(Ordering::Acquire));
            std::thread::Builder::new()
                .name(format!("sp-worker-{id}"))
                .spawn(move || self.serve(id, seen))
                .expect("spawn a pool worker");
            *spawned = id;
        }
        // SAFETY: this erases the lifetime of the borrow of `run` so the
        // workers can hold it. They only call it between the publication
        // below and their decrement of `pending`, and this function returns
        // (or resumes the caller's unwind) only after `pending` reached
        // zero and the job was taken back under the state lock: every call
        // of `run` on a worker has returned before the borrow ends. A
        // worker cannot die in between: it runs `run` under
        // `catch_unwind`.
        #[allow(unsafe_code)]
        let run_static = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
        };
        let mut state = lock(&self.state);
        state.job = Some(Job {
            run: run_static,
            groups,
        });
        self.pending.store(groups - 1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        // A worker counted here is asleep or on its way to sleep with the
        // lock released, so it gets the notification; one not counted
        // sees the new epoch before it sleeps. Notifying after the unlock
        // spares a woken worker blocking on the lock at once.
        let sleepers = state.sleepers;
        drop(state);
        if sleepers > 0 {
            self.wake.notify_all();
        }
        IN_REGION.set(true);
        let local = catch_unwind(AssertUnwindSafe(|| run(0)));
        IN_REGION.set(false);
        if !self.spin_until(|| self.pending.load(Ordering::Acquire) == 0) {
            let mut state = lock(&self.state);
            while self.pending.load(Ordering::Acquire) != 0 {
                state.caller_asleep = true;
                state = wait(&self.done, state);
            }
            state.caller_asleep = false;
        }
        lock(&self.state).job = None;
        drop(spawned);
        if let Err(payload) = local {
            resume_unwind(payload);
        }
    }

    /// Worker `id`'s loop: wait for a region past `seen`, run its share
    /// if the region is wide enough to have one, repeat.
    fn serve(&self, id: usize, mut seen: u64) {
        IN_REGION.set(true);
        loop {
            self.spin_until(|| self.epoch.load(Ordering::Acquire) != seen);
            let mut state = lock(&self.state);
            while self.epoch.load(Ordering::Acquire) == seen {
                state.sleepers += 1;
                state = wait(&self.wake, state);
                state.sleepers -= 1;
            }
            seen = self.epoch.load(Ordering::Acquire);
            let job = state.job.filter(|job| id < job.groups);
            drop(state);
            if let Some(job) = job {
                // The tasks' panics are caught inside `run`; this catches
                // the pool's own, so `pending` always reaches zero.
                let _ = catch_unwind(AssertUnwindSafe(|| (job.run)(id)));
                if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let caller_asleep = lock(&self.state).caller_asleep;
                    if caller_asleep {
                        self.done.notify_one();
                    }
                }
            }
        }
    }
}

/// A task of a region: dealt, taken by its worker, then done.
enum Shard<F, T> {
    Dealt(F),
    Running,
    Done(Result<T, String>, ShardTiming),
}

/// A fixed-width fork-join worker pool.
///
/// Width 1 (the [`WorkerPool::inline`] pool) executes tasks on the calling
/// thread with no hand-off; wider pools deal tasks
/// round-robin over the calling thread and the process's persistent
/// workers (see the module docs). Tasks may borrow the caller's stack
/// (`run_tasks` returns only once every task has finished), and a region
/// costs a hand-off of a few microseconds instead of a thread launch;
/// [`WorkerPool::MIN_SHARD_WORK`] keeps the regions too small to repay
/// even that inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Work floor (in f32 elements touched) below which
    /// `WorkerPool::for_work` degrades to inline execution: under it, a
    /// region's hand-off and the second CPU's cold caches outweigh any
    /// parallel gain.
    ///
    /// Derivation (`cargo bench -p sp-bench --bench worker_pool`, 2-vCPU
    /// host, three runs; table in docs/perf.md, "A pool that costs
    /// microseconds"): a region hands off in ≈ 2 µs while the workers
    /// spin and 15–65 µs once they sleep. Width 2 lost at 2¹⁵ elements in
    /// every run (8.3–11.7 µs inline), and at 2¹⁶ in one of three (a
    /// 205 µs outlier); from 2¹⁷ it won in all three (22–28 against
    /// 52–81 µs inline). The floor is the power of two over the largest
    /// size that did not win every run. The runs with the second vCPU
    /// away (a two-thread probe at 1.00–1.06×) also lost single cells
    /// from 2¹⁸ to 2²⁰, which no floor can fix.
    pub const MIN_SHARD_WORK: u64 = 131_072;

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

    /// The pool to use for a region of `work` units whose fan-out pays
    /// from `floor` of them: this pool at or over the floor, the inline
    /// pool under it. Because shard decomposition never changes results,
    /// callers may apply this freely per region.
    pub(crate) fn over_floor(&self, work: u64, floor: u64) -> WorkerPool {
        WorkerPool::new(if work >= floor { self.threads } else { 1 })
    }

    /// [`WorkerPool::over_floor`] for a region touching roughly
    /// `work_elems` f32 elements, from [`WorkerPool::MIN_SHARD_WORK`].
    pub(crate) fn for_work(&self, work_elems: u64) -> WorkerPool {
        self.over_floor(work_elems, Self::MIN_SHARD_WORK)
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
    /// Width 1, a single task, or a call from inside another region's task
    /// executes inline; otherwise tasks are dealt round-robin to
    /// `min(threads, tasks)` workers, the calling thread serving as worker
    /// 0 and the process's persistent worker `w` as worker `w`. A call
    /// made while another thread's region runs waits for it to finish.
    ///
    /// # Errors
    ///
    /// A panicking task is caught (`catch_unwind`) and converted to
    /// [`ScratchError::WorkerPanic`]; when several tasks panic, the lowest
    /// submission index wins. Tasks other than the panicking one still
    /// run to completion — any partial writes the failed task made to its
    /// disjoint output are the caller's to discard (the supervised
    /// pipeline rolls them back) — and the pool serves the next region as
    /// before.
    pub fn run_tasks<T, F>(&self, tasks: Vec<F>) -> Result<(Vec<T>, Vec<ShardTiming>), ScratchError>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let region_t0 = Instant::now();
        let timed = |worker: usize, task: F| {
            let start_ns = region_t0.elapsed().as_nanos() as u64;
            let out = catch_unwind(AssertUnwindSafe(task))
                .map_err(|payload| panic_detail(payload.as_ref()));
            let end_ns = region_t0.elapsed().as_nanos() as u64;
            let timing = ShardTiming {
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                worker: worker as u16,
            };
            (out, timing)
        };
        // One slot per task in both paths, so a region allocates the same
        // bytes whether or not it leaves this thread.
        let n = tasks.len();
        let groups = self.threads.min(n).max(1);
        let groups = if IN_REGION.get() { 1 } else { groups };
        let shards: Vec<Mutex<Shard<F, T>>> = tasks
            .into_iter()
            .map(|task| Mutex::new(Shard::Dealt(task)))
            .collect();
        let run = |w: usize| {
            for shard in shards.iter().skip(w).step_by(groups) {
                let dealt = std::mem::replace(&mut *lock(shard), Shard::Running);
                if let Shard::Dealt(task) = dealt {
                    let (out, timing) = timed(w, task);
                    *lock(shard) = Shard::Done(out, timing);
                }
            }
        };
        if groups > 1 {
            workers().fan_out(groups, &run);
        } else {
            run(0);
        }
        let (mut outs, mut timings) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (k, shard) in shards.into_iter().enumerate() {
            let Ok(Shard::Done(out, timing)) = shard.into_inner() else {
                unreachable!("a region returns once every task is done");
            };
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
