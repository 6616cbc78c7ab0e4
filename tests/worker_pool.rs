//! The persistent worker pool under load: back-to-back regions, panics,
//! concurrent callers, nested regions and a stalled worker.
//!
//! `WorkerPool::run_tasks` hands a region's tasks out through one cursor:
//! the calling thread (worker 0) and the process's long-lived workers
//! `1..groups` each claim the next unclaimed task until none is left.
//! Which worker ran task `k` is therefore up to timing, and these tests
//! pin only what is not: every task runs exactly once, on a worker below
//! `groups`; worker 0 is the calling thread and worker `w` the same OS
//! thread in every region; results come back in task order; a panic is
//! reported by its lowest task index; a stalled worker holds up no task
//! but its own; one region runs at a time (a second caller waits); and a
//! region entered from inside a task runs inline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use scratchpipe::{ScratchError, ShardTiming, WorkerPool};

const WIDTHS: [usize; 3] = [2, 4, 7];

/// Asserts that every task of a region of `groups` groups ran on a worker
/// below `groups`.
fn on_workers_below(timings: &[ShardTiming], groups: usize) {
    for (k, t) in timings.iter().enumerate() {
        assert!(
            usize::from(t.worker) < groups,
            "task {k} ran on worker {} of {groups}",
            t.worker
        );
    }
}

#[test]
fn ten_thousand_back_to_back_regions_come_back_in_order() {
    for width in WIDTHS {
        let pool = WorkerPool::new(width);
        let tasks = 3 * width + 1;
        // The OS thread behind each worker id, from its first task on.
        let mut threads: Vec<Option<ThreadId>> = vec![None; width];
        for region in 0..10_000usize {
            let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            let batch: Vec<_> = (0..tasks)
                .map(|k| {
                    let runs = &runs;
                    move || {
                        runs[k].fetch_add(1, Ordering::Relaxed);
                        (region * tasks + k, thread::current().id())
                    }
                })
                .collect();
            let (outs, timings) = pool.run_tasks(batch).expect("no task panics");
            assert_eq!(outs.len(), tasks);
            assert_eq!(timings.len(), tasks);
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "width {width}, region {region}: every task runs exactly once"
            );
            on_workers_below(&timings, width);
            for (k, ((value, thread), timing)) in outs.into_iter().zip(timings).enumerate() {
                assert_eq!(value, region * tasks + k, "width {width}, region {region}");
                let worker = usize::from(timing.worker);
                let pinned = threads[worker].get_or_insert(thread);
                assert_eq!(
                    *pinned, thread,
                    "worker {worker} moved threads at region {region}"
                );
            }
        }
        assert_eq!(
            threads[0],
            Some(thread::current().id()),
            "worker 0 is the caller"
        );
        let distinct: std::collections::HashSet<_> = threads.iter().flatten().collect();
        assert_eq!(
            distinct.len(),
            threads.iter().flatten().count(),
            "one OS thread per worker"
        );
    }
}

#[test]
fn a_panic_is_reported_by_lowest_index_and_the_pool_serves_on() {
    for width in WIDTHS {
        let pool = WorkerPool::new(width);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..2 * width + 3)
            .map(|k| {
                Box::new(move || {
                    if k == 3 || k == width + 3 {
                        panic!("task {k} exploded");
                    }
                    k
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(
            pool.run_tasks(tasks).unwrap_err(),
            ScratchError::WorkerPanic {
                task: 3,
                detail: "task 3 exploded".to_owned(),
            },
            "width {width}"
        );
        let (outs, timings) = pool
            .run_tasks((0..2 * width).map(|k| move || k + 1).collect())
            .expect("the region after a panic");
        assert_eq!(outs, (1..=2 * width).collect::<Vec<_>>());
        on_workers_below(&timings, width);
    }
}

#[test]
fn two_callers_share_the_pool_and_each_gets_its_own_results() {
    let pool = WorkerPool::new(4);
    thread::scope(|scope| {
        let callers: Vec<_> = [1_000_000usize, 2_000_000]
            .into_iter()
            .map(|base| {
                scope.spawn(move || {
                    let caller = thread::current().id();
                    for region in 0..2_000 {
                        let tasks: Vec<_> = (0..9)
                            .map(|k| move || (base + region * 9 + k, thread::current().id()))
                            .collect();
                        let (outs, timings) = pool.run_tasks(tasks).expect("no task panics");
                        let expected: Vec<_> = (0..9).map(|k| base + region * 9 + k).collect();
                        assert_eq!(outs.iter().map(|&(v, _)| v).collect::<Vec<_>>(), expected);
                        on_workers_below(&timings, 4);
                        for ((_, thread), timing) in outs.iter().zip(&timings) {
                            assert_eq!(
                                timing.worker == 0,
                                *thread == caller,
                                "worker 0 is this region's caller"
                            );
                        }
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread");
        }
    });
}

#[test]
fn a_nested_region_runs_inline_and_returns() {
    for width in WIDTHS {
        let pool = WorkerPool::new(width);
        let tasks: Vec<_> = (0..width + 1)
            .map(|k| {
                move || {
                    let here = thread::current().id();
                    let inner: Vec<_> = (0..5)
                        .map(|j| move || (10 * k + j, thread::current().id()))
                        .collect();
                    let (outs, timings) = pool.run_tasks(inner).expect("inner region");
                    assert!(outs.iter().all(|&(_, thread)| thread == here), "ran inline");
                    assert!(timings.iter().all(|t| t.worker == 0));
                    outs.into_iter().map(|(v, _)| v).sum::<usize>()
                }
            })
            .collect();
        let (outs, _) = pool.run_tasks(tasks).expect("outer region");
        let expected: Vec<usize> = (0..width + 1).map(|k| 50 * k + 10).collect();
        assert_eq!(outs, expected, "width {width}");
    }
}

/// Task 0 of a two-wide region waits, yielding its CPU, until every other
/// task has finished: the other thread claims and runs them all. A pool
/// that gave the stalled thread a fixed share of the others would never
/// finish them; task 0 gives up after 5 s and panics, so that failure is
/// a `WorkerPanic`, not a hang.
#[test]
fn a_stalled_worker_holds_up_no_other_task() {
    const TASKS: usize = 8;
    let pool = WorkerPool::new(2);
    let finished = AtomicUsize::new(0);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..TASKS)
        .map(|k| {
            let finished = &finished;
            Box::new(move || {
                if k == 0 {
                    let start = Instant::now();
                    while finished.load(Ordering::Acquire) < TASKS - 1 {
                        assert!(
                            start.elapsed() < Duration::from_secs(5),
                            "tasks 1..{TASKS} waited on the stalled one"
                        );
                        thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::Release);
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let (_, timings) = pool.run_tasks(tasks).expect("no task waits on task 0");
    let stalled = timings[0].worker;
    assert!(
        timings[1..].iter().all(|t| t.worker != stalled),
        "the other thread ran every other task"
    );
}
