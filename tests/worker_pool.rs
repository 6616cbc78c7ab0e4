//! The persistent worker pool under load: back-to-back regions, panics,
//! concurrent callers and nested regions.
//!
//! `WorkerPool::run_tasks` deals task `k` of a region of `g` groups to
//! worker `k % g`; worker 0 is the calling thread and worker `w` the same
//! long-lived OS thread in every region. These tests pin that dealing, the
//! order results come back in, what a panic leaves behind, and the two
//! structural rules that keep it deterministic: one region at a time (a
//! second caller waits), and a region entered from inside a task runs
//! inline.

use std::thread::{self, ThreadId};

use scratchpipe::{ScratchError, WorkerPool};

const WIDTHS: [usize; 3] = [2, 4, 7];

#[test]
fn ten_thousand_back_to_back_regions_come_back_as_dealt() {
    for width in WIDTHS {
        let pool = WorkerPool::new(width);
        let tasks = 3 * width + 1;
        // The OS thread behind each worker id, from the first region on.
        let mut threads: Vec<Option<ThreadId>> = vec![None; width];
        for region in 0..10_000usize {
            let batch: Vec<_> = (0..tasks)
                .map(|k| move || (region * tasks + k, thread::current().id()))
                .collect();
            let (outs, timings) = pool.run_tasks(batch).expect("no task panics");
            assert_eq!(outs.len(), tasks);
            assert_eq!(timings.len(), tasks);
            for (k, ((value, thread), timing)) in outs.into_iter().zip(timings).enumerate() {
                assert_eq!(value, region * tasks + k, "width {width}, region {region}");
                let worker = k % width;
                assert_eq!(
                    usize::from(timing.worker),
                    worker,
                    "task {k} of width {width}"
                );
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
        assert_eq!(distinct.len(), width, "one OS thread per worker");
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
        let workers: Vec<usize> = timings.iter().map(|t| usize::from(t.worker)).collect();
        assert_eq!(
            workers,
            (0..2 * width).map(|k| k % width).collect::<Vec<_>>()
        );
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
                    for region in 0..2_000 {
                        let tasks: Vec<_> = (0..9).map(|k| move || base + region * 9 + k).collect();
                        let (outs, timings) = pool.run_tasks(tasks).expect("no task panics");
                        let expected: Vec<_> = (0..9).map(|k| base + region * 9 + k).collect();
                        assert_eq!(outs, expected);
                        let workers: Vec<_> = timings.iter().map(|t| t.worker).collect();
                        assert_eq!(workers, [0, 1, 2, 3, 0, 1, 2, 3, 0]);
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
