//! A minimal scoped-thread work-sharing pool for the experiment sweeps.
//!
//! The sweeps behind Fig. 6–8 are grids of completely independent
//! (interconnect × power state × workload) simulations — embarrassingly
//! parallel. This module shards such a grid across worker threads with a
//! shared atomic job counter (work stealing by construction: fast workers
//! simply take more cells), collects results in deterministic index
//! order, and streams per-job completions to an observer as they finish.
//!
//! Each worker thread keeps its own thread-local
//! [`mot3d_sim::runner::ClusterPool`] (via [`mot3d_sim::run_spec`]): one
//! cluster, re-targeted from cell to cell instead of rebuilt.
//!
//! The caller names the worker count ([`parallel_map_streamed_on`]);
//! [`worker_threads`] is the default it resolves to when none was asked
//! for. Results are bit-identical for every thread count, including 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The default worker-thread count for `jobs` independent jobs: the
/// machine's available parallelism, never more than the number of jobs.
pub fn worker_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.max(1))
}

/// Runs `jobs` independent jobs `f(0..jobs)` on `threads` scoped worker
/// threads (clamped to at least 1 and at most `jobs`) and returns the
/// results in index order — bit-identical to `(0..jobs).map(f).collect()`
/// for deterministic `f`. `on_done(index, &result)` is called as each
/// job completes (in completion order, possibly concurrently from
/// several workers): the streaming hook behind progress reporting and
/// in-order record emission.
///
/// # Panics
///
/// Propagates a panic from any job once all workers have stopped.
pub fn parallel_map_streamed_on<T, F, C>(threads: usize, jobs: usize, f: F, on_done: C) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: Fn(usize, &T) + Sync,
{
    let threads = threads.clamp(1, jobs.max(1));
    if threads <= 1 || jobs <= 1 {
        return (0..jobs)
            .map(|i| {
                let r = f(i);
                on_done(i, &r);
                r
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let r = f(i);
                on_done(i, &r);
                // Recover a poisoned slot vector: a panicking sibling
                // job never leaves a slot half-written (the assignment
                // below is the only mutation), and a long-running
                // caller wants the surviving jobs' results, not a
                // second panic.
                slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every job filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = parallel_map_streamed_on(4, 64, |i| i * i, |_, _| {});
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_zero_and_one_job() {
        let run = |jobs| parallel_map_streamed_on(4, jobs, |i| i + 10, |_, _| {});
        assert_eq!(run(0), Vec::<usize>::new());
        assert_eq!(run(1), vec![10]);
    }

    #[test]
    fn streams_every_completion_exactly_once() {
        let seen = Mutex::new(vec![0u32; 32]);
        let out = parallel_map_streamed_on(
            4,
            32,
            |i| i,
            |i, r| {
                assert_eq!(i, *r);
                seen.lock().unwrap()[i] += 1;
            },
        );
        assert_eq!(out.len(), 32);
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn worker_threads_never_exceeds_jobs() {
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(1000) >= 1);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let want: Vec<usize> = (0..48).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 7, 48, 500] {
            let got = parallel_map_streamed_on(threads, 48, |i| i * 3 + 1, |_, _| {});
            assert_eq!(got, want, "threads = {threads}");
        }
    }
}
