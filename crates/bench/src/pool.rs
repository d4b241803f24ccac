//! The one plan driver: claim every point, fan the worker points out to
//! scoped threads, and emit every point in expansion order on the
//! calling thread.
//!
//! The sweeps behind Fig. 6–8 are grids of completely independent
//! (interconnect × power state × workload) simulations. Offline plans
//! ([`crate::plan::ExperimentPlan::run_with`]) and served submissions
//! (the serve crate's `CachedExecutor::run_plan`) both run them
//! through [`stream_to`]. Each point is claimed as one of three kinds:
//!
//! * [`Claim::Ready`]: emitted at once during the claim walk while every
//!   earlier point has been emitted, otherwise at its turn (a served
//!   store hit);
//! * [`Claim::AtTurn`]: resolved by `emit` at its turn on the calling
//!   thread (a point another submission is simulating);
//! * [`Claim::Worker`]: run by `work` on a worker thread, its result
//!   handed to `emit` at its turn (every offline point, a served miss).
//!
//! Workers share an atomic job counter (fast workers simply take more
//! points) and send results over one channel; records therefore reach
//! sinks on the calling thread only. With one worker (or one worker
//! point) nothing is spawned: worker points run inline at their turn,
//! so the calling thread's warm [`mot3d_sim::runner::ClusterPool`]
//! cluster is reused across plans.
//!
//! Right before the calling thread can block, the driver calls the
//! emitter's [`Emit::idle`] hook, where a caller flushes buffered
//! output: before it runs a worker point inline, before it waits on the
//! channel for a worker point's result that has not arrived, and before
//! it emits an at-turn point. It never calls the hook during the
//! leading run of ready points, so a plan of hits goes out in whole
//! buffers, while a record that waits on a simulation leaves before the
//! wait.
//!
//! After the first `emit` or `idle` error the driver emits nothing more
//! and calls no hook: it skips ready and at-turn points but still runs
//! every worker point it claimed, so no work a caller registered is
//! left unfinished.
//!
//! [`worker_threads`] is the default worker count when none was asked
//! for. Results are bit-identical for every thread count, including 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The default worker-thread count for `jobs` independent jobs: the
/// machine's available parallelism, never more than the number of jobs.
pub fn worker_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.max(1))
}

/// Where [`stream_to`] resolves a claimed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Emitted during the claim walk while every earlier point has
    /// been emitted, otherwise at its turn.
    Ready,
    /// Emitted at its turn; `emit` resolves it on the calling thread.
    AtTurn,
    /// Run by `work` on a worker; `emit` receives the result at its turn.
    Worker,
}

/// What [`stream_to`] hands each claimed point to, on the calling
/// thread. Every `FnMut(&P, &S, Option<R>) -> Result<(), E>` closure is
/// one, with a hook that does nothing.
pub trait Emit<P, S, R> {
    /// The error that stops emission.
    type Error;

    /// Receives `point` at its turn: `result` is `Some(work(point,
    /// state))` for a worker point and `None` otherwise.
    ///
    /// # Errors
    ///
    /// An error stops emission (see [`stream_to`]).
    fn emit(&mut self, point: &P, state: &S, result: Option<R>) -> Result<(), Self::Error>;

    /// Called right before the driver can block (see the module doc):
    /// the place to flush what was emitted so far.
    ///
    /// # Errors
    ///
    /// An error stops emission, as an [`Emit::emit`] error does.
    fn idle(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl<P, S, R, E, F> Emit<P, S, R> for F
where
    F: FnMut(&P, &S, Option<R>) -> Result<(), E>,
{
    type Error = E;

    fn emit(&mut self, point: &P, state: &S, result: Option<R>) -> Result<(), E> {
        self(point, state, result)
    }
}

/// Drives `points` in expansion order. On the calling thread, `claim`
/// first classifies every point and returns its state; leading
/// [`Claim::Ready`] points are emitted as they are claimed. Then every
/// remaining point is emitted in order: `out.emit(point, state,
/// result)` gets `Some(work(point, state))` for a worker point and
/// `None` otherwise, and `out.idle()` runs before each wait. Worker
/// points run on `threads` scoped threads (clamped to the number of
/// worker points), or inline at their turn when that is one.
///
/// Inline execution cannot deadlock two callers whose `emit` waits on
/// each other's worker points (as served submissions wait on flights
/// other submissions own). Each caller claims every point before it
/// walks, and a caller blocked at point `q` has claimed `q` before any
/// worker point it has yet to run. A caller that waits on a point
/// another caller owns claimed it after that owner did. So around a
/// wait cycle the claim times of the blocking points would strictly
/// decrease, which is impossible.
///
/// # Errors
///
/// Returns the first `emit` or `idle` error. An error during the claim
/// walk returns at once (only ready points have been claimed). After a
/// later one, ready and at-turn points are skipped, no hook runs, and
/// every worker point still runs before the driver returns.
///
/// # Panics
///
/// Propagates a panic from `work` once every worker has stopped.
pub fn stream_to<P, S, R, O>(
    threads: usize,
    points: &[P],
    mut claim: impl FnMut(&P) -> (Claim, S),
    work: impl Fn(&P, &S) -> R + Sync,
    out: &mut O,
) -> Result<(), O::Error>
where
    P: Sync,
    S: Sync,
    R: Send,
    O: Emit<P, S, R>,
{
    let mut claimed: Vec<(&P, Claim, S)> = Vec::new();
    let mut jobs = Vec::new();
    for point in points {
        let (kind, state) = claim(point);
        if kind == Claim::Ready && claimed.is_empty() {
            out.emit(point, &state, None)?;
            continue;
        }
        if kind == Claim::Worker {
            jobs.push(claimed.len());
        }
        claimed.push((point, kind, state));
    }
    let mut err = None;
    // `None` is the idle hook; every call stops at the first error.
    let mut in_turn = |turn: Option<(&P, &S, Option<R>)>| {
        if err.is_none() {
            err = match turn {
                Some((point, state, result)) => out.emit(point, state, result),
                None => out.idle(),
            }
            .err();
        }
    };
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads == 1 {
        for (point, kind, state) in &claimed {
            if *kind != Claim::Ready {
                in_turn(None);
            }
            let result = (*kind == Claim::Worker).then(|| work(point, state));
            in_turn(Some((point, state, result)));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (next, jobs, claimed, work) = (&next, &jobs, &claimed, &work);
                scope.spawn(move || {
                    while let Some(&k) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (point, _, state) = &claimed[k];
                        // The receiver is gone only if `emit` panicked.
                        let _ = tx.send((k, work(point, state)));
                    }
                });
            }
            drop(tx);
            let mut done: Vec<Option<R>> = claimed.iter().map(|_| None).collect();
            for (k, (point, kind, state)) in claimed.iter().enumerate() {
                if *kind == Claim::AtTurn {
                    in_turn(None);
                }
                while *kind == Claim::Worker && done[k].is_none() {
                    let got = rx.try_recv().or_else(|_| {
                        in_turn(None);
                        rx.recv()
                    });
                    // Every sender gone with a result missing: a job
                    // panicked, and the scope re-raises it.
                    let Ok((j, result)) = got else { return };
                    done[j] = Some(result);
                }
                in_turn(Some((point, state, done[k].take())));
            }
        });
    }
    err.map_or(Ok(()), Err)
}

/// Runs `jobs` independent jobs `f(0..jobs)` on `threads` workers
/// through [`stream_to`] (every job a worker point) and returns
/// the results in index order — bit-identical to
/// `(0..jobs).map(f).collect()` for deterministic `f`. `on_done(index,
/// &result)` is called on the worker as each job completes (in
/// completion order, possibly concurrently).
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
    let indices: Vec<usize> = (0..jobs).collect();
    let mut out = Vec::with_capacity(jobs);
    let work = |&i: &usize, _: &()| {
        let r = f(i);
        on_done(i, &r);
        r
    };
    let collected: Result<(), std::convert::Infallible> = stream_to(
        threads,
        &indices,
        |_| (Claim::Worker, ()),
        work,
        &mut |_: &usize, _: &(), r| {
            out.extend(r);
            Ok(())
        },
    );
    let Ok(()) = collected;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

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

    /// Point `i`'s kind in the mixed tests: ready, at-turn and worker
    /// points interleaved, with three leading ready points.
    fn kind_of(i: usize) -> Claim {
        match i {
            0..=2 => Claim::Ready,
            _ => [Claim::Worker, Claim::Ready, Claim::AtTurn][i % 3],
        }
    }

    #[test]
    fn leading_ready_points_go_out_before_any_worker_starts() {
        let points: Vec<usize> = (0..12).collect();
        let log = Mutex::new(Vec::new());
        let result: Result<(), ()> = stream_to(
            2,
            &points,
            |&i| (kind_of(i), ()),
            |&i, _| log.lock().unwrap().push(format!("work {i}")),
            &mut |&i: &usize, _: &(), _| {
                log.lock().unwrap().push(format!("emit {i}"));
                Ok(())
            },
        );
        result.unwrap();
        let log = log.into_inner().unwrap();
        assert_eq!(log[..3], ["emit 0", "emit 1", "emit 2"]);
        assert!(log[3].starts_with("work"), "{log:?}");
    }

    #[test]
    fn mixed_points_come_out_in_order_at_any_thread_count() {
        let points: Vec<usize> = (0..40).collect();
        for threads in [1, 2, 7] {
            let mut emitted = Vec::new();
            let result: Result<(), ()> = stream_to(
                threads,
                &points,
                |&i| (kind_of(i), i * 10),
                |&i, &state| {
                    assert_eq!(state, i * 10, "work gets the claimed state");
                    i + 1000
                },
                &mut |&i: &usize, &state: &usize, result| {
                    assert_eq!(state, i * 10);
                    let want = (kind_of(i) == Claim::Worker).then_some(i + 1000);
                    assert_eq!(result, want, "point {i}");
                    emitted.push(i);
                    Ok(())
                },
            );
            result.unwrap();
            assert_eq!(emitted, points, "threads = {threads}");
        }
    }

    #[test]
    fn an_emit_error_stops_emission_but_every_worker_still_runs() {
        let points: Vec<usize> = (0..30).collect();
        for threads in [1, 3] {
            let ran = AtomicUsize::new(0);
            let mut emitted = Vec::new();
            let result = stream_to(
                threads,
                &points,
                |&i| (if i == 5 { Claim::AtTurn } else { Claim::Worker }, ()),
                |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
                &mut |&i: &usize, _: &(), _| {
                    emitted.push(i);
                    if i == 7 {
                        Err("sink full")
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(result, Err("sink full"));
            assert_eq!(emitted, (0..=7).collect::<Vec<_>>(), "threads = {threads}");
            assert_eq!(ran.into_inner(), 29, "every worker point ran");
        }
    }

    #[test]
    fn a_panicking_job_propagates_instead_of_hanging() {
        let points: Vec<usize> = (0..16).collect();
        let outcome = std::panic::catch_unwind(|| {
            stream_to(
                3,
                &points,
                |_| (Claim::Worker, ()),
                |&i, _| assert_ne!(i, 4, "job 4 panics"),
                &mut |_: &usize, _: &(), _| Ok::<(), ()>(()),
            )
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn one_worker_runs_worker_points_on_the_calling_thread() {
        let points: Vec<usize> = (0..6).collect();
        let caller = std::thread::current().id();
        let result: Result<(), ()> = stream_to(
            1,
            &points,
            |_| (Claim::Worker, ()),
            |_, _| assert_eq!(std::thread::current().id(), caller),
            &mut |_: &usize, _: &(), _| Ok(()),
        );
        result.unwrap();
        let elsewhere = parallel_map_streamed_on(2, 4, |_| std::thread::current().id(), |_, _| {});
        assert!(elsewhere.iter().all(|&t| t != caller));
    }

    /// The turns (the next point to emit) at which the hook ran, shared
    /// with `work`.
    #[derive(Default)]
    struct Turns {
        at: Mutex<Vec<usize>>,
        changed: Condvar,
    }

    impl Turns {
        /// Blocks until the hook has run at turn `i`; a driver that
        /// waits for point `i`'s result without calling the hook first
        /// never gets there, and the bounded wait fails the test.
        fn wait_for(&self, i: usize) {
            let at = self.at.lock().unwrap();
            let waited = self
                .changed
                .wait_timeout_while(at, Duration::from_secs(20), |at| !at.contains(&i))
                .unwrap();
            assert!(
                !waited.1.timed_out(),
                "no hook before waiting for point {i}"
            );
        }
    }

    /// An emitter that logs every call; with `failing`, every idle call
    /// fails.
    struct Logged<'a> {
        turns: &'a Turns,
        log: Vec<String>,
        next: usize,
        failing: bool,
    }

    impl<'a> Logged<'a> {
        fn new(turns: &'a Turns) -> Self {
            Logged {
                turns,
                log: Vec::new(),
                next: 0,
                failing: false,
            }
        }

        fn idles(&self) -> usize {
            self.log.iter().filter(|l| *l == "idle").count()
        }
    }

    impl Emit<usize, (), ()> for Logged<'_> {
        type Error = &'static str;

        fn emit(&mut self, &i: &usize, (): &(), _: Option<()>) -> Result<(), Self::Error> {
            assert_eq!(i, self.next, "emitted in order");
            self.log.push(format!("emit {i}"));
            self.next += 1;
            Ok(())
        }

        fn idle(&mut self) -> Result<(), Self::Error> {
            self.log.push("idle".to_string());
            self.turns.at.lock().unwrap().push(self.next);
            self.turns.changed.notify_all();
            if self.failing {
                return Err("flush failed");
            }
            Ok(())
        }
    }

    #[test]
    fn an_all_ready_plan_never_calls_the_hook() {
        let points: Vec<usize> = (0..20).collect();
        for threads in [1, 2, 7] {
            let turns = Turns::default();
            let mut out = Logged::new(&turns);
            stream_to(
                threads,
                &points,
                |_| (Claim::Ready, ()),
                |_, _| {},
                &mut out,
            )
            .unwrap();
            assert_eq!(out.idles(), 0, "threads = {threads}");
            assert_eq!(out.next, 20);
        }
    }

    #[test]
    fn the_hook_runs_before_every_wait_and_never_for_leading_ready_points() {
        let points: Vec<usize> = (0..30).collect();
        for threads in [1, 2, 7] {
            let turns = Turns::default();
            let mut out = Logged::new(&turns);
            stream_to(
                threads,
                &points,
                |&i| (kind_of(i), ()),
                |&i, _| turns.wait_for(i),
                &mut out,
            )
            .unwrap();
            let log = &out.log;
            assert_eq!(
                log[..3],
                ["emit 0", "emit 1", "emit 2"],
                "threads = {threads}"
            );
            for i in (3..30).filter(|&i| kind_of(i) != Claim::Ready) {
                let at = log.iter().position(|l| *l == format!("emit {i}")).unwrap();
                if kind_of(i) == Claim::AtTurn || threads == 1 {
                    assert_eq!(log[at - 1], "idle", "point {i}, threads = {threads}");
                }
            }
            if threads == 1 {
                // Inline: exactly one hook per at-turn or worker point.
                assert_eq!(
                    out.idles(),
                    (3..30).filter(|&i| kind_of(i) != Claim::Ready).count()
                );
            }
        }
    }

    /// Point 3, the first worker point, waits for the hook, so the
    /// first hook call comes at its turn; it fails, and no hook or emit
    /// follows.
    #[test]
    fn a_hook_error_stops_emission_but_every_worker_still_runs() {
        let points: Vec<usize> = (0..30).collect();
        let workers = points
            .iter()
            .filter(|&&i| kind_of(i) == Claim::Worker)
            .count();
        for threads in [1, 2, 7] {
            let turns = Turns::default();
            let ran = AtomicUsize::new(0);
            let mut out = Logged::new(&turns);
            out.failing = true;
            let result = stream_to(
                threads,
                &points,
                |&i| (kind_of(i), ()),
                |&i, _| {
                    if i == 3 {
                        turns.wait_for(i);
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                },
                &mut out,
            );
            assert_eq!(result, Err("flush failed"), "threads = {threads}");
            assert_eq!(out.log, ["emit 0", "emit 1", "emit 2", "idle"]);
            assert_eq!(ran.into_inner(), workers, "every worker point ran");
        }
    }
}
