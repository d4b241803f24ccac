//! Cache-backed plan execution with cross-client in-flight dedupe and
//! per-point fault tolerance.
//!
//! A [`CachedExecutor`] owns the [`ResultStore`] plus an *in-flight
//! table*: when several clients submit overlapping plans concurrently,
//! the first claimant of a point becomes its **owner** and simulates
//! it; everyone else **waits** on the owner's [`Flight`] and receives a
//! clone of the result. Each physical point is therefore simulated at
//! most once per process lifetime — and at most once ever, once the
//! store holds it.
//!
//! [`CachedExecutor::run_plan`] streams [`PointOutcome`]s **in
//! expansion order** while misses execute concurrently on the bench
//! worker pool, exactly like `ExperimentPlan::run_with` does for
//! uncached runs.
//!
//! ## Failure semantics
//!
//! A long-running service degrades **per point**, never per process:
//!
//! * A simulator error does not panic the pool. The owner **poisons**
//!   its flight with the error; the first thread to observe the poison
//!   (a waiter, or the owner's own streaming loop) atomically **takes
//!   the flight over** — `Poisoned → Pending` under the lock, so
//!   exactly one thread re-runs the point — up to [`MAX_ATTEMPTS`]
//!   total executions. A flight that exhausts its attempts turns
//!   terminally `Failed`: every waiter receives the typed
//!   [`PointOutcome::Failed`], and the key leaves the in-flight table
//!   so a *later* submission may try again. Failed points are never
//!   cached.
//! * An owner that **panics** mid-simulation is caught by a drop guard
//!   that poisons the flight, so waiters take over instead of blocking
//!   forever on a flight nobody will fulfill.
//! * A store write error is logged and the result served **uncached**
//!   — a full disk must not fail a simulation that already succeeded.
//! * Locks recover from `std::sync` poisoning ([`crate::sync`]): every
//!   critical section here keeps its state consistent, so a panicking
//!   holder must not cascade into every other connection thread.

use crate::codec::{cache_key, CacheKey, Fingerprint};
use crate::fault::{FaultSite, Faults};
use crate::store::{ResultStore, StoreStats};
use crate::sync::{lock_recover, wait_recover};
use mot3d_bench::plan::{ExperimentPlan, RunPoint, RunRecord};
use mot3d_bench::pool;
use mot3d_phys::fnv::FnvHashMap;
use mot3d_sim::{run_spec, Metrics, SimError};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Executions of one point before its flight fails terminally (the
/// initial owner run plus takeover re-runs).
pub const MAX_ATTEMPTS: u32 = 3;

/// Where a [`Flight`] stands.
#[derive(Debug, Default)]
enum FlightState {
    /// Someone owns the simulation and is running it.
    #[default]
    Pending,
    /// The simulation finished; the metrics are ready to clone.
    /// (Boxed: `Metrics` dwarfs the other variants.)
    Done(Box<Metrics>),
    /// The last execution attempt failed (or its owner died). The
    /// first observer takes the flight over and re-runs the point.
    Poisoned {
        /// The last attempt's error.
        error: String,
        /// Executions so far.
        attempts: u32,
    },
    /// Terminally failed after [`MAX_ATTEMPTS`] executions.
    Failed(String),
}

/// A point being simulated right now; waiters block on the condvar.
#[derive(Debug, Default)]
struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

/// What [`Flight::wait_or_take`] observed.
enum Waited {
    /// The flight finished; here is its result.
    Done(Box<Metrics>),
    /// The flight failed terminally; the caller must
    /// [`CachedExecutor::abandon`] the key and emit a failed outcome.
    Failed(String),
    /// The flight was poisoned and *this* caller now owns it: re-run
    /// the point (this is execution attempt `attempts + 1`).
    TakeOver {
        /// Executions before this takeover.
        attempts: u32,
    },
}

impl Flight {
    fn fulfill(&self, metrics: Metrics) {
        *lock_recover(&self.state) = FlightState::Done(Box::new(metrics));
        self.ready.notify_all();
    }

    /// Records a failed execution attempt (`attempts` executions so
    /// far) and wakes everyone so one of them takes the flight over.
    fn poison(&self, error: String, attempts: u32) {
        *lock_recover(&self.state) = FlightState::Poisoned { error, attempts };
        self.ready.notify_all();
    }

    /// Blocks until the flight resolves — or *this* caller becomes the
    /// one that must resolve it. The `Poisoned → Pending` transition
    /// happens under the state lock, so exactly one observer of a
    /// poisoning re-runs the point.
    fn wait_or_take(&self) -> Waited {
        let mut state = lock_recover(&self.state);
        loop {
            match &*state {
                FlightState::Done(metrics) => return Waited::Done(metrics.clone()),
                FlightState::Failed(error) => return Waited::Failed(error.clone()),
                FlightState::Poisoned { error, attempts } => {
                    if *attempts >= MAX_ATTEMPTS {
                        let error = error.clone();
                        *state = FlightState::Failed(error.clone());
                        self.ready.notify_all();
                        return Waited::Failed(error);
                    }
                    let attempts = *attempts;
                    *state = FlightState::Pending;
                    return Waited::TakeOver { attempts };
                }
                FlightState::Pending => state = wait_recover(&self.ready, state),
            }
        }
    }
}

/// Poisons the flight if dropped while armed — the execution-attempt
/// panic net: if `run_spec` (or an injected fault path) panics, waiters
/// find `Poisoned` and take over instead of blocking forever.
struct PoisonOnDrop<'a> {
    flight: &'a Flight,
    attempts: u32,
    armed: bool,
}

impl Drop for PoisonOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flight
                .poison("point owner panicked".to_string(), self.attempts);
        }
    }
}

/// How one point of a submission was satisfied.
enum Slot {
    /// Served from the persistent store.
    Cached(Box<Metrics>),
    /// This submission owns the simulation.
    Own(Arc<Flight>),
    /// Another in-flight submission owns it; wait for its result.
    Wait(Arc<Flight>),
}

/// One point's result on the stream: a record, or a typed failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point simulated (or replayed from the cache) fine.
    /// (Boxed: a `RunRecord` dwarfs the failure variant.)
    Record(Box<RunRecord>),
    /// The point failed terminally after bounded attempts. It was not
    /// cached and does not abort the rest of the plan.
    Failed {
        /// The point's human-readable label.
        label: String,
        /// The last attempt's error.
        error: String,
    },
}

/// Per-submission outcome counters (the wire summary reports these
/// alongside the store's process-lifetime totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanOutcome {
    /// Points the plan expanded to.
    pub points: u64,
    /// Points served straight from the persistent store.
    pub hits: u64,
    /// Points deduped against another client's in-flight simulation.
    pub waited: u64,
    /// Execution attempts this submission made (initial owned runs plus
    /// takeover re-runs).
    pub executed: u64,
    /// Points that failed terminally (streamed as failure records).
    pub failed: u64,
}

/// The serving core: persistent store + in-flight dedupe + worker-pool
/// execution. One per server process, shared by connection threads.
#[derive(Debug)]
pub struct CachedExecutor {
    store: Mutex<ResultStore>,
    fingerprint: Fingerprint,
    inflight: Mutex<FnvHashMap<CacheKey, Arc<Flight>>>,
    threads: Option<usize>,
    executed_total: AtomicU64,
    faults: Faults,
}

impl CachedExecutor {
    /// An executor over `store` keyed under `fingerprint`.
    ///
    /// `threads` pins the worker count per submission (default: the
    /// pool's own resolution). Each worker simulates on its thread's one
    /// re-targetable cluster ([`mot3d_sim::ClusterPool`]), so a
    /// long-running server's memory does not grow with the
    /// configurations it has seen.
    pub fn new(store: ResultStore, fingerprint: Fingerprint, threads: Option<usize>) -> Self {
        CachedExecutor {
            store: Mutex::new(store),
            fingerprint,
            inflight: Mutex::new(FnvHashMap::default()),
            threads,
            executed_total: AtomicU64::new(0),
            faults: Faults::none(),
        }
    }

    /// Attaches a fault-injection plan ([`Faults::none`] by default).
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// The attached fault-injection plan (shared, cheaply cloneable).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Total execution attempts this process has made (cache hits and
    /// deduped waits don't count; failed attempts do).
    pub fn executed_total(&self) -> u64 {
        self.executed_total.load(Ordering::Relaxed)
    }

    /// The store's hit/miss/insert counters.
    pub fn store_stats(&self) -> StoreStats {
        lock_recover(&self.store).stats()
    }

    /// The result store's directory. Traced submissions write their
    /// per-point timeline files under `<store_dir>/traces/`.
    pub fn store_dir(&self) -> std::path::PathBuf {
        lock_recover(&self.store).dir().to_path_buf()
    }

    /// Flushes the store's buffered writers (graceful-shutdown drain).
    pub fn flush_store(&self) {
        if let Err(e) = lock_recover(&self.store).flush() {
            eprintln!("mot3d serve: store flush failed: {e}");
        }
    }

    /// The executor's fingerprint.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Claims every point of a submission: a store probe under the
    /// in-flight lock, so a point can never be double-owned and a
    /// just-finished flight is always found in the store.
    fn claim(&self, points: &[RunPoint], keys: &[CacheKey]) -> io::Result<Vec<Slot>> {
        let mut slots = Vec::with_capacity(points.len());
        for key in keys {
            let mut inflight = lock_recover(&self.inflight);
            if let Some(flight) = inflight.get(key) {
                slots.push(Slot::Wait(Arc::clone(flight)));
                continue;
            }
            let cached = lock_recover(&self.store).get(*key)?;
            match cached {
                Some(metrics) => slots.push(Slot::Cached(Box::new(metrics))),
                None => {
                    let flight = Arc::new(Flight::default());
                    inflight.insert(*key, Arc::clone(&flight));
                    slots.push(Slot::Own(flight));
                }
            }
        }
        Ok(slots)
    }

    /// One execution attempt (number `attempt`, counting from 1) of
    /// `point`, guarded so a panicking simulator poisons `flight`
    /// instead of stranding its waiters.
    fn attempt(&self, point: &RunPoint, flight: &Flight, attempt: u32) -> Result<Metrics, String> {
        self.executed_total.fetch_add(1, Ordering::Relaxed);
        let mut guard = PoisonOnDrop {
            flight,
            attempts: attempt,
            armed: true,
        };
        let result = if self.faults.should_fail(FaultSite::PointRun) {
            Err(SimError::Injected(format!("point run {}", point.label())))
        } else {
            run_spec(&point.spec, &point.config)
        };
        guard.armed = false;
        result.map_err(|e| format!("{}: {e}", point.label()))
    }

    /// Executes `plan` against the cache and streams every point's
    /// [`PointOutcome`] — in expansion order, as soon as it is
    /// available — to `on_outcome`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the plan fails its own `check`, a
    /// store *read* error during claiming, or the first `on_outcome`
    /// error (remaining simulations still complete and are cached). A
    /// failing **point** is not an error: it streams as
    /// [`PointOutcome::Failed`] and counts in [`PlanOutcome::failed`].
    pub fn run_plan(
        &self,
        plan: &ExperimentPlan,
        mut on_outcome: impl FnMut(&PointOutcome) -> io::Result<()>,
    ) -> io::Result<PlanOutcome> {
        if let Err(msg) = plan.check() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let points = plan.points();
        let keys: Vec<CacheKey> = points
            .iter()
            .map(|p| cache_key(&self.fingerprint, p))
            .collect();
        let slots = self.claim(&points, &keys)?;

        let mut outcome = PlanOutcome {
            points: points.len() as u64,
            ..PlanOutcome::default()
        };
        let mut owned: Vec<(usize, Arc<Flight>)> = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Cached(_) => outcome.hits += 1,
                Slot::Wait(_) => outcome.waited += 1,
                Slot::Own(flight) => {
                    outcome.executed += 1;
                    owned.push((i, Arc::clone(flight)));
                }
            }
        }

        let mut emit_err: Option<io::Error> = None;
        std::thread::scope(|scope| {
            if !owned.is_empty() {
                let threads = self
                    .threads
                    .unwrap_or_else(|| pool::worker_threads(owned.len()));
                let owned = &owned;
                let points = &points;
                let keys = &keys;
                scope.spawn(move || {
                    pool::parallel_map_streamed_on(
                        threads,
                        owned.len(),
                        |j| {
                            let (i, flight) = &owned[j];
                            match self.attempt(&points[*i], flight, 1) {
                                Ok(metrics) => {
                                    self.settle(keys[*i], &metrics);
                                    flight.fulfill(metrics);
                                }
                                Err(error) => flight.poison(error, 1),
                            }
                        },
                        |_, ()| {},
                    );
                });
            }
            // Stream in expansion order while the pool works: each slot
            // is either ready, will resolve under an owner (ours on the
            // pool above, or another client's), or — after a poisoning
            // — is taken over and re-run right here.
            for (i, slot) in slots.iter().enumerate() {
                let point_outcome = match slot {
                    Slot::Cached(metrics) => PointOutcome::Record(Box::new(RunRecord::new(
                        points[i].clone(),
                        (**metrics).clone(),
                    ))),
                    Slot::Own(flight) | Slot::Wait(flight) => loop {
                        match flight.wait_or_take() {
                            Waited::Done(metrics) => {
                                break PointOutcome::Record(Box::new(RunRecord::new(
                                    points[i].clone(),
                                    *metrics,
                                )));
                            }
                            Waited::Failed(error) => {
                                self.abandon(keys[i], flight);
                                outcome.failed += 1;
                                break PointOutcome::Failed {
                                    label: points[i].label(),
                                    error,
                                };
                            }
                            Waited::TakeOver { attempts } => {
                                outcome.executed += 1;
                                match self.attempt(&points[i], flight, attempts + 1) {
                                    Ok(metrics) => {
                                        self.settle(keys[i], &metrics);
                                        flight.fulfill(metrics);
                                    }
                                    Err(error) => flight.poison(error, attempts + 1),
                                }
                                // Loop: observe the state we just set
                                // (or whatever a racer set since).
                            }
                        }
                    },
                };
                if emit_err.is_some() {
                    continue; // keep draining so owned work still caches
                }
                if let Err(e) = on_outcome(&point_outcome) {
                    emit_err = Some(e);
                }
            }
        });
        if let Some(e) = emit_err {
            return Err(e);
        }
        Ok(outcome)
    }

    /// Publishes a finished simulation: store first, then drop the
    /// in-flight entry — both under the in-flight lock, so a concurrent
    /// [`CachedExecutor::claim`] sees either the flight or the stored
    /// result, never neither. A store write error is logged and the
    /// result served uncached — it must not fail a simulation that
    /// already succeeded.
    fn settle(&self, key: CacheKey, metrics: &Metrics) {
        let mut inflight = lock_recover(&self.inflight);
        if let Err(e) = lock_recover(&self.store).put(key, metrics) {
            eprintln!("mot3d serve: store write failed (result served uncached): {e}");
        }
        inflight.remove(&key);
    }

    /// Drops a terminally-failed flight from the in-flight table — iff
    /// the entry still maps to *this* flight — so a later submission
    /// may retry the point from scratch.
    fn abandon(&self, key: CacheKey, flight: &Arc<Flight>) {
        let mut inflight = lock_recover(&self.inflight);
        if inflight.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            inflight.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use mot3d_bench::ExperimentScale;
    use std::path::PathBuf;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mot3d-exec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::new("exec")
            .page_policies([false, true])
            .scale(ExperimentScale::tiny())
    }

    fn record_lines(exec: &CachedExecutor, plan: &ExperimentPlan) -> (PlanOutcome, Vec<String>) {
        let mut lines = Vec::new();
        let outcome = exec
            .run_plan(plan, |po| {
                lines.push(match po {
                    PointOutcome::Record(r) => mot3d_bench::sink::record_json_line(r),
                    PointOutcome::Failed { label, error } => format!("FAILED {label}: {error}"),
                });
                Ok(())
            })
            .unwrap();
        (outcome, lines)
    }

    #[test]
    fn second_submission_is_fully_cached_and_runs_nothing() {
        let dir = scratch_dir("rerun");
        let exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(2),
        );
        let plan = tiny_plan();
        let (cold, first) = record_lines(&exec, &plan);
        assert_eq!(cold.executed, cold.points);
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.failed, 0);
        let (warm, second) = record_lines(&exec, &plan);
        assert_eq!(warm.hits, warm.points, "hit counter equals point count");
        assert_eq!(warm.executed, 0, "zero simulations on the second pass");
        assert_eq!(first, second, "replay is byte-identical");
        assert_eq!(exec.executed_total(), cold.points);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_overlapping_plans_simulate_shared_points_once() {
        let dir = scratch_dir("overlap");
        let exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(2),
        );
        let plan = tiny_plan(); // both clients submit the same points
        let (a, b) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| record_lines(&exec, &plan));
            let hb = scope.spawn(|| record_lines(&exec, &plan));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a.1, b.1, "both clients see identical streams");
        assert_eq!(
            exec.executed_total(),
            a.0.points,
            "each shared point simulated exactly once across both clients"
        );
        assert_eq!(
            a.0.executed + b.0.executed + a.0.waited + b.0.waited + a.0.hits + b.0.hits,
            2 * a.0.points,
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn emit_errors_do_not_poison_the_cache() {
        let dir = scratch_dir("emit-err");
        let exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(1),
        );
        let plan = tiny_plan();
        let err = exec
            .run_plan(&plan, |_| Err(io::Error::other("client hung up")))
            .expect_err("emit error must surface");
        assert_eq!(err.to_string(), "client hung up");
        // The simulations still completed and were cached.
        let warm = exec.run_plan(&plan, |_| Ok(())).unwrap();
        assert_eq!(warm.hits, warm.points);
        assert_eq!(warm.executed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_plans_are_rejected_up_front() {
        let dir = scratch_dir("invalid");
        let exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(1),
        );
        let empty = ExperimentPlan::new("empty").splash([]);
        let err = exec.run_plan(&empty, |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(exec.executed_total(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_injected_point_failure_is_taken_over_and_recovered() {
        let dir = scratch_dir("takeover");
        let mut exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(1),
        );
        // The very first execution fails; the streaming loop takes the
        // poisoned flight over and the re-run succeeds.
        exec.set_faults(Faults::plan(FaultPlan::new().fail(FaultSite::PointRun, 0)));
        let plan = tiny_plan();
        let (out, lines) = record_lines(&exec, &plan);
        assert_eq!(out.failed, 0, "the takeover recovered the point");
        assert_eq!(
            out.executed,
            out.points + 1,
            "exactly one extra execution attempt"
        );
        assert_eq!(exec.executed_total(), out.points + 1);
        assert!(lines.iter().all(|l| !l.starts_with("FAILED")));
        // Everything (including the recovered point) was cached.
        let (warm, warm_lines) = record_lines(&exec, &plan);
        assert_eq!(warm.hits, warm.points);
        assert_eq!(lines, warm_lines, "recovered stream replays identically");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_attempts_fail_typed_and_stay_uncached() {
        let dir = scratch_dir("exhaust");
        let mut exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(1),
        );
        let plan = tiny_plan();
        let n = plan.len() as u64;
        // Fail every attempt the first submission can possibly make.
        let mut fault = FaultPlan::new();
        for i in 0..n * u64::from(MAX_ATTEMPTS) {
            fault = fault.fail(FaultSite::PointRun, i);
        }
        exec.set_faults(Faults::plan(fault));
        let (out, lines) = record_lines(&exec, &plan);
        assert_eq!(out.failed, out.points, "every point failed typed");
        assert_eq!(
            out.executed,
            n * u64::from(MAX_ATTEMPTS),
            "bounded attempts: exactly MAX_ATTEMPTS executions per point"
        );
        assert!(lines.iter().all(|l| l.starts_with("FAILED")));
        assert!(
            lines.iter().all(|l| l.contains("injected fault")),
            "{lines:?}"
        );
        // Nothing was cached, and the keys left the in-flight table:
        // a later submission retries from scratch and succeeds.
        let (retry, retry_lines) = record_lines(&exec, &plan);
        assert_eq!(retry.failed, 0);
        assert_eq!(retry.hits, 0, "failed points were never cached");
        assert_eq!(retry.executed, retry.points);
        assert!(retry_lines.iter().all(|l| !l.starts_with("FAILED")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_write_faults_serve_uncached_but_do_not_fail_the_plan() {
        let dir = scratch_dir("store-fault");
        let exec = CachedExecutor::new(
            ResultStore::open(&dir).unwrap(),
            Fingerprint::current(),
            Some(1),
        );
        let plan = tiny_plan();
        let n = plan.len() as u64;
        let mut fault = FaultPlan::new();
        for i in 0..n {
            fault = fault.fail(FaultSite::StoreWrite, i);
        }
        {
            let mut store = lock_recover(&exec.store);
            store.set_faults(Faults::plan(fault));
        }
        let (out, lines) = record_lines(&exec, &plan);
        assert_eq!(out.failed, 0, "store faults never fail the stream");
        assert_eq!(out.executed, out.points);
        assert_eq!(lock_recover(&exec.store).len(), 0, "nothing was cached");
        // The next submission re-executes (no cache) — byte-identically.
        let (again, lines2) = record_lines(&exec, &plan);
        assert_eq!(again.executed, again.points);
        assert_eq!(lines, lines2, "uncached replay is byte-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
