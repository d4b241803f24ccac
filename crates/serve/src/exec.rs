//! Cache-backed plan execution with cross-client in-flight dedupe and
//! per-point fault tolerance.
//!
//! A [`CachedExecutor`] owns the [`ResultStore`] plus an *in-flight
//! table*: when several clients submit overlapping plans concurrently,
//! the first claimant of a point becomes its **owner** and simulates
//! it; everyone else **waits** on the owner's `Flight` and receives a
//! clone of the result. Each physical point is therefore simulated at
//! most once per process lifetime — and at most once ever, once the
//! store holds it.
//!
//! [`CachedExecutor::run_plan`] streams [`PointOutcome`]s **in
//! expansion order** through the same driver as
//! `ExperimentPlan::run_with`, [`pool::stream_to`]. Claiming is an
//! index lookup per point, on the connection thread. Hits are ready
//! points and stay on the connection thread: the plan's leading hits go
//! out one by one as they are probed, and a later hit is read when its
//! turn to stream comes, so the first record never waits for the rest
//! of the plan's keys or reads. A hit's record line is the point's
//! head ([`record_json_head`]) followed by the tail bytes the store
//! holds for it ([`ResultStore`]'s line format): no metrics decode and
//! no float formatting. Flights other submissions own
//! are resolved at their turn on the connection thread. Owned misses are
//! the only worker points: on pool workers, or inline at their turn when
//! the submission has one worker (see the driver's doc for why inline
//! owners cannot deadlock each other). Right before the connection
//! thread can block on a simulation, [`CachedExecutor::run_plan`]
//! calls [`Outcomes::idle`], where the server flushes its socket
//! buffer.
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
//! * A store *read* error, or an emit error, fails the submission after
//!   the records before the bad point. Claiming does no I/O, so it
//!   cannot fail half-way and leave flights with no owner; after the
//!   error, every owned point still runs its first attempt before the
//!   submission returns. One whose first attempt failed stays
//!   `Poisoned`, and its next claimant takes it over.
//! * Locks recover from `std::sync` poisoning ([`crate::sync`]): every
//!   critical section here keeps its state consistent, so a panicking
//!   holder must not cascade into every other connection thread.

use crate::codec::{cache_key, CacheKey, Fingerprint};
use crate::fault::{FaultSite, Faults};
use crate::store::{ResultStore, StoreStats};
use crate::sync::{lock_recover, wait_recover};
use mot3d_bench::plan::{ExperimentPlan, RunPoint};
use mot3d_bench::pool::{self, Claim};
use mot3d_bench::sink::{record_json_head, record_json_tail};
use mot3d_phys::fnv::FnvHashMap;
use mot3d_sim::{run_spec, Metrics};
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

/// How one point of a submission is satisfied.
enum Slot {
    /// In the persistent store; read when its turn to stream comes.
    Cached,
    /// This submission owns the simulation.
    Own(Arc<Flight>),
    /// Another in-flight submission owns it; wait for its result.
    Wait(Arc<Flight>),
}

/// Capacity of a record line's buffer: the paper's record lines run
/// 450–500 bytes, so one allocation holds one.
const RECORD_LINE_BYTES: usize = 512;

/// One point's result on the stream: a record, or a typed failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point simulated (or replayed from the cache) fine: its
    /// record line, without the newline, byte for byte the line
    /// `mot3d_bench::sink::record_json_line` writes for it.
    Record(String),
    /// The point failed terminally after bounded attempts. It was not
    /// cached and does not abort the rest of the plan.
    Failed {
        /// The point's human-readable label.
        label: String,
        /// The last attempt's error.
        error: String,
    },
}

/// Where [`CachedExecutor::run_plan`] streams a submission. Every
/// `FnMut(&PointOutcome) -> io::Result<()>` closure is one, with an
/// idle hook that does nothing.
pub trait Outcomes {
    /// Receives the next point's outcome, in expansion order.
    ///
    /// # Errors
    ///
    /// An error fails the submission after the outcomes before it.
    fn outcome(&mut self, outcome: &PointOutcome) -> io::Result<()>;

    /// Called right before the submission may wait on a simulation
    /// (never between hits that stream back to back): the place to
    /// flush buffered output.
    ///
    /// # Errors
    ///
    /// An error fails the submission, as an [`Outcomes::outcome`] error
    /// does.
    fn idle(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<F: FnMut(&PointOutcome) -> io::Result<()>> Outcomes for F {
    fn outcome(&mut self, outcome: &PointOutcome) -> io::Result<()> {
        self(outcome)
    }
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

    /// Claims one point by index lookup only: the store probe runs
    /// under the in-flight lock, so a point can never be double-owned
    /// and a just-finished flight is always found in the store. A miss
    /// registers this submission as the point's owner. No store read
    /// happens here, so a claim cannot fail and strand the flights an
    /// earlier claim registered.
    fn claim(&self, key: CacheKey) -> Slot {
        let mut inflight = lock_recover(&self.inflight);
        if let Some(flight) = inflight.get(&key) {
            return Slot::Wait(Arc::clone(flight));
        }
        if lock_recover(&self.store).probe(key) {
            return Slot::Cached;
        }
        let flight = Arc::new(Flight::default());
        inflight.insert(key, Arc::clone(&flight));
        Slot::Own(flight)
    }

    /// A claimed hit's record line: `point`'s head, then the record
    /// tail the store holds, copied as stored (the store counts the hit
    /// here).
    fn read_hit(&self, point: &RunPoint, key: CacheKey) -> io::Result<PointOutcome> {
        let mut line = String::with_capacity(RECORD_LINE_BYTES);
        record_json_head(&mut line, point);
        lock_recover(&self.store).read_tail(key, &mut line)?;
        Ok(PointOutcome::Record(line))
    }

    /// Execution attempt number `attempt` (counting from 1) of `point`,
    /// published: a result is stored and fulfills `flight`, a failure
    /// poisons it. Guarded so a panicking simulator poisons `flight`
    /// instead of stranding its waiters.
    fn attempt(&self, point: &RunPoint, key: CacheKey, flight: &Flight, attempt: u32) {
        self.executed_total.fetch_add(1, Ordering::Relaxed);
        let mut guard = PoisonOnDrop {
            flight,
            attempts: attempt,
            armed: true,
        };
        let result = if self.faults.should_fail(FaultSite::PointRun) {
            Err(format!("injected fault: point run {}", point.label()))
        } else {
            run_spec(&point.spec, &point.config).map_err(|e| e.to_string())
        };
        guard.armed = false;
        match result {
            Ok(metrics) => {
                self.settle(key, &metrics);
                flight.fulfill(metrics);
            }
            Err(e) => flight.poison(format!("{}: {e}", point.label()), attempt),
        }
    }

    /// Executes `plan` against the cache and streams every point's
    /// [`PointOutcome`] — in expansion order, as soon as it is
    /// available — to `out`.
    ///
    /// The points go through [`pool::stream_to`]. A hit is a
    /// ready point: read and emitted as soon as its probe
    /// returns while every earlier point has been a hit, otherwise read
    /// at its turn. A point another submission is simulating is
    /// resolved at its turn, on this thread. A miss this submission
    /// owns is a worker point; a failed attempt is taken over and
    /// re-run at its turn, on this thread. The idle hook of `out` runs
    /// right before this thread can block: before an owned miss runs
    /// inline, before it waits for a worker's result, and before it
    /// waits on another submission's flight. It never runs while the
    /// plan's leading hits stream.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the plan fails its own `check`; a
    /// store *read* error, after the records before the bad point have
    /// streamed; or the first error of `out` (an `idle` error counts as
    /// an outcome error). An error among the leading hits returns at
    /// once (nothing later is claimed yet); after that, the owned
    /// simulations still run and are cached, and an owned point whose
    /// first attempt failed is left poisoned for its next claimant to
    /// take over. A failing **point** is not an error: it streams as
    /// [`PointOutcome::Failed`] and counts in [`PlanOutcome::failed`].
    pub fn run_plan(
        &self,
        plan: &ExperimentPlan,
        out: &mut impl Outcomes,
    ) -> io::Result<PlanOutcome> {
        if let Err(msg) = plan.check() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let points = plan.points();
        let threads = self
            .threads
            .unwrap_or_else(|| pool::worker_threads(points.len()));
        let mut resolving = Resolving {
            exec: self,
            outcome: PlanOutcome {
                points: points.len() as u64,
                ..PlanOutcome::default()
            },
            out,
        };
        pool::stream_to(
            threads,
            &points,
            |point| {
                let key = cache_key(&self.fingerprint, point);
                let slot = self.claim(key);
                let kind = match slot {
                    Slot::Cached => Claim::Ready,
                    Slot::Wait(_) => Claim::AtTurn,
                    Slot::Own(_) => Claim::Worker,
                };
                (kind, (key, slot))
            },
            |point, (key, slot)| {
                if let Slot::Own(flight) = slot {
                    self.attempt(point, *key, flight, 1);
                }
            },
            &mut resolving,
        )?;
        Ok(resolving.outcome)
    }

    /// Waits for `flight` to resolve, taking it over and re-running the
    /// point on this thread whenever it is poisoned.
    fn resolve(
        &self,
        point: &RunPoint,
        key: CacheKey,
        flight: &Arc<Flight>,
        outcome: &mut PlanOutcome,
    ) -> PointOutcome {
        loop {
            match flight.wait_or_take() {
                Waited::Done(metrics) => {
                    let mut line = String::with_capacity(RECORD_LINE_BYTES);
                    record_json_head(&mut line, point);
                    record_json_tail(&mut line, &metrics);
                    return PointOutcome::Record(line);
                }
                Waited::Failed(error) => {
                    self.abandon(key, flight);
                    outcome.failed += 1;
                    return PointOutcome::Failed {
                        label: point.label(),
                        error,
                    };
                }
                Waited::TakeOver { attempts } => {
                    outcome.executed += 1;
                    // Loop: observe the state this attempt set (or
                    // whatever a racer set since).
                    self.attempt(point, key, flight, attempts + 1);
                }
            }
        }
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

/// [`CachedExecutor::run_plan`]'s emitter: resolves each claimed
/// point at its turn, counts it, and hands its outcome to `out`.
struct Resolving<'a, O> {
    exec: &'a CachedExecutor,
    outcome: PlanOutcome,
    out: &'a mut O,
}

impl<O: Outcomes> pool::Emit<RunPoint, (CacheKey, Slot), ()> for Resolving<'_, O> {
    type Error = io::Error;

    fn emit(
        &mut self,
        point: &RunPoint,
        (key, slot): &(CacheKey, Slot),
        _: Option<()>,
    ) -> io::Result<()> {
        let (exec, outcome) = (self.exec, &mut self.outcome);
        let point_outcome = match slot {
            Slot::Cached => {
                outcome.hits += 1;
                exec.read_hit(point, *key)?
            }
            Slot::Own(flight) => {
                outcome.executed += 1;
                exec.resolve(point, *key, flight, outcome)
            }
            Slot::Wait(flight) => {
                outcome.waited += 1;
                exec.resolve(point, *key, flight, outcome)
            }
        };
        self.out.outcome(&point_outcome)
    }

    fn idle(&mut self) -> io::Result<()> {
        self.out.idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use mot3d_bench::ExperimentScale;
    use mot3d_workloads::SplashBenchmark::{self, Fft, OceanContiguous, Radix, Volrend};
    use std::io::{Seek, SeekFrom, Write};
    use std::path::{Path, PathBuf};
    use std::time::Duration;

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

    fn splash_plan(benches: &[SplashBenchmark]) -> ExperimentPlan {
        tiny_plan().splash(benches.iter().copied())
    }

    fn executor(dir: &Path) -> CachedExecutor {
        CachedExecutor::new(
            ResultStore::open(dir).unwrap(),
            Fingerprint::current(),
            Some(1),
        )
    }

    /// Overwrites the first byte of `point`'s stored line, so the open
    /// store's entry stays but every read of it fails to parse.
    fn corrupt(dir: &Path, point: &RunPoint) {
        let path = dir.join("results.jsonl");
        let data = std::fs::read_to_string(&path).unwrap();
        let needle = format!(
            "\"key\": \"{}\"",
            cache_key(&Fingerprint::current(), point).to_hex()
        );
        let at = data.find(&needle).expect("point is stored");
        let start = data[..at].rfind('\n').map_or(0, |nl| nl + 1);
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(start as u64)).unwrap();
        file.write_all(b"x").unwrap();
    }

    /// Flips the last digit of `"cycles"` in the record tail of
    /// `point`'s stored line: the line still parses, and its checksum no
    /// longer matches.
    fn flip_tail_digit(dir: &Path, point: &RunPoint) {
        let path = dir.join("results.jsonl");
        let mut data = std::fs::read(&path).unwrap();
        let text = String::from_utf8(data.clone()).unwrap();
        let needle = format!(
            "\"key\": \"{}\"",
            cache_key(&Fingerprint::current(), point).to_hex()
        );
        let line = text.find(&needle).expect("point is stored");
        let tail = line + text[line..].find("\"record\": {").unwrap();
        let digits = tail + text[tail..].find("\"cycles\": ").unwrap() + "\"cycles\": ".len();
        let last = digits + text[digits..].find(',').unwrap() - 1;
        data[last] = b'0' + (data[last] - b'0' + 1) % 10;
        std::fs::write(&path, data).unwrap();
    }

    fn record_lines(exec: &CachedExecutor, plan: &ExperimentPlan) -> (PlanOutcome, Vec<String>) {
        let mut lines = Vec::new();
        let outcome = exec
            .run_plan(plan, &mut |po: &PointOutcome| {
                lines.push(match po {
                    PointOutcome::Record(line) => line.clone(),
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
            .run_plan(&plan, &mut |_: &PointOutcome| {
                Err(io::Error::other("client hung up"))
            })
            .expect_err("emit error must surface");
        assert_eq!(err.to_string(), "client hung up");
        // The simulations still completed and were cached.
        let warm = exec
            .run_plan(&plan, &mut |_: &PointOutcome| Ok(()))
            .unwrap();
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
        let err = exec
            .run_plan(&empty, &mut |_: &PointOutcome| Ok(()))
            .unwrap_err();
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

    /// Each warm record goes out right after its own read: inside the
    /// `k`-th `on_outcome` call the store has counted exactly `k` hits.
    #[test]
    fn a_warm_plan_streams_each_hit_before_reading_the_next() {
        let dir = scratch_dir("stream-warm");
        let exec = executor(&dir);
        let plan = tiny_plan();
        record_lines(&exec, &plan);
        let mut seen = Vec::new();
        exec.run_plan(&plan, &mut |_: &PointOutcome| {
            seen.push(exec.store_stats().hits);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (1..=plan.len() as u64).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Hits, then misses, then hits: the stream keeps expansion order
    /// and equals the offline run's bytes.
    #[test]
    fn a_mixed_plan_streams_in_expansion_order_like_the_offline_run() {
        let dir = scratch_dir("stream-mixed");
        let exec = executor(&dir);
        record_lines(&exec, &splash_plan(&[Fft, Radix]));
        let plan = splash_plan(&[Fft, OceanContiguous, Radix]);
        let (out, lines) = record_lines(&exec, &plan);
        assert_eq!((out.hits, out.executed), (4, 2));
        let offline: Vec<String> = plan
            .run()
            .unwrap()
            .iter()
            .map(mot3d_bench::sink::record_json_line)
            .collect();
        assert_eq!(lines, offline);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The store counts one miss per probed-absent point and one hit
    /// per read, exactly as a full `get` per point did: cold, warm and
    /// mixed submissions leave the same counters (and so the same
    /// summary line) as before hits were read lazily.
    #[test]
    fn store_stats_count_a_miss_per_probe_and_a_hit_per_read() {
        let dir = scratch_dir("stats");
        let exec = executor(&dir);
        let stats = |hits, misses, inserts| StoreStats {
            hits,
            misses,
            inserts,
        };
        let pair = splash_plan(&[Fft, Radix]);
        record_lines(&exec, &pair);
        assert_eq!(exec.store_stats(), stats(0, 4, 4), "cold");
        record_lines(&exec, &pair);
        assert_eq!(exec.store_stats(), stats(4, 4, 4), "warm");
        record_lines(&exec, &splash_plan(&[Fft, OceanContiguous, Radix]));
        assert_eq!(exec.store_stats(), stats(8, 6, 6), "mixed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_read_error_among_the_leading_hits_stops_after_the_records_before_it() {
        let dir = scratch_dir("read-err");
        let exec = executor(&dir);
        let plan = tiny_plan();
        record_lines(&exec, &plan);
        corrupt(&dir, &plan.points()[5]);
        let mut records = 0;
        let err = exec
            .run_plan(&plan, &mut |_: &PointOutcome| {
                records += 1;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(records, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A digit changed in a stored record tail after the store opened
    /// fails that hit's read, as any damage after open does: the stream
    /// stops after the records before it and never carries the changed
    /// digit.
    #[test]
    fn a_digit_flipped_in_a_stored_tail_after_open_fails_the_read() {
        let dir = scratch_dir("flip");
        let exec = executor(&dir);
        let plan = tiny_plan();
        let (_, cold) = record_lines(&exec, &plan);
        flip_tail_digit(&dir, &plan.points()[3]);
        let mut lines = Vec::new();
        let err = exec
            .run_plan(&plan, &mut |po: &PointOutcome| {
                if let PointOutcome::Record(line) = po {
                    lines.push(line.clone());
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(lines, cold[..3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `[miss, miss, corrupt hit]`: the submission fails on the hit's
    /// read, but the two misses it owns still settle, so a later
    /// submission of them is served instead of waiting on flights with
    /// no owner.
    #[test]
    fn a_failed_hit_read_leaves_no_orphaned_flights() {
        let dir = scratch_dir("orphan");
        let exec = Arc::new(executor(&dir));
        let last = splash_plan(&[Volrend]).page_policies([false]);
        record_lines(&exec, &last);
        corrupt(&dir, &last.points()[0]);
        let mut records = 0;
        let err = exec
            .run_plan(
                &splash_plan(&[Fft, Radix, Volrend]).page_policies([false]),
                &mut |_: &PointOutcome| {
                    records += 1;
                    Ok(())
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let (tx, rx) = std::sync::mpsc::channel();
        let resubmit = Arc::clone(&exec);
        // A thread, not a scope: a hang must fail the test, not block it.
        let handle = std::thread::spawn(move || {
            let misses = splash_plan(&[Fft, Radix]).page_policies([false]);
            let _ = tx.send(
                resubmit
                    .run_plan(&misses, &mut |_: &PointOutcome| Ok(()))
                    .map(|o| o.hits),
            );
        });
        let hits = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("resubmission blocked on an orphaned flight")
            .unwrap();
        handle.join().unwrap();
        assert_eq!(hits, 2);
        assert_eq!(records, 2, "the two misses streamed before the bad read");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `[fft, radix]` on one worker, so both run inline: the client
    /// hangs up on fft's record, then radix's first attempt (the
    /// submission's second execution) fails. Emission has stopped, so
    /// nothing takes radix over and its flight stays poisoned; a
    /// resubmission claims it, takes it over and completes instead of
    /// waiting forever.
    #[test]
    fn an_emit_error_leaves_a_failed_flight_for_the_next_claimant() {
        let dir = scratch_dir("emit-poison");
        let mut exec = executor(&dir);
        exec.set_faults(Faults::plan(FaultPlan::new().fail(FaultSite::PointRun, 1)));
        let exec = Arc::new(exec);
        let plan = splash_plan(&[Fft, Radix]).page_policies([false]);
        let err = exec
            .run_plan(&plan, &mut |_: &PointOutcome| {
                Err(io::Error::other("client hung up"))
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "client hung up");
        assert_eq!(
            exec.executed_total(),
            2,
            "radix ran, and was not taken over"
        );

        let (tx, rx) = std::sync::mpsc::channel();
        let resubmit = Arc::clone(&exec);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(resubmit.run_plan(&plan, &mut |_: &PointOutcome| Ok(())));
        });
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("resubmission blocked on a poisoned flight")
            .unwrap();
        handle.join().unwrap();
        assert_eq!((out.hits, out.waited, out.executed), (1, 1, 1));
        assert_eq!(out.failed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
