//! Differential equivalence: [`TimingWheel`] vs the `BinaryHeap` it
//! replaced.
//!
//! The simulator crates swapped their `BinaryHeap<Reverse<(time, seq,
//! item)>>` event queues for `mot3d_phys::wheel::TimingWheel` on the
//! promise that pop order — and therefore every metric — is
//! bit-identical. This suite pins that promise: a reference heap with
//! the exact former semantics runs in lockstep with the wheel under
//! randomized schedules, and every pop, peek, and length must agree.
//! Covered shapes mirror what the cluster generates: near-future bursts
//! (interconnect hops), same-cycle ties (bank fan-out), far-future DRAM
//! refills, events beyond the wheel's top-level span (overflow list),
//! and schedule-while-draining interleavings (handlers scheduling
//! follow-ups at the cycle being drained).

use std::cmp::Reverse;

use mot3d_phys::wheel::TimingWheel;
use proptest::prelude::*;

/// The pre-wheel event queue, verbatim: `(time, seq)`-ordered min-heap
/// with a caller-side monotonic sequence number.
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "the reference heap the wheel is checked against"
)]
struct RefHeap {
    heap: std::collections::BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl RefHeap {
    fn schedule(&mut self, time: u64, id: u32) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq, id)));
    }

    /// The peek-compare-pop idiom every former call site used.
    fn pop_due(&mut self, now: u64) -> Option<(u64, u32)> {
        match self.heap.peek() {
            Some(Reverse((t, _, _))) if *t <= now => {
                self.heap.pop().map(|Reverse((t, _, id))| (t, id))
            }
            _ => None,
        }
    }

    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

/// One step of the lockstep interpreter.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delta`.
    Schedule { delta: u64 },
    /// Pop everything due at the current `now`, checking each pop.
    DrainDue,
    /// Advance `now` by `by`, popping due events as the runner would.
    Advance { by: u64 },
}

/// Delta distribution matching the simulator: mostly near-future, some
/// mid-range (DRAM), rare beyond-top-level (overflow), occasional zero
/// (same-cycle bursts).
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..8,
        1u64..64,
        64u64..4096,
        4096u64..300_000,
        300_000u64..20_000_000,
        // Beyond the wheel's 64^4 span: exercises the overflow list.
        20_000_000u64..(1u64 << 34),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is unweighted; duplicate arms to bias
    // toward scheduling.
    prop_oneof![
        delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        Just(Op::DrainDue),
        (1u64..200).prop_map(|by| Op::Advance { by }),
        (1u64..200).prop_map(|by| Op::Advance { by }),
        (200u64..100_000).prop_map(|by| Op::Advance { by }),
    ]
}

/// Runs wheel and heap in lockstep over `ops`, checking every
/// observable after every step. `reschedule_on_pop`, when set, schedules
/// a follow-up event from inside the drain loop (sometimes at the very
/// cycle being drained) — the schedule-while-draining shape.
fn run_lockstep(ops: &[Op], reschedule_on_pop: bool) -> Result<(), TestCaseError> {
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let mut heap = RefHeap::default();
    let mut now = 0u64;
    let mut next_id = 0u32;

    let drain = |wheel: &mut TimingWheel<u32>,
                 heap: &mut RefHeap,
                 now: u64,
                 next_id: &mut u32|
     -> Result<(), TestCaseError> {
        loop {
            let got = wheel.pop_due(now);
            let want = heap.pop_due(now);
            prop_assert_eq!(got, want, "pop_due({}) diverged", now);
            let Some((t, id)) = got else { break };
            if reschedule_on_pop {
                // Follow-up work: same cycle for every third pop (the
                // bus-grant → bank-enqueue shape), short hop otherwise.
                let delta = u64::from(id % 3);
                wheel.schedule(t + delta, *next_id);
                heap.schedule(t + delta, *next_id);
                *next_id += 1;
            }
        }
        Ok(())
    };

    for op in ops {
        match *op {
            Op::Schedule { delta } => {
                wheel.schedule(now + delta, next_id);
                heap.schedule(now + delta, next_id);
                next_id += 1;
            }
            Op::DrainDue => drain(&mut wheel, &mut heap, now, &mut next_id)?,
            Op::Advance { by } => {
                now += by;
                drain(&mut wheel, &mut heap, now, &mut next_id)?;
            }
        }
        prop_assert_eq!(wheel.next_time(), heap.next_time());
        prop_assert_eq!(wheel.len(), heap.heap.len());
        prop_assert_eq!(wheel.is_empty(), heap.heap.is_empty());
    }

    // Final total drain: both must empty in the same order.
    loop {
        let got = wheel.pop_due(u64::MAX);
        let want = heap.pop_due(u64::MAX);
        prop_assert_eq!(got, want, "final drain diverged");
        if got.is_none() {
            break;
        }
    }
    prop_assert!(wheel.is_empty());
    Ok(())
}

proptest! {
    /// Random schedules + drains pop identically to the heap.
    #[test]
    fn wheel_matches_heap(ops in prop::collection::vec(op_strategy(), 1..120)) {
        run_lockstep(&ops, false)?;
    }

    /// Scheduling from inside the drain loop (including at the cycle
    /// being drained) preserves equivalence.
    #[test]
    fn wheel_matches_heap_while_draining(
        ops in prop::collection::vec(op_strategy(), 1..100),
    ) {
        run_lockstep(&ops, true)?;
    }

    /// Dense same-cycle bursts: many ties at few distinct times, where
    /// only the `seq` tiebreak determines order.
    #[test]
    fn same_cycle_bursts_pop_in_seq_order(
        times in prop::collection::vec(0u64..4, 1..200),
        now_step in 1u64..6,
    ) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut heap = RefHeap::default();
        let mut now = 0u64;
        for (id, &t) in times.iter().enumerate() {
            let at = now + t;
            wheel.schedule(at, id as u32);
            heap.schedule(at, id as u32);
            if id % 16 == 15 {
                now += now_step;
                loop {
                    let got = wheel.pop_due(now);
                    prop_assert_eq!(got, heap.pop_due(now));
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
        loop {
            let got = wheel.pop_due(u64::MAX);
            prop_assert_eq!(got, heap.pop_due(u64::MAX));
            if got.is_none() {
                break;
            }
        }
    }

    /// Far-future events (beyond the top wheel level from the schedule
    /// point) cascade back in at exactly the right time and order.
    #[test]
    fn far_future_overflow_matches(
        far_deltas in prop::collection::vec((1u64 << 24)..(1u64 << 40), 1..20),
        near_deltas in prop::collection::vec(0u64..512, 1..40),
    ) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut heap = RefHeap::default();
        let mut id = 0u32;
        for &d in &far_deltas {
            wheel.schedule(d, id);
            heap.schedule(d, id);
            id += 1;
        }
        for &d in &near_deltas {
            wheel.schedule(d, id);
            heap.schedule(d, id);
            id += 1;
        }
        prop_assert_eq!(wheel.next_time(), heap.next_time());
        loop {
            let got = wheel.pop_due(u64::MAX);
            prop_assert_eq!(got, heap.pop_due(u64::MAX));
            prop_assert_eq!(wheel.next_time(), heap.next_time());
            if got.is_none() {
                break;
            }
        }
    }
}

/// Deterministic regression: `clear()` + replay matches a fresh wheel
/// (the `Cluster::reset` contract).
#[test]
fn cleared_wheel_replays_like_fresh() {
    let script: Vec<(u64, u32)> = (0..500u32).map(|i| (u64::from(i * 37 % 801), i)).collect();
    let run = |w: &mut TimingWheel<u32>| -> Vec<(u64, u32)> {
        for &(t, id) in &script {
            w.schedule(t, id);
        }
        let mut out = Vec::new();
        while let Some(p) = w.pop_due(u64::MAX) {
            out.push(p);
        }
        out
    };
    let mut wheel = TimingWheel::new();
    let fresh = run(&mut wheel);
    wheel.clear();
    let replayed = run(&mut wheel);
    assert_eq!(fresh, replayed);

    let mut heap = RefHeap::default();
    for &(t, id) in &script {
        heap.schedule(t, id);
    }
    let mut want = Vec::new();
    while let Some(p) = heap.pop_due(u64::MAX) {
        want.push(p);
    }
    assert_eq!(fresh, want);
}
