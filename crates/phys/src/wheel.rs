//! Indexed hierarchical timing wheel for `(time, seq)`-ordered event
//! queues.
//!
//! The simulator's event queues (`Cluster`'s action queue, the NoC
//! baselines' packet queue) were `BinaryHeap<Reverse<(time, seq, _)>>`:
//! every schedule and pop paid an `O(log n)` sift of branchy `(u64,
//! u64)` comparisons. The access pattern those queues actually see is
//! far friendlier than the general case: the PR 2 wake-hint protocol
//! makes almost every event *near-future* (a handful of cycles for
//! interconnect hops and bank service, a few hundred for DRAM), and
//! time only moves forward. [`TimingWheel`] exploits that shape —
//! events hash into a calendar of 64-slot levels by their distance from
//! the wheel's current time, so schedule and pop are `O(1)` slot
//! operations, with the rare far-future event cascading down one level
//! at a time as the wheel turns.
//!
//! ## Ordering contract
//!
//! Pops are **bit-identical** to the heap they replace: strictly
//! ascending `(time, seq)` where `seq` is the wheel-assigned insertion
//! number. Two properties make this hold with no per-pop comparison in
//! the common case:
//!
//! * a level-0 slot within the current 64-cycle window holds events of
//!   exactly one timestamp, appended in `seq` order — FIFO drain *is*
//!   `(time, seq)` order;
//! * the rare slot that receives out-of-order appends (a cascade
//!   landing behind a direct insert, an overdue insert sharing the
//!   cursor slot) is flagged and lazily sorted once before it drains.
//!
//! The differential suite in `crates/phys/tests/wheel_equivalence.rs`
//! pins the equivalence against a reference heap under randomized
//! schedules, same-cycle bursts, far-future events, and
//! schedule-while-draining interleavings.
//!
//! ## Exact `O(1)` peek
//!
//! [`TimingWheel::next_time`] returns the exact earliest event time (not
//! a slot-granular bound) from a cached minimum: inserts fold into it
//! directly, and pops rebuild it from per-slot minima via one occupancy
//! bitmap scan per level. The event-driven runner's `next_activity`
//! wake hints depend on that exactness.
//!
//! # Examples
//!
//! ```
//! use mot3d_phys::wheel::TimingWheel;
//!
//! let mut q: TimingWheel<&str> = TimingWheel::new();
//! q.schedule(10, "dram refill");
//! q.schedule(3, "bank done");
//! q.schedule(3, "second at the same cycle");
//! assert_eq!(q.next_time(), Some(3));
//! assert_eq!(q.pop_due(5), Some((3, "bank done")));
//! assert_eq!(q.pop_due(5), Some((3, "second at the same cycle")));
//! assert_eq!(q.pop_due(5), None); // cycle 10 is not due yet
//! assert_eq!(q.next_time(), Some(10));
//! ```

use std::collections::VecDeque;

/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64: one occupancy `u64` per level).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` buckets are `64^l` cycles wide, so the wheel
/// spans `64^4 ≈ 16.7M` cycles ahead of `cur` before the overflow list
/// is touched — far beyond any latency the simulated cluster produces.
const LEVELS: usize = 4;
/// Circular slot-index mask.
const SLOT_MASK: u64 = SLOTS as u64 - 1;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    entries: VecDeque<Entry<T>>,
    /// Exact minimum event time across the slot (`u64::MAX` when empty).
    min_time: u64,
    /// Whether `entries` is known ascending by `(time, seq)`. Appends in
    /// `seq` order at a single timestamp (the overwhelmingly common
    /// case) keep it `true`; anything else clears it and the slot is
    /// sorted once before draining.
    sorted: bool,
}

impl<T> Slot<T> {
    const fn new() -> Self {
        Slot {
            entries: VecDeque::new(),
            min_time: u64::MAX,
            sorted: true,
        }
    }
}

/// A hierarchical timing wheel popping in exact `(time, seq)` order.
///
/// Drop-in replacement for the simulator's former
/// `BinaryHeap<Reverse<(time, seq, item)>>` queues; see the module docs
/// for the ordering contract. Times may be scheduled in any order,
/// including behind already-popped times (an "overdue" event pops
/// first, exactly as it would from the heap).
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    /// `LEVELS × SLOTS` slots, level-major.
    slots: Box<[Slot<T>]>,
    /// Per-level occupancy bitmaps (bit `i` = slot `i` non-empty).
    occ: [u64; LEVELS],
    /// The wheel's current time: the latest time ever popped. Only
    /// advances, and only to the exact time of the event being popped.
    cur: u64,
    /// Cached exact earliest live event time (`u64::MAX` when empty).
    next: u64,
    /// Live events.
    len: usize,
    /// Insertion counter; ties at one time pop in schedule order.
    seq: u64,
    /// Events too far ahead for the top level, in insertion order.
    overflow: Vec<Entry<T>>,
    /// Exact minimum time in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// Builds an empty wheel starting at time 0.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS)
                .map(|_| Slot::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            occ: [0; LEVELS],
            cur: 0,
            next: u64::MAX,
            len: 0,
            seq: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
        }
    }

    /// Live (scheduled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The exact earliest live event time, or `None` when empty. `O(1)`.
    pub fn next_time(&self) -> Option<u64> {
        (self.next != u64::MAX).then_some(self.next)
    }

    /// Schedules `item` at `time`. Events at equal times pop in
    /// schedule order (the `(time, seq)` contract).
    pub fn schedule(&mut self, time: u64, item: T) {
        self.seq += 1;
        self.len += 1;
        if time < self.next {
            self.next = time;
        }
        let entry = Entry {
            time,
            seq: self.seq,
            item,
        };
        self.place(entry);
    }

    /// Pops the earliest event if its time is `<= now`, returning
    /// `(time, item)`. Equivalent to the peek-compare-pop idiom on the
    /// reference heap.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        if self.len == 0 || self.next > now {
            return None;
        }
        let t = self.next;
        if t > self.cur {
            self.advance_to(t);
        }
        if self.overflow_min <= t {
            self.drain_overflow();
        }
        // The due event sits in the level-0 slot of `t` — or, when it
        // was scheduled behind the wheel ("overdue"), of `cur`, where
        // `place` parked it.
        let idx = (t.max(self.cur) & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        if !slot.sorted {
            slot.entries
                .make_contiguous()
                .sort_unstable_by_key(|e| (e.time, e.seq));
            slot.sorted = true;
        }
        debug_assert_eq!(slot.entries.front().map(|e| e.time), Some(t));
        let entry = slot.entries.pop_front()?;
        self.len -= 1;
        match slot.entries.front() {
            Some(front) => {
                slot.min_time = front.time;
                // `t` was the global minimum, so nothing live is earlier;
                // a remaining same-cycle entry keeps `next` exact without
                // the per-level rescan (same-cycle bursts are the common
                // case in the simulator's delivery traffic).
                if front.time == t {
                    self.next = t;
                    return Some((entry.time, entry.item));
                }
            }
            None => {
                slot.min_time = u64::MAX;
                self.occ[0] &= !(1 << idx);
            }
        }
        self.recompute_next();
        Some((entry.time, entry.item))
    }

    /// Empties the wheel and rewinds it to construction state (time 0,
    /// seq 0) without releasing slot capacity. A cleared wheel replays
    /// a schedule bit-identically to a fresh one.
    pub fn clear(&mut self) {
        for slot in self.slots.iter_mut() {
            slot.entries.clear();
            slot.min_time = u64::MAX;
            slot.sorted = true;
        }
        self.occ = [0; LEVELS];
        self.cur = 0;
        self.next = u64::MAX;
        self.len = 0;
        self.seq = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
    }

    /// The level whose window (relative to `cur`) contains `t`, plus the
    /// slot index there, or `None` when `t` is beyond the top level.
    /// `t >= cur` required. Level `l` is chosen when `t` and `cur` are
    /// fewer than 64 level-`l` buckets apart, so an event never lands in
    /// the bucket holding `cur` itself (levels ≥ 1 keep that slot empty
    /// — the cascade invariant) and never collides across rotations.
    #[inline]
    fn locate(&self, t: u64) -> Option<(usize, usize)> {
        debug_assert!(t >= self.cur);
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            if (t >> shift) - (self.cur >> shift) < SLOTS as u64 {
                return Some((level, ((t >> shift) & SLOT_MASK) as usize));
            }
        }
        None
    }

    /// Files one entry into its slot (or the overflow list). Does not
    /// touch `len`/`seq`/`next` — callers own those.
    #[inline]
    fn place(&mut self, entry: Entry<T>) {
        // An overdue entry (scheduled behind an already-popped time)
        // parks in the cursor slot; its true `time` still drives
        // `min_time`, sorting, and the popped result.
        let at = entry.time.max(self.cur);
        match self.locate(at) {
            Some((level, idx)) => {
                let slot = &mut self.slots[level * SLOTS + idx];
                if let Some(last) = slot.entries.back() {
                    if (entry.time, entry.seq) < (last.time, last.seq) {
                        slot.sorted = false;
                    }
                }
                if entry.time < slot.min_time {
                    slot.min_time = entry.time;
                }
                slot.entries.push_back(entry);
                self.occ[level] |= 1 << idx;
            }
            None => {
                if entry.time < self.overflow_min {
                    self.overflow_min = entry.time;
                }
                self.overflow.push(entry);
            }
        }
    }

    /// Advances the wheel to `t` (the exact global-minimum event time),
    /// cascading every level whose bucket boundary is crossed. All
    /// slots strictly between the old and new positions are empty —
    /// they could only hold events earlier than the minimum — so only
    /// the bucket *containing* `t` needs draining at each level, top
    /// down (drained entries re-file into strictly lower levels).
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t >= self.cur);
        let old = self.cur;
        self.cur = t;
        for level in (1..LEVELS).rev() {
            let shift = SLOT_BITS * level as u32;
            if (t >> shift) == (old >> shift) {
                continue;
            }
            let idx = ((t >> shift) & SLOT_MASK) as usize;
            let flat = level * SLOTS + idx;
            if self.slots[flat].entries.is_empty() {
                continue;
            }
            let mut drained = std::mem::take(&mut self.slots[flat].entries);
            self.slots[flat].min_time = u64::MAX;
            self.slots[flat].sorted = true;
            self.occ[level] &= !(1 << idx);
            for entry in drained.drain(..) {
                self.place(entry);
            }
            // `place` never re-targets the bucket being drained, so the
            // slot is still empty: hand its capacity back.
            self.slots[flat].entries = drained;
        }
    }

    /// Re-files every overflow entry relative to the advanced `cur`.
    /// Entries still beyond the top level go back to overflow.
    fn drain_overflow(&mut self) {
        let mut spilled = std::mem::take(&mut self.overflow);
        self.overflow_min = u64::MAX;
        for entry in spilled.drain(..) {
            self.place(entry);
        }
        if self.overflow.is_empty() {
            // Nothing re-overflowed: keep the old capacity.
            self.overflow = spilled;
        }
    }

    /// Rebuilds the cached `next` from per-slot minima: one occupancy
    /// bitmap rotation per level finds the level's earliest slot (slots
    /// scan in time order starting at the cursor), whose stored
    /// `min_time` is exact.
    #[inline]
    fn recompute_next(&mut self) {
        let mut next = self.overflow_min;
        for level in 0..LEVELS {
            let bits = self.occ[level];
            if bits == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let cursor = ((self.cur >> shift) & SLOT_MASK) as u32;
            let offset = bits.rotate_right(cursor).trailing_zeros();
            let idx = ((cursor + offset) as u64 & SLOT_MASK) as usize;
            let candidate = self.slots[level * SLOTS + idx].min_time;
            if candidate < next {
                next = candidate;
            }
        }
        self.next = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything due by `now`, returning `(time, item)` pairs.
    fn drain<T>(w: &mut TimingWheel<T>, now: u64) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        while let Some(popped) = w.pop_due(now) {
            out.push(popped);
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.schedule(5, "a");
        w.schedule(2, "b");
        w.schedule(5, "c");
        w.schedule(2, "d");
        assert_eq!(w.next_time(), Some(2));
        assert_eq!(drain(&mut w, 10), [(2, "b"), (2, "d"), (5, "a"), (5, "c")]);
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut w = TimingWheel::new();
        w.schedule(3, 1u32);
        w.schedule(7, 2);
        assert_eq!(w.pop_due(2), None);
        assert_eq!(w.pop_due(3), Some((3, 1)));
        assert_eq!(w.pop_due(6), None);
        assert_eq!(w.pop_due(100), Some((7, 2)));
    }

    #[test]
    fn cascades_across_level_boundaries() {
        let mut w = TimingWheel::new();
        // One event per level, plus one in overflow.
        let times = [5u64, 100, 5_000, 300_000, 20_000_000, 2_000_000_000];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(t, i);
        }
        assert_eq!(w.len(), times.len());
        let popped = drain(&mut w, u64::MAX);
        let expect: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn next_time_is_exact_at_every_level() {
        for &t in &[1u64, 63, 64, 65, 4095, 4096, 262_143, 262_144, 50_000_000] {
            let mut w = TimingWheel::new();
            w.schedule(t, ());
            assert_eq!(w.next_time(), Some(t), "t={t}");
            assert_eq!(w.pop_due(t), Some((t, ())));
        }
    }

    #[test]
    fn same_slot_different_rotation_does_not_collide() {
        let mut w = TimingWheel::new();
        // Advance the wheel off zero so bucket indices wrap.
        w.schedule(100, "warm");
        assert_eq!(w.pop_due(100), Some((100, "warm")));
        // 100 + 64 shares slot index (100+64) % 64 at level 0 with
        // nothing in-window; 100 + 64*64 shares the level-1 bucket
        // index of `cur`'s next rotation.
        w.schedule(100 + 64, "next-window");
        w.schedule(100 + 64 * 64, "next-rotation");
        w.schedule(101, "near");
        assert_eq!(
            drain(&mut w, u64::MAX),
            [
                (101, "near"),
                (164, "next-window"),
                (100 + 64 * 64, "next-rotation")
            ]
        );
    }

    #[test]
    fn overdue_schedules_pop_first() {
        let mut w = TimingWheel::new();
        w.schedule(50, "future");
        assert_eq!(w.pop_due(50), None.or(Some((50, "future"))));
        // The wheel now sits at 50; schedule behind it.
        w.schedule(10, "overdue");
        w.schedule(50, "present");
        assert_eq!(w.next_time(), Some(10));
        assert_eq!(drain(&mut w, 50), [(10, "overdue"), (50, "present")]);
    }

    #[test]
    fn schedule_while_draining_same_cycle() {
        let mut w = TimingWheel::new();
        w.schedule(4, 0u32);
        w.schedule(4, 1);
        assert_eq!(w.pop_due(4), Some((4, 0)));
        // Scheduled mid-drain at the already-draining cycle: pops after
        // the earlier seqs, exactly like the heap.
        w.schedule(4, 2);
        assert_eq!(w.pop_due(4), Some((4, 1)));
        assert_eq!(w.pop_due(4), Some((4, 2)));
        assert_eq!(w.pop_due(4), None);
    }

    #[test]
    fn clear_replays_bit_identically() {
        let mut w = TimingWheel::new();
        let script = |w: &mut TimingWheel<u64>| {
            for i in 0..200u64 {
                w.schedule(i * 7 % 300, i);
            }
            drain(w, 1000)
        };
        let fresh = script(&mut w);
        w.clear();
        assert!(w.is_empty());
        let replayed = script(&mut w);
        assert_eq!(fresh, replayed);
    }

    #[test]
    fn far_future_overflow_reaches_the_wheel() {
        let mut w = TimingWheel::new();
        let far = 64u64.pow(4) + 123; // beyond the top level from cur=0
        w.schedule(far, "far");
        w.schedule(far + 1, "farther");
        assert_eq!(w.next_time(), Some(far));
        assert_eq!(w.pop_due(far - 1), None);
        assert_eq!(w.pop_due(far), Some((far, "far")));
        assert_eq!(w.next_time(), Some(far + 1));
        assert_eq!(w.pop_due(u64::MAX), Some((far + 1, "farther")));
        assert!(w.is_empty());
    }

    #[test]
    fn len_tracks_through_all_paths() {
        let mut w = TimingWheel::new();
        w.schedule(1, ());
        w.schedule(70, ());
        w.schedule(1 << 30, ());
        w.schedule(1 << 40, ()); // overflow
        assert_eq!(w.len(), 4);
        let mut left = 4;
        while w.pop_due(u64::MAX).is_some() {
            left -= 1;
            assert_eq!(w.len(), left);
        }
        assert_eq!(w.len(), 0);
    }
}
