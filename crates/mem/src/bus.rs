//! The round-robin miss bus.
//!
//! "In case of instruction miss, Miss bus handles line refills in a
//! round-robin manner towards the off-cluster DRAM" (§II). We use the same
//! bus for all L2↔DRAM refill traffic: one line transfer occupies the bus
//! for a fixed number of cycles, and when several requesters queue, grants
//! rotate round-robin so no bank starves.
//!
//! The bus is cycle-stepped: the cluster calls [`MissBus::tick`] once per
//! cycle and receives at most one completed transfer.
//!
//! Waiting transfers live in one contiguous [`FifoSlab`] (one FIFO list
//! per requester over a shared node arena) rather than a `VecDeque` per
//! requester, so enqueueing never allocates in steady state and
//! [`MissBus::is_idle`] / [`MissBus::queued`] — polled by the simulator's
//! completion check every event step — are O(1) counter reads instead of
//! scans over every queue.

use mot3d_phys::slab::FifoSlab;

/// A transfer waiting on / travelling over the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Which requester (L2 bank or fetch unit) issued it.
    pub requester: usize,
    /// Caller-defined tag to match completions to transactions.
    pub tag: u64,
}

/// The shared refill bus.
///
/// # Examples
///
/// ```
/// use mot3d_mem::bus::{MissBus, Transfer};
///
/// let mut bus = MissBus::new(4, 4); // 4 requesters, 4-cycle transfers
/// bus.enqueue(Transfer { requester: 0, tag: 10 });
/// bus.enqueue(Transfer { requester: 1, tag: 11 });
/// let mut done = Vec::new();
/// for cycle in 0..10 {
///     if let Some(t) = bus.tick(cycle) {
///         done.push((cycle, t.tag));
///     }
/// }
/// assert_eq!(done, vec![(4, 10), (8, 11)]);
/// ```
#[derive(Debug, Clone)]
pub struct MissBus {
    occupancy: u64,
    queues: FifoSlab<Transfer>,
    rr: usize,
    current: Option<(Transfer, u64)>,
    granted: u64,
}

impl MissBus {
    /// Creates a bus for `requesters` endpoints with `occupancy` cycles
    /// per line transfer.
    ///
    /// # Panics
    ///
    /// Panics if `requesters == 0` or `occupancy == 0`.
    pub fn new(requesters: usize, occupancy: u64) -> Self {
        assert!(requesters > 0, "bus needs at least one requester");
        assert!(occupancy > 0, "transfers must take at least one cycle");
        MissBus {
            occupancy,
            queues: FifoSlab::new(requesters),
            rr: 0,
            current: None,
            granted: 0,
        }
    }

    /// Queues a transfer for its requester.
    ///
    /// # Panics
    ///
    /// Panics if the requester index is out of range.
    pub fn enqueue(&mut self, t: Transfer) {
        assert!(
            t.requester < self.queues.lists(),
            "requester {} out of range ({})",
            t.requester,
            self.queues.lists()
        );
        self.queues.push_back(t.requester, t);
    }

    /// Advances one cycle; returns a transfer that completed this cycle,
    /// if any, and starts the next granted transfer.
    pub fn tick(&mut self, now: u64) -> Option<Transfer> {
        let mut finished = None;
        if let Some((t, done_at)) = self.current {
            if now >= done_at {
                finished = Some(t);
                self.current = None;
            }
        }
        if self.current.is_none() {
            if let Some(t) = self.next_round_robin() {
                self.current = Some((t, now + self.occupancy));
                self.granted += 1;
            }
        }
        finished
    }

    /// Round-robin scan starting after the last granted requester.
    fn next_round_robin(&mut self) -> Option<Transfer> {
        if self.queues.is_all_empty() {
            return None;
        }
        let n = self.queues.lists();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            if let Some(t) = self.queues.pop_front(idx) {
                self.rr = (idx + 1) % n;
                return Some(t);
            }
        }
        None
    }

    /// Wake hint for event-driven callers: the earliest cycle `>= now` at
    /// which ticking the bus could complete or grant a transfer, assuming
    /// [`MissBus::tick`] is then called at every cycle from that point.
    /// `None` when the bus is idle. A waiting transfer with no grant in
    /// flight is granted on the very next tick, so it reports `now`.
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        match self.current {
            Some((_, done_at)) => Some(done_at.max(now)),
            None if !self.queues.is_all_empty() => Some(now),
            None => None,
        }
    }

    /// Back to construction time with `occupancy` cycles per transfer:
    /// clears all queues (keeping their capacity), the in-flight
    /// transfer, and the round-robin position.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy == 0`, as [`MissBus::new`] does.
    pub fn reset(&mut self, occupancy: u64) {
        assert!(occupancy > 0, "transfers must take at least one cycle");
        self.occupancy = occupancy;
        self.queues.clear();
        self.rr = 0;
        self.current = None;
        self.granted = 0;
    }

    /// Whether the bus and all queues are empty (O(1)).
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.queues.is_all_empty()
    }

    /// Transfers waiting (not including the one in flight); O(1).
    pub fn queued(&self) -> usize {
        self.queues.total_len()
    }

    /// Total transfers granted so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(bus: &mut MissBus, cycles: u64) -> Vec<(u64, Transfer)> {
        let mut out = Vec::new();
        for now in 0..cycles {
            if let Some(t) = bus.tick(now) {
                out.push((now, t));
            }
        }
        out
    }

    #[test]
    fn single_transfer_takes_occupancy_cycles() {
        let mut bus = MissBus::new(2, 4);
        bus.enqueue(Transfer {
            requester: 0,
            tag: 1,
        });
        let done = drain(&mut bus, 10);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 4); // granted at 0, completes at 4
        assert!(bus.is_idle());
    }

    #[test]
    fn round_robin_alternates_under_contention() {
        let mut bus = MissBus::new(2, 2);
        for tag in 0..3 {
            bus.enqueue(Transfer { requester: 0, tag });
            bus.enqueue(Transfer {
                requester: 1,
                tag: 100 + tag,
            });
        }
        let done = drain(&mut bus, 20);
        let order: Vec<usize> = done.iter().map(|(_, t)| t.requester).collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn no_starvation_with_greedy_requester() {
        // Requester 0 floods; requester 1's single transfer still completes
        // within two grants.
        let mut bus = MissBus::new(2, 1);
        for tag in 0..10 {
            bus.enqueue(Transfer { requester: 0, tag });
        }
        bus.enqueue(Transfer {
            requester: 1,
            tag: 999,
        });
        let done = drain(&mut bus, 30);
        let pos = done
            .iter()
            .position(|(_, t)| t.tag == 999)
            .expect("flooded-out transfer must still complete");
        assert!(pos <= 1, "tag 999 completed at grant position {pos}");
    }

    #[test]
    fn fifo_within_one_requester() {
        let mut bus = MissBus::new(1, 1);
        for tag in 0..5 {
            bus.enqueue(Transfer { requester: 0, tag });
        }
        let done = drain(&mut bus, 10);
        let tags: Vec<u64> = done.iter().map(|(_, t)| t.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bus_is_work_conserving() {
        // No idle gap while work is queued: completions are exactly
        // `occupancy` apart.
        let mut bus = MissBus::new(3, 3);
        for r in 0..3 {
            for tag in 0..2 {
                bus.enqueue(Transfer { requester: r, tag });
            }
        }
        let done = drain(&mut bus, 40);
        assert_eq!(done.len(), 6);
        for pair in done.windows(2) {
            assert_eq!(pair[1].0 - pair[0].0, 3);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_requester() {
        let mut bus = MissBus::new(2, 1);
        bus.enqueue(Transfer {
            requester: 5,
            tag: 0,
        });
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn rejects_zero_occupancy() {
        MissBus::new(1, 0);
    }
}
