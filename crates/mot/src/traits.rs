//! The transaction-level interconnect abstraction shared by the 3-D MoT
//! and the packet-switched baselines.
//!
//! The cluster simulator drives every interconnect through the same
//! cycle-stepped contract: inject memory requests at cores, tick, collect
//! requests as they arrive at banks, inject responses at banks, collect
//! deliveries at cores. Contention (MoT per-bank arbitration, NoC router
//! queueing, bus TDMA) is each implementation's business; the simulator
//! only sees when things arrive.

use mot3d_phys::units::{Joules, Watts};

/// What a memory transaction does at the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Fetch a line (L1 refill).
    ReadLine,
    /// Write a line back (L1 eviction / flush).
    WriteLine,
}

/// A core→bank request travelling the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing core.
    pub core: usize,
    /// *Home* bank index from the address interleaving (the interconnect
    /// may remap it under power gating).
    pub home_bank: usize,
    /// Transaction kind.
    pub kind: ReqKind,
    /// Caller tag to match completions.
    pub tag: u64,
}

/// A request that reached a physical bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankArrival {
    /// The original request.
    pub request: MemRequest,
    /// The physical bank it arrived at (equals `request.home_bank` unless
    /// a power-gating remap redirected it).
    pub bank: usize,
    /// Arrival cycle.
    pub at_cycle: u64,
}

/// A bank→core response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Destination core.
    pub core: usize,
    /// Responding physical bank.
    pub bank: usize,
    /// Kind of the original request.
    pub kind: ReqKind,
    /// The original request's tag.
    pub tag: u64,
}

/// A response delivered back at a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreDelivery {
    /// The response.
    pub response: MemResponse,
    /// Delivery cycle.
    pub at_cycle: u64,
}

/// Aggregate interconnect statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterconnectStats {
    /// Requests injected.
    pub requests: u64,
    /// Responses delivered.
    pub responses: u64,
    /// Sum of request transit latencies (cycles, injection → bank
    /// arrival, including contention).
    pub total_request_latency: u64,
    /// Worst single request transit.
    pub max_request_latency: u64,
}

/// A cycle-stepped interconnect between cores and L2 banks.
///
/// Implementations: [`crate::network::MotNetwork`] (this paper) and the
/// three packet-switched baselines in `mot3d-noc`.
pub trait Interconnect {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &str;

    /// Advances internal state to cycle `now`. Must be called with
    /// monotonically non-decreasing `now`, once per simulated cycle.
    fn tick(&mut self, now: u64);

    /// Injects a request at its core. Queuing is unbounded; cores
    /// self-limit (one outstanding blocking miss each).
    fn inject_request(&mut self, now: u64, request: MemRequest);

    /// Pops one request that has arrived at a bank (after [`Self::tick`]).
    fn pop_arrival(&mut self) -> Option<BankArrival>;

    /// Injects a response at its bank.
    fn inject_response(&mut self, now: u64, response: MemResponse);

    /// Pops one response delivered back at a core.
    fn pop_delivery(&mut self) -> Option<CoreDelivery>;

    /// Wake hint for event-driven callers: the earliest cycle `>= now` at
    /// which ticking this interconnect could change observable state
    /// (a transit landing, an arbitration grant, a response delivery), or
    /// `None` when it is completely idle.
    ///
    /// `now` is the next cycle the caller would tick. The contract is that
    /// a caller who ticks at every returned cycle (and at every cycle it
    /// injects something) observes *exactly* the same arrivals and
    /// deliveries as one ticking every cycle — skipped cycles must be
    /// provable no-ops. The conservative default, `Some(now)`, claims
    /// activity every cycle and therefore disables skipping.
    fn next_activity(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Resets traffic state to construction time: in-flight messages,
    /// arbitration/round-robin positions, statistics, and accumulated
    /// dynamic energy are cleared. Topology and derived latency/energy
    /// models persist, and so does the capacity of every queue, so a
    /// reset network runs traffic it has carried before without
    /// allocating. The simulator's re-targetable cluster resets the
    /// network it keeps for an interconnect kind instead of building a
    /// new one for every point.
    fn reset(&mut self);

    /// Uncontended one-way transit in cycles (used by the simulator to
    /// charge coherence control messages without modelling their full
    /// transport).
    fn oneway_latency_hint(&self) -> u64;

    /// Dynamic energy consumed so far.
    fn dynamic_energy(&self) -> Joules;

    /// Leakage power of the powered portion of the interconnect.
    fn leakage_power(&self) -> Watts;

    /// Traffic statistics so far.
    fn stats(&self) -> InterconnectStats;
}
