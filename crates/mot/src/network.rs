//! Cycle-accurate functional model of the circuit-switched 3-D MoT.
//!
//! The combinational MoT is non-blocking between disjoint (core, bank)
//! pairs (§II): requests to different banks never interfere, while
//! simultaneous requests to the *same* bank serialise through that bank's
//! round-robin arbitration tree at one grant per cycle. This model
//! implements exactly that contract behind the [`Interconnect`] trait:
//!
//! * a request injected at cycle `t` reaches its (remapped) bank's
//!   arbitration point at `t + request_cycles`;
//! * each cycle, every bank grants one waiting request, chosen by its
//!   [`crate::switch::ArbitrationTree`] over the requesting cores;
//! * a response injected at `t` is delivered at `t + response_cycles`.
//!
//! Latencies come from the Elmore-based [`MotLatency`] derivation, so the
//! uncontended round trip equals Table I's values; queueing at hot banks
//! emerges from the arbitration.

use std::collections::VecDeque;

use mot3d_phys::slab::FifoSlab;

use crate::energy::MotEnergyModel;
use crate::latency::{MotLatency, MotTimingParams};
use crate::power_state::PowerState;
use crate::reconfig::MotConfiguration;
use crate::switch::ArbitrationTree;
use crate::topology::MotTopology;
use crate::traits::{
    BankArrival, CoreDelivery, Interconnect, InterconnectStats, MemRequest, MemResponse,
};
use crate::MotError;
use mot3d_phys::geometry::Floorplan;
use mot3d_phys::units::{Joules, Watts};
use mot3d_phys::Technology;

/// A request in flight toward a bank.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    request: MemRequest,
    injected_at: u64,
    arrives_at: u64,
    bank: usize,
}

/// The reconfigurable 3-D MoT interconnect.
///
/// # Examples
///
/// ```
/// use mot3d_mot::network::MotNetwork;
/// use mot3d_mot::power_state::PowerState;
/// use mot3d_mot::traits::{Interconnect, MemRequest, ReqKind};
///
/// let mut net = MotNetwork::date16(PowerState::full())?;
/// net.inject_request(0, MemRequest { core: 0, home_bank: 5, kind: ReqKind::ReadLine, tag: 1 });
/// let mut arrival = None;
/// for now in 0..20 {
///     net.tick(now);
///     if let Some(a) = net.pop_arrival() { arrival = Some(a); break; }
/// }
/// let a = arrival.expect("request must arrive");
/// assert_eq!(a.bank, 5); // no gating: home bank is the physical bank
/// # Ok::<(), mot3d_mot::MotError>(())
/// ```
#[derive(Debug)]
pub struct MotNetwork {
    cfg: MotConfiguration,
    latency: MotLatency,
    energy_model: MotEnergyModel,
    /// Requests in transit, ordered by injection (FIFO per same latency;
    /// a ring buffer, so steady-state pushes never allocate).
    transit_req: VecDeque<InFlight>,
    /// `arrives_at` of `transit_req`'s front (`u64::MAX` when empty),
    /// mirrored inline so the per-step `tick`/`next_activity` polls read
    /// one field instead of dereferencing the ring buffer. The fixed
    /// per-network request latency keeps the front the minimum.
    next_req_land: u64,
    /// Delivery time of `transit_resp`'s front (`u64::MAX` when empty);
    /// same inline mirror, for the response ring.
    next_resp_land: u64,
    /// Per-(bank, core) head-of-line queues awaiting the bank grant: one
    /// FIFO list per `bank * cores + core` over a single contiguous node
    /// slab, instead of banks × cores separate `VecDeque` allocations.
    waiting: FifoSlab<InFlight>,
    /// Per-bank request bitmask (bit `core` set while that (bank, core)
    /// queue is non-empty), maintained incrementally so the grant loop
    /// skips idle banks and feeds [`ArbitrationTree::grant_mask`] without
    /// rebuilding a bitmap.
    wait_mask: Vec<u32>,
    /// Bank-level occupancy bitmap (bit `bank` set while `wait_mask[bank]`
    /// is non-zero): the grant loop walks only the set bits instead of
    /// scanning every bank's mask each tick.
    bank_busy: u64,
    /// Core count (list-index stride into `waiting`).
    cores: usize,
    /// Per-bank arbitration trees over cores.
    arbiters: Vec<ArbitrationTree>,
    arrivals: VecDeque<BankArrival>,
    transit_resp: VecDeque<(u64, MemResponse)>,
    deliveries: VecDeque<CoreDelivery>,
    dynamic_energy: Joules,
    stats: InterconnectStats,
    last_tick: Option<u64>,
}

impl MotNetwork {
    /// Builds the MoT for an arbitrary topology/floorplan/technology.
    ///
    /// # Errors
    ///
    /// [`MotError`] if the power state does not fit or a model rejects its
    /// configuration.
    pub fn new(
        tech: &Technology,
        floorplan: &Floorplan,
        topology: MotTopology,
        params: &MotTimingParams,
        state: PowerState,
    ) -> Result<Self, MotError> {
        let cfg = MotConfiguration::new(topology, state)?;
        let latency = MotLatency::derive(tech, floorplan, topology, params, state)?;
        let energy_model = MotEnergyModel::derive(tech, floorplan, &cfg, params)?;
        let banks = topology.banks();
        let cores = topology.cores();
        assert!(cores <= 32, "wait masks hold at most 32 cores per bank");
        assert!(
            banks <= 64,
            "the bank occupancy bitmap holds at most 64 banks"
        );
        Ok(MotNetwork {
            cfg,
            latency,
            energy_model,
            transit_req: VecDeque::new(),
            next_req_land: u64::MAX,
            next_resp_land: u64::MAX,
            waiting: FifoSlab::new(banks * cores),
            wait_mask: vec![0; banks],
            bank_busy: 0,
            cores,
            arbiters: (0..banks).map(|_| ArbitrationTree::new(cores)).collect(),
            arrivals: VecDeque::new(),
            transit_resp: VecDeque::new(),
            deliveries: VecDeque::new(),
            dynamic_energy: Joules::ZERO,
            stats: InterconnectStats::default(),
            last_tick: None,
        })
    }

    /// The paper's 16×32 cluster on the calibrated node.
    ///
    /// # Errors
    ///
    /// [`MotError`] if the power state does not fit.
    pub fn date16(state: PowerState) -> Result<Self, MotError> {
        MotNetwork::new(
            &Technology::lp45(),
            &Floorplan::date16(),
            MotTopology::date16(),
            &MotTimingParams::default(),
            state,
        )
    }

    /// The resolved configuration (power state, remap, switch modes).
    pub fn configuration(&self) -> &MotConfiguration {
        &self.cfg
    }

    /// The derived uncontended latency.
    pub fn latency(&self) -> MotLatency {
        self.latency
    }

    // --- Observability probes (read-only, allocation-free) ---

    /// Bit `b` set while at least one request is queued at bank `b`'s
    /// arbitration tree awaiting its grant.
    pub fn waiting_banks(&self) -> u64 {
        self.bank_busy
    }

    /// Bit `b` set while a request is still in transit down the tree
    /// toward bank `b` (injected, not yet landed at the arbiter).
    pub fn transit_banks(&self) -> u64 {
        let mut mask = 0u64;
        for f in &self.transit_req {
            mask |= 1u64 << f.bank;
        }
        mask
    }

    /// Requests currently in transit from cores toward bank arbiters.
    pub fn transit_request_depth(&self) -> usize {
        self.transit_req.len()
    }

    /// Responses currently in transit from banks back to cores.
    pub fn transit_response_depth(&self) -> usize {
        self.transit_resp.len()
    }
}

impl Interconnect for MotNetwork {
    fn name(&self) -> &str {
        "3-D MoT"
    }

    // mot3d-lint: no-alloc
    fn tick(&mut self, now: u64) {
        if let Some(last) = self.last_tick {
            debug_assert!(now >= last, "tick must not go backwards");
        }
        self.last_tick = Some(now);

        // 1. Land transits whose time has come at their bank's wait queue.
        let cores = self.cores;
        if self.next_req_land <= now {
            while let Some(front) = self.transit_req.front() {
                if front.arrives_at > now {
                    break;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "front() returned Some on this very queue"
                )]
                let f = self.transit_req.pop_front().expect("checked non-empty");
                self.waiting.push_back(f.bank * cores + f.request.core, f);
                self.wait_mask[f.bank] |= 1 << f.request.core;
                self.bank_busy |= 1 << f.bank;
            }
            self.next_req_land = self.transit_req.front().map_or(u64::MAX, |f| f.arrives_at);
        }

        // 2. One grant per bank per cycle, round-robin over cores. Only
        // banks with waiters are visited — the occupancy bitmap walk hits
        // exactly the banks the full ascending scan would, in the same
        // order — and each grant works on the bank's incrementally-
        // maintained request bitmask: this is the simulator's hottest loop.
        let mut busy = self.bank_busy;
        while busy != 0 {
            let bank = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            if let Some(core) = self.arbiters[bank].grant_mask(self.wait_mask[bank]) {
                #[expect(
                    clippy::expect_used,
                    reason = "wait_mask bit set ⇒ queue non-empty (tick keeps them in lockstep)"
                )]
                let f = self
                    .waiting
                    .pop_front(bank * cores + core)
                    .expect("granted core has a waiting request");
                if self.waiting.is_empty(bank * cores + core) {
                    self.wait_mask[bank] &= !(1 << core);
                    if self.wait_mask[bank] == 0 {
                        self.bank_busy &= !(1u64 << bank);
                    }
                }
                let transit = now.saturating_sub(f.injected_at);
                self.stats.total_request_latency += transit;
                self.stats.max_request_latency = self.stats.max_request_latency.max(transit);
                self.arrivals.push_back(BankArrival {
                    request: f.request,
                    bank,
                    at_cycle: now,
                });
            }
        }

        // 3. Deliver responses whose transit elapsed.
        if self.next_resp_land <= now {
            while let Some((at, _)) = self.transit_resp.front() {
                if *at > now {
                    break;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "front() returned Some on this very queue"
                )]
                let (at, response) = self.transit_resp.pop_front().expect("checked non-empty");
                self.stats.responses += 1;
                self.deliveries.push_back(CoreDelivery {
                    response,
                    at_cycle: at,
                });
            }
            self.next_resp_land = self.transit_resp.front().map_or(u64::MAX, |(at, _)| *at);
        }
    }

    fn inject_request(&mut self, now: u64, request: MemRequest) {
        assert!(
            request.core < self.cfg.topology().cores(),
            "core {} out of range",
            request.core
        );
        assert!(
            self.cfg.is_core_active(request.core),
            "core {} is power-gated and cannot inject",
            request.core
        );
        let bank = self.cfg.remap_bank(request.home_bank);
        self.stats.requests += 1;
        self.dynamic_energy += self.energy_model.request_energy(request.kind);
        let arrives_at = now + self.latency.request_cycles;
        self.next_req_land = self.next_req_land.min(arrives_at);
        self.transit_req.push_back(InFlight {
            request,
            injected_at: now,
            arrives_at,
            bank,
        });
    }

    fn pop_arrival(&mut self) -> Option<BankArrival> {
        self.arrivals.pop_front()
    }

    fn inject_response(&mut self, now: u64, response: MemResponse) {
        assert!(
            self.cfg.is_bank_active(response.bank),
            "bank {} is power-gated and cannot respond",
            response.bank
        );
        self.dynamic_energy += self.energy_model.response_energy(response.kind);
        let at = now + self.latency.response_cycles;
        self.next_resp_land = self.next_resp_land.min(at);
        self.transit_resp.push_back((at, response));
    }

    fn pop_delivery(&mut self) -> Option<CoreDelivery> {
        self.deliveries.pop_front()
    }

    fn next_activity(&self, now: u64) -> Option<u64> {
        // A non-empty wait queue means an arbitration grant fires on the
        // very next tick; otherwise the earliest landing transit (requests
        // are FIFO with a fixed latency, so the front is the minimum) or
        // response delivery decides. Pending arrivals/deliveries count as
        // immediate activity — the caller has not consumed them yet.
        if !self.arrivals.is_empty() || !self.deliveries.is_empty() || self.bank_busy != 0 {
            return Some(now);
        }
        let t = self.next_req_land.min(self.next_resp_land);
        (t != u64::MAX).then(|| t.max(now))
    }

    fn reset(&mut self) {
        self.transit_req.clear();
        self.next_req_land = u64::MAX;
        self.next_resp_land = u64::MAX;
        self.waiting.clear();
        self.wait_mask.fill(0);
        self.bank_busy = 0;
        for arb in &mut self.arbiters {
            arb.reset();
        }
        self.arrivals.clear();
        self.transit_resp.clear();
        self.deliveries.clear();
        self.dynamic_energy = Joules::ZERO;
        self.stats = InterconnectStats::default();
        self.last_tick = None;
    }

    fn oneway_latency_hint(&self) -> u64 {
        self.latency.request_cycles
    }

    fn dynamic_energy(&self) -> Joules {
        self.dynamic_energy
    }

    fn leakage_power(&self) -> Watts {
        self.energy_model.leakage()
    }

    fn stats(&self) -> InterconnectStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::ReqKind;

    fn req(core: usize, bank: usize, tag: u64) -> MemRequest {
        MemRequest {
            core,
            home_bank: bank,
            kind: ReqKind::ReadLine,
            tag,
        }
    }

    fn run_until_arrivals(net: &mut MotNetwork, cycles: u64) -> Vec<BankArrival> {
        let mut out = Vec::new();
        for now in 0..cycles {
            net.tick(now);
            while let Some(a) = net.pop_arrival() {
                out.push(a);
            }
        }
        out
    }

    #[test]
    fn uncontended_transit_matches_derived_latency() {
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        let lat = net.latency().request_cycles;
        net.inject_request(0, req(0, 7, 1));
        let arrivals = run_until_arrivals(&mut net, lat + 3);
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].at_cycle, lat);
        assert_eq!(arrivals[0].bank, 7);
    }

    #[test]
    fn distinct_banks_are_non_blocking() {
        // All 16 cores hit 16 different banks in the same cycle: all
        // arrive together (the MoT's headline property).
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        for core in 0..16 {
            net.inject_request(0, req(core, core, core as u64));
        }
        let lat = net.latency().request_cycles;
        let arrivals = run_until_arrivals(&mut net, lat + 2);
        assert_eq!(arrivals.len(), 16);
        assert!(arrivals.iter().all(|a| a.at_cycle == lat));
    }

    #[test]
    fn same_bank_serialises_one_per_cycle() {
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        for core in 0..4 {
            net.inject_request(0, req(core, 9, core as u64));
        }
        let lat = net.latency().request_cycles;
        let arrivals = run_until_arrivals(&mut net, lat + 10);
        assert_eq!(arrivals.len(), 4);
        let times: Vec<u64> = arrivals.iter().map(|a| a.at_cycle).collect();
        assert_eq!(times, vec![lat, lat + 1, lat + 2, lat + 3]);
        // All four granted cores distinct.
        let mut cores: Vec<usize> = arrivals.iter().map(|a| a.request.core).collect();
        cores.sort();
        cores.dedup();
        assert_eq!(cores.len(), 4);
    }

    #[test]
    fn contention_round_robin_is_fair_over_time() {
        // Two cores hammer the same bank; grants must alternate.
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        let lat = net.latency().request_cycles;
        for round in 0..6u64 {
            net.inject_request(round, req(0, 3, round * 2));
            net.inject_request(round, req(1, 3, round * 2 + 1));
        }
        let arrivals = run_until_arrivals(&mut net, lat + 40);
        assert_eq!(arrivals.len(), 12);
        let cores: Vec<usize> = arrivals.iter().map(|a| a.request.core).collect();
        let zeros = cores.iter().filter(|&&c| c == 0).count();
        assert_eq!(zeros, 6, "round robin must split grants evenly: {cores:?}");
    }

    #[test]
    fn gated_state_remaps_to_active_banks() {
        let mut net = MotNetwork::date16(PowerState::pc16_mb8()).unwrap();
        net.inject_request(0, req(0, 0, 1)); // home bank 0 is gated
        let lat = net.latency().request_cycles;
        let arrivals = run_until_arrivals(&mut net, lat + 2);
        assert_eq!(arrivals.len(), 1);
        assert!(net.configuration().is_bank_active(arrivals[0].bank));
        assert_eq!(arrivals[0].bank, net.configuration().remap_bank(0));
    }

    #[test]
    fn responses_round_trip() {
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        net.inject_request(0, req(2, 11, 42));
        let lat_req = net.latency().request_cycles;
        let lat_resp = net.latency().response_cycles;
        let mut delivered = None;
        for now in 0..(lat_req + lat_resp + 10) {
            net.tick(now);
            while let Some(a) = net.pop_arrival() {
                net.inject_response(
                    now,
                    MemResponse {
                        core: a.request.core,
                        bank: a.bank,
                        kind: a.request.kind,
                        tag: a.request.tag,
                    },
                );
            }
            while let Some(d) = net.pop_delivery() {
                delivered = Some(d);
            }
        }
        let d = delivered.expect("response must come back");
        assert_eq!(d.response.tag, 42);
        assert_eq!(d.response.core, 2);
        assert_eq!(d.at_cycle, lat_req + lat_resp);
        assert_eq!(net.stats().responses, 1);
    }

    #[test]
    fn energy_accrues_per_transaction() {
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        assert_eq!(net.dynamic_energy(), Joules::ZERO);
        net.inject_request(0, req(0, 1, 1));
        let after_one = net.dynamic_energy();
        assert!(after_one.pj() > 0.0);
        net.inject_request(0, req(1, 2, 2));
        let after_two = net.dynamic_energy();
        assert!((after_two / after_one - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power-gated")]
    fn gated_core_cannot_inject() {
        let mut net = MotNetwork::date16(PowerState::pc4_mb32()).unwrap();
        // PC4 keeps cores {6,7,8,9}; core 0 is gated.
        net.inject_request(0, req(0, 1, 1));
    }

    #[test]
    fn stats_track_contention() {
        let mut net = MotNetwork::date16(PowerState::full()).unwrap();
        for core in 0..8 {
            net.inject_request(0, req(core, 5, core as u64));
        }
        let lat = net.latency().request_cycles;
        let _ = run_until_arrivals(&mut net, lat + 20);
        let s = net.stats();
        assert_eq!(s.requests, 8);
        assert_eq!(s.max_request_latency, lat + 7);
        assert!(s.mean_request_latency() > lat as f64);
    }
}
