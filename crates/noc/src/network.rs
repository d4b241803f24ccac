//! Event-driven packet-level network engine.
//!
//! Models the three baselines at the abstraction level Graphite itself
//! uses for NoCs: packets (not individual flits) move hop by hop; each
//! router output port and each vertical bus is a serialising resource
//! (`flits` cycles per packet) with FIFO service, so queueing delay under
//! contention emerges naturally; each hop costs the router pipeline plus
//! one link cycle. Wormhole flit interleaving is abstracted away —
//! at L1-miss traffic loads the port-occupancy model matches it closely,
//! and it keeps the engine exact and fast.

use std::collections::VecDeque;

use crate::packet::{Packet, Payload};
use crate::params::NocParams;
use crate::topo::{Hop, NocTopologyKind, Topology, BANKS, CORES};
use mot3d_mot::traits::{
    BankArrival, CoreDelivery, Interconnect, InterconnectStats, MemRequest, MemResponse,
};
use mot3d_phys::geometry::Floorplan;
use mot3d_phys::units::{Joules, Watts};
use mot3d_phys::wheel::TimingWheel;
use mot3d_phys::Technology;

/// Where a scheduled event takes place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Packet is at a router, ready for its next hop decision.
    AtRouter(usize),
    /// Packet completes delivery into a bank.
    DeliverBank(usize),
    /// Packet completes delivery into a core.
    DeliverCore(usize),
}

/// A packet at a location; the wheel supplies the time and tie order.
#[derive(Debug, Clone, Copy)]
struct Event {
    loc: Loc,
    packet: Packet,
}

/// A packet-switched baseline interconnect.
///
/// # Examples
///
/// ```
/// use mot3d_noc::{NocNetwork, NocTopologyKind};
/// use mot3d_mot::traits::{Interconnect, MemRequest, ReqKind};
///
/// let mut net = NocNetwork::date16(NocTopologyKind::Mesh3d);
/// net.inject_request(0, MemRequest { core: 0, home_bank: 31, kind: ReqKind::ReadLine, tag: 7 });
/// let mut arrived = None;
/// for now in 0..100 {
///     net.tick(now);
///     if let Some(a) = net.pop_arrival() { arrived = Some(a); break; }
/// }
/// assert_eq!(arrived.unwrap().bank, 31);
/// ```
#[derive(Debug)]
pub struct NocNetwork {
    topo: Topology,
    params: NocParams,
    name: String,
    /// Pending packet events, popped in exact `(time, seq)` order (the
    /// wheel owns the sequence numbering).
    events: TimingWheel<Event>,
    /// Next-free cycle of each directed router→router port, as a flat
    /// `routers × routers` table indexed `from * routers + to` — a plain
    /// load on the forwarding hot path where a `HashMap<(usize, usize),
    /// u64>` would hash and chase buckets per hop. At most 48 routers
    /// (True 3-D Mesh), so the dense table is 18 KB.
    port_free: Box<[u64]>,
    /// Router count cached for the port-table stride.
    routers: usize,
    /// Next-free cycle of each vertical bus.
    bus_free: Vec<u64>,
    arrivals: VecDeque<BankArrival>,
    deliveries: VecDeque<CoreDelivery>,
    dynamic_energy: Joules,
    stats: InterconnectStats,
    hint: u64,
}

impl NocNetwork {
    /// Builds a baseline network on an explicit technology/floorplan.
    pub fn new(tech: &Technology, floorplan: &Floorplan, kind: NocTopologyKind) -> Self {
        let topo = Topology::new(kind);
        let params = NocParams::derive(tech, floorplan, kind);
        let buses = topo.buses();
        let routers = topo.routers();
        let hint = uncontended_hint(&topo, &params);
        NocNetwork {
            topo,
            params,
            name: kind.to_string(),
            events: TimingWheel::new(),
            port_free: vec![0; routers * routers].into_boxed_slice(),
            routers,
            bus_free: vec![0; buses],
            arrivals: VecDeque::new(),
            deliveries: VecDeque::new(),
            dynamic_energy: Joules::ZERO,
            stats: InterconnectStats::default(),
            hint,
        }
    }

    /// The paper's cluster on the calibrated node.
    pub fn date16(kind: NocTopologyKind) -> Self {
        NocNetwork::new(&Technology::lp45(), &Floorplan::date16(), kind)
    }

    // --- Observability probes (read-only, allocation-free) ---

    /// Directed router→router ports still serialising a packet at `now`.
    pub fn busy_ports(&self, now: u64) -> usize {
        self.port_free.iter().filter(|&&free| free > now).count()
    }

    /// Vertical buses still serialising a packet at `now`.
    pub fn busy_buses(&self, now: u64) -> usize {
        self.bus_free.iter().filter(|&&free| free > now).count()
    }

    /// Routers in the topology (the port table is `routers × routers`).
    pub fn router_count(&self) -> usize {
        self.routers
    }

    fn push(&mut self, time: u64, loc: Loc, packet: Packet) {
        self.events.schedule(time, Event { loc, packet });
    }

    /// Boards a bus: waits for the bus to free, transfers the whole
    /// packet (a bus has no cut-through — `flits × cycles_per_flit`).
    /// Returns the cycle the transfer completes.
    fn board_bus(&mut self, bus: usize, at: u64, flits: u64) -> u64 {
        let start = (at + self.params.bus_arb_cycles).max(self.bus_free[bus]);
        let end = start + flits * self.params.bus_cycles_per_flit;
        self.bus_free[bus] = end + self.params.bus_turnaround_cycles;
        self.dynamic_energy += self.params.bus_energy_per_flit * flits as f64;
        end
    }

    /// Forwards over a router→router port. Virtual cut-through: the head
    /// proceeds after the router pipeline + link; the packet's flits
    /// occupy the output port for `flits` cycles (the bandwidth limit that
    /// creates queueing), and the tail-drain serialisation is charged once
    /// at ejection rather than per hop.
    fn forward(&mut self, from: usize, to: usize, at: u64, mut packet: Packet) {
        let flits = packet.flits();
        let port = &mut self.port_free[from * self.routers + to];
        let start = (at + self.params.router_pipeline).max(*port);
        *port = start + flits;
        packet.hops += 1;
        self.dynamic_energy +=
            (self.params.router_energy_per_flit + self.params.link_energy_per_flit) * flits as f64;
        self.push(start + self.params.link_cycles, Loc::AtRouter(to), packet);
    }

    fn handle(&mut self, t: u64, ev: Event) {
        match ev.loc {
            Loc::AtRouter(r) => {
                let hop = match ev.packet.payload {
                    Payload::Request(req) => self.topo.route_to_bank(r, req.home_bank),
                    Payload::Response(resp) => self.topo.route_to_core(r, resp.core),
                };
                match hop {
                    Hop::Router(n) => self.forward(r, n, t, ev.packet),
                    Hop::Bus(b) => {
                        // Requests ride the bus up into their bank.
                        let flits = ev.packet.flits();
                        let done = self.board_bus(b, t + self.params.router_pipeline, flits);
                        match ev.packet.payload {
                            Payload::Request(req) => {
                                self.push(done, Loc::DeliverBank(req.home_bank), ev.packet)
                            }
                            Payload::Response(_) => {
                                unreachable!("responses never board a bus from a router")
                            }
                        }
                    }
                    Hop::Eject => {
                        // Tail drain: the whole packet serialises out of
                        // the local port (charged once, cut-through).
                        let drain = ev.packet.flits();
                        match ev.packet.payload {
                            Payload::Request(req) => {
                                self.push(t + drain, Loc::DeliverBank(req.home_bank), ev.packet)
                            }
                            Payload::Response(resp) => {
                                self.push(t + drain, Loc::DeliverCore(resp.core), ev.packet)
                            }
                        }
                    }
                }
            }
            Loc::DeliverBank(bank) => {
                let Payload::Request(req) = ev.packet.payload else {
                    unreachable!("only requests are delivered to banks");
                };
                let transit = t.saturating_sub(ev.packet.injected_at);
                self.stats.total_request_latency += transit;
                self.stats.max_request_latency = self.stats.max_request_latency.max(transit);
                self.arrivals.push_back(BankArrival {
                    request: req,
                    bank,
                    at_cycle: t,
                });
            }
            Loc::DeliverCore(_) => {
                let Payload::Response(resp) = ev.packet.payload else {
                    unreachable!("only responses are delivered to cores");
                };
                self.stats.responses += 1;
                self.deliveries.push_back(CoreDelivery {
                    response: resp,
                    at_cycle: t,
                });
            }
        }
    }
}

/// Mean uncontended one-way request latency over all (core, bank) pairs.
fn uncontended_hint(topo: &Topology, params: &NocParams) -> u64 {
    let mut total = 0u64;
    let mut pairs = 0u64;
    for core in 0..CORES {
        for bank in 0..BANKS {
            let mut at = topo.core_router(core);
            let mut cycles = 1u64; // injection
            loop {
                match topo.route_to_bank(at, bank) {
                    Hop::Router(n) => {
                        cycles += params.hop_latency() + 1; // +1 head serialisation
                        at = n;
                    }
                    Hop::Bus(_) => {
                        cycles += params.router_pipeline + params.bus_arb_cycles + 1;
                        break;
                    }
                    Hop::Eject => {
                        cycles += 1;
                        break;
                    }
                }
            }
            total += cycles;
            pairs += 1;
        }
    }
    (total + pairs / 2) / pairs
}

impl Interconnect for NocNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: u64) {
        while let Some((t, ev)) = self.events.pop_due(now) {
            self.handle(t, ev);
        }
    }

    fn inject_request(&mut self, now: u64, request: MemRequest) {
        assert!(request.core < CORES, "core {} out of range", request.core);
        assert!(
            request.home_bank < BANKS,
            "bank {} out of range",
            request.home_bank
        );
        self.stats.requests += 1;
        let packet = Packet::request(now, request);
        // One injection-link cycle into the core's router.
        self.push(
            now + 1,
            Loc::AtRouter(self.topo.core_router(request.core)),
            packet,
        );
    }

    fn pop_arrival(&mut self) -> Option<BankArrival> {
        self.arrivals.pop_front()
    }

    fn inject_response(&mut self, now: u64, response: MemResponse) {
        assert!(response.bank < BANKS, "bank {} out of range", response.bank);
        let packet = Packet::response(now, response);
        match self.topo.kind() {
            NocTopologyKind::Mesh3d => {
                #[expect(
                    clippy::expect_used,
                    reason = "Mesh3d arm: bank_router is Some for every bank there"
                )]
                let router = self
                    .topo
                    .bank_router(response.bank)
                    .expect("mesh banks have routers");
                self.push(now + 1, Loc::AtRouter(router), packet);
            }
            _ => {
                // Bus topologies: the response rides the bus down first.
                #[expect(
                    clippy::expect_used,
                    reason = "non-mesh arm: bank_bus is Some for every bank there"
                )]
                let bus = self
                    .topo
                    .bank_bus(response.bank)
                    .expect("bus topologies attach banks to buses");
                let flits = packet.flits();
                let done = self.board_bus(bus, now, flits);
                let router = self.topo.bus_router(bus);
                self.push(done, Loc::AtRouter(router), packet);
            }
        }
    }

    fn pop_delivery(&mut self) -> Option<CoreDelivery> {
        self.deliveries.pop_front()
    }

    fn next_activity(&self, now: u64) -> Option<u64> {
        // The engine is already event-driven internally: the next scheduled
        // packet event is the only thing that can change state. Pending
        // arrivals/deliveries the caller has not popped count as immediate.
        if !self.arrivals.is_empty() || !self.deliveries.is_empty() {
            return Some(now);
        }
        self.events.next_time().map(|t| t.max(now))
    }

    fn reset(&mut self) {
        self.events.clear();
        self.port_free.fill(0);
        self.bus_free.fill(0);
        self.arrivals.clear();
        self.deliveries.clear();
        self.dynamic_energy = Joules::ZERO;
        self.stats = InterconnectStats::default();
    }

    fn oneway_latency_hint(&self) -> u64 {
        self.hint
    }

    fn dynamic_energy(&self) -> Joules {
        self.dynamic_energy
    }

    fn leakage_power(&self) -> Watts {
        self.params.leakage
    }

    fn stats(&self) -> InterconnectStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_mot::traits::ReqKind;

    fn req(core: usize, bank: usize, tag: u64) -> MemRequest {
        MemRequest {
            core,
            home_bank: bank,
            kind: ReqKind::ReadLine,
            tag,
        }
    }

    /// Drives the network until `n` arrivals (or panics after `horizon`).
    fn collect_arrivals(net: &mut NocNetwork, n: usize, horizon: u64) -> Vec<BankArrival> {
        let mut out = Vec::new();
        for now in 0..horizon {
            net.tick(now);
            while let Some(a) = net.pop_arrival() {
                out.push(a);
            }
            if out.len() >= n {
                return out;
            }
        }
        panic!(
            "only {} of {} arrivals within {} cycles",
            out.len(),
            n,
            horizon
        );
    }

    #[test]
    fn every_topology_delivers_requests() {
        for kind in NocTopologyKind::all() {
            let mut net = NocNetwork::date16(kind);
            net.inject_request(0, req(0, 31, 1));
            let arr = collect_arrivals(&mut net, 1, 200);
            assert_eq!(arr[0].bank, 31, "{kind}");
            assert_eq!(arr[0].request.tag, 1);
        }
    }

    #[test]
    fn every_topology_round_trips_responses() {
        for kind in NocTopologyKind::all() {
            let mut net = NocNetwork::date16(kind);
            net.inject_request(0, req(3, 17, 9));
            let mut delivered = None;
            for now in 0..300 {
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
                if let Some(d) = net.pop_delivery() {
                    delivered = Some(d);
                    break;
                }
            }
            let d = delivered.unwrap_or_else(|| panic!("{kind}: no delivery"));
            assert_eq!(d.response.core, 3, "{kind}");
            assert_eq!(d.response.tag, 9);
        }
    }

    #[test]
    fn no_request_is_lost_or_duplicated_under_load() {
        for kind in NocTopologyKind::all() {
            let mut net = NocNetwork::date16(kind);
            let mut tag = 0u64;
            for core in 0..CORES {
                for bank in [0usize, 13, 31] {
                    net.inject_request(0, req(core, bank, tag));
                    tag += 1;
                }
            }
            let arrivals = collect_arrivals(&mut net, tag as usize, 5_000);
            let mut tags: Vec<u64> = arrivals.iter().map(|a| a.request.tag).collect();
            tags.sort();
            tags.dedup();
            assert_eq!(tags.len() as u64, tag, "{kind}: lost/duplicated packets");
        }
    }

    #[test]
    fn mesh_transit_matches_hop_count() {
        // Core 0 → bank 31: 9 router hops (Fig.-style DOR), uncontended.
        let mut net = NocNetwork::date16(NocTopologyKind::Mesh3d);
        net.inject_request(0, req(0, 31, 1));
        let arr = collect_arrivals(&mut net, 1, 200);
        let hops = 8; // 3 X + 3 Y + 2 Z (see topo::tests::mesh3d_dor...)
                      // Cut-through: injection(1) + hops·(pipeline 2 + link 1) + tail
                      // drain (1 flit).
        let expect = 1 + hops * 3 + 1;
        assert_eq!(arr[0].at_cycle, expect, "transit {}", arr[0].at_cycle);
    }

    #[test]
    fn bus_tree_congests_worse_than_bus_mesh() {
        // The paper's Fig. 6 inversion: with every core hitting banks of
        // one quadrant, the tree's single shared bus queues far deeper
        // than the mesh's per-position pillars.
        let run = |kind: NocTopologyKind| -> f64 {
            let mut net = NocNetwork::date16(kind);
            let mut tag = 0;
            for core in 0..CORES {
                for bank in [0usize, 1, 16, 17] {
                    net.inject_request(0, req(core, bank, tag));
                    tag += 1;
                }
            }
            let _ = collect_arrivals(&mut net, tag as usize, 10_000);
            net.stats().mean_request_latency()
        };
        let mesh = run(NocTopologyKind::HybridBusMesh);
        let tree = run(NocTopologyKind::HybridBusTree);
        assert!(
            tree > mesh,
            "tree should congest worse: tree {tree:.1} vs mesh {mesh:.1}"
        );
    }

    #[test]
    fn hints_reflect_topology_hop_counts() {
        let mesh3d = NocNetwork::date16(NocTopologyKind::Mesh3d);
        let bus_mesh = NocNetwork::date16(NocTopologyKind::HybridBusMesh);
        let bus_tree = NocNetwork::date16(NocTopologyKind::HybridBusTree);
        // Bus-Mesh avoids per-hop Z routers: cheaper than the true mesh.
        assert!(bus_mesh.oneway_latency_hint() < mesh3d.oneway_latency_hint());
        // Bus-Tree has the fewest hops of all (uncontended).
        assert!(bus_tree.oneway_latency_hint() < bus_mesh.oneway_latency_hint());
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut net = NocNetwork::date16(NocTopologyKind::Mesh3d);
        net.inject_request(0, req(0, 31, 0));
        let _ = collect_arrivals(&mut net, 1, 200);
        let one = net.dynamic_energy();
        net.inject_request(100, req(0, 31, 1)); // identical route: same cost
        net.inject_request(100, req(5, 20, 2)); // shorter route: some cost
        for now in 100..300 {
            net.tick(now);
            while net.pop_arrival().is_some() {}
        }
        assert!(net.dynamic_energy() > one * 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_core() {
        let mut net = NocNetwork::date16(NocTopologyKind::Mesh3d);
        net.inject_request(0, req(99, 0, 0));
    }
}
