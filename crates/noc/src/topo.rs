//! The three packet-switched 3-D topologies of the paper's comparison
//! (§IV): True 3-D Mesh, 3-D Hybrid Bus-Mesh (Li et al., ISCA'06) and
//! 3-D Hybrid Bus-Tree (Madan et al., HPCA'09).
//!
//! All three serve the same cluster: 16 cores on a 4 × 4 grid (layer 0)
//! and 32 banks on two stacked 4 × 4 layers.
//!
//! * **True 3-D Mesh** — every core and every bank has a router; links run
//!   ±x, ±y in-plane and ±z through TSVs; routing is dimension-ordered
//!   X→Y→Z (deadlock-free).
//! * **Hybrid Bus-Mesh** — routers only on the core layer; each grid
//!   position carries a vertical dTDMA bus pillar serving the 2 banks
//!   stacked above it. Packets mesh-route in-plane, then ride the bus.
//! * **Hybrid Bus-Tree** — four quadrant routers under one root router
//!   replace the mesh (fewer in-plane hops); each quadrant router hosts
//!   one bus pillar serving all 8 banks of its quadrant (2 tiers × 4
//!   positions). Fewer hops, but 4× more traffic per bus — the contention
//!   that makes it the worst performer in Fig. 6.

use std::fmt;

/// Grid side of the core layer (4 × 4 = 16 cores).
pub const GRID: usize = 4;
/// Number of cores.
pub const CORES: usize = GRID * GRID;
/// Number of banks (two stacked layers).
pub const BANKS: usize = 2 * CORES;

/// Which baseline topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NocTopologyKind {
    /// True 3-D Mesh with per-bank routers and Z links.
    Mesh3d,
    /// 2-D mesh on the core layer + one vertical bus per grid position.
    HybridBusMesh,
    /// Quadrant tree on the core layer + one vertical bus per quadrant.
    HybridBusTree,
}

impl NocTopologyKind {
    /// All three baselines in the paper's order.
    pub fn all() -> [NocTopologyKind; 3] {
        [
            NocTopologyKind::Mesh3d,
            NocTopologyKind::HybridBusMesh,
            NocTopologyKind::HybridBusTree,
        ]
    }
}

impl fmt::Display for NocTopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocTopologyKind::Mesh3d => write!(f, "True 3-D Mesh"),
            NocTopologyKind::HybridBusMesh => write!(f, "3-D Hybrid Bus-Mesh"),
            NocTopologyKind::HybridBusTree => write!(f, "3-D Hybrid Bus-Tree"),
        }
    }
}

/// (x, y) of a core-layer grid position `p ∈ 0..16` (row-major).
pub fn grid_xy(p: usize) -> (usize, usize) {
    (p % GRID, p / GRID)
}

/// Grid position of an (x, y).
pub fn grid_pos(x: usize, y: usize) -> usize {
    y * GRID + x
}

/// The quadrant (0..4) of a grid position: 2 × 2 blocks, row-major.
pub fn quadrant(p: usize) -> usize {
    let (x, y) = grid_xy(p);
    (y / 2) * 2 + x / 2
}

/// Where a hop goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// Forward to another router.
    Router(usize),
    /// Board vertical bus `bus` (the endpoint is resolved by the engine
    /// from the packet's destination).
    Bus(usize),
    /// The packet is at its destination router: eject locally.
    Eject,
}

/// A resolved topology: routers, a routing function, bus layout, and the
/// geometry needed for energy accounting.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: NocTopologyKind,
}

impl Topology {
    /// Builds the topology graph for `kind`.
    pub fn new(kind: NocTopologyKind) -> Self {
        Topology { kind }
    }

    /// Which baseline this is.
    pub fn kind(&self) -> NocTopologyKind {
        self.kind
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        match self.kind {
            // 16 core + 32 bank routers.
            NocTopologyKind::Mesh3d => CORES + BANKS,
            // Core-layer mesh only.
            NocTopologyKind::HybridBusMesh => CORES,
            // 4 quadrant routers + 1 root.
            NocTopologyKind::HybridBusTree => 5,
        }
    }

    /// Number of vertical buses.
    pub fn buses(&self) -> usize {
        match self.kind {
            NocTopologyKind::Mesh3d => 0,
            NocTopologyKind::HybridBusMesh => CORES, // one pillar per position
            NocTopologyKind::HybridBusTree => 4,     // one per quadrant
        }
    }

    /// The router where core `c` injects/ejects.
    pub fn core_router(&self, core: usize) -> usize {
        assert!(core < CORES, "core {core} out of range");
        match self.kind {
            NocTopologyKind::Mesh3d | NocTopologyKind::HybridBusMesh => core,
            NocTopologyKind::HybridBusTree => quadrant(core),
        }
    }

    /// The router co-located with bank `b` (Mesh3d only).
    pub fn bank_router(&self, bank: usize) -> Option<usize> {
        assert!(bank < BANKS, "bank {bank} out of range");
        match self.kind {
            NocTopologyKind::Mesh3d => Some(CORES + bank),
            _ => None,
        }
    }

    /// The bus serving bank `b` (bus topologies only).
    pub fn bank_bus(&self, bank: usize) -> Option<usize> {
        assert!(bank < BANKS, "bank {bank} out of range");
        match self.kind {
            NocTopologyKind::Mesh3d => None,
            NocTopologyKind::HybridBusMesh => Some(bank % CORES),
            NocTopologyKind::HybridBusTree => Some(quadrant(bank % CORES)),
        }
    }

    /// The router a bus connects to on the core layer.
    pub fn bus_router(&self, bus: usize) -> usize {
        match self.kind {
            #[expect(
                clippy::panic,
                reason = "callers reach here only via a Some(bank_bus) bus id"
            )]
            NocTopologyKind::Mesh3d => panic!("Mesh3d has no buses"),
            NocTopologyKind::HybridBusMesh => bus,
            NocTopologyKind::HybridBusTree => bus, // quadrant router id == bus id
        }
    }

    /// Routing step: where does a packet at router `at`, destined to bank
    /// `bank` (request) go next?
    pub fn route_to_bank(&self, at: usize, bank: usize) -> Hop {
        match self.kind {
            NocTopologyKind::Mesh3d => {
                let dst = CORES + bank;
                if at == dst {
                    return Hop::Eject;
                }
                Hop::Router(self.mesh3d_next(at, dst))
            }
            NocTopologyKind::HybridBusMesh => {
                let pillar = bank % CORES;
                if at == pillar {
                    Hop::Bus(pillar)
                } else {
                    Hop::Router(self.mesh2d_next(at, pillar))
                }
            }
            NocTopologyKind::HybridBusTree => {
                let q = quadrant(bank % CORES);
                if at == q {
                    Hop::Bus(q)
                } else if at == 4 {
                    Hop::Router(q) // root → quadrant
                } else {
                    Hop::Router(4) // quadrant → root
                }
            }
        }
    }

    /// Routing step for responses: at router `at`, destined to core
    /// `core`.
    pub fn route_to_core(&self, at: usize, core: usize) -> Hop {
        match self.kind {
            NocTopologyKind::Mesh3d => {
                if at == core {
                    return Hop::Eject;
                }
                Hop::Router(self.mesh3d_next(at, core))
            }
            NocTopologyKind::HybridBusMesh => {
                if at == core {
                    Hop::Eject
                } else {
                    Hop::Router(self.mesh2d_next(at, core))
                }
            }
            NocTopologyKind::HybridBusTree => {
                let q = quadrant(core);
                if at == q {
                    Hop::Eject
                } else if at == 4 {
                    Hop::Router(q)
                } else {
                    Hop::Router(4)
                }
            }
        }
    }

    /// Dimension-order next hop on the core-layer 2-D mesh.
    fn mesh2d_next(&self, at: usize, dst: usize) -> usize {
        let (x, y) = grid_xy(at);
        let (dx, dy) = grid_xy(dst);
        if x != dx {
            grid_pos(if x < dx { x + 1 } else { x - 1 }, y)
        } else {
            grid_pos(x, if y < dy { y + 1 } else { y - 1 })
        }
    }

    /// X→Y→Z dimension-order next hop on the 3-D mesh.
    fn mesh3d_next(&self, at: usize, dst: usize) -> usize {
        let (al, ap) = (at / CORES, at % CORES);
        let (dl, dp) = (dst / CORES, dst % CORES);
        let (x, y) = grid_xy(ap);
        let (dx, dy) = grid_xy(dp);
        if x != dx {
            al * CORES + grid_pos(if x < dx { x + 1 } else { x - 1 }, y)
        } else if y != dy {
            al * CORES + grid_pos(x, if y < dy { y + 1 } else { y - 1 })
        } else if al < dl {
            (al + 1) * CORES + ap
        } else {
            (al - 1) * CORES + ap
        }
    }

    /// In-plane hop count from router `a` to router `b` (for hint/energy
    /// estimates). For Mesh3d, includes Z hops.
    pub fn hop_distance(&self, a: usize, b: usize) -> usize {
        match self.kind {
            NocTopologyKind::Mesh3d => {
                let (al, ap) = (a / CORES, a % CORES);
                let (bl, bp) = (b / CORES, b % CORES);
                let (ax, ay) = grid_xy(ap);
                let (bx, by) = grid_xy(bp);
                ax.abs_diff(bx) + ay.abs_diff(by) + al.abs_diff(bl)
            }
            NocTopologyKind::HybridBusMesh => {
                let (ax, ay) = grid_xy(a);
                let (bx, by) = grid_xy(b);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            NocTopologyKind::HybridBusTree => {
                if a == b {
                    0
                } else if a == 4 || b == 4 {
                    1
                } else {
                    2
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_and_bus_inventories() {
        assert_eq!(Topology::new(NocTopologyKind::Mesh3d).routers(), 48);
        assert_eq!(Topology::new(NocTopologyKind::Mesh3d).buses(), 0);
        assert_eq!(Topology::new(NocTopologyKind::HybridBusMesh).routers(), 16);
        assert_eq!(Topology::new(NocTopologyKind::HybridBusMesh).buses(), 16);
        assert_eq!(Topology::new(NocTopologyKind::HybridBusTree).routers(), 5);
        assert_eq!(Topology::new(NocTopologyKind::HybridBusTree).buses(), 4);
    }

    #[test]
    fn quadrants_partition_the_grid() {
        let mut counts = [0usize; 4];
        for p in 0..16 {
            counts[quadrant(p)] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
        assert_eq!(quadrant(grid_pos(0, 0)), 0);
        assert_eq!(quadrant(grid_pos(3, 0)), 1);
        assert_eq!(quadrant(grid_pos(0, 3)), 2);
        assert_eq!(quadrant(grid_pos(3, 3)), 3);
    }

    #[test]
    fn mesh3d_routes_reach_any_bank() {
        let t = Topology::new(NocTopologyKind::Mesh3d);
        for core in 0..CORES {
            for bank in 0..BANKS {
                let mut at = t.core_router(core);
                let mut hops = 0;
                loop {
                    match t.route_to_bank(at, bank) {
                        Hop::Router(n) => {
                            at = n;
                            hops += 1;
                            assert!(hops < 20, "livelock core {core} bank {bank}");
                        }
                        Hop::Eject => break,
                        Hop::Bus(_) => panic!("mesh has no buses"),
                    }
                }
                assert_eq!(at, t.bank_router(bank).unwrap());
                // DOR: hop count equals Manhattan distance.
                assert_eq!(
                    hops,
                    t.hop_distance(t.core_router(core), t.bank_router(bank).unwrap())
                );
            }
        }
    }

    #[test]
    fn mesh3d_dor_is_x_then_y_then_z() {
        let t = Topology::new(NocTopologyKind::Mesh3d);
        // Core 0 (0,0,0) to bank 31 (pos 15 = (3,3), tier 2 → layer 2).
        let mut at = 0;
        let mut trail = vec![at];
        loop {
            match t.route_to_bank(at, 31) {
                Hop::Router(n) => {
                    at = n;
                    trail.push(n);
                }
                Hop::Eject => break,
                Hop::Bus(_) => unreachable!(),
            }
        }
        // X first: 0→1→2→3; then Y: 3→7→11→15; then Z: 15→31→47.
        assert_eq!(trail, vec![0, 1, 2, 3, 7, 11, 15, 31, 47]);
    }

    #[test]
    fn bus_mesh_reaches_banks_via_their_pillar() {
        let t = Topology::new(NocTopologyKind::HybridBusMesh);
        for bank in 0..BANKS {
            let pillar = bank % CORES;
            let mut at = t.core_router(5);
            let mut hops = 0;
            let bus = loop {
                match t.route_to_bank(at, bank) {
                    Hop::Router(n) => {
                        at = n;
                        hops += 1;
                        assert!(hops < 10);
                    }
                    Hop::Bus(b) => break b,
                    Hop::Eject => panic!("banks are not on the mesh"),
                }
            };
            assert_eq!(bus, pillar);
            assert_eq!(t.bank_bus(bank), Some(pillar));
        }
    }

    #[test]
    fn bus_tree_is_at_most_two_router_hops() {
        let t = Topology::new(NocTopologyKind::HybridBusTree);
        for core in 0..CORES {
            for bank in 0..BANKS {
                let mut at = t.core_router(core);
                let mut hops = 0;
                loop {
                    match t.route_to_bank(at, bank) {
                        Hop::Router(n) => {
                            at = n;
                            hops += 1;
                            assert!(hops <= 2, "tree routes are ≤ 2 router hops");
                        }
                        Hop::Bus(b) => {
                            assert_eq!(b, quadrant(bank % CORES));
                            break;
                        }
                        Hop::Eject => panic!("banks not on tree routers"),
                    }
                }
            }
        }
    }

    #[test]
    fn bus_tree_buses_serve_eight_banks_each() {
        let t = Topology::new(NocTopologyKind::HybridBusTree);
        let mut counts = [0usize; 4];
        for bank in 0..BANKS {
            counts[t.bank_bus(bank).unwrap()] += 1;
        }
        assert_eq!(counts, [8, 8, 8, 8]);
        // vs Bus-Mesh: 2 banks per pillar — the contention asymmetry that
        // Fig. 6 punishes.
        let bm = Topology::new(NocTopologyKind::HybridBusMesh);
        let mut bm_counts = [0usize; 16];
        for bank in 0..BANKS {
            bm_counts[bm.bank_bus(bank).unwrap()] += 1;
        }
        assert!(bm_counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn responses_route_back_to_the_core() {
        for kind in NocTopologyKind::all() {
            let t = Topology::new(kind);
            for core in 0..CORES {
                // Start a response at the router/bus-router nearest bank 17.
                let mut at = match kind {
                    NocTopologyKind::Mesh3d => t.bank_router(17).unwrap(),
                    _ => t.bus_router(t.bank_bus(17).unwrap()),
                };
                let mut hops = 0;
                loop {
                    match t.route_to_core(at, core) {
                        Hop::Router(n) => {
                            at = n;
                            hops += 1;
                            assert!(hops < 20, "{kind}: livelock to core {core}");
                        }
                        Hop::Eject => break,
                        Hop::Bus(_) => panic!("{kind}: response re-boarded a bus"),
                    }
                }
                assert_eq!(at, t.core_router(core), "{kind}");
            }
        }
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(NocTopologyKind::Mesh3d.to_string(), "True 3-D Mesh");
        assert_eq!(
            NocTopologyKind::HybridBusMesh.to_string(),
            "3-D Hybrid Bus-Mesh"
        );
        assert_eq!(
            NocTopologyKind::HybridBusTree.to_string(),
            "3-D Hybrid Bus-Tree"
        );
    }
}
