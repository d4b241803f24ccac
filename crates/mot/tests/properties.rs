//! Property-based tests for the MoT invariants (DESIGN.md §5).

mod fabric;

use fabric::RoutingFabric;
use mot3d_mot::network::MotNetwork;
use mot3d_mot::power_state::PowerState;
use mot3d_mot::reconfig::MotConfiguration;
use mot3d_mot::switch::{ArbitrationTree, RoutingMode};
use mot3d_mot::topology::{MotTopology, SwitchAddr};
use mot3d_mot::traits::{Interconnect, MemRequest, ReqKind};
use proptest::prelude::*;

/// Power-of-two strategy in [2, max].
fn pow2(max_log: u32) -> impl Strategy<Value = usize> {
    (1..=max_log).prop_map(|l| 1usize << l)
}

/// A power state that fits 16 cores × 32 banks with ≥ 2 live each.
fn fitting_state() -> impl Strategy<Value = PowerState> {
    (pow2(4), pow2(5)).prop_map(|(c, b)| PowerState::new(c, b).expect("powers of two"))
}

proptest! {
    /// The bank remap is always onto active banks, perfectly balanced
    /// (each live bank absorbs exactly B/B_a home indices), and the
    /// identity on live banks.
    #[test]
    fn remap_balanced_and_idempotent(state in fitting_state()) {
        let cfg = MotConfiguration::new(MotTopology::date16(), state).unwrap();
        let banks = 32;
        let mut load = vec![0usize; banks];
        for h in 0..banks {
            let p = cfg.remap_bank(h);
            prop_assert!(cfg.is_bank_active(p), "{h} → {p} inactive");
            prop_assert_eq!(cfg.remap_bank(p), p, "remap not idempotent at {}", p);
            load[p] += 1;
        }
        let expect = banks / state.active_banks();
        for (b, &l) in load.iter().enumerate() {
            if cfg.is_bank_active(b) {
                prop_assert_eq!(l, expect, "bank {} load", b);
            } else {
                prop_assert_eq!(l, 0usize, "gated bank {} got traffic", b);
            }
        }
    }

    /// Walking every home bank's route through the switch modes lands on
    /// the remapped bank without ever touching an `Off` switch.
    #[test]
    fn switch_modes_realise_the_remap(state in fitting_state()) {
        let topo = MotTopology::date16();
        let cfg = MotConfiguration::new(topo, state).unwrap();
        for home in 0..32usize {
            let mut idx = 0usize;
            for level in 1..=topo.routing_levels() {
                let mode = cfg.routing_mode(SwitchAddr { level, index: idx });
                let bit = (home >> topo.bit_of_level(level)) & 1 == 1;
                let port = match mode {
                    RoutingMode::Off => {
                        return Err(TestCaseError::fail(format!(
                            "home {home} crossed an off switch (level {level}, idx {idx})"
                        )))
                    }
                    RoutingMode::Conventional => mot3d_mot::switch::Port::from_bit(bit),
                    RoutingMode::UserDefined(p) => p,
                };
                idx = (idx << 1) | port.bit() as usize;
            }
            prop_assert_eq!(idx, cfg.remap_bank(home));
        }
    }

    /// Component conservation: powered + gated equals the physical
    /// inventory, and gating is monotone (smaller states never power more).
    #[test]
    fn component_counts_conserved(state in fitting_state()) {
        let topo = MotTopology::date16();
        let cfg = MotConfiguration::new(topo, state).unwrap();
        let c = cfg.counts();
        prop_assert_eq!(
            c.routing_switches + c.gated_routing_switches,
            topo.total_routing_switches()
        );
        prop_assert_eq!(
            c.arbitration_cells + c.gated_arbitration_cells,
            topo.total_arbitration_cells()
        );
        let full = MotConfiguration::new(topo, PowerState::full()).unwrap().counts();
        prop_assert!(c.routing_switches <= full.routing_switches);
        prop_assert!(c.arbitration_cells <= full.arbitration_cells);
    }

    /// Round-robin tree arbitration is starvation-free: under any fixed
    /// request pattern, every requester is granted within `n` rounds.
    #[test]
    fn arbitration_tree_starvation_free(
        n_log in 1u32..5,
        pattern in prop::collection::vec(any::<bool>(), 1..32),
    ) {
        let n = 1usize << n_log;
        let mut requests = vec![false; n];
        for (i, &p) in pattern.iter().enumerate() {
            requests[i % n] |= p;
        }
        if !requests.iter().any(|&r| r) {
            return Ok(());
        }
        let mut tree = ArbitrationTree::new(n);
        let requesters: Vec<usize> =
            (0..n).filter(|&i| requests[i]).collect();
        let mut last_grant = vec![0usize; n];
        for round in 1..=(3 * n) {
            let g = tree.grant(&requests).expect("requests pending");
            prop_assert!(requests[g], "granted a non-requester");
            last_grant[g] = round;
        }
        for &r in &requesters {
            prop_assert!(
                last_grant[r] > 0,
                "requester {} starved over {} rounds ({} requesters)",
                r, 3 * n, requesters.len()
            );
            // And recently: within the last n rounds.
            prop_assert!(
                last_grant[r] > 2 * n,
                "requester {} not granted in the final n rounds", r
            );
        }
    }

    /// The structural switch fabric (gate-level walk through Fig. 3
    /// cells) realises exactly the arithmetic remap, for every reachable
    /// power state and home bank.
    #[test]
    fn fabric_equals_remap(state in fitting_state()) {
        let cfg = MotConfiguration::new(MotTopology::date16(), state).unwrap();
        let fabric = RoutingFabric::configure(&cfg);
        for home in 0..32 {
            prop_assert_eq!(fabric.route(home), Some(cfg.remap_bank(home)),
                "{}: home {}", state, home);
        }
    }

    /// Derived latency is monotone: gating cores or banks never makes the
    /// round trip slower.
    #[test]
    fn latency_monotone_under_gating(state in fitting_state()) {
        let full = MotNetwork::date16(PowerState::full()).unwrap().latency();
        let gated = MotNetwork::date16(state).unwrap().latency();
        prop_assert!(gated.round_trip() <= full.round_trip(),
            "{state}: {:?} vs full {:?}", gated, full);
    }

    /// Network conservation: every injected request arrives exactly once,
    /// at an active bank, and never before the uncontended latency.
    #[test]
    fn network_delivers_every_request_once(
        state in fitting_state(),
        picks in prop::collection::vec((0usize..16, 0usize..32), 1..40),
    ) {
        let mut net = MotNetwork::date16(state).unwrap();
        let cores = net.configuration().active_cores();
        let lat = net.latency().request_cycles;
        let mut injected = 0u64;
        for (i, (c, b)) in picks.iter().enumerate() {
            let core = cores[c % cores.len()];
            net.inject_request(0, MemRequest {
                core,
                home_bank: *b,
                kind: ReqKind::ReadLine,
                tag: i as u64,
            });
            injected += 1;
        }
        let mut seen = mot3d_phys::fnv::FnvHashSet::default();
        for now in 0..(lat + injected + 8) {
            net.tick(now);
            while let Some(a) = net.pop_arrival() {
                prop_assert!(a.at_cycle >= lat, "arrived before the wire allows");
                prop_assert!(net.configuration().is_bank_active(a.bank));
                prop_assert!(seen.insert(a.request.tag), "duplicate tag {}", a.request.tag);
            }
        }
        prop_assert_eq!(seen.len() as u64, injected, "lost requests");
    }
}
