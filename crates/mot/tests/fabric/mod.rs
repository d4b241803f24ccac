//! Structural (gate-accurate) model of one core's routing tree: a test
//! reference, not part of the crate.
//!
//! [`MotConfiguration`] computes routes *behaviourally* (bit arithmetic).
//! This module instantiates the actual fabric of Fig. 2(a)/Fig. 4 — one
//! [`RoutingSwitch`] cell per tree node, each driven by its own
//! `ctr_1/ctr_0` control pair — and routes packets by walking signals
//! through the cells. It exists for the same reason RTL exists next to a
//! spec: to prove the control plane (`routing_mode`) and the arithmetic
//! remap agree with what the circuit actually does, switch by switch. The
//! equivalence is checked by the unit tests here and by
//! `fabric_equals_remap` in `properties.rs`.

mod switch;

use mot3d_mot::reconfig::MotConfiguration;
use mot3d_mot::topology::{MotTopology, SwitchAddr};
use switch::{from_ctr, to_ctr, RoutingSwitch};

/// One core's routing tree, as physical switch instances.
#[derive(Debug, Clone)]
pub struct RoutingFabric {
    topology: MotTopology,
    /// Levels 1..=L, each `2^(level-1)` switch cells.
    levels: Vec<Vec<RoutingSwitch>>,
}

impl RoutingFabric {
    /// Builds the tree with every switch in conventional mode.
    pub fn new(topology: MotTopology) -> Self {
        let levels = (1..=topology.routing_levels())
            .map(|l| vec![RoutingSwitch::new(); topology.switches_in_level(l)])
            .collect();
        RoutingFabric { topology, levels }
    }

    /// Builds the tree and drives every switch's control pair from the
    /// configuration's control plane (what the power-management unit
    /// would program over the `ctr` wires, Fig. 3(b)).
    pub fn configure(cfg: &MotConfiguration) -> Self {
        let mut fabric = RoutingFabric::new(cfg.topology());
        for level in 1..=fabric.topology.routing_levels() {
            for index in 0..fabric.topology.switches_in_level(level) {
                let mode = cfg.routing_mode(SwitchAddr { level, index });
                // Round-trip through the physical control encoding.
                let (c1, c0) = to_ctr(mode);
                fabric.levels[(level - 1) as usize][index].set_mode(from_ctr(c1, c0));
            }
        }
        fabric
    }

    /// Routes a packet addressed to home bank `home` through the switch
    /// cells; returns the physical bank it lands on, or `None` if it hit
    /// a power-gated switch (a control-plane bug).
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn route(&self, home: usize) -> Option<usize> {
        assert!(home < self.topology.banks(), "bank {home} out of range");
        let mut index = 0usize;
        for level in 1..=self.topology.routing_levels() {
            let bit = (home >> self.topology.bit_of_level(level)) & 1 == 1;
            let port = self.levels[(level - 1) as usize][index].route(bit)?;
            index = (index << 1) | port.bit() as usize;
        }
        Some(index)
    }

    /// Number of powered switch instances.
    pub fn powered_switches(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .filter(|s| s.is_powered())
            .count()
    }

    /// Total switch instances (`banks − 1`).
    pub fn total_switches(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_mot::power_state::PowerState;

    fn fabric_for(state: PowerState) -> (RoutingFabric, MotConfiguration) {
        let cfg = MotConfiguration::new(MotTopology::date16(), state).unwrap();
        (RoutingFabric::configure(&cfg), cfg)
    }

    #[test]
    fn circuit_lands_every_packet_where_the_remap_says() {
        let cfg = MotConfiguration::new(MotTopology::date16(), PowerState::pc16_mb8()).unwrap();
        let fabric = RoutingFabric::configure(&cfg);
        for home in 0..32 {
            assert_eq!(fabric.route(home), Some(cfg.remap_bank(home)));
        }
    }

    #[test]
    fn unconfigured_fabric_is_the_identity() {
        let fabric = RoutingFabric::new(MotTopology::date16());
        for home in 0..32 {
            assert_eq!(fabric.route(home), Some(home));
        }
        assert_eq!(fabric.total_switches(), 31);
        assert_eq!(fabric.powered_switches(), 31);
    }

    #[test]
    fn circuit_agrees_with_arithmetic_remap_in_all_states() {
        for state in PowerState::date16_states() {
            let (fabric, cfg) = fabric_for(state);
            for home in 0..32 {
                assert_eq!(
                    fabric.route(home),
                    Some(cfg.remap_bank(home)),
                    "{state}, home {home}"
                );
            }
        }
    }

    #[test]
    fn fig4_example_structurally() {
        // 4×8 MoT with half the banks gated: the circuit must realise
        // M0→M2, M1→M3, M6→M4, M7→M5 (§III).
        let cfg = MotConfiguration::new(
            MotTopology::new(4, 8).unwrap(),
            PowerState::new(4, 4).unwrap(),
        )
        .unwrap();
        let fabric = RoutingFabric::configure(&cfg);
        assert_eq!(fabric.route(0b000), Some(0b010));
        assert_eq!(fabric.route(0b001), Some(0b011));
        assert_eq!(fabric.route(0b110), Some(0b100));
        assert_eq!(fabric.route(0b111), Some(0b101));
        assert_eq!(fabric.route(0b011), Some(0b011)); // live bank: untouched
    }

    #[test]
    fn powered_switch_count_matches_control_plane() {
        for state in PowerState::date16_states() {
            let (fabric, cfg) = fabric_for(state);
            let per_tree = cfg.counts().routing_switches / cfg.active_cores().len();
            assert_eq!(
                fabric.powered_switches(),
                per_tree,
                "{state}: fabric vs counts()"
            );
        }
    }

    #[test]
    fn gated_fabric_never_routes_to_a_gated_bank() {
        let (fabric, cfg) = fabric_for(PowerState::pc4_mb8());
        for home in 0..32 {
            let phys = fabric.route(home).expect("control plane is closed");
            assert!(
                cfg.is_bank_active(phys),
                "home {home} landed on gated {phys}"
            );
        }
    }
}
