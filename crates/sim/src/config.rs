//! Simulation configuration (Table I).

use mot3d_mem::dram::DramKind;
use mot3d_mot::power_state::PowerState;
use mot3d_noc::NocTopologyKind;

/// Which interconnect connects cores to the stacked L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectChoice {
    /// The paper's reconfigurable circuit-switched 3-D MoT.
    Mot,
    /// One of the packet-switched baselines (§IV / Fig. 6).
    Noc(NocTopologyKind),
}

impl std::fmt::Display for InterconnectChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterconnectChoice::Mot => write!(f, "3-D MoT"),
            InterconnectChoice::Noc(kind) => write!(f, "{kind}"),
        }
    }
}

/// Full cluster configuration for one run.
///
/// Hashable so callers can key results (or clusters of their own) by
/// configuration. No field changes the geometry of a cluster's arrays,
/// which is what lets [`crate::Cluster::retarget`] take a live cluster
/// to any other value of this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Interconnect under test.
    pub interconnect: InterconnectChoice,
    /// Power state (baseline NoCs only support `Full`).
    pub power_state: PowerState,
    /// DRAM option (Table I: 200/63/42 ns).
    pub dram: DramKind,
    /// Use the open-page DRAM refinement instead of the paper's flat
    /// latency.
    pub dram_open_page: bool,
    /// Seed for the workload streams.
    pub seed: u64,
    /// Run the cluster against a golden memory and panic on any load
    /// mismatch (tests; slows the run slightly).
    pub check_golden: bool,
    /// Cycles one Miss-bus line transfer occupies (32 B over a 64-bit
    /// bus).
    pub miss_bus_occupancy: u64,
    /// Safety valve: abort if a run exceeds this many cycles.
    pub max_cycles: u64,
}

impl SimConfig {
    /// The paper's default setup: 3-D MoT, full connection, 200 ns DRAM.
    pub fn date16() -> Self {
        SimConfig {
            interconnect: InterconnectChoice::Mot,
            power_state: PowerState::full(),
            dram: DramKind::OffChipDdr3,
            dram_open_page: false,
            seed: 0x0DA7E2016,
            check_golden: false,
            miss_bus_occupancy: 4,
            max_cycles: 500_000_000,
        }
    }

    /// Same configuration with a different interconnect.
    pub fn with_interconnect(mut self, interconnect: InterconnectChoice) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Same configuration with a different power state.
    pub fn with_power_state(mut self, state: PowerState) -> Self {
        self.power_state = state;
        self
    }

    /// Same configuration with a different DRAM option.
    pub fn with_dram(mut self, dram: DramKind) -> Self {
        self.dram = dram;
        self
    }

    /// Same configuration with the open-page DRAM refinement toggled.
    pub fn with_open_page(mut self, open_page: bool) -> Self {
        self.dram_open_page = open_page;
        self
    }
}

impl Default for SimConfig {
    /// Defaults to [`SimConfig::date16`].
    fn default() -> Self {
        SimConfig::date16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date16_defaults_match_table1() {
        let c = SimConfig::date16();
        assert_eq!(c.dram, DramKind::OffChipDdr3);
        assert_eq!(c.power_state, PowerState::full());
        assert_eq!(c.interconnect, InterconnectChoice::Mot);
        assert!(!c.dram_open_page);
    }

    #[test]
    fn builder_methods_update_fields() {
        let c = SimConfig::date16()
            .with_dram(DramKind::WideIo)
            .with_power_state(PowerState::pc4_mb8())
            .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d));
        assert_eq!(c.dram, DramKind::WideIo);
        assert_eq!(c.power_state, PowerState::pc4_mb8());
        assert!(matches!(c.interconnect, InterconnectChoice::Noc(_)));
    }

    #[test]
    fn display_names() {
        assert_eq!(InterconnectChoice::Mot.to_string(), "3-D MoT");
        assert_eq!(
            InterconnectChoice::Noc(NocTopologyKind::Mesh3d).to_string(),
            "True 3-D Mesh"
        );
    }
}
