//! The reconfiguration control plane (§III, Fig. 4).
//!
//! Given a [`PowerState`], this module decides, for every routing switch
//! in every core's tree, whether it runs *conventional*, *user-defined*
//! (folding traffic toward the die-center banks), or *off* — and derives
//! the induced bank remap, the set of live cores/banks, and the component
//! counts that the leakage model charges.
//!
//! ## The fold rule
//!
//! Gating from `B` to `B_a` banks removes `g = log2(B/B_a)` bank-index
//! bits from routing. Following Fig. 4 (and keeping the survivors central
//! on the die, as Fig. 5 shows), the *g* bits **after the MSB** are folded:
//! every folded switch in the left half of the die (bank MSB = 0) is
//! forced toward port 1 (inward) and every folded switch in the right half
//! toward port 0 (inward). The remap is therefore
//!
//! ```text
//! remap(h) = h with each folded bit replaced by ¬h[MSB]
//! ```
//!
//! which the paper describes as the ignored "second digit of cache bank
//! index": data for a gated bank lands on a live bank automatically, with
//! perfect balance (each live bank absorbs exactly `B/B_a` home indices)
//! and no change to the cache addressing.
//!
//! Cores are gated by the same central rule, so `PC4` keeps the four
//! die-center cores.

use crate::power_state::{PowerState, PowerStateError};
use crate::switch::{Port, RoutingMode};
use crate::topology::{MotTopology, SwitchAddr, TopologyError};
use std::error::Error;
use std::fmt;

/// Errors from building a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The power state does not fit the topology.
    PowerState(PowerStateError),
    /// The topology itself is invalid.
    Topology(TopologyError),
    /// Folding needs at least two live banks (and two live cores) unless
    /// the cluster itself is that small: a single live leaf would require
    /// folding the root, which the central-fold rule does not define.
    TooFewActive(&'static str),
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::PowerState(e) => write!(f, "power state: {e}"),
            ReconfigError::Topology(e) => write!(f, "topology: {e}"),
            ReconfigError::TooFewActive(what) => {
                write!(f, "central folding needs at least two active {what}")
            }
        }
    }
}

impl Error for ReconfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReconfigError::PowerState(e) => Some(e),
            ReconfigError::Topology(e) => Some(e),
            ReconfigError::TooFewActive(_) => None,
        }
    }
}

impl From<PowerStateError> for ReconfigError {
    fn from(e: PowerStateError) -> Self {
        ReconfigError::PowerState(e)
    }
}

impl From<TopologyError> for ReconfigError {
    fn from(e: TopologyError) -> Self {
        ReconfigError::Topology(e)
    }
}

/// Component counts of a configuration, for the leakage model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentCounts {
    /// Powered routing switches (over all live cores' trees).
    pub routing_switches: usize,
    /// Powered arbitration cells (over all live banks' trees).
    pub arbitration_cells: usize,
    /// Power-gated routing switches.
    pub gated_routing_switches: usize,
    /// Power-gated arbitration cells.
    pub gated_arbitration_cells: usize,
}

/// A fully-resolved interconnect configuration for one power state.
///
/// # Examples
///
/// Fig. 4's example — 8 banks, gate half of them:
///
/// ```
/// use mot3d_mot::reconfig::MotConfiguration;
/// use mot3d_mot::power_state::PowerState;
/// use mot3d_mot::topology::MotTopology;
///
/// let topo = MotTopology::new(4, 8)?;
/// let cfg = MotConfiguration::new(topo, PowerState::new(4, 4)?)?;
/// // M0, M1 fold onto M2, M3; M6, M7 onto M4, M5 (paper §III).
/// assert_eq!(cfg.remap_bank(0b000), 0b010);
/// assert_eq!(cfg.remap_bank(0b001), 0b011);
/// assert_eq!(cfg.remap_bank(0b110), 0b100);
/// assert_eq!(cfg.remap_bank(0b111), 0b101);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MotConfiguration {
    topology: MotTopology,
    state: PowerState,
    folded_bank_bits: u64,
    folded_core_bits: u64,
    counts: ComponentCounts,
}

impl MotConfiguration {
    /// Resolves a power state against a topology.
    ///
    /// # Errors
    ///
    /// [`ReconfigError`] if the state exceeds the topology or asks for a
    /// single live leaf on a multi-leaf tree.
    pub fn new(topology: MotTopology, state: PowerState) -> Result<Self, ReconfigError> {
        state.check_fits(topology.cores(), topology.banks())?;
        if state.active_banks() < 2 && topology.banks() > 1 {
            return Err(ReconfigError::TooFewActive("banks"));
        }
        if state.active_cores() < 2 && topology.cores() > 1 {
            return Err(ReconfigError::TooFewActive("cores"));
        }
        let folded_bank_bits = folded_bits(topology.banks(), state.active_banks());
        let folded_core_bits = folded_bits(topology.cores(), state.active_cores());
        let mut cfg = MotConfiguration {
            topology,
            state,
            folded_bank_bits,
            folded_core_bits,
            counts: ComponentCounts::default(),
        };
        cfg.counts = cfg.count_components();
        Ok(cfg)
    }

    /// The underlying topology.
    pub fn topology(&self) -> MotTopology {
        self.topology
    }

    /// The resolved power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// The physical bank that serves home index `home` under this
    /// configuration (identity when nothing is folded).
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn remap_bank(&self, home: usize) -> usize {
        assert!(home < self.topology.banks(), "bank {home} out of range");
        remap(home, self.topology.banks(), self.folded_bank_bits)
    }

    /// Whether a physical bank stays powered.
    pub fn is_bank_active(&self, bank: usize) -> bool {
        self.remap_bank(bank) == bank
    }

    /// The live banks, ascending.
    pub fn active_banks(&self) -> Vec<usize> {
        (0..self.topology.banks())
            .filter(|&b| self.is_bank_active(b))
            .collect()
    }

    /// Whether a core stays powered (central fold, same rule as banks).
    pub fn is_core_active(&self, core: usize) -> bool {
        assert!(core < self.topology.cores(), "core {core} out of range");
        remap(core, self.topology.cores(), self.folded_core_bits) == core
    }

    /// The live cores, ascending.
    pub fn active_cores(&self) -> Vec<usize> {
        (0..self.topology.cores())
            .filter(|&c| self.is_core_active(c))
            .collect()
    }

    /// The operating mode of routing switch `sw` (in any live core's
    /// tree).
    ///
    /// A switch is `Off` when no live bank sits under it; `UserDefined`
    /// (forced inward) when its level's bank bit is folded; `Conventional`
    /// otherwise.
    pub fn routing_mode(&self, sw: SwitchAddr) -> RoutingMode {
        let span = self.topology.banks_under(sw);
        let reachable = span.clone().any(|b| self.is_bank_active(b));
        if !reachable {
            return RoutingMode::Off;
        }
        let bit = self.topology.bit_of_level(sw.level);
        if self.folded_bank_bits & (1 << bit) != 0 {
            // Forced inward: left half of the die (MSB 0) folds toward
            // port 1, right half toward port 0.
            let msb_of_subtree = span.start >> (self.topology.routing_levels() - 1);
            let inward = if msb_of_subtree == 0 {
                Port::Port1
            } else {
                Port::Port0
            };
            RoutingMode::UserDefined(inward)
        } else {
            RoutingMode::Conventional
        }
    }

    /// Bank-index bits ignored by routing under this configuration (the
    /// paper's "second digit ... ignored for packet routing").
    pub fn folded_bank_bits(&self) -> u64 {
        self.folded_bank_bits
    }

    /// Powered/gated component counts for the leakage model.
    pub fn counts(&self) -> ComponentCounts {
        self.counts
    }

    fn count_components(&self) -> ComponentCounts {
        let mut c = ComponentCounts::default();
        // Routing switches: per live core's tree; gated cores' whole trees
        // are off.
        let live_cores = self.active_cores().len();
        let gated_cores = self.topology.cores() - live_cores;
        for level in 1..=self.topology.routing_levels() {
            for index in 0..self.topology.switches_in_level(level) {
                let sw = SwitchAddr { level, index };
                if self.routing_mode(sw) == RoutingMode::Off {
                    c.gated_routing_switches += live_cores;
                } else {
                    c.routing_switches += live_cores;
                }
            }
        }
        c.gated_routing_switches += gated_cores * self.topology.routing_switches_per_tree();

        // Arbitration cells: per live bank's tree, a cell is powered iff a
        // live core sits under it. The arbitration tree over P cores at
        // level ℓ (1-based from the bank) has 2^(ℓ-1) cells... count
        // bottom-up over core-index subtrees instead:
        let p = self.topology.cores();
        let mut live_cells_per_tree = 0usize;
        let levels = self.topology.arbitration_levels();
        for level in 1..=levels {
            let cells = 1usize << (level - 1);
            let span = p >> (level - 1);
            for index in 0..cells {
                let lo = index * span;
                let hi = lo + span;
                if (lo..hi).any(|core| self.is_core_active(core)) {
                    live_cells_per_tree += 1;
                }
            }
        }
        let cells_per_tree = self.topology.arbitration_cells_per_tree();
        let live_banks = self.active_banks().len();
        let gated_banks = self.topology.banks() - live_banks;
        c.arbitration_cells = live_banks * live_cells_per_tree;
        c.gated_arbitration_cells =
            live_banks * (cells_per_tree - live_cells_per_tree) + gated_banks * cells_per_tree;
        c
    }
}

/// The mask of folded (ignored) index bits when gating `total` → `active`.
///
/// The MSB is never folded (it selects the die half); the `g` bits right
/// below it are. When `active == total` the mask is empty.
fn folded_bits(total: usize, active: usize) -> u64 {
    let bits = total.trailing_zeros() as u64;
    let g = (total / active).trailing_zeros() as u64;
    if g == 0 || bits == 0 {
        return 0;
    }
    debug_assert!(
        g <= bits.saturating_sub(1),
        "fold depth exceeds sub-MSB bits"
    );
    // Bits (bits-2) down to (bits-1-g), i.e. g bits directly below the MSB.
    let top = bits - 1; // MSB position
    let mut mask = 0u64;
    for k in 1..=g {
        mask |= 1 << (top - k);
    }
    mask
}

/// Applies the central-fold remap: folded bits := ¬MSB.
fn remap(index: usize, total: usize, folded: u64) -> usize {
    if folded == 0 {
        return index;
    }
    let bits = total.trailing_zeros() as u64;
    let msb = (index >> (bits - 1)) & 1;
    let fill = 1 - msb;
    let idx = index as u64;
    let cleared = idx & !folded;
    let filled = if fill == 1 { cleared | folded } else { cleared };
    filled as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cores: usize, banks: usize, ac: usize, ab: usize) -> MotConfiguration {
        MotConfiguration::new(
            MotTopology::new(cores, banks).unwrap(),
            PowerState::new(ac, ab).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn fig4_remap_exactly_as_paper() {
        // 4 cores × 8 banks, half the banks gated: M0→M2, M1→M3, M6→M4,
        // M7→M5; M2..M5 stay put (§III).
        let c = cfg(4, 8, 4, 4);
        let expect = [
            (0b000, 0b010),
            (0b001, 0b011),
            (0b010, 0b010),
            (0b011, 0b011),
            (0b100, 0b100),
            (0b101, 0b101),
            (0b110, 0b100),
            (0b111, 0b101),
        ];
        for (home, phys) in expect {
            assert_eq!(c.remap_bank(home), phys, "home {home:03b}");
        }
        assert_eq!(c.active_banks(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn fig4_switch_modes() {
        // Level-2 switches run user-defined (gray in Fig. 4), all others
        // conventional; none off (every level-3 switch above a live bank
        // pair... the outer level-3 switches are off).
        let c = cfg(4, 8, 4, 4);
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 1, index: 0 }),
            RoutingMode::Conventional
        );
        // Left half folds inward (port 1), right half inward (port 0).
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 2, index: 0 }),
            RoutingMode::UserDefined(Port::Port1)
        );
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 2, index: 1 }),
            RoutingMode::UserDefined(Port::Port0)
        );
        // Level 3: switches over gated pairs {M0,M1} and {M6,M7} are off.
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 3, index: 0 }),
            RoutingMode::Off
        );
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 3, index: 3 }),
            RoutingMode::Off
        );
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 3, index: 1 }),
            RoutingMode::Conventional
        );
        assert_eq!(
            c.routing_mode(SwitchAddr { level: 3, index: 2 }),
            RoutingMode::Conventional
        );
    }

    #[test]
    fn full_state_is_identity() {
        let c = cfg(16, 32, 16, 32);
        for b in 0..32 {
            assert_eq!(c.remap_bank(b), b);
        }
        assert_eq!(c.active_banks().len(), 32);
        assert_eq!(c.active_cores().len(), 16);
        assert_eq!(c.folded_bank_bits(), 0);
        let counts = c.counts();
        assert_eq!(counts.routing_switches, 16 * 31);
        assert_eq!(counts.gated_routing_switches, 0);
        assert_eq!(counts.arbitration_cells, 32 * 15);
    }

    #[test]
    fn mb8_of_32_keeps_central_banks() {
        let c = cfg(16, 32, 16, 8);
        // g = 2: banks 01100..01111 (12..15) and 10000..10011 (16..19).
        assert_eq!(c.active_banks(), vec![12, 13, 14, 15, 16, 17, 18, 19]);
        // Perfect balance: each live bank absorbs exactly 4 home indices.
        let mut loads = vec![0usize; 32];
        for h in 0..32 {
            loads[c.remap_bank(h)] += 1;
        }
        for (b, &load) in loads.iter().enumerate() {
            let want = if c.is_bank_active(b) { 4 } else { 0 };
            assert_eq!(load, want, "bank {b}");
        }
    }

    #[test]
    fn pc4_keeps_central_cores() {
        let c = cfg(16, 32, 4, 32);
        assert_eq!(c.active_cores(), vec![6, 7, 8, 9]);
        assert_eq!(c.active_banks().len(), 32);
    }

    #[test]
    fn gating_reduces_powered_component_counts() {
        let full = cfg(16, 32, 16, 32).counts();
        let gated = cfg(16, 32, 4, 8).counts();
        assert!(gated.routing_switches < full.routing_switches);
        assert!(gated.arbitration_cells < full.arbitration_cells);
        // Conservation: powered + gated covers the physical inventory.
        let topo = MotTopology::date16();
        assert_eq!(
            gated.routing_switches + gated.gated_routing_switches,
            topo.cores() * topo.routing_switches_per_tree()
        );
        assert_eq!(
            gated.arbitration_cells + gated.gated_arbitration_cells,
            topo.banks() * topo.arbitration_cells_per_tree()
        );
    }

    #[test]
    fn remapped_targets_are_always_active() {
        for (ac, ab) in [(16, 32), (16, 8), (4, 32), (4, 8), (2, 2), (8, 16)] {
            let c = cfg(16, 32, ac, ab);
            for h in 0..32 {
                let phys = c.remap_bank(h);
                assert!(c.is_bank_active(phys), "({ac},{ab}): {h} → {phys} inactive");
            }
        }
    }

    #[test]
    fn no_live_path_crosses_an_off_switch() {
        // For every home bank, walking the route through the switch modes
        // must land exactly on remap_bank(home).
        let c = cfg(16, 32, 16, 8);
        let topo = c.topology();
        for home in 0..32 {
            let mut reached = 0usize; // path bits so far = switch index at each level
            for level in 1..=topo.routing_levels() {
                let mode = c.routing_mode(SwitchAddr {
                    level,
                    index: reached,
                });
                let addr_bit = (home >> topo.bit_of_level(level)) & 1 == 1;
                let taken = match mode {
                    RoutingMode::Off => {
                        panic!("home {home} hit an off switch at level {level} index {reached}")
                    }
                    RoutingMode::Conventional => addr_bit,
                    RoutingMode::UserDefined(p) => p.bit(),
                };
                reached = (reached << 1) | taken as usize;
            }
            assert_eq!(reached, c.remap_bank(home), "home {home}");
        }
    }

    #[test]
    fn rejects_single_leaf_folds() {
        let topo = MotTopology::new(4, 8).unwrap();
        assert!(matches!(
            MotConfiguration::new(topo, PowerState::new(4, 1).unwrap()),
            Err(ReconfigError::TooFewActive("banks"))
        ));
        assert!(matches!(
            MotConfiguration::new(topo, PowerState::new(1, 8).unwrap()),
            Err(ReconfigError::TooFewActive("cores"))
        ));
    }

    #[test]
    fn rejects_oversized_states() {
        let topo = MotTopology::new(4, 8).unwrap();
        assert!(matches!(
            MotConfiguration::new(topo, PowerState::new(8, 8).unwrap()),
            Err(ReconfigError::PowerState(_))
        ));
    }
}
