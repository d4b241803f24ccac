//! Energy bookkeeping and the paper's EDP metric.
//!
//! The paper evaluates power efficiency as the **energy-delay product**
//! (EDP) of the cluster: cores (McPAT \[19\]), L2 cache (CACTI \[13\]) and
//! interconnect (Liao–He \[20\]). [`EnergyBreakdown`] accumulates those
//! components over a simulated run; [`EnergyBreakdown::edp`] combines them
//! with the execution time.

mod core_model;

pub use core_model::{CorePowerModel, DramEnergyModel};

use crate::units::{JouleSeconds, Joules, Seconds};

/// Per-component energy of a simulated run.
///
/// # Examples
///
/// ```
/// use mot3d_phys::power::EnergyBreakdown;
/// use mot3d_phys::units::{Joules, Seconds};
///
/// let mut e = EnergyBreakdown::default();
/// e.cores += Joules::from_mj(1.0);
/// e.interconnect += Joules::from_mj(0.2);
/// let edp = e.edp(Seconds::from_us(800.0));
/// assert!(edp.value() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Processing cores (dynamic + leakage).
    pub cores: Joules,
    /// Private L1 instruction/data caches.
    pub l1: Joules,
    /// Stacked L2 banks (dynamic + leakage of powered banks).
    pub l2: Joules,
    /// Interconnect: wires, repeaters, routing/arbitration switches (or
    /// packet routers and buses for the baselines).
    pub interconnect: Joules,
    /// DRAM (kept separate; the paper's cluster EDP excludes it).
    pub dram: Joules,
}

impl EnergyBreakdown {
    /// Cluster energy: everything the paper's EDP covers (cores, caches,
    /// interconnect; not DRAM).
    pub fn cluster(&self) -> Joules {
        self.cores + self.l1 + self.l2 + self.interconnect
    }

    /// Total including DRAM.
    pub fn total(&self) -> Joules {
        self.cluster() + self.dram
    }

    /// Cluster energy-delay product for a run of the given duration
    /// (Fig. 7(a), Fig. 8).
    pub fn edp(&self, exec_time: Seconds) -> JouleSeconds {
        self.cluster() * exec_time
    }

    /// EDP including DRAM energy, for sensitivity studies.
    pub fn edp_with_dram(&self, exec_time: Seconds) -> JouleSeconds {
        self.total() * exec_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Joules;

    fn sample() -> EnergyBreakdown {
        EnergyBreakdown {
            cores: Joules::from_mj(4.0),
            l1: Joules::from_mj(0.5),
            l2: Joules::from_mj(1.5),
            interconnect: Joules::from_mj(1.0),
            dram: Joules::from_mj(2.0),
        }
    }

    #[test]
    fn cluster_excludes_dram() {
        let e = sample();
        assert!((e.cluster().mj() - 7.0).abs() < 1e-9);
        assert!((e.total().mj() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let e = sample();
        let t = Seconds::from_us(100.0);
        assert!((e.edp(t).value() - 7e-3 * 100e-6).abs() < 1e-15);
        assert!(e.edp_with_dram(t) > e.edp(t));
    }

    #[test]
    fn default_is_zero() {
        let e = EnergyBreakdown::default();
        assert_eq!(e.total(), Joules::ZERO);
    }
}
