//! Latency derivation: physical models → Table I cycle counts.
//!
//! "In order to estimate the latency of 3-D MoT interconnect, the delay
//! for the longest possible link between cores and cache banks is
//! estimated by using Elmore distributed RC delay model" (§IV). This
//! module composes that estimate:
//!
//! ```text
//! t_request  = wire(longest path) + log2(B)·t_routing + log2(P_a)·t_arb
//!            + t_TSV + t_inject
//! t_response = wire(longest path) + log2(B)·t_routing + t_TSV + t_eject
//! ```
//!
//! quantised to clock cycles, plus the CACTI-derived bank access. The
//! request leg pays the arbitration tree; the response returns over the
//! (grantless) distribution side. Packets traverse all `log2(B)` routing
//! levels even in folded states — user-defined switches are powered and
//! still on the path (Fig. 4's gray circles).
//!
//! With the calibrated `lp45` node this reproduces Table I exactly:
//! Full = 12, PC16-MB8 = 9, PC4-MB32 = 9, PC4-MB8 = 7 cycles.

use crate::power_state::PowerState;
use crate::topology::MotTopology;
use crate::MotError;
use mot3d_phys::geometry::Floorplan;
use mot3d_phys::rc::RepeatedWire;
use mot3d_phys::sram::{SramBank, SramConfig};
use mot3d_phys::units::{Ohms, Seconds};
use mot3d_phys::Technology;

/// Interface-timing constants of the MoT implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotTimingParams {
    /// Core-side injection overhead (request register + packetisation +
    /// first driver).
    pub injection: Seconds,
    /// Core-side ejection overhead (response latch).
    pub ejection: Seconds,
    /// Driver strength used for the TSV bus (dedicated sized-up driver).
    pub tsv_driver: Ohms,
}

impl Default for MotTimingParams {
    /// Calibrated defaults: 0.30 ns injection, 0.10 ns ejection, 1 kΩ
    /// TSV driver. Like [`mot3d_phys::Technology::lp45`], they are chosen
    /// so that the derived round trips land on Table I's cycle counts.
    fn default() -> Self {
        MotTimingParams {
            injection: Seconds::from_ps(300.0),
            ejection: Seconds::from_ps(100.0),
            tsv_driver: Ohms::from_kohms(1.0),
        }
    }
}

/// Derived latency of one power state, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotLatency {
    /// Core → bank traversal (includes arbitration).
    pub request_cycles: u64,
    /// SRAM bank access.
    pub bank_cycles: u64,
    /// Bank → core traversal.
    pub response_cycles: u64,
}

impl MotLatency {
    /// Full L2 access latency — the numbers Table I quotes (12/9/9/7).
    pub fn round_trip(&self) -> u64 {
        self.request_cycles + self.bank_cycles + self.response_cycles
    }

    /// Derives the latency of `state` on `topology` from the physical
    /// models.
    ///
    /// # Errors
    ///
    /// [`MotError`] if the state does not fit the topology/floorplan or
    /// the SRAM configuration is inconsistent.
    pub fn derive(
        tech: &Technology,
        floorplan: &Floorplan,
        topology: MotTopology,
        params: &MotTimingParams,
        state: PowerState,
    ) -> Result<Self, MotError> {
        state.check_fits(topology.cores(), topology.banks())?;
        let path = floorplan.longest_path(state.active_cores(), state.active_banks())?;
        let wire = RepeatedWire::new(tech, path.horizontal).delay();
        let tsv = floorplan
            .tsv
            .hop_delay_with_driver(tech, path.vertical_hops, params.tsv_driver);

        let per_routing_switch = tech.switch.routing_switch_delay + tech.switch.reconfig_mux_delay;
        let routing = per_routing_switch * topology.routing_levels() as f64;
        let arb_levels = (state.active_cores().trailing_zeros()) as f64;
        let arbitration = tech.switch.arbitration_switch_delay * arb_levels;

        let t_request = wire + routing + arbitration + tsv + params.injection;
        let t_response = wire + routing + tsv + params.ejection;

        let bank = SramBank::model(tech, SramConfig::l2_bank_date16())?;

        Ok(MotLatency {
            request_cycles: tech.cycles_for(t_request),
            bank_cycles: bank.access_cycles(tech),
            response_cycles: tech.cycles_for(t_response),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn derive(state: PowerState) -> MotLatency {
        MotLatency::derive(
            &Technology::lp45(),
            &Floorplan::date16(),
            MotTopology::date16(),
            &MotTimingParams::default(),
            state,
        )
        .unwrap()
    }

    #[test]
    fn table1_full_connection_is_12_cycles() {
        let l = derive(PowerState::full());
        assert_eq!(l.round_trip(), 12, "{l:?}");
    }

    #[test]
    fn table1_pc16_mb8_is_9_cycles() {
        let l = derive(PowerState::pc16_mb8());
        assert_eq!(l.round_trip(), 9, "{l:?}");
    }

    #[test]
    fn table1_pc4_mb32_is_9_cycles() {
        let l = derive(PowerState::pc4_mb32());
        assert_eq!(l.round_trip(), 9, "{l:?}");
    }

    #[test]
    fn table1_pc4_mb8_is_7_cycles() {
        let l = derive(PowerState::pc4_mb8());
        assert_eq!(l.round_trip(), 7, "{l:?}");
    }

    #[test]
    fn bank_access_is_constant_across_states() {
        let states = PowerState::date16_states();
        let banks: Vec<u64> = states.iter().map(|s| derive(*s).bank_cycles).collect();
        assert!(banks.windows(2).all(|w| w[0] == w[1]), "{banks:?}");
    }

    #[test]
    fn request_leg_is_never_faster_than_response() {
        // The request pays arbitration on top of the same wire.
        for s in PowerState::date16_states() {
            let l = derive(s);
            assert!(l.request_cycles >= l.response_cycles, "{s}: {l:?}");
        }
    }

    #[test]
    fn oversized_state_is_rejected() {
        let err = MotLatency::derive(
            &Technology::lp45(),
            &Floorplan::date16(),
            MotTopology::date16(),
            &MotTimingParams::default(),
            PowerState::new(32, 32).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("exceed"));
    }
}
