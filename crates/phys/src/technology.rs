//! Process-technology parameters.
//!
//! The paper evaluates a 1 GHz multi-core cluster in a low-power bulk CMOS
//! node (the exact node is not named; the latency/energy constants in
//! Table I are consistent with a 45 nm-class LP process). [`Technology`]
//! gathers every process-dependent constant used by the physical models:
//! wire parasitics, repeater (the paper's "inverters placed along the
//! on-chip wires") characteristics, logic-stage delays for the MoT switch
//! cells, and leakage densities.
//!
//! The [`Technology::lp45`] preset is *calibrated*, not measured: its
//! constants are chosen so that the derived end-to-end MoT latencies land on
//! the paper's Table I values (12/9/9/7 cycles at 1 GHz) given the Fig. 5
//! geometry (5 mm × 5 mm die, ~40 µm vertical hop); the targets are
//! listed on [`Technology::lp45`].

use crate::units::{Farads, FaradsPerMeter, Hertz, Ohms, OhmsPerMeter, Seconds, Volts, Watts};

/// Electrical characteristics of the repeater/inverter cell used along long
/// on-chip wires.
///
/// These are the "inverters placed along the on-chip wires" that the
/// paper's reconfigurable switch design allows to be power-gated together
/// with their wire segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterParams {
    /// Equivalent output (drive) resistance of the inverter.
    pub drive_resistance: Ohms,
    /// Gate input capacitance.
    pub input_cap: Farads,
    /// Drain/parasitic output capacitance.
    pub output_cap: Farads,
    /// Intrinsic (unloaded) propagation delay.
    pub intrinsic_delay: Seconds,
    /// Subthreshold + gate leakage power of one repeater when powered.
    pub leakage: Watts,
}

impl RepeaterParams {
    /// Total self-capacitance (input + output) of the cell.
    #[inline]
    pub fn self_cap(&self) -> Farads {
        self.input_cap + self.output_cap
    }
}

/// Delay and leakage of the logic inside MoT switch cells.
///
/// A routing switch is a MUX + DEMUX + control ([Fig. 2(b)]); the modified
/// reconfigurable switch adds one more 2:1 multiplexer on the control path
/// ([Fig. 3(a)]). An arbitration switch is a 2:1 arbiter with round-robin
/// state ([Fig. 2(c)]).
///
/// [Fig. 2(b)]: https://doi.org/10.3850/9783981537079_0286
/// [Fig. 3(a)]: https://doi.org/10.3850/9783981537079_0286
/// [Fig. 2(c)]: https://doi.org/10.3850/9783981537079_0286
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchTimings {
    /// Combinational delay through a routing switch in conventional mode
    /// (address-decode + MUX + DEMUX).
    pub routing_switch_delay: Seconds,
    /// Extra delay contributed by the reconfiguration multiplexer of the
    /// modified routing switch (Fig. 3a, gray MUX).
    pub reconfig_mux_delay: Seconds,
    /// Combinational delay through an arbitration switch (request merge +
    /// grant logic), excluding the registered round-robin state update.
    pub arbitration_switch_delay: Seconds,
    /// Leakage power of one routing switch when powered.
    pub routing_switch_leakage: Watts,
    /// Leakage power of one arbitration switch when powered.
    pub arbitration_switch_leakage: Watts,
    /// Dynamic energy dissipated in one switch traversal (logic only,
    /// excluding the attached wire).
    pub switch_traversal_energy_per_bit: Farads,
}

/// A complete set of process parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable node name (e.g. `"45nm-LP"`).
    pub name: &'static str,
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Cluster clock (the paper assumes 1 GHz cores).
    pub clock: Hertz,
    /// Wire resistance per unit length (intermediate/global metal).
    pub wire_resistance: OhmsPerMeter,
    /// Wire capacitance per unit length (including coupling).
    pub wire_capacitance: FaradsPerMeter,
    /// Repeater cell characteristics.
    pub repeater: RepeaterParams,
    /// MoT switch-cell timings.
    pub switch: SwitchTimings,
    /// Leakage power per kilobyte of SRAM.
    pub sram_leakage_per_kb: Watts,
    /// SRAM cell area (for bank-area estimates).
    pub sram_cell_area_um2: f64,
}

impl Technology {
    /// Calibrated 45 nm-class low-power node at 1 GHz.
    ///
    /// Calibration targets:
    /// * optimally-repeated wire delay ≈ 0.42 ns/mm, so the ~7.5 mm
    ///   worst-case MoT path of the full configuration takes ≈ 4–4.5 ns one
    ///   way and Table I's 12-cycle round trip is reproduced;
    /// * repeater spacing ≈ 0.75 mm, giving the handful of "inverters along
    ///   the wires" per tree level that the paper power-gates;
    /// * wire energy ≈ 0.12 pJ/mm per transition at 1.1 V.
    ///
    /// # Examples
    ///
    /// ```
    /// use mot3d_phys::Technology;
    /// let tech = Technology::lp45();
    /// assert_eq!(tech.clock.ghz(), 1.0);
    /// ```
    pub fn lp45() -> Self {
        Technology {
            name: "45nm-LP",
            vdd: Volts::new(1.1),
            clock: Hertz::from_ghz(1.0),
            wire_resistance: OhmsPerMeter(150e3), // 150 Ω/mm
            wire_capacitance: FaradsPerMeter(200e-12), // 200 fF/mm
            repeater: RepeaterParams {
                drive_resistance: Ohms::from_kohms(2.8),
                input_cap: Farads::from_ff(1.5),
                output_cap: Farads::from_ff(1.5),
                intrinsic_delay: Seconds::from_ps(15.0),
                leakage: Watts::from_uw(0.05),
            },
            switch: SwitchTimings {
                routing_switch_delay: Seconds::from_ps(118.0),
                reconfig_mux_delay: Seconds::from_ps(12.0),
                arbitration_switch_delay: Seconds::from_ps(50.0),
                routing_switch_leakage: Watts::from_uw(0.8),
                arbitration_switch_leakage: Watts::from_uw(1.0),
                switch_traversal_energy_per_bit: Farads::from_ff(3.0),
            },
            // High enough that the 2 MB stacked L2 is a first-order term
            // of cluster power (~190 mW over 32 banks) — the premise of
            // the paper's MB8 bank-gating states. LP cells would leak
            // less; the calibration follows the paper's energy balance
            // rather than a specific foundry corner.
            sram_leakage_per_kb: Watts::from_uw(75.0),
            sram_cell_area_um2: 0.35,
        }
    }

    /// The clock period.
    #[inline]
    pub fn period(&self) -> Seconds {
        self.clock.period()
    }

    /// Rounds a combinational delay up to whole clock cycles (at least 1).
    ///
    /// This is the quantisation the paper applies when mapping Elmore path
    /// delays onto the pipelined interconnect: a path that fits within `n`
    /// periods costs `n` cycles.
    #[inline]
    pub fn cycles_for(&self, delay: Seconds) -> u64 {
        let period = self.period().value();
        let cycles = (delay.value() / period).ceil() as u64;
        cycles.max(1)
    }
}

impl Default for Technology {
    /// Defaults to the calibrated [`Technology::lp45`] node.
    fn default() -> Self {
        Technology::lp45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp45_clock_is_1ghz() {
        let t = Technology::lp45();
        assert!((t.period().ns() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_for_rounds_up() {
        let t = Technology::lp45();
        assert_eq!(t.cycles_for(Seconds::new(0.1e-9)), 1);
        assert_eq!(t.cycles_for(Seconds::new(1e-9)), 1);
        assert_eq!(t.cycles_for(Seconds::new(1.001e-9)), 2);
        assert_eq!(t.cycles_for(Seconds::new(4.2e-9)), 5);
    }

    #[test]
    fn cycles_for_zero_delay_is_one() {
        let t = Technology::lp45();
        assert_eq!(t.cycles_for(Seconds::ZERO), 1);
    }

    #[test]
    fn default_is_lp45() {
        assert_eq!(Technology::default(), Technology::lp45());
    }

    #[test]
    fn repeater_self_cap_sums_in_and_out() {
        let t = Technology::lp45();
        assert!((t.repeater.self_cap().ff() - 3.0).abs() < 1e-9);
    }
}
