//! Repeated (buffered) on-chip wire model.
//!
//! Long horizontal MoT links are driven through periodically inserted
//! inverters — the repeaters that the paper's reconfigurable switch allows
//! to be power-gated along with their wire. This module models such a wire:
//! optimal repeater spacing (Bakoglu), 50 %-threshold Elmore delay per
//! segment, switching energy, and repeater leakage.
//!
//! Delay of one repeater-driven segment (driver resistance `R_d`, segment
//! wire `R_w`/`C_w`, next-stage load `C_L`):
//!
//! ```text
//! t_seg = t_int + ln2·R_d·(C_out + C_w + C_L) + R_w·(ln2·C_L + 0.38·C_w)
//! ```
//!
//! where `0.38·R_w·C_w` is the distributed-wire Elmore term and `ln 2`
//! rescales first-moment estimates to the 50 % crossing of a step response.

use crate::technology::Technology;
use crate::units::{Farads, Joules, Meters, Seconds, Watts};

const LN2: f64 = core::f64::consts::LN_2;
/// Distributed-RC coefficient for the 50 % point of a uniform line.
const DISTRIBUTED: f64 = 0.38;

/// Optimal repeater segment length for the node: `√(2·R_d·C_self / (r·c))`.
///
/// Shorter wires than this need no repeater at all; longer wires are split
/// into `ceil(L / L_opt)` segments.
///
/// # Examples
///
/// ```
/// use mot3d_phys::{rc::optimal_segment_length, Technology};
/// let l = optimal_segment_length(&Technology::lp45());
/// // calibrated node: ~0.8 mm spacing
/// assert!(l.mm() > 0.4 && l.mm() < 1.6);
/// ```
pub fn optimal_segment_length(tech: &Technology) -> Meters {
    let rd = tech.repeater.drive_resistance.value();
    let cself = tech.repeater.self_cap().value();
    let r = tech.wire_resistance.0;
    let c = tech.wire_capacitance.0;
    Meters::new((2.0 * rd * cself / (r * c)).sqrt())
}

/// A fixed-length wire with optimally spaced repeaters.
///
/// # Examples
///
/// ```
/// use mot3d_phys::{rc::RepeatedWire, Technology};
/// use mot3d_phys::units::Meters;
///
/// let tech = Technology::lp45();
/// let wire = RepeatedWire::new(&tech, Meters::from_mm(2.5));
/// assert!(wire.repeater_count() >= 2);
/// assert!(wire.delay().ns() < 2.5); // sub-ns/mm on the calibrated node
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatedWire {
    segments: usize,
    delay: Seconds,
    energy_per_transition: Joules,
    leakage: Watts,
}

impl RepeatedWire {
    /// Models a wire of the given length in the given technology, with the
    /// number of repeaters chosen by optimal spacing. Zero-length wires are
    /// free (no delay, no energy, no repeaters).
    pub fn new(tech: &Technology, length: Meters) -> Self {
        Self::with_load(tech, length, tech.repeater.input_cap)
    }

    /// Like [`RepeatedWire::new`] but with an explicit far-end load
    /// capacitance (e.g. the input of a switch cell instead of another
    /// repeater).
    pub fn with_load(tech: &Technology, length: Meters, end_load: Farads) -> Self {
        if length.value() <= 0.0 {
            return RepeatedWire {
                segments: 0,
                delay: Seconds::ZERO,
                energy_per_transition: Joules::ZERO,
                leakage: Watts::ZERO,
            };
        }
        let l_opt = optimal_segment_length(tech);
        let segments = (length.value() / l_opt.value()).ceil().max(1.0) as usize;
        let seg_len = length / segments as f64;

        let rep = &tech.repeater;
        let rw = tech.wire_resistance.over(seg_len);
        let cw = tech.wire_capacitance.over(seg_len);

        let mut delay = Seconds::ZERO;
        for i in 0..segments {
            let load = if i + 1 == segments {
                end_load
            } else {
                rep.input_cap
            };
            let driver_term = LN2
                * rep.drive_resistance.value()
                * (rep.output_cap.value() + cw.value() + load.value());
            let wire_term = rw.value() * (LN2 * load.value() + DISTRIBUTED * cw.value());
            delay += rep.intrinsic_delay + Seconds::new(driver_term + wire_term);
        }

        let wire_cap = tech.wire_capacitance.over(length);
        // One driving repeater per segment switches its self-cap plus the
        // segment wire; the end load belongs to the receiver and is counted
        // there.
        let switched = wire_cap + rep.self_cap() * segments as f64;
        let energy = switched.switching_energy(tech.vdd);
        let leakage = rep.leakage * segments as f64;

        RepeatedWire {
            segments,
            delay,
            energy_per_transition: energy,
            leakage,
        }
    }

    /// Number of repeaters inserted (one per segment; zero for zero-length
    /// wires).
    #[inline]
    pub fn repeater_count(&self) -> usize {
        self.segments
    }

    /// 50 %-threshold propagation delay end to end.
    #[inline]
    pub fn delay(&self) -> Seconds {
        self.delay
    }

    /// Energy dissipated by one signal transition over the full wire
    /// (wire capacitance plus repeater self-capacitance, at `½·C·V²`).
    #[inline]
    pub fn energy_per_transition(&self) -> Joules {
        self.energy_per_transition
    }

    /// Total leakage power of the repeaters while the wire is powered.
    /// This is exactly what power-gating a disconnected MoT subtree saves.
    #[inline]
    pub fn leakage(&self) -> Watts {
        self.leakage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delay of the same wire driven once at the source with *no*
    /// repeaters: the reference that shows why repeaters are inserted (the
    /// unrepeated delay grows quadratically with length).
    fn unrepeated_delay(tech: &Technology, length: Meters, end_load: Farads) -> Seconds {
        if length.value() <= 0.0 {
            return Seconds::ZERO;
        }
        let rep = &tech.repeater;
        let rw = tech.wire_resistance.over(length);
        let cw = tech.wire_capacitance.over(length);
        let driver_term = LN2
            * rep.drive_resistance.value()
            * (rep.output_cap.value() + cw.value() + end_load.value());
        let wire_term = rw.value() * (LN2 * end_load.value() + DISTRIBUTED * cw.value());
        rep.intrinsic_delay + Seconds::new(driver_term + wire_term)
    }

    #[test]
    fn zero_length_wire_is_free() {
        let tech = Technology::lp45();
        let w = RepeatedWire::new(&tech, Meters::ZERO);
        assert_eq!(w.delay(), Seconds::ZERO);
        assert_eq!(w.repeater_count(), 0);
        assert_eq!(w.energy_per_transition(), Joules::ZERO);
        assert_eq!(w.leakage(), Watts::ZERO);
    }

    #[test]
    fn delay_monotone_in_length() {
        let tech = Technology::lp45();
        let mut last = Seconds::ZERO;
        for mm in [0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0] {
            let w = RepeatedWire::new(&tech, Meters::from_mm(mm));
            assert!(w.delay() > last, "delay must grow with length at {mm} mm");
            last = w.delay();
        }
    }

    #[test]
    fn long_wire_delay_is_roughly_linear() {
        // Repeated wires have linear asymptotics: delay(4 mm) ≈ 2·delay(2 mm).
        let tech = Technology::lp45();
        let d2 = RepeatedWire::new(&tech, Meters::from_mm(2.0)).delay();
        let d4 = RepeatedWire::new(&tech, Meters::from_mm(4.0)).delay();
        let ratio = d4 / d2;
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn calibration_ns_per_mm_band() {
        // DESIGN.md §7: the calibrated node targets ≈ 0.42 ns/mm so Table I
        // latencies are reproduced downstream.
        let tech = Technology::lp45();
        let d = RepeatedWire::new(&tech, Meters::from_mm(1.0)).delay();
        assert!(
            d.ns() > 0.3 && d.ns() < 0.55,
            "repeated-wire delay per mm out of calibration band: {} ns",
            d.ns()
        );
    }

    #[test]
    fn repeaters_beat_unrepeated_for_long_wires() {
        let tech = Technology::lp45();
        let len = Meters::from_mm(5.0);
        let repeated = RepeatedWire::new(&tech, len).delay();
        let bare = unrepeated_delay(&tech, len, tech.repeater.input_cap);
        assert!(
            repeated < bare,
            "repeaters should win at 5 mm: {} vs {}",
            repeated.ns(),
            bare.ns()
        );
    }

    #[test]
    fn repeater_count_tracks_optimal_spacing() {
        let tech = Technology::lp45();
        let l_opt = optimal_segment_length(&tech);
        let w = RepeatedWire::new(&tech, l_opt * 3.5);
        assert_eq!(w.repeater_count(), 4);
    }

    #[test]
    fn energy_scales_with_length() {
        let tech = Technology::lp45();
        let e1 = RepeatedWire::new(&tech, Meters::from_mm(1.0)).energy_per_transition();
        let e3 = RepeatedWire::new(&tech, Meters::from_mm(3.0)).energy_per_transition();
        let ratio = e3 / e1;
        assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn leakage_counts_every_repeater() {
        let tech = Technology::lp45();
        let w = RepeatedWire::new(&tech, Meters::from_mm(4.0));
        let expected = tech.repeater.leakage * w.repeater_count() as f64;
        assert_eq!(w.leakage(), expected);
    }

    #[test]
    fn explicit_end_load_increases_delay() {
        let tech = Technology::lp45();
        let len = Meters::from_mm(1.0);
        let light = RepeatedWire::with_load(&tech, len, Farads::from_ff(1.0));
        let heavy = RepeatedWire::with_load(&tech, len, Farads::from_ff(50.0));
        assert!(heavy.delay() > light.delay());
    }
}
