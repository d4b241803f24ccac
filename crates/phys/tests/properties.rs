//! Property-based tests for the physical models (DESIGN.md §5).

use mot3d_phys::geometry::Floorplan;
use mot3d_phys::rc::RepeatedWire;
use mot3d_phys::units::{Meters, Seconds};
use mot3d_phys::Technology;
use proptest::prelude::*;

proptest! {
    /// Repeated-wire delay is strictly monotone in length and roughly
    /// linear (the per-mm cost of the second half never exceeds 2× the
    /// first half's).
    #[test]
    fn repeated_wire_monotone_and_subquadratic(len_mm in 0.2..12.0f64) {
        let tech = Technology::lp45();
        let half = RepeatedWire::new(&tech, Meters::from_mm(len_mm / 2.0)).delay();
        let full = RepeatedWire::new(&tech, Meters::from_mm(len_mm)).delay();
        prop_assert!(full > half);
        // Quadratic growth would give full ≈ 4 × half.
        prop_assert!(full.value() < 3.0 * half.value(),
            "len {len_mm} mm: full {} ps vs half {} ps", full.ps(), half.ps());
    }

    /// Energy per transition and leakage are monotone in wire length.
    #[test]
    fn repeated_wire_energy_monotone(a_mm in 0.1..6.0f64, b_extra in 0.1..6.0f64) {
        let tech = Technology::lp45();
        let short = RepeatedWire::new(&tech, Meters::from_mm(a_mm));
        let long = RepeatedWire::new(&tech, Meters::from_mm(a_mm + b_extra));
        prop_assert!(long.energy_per_transition() > short.energy_per_transition());
        prop_assert!(long.leakage() >= short.leakage());
    }

    /// Gating cores/banks never lengthens the worst-case path, and the
    /// full configuration is always the longest.
    #[test]
    fn floorplan_paths_shrink_with_gating(
        cores_pick in 0usize..3,
        banks_pick in 0usize..4,
    ) {
        let fp = Floorplan::date16();
        let cores = [1usize, 4, 16][cores_pick];
        let banks = [2usize, 4, 8, 32][banks_pick];
        let gated = fp.longest_path(cores, banks).unwrap();
        let full = fp.longest_path(16, 32).unwrap();
        prop_assert!(gated.horizontal <= full.horizontal);
        prop_assert!(gated.vertical_hops <= full.vertical_hops);
    }

    /// The active-wire estimate is monotone in both active counts.
    #[test]
    fn active_wire_monotone(
        c1 in 0usize..3, b1 in 0usize..4,
    ) {
        let fp = Floorplan::date16();
        let cores = [1usize, 4, 16];
        let banks = [2usize, 4, 8, 32];
        let w = fp.active_wire_estimate(cores[c1], banks[b1]).unwrap();
        // Growing either dimension grows the estimate.
        if c1 + 1 < cores.len() {
            let w2 = fp.active_wire_estimate(cores[c1 + 1], banks[b1]).unwrap();
            prop_assert!(w2 >= w);
        }
        if b1 + 1 < banks.len() {
            let w3 = fp.active_wire_estimate(cores[c1], banks[b1 + 1]).unwrap();
            prop_assert!(w3 >= w);
        }
    }

    /// Cycle quantisation: never less than the exact ratio, never more
    /// than one cycle above it.
    #[test]
    fn cycles_for_is_tight_ceiling(delay_ps in 1.0..20_000.0f64) {
        let tech = Technology::lp45();
        let cycles = tech.cycles_for(Seconds::from_ps(delay_ps));
        let exact = delay_ps / tech.period().ps();
        prop_assert!((cycles as f64) >= exact - 1e-9);
        prop_assert!((cycles as f64) < exact + 1.0 + 1e-9);
    }
}
