//! 3-D cluster floorplan and wire-length model (Fig. 1(b) / Fig. 5).
//!
//! The paper's cluster is a 5 mm × 5 mm processor die with the MoT
//! interconnect "placed in the middle of the core tier", and two cache
//! tiers stacked on top (~40 µm per die-to-die crossing). Cores sit on a
//! 4 × 4 grid; each cache tier carries a 4 × 4 grid of bank sites whose TSV
//! buses land at the matching (x, y) position of the core tier.
//!
//! Power-gating keeps a *centered* sub-grid of cores and of bank pillars
//! alive (Fig. 4 folds traffic toward the inner banks, Fig. 5 shows the
//! active region contracting around the die center). The longest possible
//! core→bank link of a power state is therefore
//!
//! ```text
//! L(state) = manhattan(farthest active core → center)
//!          + manhattan(center → farthest active pillar)        [horizontal]
//!          + tiers × 40 µm                                     [vertical]
//! ```
//!
//! which yields the paper's wide disparity between the `Full` state
//! (≈ 7.5 mm horizontal) and `PC4-MB8` (≈ 2.5 mm) on the 5 mm die. These
//! lengths feed the Elmore/repeated-wire models to produce Table I's
//! 12/9/9/7-cycle L2 latencies.

use std::error::Error;
use std::fmt;

use crate::tsv::Tsv;
use crate::units::Meters;

/// Errors from inconsistent floorplan queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorplanError {
    /// A core/bank count is not a positive perfect-square grid (cores) or
    /// does not divide evenly over the tiers (banks).
    BadCount {
        /// What was being placed.
        what: &'static str,
        /// The offending count.
        count: usize,
    },
    /// More active elements requested than physically present.
    TooManyActive {
        /// What was being activated.
        what: &'static str,
        /// Requested active count.
        active: usize,
        /// Physical total.
        total: usize,
    },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::BadCount { what, count } => {
                write!(f, "cannot place {count} {what} on a square grid")
            }
            FloorplanError::TooManyActive {
                what,
                active,
                total,
            } => {
                write!(f, "{active} active {what} exceed the {total} present")
            }
        }
    }
}

impl Error for FloorplanError {}

/// Worst-case physical route of one power state, split into the components
/// that the latency model prices separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathGeometry {
    /// Longest in-plane (horizontal) wire from an active core to an active
    /// bank's TSV pillar, Manhattan-routed through the die-center spine.
    pub horizontal: Meters,
    /// Number of die-to-die crossings to the farthest active bank tier.
    pub vertical_hops: usize,
    /// Physical vertical span of those crossings.
    pub vertical: Meters,
}

/// The 3-D cluster floorplan.
///
/// # Examples
///
/// ```
/// use mot3d_phys::geometry::Floorplan;
///
/// let fp = Floorplan::date16();
/// let full = fp.longest_path(16, 32)?;
/// let gated = fp.longest_path(4, 8)?;
/// // Fig. 5: the gated state's wires are ~3× shorter.
/// assert!(full.horizontal.mm() / gated.horizontal.mm() > 2.5);
/// # Ok::<(), mot3d_phys::geometry::FloorplanError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Die width (x, Fig. 5: ~5 mm).
    pub die_width: Meters,
    /// Die height (y, Fig. 5: ~5 mm).
    pub die_height: Meters,
    /// Cores on the processor tier (must form a square grid).
    pub total_cores: usize,
    /// L2 banks over all cache tiers (must divide evenly per tier into a
    /// square grid).
    pub total_banks: usize,
    /// Number of stacked cache tiers.
    pub bank_tiers: usize,
    /// TSV / micro-bump stack used for vertical crossings.
    pub tsv: Tsv,
}

impl Floorplan {
    /// The paper's cluster: 5 mm × 5 mm die, 16 cores, 32 banks on two
    /// cache tiers, 40 µm TSV crossings (Fig. 1, Fig. 5, Table I).
    pub fn date16() -> Self {
        Floorplan {
            die_width: Meters::from_mm(5.0),
            die_height: Meters::from_mm(5.0),
            total_cores: 16,
            total_banks: 32,
            bank_tiers: 2,
            tsv: Tsv::date16(),
        }
    }

    /// Side length of the square core grid.
    ///
    /// # Errors
    ///
    /// [`FloorplanError::BadCount`] if `total_cores` is not a perfect
    /// square.
    pub fn core_grid_side(&self) -> Result<usize, FloorplanError> {
        square_side(self.total_cores).ok_or(FloorplanError::BadCount {
            what: "cores",
            count: self.total_cores,
        })
    }

    /// Side length of the square per-tier bank grid.
    ///
    /// # Errors
    ///
    /// [`FloorplanError::BadCount`] if the banks do not divide evenly into
    /// square per-tier grids.
    pub fn bank_grid_side(&self) -> Result<usize, FloorplanError> {
        let err = FloorplanError::BadCount {
            what: "banks",
            count: self.total_banks,
        };
        if self.bank_tiers == 0 || self.total_banks % self.bank_tiers != 0 {
            return Err(err);
        }
        square_side(self.total_banks / self.bank_tiers).ok_or(err)
    }

    /// Manhattan distance from the die center to the farthest cell of a
    /// centered `active`-cell sub-block of an `n × n` grid over the die.
    fn worst_manhattan(&self, grid_side: usize, active: usize) -> Meters {
        // Active cells form a centered a × a block (a = √active); the grid
        // pitch is die/side and cell centers sit at (i + ½)·pitch.
        let a = square_side(active).unwrap_or(1).max(1);
        let pitch_x = self.die_width / grid_side as f64;
        let pitch_y = self.die_height / grid_side as f64;
        // Offset of the outermost active cell center from the die center,
        // per axis, in units of pitch: (a - 1) / 2.
        let k = (a as f64 - 1.0) / 2.0;
        pitch_x * k + pitch_y * k
    }

    /// Worst-case Manhattan run from an active core to the die-center MoT
    /// spine, with `active_cores` kept alive as a centered block.
    ///
    /// # Errors
    ///
    /// [`FloorplanError`] if the counts are invalid.
    pub fn worst_core_run(&self, active_cores: usize) -> Result<Meters, FloorplanError> {
        let side = self.core_grid_side()?;
        validate_active("cores", active_cores, self.total_cores)?;
        Ok(self.worst_manhattan(side, active_cores))
    }

    /// Worst-case Manhattan run from the die-center spine to an active
    /// bank's TSV pillar, with `active_banks` kept alive as centered
    /// per-tier blocks.
    ///
    /// # Errors
    ///
    /// [`FloorplanError`] if the counts are invalid.
    pub fn worst_pillar_run(&self, active_banks: usize) -> Result<Meters, FloorplanError> {
        let side = self.bank_grid_side()?;
        validate_active("banks", active_banks, self.total_banks)?;
        let per_tier = divide_up(active_banks, self.bank_tiers);
        Ok(self.worst_manhattan(side, per_tier))
    }

    /// Longest possible core→bank route for a power state with the given
    /// active counts (the quantity the paper feeds to the Elmore model).
    ///
    /// # Errors
    ///
    /// [`FloorplanError`] if the counts are invalid.
    pub fn longest_path(
        &self,
        active_cores: usize,
        active_banks: usize,
    ) -> Result<PathGeometry, FloorplanError> {
        let horizontal =
            self.worst_core_run(active_cores)? + self.worst_pillar_run(active_banks)?;
        // Banks fill tiers bottom-up; the farthest active bank determines
        // the hop count.
        let per_tier = self.total_banks / self.bank_tiers;
        let tiers_used = divide_up(active_banks, per_tier).max(1);
        let vertical_hops = tiers_used.min(self.bank_tiers);
        Ok(PathGeometry {
            horizontal,
            vertical_hops,
            vertical: self.tsv.span(vertical_hops),
        })
    }

    /// Rough total active wire length of a power state, used for leakage
    /// accounting (sum over all live MoT links, not just the longest path).
    ///
    /// Approximation: each active core owns a routing tree reaching the
    /// active pillar region (approach run plus twice the active-bank span,
    /// the geometric sum of binary-tree level spans), and each active bank
    /// owns an arbitration tree spanning the active cores along the spine.
    ///
    /// # Errors
    ///
    /// [`FloorplanError`] if the counts are invalid.
    pub fn active_wire_estimate(
        &self,
        active_cores: usize,
        active_banks: usize,
    ) -> Result<Meters, FloorplanError> {
        let core_run = self.worst_core_run(active_cores)?;
        let bank_span = self.worst_pillar_run(active_banks)? * 2.0;
        let core_span = core_run * 2.0;
        let per_core = core_run + bank_span;
        let per_bank = core_span;
        Ok(per_core * active_cores as f64 + per_bank * active_banks as f64)
    }
}

impl Default for Floorplan {
    /// Defaults to the paper's floorplan ([`Floorplan::date16`]).
    fn default() -> Self {
        Floorplan::date16()
    }
}

fn validate_active(what: &'static str, active: usize, total: usize) -> Result<(), FloorplanError> {
    if active == 0 || active > total {
        return Err(FloorplanError::TooManyActive {
            what,
            active,
            total,
        });
    }
    Ok(())
}

/// `√n` if `n` is a perfect square, else `None`.
fn square_side(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let side = (n as f64).sqrt().round() as usize;
    (side * side == n).then_some(side)
}

/// Ceiling division.
fn divide_up(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date16_grids() {
        let fp = Floorplan::date16();
        assert_eq!(fp.core_grid_side().unwrap(), 4);
        assert_eq!(fp.bank_grid_side().unwrap(), 4);
    }

    #[test]
    fn full_state_spans_7_5_mm() {
        let fp = Floorplan::date16();
        let p = fp.longest_path(16, 32).unwrap();
        assert!(
            (p.horizontal.mm() - 7.5).abs() < 1e-9,
            "{} mm",
            p.horizontal.mm()
        );
        assert_eq!(p.vertical_hops, 2);
        assert!((p.vertical.um() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_power_state_lengths() {
        // The four Table I states: 7.5 / 5.0 / 5.0 / 2.5 mm horizontal.
        let fp = Floorplan::date16();
        let cases = [
            ((16, 32), 7.5),
            ((16, 8), 5.0),
            ((4, 32), 5.0),
            ((4, 8), 2.5),
        ];
        for ((cores, banks), mm) in cases {
            let p = fp.longest_path(cores, banks).unwrap();
            assert!(
                (p.horizontal.mm() - mm).abs() < 1e-9,
                "({cores},{banks}) expected {mm} mm got {} mm",
                p.horizontal.mm()
            );
        }
    }

    #[test]
    fn vertical_is_negligible_next_to_horizontal() {
        // Fig. 5's point: z ≈ 40 µm per hop vs ~mm of horizontal wire.
        let fp = Floorplan::date16();
        let p = fp.longest_path(4, 8).unwrap();
        assert!(p.vertical.value() * 10.0 < p.horizontal.value());
    }

    #[test]
    fn single_tier_occupancy_reduces_hops() {
        // 8 active banks fit on the first tier (16 sites): 1 hop.
        let fp = Floorplan::date16();
        assert_eq!(fp.longest_path(16, 8).unwrap().vertical_hops, 1);
        assert_eq!(fp.longest_path(16, 17).unwrap().vertical_hops, 2);
    }

    #[test]
    fn active_wire_shrinks_with_gating() {
        let fp = Floorplan::date16();
        let full = fp.active_wire_estimate(16, 32).unwrap();
        let gated = fp.active_wire_estimate(4, 8).unwrap();
        assert!(
            full.value() / gated.value() > 4.0,
            "full {} mm vs gated {} mm",
            full.mm(),
            gated.mm()
        );
    }

    #[test]
    fn rejects_zero_or_excess_active() {
        let fp = Floorplan::date16();
        assert!(matches!(
            fp.longest_path(0, 32),
            Err(FloorplanError::TooManyActive { what: "cores", .. })
        ));
        assert!(matches!(
            fp.longest_path(16, 64),
            Err(FloorplanError::TooManyActive { what: "banks", .. })
        ));
    }

    #[test]
    fn rejects_non_square_grids() {
        let mut fp = Floorplan::date16();
        fp.total_cores = 12;
        assert!(matches!(
            fp.core_grid_side(),
            Err(FloorplanError::BadCount { what: "cores", .. })
        ));
        let mut fp2 = Floorplan::date16();
        fp2.total_banks = 24; // 12 per tier: not square
        assert!(matches!(
            fp2.bank_grid_side(),
            Err(FloorplanError::BadCount { what: "banks", .. })
        ));
    }

    #[test]
    fn error_messages_name_the_offender() {
        let err = FloorplanError::TooManyActive {
            what: "banks",
            active: 64,
            total: 32,
        };
        assert_eq!(err.to_string(), "64 active banks exceed the 32 present");
    }
}
