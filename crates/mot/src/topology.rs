//! Mesh-of-Tree topology (Fig. 2(a)).
//!
//! A MoT interconnect for `P` cores and `B` banks (both powers of two) is
//! two families of binary trees:
//!
//! * one **routing tree** per core, depth `log2(B)`: level 1 consumes the
//!   bank-index MSB, level `log2(B)` the LSB. Each tree has `B − 1`
//!   routing switches.
//! * one **arbitration tree** per bank, depth `log2(P)`, merging the `P`
//!   request lines into the bank with `P − 1` round-robin cells.
//!
//! A core→bank transaction traverses `log2(B)` routing switches, then
//! `log2(P)` arbitration levels, then the bank's TSV bus (Fig. 1).
//!
//! Switches are addressed as `(level, index)`: level `ℓ ∈ 1..=log2(B)` has
//! `2^(ℓ−1)` switches, and the switch met en route to bank `b` at level
//! `ℓ` is the one indexed by `b`'s top `ℓ − 1` bits.

use std::error::Error;
use std::fmt;

/// Errors from invalid topology parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Core/bank counts must be non-zero powers of two.
    NotPowerOfTwo(&'static str, usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NotPowerOfTwo(what, n) => {
                write!(f, "{what} must be a non-zero power of two, got {n}")
            }
        }
    }
}

impl Error for TopologyError {}

/// Identifies one routing switch inside one core's routing tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchAddr {
    /// Tree level, `1 ..= log2(banks)`.
    pub level: u32,
    /// Switch index within the level, `0 .. 2^(level-1)`.
    pub index: usize,
}

/// The MoT structure for a given cluster size.
///
/// # Examples
///
/// ```
/// use mot3d_mot::topology::MotTopology;
///
/// // The paper's Fig. 2(a) example: 4 cores × 8 banks.
/// let mot = MotTopology::new(4, 8)?;
/// assert_eq!(mot.routing_levels(), 3);
/// assert_eq!(mot.routing_switches_per_tree(), 7);
/// assert_eq!(mot.arbitration_cells_per_tree(), 3);
/// # Ok::<(), mot3d_mot::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotTopology {
    cores: usize,
    banks: usize,
}

impl MotTopology {
    /// Builds the topology, validating both counts.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NotPowerOfTwo`] if a count is 0 or not a power of
    /// two.
    pub fn new(cores: usize, banks: usize) -> Result<Self, TopologyError> {
        if cores == 0 || !cores.is_power_of_two() {
            return Err(TopologyError::NotPowerOfTwo("cores", cores));
        }
        if banks == 0 || !banks.is_power_of_two() {
            return Err(TopologyError::NotPowerOfTwo("banks", banks));
        }
        Ok(MotTopology { cores, banks })
    }

    /// The paper's cluster: 16 cores × 32 banks.
    pub fn date16() -> Self {
        MotTopology {
            cores: 16,
            banks: 32,
        }
    }

    /// Number of cores (routing trees).
    #[inline]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of banks (arbitration trees).
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Routing-tree depth `log2(banks)`.
    #[inline]
    pub fn routing_levels(&self) -> u32 {
        self.banks.trailing_zeros()
    }

    /// Arbitration-tree depth `log2(cores)`.
    #[inline]
    pub fn arbitration_levels(&self) -> u32 {
        self.cores.trailing_zeros()
    }

    /// Routing switches in one core's tree (`banks − 1`).
    #[inline]
    pub fn routing_switches_per_tree(&self) -> usize {
        self.banks - 1
    }

    /// Arbitration cells in one bank's tree (`cores − 1`).
    #[inline]
    pub fn arbitration_cells_per_tree(&self) -> usize {
        self.cores - 1
    }

    /// The bank-index bit consumed by routing level `ℓ` (level 1 → MSB).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of `1..=routing_levels()`.
    pub fn bit_of_level(&self, level: u32) -> u32 {
        assert!(
            (1..=self.routing_levels()).contains(&level),
            "level {level} out of 1..={}",
            self.routing_levels()
        );
        self.routing_levels() - level
    }

    /// Number of switches in one tree level (`2^(level−1)`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn switches_in_level(&self, level: u32) -> usize {
        assert!(
            (1..=self.routing_levels()).contains(&level),
            "level {level} out of 1..={}",
            self.routing_levels()
        );
        1 << (level - 1)
    }

    /// The banks reachable through routing switch `(level, index)` — the
    /// leaves of its subtree.
    pub fn banks_under(&self, sw: SwitchAddr) -> std::ops::Range<usize> {
        let span = self.banks >> (sw.level - 1);
        (sw.index * span)..((sw.index + 1) * span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date16_dimensions() {
        let t = MotTopology::date16();
        assert_eq!(t.routing_levels(), 5);
        assert_eq!(t.arbitration_levels(), 4);
        assert_eq!(t.cores() * t.routing_switches_per_tree(), 16 * 31);
        assert_eq!(t.banks() * t.arbitration_cells_per_tree(), 32 * 15);
    }

    #[test]
    fn fig2_example_4x8() {
        let t = MotTopology::new(4, 8).unwrap();
        assert_eq!(t.routing_levels(), 3);
        assert_eq!(t.arbitration_levels(), 2);
        assert_eq!(t.routing_switches_per_tree(), 7);
        assert_eq!(t.arbitration_cells_per_tree(), 3);
    }

    #[test]
    fn level_bits_are_msb_first() {
        let t = MotTopology::new(4, 8).unwrap(); // 3 levels, bits 2,1,0
        assert_eq!(t.bit_of_level(1), 2);
        assert_eq!(t.bit_of_level(2), 1);
        assert_eq!(t.bit_of_level(3), 0);
    }

    #[test]
    fn banks_under_covers_subtree() {
        let t = MotTopology::new(4, 8).unwrap();
        assert_eq!(t.banks_under(SwitchAddr { level: 1, index: 0 }), 0..8);
        assert_eq!(t.banks_under(SwitchAddr { level: 2, index: 1 }), 4..8);
        assert_eq!(t.banks_under(SwitchAddr { level: 3, index: 2 }), 4..6);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(matches!(
            MotTopology::new(3, 8),
            Err(TopologyError::NotPowerOfTwo("cores", 3))
        ));
        assert!(matches!(
            MotTopology::new(4, 0),
            Err(TopologyError::NotPowerOfTwo("banks", 0))
        ));
    }
}
