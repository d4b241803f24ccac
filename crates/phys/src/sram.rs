//! CACTI-style analytic SRAM bank model.
//!
//! The paper estimates "the size of a cache bank and the propagation delay
//! from bank I/Os to memory core cells within a SRAM cache bank ... from
//! CACTI \[13\]". This module reproduces that role with a compact analytic
//! model: the bank is partitioned into mats of at most 256 columns ×
//! 128 rows (CACTI-style subarray sizing); the access path is row decoder
//! → wordline → bitline discharge → sense amplifier → output drive →
//! H-tree routing back to the bank I/Os. All mats holding bits of the
//! addressed set activate in parallel.
//!
//! The model returns access delay, per-access read/write energy, leakage
//! power, and bank area. Constants are calibrated so a 64 KB / 32 B-block /
//! 8-way bank (the paper's L2 bank) lands at ≈ 2 cycles of access at 1 GHz
//! and a few tens of pJ per access, consistent with CACTI 4.0-era numbers
//! for a 45 nm-class node.

use std::error::Error;
use std::fmt;

use crate::rc::RepeatedWire;
use crate::technology::Technology;
use crate::units::{Farads, Joules, Meters, Seconds, SquareMeters, Volts, Watts};

/// Bitline capacitance contributed by one cell (drain junction + wire).
const BITLINE_CAP_PER_CELL: Farads = Farads::from_ff(0.8);
/// Wordline capacitance contributed by one cell (two access-gate inputs).
const WORDLINE_CAP_PER_CELL: Farads = Farads::from_ff(0.4);
/// Bitline sensing swing (differential, small-signal).
const BITLINE_SWING: Volts = Volts::new(0.2);
/// Fixed sense-amplifier resolution time.
const SENSE_AMP_DELAY: Seconds = Seconds::from_ps(120.0);
/// Sense-amplifier energy per column sensed.
const SENSE_AMP_ENERGY: Joules = Joules::from_pj(0.005);
/// Fixed output-driver delay.
const OUTPUT_DRIVER_DELAY: Seconds = Seconds::from_ps(100.0);
/// Decoder delay per address bit (one gate level each) plus fixed predecode.
const DECODER_DELAY_PER_BIT: Seconds = Seconds::from_ps(22.0);
const DECODER_FIXED: Seconds = Seconds::from_ps(50.0);
/// Equivalent resistance of the dedicated wordline driver.
const WORDLINE_DRIVER_RES: f64 = 1_000.0;
/// Largest subarray (mat) dimensions, CACTI-style.
const MAX_SUB_COLS: usize = 256;
const MAX_SUB_ROWS: usize = 128;
/// Fraction of bank area occupied by the cell arrays (rest is periphery).
const AREA_EFFICIENCY: f64 = 0.5;
/// Peripheral leakage as a fraction of array leakage.
const PERIPHERY_LEAKAGE_FRACTION: f64 = 0.25;

/// Errors produced when an SRAM configuration is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SramConfigError {
    /// Capacity is zero or not divisible into whole sets.
    BadCapacity {
        /// Requested capacity in bytes.
        capacity: usize,
        /// Bytes per set (`block_bytes × associativity`).
        set_bytes: usize,
    },
    /// Block size or associativity is zero.
    ZeroField(&'static str),
}

impl fmt::Display for SramConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SramConfigError::BadCapacity {
                capacity,
                set_bytes,
            } => write!(
                f,
                "capacity {capacity} B is not a positive multiple of the set size {set_bytes} B"
            ),
            SramConfigError::ZeroField(name) => write!(f, "{name} must be non-zero"),
        }
    }
}

impl Error for SramConfigError {}

/// Logical organisation of an SRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Total data capacity in bytes.
    pub capacity_bytes: usize,
    /// Cache block (line) size in bytes; one block is read per access.
    pub block_bytes: usize,
    /// Set associativity (ways stored side by side in a row).
    pub associativity: usize,
}

impl SramConfig {
    /// The paper's L2 cache bank: 64 KB, 32 B blocks, 8-way (Table I).
    pub fn l2_bank_date16() -> Self {
        SramConfig {
            capacity_bytes: 64 * 1024,
            block_bytes: 32,
            associativity: 8,
        }
    }

    /// The paper's private L1 cache: 4 KB, 32 B blocks, 4-way (Table I).
    pub fn l1_date16() -> Self {
        SramConfig {
            capacity_bytes: 4 * 1024,
            block_bytes: 32,
            associativity: 4,
        }
    }

    /// Number of sets (rows of the logical array).
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.block_bytes * self.associativity)
    }
}

/// Delay/energy/area estimates for one SRAM bank.
///
/// # Examples
///
/// ```
/// use mot3d_phys::{sram::{SramBank, SramConfig}, Technology};
///
/// let tech = Technology::lp45();
/// let bank = SramBank::model(&tech, SramConfig::l2_bank_date16())?;
/// assert_eq!(bank.access_cycles(&tech), 2); // Table I's bank contribution
/// # Ok::<(), mot3d_phys::sram::SramConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramBank {
    access_delay: Seconds,
    read_energy: Joules,
    write_energy: Joules,
    leakage: Watts,
    area: SquareMeters,
    rows: usize,
    cols: usize,
}

impl SramBank {
    /// Evaluates the analytic model for `config` in technology `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`SramConfigError`] if the capacity does not divide into
    /// whole sets or any field is zero.
    pub fn model(tech: &Technology, config: SramConfig) -> Result<Self, SramConfigError> {
        if config.block_bytes == 0 {
            return Err(SramConfigError::ZeroField("block_bytes"));
        }
        if config.associativity == 0 {
            return Err(SramConfigError::ZeroField("associativity"));
        }
        let set_bytes = config.block_bytes * config.associativity;
        if config.capacity_bytes == 0 || config.capacity_bytes % set_bytes != 0 {
            return Err(SramConfigError::BadCapacity {
                capacity: config.capacity_bytes,
                set_bytes,
            });
        }

        let rows = config.sets();
        let cols = config.block_bytes * 8 * config.associativity;

        // Partition into mats no larger than 256 × 128 cells.
        let sub_cols = cols.clamp(1, MAX_SUB_COLS);
        let sub_rows = rows.clamp(1, MAX_SUB_ROWS);

        let cell_pitch = Meters::from_um(tech.sram_cell_area_um2.sqrt() * 1.2);

        // --- delay -----------------------------------------------------
        let addr_bits = (rows.max(2) as f64).log2().ceil();
        let decoder = DECODER_FIXED + DECODER_DELAY_PER_BIT * addr_bits;

        let wl_len = cell_pitch * sub_cols as f64;
        let wl_cap = WORDLINE_CAP_PER_CELL * sub_cols as f64 + tech.wire_capacitance.over(wl_len);
        let wl_res = tech.wire_resistance.over(wl_len);
        // Distributed wordline: 0.38·R·C plus the dedicated-driver term.
        let wordline = Seconds::new(
            0.38 * wl_res.value() * wl_cap.value()
                + core::f64::consts::LN_2 * WORDLINE_DRIVER_RES * wl_cap.value(),
        );

        let bl_cap = BITLINE_CAP_PER_CELL * sub_rows as f64;
        // Cell read current discharges the bitline by the sensing swing;
        // an LP cell drives ≈ 40 µA.
        let cell_current = 40e-6;
        let bitline = Seconds::new(bl_cap.value() * BITLINE_SWING.value() / cell_current);

        // H-tree from the bank I/O to the mat and back (half the bank side
        // each way on average, repeated wire).
        let area = SquareMeters::new(
            config.capacity_bytes as f64 * 8.0 * tech.sram_cell_area_um2 * 1e-12 / AREA_EFFICIENCY,
        );
        let side = Meters::new(area.value().sqrt());
        let htree = RepeatedWire::new(tech, side / 2.0);

        let access_delay =
            decoder + wordline + bitline + SENSE_AMP_DELAY + OUTPUT_DRIVER_DELAY + htree.delay();

        // --- energy ----------------------------------------------------
        // Read: every bitline of the addressed set (all ways in parallel,
        // CACTI fast mode) swings by the sensing voltage; sense amps fire
        // per column; the H-tree toggles with ~half the block bits.
        let set_cols = cols as f64;
        let bitline_read =
            Joules::new(bl_cap.value() * set_cols * BITLINE_SWING.value() * tech.vdd.value());
        let sense = SENSE_AMP_ENERGY * set_cols;
        let block_bits = (config.block_bytes * 8) as f64;
        let htree_energy = htree.energy_per_transition() * (block_bits * 0.5);
        let wordline_energy = wl_cap.switching_energy(tech.vdd);
        let read_energy = bitline_read + sense + htree_energy + wordline_energy + decoder_energy();

        // Write: the selected way's columns swing full rail; the other
        // ways' bitlines still see the read-style swing (the row opens for
        // the whole set).
        let other_ways = set_cols - block_bits;
        let bitline_write = Farads::new(bl_cap.value() * block_bits).switching_energy(tech.vdd)
            + Joules::new(bl_cap.value() * other_ways * BITLINE_SWING.value() * tech.vdd.value());
        let write_energy = bitline_write + htree_energy + wordline_energy + decoder_energy();

        // --- leakage ---------------------------------------------------
        let kb = config.capacity_bytes as f64 / 1024.0;
        let leakage = tech.sram_leakage_per_kb * (kb * (1.0 + PERIPHERY_LEAKAGE_FRACTION));

        Ok(SramBank {
            access_delay,
            read_energy,
            write_energy,
            leakage,
            area,
            rows,
            cols,
        })
    }

    /// Propagation delay from bank I/Os to the cells and back (one access).
    #[inline]
    pub fn access_delay(&self) -> Seconds {
        self.access_delay
    }

    /// Access delay quantised to clock cycles.
    #[inline]
    pub fn access_cycles(&self, tech: &Technology) -> u64 {
        tech.cycles_for(self.access_delay)
    }

    /// Dynamic energy of one block read.
    #[inline]
    pub fn read_energy(&self) -> Joules {
        self.read_energy
    }

    /// Dynamic energy of one block write.
    #[inline]
    pub fn write_energy(&self) -> Joules {
        self.write_energy
    }

    /// Leakage power while the bank is powered. This is what power-gating
    /// an L2 bank (the paper's `MB8` states) saves.
    #[inline]
    pub fn leakage(&self) -> Watts {
        self.leakage
    }

    /// Estimated silicon area of the bank.
    #[inline]
    pub fn area(&self) -> SquareMeters {
        self.area
    }

    /// Logical rows (sets) of the array.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns (bits per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Fixed decoder switching energy per access.
fn decoder_energy() -> Joules {
    Joules::from_pj(0.8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_bank_is_two_cycles_at_1ghz() {
        let tech = Technology::lp45();
        let bank = SramBank::model(&tech, SramConfig::l2_bank_date16()).unwrap();
        assert_eq!(
            bank.access_cycles(&tech),
            2,
            "access delay {} ns",
            bank.access_delay().ns()
        );
    }

    #[test]
    fn l1_is_single_cycle() {
        // Table I: L1 has 1-cycle latency.
        let tech = Technology::lp45();
        let l1 = SramBank::model(&tech, SramConfig::l1_date16()).unwrap();
        assert_eq!(
            l1.access_cycles(&tech),
            1,
            "delay {} ns",
            l1.access_delay().ns()
        );
    }

    #[test]
    fn geometry_of_the_paper_bank() {
        let tech = Technology::lp45();
        let bank = SramBank::model(&tech, SramConfig::l2_bank_date16()).unwrap();
        assert_eq!(bank.rows(), 256);
        assert_eq!(bank.cols(), 2048);
        // 64 KB at ~0.35 µm²/cell and 50 % efficiency: ~0.3–0.5 mm².
        let mm2 = bank.area().value() * 1e6;
        assert!(mm2 > 0.2 && mm2 < 0.6);
    }

    #[test]
    fn read_energy_in_cacti_band() {
        let tech = Technology::lp45();
        let bank = SramBank::model(&tech, SramConfig::l2_bank_date16()).unwrap();
        let pj = bank.read_energy().pj();
        assert!(pj > 5.0 && pj < 120.0, "read energy {pj} pJ");
    }

    #[test]
    fn write_and_read_energy_are_comparable() {
        // CACTI-era 64 KB banks: read and write land within 2× of each
        // other (reads sense every way; writes swing the written way full
        // rail).
        let tech = Technology::lp45();
        let bank = SramBank::model(&tech, SramConfig::l2_bank_date16()).unwrap();
        let ratio = bank.write_energy() / bank.read_energy();
        assert!(ratio > 0.5 && ratio < 2.0, "write/read ratio {ratio}");
    }

    #[test]
    fn bigger_bank_is_slower_and_hungrier() {
        let tech = Technology::lp45();
        let small = SramBank::model(&tech, SramConfig::l2_bank_date16()).unwrap();
        let big = SramBank::model(
            &tech,
            SramConfig {
                capacity_bytes: 256 * 1024,
                ..SramConfig::l2_bank_date16()
            },
        )
        .unwrap();
        assert!(big.access_delay() > small.access_delay());
        assert!(big.leakage() > small.leakage());
        assert!(big.area() > small.area());
    }

    #[test]
    fn leakage_scales_with_capacity() {
        let tech = Technology::lp45();
        let bank = SramBank::model(&tech, SramConfig::l2_bank_date16()).unwrap();
        let expected = tech.sram_leakage_per_kb * (64.0 * 1.25);
        assert!((bank.leakage() / expected - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_indivisible_capacity() {
        let tech = Technology::lp45();
        let err = SramBank::model(
            &tech,
            SramConfig {
                capacity_bytes: 1000,
                block_bytes: 32,
                associativity: 8,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SramConfigError::BadCapacity { .. }));
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    fn rejects_zero_fields() {
        let tech = Technology::lp45();
        for (block, assoc, name) in [(0usize, 8usize, "block_bytes"), (32, 0, "associativity")] {
            let err = SramBank::model(
                &tech,
                SramConfig {
                    capacity_bytes: 64 * 1024,
                    block_bytes: block,
                    associativity: assoc,
                },
            )
            .unwrap_err();
            assert_eq!(err, SramConfigError::ZeroField(name));
        }
    }
}
