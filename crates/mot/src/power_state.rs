//! Cluster power states (§III, Table I).
//!
//! A power state names how many cores and L2 banks stay powered; everything
//! else — the complementary cores, banks, and the interconnect circuits
//! serving only them — is power-gated. The paper evaluates four states on
//! its 16-core / 32-bank cluster:
//!
//! | name            | cores | banks | L2 latency (Table I) |
//! |-----------------|-------|-------|----------------------|
//! | Full connection | 16    | 32    | 12 cycles            |
//! | PC16-MB8        | 16    | 8     | 9 cycles             |
//! | PC4-MB32        | 4     | 32    | 9 cycles             |
//! | PC4-MB8         | 4     | 8     | 7 cycles             |
//!
//! `PCx` = x powered cores, `MBy` = y powered memory banks. The type
//! supports any power-of-two combination for sweeps beyond the paper's
//! four points.

use std::error::Error;
use std::fmt;

/// Number of cores and L2 banks kept powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PowerState {
    active_cores: usize,
    active_banks: usize,
}

/// Errors from invalid power-state requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerStateError {
    /// Active count must be a non-zero power of two (the MoT folds whole
    /// subtrees, so only power-of-two populations are reachable).
    NotPowerOfTwo(&'static str, usize),
    /// Active count exceeds the physical total.
    ExceedsTotal(&'static str, usize, usize),
}

impl fmt::Display for PowerStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerStateError::NotPowerOfTwo(what, n) => {
                write!(f, "active {what} must be a non-zero power of two, got {n}")
            }
            PowerStateError::ExceedsTotal(what, n, total) => {
                write!(f, "{n} active {what} exceed the {total} present")
            }
        }
    }
}

impl Error for PowerStateError {}

impl PowerState {
    /// Creates a power state, validating both counts are non-zero powers
    /// of two.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] otherwise.
    pub fn new(active_cores: usize, active_banks: usize) -> Result<Self, PowerStateError> {
        if active_cores == 0 || !active_cores.is_power_of_two() {
            return Err(PowerStateError::NotPowerOfTwo("cores", active_cores));
        }
        if active_banks == 0 || !active_banks.is_power_of_two() {
            return Err(PowerStateError::NotPowerOfTwo("banks", active_banks));
        }
        Ok(PowerState {
            active_cores,
            active_banks,
        })
    }

    /// Full connection: all 16 cores and all 32 banks powered.
    pub fn full() -> Self {
        PowerState {
            active_cores: 16,
            active_banks: 32,
        }
    }

    /// PC16-MB8: all cores, 8 banks.
    pub fn pc16_mb8() -> Self {
        PowerState {
            active_cores: 16,
            active_banks: 8,
        }
    }

    /// PC4-MB32: 4 cores, all banks.
    pub fn pc4_mb32() -> Self {
        PowerState {
            active_cores: 4,
            active_banks: 32,
        }
    }

    /// PC4-MB8: 4 cores, 8 banks.
    pub fn pc4_mb8() -> Self {
        PowerState {
            active_cores: 4,
            active_banks: 8,
        }
    }

    /// The paper's four evaluated states, in Fig. 7 order.
    pub fn date16_states() -> [PowerState; 4] {
        [
            PowerState::full(),
            PowerState::pc16_mb8(),
            PowerState::pc4_mb32(),
            PowerState::pc4_mb8(),
        ]
    }

    /// Powered core count.
    #[inline]
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Powered bank count.
    #[inline]
    pub fn active_banks(&self) -> usize {
        self.active_banks
    }

    /// Checks the state fits a cluster of the given totals.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError::ExceedsTotal`] when it does not.
    pub fn check_fits(
        &self,
        total_cores: usize,
        total_banks: usize,
    ) -> Result<(), PowerStateError> {
        if self.active_cores > total_cores {
            return Err(PowerStateError::ExceedsTotal(
                "cores",
                self.active_cores,
                total_cores,
            ));
        }
        if self.active_banks > total_banks {
            return Err(PowerStateError::ExceedsTotal(
                "banks",
                self.active_banks,
                total_banks,
            ));
        }
        Ok(())
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PowerState::full() {
            write!(f, "Full connection")
        } else {
            write!(f, "PC{}-MB{}", self.active_cores, self.active_banks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        assert_eq!(PowerState::full().active_cores(), 16);
        assert_eq!(PowerState::full().active_banks(), 32);
        assert_eq!(PowerState::pc16_mb8().active_banks(), 8);
        assert_eq!(PowerState::pc4_mb32().active_cores(), 4);
        assert_eq!(PowerState::pc4_mb8().active_cores(), 4);
        assert_eq!(PowerState::pc4_mb8().active_banks(), 8);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(PowerState::full().to_string(), "Full connection");
        assert_eq!(PowerState::pc16_mb8().to_string(), "PC16-MB8");
        assert_eq!(PowerState::pc4_mb32().to_string(), "PC4-MB32");
        assert_eq!(PowerState::pc4_mb8().to_string(), "PC4-MB8");
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            PowerState::new(3, 32),
            Err(PowerStateError::NotPowerOfTwo("cores", 3))
        ));
        assert!(matches!(
            PowerState::new(4, 12),
            Err(PowerStateError::NotPowerOfTwo("banks", 12))
        ));
        assert!(matches!(
            PowerState::new(0, 8),
            Err(PowerStateError::NotPowerOfTwo("cores", 0))
        ));
    }

    #[test]
    fn check_fits_enforces_totals() {
        let s = PowerState::new(32, 64).unwrap();
        assert!(s.check_fits(32, 64).is_ok());
        assert!(matches!(
            s.check_fits(16, 64),
            Err(PowerStateError::ExceedsTotal("cores", 32, 16))
        ));
        assert!(matches!(
            s.check_fits(32, 32),
            Err(PowerStateError::ExceedsTotal("banks", 64, 32))
        ));
    }

    #[test]
    fn date16_states_in_figure_order() {
        let names: Vec<String> = PowerState::date16_states()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            names,
            vec!["Full connection", "PC16-MB8", "PC4-MB32", "PC4-MB8"]
        );
    }
}
