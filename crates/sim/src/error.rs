//! Simulator error type.

use mot3d_mem::cache::CacheConfigError;
use mot3d_mot::power_state::PowerStateError;
use mot3d_mot::MotError;
use mot3d_noc::NocTopologyKind;
use mot3d_phys::sram::SramConfigError;
use std::error::Error;
use std::fmt;

/// Any error a simulation can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The MoT rejected its configuration.
    Mot(MotError),
    /// The power state is invalid for the cluster.
    PowerState(PowerStateError),
    /// A cache geometry in the cluster configuration is inconsistent.
    CacheConfig(CacheConfigError),
    /// An SRAM geometry in the cluster configuration is inconsistent.
    SramConfig(SramConfigError),
    /// Packet-switched baselines are not reconfigurable: they only run
    /// the full connection (the paper evaluates them there, Fig. 6).
    NocNeedsFullState(NocTopologyKind),
    /// The stream count does not match the active core count.
    StreamCountMismatch {
        /// Streams supplied.
        streams: usize,
        /// Cores the power state keeps on.
        active_cores: usize,
    },
    /// The run exceeded the configured cycle budget.
    CycleLimit(u64),
    /// Runtime reconfiguration requested on a non-reconfigurable
    /// interconnect.
    NotReconfigurable,
    /// Runtime transitions cannot change the core count (no migration
    /// model).
    CoreCountChange {
        /// Cores before.
        from: usize,
        /// Cores requested.
        to: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mot(e) => write!(f, "interconnect: {e}"),
            SimError::PowerState(e) => write!(f, "power state: {e}"),
            SimError::CacheConfig(e) => write!(f, "cache geometry: {e}"),
            SimError::SramConfig(e) => write!(f, "sram geometry: {e}"),
            SimError::NocNeedsFullState(kind) => write!(
                f,
                "{kind} is not reconfigurable; it only runs Full connection"
            ),
            SimError::StreamCountMismatch {
                streams,
                active_cores,
            } => write!(
                f,
                "{streams} workload streams for {active_cores} active cores"
            ),
            SimError::CycleLimit(n) => write!(f, "simulation exceeded {n} cycles"),
            SimError::NotReconfigurable => {
                write!(
                    f,
                    "runtime power-state switching needs the reconfigurable MoT"
                )
            }
            SimError::CoreCountChange { from, to } => write!(
                f,
                "runtime transition cannot change core count ({from} → {to})"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Mot(e) => Some(e),
            SimError::PowerState(e) => Some(e),
            SimError::CacheConfig(e) => Some(e),
            SimError::SramConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MotError> for SimError {
    fn from(e: MotError) -> Self {
        SimError::Mot(e)
    }
}

impl From<PowerStateError> for SimError {
    fn from(e: PowerStateError) -> Self {
        SimError::PowerState(e)
    }
}

impl From<CacheConfigError> for SimError {
    fn from(e: CacheConfigError) -> Self {
        SimError::CacheConfig(e)
    }
}

impl From<SramConfigError> for SimError {
    fn from(e: SramConfigError) -> Self {
        SimError::SramConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::StreamCountMismatch {
            streams: 4,
            active_cores: 16,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains("16"));
        let e2 = SimError::CycleLimit(100);
        assert!(e2.to_string().contains("100"));
    }
}
