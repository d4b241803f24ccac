//! # mot3d-mot — the reconfigurable circuit-switched 3-D Mesh-of-Tree
//!
//! This crate implements the primary contribution of *"A Power-Efficient
//! 3-D On-Chip Interconnect for Multi-Core Accelerators with Stacked L2
//! Cache"* (Kang et al., DATE 2016): a circuit-switched Mesh-of-Tree
//! interconnect between a multi-core cluster and its stacked L2 banks,
//! made **reconfigurable** by a modified routing switch so that cores,
//! banks, and the interconnect circuits serving them can be power-gated.
//!
//! * [`topology`] — the MoT structure: routing trees (one per core) and
//!   arbitration trees (one per bank), Fig. 2(a);
//! * [`switch`] — the modified routing switch's modes with their Fig. 3(b)
//!   control truth table, and round-robin arbitration cells;
//! * [`power_state`] — `Full` / `PC16-MB8` / `PC4-MB32` / `PC4-MB8`;
//! * [`reconfig`] — which switches fold or gate for a state, and the
//!   induced balanced bank remap (Fig. 4);
//! * [`latency`] — Elmore-based derivation of Table I's 12/9/9/7-cycle
//!   L2 latencies from the Fig. 5 wire geometry;
//! * [`energy`] — per-transaction dynamic energy and gateable leakage;
//! * [`network`] — the cycle-accurate non-blocking network model;
//! * [`traits`] — the [`traits::Interconnect`] contract shared with the
//!   packet-switched baselines in `mot3d-noc`.
//!
//! # Quick example
//!
//! ```
//! use mot3d_mot::network::MotNetwork;
//! use mot3d_mot::power_state::PowerState;
//! use mot3d_mot::traits::Interconnect;
//!
//! // Full connection: Table I's 12-cycle L2 round trip.
//! let full = MotNetwork::date16(PowerState::full())?;
//! assert_eq!(full.latency().round_trip(), 12);
//!
//! // Gating 12 cores and 24 banks shortens the active wires: 7 cycles.
//! let gated = MotNetwork::date16(PowerState::pc4_mb8())?;
//! assert_eq!(gated.latency().round_trip(), 7);
//! assert!(gated.leakage_power() < full.leakage_power());
//! # Ok::<(), mot3d_mot::MotError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod error;

pub mod energy;
pub mod latency;
pub mod network;
pub mod power_state;
pub mod reconfig;
pub mod switch;
pub mod topology;
pub mod traits;

pub use error::MotError;
pub use network::MotNetwork;
pub use power_state::PowerState;
