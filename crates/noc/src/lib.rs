//! # mot3d-noc — packet-switched 3-D baselines
//!
//! The three packet-switched 3-D on-chip interconnects the paper compares
//! against (§IV, Fig. 6):
//!
//! * **True 3-D Mesh** — routers at every core and bank, XYZ
//!   dimension-order routing;
//! * **3-D Hybrid Bus-Mesh** (Li et al., ISCA'06) — a 2-D mesh on the core
//!   layer plus one vertical dTDMA bus pillar per grid position;
//! * **3-D Hybrid Bus-Tree** (Madan et al., HPCA'09) — a quadrant tree on
//!   the core layer plus one shared vertical bus per quadrant.
//!
//! All three implement the same [`mot3d_mot::traits::Interconnect`]
//! contract as the 3-D MoT, so the cluster simulator can swap them freely.
//! Timing/energy constants derive from the shared `mot3d-phys` models.
//!
//! # Quick example
//!
//! ```
//! use mot3d_noc::{NocNetwork, NocTopologyKind};
//! use mot3d_mot::traits::Interconnect;
//!
//! let mesh = NocNetwork::date16(NocTopologyKind::Mesh3d);
//! let mot = mot3d_mot::MotNetwork::date16(mot3d_mot::PowerState::full())?;
//! // The hop-by-hop baselines are slower than the circuit-switched MoT.
//! assert!(mesh.oneway_latency_hint() > mot.oneway_latency_hint());
//! # Ok::<(), mot3d_mot::MotError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod network;
pub mod packet;
pub mod params;
pub mod topo;

pub use network::NocNetwork;
pub use topo::NocTopologyKind;
