//! # mot3d — reproduction of the DATE 2016 power-efficient 3-D MoT interconnect
//!
//! A full reimplementation of *"A Power-Efficient 3-D On-Chip Interconnect
//! for Multi-Core Accelerators with Stacked L2 Cache"* (Kang, Park, Lee,
//! Benini, De Micheli — DATE 2016): the reconfigurable circuit-switched
//! 3-D Mesh-of-Tree interconnect, the three packet-switched baselines it
//! is compared against, the multicore cluster simulator and memory
//! hierarchy that evaluate them, the physical (Elmore/TSV/CACTI/McPAT
//! style) models behind every latency and energy number, and the
//! SPLASH-2-inspired workloads that drive the experiments.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`phys`] — units, technology, RC/Elmore, TSV, SRAM, floorplan, power;
//! * [`mot`] — the paper's contribution: the reconfigurable 3-D MoT;
//! * [`noc`] — True 3-D Mesh, Hybrid Bus-Mesh, Hybrid Bus-Tree baselines;
//! * [`mem`] — caches, MSI directory, Miss bus, DRAM, golden memory;
//! * [`sim`] — the cluster simulator (Graphite substitute);
//! * [`workloads`] — the eight SPLASH-2-style programs;
//! * [`trace`] — Perfetto-loadable timeline tracing, zero-cost when off.
//!
//! # Quickstart
//!
//! ```
//! use mot3d::prelude::*;
//!
//! // Table I, derived from physics: 12-cycle L2 round trip at Full
//! // connection, 7 cycles in the deepest power-gated state.
//! let full = MotNetwork::date16(PowerState::full())?;
//! let gated = MotNetwork::date16(PowerState::pc4_mb8())?;
//! assert_eq!(full.latency().round_trip(), 12);
//! assert_eq!(gated.latency().round_trip(), 7);
//!
//! // Run a (scaled-down) SPLASH-2-style program on the simulated cluster.
//! let metrics = run_benchmark(SplashBenchmark::Fft, 0.002, &SimConfig::date16())?;
//! assert!(metrics.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use mot3d_mem as mem;
pub use mot3d_mot as mot;
pub use mot3d_noc as noc;
pub use mot3d_phys as phys;
pub use mot3d_sim as sim;
pub use mot3d_trace as trace;
pub use mot3d_workloads as workloads;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use mot3d_mem::dram::DramKind;
    pub use mot3d_mot::latency::MotLatency;
    pub use mot3d_mot::power_state::PowerState;
    pub use mot3d_mot::traits::Interconnect;
    pub use mot3d_mot::{MotError, MotNetwork};
    pub use mot3d_noc::{NocNetwork, NocTopologyKind};
    pub use mot3d_phys::geometry::Floorplan;
    pub use mot3d_phys::Technology;
    pub use mot3d_sim::{
        run_benchmark, run_spec, Cluster, InterconnectChoice, Metrics, SimConfig, SimError,
    };
    pub use mot3d_workloads::{SplashBenchmark, WorkloadSource, WorkloadSpec};
}
