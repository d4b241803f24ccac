//! # mot3d-sim — the multicore cluster simulator (Graphite substitute)
//!
//! "For the performance evaluation of real applications, we employed
//! Graphite \[11\]" (§IV). This crate plays Graphite's role: a
//! cycle-accurate model of the paper's cluster — 16 in-order 1 GHz cores
//! with private L1 data caches, a shared 32-bank stacked L2 reached over a
//! swappable interconnect (the 3-D MoT or any of the three packet-switched
//! baselines), a round-robin Miss bus, and Table I's three DRAM options —
//! driving the SPLASH-2-style workloads of `mot3d-workloads` and reporting
//! execution time, L2 access latency, per-component energy, and EDP.
//!
//! * [`config`] — run configuration (interconnect, power state, DRAM);
//! * [`cluster`] — the cluster model, including runtime power-state
//!   transitions with dirty-bank flushing (§III);
//! * [`metrics`] — cycles, latency histograms, energy breakdown, EDP;
//! * [`observe`] — zero-cost-when-off observation hooks on the step path
//!   (the seam `mot3d_trace` plugs its timeline tracer into);
//! * [`runner`] — one-call experiment driver.
//!
//! # Quick example
//!
//! ```
//! use mot3d_sim::{run_benchmark, SimConfig};
//! use mot3d_workloads::SplashBenchmark;
//!
//! let m = run_benchmark(SplashBenchmark::Fft, 0.002, &SimConfig::date16())?;
//! println!("fft: {} cycles, mean L2 latency {:.1}", m.cycles, m.l2_latency.mean());
//! # Ok::<(), mot3d_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod config;
mod error;
pub mod metrics;
pub mod observe;
pub mod runner;

pub use cluster::Cluster;
pub use config::{InterconnectChoice, SimConfig};
pub use error::SimError;
pub use metrics::Metrics;
pub use observe::{NullObserver, Observer};
pub use runner::{run_benchmark, run_spec, run_spec_observed, shrink_local_pool, ClusterPool};
