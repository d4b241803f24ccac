//! # mot3d-phys — physical modelling substrate
//!
//! Physical models underpinning the reproduction of *"A Power-Efficient 3-D
//! On-Chip Interconnect for Multi-Core Accelerators with Stacked L2 Cache"*
//! (Kang et al., DATE 2016). The paper derives its latency and power
//! numbers from a handful of classical models; this crate implements each
//! of them:
//!
//! * [`units`] — strongly-typed physical quantities (`Seconds`, `Ohms`, …);
//! * [`technology`] — process parameters of a calibrated 45 nm-class LP
//!   node at 1 GHz;
//! * [`rc`] — Elmore RC-tree delay (paper ref \[15\]) and optimally repeated
//!   wires (the power-gateable "inverters placed along the on-chip wires");
//! * [`tsv`] — TSV + micro-bump electrical model (refs \[14\]\[15\]);
//! * [`sram`] — CACTI-style SRAM bank delay/energy/area (ref \[13\]);
//! * [`geometry`] — the 3-D floorplan and Fig. 5 wire-length model;
//! * [`power`] — McPAT-style core power (ref \[19\]), DRAM energy options,
//!   and the energy-delay-product bookkeeping of Figs. 7–8;
//! * [`slab`] — allocation-free hot-path containers (multi-queue
//!   [`slab::FifoSlab`], generational-handle [`slab::GenSlab`]) shared by
//!   the simulator crates above this one;
//! * [`wheel`] — the hierarchical [`wheel::TimingWheel`] event queue
//!   popping in exact `(time, seq)` order: the `O(1)`
//!   schedule/peek/pop replacement for the simulator's former
//!   `BinaryHeap` queues (`mot3d-lint` rule H1);
//! * [`fnv`] — deterministic FNV-1a hashing ([`fnv::FnvHashMap`],
//!   [`fnv::FnvHashSet`]): the sanctioned hash collections for
//!   result-affecting crates (`mot3d-lint` rule D1);
//! * [`json`] — the workspace's one JSON reader and string escaper
//!   (wire protocol, result store, perf baseline).
//!
//! # Quick example
//!
//! Derive the longest-path delay of the paper's full configuration:
//!
//! ```
//! use mot3d_phys::{geometry::Floorplan, rc::RepeatedWire, Technology};
//!
//! let tech = Technology::lp45();
//! let fp = Floorplan::date16();
//! let path = fp.longest_path(16, 32)?; // all 16 cores, all 32 banks
//! let wire = RepeatedWire::new(&tech, path.horizontal);
//! let tsv = fp.tsv.hop_delay(&tech, path.vertical_hops);
//! let one_way = wire.delay() + tsv;
//! assert!(one_way.ns() > 2.0 && one_way.ns() < 5.0);
//! # Ok::<(), mot3d_phys::geometry::FloorplanError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fnv;
pub mod geometry;
pub mod json;
pub mod power;
pub mod rc;
pub mod slab;
pub mod sram;
pub mod technology;
pub mod tsv;
pub mod units;
pub mod wheel;

pub use technology::Technology;
