//! # mot3d-mem — memory substrate
//!
//! The cache/DRAM substrate of the DATE 2016 3-D MoT reproduction. The
//! paper's cluster (Fig. 1, Table I) stacks a shared, multi-banked L2
//! cache over cores with private L1s, refilled from off-cluster DRAM over
//! a round-robin *Miss bus*. This crate provides every storage component:
//!
//! * [`addr`] — line/bank address decomposition (32 B lines interleaved
//!   over 32 banks);
//! * [`cache`] — a generic set-associative LRU cache used for
//!   both the 4 KB 4-way L1s and the 64 KB 8-way L2 banks, with full-tag
//!   storage so the power-gating fold needs no cache changes;
//! * [`coherence`] — per-L2-line MSI directory state for the private L1s;
//! * [`bus`] — the round-robin refill bus;
//! * [`dram`] — Table I's three DRAM options (200/63/42 ns) with an
//!   optional open-page refinement;
//! * [`golden`] — a flat oracle memory for end-to-end correctness checks;
//! * [`linemap`] — the flat open-addressed line→token map backing the
//!   DRAM store and the golden oracle.
//!
//! Data is modelled as one `u64` token per line, which is sufficient to
//! verify that no store is ever lost — including across the dirty-flush
//! sequence of a runtime power-state transition (§III).
//!
//! # Quick example
//!
//! ```
//! use mot3d_mem::addr::{AddressMap, LineAddr};
//! use mot3d_mem::cache::{CacheConfig, SetAssocCache};
//!
//! let map = AddressMap::date16();
//! let mut l1: SetAssocCache<()> = SetAssocCache::new(CacheConfig::l1_date16())?;
//! let line = map.line_of(0x8000);
//! assert_eq!(l1.read(line), None);       // cold miss
//! l1.fill(line, 7, false);               // refill from L2
//! assert_eq!(l1.read(line), Some(7));    // hit
//! # Ok::<(), mot3d_mem::cache::CacheConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod addr;
pub mod bus;
pub mod cache;
pub mod coherence;
pub mod dram;
pub mod golden;
pub mod linemap;
