//! # mot3d-serve — sweep service with a content-addressed result cache
//!
//! The ROADMAP's serving story: PRs 5–6 made every sweep point a pure,
//! deterministic function `RunPoint -> RunRecord`, which means repeated
//! points are pure waste. This crate adds the two layers that exploit
//! that purity:
//!
//! * a **persistent result store** ([`store`]) on disk, keyed by a
//!   content hash of the canonicalised run point plus a code/config
//!   fingerprint ([`codec`]) — a hit replays the stored metrics
//!   byte-identically to a fresh run;
//! * a **long-running TCP service** ([`server`]) accepting
//!   `ExperimentPlan` submissions over a line-delimited JSON protocol
//!   ([`protocol`]), deduping identical in-flight points across
//!   concurrent clients ([`exec`]) and executing misses on the bench
//!   crate's worker pool; [`client`] is the `mot3d submit` side.
//!
//! The unified `mot3d` binary lives in this crate: `serve`/`submit`
//! dispatch here ([`cli`]), every other subcommand falls through to
//! [`mot3d_bench::cli`].
//!
//! ## Protocol (one JSON document per line)
//!
//! ```text
//! client → {"submit": "sweep", "bench": "fft", "scale": "tiny"}
//! server → {"plan": "sweep", "points": 1, "scale": 0.004, "seed": 7, "schema": 1}
//! server → {"index": 0, "workload": "fft", ...}            (per record)
//! server → {"done": true, "points": 1, "hits": 0, ...}     (summary)
//! ```
//!
//! The header and record lines are exactly the bytes `mot3d sweep
//! --json` writes for the same plan, so offline and served streams can
//! be compared byte for byte (CI does).
//!
//! ## Failure semantics
//!
//! A failing point becomes a typed `{"failed": true, ...}` record in
//! the stream, never a dropped connection; failed points are never
//! cached, so a retry re-executes them. A submission owner that dies
//! mid-point *poisons* its flight and the first waiter takes over the
//! re-run ([`exec`]); `{"shutdown": true}` drains the server
//! gracefully; [`fault`] injects deterministic failures for the chaos
//! tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cli;
pub mod client;
pub mod codec;
pub mod exec;
pub mod fault;
pub mod protocol;
pub mod server;
pub mod store;
pub mod sync;

pub use client::RetryPolicy;
pub use codec::{cache_key, CacheKey, Fingerprint};
pub use exec::{CachedExecutor, PlanOutcome, PointOutcome, MAX_ATTEMPTS};
pub use fault::{FaultPlan, FaultSite, Faults};
/// The workspace's JSON reader and escaper, under the path it had when
/// it lived in this crate.
pub use mot3d_phys::json;
pub use protocol::PlanRequest;
pub use server::{serve, BoundServer, ServerConfig};
pub use store::{ResultStore, StoreStats};
