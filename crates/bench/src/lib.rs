//! # mot3d-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§IV)
//! through one declarative pipeline: an [`plan::ExperimentPlan`] names
//! the sweep grid (workload × interconnect × power state × DRAM × page
//! policy × repeat), expands it to typed [`plan::RunPoint`]s, executes
//! them on the worker pool, and streams typed [`plan::RunRecord`]s
//! through any set of [`sink::RecordSink`]s (pretty table, JSON-lines,
//! CSV, perf tracker). This crate has no command line: the single
//! `mot3d` binary, whose front end is `mot3d_serve::cli`, runs it all:
//!
//! | subcommand | reproduces |
//! |------------|------------|
//! | `mot3d table1` | Table I — architecture configuration incl. derived L2 latencies |
//! | `mot3d fig5`   | Fig. 5 — wire lengths per power state |
//! | `mot3d fig6`   | Fig. 6 — L2 access latency + execution time across the four interconnects |
//! | `mot3d fig7`   | Fig. 7 — EDP + execution time across the four power states @ 200 ns DRAM |
//! | `mot3d fig8`   | Fig. 8 — EDP across power states @ 63 ns and 42 ns DRAM + open-page study |
//! | `mot3d open-page` | flat vs open-page DRAM timing (Full connection) |
//! | `mot3d ablation`  | EDP and execution time over the full PC{16,8,4} × MB{32,16,8} power-state grid |
//! | `mot3d all`    | everything above, as one report |
//! | `mot3d sweep`  | any ad-hoc grid over the same axes |
//! | `mot3d trace`  | one grid cell with the timeline tracer attached |
//! | `mot3d serve` / `submit` / `shutdown` | the caching sweep service (`mot3d-serve`) |
//! | `mot3d perf check` | every sweep of `BENCH_results.json` re-run, checksums compared ([`perfcheck`]) |
//!
//! Run lengths scale with `--scale` (fraction of the default
//! instruction budget; default 0.35 ≈ 560 k instructions per program —
//! enough to pressure the L2 capacity axis; `--scale tiny` for smoke
//! runs). Absolute numbers are not expected to match the paper
//! (different substrate); orderings, winners, and rough factors are.
//!
//! The sweeps shard their independent runs across worker threads
//! ([`pool`]); `--threads` bounds the worker count (default: available
//! parallelism). Results are bit-identical for every thread count.
//!
//! `--json <path>` / `--csv <path>` attach machine-readable record
//! sinks; `--bench-json <path>` writes per-sweep perf timings
//! ([`perf`]) for the trajectory tracking described in the README.
//! Flags are the only configuration channel: the crate reads no
//! environment variable.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod axes;
pub mod experiments;
pub mod perf;
pub mod perfcheck;
pub mod plan;
pub mod pool;
pub mod report;
pub mod sink;

pub use experiments::{
    fig5, table1, ExperimentScale, Fig5Row, Fig6Row, Fig7Row, OpenPageRow, Table1Row,
};
pub use plan::{ExperimentPlan, RunPoint, RunRecord};
pub use sink::{CsvSink, JsonLinesSink, PerfSink, RecordSink, TableSink};
