//! # mot3d-trace — zero-cost-when-off timeline tracing
//!
//! Turns a cluster run into a Perfetto-loadable Chrome JSON trace file
//! with per-component tracks: core state (Ready/Computing/Barrier/
//! Stalled), per-L2-bank occupancy, MoT per-level switch activity (or
//! NoC port/bus occupancy), Miss-bus queue depth, DRAM row-buffer
//! phases, and counter tracks (L2 hit rate, in-flight transactions,
//! timing-wheel occupancy) sampled at state transitions.
//!
//! The hook is [`mot3d_sim::observe::Observer`]: a generic parameter on
//! the `Cluster` step path whose default `NullObserver` monomorphizes
//! away entirely, so simulations without a tracer attached run the
//! exact machine code they ran before this crate existed. With a
//! [`TraceObserver`] attached, each step's sample walks the cluster's
//! probe surface once, track by track, and writes an event for each
//! track whose value changed into the [`TraceWriter`]'s one buffer,
//! sized up front and written out to the file when it fills — a traced
//! step allocates nothing, as an untraced one does (pinned by
//! `tests/no_alloc.rs` here and in `mot3d-sim`), and the traced run's
//! metrics are bit-identical to the untraced run's (pinned by this
//! crate's differential test suite).
//!
//! Timestamps are simulated cycles (shown as microseconds: one cycle of
//! the 1 GHz cluster displays as 1 µs). Wall-clock reads are banned
//! workspace-wide by `clippy.toml`'s `disallowed-methods`.
//!
//! Open the emitted file at <https://ui.perfetto.dev> (or
//! `chrome://tracing`).
//!
//! # Quick example
//!
//! ```no_run
//! use mot3d_trace::trace_spec;
//! use mot3d_sim::SimConfig;
//! use mot3d_workloads::SplashBenchmark;
//!
//! let spec = SplashBenchmark::Fft.spec().scaled(0.002);
//! let (metrics, summary) = trace_spec(&spec, &SimConfig::date16(), "fft.trace.json")?;
//! println!("{} cycles, {} events -> {}", metrics.cycles, summary.events, summary.path.display());
//! # Ok::<(), mot3d_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chrome;
pub mod observer;

pub use chrome::TraceWriter;
pub use observer::{TraceObserver, TraceSummary};

use mot3d_sim::{Metrics, SimConfig, SimError};
use mot3d_workloads::WorkloadSpec;
use std::fmt;
use std::io;
use std::path::Path;

/// Why a traced run failed: the simulation itself, or the trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// The simulation failed (the trace file holds the timeline up to
    /// the failure, which is usually exactly what you want to look at).
    Sim(SimError),
    /// Creating or writing the trace file failed.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Sim(e) => write!(f, "simulation failed: {e}"),
            TraceError::Io(e) => write!(f, "trace I/O failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Sim(e) => Some(e),
            TraceError::Io(e) => Some(e),
        }
    }
}

impl From<SimError> for TraceError {
    fn from(e: SimError) -> Self {
        TraceError::Sim(e)
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Runs `spec` on `config` with a tracer attached, writing the timeline
/// to `path`. Returns the run's [`Metrics`] — bit-identical to an
/// untraced [`mot3d_sim::run_spec`] of the same point — plus the trace
/// summary.
///
/// # Errors
///
/// [`TraceError::Io`] when the trace file cannot be written,
/// [`TraceError::Sim`] when the simulation fails. On a simulation
/// failure the partial trace is still sealed and kept: the timeline up
/// to a deadlock is the natural diagnostic for it.
pub fn trace_spec(
    spec: &WorkloadSpec,
    config: &SimConfig,
    path: impl AsRef<Path>,
) -> Result<(Metrics, TraceSummary), TraceError> {
    let mut obs = TraceObserver::create(path)?;
    match mot3d_sim::run_spec_observed(spec, config, &mut obs) {
        Ok(metrics) => Ok((metrics, obs.finish()?)),
        Err(sim) => {
            // Seal what we have; the sim failure is the primary error.
            let _ = obs.finish();
            Err(TraceError::Sim(sim))
        }
    }
}

/// A filesystem-safe file name for a run point label, e.g.
/// `fft @ 3-D MoT @ PC16-MB32 @ 200ns #2` →
/// `fft_3-D_MoT_PC16-MB32_200ns_2.trace.json`.
pub fn trace_file_name(label: &str) -> String {
    let mut name = String::with_capacity(label.len() + 11);
    let mut last_sep = true;
    for c in label.chars() {
        match c {
            c if c.is_ascii_alphanumeric() || c == '-' || c == '.' => {
                name.push(c);
                last_sep = false;
            }
            '@' | '#' | ' ' | '/' | '\\' | ':' if !last_sep => {
                name.push('_');
                last_sep = true;
            }
            _ => {}
        }
    }
    while name.ends_with('_') {
        name.pop();
    }
    // Collapse the double separators "@ " patterns leave behind.
    while name.contains("__") {
        name = name.replace("__", "_");
    }
    name.push_str(".trace.json");
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_are_filesystem_safe_and_stable() {
        assert_eq!(
            trace_file_name("fft @ 3-D MoT @ Full @ 200ns"),
            "fft_3-D_MoT_Full_200ns.trace.json"
        );
        assert_eq!(
            trace_file_name("lu @ Mesh @ Full @ 63ns @ open-page #3"),
            "lu_Mesh_Full_63ns_open-page_3.trace.json"
        );
        let odd = trace_file_name("a/b\\c:d e");
        assert!(!odd.contains('/') && !odd.contains('\\') && !odd.contains(':'));
    }

    /// A device that refuses every write: the trace of the golden
    /// fixture's point outgrows the writer's buffer, so the first
    /// failure comes in the middle of the run, and `finish` must still
    /// report it.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_write_is_reported_not_dropped() {
        use mot3d_mot::PowerState;
        use mot3d_workloads::SplashBenchmark;
        let spec = SplashBenchmark::Fft.spec().scaled(0.002);
        let config = SimConfig::date16().with_power_state(PowerState::pc16_mb8());
        match trace_spec(&spec, &config, "/dev/full") {
            // 28 is ENOSPC, what `/dev/full` answers.
            Err(TraceError::Io(e)) => assert_eq!(e.raw_os_error(), Some(28), "{e}"),
            other => panic!("expected a trace I/O error, got {other:?}"),
        }
    }
}
