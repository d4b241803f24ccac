//! RC parasitics and delay estimation.
//!
//! [`RepeatedWire`] models a long wire with optimally spaced repeaters,
//! yielding delay, energy per transition and repeater leakage for each
//! MoT link. Its per-segment delay is the distributed Elmore estimate the
//! paper names for its longest-path latencies (ref \[15\]).

mod wire;

pub use wire::{optimal_segment_length, RepeatedWire};
