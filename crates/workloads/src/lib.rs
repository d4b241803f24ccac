//! # mot3d-workloads — SPLASH-2-inspired synthetic workloads
//!
//! The paper evaluates on the SPLASH-2 suite \[12\] under Graphite. Running
//! the original binaries is out of scope for this reproduction (no
//! functional ISA simulator); instead, each program is modelled as a
//! deterministic per-core operation stream whose parameters encode the
//! two axes the paper's conclusions depend on — *parallel scalability*
//! and *L2 capacity demand* — plus the secondary traffic knobs (memory
//! intensity, writes, locality, sharing, synchronisation density). The
//! substitution preserves the experiments because each figure compares
//! interconnects and power states on the same program, and what decides
//! those comparisons is how a program scales with cores and how much L2
//! it needs, both of which a spec sets directly.
//!
//! * [`spec`] — the parameter set and the [`spec::Op`] vocabulary;
//! * [`splash`] — presets for the eight evaluated programs;
//! * [`generator`] — deterministic stream generation (Amdahl serial
//!   sections, rotating imbalance, barrier phases);
//! * [`rng`] — the self-contained xoshiro256** generator.
//!
//! # Quick example
//!
//! ```
//! use mot3d_workloads::generator::CoreStream;
//! use mot3d_workloads::splash::SplashBenchmark;
//!
//! let spec = SplashBenchmark::Radix.spec().scaled(0.001);
//! let ops: Vec<_> = CoreStream::new(&spec, 16, 0, 42).collect();
//! assert!(!ops.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod generator;
pub mod rng;
pub mod spec;
pub mod splash;

pub use generator::{streams, CoreStream, StreamOp};
pub use spec::{Op, WorkloadSpec};
pub use splash::SplashBenchmark;
