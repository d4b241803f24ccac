//! Workload parameterisation.
//!
//! The paper's power-state conclusions rest on two per-program axes
//! (§IV): *scalability of parallelism* (does the program profit from 16
//! cores over 4?) and *L2 cache demand* (does its working set fit in 8
//! banks = 512 KB?). [`WorkloadSpec`] captures those two axes plus the
//! secondary knobs that shape traffic (memory intensity, write share,
//! locality, sharing, synchronisation density).

/// One core's next program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute `n` non-memory instructions (1 cycle each).
    Compute(u32),
    /// Load from a byte address.
    Load(u64),
    /// Store to a byte address.
    Store(u64),
    /// Wait for all active cores at barrier `id`.
    Barrier(u32),
}

/// Parameters of one synthetic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Program name (SPLASH-2 benchmark it is modelled on).
    pub name: &'static str,
    /// Amdahl serial fraction: share of the work only one core performs.
    /// Limited-scalability programs (cholesky, fft, volrend, raytrace)
    /// have 0.25–0.45; scalable ones 0.02–0.06.
    pub serial_fraction: f64,
    /// Per-phase load imbalance amplitude (0 = perfectly balanced).
    pub imbalance: f64,
    /// Fraction of instructions that are memory operations.
    pub mem_ratio: f64,
    /// Fraction of memory operations that are stores.
    pub write_fraction: f64,
    /// Total data footprint in bytes. > 512 KB means the program needs
    /// more L2 than the 8 banks the `MB8` states leave powered.
    pub working_set_bytes: usize,
    /// Fraction of accesses that hit the shared region (vs the core's
    /// private slice).
    pub shared_fraction: f64,
    /// Probability that an access continues sequentially (spatial
    /// locality; the rest are uniform within the region).
    pub locality: f64,
    /// Fraction of accesses that hit the core's small *hot set* (stack,
    /// loop-carried scalars — a 2 KB region that lives in L1). This is
    /// what gives the streams SPLASH-2-like L1 hit rates; without it,
    /// every stream would be pathologically L1-hostile.
    pub hot_fraction: f64,
    /// Number of barrier-separated phases.
    pub phases: u32,
    /// Total instructions across all cores (serial + parallel).
    pub total_ops: u64,
    /// Probability per instruction of an L1-I miss, refetched over the
    /// Miss bus (§II).
    pub ifetch_miss_rate: f64,
    /// Base of the program's address space.
    pub base_addr: u64,
}

impl WorkloadSpec {
    /// Scales the program length by `factor` (phases preserved), for
    /// quick tests vs full benchmark runs.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.total_ops = ((self.total_ops as f64 * factor).round() as u64).max(self.phases as u64);
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`, or sizes are zero.
    pub fn validate(&self) {
        for (what, v) in [
            ("serial_fraction", self.serial_fraction),
            ("mem_ratio", self.mem_ratio),
            ("write_fraction", self.write_fraction),
            ("shared_fraction", self.shared_fraction),
            ("locality", self.locality),
            ("hot_fraction", self.hot_fraction),
            ("ifetch_miss_rate", self.ifetch_miss_rate),
        ] {
            assert!((0.0..=1.0).contains(&v), "{what} = {v} outside [0, 1]");
        }
        assert!(self.imbalance >= 0.0 && self.imbalance < 1.0);
        assert!(self.working_set_bytes > 0, "working set must be non-empty");
        assert!(self.phases > 0, "at least one phase");
        assert!(
            self.total_ops >= self.phases as u64,
            "ops must cover phases"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            serial_fraction: 0.1,
            imbalance: 0.1,
            mem_ratio: 0.3,
            write_fraction: 0.3,
            working_set_bytes: 256 * 1024,
            shared_fraction: 0.2,
            locality: 0.7,
            hot_fraction: 0.5,
            phases: 4,
            total_ops: 10_000,
            ifetch_miss_rate: 0.001,
            base_addr: 0x1000_0000,
        }
    }

    #[test]
    fn scaled_preserves_phases() {
        let s = spec().scaled(0.1);
        assert_eq!(s.total_ops, 1000);
        assert_eq!(s.phases, 4);
    }

    #[test]
    fn validate_accepts_sane_spec() {
        spec().validate();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validate_rejects_bad_probability() {
        let mut s = spec();
        s.mem_ratio = 1.5;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        let _ = spec().scaled(0.0);
    }
}
