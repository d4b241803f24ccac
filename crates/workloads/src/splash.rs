//! SPLASH-2-inspired program presets.
//!
//! The paper runs the SPLASH-2 suite \[12\] under Graphite. We model each
//! program as a [`WorkloadSpec`] whose two decisive axes follow the
//! paper's own grouping (§IV):
//!
//! * **limited scalability** (gain little from 16 vs 4 cores — Fig. 7(b)
//!   "reduction up to 33 %, 19 % on average"): cholesky, fft, volrend,
//!   raytrace → high Amdahl serial fraction / imbalance;
//! * **scalable** ("up to 69 %, 64 % on average"): fmm, radix,
//!   ocean_contiguous, water-nsquared → tiny serial fraction;
//! * **small L2 demand** (PC16-MB8 helps: fft, fmm, volrend, raytrace,
//!   water-nsquared) → working set ≤ 512 KB;
//! * **large L2 demand** (PC16-MB8 hurts by up to 31 %: cholesky, radix,
//!   ocean_contiguous) → working set ≫ 512 KB.
//!
//! Secondary knobs (memory intensity, writes, locality, sharing,
//! synchronisation density) follow the published SPLASH-2
//! characterisations (Woo et al., ISCA'95).

use crate::spec::WorkloadSpec;
use std::fmt;

/// The eight SPLASH-2 programs the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SplashBenchmark {
    /// Sparse Cholesky factorisation: limited scalability, large footprint.
    Cholesky,
    /// 1-D FFT: limited scalability (all-to-all transposes), small footprint.
    Fft,
    /// Fast multipole method: scalable, small footprint.
    Fmm,
    /// Ocean simulation (contiguous partitions): scalable, large footprint,
    /// memory-intensive.
    OceanContiguous,
    /// Radix sort: scalable, large footprint, very memory-intensive.
    Radix,
    /// Ray tracer: limited scalability (task imbalance), small footprint.
    Raytrace,
    /// Volume renderer: limited scalability, small footprint.
    Volrend,
    /// N-body water simulation (O(n²)): scalable, small footprint,
    /// compute-bound.
    WaterNsquared,
}

impl SplashBenchmark {
    /// All eight, in the paper's figure order.
    pub fn all() -> [SplashBenchmark; 8] {
        [
            SplashBenchmark::Cholesky,
            SplashBenchmark::Fft,
            SplashBenchmark::Fmm,
            SplashBenchmark::OceanContiguous,
            SplashBenchmark::Radix,
            SplashBenchmark::Raytrace,
            SplashBenchmark::Volrend,
            SplashBenchmark::WaterNsquared,
        ]
    }

    /// The paper's limited-scalability group (profits from `PC4`).
    pub fn limited_scalability() -> [SplashBenchmark; 4] {
        [
            SplashBenchmark::Cholesky,
            SplashBenchmark::Fft,
            SplashBenchmark::Volrend,
            SplashBenchmark::Raytrace,
        ]
    }

    /// The paper's scalable group.
    pub fn scalable() -> [SplashBenchmark; 4] {
        [
            SplashBenchmark::Fmm,
            SplashBenchmark::Radix,
            SplashBenchmark::OceanContiguous,
            SplashBenchmark::WaterNsquared,
        ]
    }

    /// The group whose working set fits 8 banks (profits from `MB8`).
    pub fn small_l2_demand() -> [SplashBenchmark; 5] {
        [
            SplashBenchmark::Fft,
            SplashBenchmark::Fmm,
            SplashBenchmark::Volrend,
            SplashBenchmark::Raytrace,
            SplashBenchmark::WaterNsquared,
        ]
    }

    /// The default-scale spec for this program.
    pub fn spec(self) -> WorkloadSpec {
        let base = WorkloadSpec {
            name: self.name(),
            serial_fraction: 0.0,
            imbalance: 0.0,
            mem_ratio: 0.30,
            write_fraction: 0.30,
            working_set_bytes: 384 * 1024,
            shared_fraction: 0.20,
            locality: 0.75,
            hot_fraction: 0.60,
            phases: 8,
            total_ops: 1_600_000,
            ifetch_miss_rate: 0.0004,
            base_addr: 0x1000_0000,
        };
        match self {
            SplashBenchmark::Cholesky => WorkloadSpec {
                serial_fraction: 0.45,
                imbalance: 0.25,
                mem_ratio: 0.32,
                write_fraction: 0.28,
                working_set_bytes: 1280 * 1024,
                shared_fraction: 0.35,
                locality: 0.55,
                hot_fraction: 0.45,
                phases: 10,
                ..base
            },
            SplashBenchmark::Fft => WorkloadSpec {
                serial_fraction: 0.52,
                imbalance: 0.05,
                mem_ratio: 0.38,
                write_fraction: 0.40,
                working_set_bytes: 384 * 1024,
                shared_fraction: 0.45,
                locality: 0.70,
                hot_fraction: 0.50,
                phases: 6,
                ..base
            },
            SplashBenchmark::Fmm => WorkloadSpec {
                serial_fraction: 0.03,
                imbalance: 0.08,
                mem_ratio: 0.24,
                write_fraction: 0.22,
                working_set_bytes: 384 * 1024,
                shared_fraction: 0.25,
                locality: 0.78,
                hot_fraction: 0.70,
                phases: 8,
                ..base
            },
            SplashBenchmark::OceanContiguous => WorkloadSpec {
                serial_fraction: 0.04,
                imbalance: 0.05,
                mem_ratio: 0.40,
                write_fraction: 0.33,
                working_set_bytes: 1792 * 1024,
                shared_fraction: 0.15,
                locality: 0.85,
                hot_fraction: 0.50,
                phases: 12,
                ..base
            },
            SplashBenchmark::Radix => WorkloadSpec {
                serial_fraction: 0.05,
                imbalance: 0.04,
                mem_ratio: 0.45,
                write_fraction: 0.45,
                working_set_bytes: 1024 * 1024,
                shared_fraction: 0.30,
                locality: 0.70,
                hot_fraction: 0.45,
                phases: 6,
                ..base
            },
            SplashBenchmark::Raytrace => WorkloadSpec {
                serial_fraction: 0.45,
                imbalance: 0.35,
                mem_ratio: 0.28,
                write_fraction: 0.15,
                working_set_bytes: 448 * 1024,
                shared_fraction: 0.40,
                locality: 0.60,
                hot_fraction: 0.60,
                phases: 8,
                ..base
            },
            SplashBenchmark::Volrend => WorkloadSpec {
                serial_fraction: 0.50,
                imbalance: 0.30,
                mem_ratio: 0.26,
                write_fraction: 0.12,
                working_set_bytes: 320 * 1024,
                shared_fraction: 0.35,
                locality: 0.68,
                hot_fraction: 0.65,
                phases: 8,
                ..base
            },
            SplashBenchmark::WaterNsquared => WorkloadSpec {
                serial_fraction: 0.04,
                imbalance: 0.06,
                mem_ratio: 0.18,
                write_fraction: 0.25,
                working_set_bytes: 256 * 1024,
                shared_fraction: 0.20,
                locality: 0.80,
                hot_fraction: 0.75,
                phases: 10,
                ..base
            },
        }
    }

    /// The program's display name (paper spelling).
    pub fn name(self) -> &'static str {
        match self {
            SplashBenchmark::Cholesky => "cholesky",
            SplashBenchmark::Fft => "fft",
            SplashBenchmark::Fmm => "fmm",
            SplashBenchmark::OceanContiguous => "ocean_contiguous",
            SplashBenchmark::Radix => "radix",
            SplashBenchmark::Raytrace => "raytrace",
            SplashBenchmark::Volrend => "volrend",
            SplashBenchmark::WaterNsquared => "water-nsquared",
        }
    }
}

impl fmt::Display for SplashBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for b in SplashBenchmark::all() {
            b.spec().validate();
        }
    }

    #[test]
    fn groups_match_the_paper() {
        // Limited-scalability group has high serial fraction; scalable low.
        for b in SplashBenchmark::limited_scalability() {
            assert!(b.spec().serial_fraction >= 0.25, "{b} should scale poorly");
        }
        for b in SplashBenchmark::scalable() {
            assert!(b.spec().serial_fraction <= 0.06, "{b} should scale well");
        }
    }

    #[test]
    fn l2_demand_groups_match_the_paper() {
        // What `MB8` leaves powered: 8 banks × 64 KB.
        let mb8_bytes = 8 * 64 * 1024;
        for b in SplashBenchmark::small_l2_demand() {
            assert!(
                b.spec().working_set_bytes <= mb8_bytes,
                "{b} should fit 8 banks"
            );
        }
        for b in [
            SplashBenchmark::Cholesky,
            SplashBenchmark::Radix,
            SplashBenchmark::OceanContiguous,
        ] {
            assert!(
                b.spec().working_set_bytes > mb8_bytes,
                "{b} should overflow 8 banks"
            );
        }
    }

    #[test]
    fn groups_partition_the_suite() {
        let mut all: Vec<_> = SplashBenchmark::limited_scalability().to_vec();
        all.extend(SplashBenchmark::scalable());
        all.sort();
        let mut expect = SplashBenchmark::all().to_vec();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn names_match_paper_spelling() {
        assert_eq!(
            SplashBenchmark::OceanContiguous.to_string(),
            "ocean_contiguous"
        );
        assert_eq!(SplashBenchmark::WaterNsquared.to_string(), "water-nsquared");
    }

    #[test]
    fn radix_is_the_most_memory_intensive() {
        let radix = SplashBenchmark::Radix.spec().mem_ratio;
        for b in SplashBenchmark::all() {
            assert!(b.spec().mem_ratio <= radix, "{b}");
        }
    }
}
