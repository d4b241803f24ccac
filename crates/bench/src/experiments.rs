//! Experiment runners, one per paper table/figure.
//!
//! Table I and Fig. 5 are derived analytically ([`table1`], [`fig5`]).
//! The simulation sweeps (Fig. 6–8, open-page) are canned
//! [`crate::plan::ExperimentPlan`]s: run the plan, then fold its typed
//! [`RunRecord`] stream into the figure-shaped row structs the renderers
//! consume — `fig6_rows(&ExperimentPlan::fig6(scale).run()?)`. Every
//! thread count, including 1, produces bit-identical rows.
//!
//! The golden-equivalence suite (`tests/plan_equivalence.rs`) pins each
//! canned plan to the legacy hand-rolled sweep loops row for row and
//! rendered byte for byte.

use crate::plan::RunRecord;
use mot3d_mot::latency::{MotLatency, MotTimingParams};
use mot3d_mot::topology::MotTopology;
use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_phys::geometry::Floorplan;
use mot3d_phys::Technology;
use mot3d_sim::InterconnectChoice;
use mot3d_workloads::SplashBenchmark;

/// Run-length and seed for an experiment batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Fraction of the default per-program instruction budget.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ExperimentScale {
    /// The default experiment length: 0.35 ≈ 560 k instructions per
    /// program — enough to pressure the L2 capacity axis.
    fn default() -> Self {
        ExperimentScale {
            scale: 0.35,
            seed: 0x0DA7_E201,
        }
    }
}

impl ExperimentScale {
    /// Parses a scale value as accepted by `mot3d … --scale`: a positive
    /// finite factor, or the keyword `tiny` for
    /// [`ExperimentScale::tiny`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of why the value was
    /// rejected.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let trimmed = raw.trim();
        if trimmed.eq_ignore_ascii_case("tiny") {
            return Ok(ExperimentScale::tiny());
        }
        match trimmed.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => Ok(ExperimentScale {
                scale: s,
                ..ExperimentScale::default()
            }),
            Ok(s) => Err(format!("scale must be positive and finite, got {s}")),
            Err(_) => Err(format!(
                "not a number: {trimmed:?} (expected a positive factor or \"tiny\")"
            )),
        }
    }

    /// A fixed tiny scale for tests/benches.
    pub fn tiny() -> Self {
        ExperimentScale {
            scale: 0.004,
            seed: 0x0DA7_E201,
        }
    }
}

// ---------------------------------------------------------------- Table I

/// One derived row of Table I's L2-latency block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Power-state name.
    pub state: String,
    /// Active banks.
    pub banks: usize,
    /// Derived round-trip latency in cycles.
    pub latency_cycles: u64,
    /// The paper's Table I value.
    pub paper_cycles: u64,
}

/// Derives Table I's four L2 latencies from the physical models.
pub fn table1() -> Vec<Table1Row> {
    let tech = Technology::lp45();
    let fp = Floorplan::date16();
    let topo = MotTopology::date16();
    let params = MotTimingParams::default();
    let paper = [12u64, 9, 9, 7];
    PowerState::date16_states()
        .iter()
        .zip(paper)
        .map(|(state, paper_cycles)| {
            let lat = MotLatency::derive(&tech, &fp, topo, &params, *state)
                .expect("Table I states fit the cluster");
            Table1Row {
                state: state.to_string(),
                banks: state.active_banks(),
                latency_cycles: lat.round_trip(),
                paper_cycles,
            }
        })
        .collect()
}

// ----------------------------------------------------------------- Fig. 5

/// Wire-length comparison of the power states (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Power-state name.
    pub state: String,
    /// Longest in-plane run (mm).
    pub horizontal_mm: f64,
    /// Vertical crossings to the farthest active bank.
    pub vertical_hops: usize,
    /// Vertical span (µm).
    pub vertical_um: f64,
    /// Total live interconnect wire estimate (mm), the leakage proxy.
    pub active_wire_mm: f64,
}

/// Computes Fig. 5's geometry for the four power states.
pub fn fig5() -> Vec<Fig5Row> {
    let fp = Floorplan::date16();
    PowerState::date16_states()
        .iter()
        .map(|s| {
            let p = fp
                .longest_path(s.active_cores(), s.active_banks())
                .expect("states fit the floorplan");
            let wire = fp
                .active_wire_estimate(s.active_cores(), s.active_banks())
                .expect("states fit the floorplan");
            Fig5Row {
                state: s.to_string(),
                horizontal_mm: p.horizontal.mm(),
                vertical_hops: p.vertical_hops,
                vertical_um: p.vertical.um(),
                active_wire_mm: wire.mm(),
            }
        })
        .collect()
}

// ----------------------------------------------------------------- Fig. 6

/// Per-benchmark comparison of the four interconnects (Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Program name.
    pub bench: String,
    /// Mean L2 access latency (cycles) per interconnect, in the paper's
    /// order: True 3-D Mesh, Hybrid Bus-Mesh, Hybrid Bus-Tree, 3-D MoT.
    pub l2_latency: [f64; 4],
    /// Execution cycles per interconnect, same order.
    pub exec_cycles: [u64; 4],
}

impl Fig6Row {
    /// MoT execution-time reduction vs baseline `i` (0 = mesh, 1 =
    /// bus-mesh, 2 = bus-tree), in percent.
    pub fn mot_reduction_vs(&self, i: usize) -> f64 {
        100.0 * (1.0 - self.exec_cycles[3] as f64 / self.exec_cycles[i] as f64)
    }
}

/// The interconnect order of Fig. 6.
pub fn fig6_interconnects() -> [InterconnectChoice; 4] {
    [
        InterconnectChoice::Noc(NocTopologyKind::Mesh3d),
        InterconnectChoice::Noc(NocTopologyKind::HybridBusMesh),
        InterconnectChoice::Noc(NocTopologyKind::HybridBusTree),
        InterconnectChoice::Mot,
    ]
}

/// Folds an [`ExperimentPlan::fig6`] record stream (bench-major, one
/// record per interconnect) into Fig. 6 rows.
///
/// [`ExperimentPlan::fig6`]: crate::plan::ExperimentPlan::fig6
pub fn fig6_rows(records: &[RunRecord]) -> Vec<Fig6Row> {
    let per_bench = fig6_interconnects().len();
    assert_eq!(records.len() % per_bench, 0, "fig6 grid must be complete");
    records
        .chunks(per_bench)
        .map(|chunk| {
            let mut l2 = [0.0; 4];
            let mut cycles = [0u64; 4];
            for (i, rec) in chunk.iter().enumerate() {
                l2[i] = rec.metrics.l2_latency.mean();
                cycles[i] = rec.metrics.cycles;
            }
            Fig6Row {
                bench: chunk[0].point.workload.clone(),
                l2_latency: l2,
                exec_cycles: cycles,
            }
        })
        .collect()
}

// ----------------------------------------------------------------- Fig. 7/8

/// Per-benchmark results across the four power states at one DRAM option.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Program name.
    pub bench: String,
    /// EDP (J·s) per state, in Fig. 7 order: Full, PC16-MB8, PC4-MB32,
    /// PC4-MB8.
    pub edp: [f64; 4],
    /// Execution cycles per state, same order.
    pub exec_cycles: [u64; 4],
}

impl Fig7Row {
    /// EDP reduction of state `i` vs Full connection, percent (positive =
    /// better).
    pub fn edp_reduction(&self, i: usize) -> f64 {
        100.0 * (1.0 - self.edp[i] / self.edp[0])
    }

    /// Execution-time change of state `i` vs Full, percent (positive =
    /// slower).
    pub fn time_increase(&self, i: usize) -> f64 {
        100.0 * (self.exec_cycles[i] as f64 / self.exec_cycles[0] as f64 - 1.0)
    }

    /// Fig. 7(b)'s scaling view: execution-time reduction going from 4
    /// cores (PC4-MB32) to 16 cores (Full), percent.
    pub fn scaling_reduction_4_to_16(&self) -> f64 {
        100.0 * (1.0 - self.exec_cycles[0] as f64 / self.exec_cycles[2] as f64)
    }
}

/// Folds an [`ExperimentPlan::fig7_at`] record stream (bench-major, one
/// record per power state) into Fig. 7 rows.
///
/// [`ExperimentPlan::fig7_at`]: crate::plan::ExperimentPlan::fig7_at
pub fn fig7_rows(records: &[RunRecord]) -> Vec<Fig7Row> {
    let per_bench = PowerState::date16_states().len();
    assert_eq!(records.len() % per_bench, 0, "fig7 grid must be complete");
    records
        .chunks(per_bench)
        .map(|chunk| {
            let mut edp = [0.0; 4];
            let mut cycles = [0u64; 4];
            for (i, rec) in chunk.iter().enumerate() {
                edp[i] = rec.metrics.edp().value();
                cycles[i] = rec.metrics.cycles;
            }
            Fig7Row {
                bench: chunk[0].point.workload.clone(),
                edp,
                exec_cycles: cycles,
            }
        })
        .collect()
}

// Fig. 8 is the same power-state sweep at the two on-chip DRAM
// latencies: the `fig8` and `all` subcommands run
// `ExperimentPlan::fig8_at` with `DramKind::WideIo` and
// `DramKind::Weis3d` so each half can be timed separately.

// ------------------------------------------------------------- Open page

/// One row of the open-page DRAM sweep: the same benchmark under the
/// paper's flat-latency controller and under the 4 KB open-page
/// refinement (`dram_open_page`), at one Table I DRAM option.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenPageRow {
    /// Program name.
    pub bench: String,
    /// Execution cycles with the paper's flat latency.
    pub flat_cycles: u64,
    /// Execution cycles with the open-page controller.
    pub open_cycles: u64,
    /// EDP (J·s) with the flat latency.
    pub flat_edp: f64,
    /// EDP (J·s) with the open-page controller.
    pub open_edp: f64,
}

impl OpenPageRow {
    /// Execution-time change of open-page vs flat, percent (negative =
    /// open-page faster).
    pub fn cycle_delta_percent(&self) -> f64 {
        100.0 * (self.open_cycles as f64 / self.flat_cycles as f64 - 1.0)
    }
}

/// Folds an [`ExperimentPlan::open_page_at`] record stream (bench-major,
/// flat then open-page) into open-page rows.
///
/// [`ExperimentPlan::open_page_at`]: crate::plan::ExperimentPlan::open_page_at
pub fn open_page_rows(records: &[RunRecord]) -> Vec<OpenPageRow> {
    assert_eq!(records.len() % 2, 0, "open-page grid must be complete");
    records
        .chunks(2)
        .map(|chunk| OpenPageRow {
            bench: chunk[0].point.workload.clone(),
            flat_cycles: chunk[0].metrics.cycles,
            open_cycles: chunk[1].metrics.cycles,
            flat_edp: chunk[0].metrics.edp().value(),
            open_edp: chunk[1].metrics.edp().value(),
        })
        .collect()
}

/// Mean of a per-benchmark statistic over a named group.
pub fn group_mean(rows: &[Fig7Row], group: &[SplashBenchmark], f: impl Fn(&Fig7Row) -> f64) -> f64 {
    let names: Vec<String> = group.iter().map(|b| b.to_string()).collect();
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| names.contains(&r.bench))
        .map(f)
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Max of a per-benchmark statistic over a named group.
pub fn group_max(rows: &[Fig7Row], group: &[SplashBenchmark], f: impl Fn(&Fig7Row) -> f64) -> f64 {
    let names: Vec<String> = group.iter().map(|b| b.to_string()).collect();
    rows.iter()
        .filter(|r| names.contains(&r.bench))
        .map(f)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;
    use mot3d_mem::dram::DramKind;
    use mot3d_sim::{run_benchmark, Metrics, SimConfig};

    fn base_config(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::date16();
        cfg.seed = seed;
        cfg
    }

    fn must_run(bench: SplashBenchmark, scale: f64, cfg: &SimConfig) -> Metrics {
        run_benchmark(bench, scale, cfg)
            .unwrap_or_else(|e| panic!("{bench} on {}: {e}", cfg.interconnect))
    }

    #[test]
    fn table1_matches_the_paper_exactly() {
        for row in table1() {
            assert_eq!(
                row.latency_cycles, row.paper_cycles,
                "{}: derived {} vs paper {}",
                row.state, row.latency_cycles, row.paper_cycles
            );
        }
    }

    #[test]
    fn fig5_lengths_contract_toward_pc4_mb8() {
        let rows = fig5();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].horizontal_mm - 7.5).abs() < 1e-9);
        assert!((rows[3].horizontal_mm - 2.5).abs() < 1e-9);
        assert!(rows[3].active_wire_mm < rows[0].active_wire_mm / 4.0);
    }

    #[test]
    fn scale_parse_accepts_factors_and_tiny() {
        assert_eq!(ExperimentScale::parse("0.5").unwrap().scale, 0.5);
        assert_eq!(ExperimentScale::parse(" 2 ").unwrap().scale, 2.0);
        assert_eq!(
            ExperimentScale::parse("tiny").unwrap(),
            ExperimentScale::tiny()
        );
        assert_eq!(
            ExperimentScale::parse("TINY").unwrap(),
            ExperimentScale::tiny()
        );
    }

    #[test]
    fn scale_parse_rejects_malformed_values() {
        // Every one of these must be reported, never silently clamped
        // or ignored.
        for bad in ["", "huge", "0", "-1", "0x10", "nan", "inf", "-inf"] {
            let err = ExperimentScale::parse(bad);
            assert!(err.is_err(), "{bad:?} must be rejected, got {err:?}");
        }
        assert!(
            ExperimentScale::parse("nope").unwrap_err().contains("nope"),
            "error must quote the offending value"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        // The sharded harness must be invisible in the results: the
        // threaded sweep must reproduce a plain serial loop bit-for-bit.
        let scale = ExperimentScale::tiny();
        let dram = DramKind::Weis3d;
        let parallel = fig7_rows(
            &ExperimentPlan::fig7_at(scale, dram)
                .threads(4)
                .run()
                .unwrap(),
        );
        let serial: Vec<Fig7Row> = SplashBenchmark::all()
            .iter()
            .map(|bench| {
                let mut edp = [0.0; 4];
                let mut cycles = [0u64; 4];
                for (i, state) in PowerState::date16_states().into_iter().enumerate() {
                    let cfg = base_config(scale.seed)
                        .with_power_state(state)
                        .with_dram(dram);
                    let m = must_run(*bench, scale.scale, &cfg);
                    edp[i] = m.edp().value();
                    cycles[i] = m.cycles;
                }
                Fig7Row {
                    bench: bench.to_string(),
                    edp,
                    exec_cycles: cycles,
                }
            })
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn open_page_beats_flat_on_row_locality_heavy_streaming() {
        // A rank-0-dominated sequential streaming workload: during the
        // serial sections only one core issues, so its cold L2 misses
        // reach DRAM as consecutive lines of the same 4 KB row — the
        // open-page controller's best case (row hits at 0.7× latency)
        // and the regression the ROADMAP asked to pin down.
        use mot3d_sim::run_spec;
        use mot3d_workloads::WorkloadSpec;
        let spec = WorkloadSpec {
            serial_fraction: 0.9,
            mem_ratio: 0.5,
            write_fraction: 0.3,
            working_set_bytes: 8 * 1024 * 1024, // never wraps: all cold misses
            shared_fraction: 0.0,
            locality: 0.95, // sequential walk
            hot_fraction: 0.0,
            imbalance: 0.0,
            phases: 1,
            total_ops: 30_000,
            ifetch_miss_rate: 0.0, // keep the Miss bus free of code refills
            ..SplashBenchmark::OceanContiguous.spec()
        };
        let flat = run_spec(&spec, &SimConfig::date16()).unwrap();
        let open = run_spec(&spec, &SimConfig::date16().with_open_page(true)).unwrap();
        assert_eq!(
            flat.dram_accesses, open.dram_accesses,
            "page policy is timing-only"
        );
        assert!(
            open.cycles < flat.cycles,
            "open-page must win on row locality: open {} vs flat {}",
            open.cycles,
            flat.cycles
        );
    }

    #[test]
    fn open_page_sweep_covers_all_benchmarks() {
        let plan = ExperimentPlan::open_page_at(ExperimentScale::tiny(), DramKind::OffChipDdr3);
        let rows = open_page_rows(&plan.run().unwrap());
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.flat_cycles > 0 && r.open_cycles > 0, "{}", r.bench);
            assert!(r.flat_edp > 0.0 && r.open_edp > 0.0, "{}", r.bench);
        }
    }

    #[test]
    fn fig6_tiny_run_has_mot_winning() {
        let rows = fig6_rows(&ExperimentPlan::fig6(ExperimentScale::tiny()).run().unwrap());
        assert_eq!(rows.len(), 8);
        let mean_reduction: f64 =
            rows.iter().map(|r| r.mot_reduction_vs(0)).sum::<f64>() / rows.len() as f64;
        assert!(
            mean_reduction > 0.0,
            "MoT must beat the mesh on average: {mean_reduction:.1}%"
        );
        for r in &rows {
            assert!(
                r.l2_latency[3] < r.l2_latency[0],
                "{}: MoT L2 latency must beat the mesh",
                r.bench
            );
        }
    }
}
