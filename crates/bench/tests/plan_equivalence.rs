//! Golden equivalence: the declarative `ExperimentPlan` path must
//! reproduce the legacy hand-rolled sweep loops **bit-identically** —
//! same rows, same rendered tables — and be invariant under the worker
//! thread count.
//!
//! The serial references below are verbatim ports of the pre-plan
//! per-figure loops (`fig6`, `fig7_at`, `open_page_at` as they were
//! before the plan API): a plain `run_benchmark` loop in the same
//! cell order, no pool, no plan. If a plan refactor ever reorders a
//! grid or perturbs a configuration, these tests catch it at
//! `ExperimentScale::tiny()`.

use mot3d_bench::experiments::{
    fig6_interconnects, fig6_rows, fig7_rows, open_page_rows, ExperimentScale, Fig6Row, Fig7Row,
    OpenPageRow,
};
use mot3d_bench::plan::ExperimentPlan;
use mot3d_bench::report;
use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_sim::{run_benchmark, Metrics, SimConfig};
use mot3d_workloads::SplashBenchmark;

/// The canned Fig. 7-shape plan, run and folded into rows.
fn planned_fig7_at(scale: ExperimentScale, dram: DramKind) -> Vec<Fig7Row> {
    fig7_rows(&ExperimentPlan::fig7_at(scale, dram).run().unwrap())
}

fn base_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::date16();
    cfg.seed = seed;
    cfg
}

fn must_run(bench: SplashBenchmark, scale: f64, cfg: &SimConfig) -> Metrics {
    run_benchmark(bench, scale, cfg)
        .unwrap_or_else(|e| panic!("{bench} on {}: {e}", cfg.interconnect))
}

/// The pre-plan `fig6` loop, serial.
fn legacy_fig6(scale: ExperimentScale) -> Vec<Fig6Row> {
    let ics = fig6_interconnects();
    SplashBenchmark::all()
        .iter()
        .map(|bench| {
            let mut l2 = [0.0; 4];
            let mut cycles = [0u64; 4];
            for (i, ic) in ics.into_iter().enumerate() {
                let cfg = base_config(scale.seed).with_interconnect(ic);
                let m = must_run(*bench, scale.scale, &cfg);
                l2[i] = m.l2_latency.mean();
                cycles[i] = m.cycles;
            }
            Fig6Row {
                bench: bench.to_string(),
                l2_latency: l2,
                exec_cycles: cycles,
            }
        })
        .collect()
}

/// The pre-plan `fig7_at` loop, serial.
fn legacy_fig7_at(scale: ExperimentScale, dram: DramKind) -> Vec<Fig7Row> {
    SplashBenchmark::all()
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
        .collect()
}

/// The pre-plan `open_page_at` loop, serial.
fn legacy_open_page_at(scale: ExperimentScale, dram: DramKind) -> Vec<OpenPageRow> {
    SplashBenchmark::all()
        .iter()
        .map(|bench| {
            let run = |open: bool| {
                let cfg = base_config(scale.seed).with_dram(dram).with_open_page(open);
                let m = must_run(*bench, scale.scale, &cfg);
                (m.cycles, m.edp().value())
            };
            let (flat_cycles, flat_edp) = run(false);
            let (open_cycles, open_edp) = run(true);
            OpenPageRow {
                bench: bench.to_string(),
                flat_cycles,
                open_cycles,
                flat_edp,
                open_edp,
            }
        })
        .collect()
}

#[test]
fn fig6_plan_reproduces_the_legacy_rows_and_table() {
    let scale = ExperimentScale::tiny();
    let legacy = legacy_fig6(scale);
    let planned = fig6_rows(&ExperimentPlan::fig6(scale).run().unwrap());
    assert_eq!(legacy, planned, "fig6 rows must be bit-identical");
    assert_eq!(
        report::render_fig6(&legacy),
        report::render_fig6(&planned),
        "fig6 rendered table must be byte-identical"
    );
}

#[test]
fn fig7_plan_reproduces_the_legacy_rows_and_table() {
    let scale = ExperimentScale::tiny();
    let legacy = legacy_fig7_at(scale, DramKind::OffChipDdr3);
    let planned = planned_fig7_at(scale, DramKind::OffChipDdr3);
    assert_eq!(legacy, planned, "fig7 rows must be bit-identical");
    assert_eq!(
        report::render_fig7(&legacy, "200 ns"),
        report::render_fig7(&planned, "200 ns"),
        "fig7 rendered table must be byte-identical"
    );
    assert_eq!(
        report::render_fig7_claims(&legacy),
        report::render_fig7_claims(&planned),
        "fig7 claim lines must be byte-identical"
    );
}

#[test]
fn fig8_plans_reproduce_the_legacy_rows_and_tables() {
    let scale = ExperimentScale::tiny();
    for (dram, label) in [
        (DramKind::WideIo, "63 ns (Wide I/O)"),
        (DramKind::Weis3d, "42 ns (Weis 3-D)"),
    ] {
        let legacy = legacy_fig7_at(scale, dram);
        let planned = planned_fig7_at(scale, dram);
        assert_eq!(legacy, planned, "fig8 rows must be bit-identical @ {label}");
        assert_eq!(
            report::render_fig7(&legacy, label),
            report::render_fig7(&planned, label),
            "fig8 rendered table must be byte-identical @ {label}"
        );
    }
}

#[test]
fn open_page_plan_reproduces_the_legacy_rows_and_table() {
    let scale = ExperimentScale::tiny();
    let legacy = legacy_open_page_at(scale, DramKind::OffChipDdr3);
    let plan = ExperimentPlan::open_page_at(scale, DramKind::OffChipDdr3);
    let planned = open_page_rows(&plan.run().unwrap());
    assert_eq!(legacy, planned, "open-page rows must be bit-identical");
    assert_eq!(
        report::render_open_page(&legacy, "200 ns"),
        report::render_open_page(&planned, "200 ns"),
        "open-page rendered table must be byte-identical"
    );
}

#[test]
fn plan_expansion_and_results_are_invariant_under_thread_count() {
    // The plan pins its worker count explicitly, so the property needs
    // no global state.
    let scale = ExperimentScale::tiny();
    let reference_points = ExperimentPlan::fig7(scale).points();
    let reference = ExperimentPlan::fig7(scale).threads(1).run().unwrap();
    for threads in [2, 3, 8] {
        let plan = ExperimentPlan::fig7(scale).threads(threads);
        assert_eq!(
            plan.points(),
            reference_points,
            "expansion order must not depend on threads = {threads}"
        );
        let records = plan.run().unwrap();
        assert_eq!(
            records, reference,
            "records must be bit-identical at threads = {threads}"
        );
    }
    // And the figure-shaped fold of a default-threaded run sees the
    // same thing.
    assert_eq!(
        fig7_rows(&reference),
        planned_fig7_at(scale, DramKind::OffChipDdr3)
    );
}

#[test]
fn ablation_grid_first_cell_is_the_full_connection_baseline() {
    // The ablation presenter normalises every row to records[0]; that
    // cell must be exactly the legacy `SimConfig::date16()` run when
    // the grid is given that run's seed (as `mot3d ablation` does).
    let scale = ExperimentScale {
        seed: SimConfig::date16().seed,
        ..ExperimentScale::tiny()
    };
    let plan = ExperimentPlan::ablation_grid(scale, SplashBenchmark::Fft);
    let points = plan.points();
    assert_eq!(points.len(), 9);
    assert_eq!(points[0].config, SimConfig::date16());
    assert_eq!(points[0].config.power_state, PowerState::full());
}
