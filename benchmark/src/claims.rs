//! The paper's headline claims and the simulator's distance from them.
//!
//! `claim_err_pp` is the simulator's stated error, reported next to
//! every speed number: the mean absolute difference, in percentage
//! points, between each claim as reproduced from a pass's records and
//! the value the paper prints.

use mot3d_bench::experiments::{fig6_rows, fig7_rows, group_max, group_mean, Fig6Row, Fig7Row};
use mot3d_bench::plan::RunRecord;
use mot3d_mem::dram::DramKind;
use mot3d_sim::InterconnectChoice;
use mot3d_workloads::SplashBenchmark;

/// Fig. 6: MoT mean execution-time reduction vs True 3-D Mesh, Hybrid
/// Bus-Mesh and Hybrid Bus-Tree, as `render_fig6` prints them.
pub const FIG6_PAPER: [f64; 3] = [13.01, 11.16, 13.34];

/// Fig. 7: the twelve numbers `render_fig7_claims` prints, in its order.
pub const FIG7_PAPER: [f64; 12] = [
    44.0, 66.0, // PC4-MB32 EDP reduction, limited-scalability group: mean / max
    13.0, 18.0, // PC16-MB8 EDP reduction, small-L2-demand group: mean / max
    52.0, 77.0, // PC4-MB8 EDP reduction, limited-scalability group: mean / max
    19.0, 33.0, // 4→16-core time reduction, limited-scalability group: mean / max
    64.0, 69.0, // 4→16-core time reduction, scalable group: mean / max
    4.7,  // PC16-MB8 time increase, small-demand group: mean
    24.0, // PC16-MB8 time increase, large-demand group: mean
];

/// The three Fig. 6 claims as reproduced by `rows`.
pub fn fig6_reproduced(rows: &[Fig6Row]) -> [f64; 3] {
    let n = rows.len() as f64;
    [0, 1, 2].map(|i| rows.iter().map(|r| r.mot_reduction_vs(i)).sum::<f64>() / n)
}

/// The twelve Fig. 7 claims as reproduced by `rows`.
pub fn fig7_reproduced(rows: &[Fig7Row]) -> [f64; 12] {
    let limited = SplashBenchmark::limited_scalability();
    let small = SplashBenchmark::small_l2_demand();
    let scalable = SplashBenchmark::scalable();
    let large = [
        SplashBenchmark::Cholesky,
        SplashBenchmark::Radix,
        SplashBenchmark::OceanContiguous,
    ];
    [
        group_mean(rows, &limited, |r| r.edp_reduction(2)),
        group_max(rows, &limited, |r| r.edp_reduction(2)),
        group_mean(rows, &small, |r| r.edp_reduction(1)),
        group_max(rows, &small, |r| r.edp_reduction(1)),
        group_mean(rows, &limited, |r| r.edp_reduction(3)),
        group_max(rows, &limited, |r| r.edp_reduction(3)),
        group_mean(rows, &limited, Fig7Row::scaling_reduction_4_to_16),
        group_max(rows, &limited, Fig7Row::scaling_reduction_4_to_16),
        group_mean(rows, &scalable, Fig7Row::scaling_reduction_4_to_16),
        group_max(rows, &scalable, Fig7Row::scaling_reduction_4_to_16),
        group_mean(rows, &small, |r| r.time_increase(1)),
        group_mean(rows, &large, |r| r.time_increase(1)),
    ]
}

/// Whether `r` is a cell of the Fig. 7 grid: the 3-D MoT at 200 ns
/// DRAM under the flat page policy, first repeat.
fn in_fig7_grid(r: &RunRecord) -> bool {
    let c = &r.point.config;
    c.interconnect == InterconnectChoice::Mot
        && c.dram == DramKind::OffChipDdr3
        && !c.dram_open_page
        && r.point.repeat == 0
}

/// Mean |reproduced − paper| over every headline claim the sweeps of
/// one pass cover. `sweeps` pairs each plan name with its records in
/// expansion order. A `fig6` sweep yields the three Fig. 6 claims; any
/// other sweep whose Fig. 7 cells form the complete 8 × 4 grid (Fig. 7
/// itself, or an ad-hoc grid that contains it) yields the twelve Fig. 7
/// claims. `None` when the pass covers no claim.
pub fn claim_err_pp(sweeps: &[(&str, &[RunRecord])]) -> Option<f64> {
    let mut errs: Vec<f64> = Vec::new();
    for (name, records) in sweeps {
        if *name == "fig6" {
            let repro = fig6_reproduced(&fig6_rows(records));
            errs.extend(repro.iter().zip(FIG6_PAPER).map(|(r, p)| (r - p).abs()));
            continue;
        }
        let cells: Vec<RunRecord> = records
            .iter()
            .filter(|r| in_fig7_grid(r))
            .cloned()
            .collect();
        let states = mot3d_mot::PowerState::date16_states();
        let complete = cells.len() == SplashBenchmark::all().len() * states.len()
            && cells
                .iter()
                .enumerate()
                .all(|(i, r)| r.point.config.power_state == states[i % states.len()]);
        if complete {
            let repro = fig7_reproduced(&fig7_rows(&cells));
            errs.extend(repro.iter().zip(FIG7_PAPER).map(|(r, p)| (r - p).abs()));
        }
    }
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_bench::plan::ExperimentPlan;
    use mot3d_bench::report::{render_fig6, render_fig7_claims};
    use mot3d_bench::ExperimentScale;

    /// Every number between `open` and the next `)` in `text`.
    fn numbers_after(text: &str, open: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for part in text.split(open).skip(1) {
            let inner = part.split(')').next().unwrap();
            for token in inner.split(|c: char| !(c.is_ascii_digit() || c == '.')) {
                if let Ok(v) = token.parse::<f64>() {
                    out.push(v);
                }
            }
        }
        out
    }

    #[test]
    fn paper_constants_match_the_rendered_reports() {
        let tiny = ExperimentScale::tiny();
        let fig6 = ExperimentPlan::fig6(tiny).threads(1).run().unwrap();
        let rendered = render_fig6(&fig6_rows(&fig6));
        assert_eq!(numbers_after(&rendered, "(paper: "), FIG6_PAPER);
        let repro = fig6_reproduced(&fig6_rows(&fig6));
        for v in repro {
            assert!(rendered.contains(&format!("{v:.2}%")), "{v} in {rendered}");
        }

        let fig7 = ExperimentPlan::fig7(tiny).threads(1).run().unwrap();
        let rendered = render_fig7_claims(&fig7_rows(&fig7));
        // The last two lines also print an upper limit ("≤8.6%", "≤31%")
        // that the simulator does not reproduce.
        let mut expected = FIG7_PAPER.to_vec();
        expected.insert(11, 8.6);
        expected.push(31.0);
        assert_eq!(numbers_after(&rendered, "(paper: "), expected, "{rendered}");
        // ... and the reproduced side of each line is `fig7_reproduced`.
        let printed: Vec<String> = rendered
            .lines()
            .flat_map(|line| {
                let ours = line
                    .split("(paper")
                    .next()
                    .unwrap()
                    .rsplit(':')
                    .next()
                    .unwrap();
                ours.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                    .filter(|t| t.parse::<f64>().is_ok())
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        let ours: Vec<String> = fig7_reproduced(&fig7_rows(&fig7))
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if i == 10 {
                    format!("{v:.1}")
                } else {
                    format!("{v:.0}")
                }
            })
            .collect();
        assert_eq!(printed, ours, "{rendered}");
    }

    #[test]
    fn claim_error_covers_fig6_fig7_and_grids_that_contain_fig7() {
        let tiny = ExperimentScale::tiny();
        let fig6 = ExperimentPlan::fig6(tiny).threads(1).run().unwrap();
        let fig7 = ExperimentPlan::fig7(tiny).threads(1).run().unwrap();
        let e6 = claim_err_pp(&[("fig6", &fig6)]).unwrap();
        let e7 = claim_err_pp(&[("fig7@200ns", &fig7)]).unwrap();
        let both = claim_err_pp(&[("fig6", &fig6), ("fig7@200ns", &fig7)]).unwrap();
        assert!((both - (3.0 * e6 + 12.0 * e7) / 15.0).abs() < 1e-9);

        // An ad-hoc grid over more axes still contains the Fig. 7 cells.
        let wide = ExperimentPlan::new("wide")
            .power_states(mot3d_mot::PowerState::date16_states())
            .page_policies([false, true])
            .repeats(2)
            .scale(tiny)
            .threads(1)
            .run()
            .unwrap();
        assert_eq!(claim_err_pp(&[("wide", &wide)]), Some(e7));

        let open_page = ExperimentPlan::open_page_at(tiny, DramKind::OffChipDdr3)
            .threads(1)
            .run()
            .unwrap();
        assert_eq!(claim_err_pp(&[("open_page@200ns", &open_page)]), None);
    }
}
