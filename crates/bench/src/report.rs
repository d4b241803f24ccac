//! Table formatting for the tables and figures `mot3d` prints.

use crate::experiments::{fig6_interconnects, Fig5Row, Fig6Row, Fig7Row, OpenPageRow, Table1Row};
use std::fmt::Write as _;

/// Streams one sweep-progress line to stderr (`mot3d`'s `progress`
/// callback: rows appear as worker threads finish them).
pub fn stream_progress(done: usize, total: usize, label: &str) {
    eprintln!("  [{done:>2}/{total}] {label}");
}

/// Renders Table I.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I — derived L2 cache latencies (cycles @ 1 GHz)");
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>10} {:>8}",
        "state", "banks", "derived", "paper"
    );
    for r in rows {
        let mark = if r.latency_cycles == r.paper_cycles {
            "="
        } else {
            "!"
        };
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>10} {:>7}{}",
            r.state, r.banks, r.latency_cycles, r.paper_cycles, mark
        );
    }
    out
}

/// Renders Fig. 5.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 5 — wire lengths per power state");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>8} {:>12} {:>15}",
        "state", "longest(mm)", "z hops", "z span(µm)", "live wire(mm)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>12.2} {:>8} {:>12.1} {:>15.0}",
            r.state, r.horizontal_mm, r.vertical_hops, r.vertical_um, r.active_wire_mm
        );
    }
    out
}

/// Writes one per-benchmark table: `title`, a header of `columns`, then
/// each row's benchmark and four cells at `prec` decimals.
fn grid<'a>(
    out: &mut String,
    title: &str,
    columns: [&str; 4],
    prec: usize,
    rows: impl Iterator<Item = (&'a str, [f64; 4])>,
) {
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<18}", "benchmark");
    for c in columns {
        let _ = write!(out, "{c:>10}");
    }
    let _ = writeln!(out);
    for (bench, cells) in rows {
        let _ = write!(out, "{bench:<18}");
        for v in cells {
            let _ = write!(out, "{v:>10.prec$}");
        }
        let _ = writeln!(out);
    }
}

/// Renders Fig. 6 (a) and (b).
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let names = ["3-D Mesh", "Bus-Mesh", "Bus-Tree", "3-D MoT"];
    let mut out = String::new();
    let latency = rows.iter().map(|r| (r.bench.as_str(), r.l2_latency));
    let title = "Fig. 6(a) — mean L2 access latency (cycles)";
    grid(&mut out, title, names, 1, latency);
    let _ = writeln!(out);
    let kcycles = rows
        .iter()
        .map(|r| (r.bench.as_str(), r.exec_cycles.map(|c| c as f64 / 1e3)));
    let title = "Fig. 6(b) — execution time (kcycles), DRAM 200 ns";
    grid(&mut out, title, names, 0, kcycles);
    let _ = writeln!(out);
    let n = rows.len() as f64;
    let baselines = fig6_interconnects().into_iter().zip([13.01, 11.16, 13.34]);
    for (i, (base, paper)) in baselines.enumerate() {
        let mean: f64 = rows.iter().map(|r| r.mot_reduction_vs(i)).sum::<f64>() / n;
        let _ = writeln!(
            out,
            "MoT mean execution-time reduction vs {base}: {mean:.2}% (paper: {paper}%)"
        );
    }
    out
}

/// Renders a Fig. 7-style power-state sweep (also used for Fig. 8).
pub fn render_fig7(rows: &[Fig7Row], dram: &str) -> String {
    let states = ["Full", "PC16-MB8", "PC4-MB32", "PC4-MB8"];
    let mut out = String::new();
    let edp = rows
        .iter()
        .map(|r| (r.bench.as_str(), r.edp.map(|e| e / r.edp[0])));
    let title = format!("EDP normalised to Full connection, DRAM {dram}");
    grid(&mut out, &title, states, 3, edp);
    let _ = writeln!(out);
    let time = rows.iter().map(|r| {
        let full = r.exec_cycles[0] as f64;
        (r.bench.as_str(), r.exec_cycles.map(|c| c as f64 / full))
    });
    let title = "Execution time normalised to Full connection";
    grid(&mut out, title, states, 3, time);
    out
}

/// Renders the open-page DRAM sweep.
pub fn render_open_page(rows: &[OpenPageRow], dram: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Open-page DRAM vs flat latency (Full connection, DRAM {dram})"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>8} {:>11}",
        "benchmark", "flat", "open-page", "delta", "EDP ratio"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>7.1}% {:>11.3}",
            r.bench,
            r.flat_cycles,
            r.open_cycles,
            r.cycle_delta_percent(),
            r.open_edp / r.flat_edp,
        );
    }
    out
}

/// Renders the paper-claim summary lines for Fig. 7.
pub fn render_fig7_claims(rows: &[Fig7Row]) -> String {
    use crate::experiments::{group_max, group_mean};
    use mot3d_workloads::SplashBenchmark;
    let limited = SplashBenchmark::limited_scalability();
    let small = SplashBenchmark::small_l2_demand();
    let scalable = SplashBenchmark::scalable();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "PC4-MB32 EDP reduction on limited-scalability group: mean {:.0}% / max {:.0}%  (paper: 44% / 66%)",
        group_mean(rows, &limited, |r| r.edp_reduction(2)),
        group_max(rows, &limited, |r| r.edp_reduction(2)),
    );
    let _ = writeln!(
        out,
        "PC16-MB8 EDP reduction on small-L2-demand group:     mean {:.0}% / max {:.0}%  (paper: 13% / 18%)",
        group_mean(rows, &small, |r| r.edp_reduction(1)),
        group_max(rows, &small, |r| r.edp_reduction(1)),
    );
    let _ = writeln!(
        out,
        "PC4-MB8 EDP reduction on limited-scalability group:  mean {:.0}% / max {:.0}%  (paper: 52% / 77%)",
        group_mean(rows, &limited, |r| r.edp_reduction(3)),
        group_max(rows, &limited, |r| r.edp_reduction(3)),
    );
    let _ = writeln!(
        out,
        "4→16-core execution-time reduction, limited group:   mean {:.0}% / max {:.0}%  (paper: 19% / 33%)",
        group_mean(rows, &limited, |r| r.scaling_reduction_4_to_16()),
        group_max(rows, &limited, |r| r.scaling_reduction_4_to_16()),
    );
    let _ = writeln!(
        out,
        "4→16-core execution-time reduction, scalable group:  mean {:.0}% / max {:.0}%  (paper: 64% / 69%)",
        group_mean(rows, &scalable, |r| r.scaling_reduction_4_to_16()),
        group_max(rows, &scalable, |r| r.scaling_reduction_4_to_16()),
    );
    let _ = writeln!(
        out,
        "PC16-MB8 execution-time increase, small-demand group: mean {:.1}% (paper: 4.7%, ≤8.6%)",
        group_mean(rows, &small, |r| r.time_increase(1)),
    );
    let large = [
        SplashBenchmark::Cholesky,
        SplashBenchmark::Radix,
        SplashBenchmark::OceanContiguous,
    ];
    let _ = writeln!(
        out,
        "PC16-MB8 execution-time increase, large-demand group: mean {:.0}% (paper: 24%, ≤31%)",
        group_mean(rows, &large, |r| r.time_increase(1)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rendering_marks_matches() {
        let rows = vec![Table1Row {
            state: "Full connection".into(),
            banks: 32,
            latency_cycles: 12,
            paper_cycles: 12,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("Full connection"));
        assert!(s.contains("12="));
    }

    #[test]
    fn fig7_rendering_normalises_to_full() {
        let rows = vec![Fig7Row {
            bench: "fft".into(),
            edp: [2.0, 1.0, 1.0, 0.5],
            exec_cycles: [100, 110, 130, 140],
        }];
        let s = render_fig7(&rows, "200 ns");
        assert!(s.contains("fft"));
        assert!(s.contains("0.500")); // PC4-MB8 EDP ratio
        assert!(s.contains("1.400")); // PC4-MB8 time ratio
    }
}
