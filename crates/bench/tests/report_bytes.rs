//! Pins the bytes `render_fig6`, `render_fig7` and `render_fig7_claims`
//! print for fixed synthetic rows. `plan_equivalence.rs` renders both of
//! its sides through these same functions, so only literal text catches
//! a change in the table layout, a column name or a claim line.

use mot3d_bench::experiments::{Fig6Row, Fig7Row};
use mot3d_bench::report::{render_fig6, render_fig7, render_fig7_claims};
use mot3d_workloads::SplashBenchmark;

fn fig6_rows() -> Vec<Fig6Row> {
    vec![
        Fig6Row {
            bench: "fft".into(),
            l2_latency: [31.25, 28.5, 30.0, 14.75],
            exec_cycles: [120_400, 118_000, 121_900, 104_300],
        },
        Fig6Row {
            bench: "ocean_contiguous".into(),
            l2_latency: [40.0, 36.125, 38.5, 17.0],
            exec_cycles: [98_765, 95_000, 99_999, 87_650],
        },
    ]
}

/// One row per program: Full, PC16-MB8, PC4-MB32, PC4-MB8.
fn fig7_rows() -> Vec<Fig7Row> {
    SplashBenchmark::all()
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            let k = i as f64;
            let c = 1_000 * i as u64;
            Fig7Row {
                bench: bench.to_string(),
                edp: [4.0 + k, 3.5 + k, 2.0 + 0.5 * k, 1.5 + 0.25 * k],
                exec_cycles: [100_000 + c, 106_000 + 2 * c, 150_000 - c, 160_000 + c],
            }
        })
        .collect()
}

#[test]
fn fig6_tables_and_claims_keep_their_bytes() {
    let want = r#"Fig. 6(a) — mean L2 access latency (cycles)
benchmark           3-D Mesh  Bus-Mesh  Bus-Tree   3-D MoT
fft                     31.2      28.5      30.0      14.8
ocean_contiguous        40.0      36.1      38.5      17.0

Fig. 6(b) — execution time (kcycles), DRAM 200 ns
benchmark           3-D Mesh  Bus-Mesh  Bus-Tree   3-D MoT
fft                      120       118       122       104
ocean_contiguous          99        95       100        88

MoT mean execution-time reduction vs True 3-D Mesh: 12.31% (paper: 13.01%)
MoT mean execution-time reduction vs 3-D Hybrid Bus-Mesh: 9.67% (paper: 11.16%)
MoT mean execution-time reduction vs 3-D Hybrid Bus-Tree: 13.39% (paper: 13.34%)
"#;
    assert_eq!(render_fig6(&fig6_rows()), want);
}

#[test]
fn fig7_tables_keep_their_bytes() {
    let want = r#"EDP normalised to Full connection, DRAM 63 ns (Wide I/O)
benchmark               Full  PC16-MB8  PC4-MB32   PC4-MB8
cholesky               1.000     0.875     0.500     0.375
fft                    1.000     0.900     0.500     0.350
fmm                    1.000     0.917     0.500     0.333
ocean_contiguous       1.000     0.929     0.500     0.321
radix                  1.000     0.938     0.500     0.312
raytrace               1.000     0.944     0.500     0.306
volrend                1.000     0.950     0.500     0.300
water-nsquared         1.000     0.955     0.500     0.295

Execution time normalised to Full connection
benchmark               Full  PC16-MB8  PC4-MB32   PC4-MB8
cholesky               1.000     1.060     1.500     1.600
fft                    1.000     1.069     1.475     1.594
fmm                    1.000     1.078     1.451     1.588
ocean_contiguous       1.000     1.087     1.427     1.583
radix                  1.000     1.096     1.404     1.577
raytrace               1.000     1.105     1.381     1.571
volrend                1.000     1.113     1.358     1.566
water-nsquared         1.000     1.121     1.336     1.561
"#;
    assert_eq!(render_fig7(&fig7_rows(), "63 ns (Wide I/O)"), want);
}

#[test]
fn fig7_claims_keep_their_bytes() {
    let want = r#"PC4-MB32 EDP reduction on limited-scalability group: mean 50% / max 50%  (paper: 44% / 66%)
PC16-MB8 EDP reduction on small-L2-demand group:     mean 7% / max 10%  (paper: 13% / 18%)
PC4-MB8 EDP reduction on limited-scalability group:  mean 67% / max 70%  (paper: 52% / 77%)
4→16-core execution-time reduction, limited group:   mean 30% / max 33%  (paper: 19% / 33%)
4→16-core execution-time reduction, scalable group:  mean 29% / max 31%  (paper: 64% / 69%)
PC16-MB8 execution-time increase, small-demand group: mean 9.7% (paper: 4.7%, ≤8.6%)
PC16-MB8 execution-time increase, large-demand group: mean 8% (paper: 24%, ≤31%)
"#;
    assert_eq!(render_fig7_claims(&fig7_rows()), want);
}
