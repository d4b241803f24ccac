//! End-to-end figure regeneration at reduced scale — one bench per paper
//! table/figure, so `cargo bench` exercises every experiment path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mot3d_bench::experiments::{fig6_rows, fig7_rows};
use mot3d_bench::{fig5, table1, ExperimentPlan, ExperimentScale};

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("table1", |b| b.iter(|| black_box(table1())));
    g.bench_function("fig5", |b| b.iter(|| black_box(fig5())));
    g.bench_function("fig6_tiny", |b| {
        b.iter(|| {
            black_box(fig6_rows(
                &ExperimentPlan::fig6(ExperimentScale::tiny()).run().unwrap(),
            ))
        })
    });
    g.bench_function("fig7_tiny", |b| {
        b.iter(|| {
            black_box(fig7_rows(
                &ExperimentPlan::fig7(ExperimentScale::tiny()).run().unwrap(),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
