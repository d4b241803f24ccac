//! Tracing is observation-only at the plan layer too: a traced sweep
//! (`run_traced_with`, serial, fresh clusters, one trace file per
//! point) must produce record streams **bit-identical** to the pooled
//! untraced sweep — the same `RunRecord`s in the same order, folding to
//! the same FNV checksum over the exact JSON-lines bytes a sink writes.

use mot3d_bench::plan::ExperimentPlan;
use mot3d_bench::sink::record_json_line;
use mot3d_bench::ExperimentScale;
use mot3d_mot::PowerState;
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_workloads::SplashBenchmark;
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-trace-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a over the JSON line of every record, in order — the same
/// digest shape `mot3d perf check` pins for sweeps.
fn stream_checksum(records: &[mot3d_bench::plan::RunRecord]) -> u64 {
    records.iter().fold(FNV_OFFSET, |state, r| {
        fnv1a64_fold(state, record_json_line(r).as_bytes())
    })
}

#[test]
fn traced_sweeps_match_untraced_sweeps_bit_for_bit() {
    let dir = scratch_dir("grid");
    let plan = || {
        ExperimentPlan::new("trace-eq")
            .splash([SplashBenchmark::Fft, SplashBenchmark::Radix])
            .power_states([PowerState::full(), PowerState::pc16_mb8()])
            .scale(ExperimentScale::tiny())
    };

    let untraced = plan().run().unwrap();
    let traced = plan().run_traced_with(&dir, &mut [], |_, _, _| {}).unwrap();

    assert_eq!(untraced.len(), 4, "2 benches × 2 power states");
    assert_eq!(traced.len(), untraced.len());
    for ((record, trace_path), reference) in traced.iter().zip(&untraced) {
        assert_eq!(record, reference, "{}", reference.point.label());
        assert!(trace_path.exists(), "{}", trace_path.display());
    }

    // The serialized streams fold to the same checksum — tracing cannot
    // perturb what `mot3d sweep --json` (or the serve stream) emits.
    let traced_records: Vec<_> = traced.into_iter().map(|(r, _)| r).collect();
    assert_eq!(stream_checksum(&traced_records), stream_checksum(&untraced));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_runs_are_deterministic_across_invocations() {
    let dir_a = scratch_dir("det-a");
    let dir_b = scratch_dir("det-b");
    let plan = || {
        ExperimentPlan::new("trace-det")
            .splash([SplashBenchmark::Fmm])
            .scale(ExperimentScale::tiny())
    };
    let a = plan()
        .run_traced_with(&dir_a, &mut [], |_, _, _| {})
        .unwrap();
    let b = plan()
        .run_traced_with(&dir_b, &mut [], |_, _, _| {})
        .unwrap();
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].0, b[0].0, "records identical run to run");
    // And the trace files themselves are byte-identical: timestamps are
    // simulated cycles, never host time (clippy's disallowed_methods).
    let bytes_a = std::fs::read(&a[0].1).unwrap();
    let bytes_b = std::fs::read(&b[0].1).unwrap();
    assert_eq!(
        fnv1a64_fold(FNV_OFFSET, &bytes_a),
        fnv1a64_fold(FNV_OFFSET, &bytes_b),
        "trace bytes identical run to run"
    );
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}
