//! Golden replay: a cached pass over the tiny `mot3d all` grid must be
//! byte-identical to the cold pass that populated the store — header,
//! records, everything — across a store reopen (simulated restart).

use mot3d_bench::plan::ExperimentPlan;
use mot3d_bench::ExperimentScale;
use mot3d_mem::dram::DramKind;
use mot3d_serve::{CachedExecutor, Fingerprint, PointOutcome, ResultStore};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-replay-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The simulating plans `mot3d all` runs, in its order.
fn all_plans(scale: ExperimentScale) -> Vec<ExperimentPlan> {
    vec![
        ExperimentPlan::fig6(scale),
        ExperimentPlan::fig7(scale),
        ExperimentPlan::fig8_at(scale, DramKind::WideIo),
        ExperimentPlan::fig8_at(scale, DramKind::Weis3d),
        ExperimentPlan::open_page_at(scale, DramKind::OffChipDdr3),
    ]
}

fn run_all(exec: &CachedExecutor, plans: &[ExperimentPlan]) -> (Vec<String>, u64, u64) {
    let mut lines = Vec::new();
    let (mut hits, mut executed) = (0, 0);
    for plan in plans {
        let outcome = exec
            .run_plan(plan, &mut |o: &PointOutcome| {
                match o {
                    PointOutcome::Record(line) => lines.push(line.clone()),
                    PointOutcome::Failed { label, error } => {
                        panic!("unexpected failure for {label}: {error}")
                    }
                }
                Ok(())
            })
            .expect("plan runs");
        hits += outcome.hits;
        executed += outcome.executed;
    }
    (lines, hits, executed)
}

#[test]
fn cached_replay_of_the_all_grid_is_byte_identical() {
    let dir = scratch_dir("all");
    let plans = all_plans(ExperimentScale::tiny());
    let total: u64 = plans.iter().map(|p| p.len() as u64).sum();

    let exec = CachedExecutor::new(
        ResultStore::open(&dir).unwrap(),
        Fingerprint::current(),
        None,
    );
    let (cold, cold_hits, cold_exec) = run_all(&exec, &plans);
    // The figures overlap (fig6's Full/200 ns column reappears in
    // fig7, fig8@63's flat rows in the open-page study), so even the
    // cold pass hits on the duplicates — each distinct point simulates
    // exactly once.
    assert_eq!(cold_exec + cold_hits, total);
    assert!(cold_hits > 0, "the all grid has cross-figure duplicates");
    assert_eq!(cold_exec, exec.executed_total(), "distinct points only");
    drop(exec);

    // "Restart": a new executor over the same directory.
    let exec = CachedExecutor::new(
        ResultStore::open(&dir).unwrap(),
        Fingerprint::current(),
        None,
    );
    let (warm, warm_hits, warm_exec) = run_all(&exec, &plans);
    assert_eq!(warm_hits, total, "hit count equals point count");
    assert_eq!(warm_exec, 0, "the replay executed no simulations");
    assert_eq!(cold.len(), warm.len());
    for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(a, b, "record {i} drifted on replay");
    }

    // A different fingerprint sees a cold cache over the same bytes.
    let foreign = CachedExecutor::new(
        ResultStore::open(&dir).unwrap(),
        Fingerprint::custom("other/1"),
        None,
    );
    let first = &plans[..1];
    let (_, fhits, fexec) = run_all(&foreign, first);
    assert_eq!(fhits, 0, "fingerprints segregate the store");
    assert_eq!(fexec, first[0].len() as u64);

    std::fs::remove_dir_all(&dir).unwrap();
}
