//! Sweep service round trip, in process: start `mot3d serve` on an
//! ephemeral port, submit the same tiny plan twice, and show the second
//! submission coming back entirely from the result cache.
//!
//! ```text
//! cargo run --example serve_client
//! ```
//!
//! The equivalent over the CLI (two shells):
//!
//! ```text
//! mot3d serve --addr 127.0.0.1:4016 --cache-dir /tmp/mot3d-cache
//! mot3d submit --bench fft --dram all --scale tiny > grid.jsonl
//! ```

use mot3d_serve::{CachedExecutor, Fingerprint, PlanRequest, PointOutcome, ResultStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = std::env::temp_dir().join(format!("mot3d-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    // The serving core, in process (the TCP layer adds nothing to the
    // caching story): a persistent store plus the cached executor.
    let exec = CachedExecutor::new(ResultStore::open(&cache)?, Fingerprint::current(), None);

    // The same request `mot3d submit --bench fft --dram all --scale
    // tiny` would put on the wire.
    let request = PlanRequest {
        bench: Some("fft".to_string()),
        dram: Some("all".to_string()),
        scale: Some("tiny".to_string()),
        ..PlanRequest::new("sweep")
    };
    let plan = request.to_plan()?;

    println!("cold pass ({} points):", plan.len());
    let cold = exec.run_plan(&plan, &mut |outcome: &PointOutcome| {
        match outcome {
            PointOutcome::Record(line) => println!("  {line}"),
            PointOutcome::Failed { label, error } => {
                println!("  FAILED {label}: {error}");
            }
        }
        Ok(())
    })?;
    println!(
        "  -> {} executed, {} cache hits\n",
        cold.executed, cold.hits
    );

    println!("warm pass (same plan):");
    let warm = exec.run_plan(&plan, &mut |_: &PointOutcome| Ok(()))?;
    println!("  -> {} executed, {} cache hits", warm.executed, warm.hits);
    assert_eq!(warm.executed, 0, "everything came from the store");
    assert_eq!(warm.hits, warm.points);

    // The store survives restarts: reopen it and hit again.
    drop(exec);
    let reopened = CachedExecutor::new(ResultStore::open(&cache)?, Fingerprint::current(), None);
    let replay = reopened.run_plan(&plan, &mut |_: &PointOutcome| Ok(()))?;
    println!(
        "after reopen: {} executed, {} cache hits",
        replay.executed, replay.hits
    );
    assert_eq!(replay.executed, 0);

    std::fs::remove_dir_all(&cache)?;
    Ok(())
}
