//! Differential suite: tracing must never perturb the simulation.
//!
//! For every power state, both interconnect families, every DRAM
//! option, and both page policies, a traced run's [`Metrics`] must be
//! **bit-identical** to the untraced run of the same point. The
//! untraced side goes through the regular pooled [`run_spec`] path —
//! exactly what sweeps, the server, and the committed BENCH checksums
//! use — so this pins "the observer hook changed nothing". Observed
//! runs go through the same pooled cluster, so the last test pins the
//! other half: whatever the thread's cluster ran before, the trace
//! *file* is byte-identical to one written from a thread that never ran
//! anything.

use mot3d_mot::PowerState;
use mot3d_sim::{run_spec, InterconnectChoice, SimConfig, SimError};
use mot3d_trace::{trace_file_name, trace_spec};
use mot3d_workloads::{SplashBenchmark, WorkloadSpec};
use std::path::{Path, PathBuf};

fn tiny() -> WorkloadSpec {
    SplashBenchmark::Fft.spec().scaled(0.002)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-trace-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_traced_matches(spec: &WorkloadSpec, config: &SimConfig, dir: &Path, tag: &str) {
    let untraced = run_spec(spec, config).unwrap();
    let path = dir.join(trace_file_name(tag));
    let (traced, summary) = trace_spec(spec, config, &path).unwrap();
    assert_eq!(traced, untraced, "tracing perturbed the run at {tag}");
    assert!(summary.events > 0, "empty trace at {tag}");
    assert_eq!(summary.final_cycle + 1, traced.cycles, "{tag}");
    assert!(path.exists());
}

#[test]
fn metrics_bit_identical_across_all_power_states() {
    let dir = tmp_dir("power");
    let spec = tiny();
    for state in [
        PowerState::full(),
        PowerState::pc16_mb8(),
        PowerState::pc4_mb32(),
        PowerState::pc4_mb8(),
    ] {
        let config = SimConfig::date16().with_power_state(state);
        assert_traced_matches(&spec, &config, &dir, &format!("{state}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_bit_identical_on_every_noc_baseline() {
    let dir = tmp_dir("noc");
    let spec = tiny();
    for kind in mot3d_noc::NocTopologyKind::all() {
        let config = SimConfig::date16().with_interconnect(InterconnectChoice::Noc(kind));
        assert_traced_matches(&spec, &config, &dir, &format!("{kind}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_bit_identical_across_dram_and_page_policy() {
    let dir = tmp_dir("dram");
    let spec = tiny();
    for kind in mot3d_mem::dram::DramKind::all() {
        for open_page in [false, true] {
            let config = SimConfig::date16()
                .with_dram(kind)
                .with_open_page(open_page);
            assert_traced_matches(&spec, &config, &dir, &format!("{kind:?}-{open_page}"));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_runs_are_deterministic() {
    let dir = tmp_dir("det");
    let spec = tiny();
    let config = SimConfig::date16();
    let a_path = dir.join("a.trace.json");
    let b_path = dir.join("b.trace.json");
    let (ma, _) = trace_spec(&spec, &config, &a_path).unwrap();
    let (mb, _) = trace_spec(&spec, &config, &b_path).unwrap();
    assert_eq!(ma, mb);
    let a = std::fs::read(&a_path).unwrap();
    let b = std::fs::read(&b_path).unwrap();
    assert_eq!(a, b, "trace files must be byte-identical run to run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pooled_trace_bytes_equal_fresh_trace_bytes() {
    let dir = tmp_dir("pooled");
    let spec = tiny();
    let full = SimConfig::date16();
    let mut configs: Vec<SimConfig> = [
        PowerState::full(),
        PowerState::pc16_mb8(),
        PowerState::pc4_mb32(),
        PowerState::pc4_mb8(),
    ]
    .into_iter()
    .map(|state| full.with_power_state(state))
    .collect();
    configs.extend(
        mot3d_noc::NocTopologyKind::all()
            .into_iter()
            .map(|kind| full.with_interconnect(InterconnectChoice::Noc(kind))),
    );
    configs.extend(
        mot3d_mem::dram::DramKind::all()
            .into_iter()
            .map(|kind| full.with_dram(kind).with_open_page(true)),
    );
    // What the pooled cluster is left holding before each trace: a
    // finished run of a different shape, then a run aborted mid-flight.
    let other = SplashBenchmark::Radix.spec().scaled(0.002);
    let dirty = full
        .with_power_state(PowerState::pc4_mb8())
        .with_dram(mot3d_mem::dram::DramKind::Weis3d);
    let mut aborted = full;
    aborted.max_cycles = 500;
    for (i, config) in configs.iter().enumerate() {
        let fresh_path = dir.join(format!("fresh-{i}.trace.json"));
        let fresh = std::thread::scope(|scope| {
            scope
                .spawn(|| trace_spec(&spec, config, &fresh_path).unwrap().0)
                .join()
                .unwrap()
        });
        run_spec(&other, &dirty).unwrap();
        assert!(matches!(
            run_spec(&other, &aborted),
            Err(SimError::CycleLimit(_))
        ));
        let pooled_path = dir.join(format!("pooled-{i}.trace.json"));
        let (pooled, _) = trace_spec(&spec, config, &pooled_path).unwrap();
        assert_eq!(pooled, fresh, "metrics at config {i}");
        assert_eq!(
            std::fs::read(&pooled_path).unwrap(),
            std::fs::read(&fresh_path).unwrap(),
            "a re-targeted cluster's trace must equal a new cluster's at config {i}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
