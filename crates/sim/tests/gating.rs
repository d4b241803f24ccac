//! Runtime power-state transition tests (§III): banks are gated and
//! un-gated mid-run, dirty lines are flushed, and no store is ever lost.

use mot3d_mot::PowerState;
use mot3d_sim::{Cluster, SimConfig};
use mot3d_workloads::{streams, SplashBenchmark, WorkloadSpec};

fn spec() -> WorkloadSpec {
    let mut s = SplashBenchmark::Fft.spec().scaled(0.005);
    s.working_set_bytes = 128 * 1024; // enough dirty lines to matter
    s
}

fn checked_config(state: PowerState) -> SimConfig {
    let mut cfg = SimConfig::date16().with_power_state(state);
    cfg.check_golden = true;
    cfg
}

/// Runs `cycles` steps (or to completion).
fn run_some(cluster: &mut Cluster, cycles: u64) {
    for _ in 0..cycles {
        if cluster.is_done() {
            return;
        }
        cluster.step();
    }
}

#[test]
fn bank_gating_mid_run_preserves_all_stores() {
    let cfg = checked_config(PowerState::full());
    let s = spec();
    let mut cluster = Cluster::new(cfg, streams(&s, 16, 7)).unwrap();

    run_some(&mut cluster, 20_000);
    // Gate 24 of the 32 banks: dirty lines in them must be flushed.
    cluster.switch_power_state(PowerState::pc16_mb8()).unwrap();
    cluster.verify_against_golden();

    run_some(&mut cluster, 20_000);
    // Un-gate again: folded lines must go home without losing data.
    cluster.switch_power_state(PowerState::full()).unwrap();
    cluster.verify_against_golden();

    cluster.run_to_completion().unwrap();
    cluster.verify_against_golden();
}

#[test]
fn a_switch_keeps_the_interconnect_accounting() {
    let cfg = checked_config(PowerState::full());
    let mut cluster = Cluster::new(cfg, streams(&spec(), 16, 5)).unwrap();
    run_some(&mut cluster, 5_000);
    cluster.drain().unwrap();
    let before = cluster.metrics("m");
    assert!(before.interconnect.requests > 0);
    // Drained, a switch to the same state changes nothing the run has
    // counted: the interconnect's requests and dynamic energy included.
    cluster.switch_power_state(PowerState::full()).unwrap();
    assert_eq!(cluster.metrics("m"), before);
}

#[test]
fn repeated_transitions_are_stable() {
    let cfg = checked_config(PowerState::full());
    let s = spec();
    let mut cluster = Cluster::new(cfg, streams(&s, 16, 21)).unwrap();
    let cycle_states = [
        PowerState::pc16_mb8(),
        PowerState::full(),
        PowerState::new(16, 16).unwrap(),
        PowerState::pc16_mb8(),
        PowerState::full(),
    ];
    for state in cycle_states {
        run_some(&mut cluster, 5_000);
        if cluster.is_done() {
            break;
        }
        cluster.switch_power_state(state).unwrap();
        cluster.verify_against_golden();
        assert_eq!(cluster.power_state(), state);
    }
    cluster.run_to_completion().unwrap();
    cluster.verify_against_golden();
}

#[test]
fn transition_cannot_change_core_count() {
    let cfg = checked_config(PowerState::full());
    let s = spec();
    let mut cluster = Cluster::new(cfg, streams(&s, 16, 3)).unwrap();
    run_some(&mut cluster, 1_000);
    let err = cluster
        .switch_power_state(PowerState::pc4_mb32())
        .unwrap_err();
    assert!(err.to_string().contains("core count"));
}

#[test]
fn gated_runs_complete_with_fewer_resources() {
    // PC16-MB8 completes the same program; with a large working set it
    // needs more cycles than Full (the Fig. 7(b) penalty). The footprint
    // must actually be touched repeatedly and exceed 8 × 64 KB, so this
    // uses a purpose-built spec rather than a scaled-down benchmark.
    let mut large = SplashBenchmark::Cholesky.spec();
    large.working_set_bytes = 768 * 1024; // > 512 KB of 8 banks, < 2 MB
    large.mem_ratio = 0.4;
    large.locality = 0.4;
    large.shared_fraction = 0.1;
    large.serial_fraction = 0.05;
    large.total_ops = 240_000;
    large.phases = 4;
    let full = {
        let mut c =
            Cluster::new(checked_config(PowerState::full()), streams(&large, 16, 5)).unwrap();
        c.run_to_completion().unwrap();
        c.verify_against_golden();
        c.metrics("full")
    };
    let gated = {
        let mut c = Cluster::new(
            checked_config(PowerState::pc16_mb8()),
            streams(&large, 16, 5),
        )
        .unwrap();
        c.run_to_completion().unwrap();
        c.verify_against_golden();
        c.metrics("pc16-mb8")
    };
    assert!(
        gated.cycles > full.cycles,
        "large-footprint program must slow down on 8 banks: {} vs {}",
        gated.cycles,
        full.cycles
    );
    assert!(gated.l2_misses > full.l2_misses);
}
