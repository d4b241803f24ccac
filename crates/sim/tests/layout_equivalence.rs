//! Differential tests for the allocation-free data-layout overhaul.
//!
//! The hot paths were re-laid-out (structure-of-arrays caches, slab-backed
//! queues, generational transaction handles, status masks). These tests
//! pin the overhaul's contract end to end: across **all four power
//! states** and **all three NoC baselines**, a reused (reset) cluster must
//! produce bit-identical [`Metrics`] to a freshly built one, with the
//! golden-memory oracle armed so any lost or reordered store panics —
//! the PR 2 `event_driven.rs` pattern applied to the layout change.

use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_sim::runner::ClusterPool;
use mot3d_sim::{Cluster, InterconnectChoice, Metrics, SimConfig};
use mot3d_workloads::{streams, SplashBenchmark, WorkloadSpec};
use proptest::prelude::*;

/// The seven tier-1 interconnect/power-state combinations: the MoT in all
/// four Table I states, and the three packet-switched baselines (Full
/// state only — NoCs reject gating).
fn config_for(pick: usize) -> SimConfig {
    let mut cfg = match pick {
        0..=3 => SimConfig::date16().with_power_state(PowerState::date16_states()[pick]),
        4 => {
            SimConfig::date16().with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d))
        }
        5 => SimConfig::date16()
            .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::HybridBusMesh)),
        _ => SimConfig::date16()
            .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::HybridBusTree)),
    };
    cfg.check_golden = true;
    cfg
}

fn small_spec(bench: usize, ops: u64, mem: f64, write: f64, locality: f64) -> WorkloadSpec {
    WorkloadSpec {
        mem_ratio: mem,
        write_fraction: write,
        locality,
        total_ops: ops,
        ..SplashBenchmark::all()[bench % 8].spec()
    }
}

/// Runs `spec` on a freshly-constructed cluster (no pooling).
fn run_fresh(spec: &WorkloadSpec, cfg: &SimConfig) -> Metrics {
    let mut cluster = Cluster::new(
        *cfg,
        streams(spec, cfg.power_state.active_cores(), cfg.seed),
    )
    .expect("config is valid");
    cluster.run_to_completion().expect("run completes");
    cluster.verify_against_golden();
    cluster.metrics("fresh")
}

fn metrics_match(a: &Metrics, mut b: Metrics) -> Result<(), TestCaseError> {
    // Labels differ by construction; everything else must be identical.
    b.label = a.label.clone();
    prop_assert_eq!(a, &b);
    Ok(())
}

proptest! {
    /// A pool-reused (reset) cluster is observationally identical to a
    /// fresh build: same cycles, same hit/miss counters, same latency
    /// histogram, same energy — for every interconnect and power state.
    #[test]
    fn reset_cluster_matches_fresh_build(
        pick in 0usize..7,
        bench in 0usize..8,
        ops in 800u64..4_000,
        mem in 0.1..0.45f64,
        write in 0.0..0.5f64,
        locality in 0.3..0.95f64,
    ) {
        let cfg = config_for(pick);
        let spec = small_spec(bench, ops, mem, write, locality);
        let fresh = run_fresh(&spec, &cfg);

        let mut pool = ClusterPool::new();
        // First pooled run constructs; second resets and reruns — both
        // must equal the fresh build bit for bit.
        let first = pool.run_spec(&spec, &cfg).expect("pooled run");
        let second = pool.run_spec(&spec, &cfg).expect("reset run");
        prop_assert!(!pool.is_empty(), "the cluster is kept");
        metrics_match(&fresh, first)?;
        metrics_match(&fresh, second)?;
    }

    /// Back-to-back different workloads through one pooled cluster leave
    /// no residue: re-running workload A after B reproduces A's metrics.
    #[test]
    fn pooled_cluster_carries_no_state_between_workloads(
        pick in 0usize..7,
        ops_a in 800u64..2_500,
        ops_b in 800u64..2_500,
    ) {
        let cfg = config_for(pick);
        let spec_a = small_spec(1, ops_a, 0.3, 0.3, 0.7);
        let spec_b = small_spec(5, ops_b, 0.2, 0.1, 0.5);
        let mut pool = ClusterPool::new();
        let a1 = pool.run_spec(&spec_a, &cfg).expect("run a1");
        let _b = pool.run_spec(&spec_b, &cfg).expect("run b");
        let a2 = pool.run_spec(&spec_a, &cfg).expect("run a2");
        prop_assert_eq!(a1, a2);
    }
}
