//! Property-based tests of the whole simulated cluster.

use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_sim::{run_spec, InterconnectChoice, SimConfig};
use mot3d_workloads::{SplashBenchmark, WorkloadSpec};
use proptest::prelude::*;

/// A small random-but-valid workload spec.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0usize..8,
        0.0..0.5f64,   // serial fraction
        0.05..0.45f64, // mem ratio
        0.0..0.6f64,   // write fraction
        0.3..0.95f64,  // locality
        0.0..0.8f64,   // hot fraction
        1u32..6,       // phases
        2_000u64..12_000,
    )
        .prop_map(
            |(bench, serial, mem, write, locality, hot, phases, ops)| WorkloadSpec {
                serial_fraction: serial,
                mem_ratio: mem,
                write_fraction: write,
                locality,
                hot_fraction: hot,
                phases,
                total_ops: ops,
                ..SplashBenchmark::all()[bench].spec()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any valid workload completes on any power state with golden checks
    /// on — the cluster never deadlocks, never loses a store.
    #[test]
    fn cluster_never_loses_stores(spec in spec_strategy(), state_pick in 0usize..4) {
        let state = PowerState::date16_states()[state_pick];
        let mut cfg = SimConfig::date16().with_power_state(state);
        cfg.check_golden = true;
        cfg.max_cycles = 30_000_000;
        let m = run_spec(&spec, &cfg).expect("run completes");
        prop_assert!(m.cycles > 0);
        // Every retired instruction is accounted for.
        prop_assert!(m.instructions > 0);
        prop_assert!(m.ipc() > 0.0 && m.ipc() <= state.active_cores() as f64);
    }

    /// The same workload takes no fewer cycles on a packet-switched
    /// baseline than on the MoT (Fig. 6's ordering, generalised).
    #[test]
    fn mot_is_never_slower_than_mesh(spec in spec_strategy()) {
        let mot = run_spec(&spec, &SimConfig::date16()).expect("mot run");
        let mesh = run_spec(
            &spec,
            &SimConfig::date16()
                .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d)),
        )
        .expect("mesh run");
        prop_assert!(
            mot.cycles <= mesh.cycles,
            "MoT {} vs mesh {} cycles",
            mot.cycles,
            mesh.cycles
        );
    }

    /// Cache-accounting invariants hold on arbitrary runs: L2 accesses
    /// are bounded by L1 misses plus coherence traffic, and DRAM accesses
    /// cannot exceed L2 misses plus writebacks plus instruction refills.
    #[test]
    fn counter_invariants(spec in spec_strategy()) {
        let m = run_spec(&spec, &SimConfig::date16()).expect("run");
        // Each L1 (data) miss creates exactly one L2 transaction.
        prop_assert!(m.l2_hits + m.l2_misses <= m.l1_misses,
            "L2 accesses {} exceed L1 misses {}", m.l2_hits + m.l2_misses, m.l1_misses);
        prop_assert!(m.dram_accesses >= m.l2_misses,
            "every L2 miss reaches DRAM");
        prop_assert!(m.l2_latency.count() == m.l1_misses,
            "every miss transaction is measured: {} vs {}", m.l2_latency.count(), m.l1_misses);
    }
}
