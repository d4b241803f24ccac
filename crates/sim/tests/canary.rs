//! Canary grid: absolute fingerprints of the simulator's behaviour.
//!
//! [`Cluster::new`] and [`Cluster::retarget`] share one initialisation
//! path, so `retarget_equivalence.rs` (a dirty cluster against a clean
//! one) can no longer notice a change that moves both the same way, and
//! the five `BENCH_results.json` checksums are a CI step, not a
//! `cargo test`. This file pins the answer itself: every interconnect ×
//! every Table I power state the simulator accepts (seven
//! configurations) × {flat, open-page} DRAM, one short golden-checked
//! run each, folded into one FNV-1a hash per point. The hashes were
//! generated at the commit *before* the `Cluster` state was regrouped
//! by lifetime and must only ever change together with a deliberate
//! model change.
//!
//! This is also the canary grid ROADMAP item 6 asks for: the behavioural
//! fingerprint of the cache key can fold these same fourteen runs.

use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_sim::{Cluster, InterconnectChoice, Metrics, SimConfig};
use mot3d_workloads::{streams, CoreStream, SplashBenchmark};

/// `PINNED[2 * configuration + open_page]`, configurations in
/// [`configurations`] order.
const PINNED: [u64; 14] = [
    0xb633_c255_845b_789c,
    0x9efb_a9e8_4e86_8005,
    0xeefd_3557_17b1_df55,
    0xb249_8941_efa7_9ef3,
    0xeb45_0b05_df01_df2d,
    0x17db_c01a_d8d3_499f,
    0xe2f3_5ced_7170_90dc,
    0x2978_beb4_7e6a_5e8b,
    0x5dc0_eabc_f5be_a24f,
    0xf868_4fbd_2430_e40d,
    0x36ad_fd5b_2a1b_0b74,
    0x87f0_37d9_d386_b723,
    0xfd17_f980_7659_5a65,
    0x3443_83a7_b655_e933,
];

/// The seven configurations the simulator accepts: the MoT in the four
/// Table I power states, then the three baselines at `Full connection`.
fn configurations() -> Vec<SimConfig> {
    let mot = PowerState::date16_states()
        .into_iter()
        .map(|state| SimConfig::date16().with_power_state(state));
    let nocs = NocTopologyKind::all()
        .into_iter()
        .map(|kind| SimConfig::date16().with_interconnect(InterconnectChoice::Noc(kind)));
    mot.chain(nocs).collect()
}

/// The fourteen canary points, in [`PINNED`] order.
fn grid() -> Vec<SimConfig> {
    configurations()
        .into_iter()
        .flat_map(|base| {
            [false, true].map(|open_page| SimConfig {
                seed: 7,
                check_golden: true,
                ..base.with_open_page(open_page)
            })
        })
        .collect()
}

fn streams_for(config: &SimConfig) -> Vec<CoreStream> {
    let spec = SplashBenchmark::Radix.spec().scaled(0.002);
    streams(&spec, config.power_state.active_cores(), config.seed)
}

/// Runs a cluster that was just built for, or re-targeted to, a canary
/// point and folds what it reports.
fn fingerprint(cluster: &mut Cluster) -> u64 {
    cluster
        .run_to_completion()
        .expect("a canary point finishes");
    cluster.verify_against_golden();
    fold(&cluster.metrics("canary"))
}

fn fold(m: &Metrics) -> u64 {
    let latency = &m.l2_latency;
    let counters = [
        m.cycles,
        m.instructions,
        m.l1_hits,
        m.l1_misses,
        m.l2_hits,
        m.l2_misses,
        m.dram_accesses,
        m.invalidations,
        m.recalls,
        latency.count(),
        latency.total(),
        latency.max(),
    ];
    let energy = [
        m.energy.cores,
        m.energy.l1,
        m.energy.l2,
        m.energy.interconnect,
        m.energy.dram,
    ]
    .map(|joules| joules.value().to_bits());
    counters
        .iter()
        .chain(latency.buckets())
        .chain(&energy)
        .fold(FNV_OFFSET, |state, word| {
            fnv1a64_fold(state, &word.to_le_bytes())
        })
}

#[test]
fn fresh_clusters_reproduce_the_pinned_hashes() {
    for (i, config) in grid().into_iter().enumerate() {
        let mut cluster = Cluster::new(config, streams_for(&config)).expect("a canary point");
        let got = fingerprint(&mut cluster);
        assert_eq!(got, PINNED[i], "point {i} {config:?}: got {got:#018x}");
    }
}

#[test]
fn a_retargeted_cluster_reproduces_the_pinned_hashes() {
    // Two passes over one cluster: in the second, every point runs on a
    // cluster that has been through all the others.
    let grid = grid();
    let mut cluster = Cluster::new(grid[0], streams_for(&grid[0])).expect("a canary point");
    for pass in 0..2 {
        for (i, config) in grid.iter().enumerate() {
            cluster
                .retarget(*config, streams_for(config))
                .expect("a canary point");
            let got = fingerprint(&mut cluster);
            assert_eq!(
                got, PINNED[i],
                "pass {pass} point {i} {config:?}: got {got:#018x}"
            );
        }
    }
}
