//! The run loop allocates nothing once a cluster has run a point.
//!
//! A cluster keeps its storage across [`Cluster::retarget`]: caches,
//! queues, wheels and slabs, the golden memory and one interconnect per
//! kind. Once a point has grown that storage, running it again must not
//! touch the heap. A counting global allocator checks this by
//! measurement, so it sees every executed path down to the last callee,
//! which no token-matching rule can follow. The count is per thread,
//! through a `const`-initialised thread local, so the test harness's
//! other threads cannot add to it. Only [`Cluster::run_to_completion`]
//! is counted: building the workload streams and `retarget` itself may
//! allocate.

use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_sim::{Cluster, InterconnectChoice, SimConfig};
use mot3d_workloads::{streams, CoreStream, SplashBenchmark};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation and reallocation per thread.
struct Counting;

fn count() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. Counting touches only a
// `const`-initialised thread-local `Cell` with no destructor, so it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `cluster` runs to completion.
fn run_allocations(cluster: &mut Cluster) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    cluster.run_to_completion().expect("the point finishes");
    ALLOCATIONS.with(Cell::get) - before
}

fn streams_for(config: &SimConfig, bench: SplashBenchmark) -> Vec<CoreStream> {
    let spec = bench.spec().scaled(0.002);
    streams(&spec, config.power_state.active_cores(), config.seed)
}

/// The canary grid's seven configurations: the MoT in the four Table I
/// power states, then the three baselines at `Full connection`.
fn configurations() -> Vec<SimConfig> {
    let mot = PowerState::date16_states()
        .into_iter()
        .map(|state| SimConfig::date16().with_power_state(state));
    let nocs = NocTopologyKind::all()
        .into_iter()
        .map(|kind| SimConfig::date16().with_interconnect(InterconnectChoice::Noc(kind)));
    mot.chain(nocs).collect()
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(vec![0u8; 8]);
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 1);
}

/// Every canary point (seven configurations × flat and open-page DRAM),
/// with the golden check off and on, running the canary's program and
/// FFT on one long-lived cluster: run, re-target to the same point, run
/// again. The second run allocates nothing and reports the same metrics.
#[test]
fn every_canary_point_reruns_without_allocating() {
    let first = SimConfig::date16();
    let mut cluster =
        Cluster::new(first, streams_for(&first, SplashBenchmark::Radix)).expect("a valid point");
    let benches = [SplashBenchmark::Radix, SplashBenchmark::Fft];
    for (base, bench) in configurations()
        .into_iter()
        .flat_map(|c| benches.map(|b| (c, b)))
    {
        for (open_page, check_golden) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let config = SimConfig {
                seed: 7,
                check_golden,
                ..base.with_open_page(open_page)
            };
            cluster
                .retarget(config, streams_for(&config, bench))
                .expect("a canary point");
            cluster.run_to_completion().expect("the point finishes");
            let grown = cluster.metrics("point");
            cluster
                .retarget(config, streams_for(&config, bench))
                .expect("a canary point");
            let allocations = run_allocations(&mut cluster);
            assert_eq!(allocations, 0, "{bench} {config:?} allocated on its re-run");
            assert_eq!(cluster.metrics("point"), grown, "{bench} {config:?}");
            cluster.verify_against_golden();
        }
    }
}

/// Fig. 6's expansion order runs the workloads outermost, so one cluster
/// changes interconnect kind at almost every point. After one pass over
/// four kinds × three workloads, a second pass runs without allocating.
#[test]
fn a_fig6_ordered_sweep_allocates_nothing_on_its_second_pass() {
    let kinds: Vec<InterconnectChoice> = std::iter::once(InterconnectChoice::Mot)
        .chain(NocTopologyKind::all().map(InterconnectChoice::Noc))
        .collect();
    let benches = [
        SplashBenchmark::Fft,
        SplashBenchmark::Radix,
        SplashBenchmark::OceanContiguous,
    ];
    let first = SimConfig::date16();
    let mut cluster = Cluster::new(first, streams_for(&first, benches[0])).expect("a valid point");
    for pass in 0..2 {
        let mut allocations = 0;
        for bench in benches {
            for interconnect in &kinds {
                let config = SimConfig::date16().with_interconnect(*interconnect);
                cluster
                    .retarget(config, streams_for(&config, bench))
                    .expect("a fig6 point");
                allocations += run_allocations(&mut cluster);
            }
        }
        if pass == 1 {
            assert_eq!(allocations, 0, "the second pass allocated");
        }
    }
}
