//! A traced re-run allocates nothing inside the step.
//!
//! [`TraceObserver::sample`] runs at the end of every executed step, so
//! it must write its events into the trace writer's buffer, which is
//! sized up front and written out when it fills. A counting global
//! allocator (per thread, through a `const`-initialised thread local)
//! checks this by measurement on a cluster re-running a point with the
//! interconnect it kept across [`Cluster::retarget`]. The first step is
//! not counted: its `sample` registers the tracks.

use mot3d_noc::NocTopologyKind;
use mot3d_sim::{Cluster, InterconnectChoice, SimConfig};
use mot3d_trace::TraceObserver;
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

fn streams_for(config: &SimConfig) -> Vec<CoreStream> {
    let spec = SplashBenchmark::Fft.spec().scaled(0.002);
    streams(&spec, config.power_state.active_cores(), config.seed)
}

#[test]
fn traced_steps_of_a_rerun_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("mot3d-trace-no-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let choices = [
        InterconnectChoice::Mot,
        InterconnectChoice::Noc(NocTopologyKind::Mesh3d),
    ];
    for (i, interconnect) in choices.into_iter().enumerate() {
        let config = SimConfig::date16().with_interconnect(interconnect);
        let mut cluster = Cluster::new(config, streams_for(&config)).unwrap();
        cluster.run_to_completion().unwrap();
        cluster.retarget(config, streams_for(&config)).unwrap();

        let mut obs = TraceObserver::create(dir.join(format!("{i}.trace.json"))).unwrap();
        let (mut steps, mut allocations) = (0u64, 0u64);
        while !cluster.is_done() {
            let before = ALLOCATIONS.with(Cell::get);
            cluster.step_with(&mut obs);
            if steps > 0 {
                allocations += ALLOCATIONS.with(Cell::get) - before;
            }
            steps += 1;
        }
        let summary = obs.finish().unwrap();
        assert!(steps > 1_000 && summary.events > 0, "{interconnect}");
        assert_eq!(allocations, 0, "{interconnect}: traced steps allocated");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
