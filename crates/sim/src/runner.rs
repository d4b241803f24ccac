//! One-call experiment driver: (program, configuration) → [`Metrics`].
//!
//! The paper's evaluation is a design-space grid — interconnects × power
//! states × DRAM options × programs — of many short runs, and building a
//! [`Cluster`] for each would allocate and zero 16 L1s and 32 L2 banks
//! (2.3 MB) per point. No [`SimConfig`] field changes the geometry of
//! those arrays, so one cluster can serve every point:
//! [`Cluster::retarget`] brings it to the next configuration,
//! bit-identically to a new build, for the price of what the last run
//! touched. [`ClusterPool`] is that one cluster, and [`run_spec`] keeps
//! one per thread, so every caller — including each worker thread of
//! `mot3d-bench`'s parallel harness and of `mot3d serve` — runs a whole
//! grid in one cluster's worth of memory while staying bit-deterministic.

use crate::cluster::Cluster;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observe::{NullObserver, Observer};
use mot3d_workloads::{streams, SplashBenchmark, WorkloadSpec};
use std::cell::RefCell;

/// One reusable cluster: built by the first run, re-targeted
/// ([`Cluster::retarget`]) by every later one, whatever its
/// configuration.
///
/// Memory is one cluster (2.3 MB of cache arrays plus whatever its
/// queues and line maps grew to) however many configurations the pool
/// runs, so there is nothing to bound and nothing to tune; [`clear`]
/// gives that back too. Results never depend on what ran before: a
/// re-targeted cluster is bit-identical to a freshly built one (pinned by
/// `tests/retarget_equivalence.rs`).
///
/// [`clear`]: ClusterPool::clear
///
/// # Examples
///
/// ```
/// use mot3d_mot::PowerState;
/// use mot3d_sim::runner::ClusterPool;
/// use mot3d_sim::SimConfig;
/// use mot3d_workloads::SplashBenchmark;
///
/// let mut pool = ClusterPool::new();
/// let spec = SplashBenchmark::Fft.spec().scaled(0.002);
/// let full = SimConfig::date16();
/// let gated = full.with_power_state(PowerState::pc4_mb8());
/// let a = pool.run_spec(&spec, &full)?;
/// // The same cluster, re-targeted to 4 cores and 8 banks and back:
/// pool.run_spec(&spec, &gated)?;
/// let b = pool.run_spec(&spec, &full)?;
/// assert_eq!(a, b);
///
/// pool.clear();
/// assert!(pool.is_empty());
/// # Ok::<(), mot3d_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct ClusterPool {
    cluster: Option<Cluster>,
}

impl ClusterPool {
    /// A pool that builds its cluster on the first run.
    pub fn new() -> Self {
        ClusterPool::default()
    }

    /// Whether the pool holds no cluster (none built yet, or cleared).
    pub fn is_empty(&self) -> bool {
        self.cluster.is_none()
    }

    /// Drops the cluster (frees its cache arrays); the next run builds
    /// one again.
    pub fn clear(&mut self) {
        self.cluster = None;
    }

    /// Runs a workload spec on a cluster configuration to completion, on
    /// the pool's cluster re-targeted to `config` (built, on the first
    /// run).
    ///
    /// # Errors
    ///
    /// As [`ClusterPool::run_spec_with`].
    pub fn run_spec(
        &mut self,
        spec: &WorkloadSpec,
        config: &SimConfig,
    ) -> Result<Metrics, SimError> {
        self.run_spec_with(spec, config, &mut NullObserver)
    }

    /// [`ClusterPool::run_spec`] with an [`Observer`] attached to the
    /// run loop: the one body every run goes through. A
    /// [`NullObserver`] monomorphizes away.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from construction, re-targeting, or
    /// the run. The cluster survives an error: re-targeting checks before
    /// it changes anything and recovers from an aborted run.
    pub fn run_spec_with<O: Observer>(
        &mut self,
        spec: &WorkloadSpec,
        config: &SimConfig,
        obs: &mut O,
    ) -> Result<Metrics, SimError> {
        let fresh = streams(spec, config.power_state.active_cores(), config.seed);
        let cluster = match &mut self.cluster {
            Some(cluster) => {
                cluster.retarget(*config, fresh)?;
                cluster
            }
            None => self.cluster.insert(Cluster::new(*config, fresh)?),
        };
        cluster.run_to_completion_with(obs)?;
        cluster.verify_against_golden();
        Ok(cluster.metrics(format!(
            "{} @ {} @ {} @ {}",
            spec.name, config.interconnect, config.power_state, config.dram
        )))
    }
}

thread_local! {
    static POOL: RefCell<ClusterPool> = RefCell::new(ClusterPool::new());
}

/// Runs a workload spec on a cluster configuration to completion.
///
/// Runs on the calling thread's [`ClusterPool`]: the first call builds a
/// cluster, every later one re-targets it. Results are bit-identical to
/// a fresh build either way.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or the run.
///
/// # Examples
///
/// ```
/// use mot3d_sim::{run_spec, SimConfig};
/// use mot3d_workloads::SplashBenchmark;
///
/// let spec = SplashBenchmark::Fft.spec().scaled(0.002); // tiny run
/// let m = run_spec(&spec, &SimConfig::date16())?;
/// assert!(m.cycles > 0);
/// assert!(m.ipc() > 0.0);
/// # Ok::<(), mot3d_sim::SimError>(())
/// ```
pub fn run_spec(spec: &WorkloadSpec, config: &SimConfig) -> Result<Metrics, SimError> {
    POOL.with(|pool| pool.borrow_mut().run_spec(spec, config))
}

/// [`run_spec`] with an [`Observer`] attached to the run loop — the
/// entry point `mot3d_trace` (and any other instrumentation) uses.
///
/// Runs on the calling thread's [`ClusterPool`] like every other run: a
/// re-targeted cluster is bit-identical to a new one in everything an
/// observer can probe, so the timeline does not depend on what the
/// thread ran before (pinned by `mot3d_trace`'s differential suite,
/// which compares trace files byte for byte).
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or the run.
pub fn run_spec_observed<O: Observer>(
    spec: &WorkloadSpec,
    config: &SimConfig,
    obs: &mut O,
) -> Result<Metrics, SimError> {
    POOL.with(|pool| pool.borrow_mut().run_spec_with(spec, config, obs))
}

/// `shrink_local_pool(0)` drops the calling thread's [`run_spec`]
/// cluster ([`ClusterPool::clear`]), so that the next run builds one
/// again; any `n ≥ 1` does nothing, the pool never holding more than
/// one.
///
/// The `n` is vestigial — it bounded the per-configuration cache this
/// pool used to be. It stays while `benchmark/` (which calls
/// `shrink_local_pool(0)` to force a rebuild, and may not change with
/// the code it measures) links it.
pub fn shrink_local_pool(n: usize) {
    if n == 0 {
        POOL.with(|pool| pool.borrow_mut().clear());
    }
}

/// Runs one of the eight SPLASH-2-style programs at a given length scale
/// (1.0 = the default experiment length; tests use ≤ 0.01).
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_benchmark(
    bench: SplashBenchmark,
    scale: f64,
    config: &SimConfig,
) -> Result<Metrics, SimError> {
    run_spec(&bench.spec().scaled(scale), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterconnectChoice;
    use mot3d_mot::PowerState;
    use mot3d_noc::NocTopologyKind;

    fn tiny() -> WorkloadSpec {
        SplashBenchmark::Fmm.spec().scaled(0.002)
    }

    #[test]
    fn shrink_local_pool_zero_drops_the_cluster_without_changing_results() {
        let spec = tiny();
        let cfg = SimConfig::date16().with_power_state(PowerState::pc16_mb8());
        let before = run_spec(&spec, &cfg).unwrap();
        assert!(!POOL.with(|pool| pool.borrow().is_empty()));
        // Any bound of one or more is already met.
        shrink_local_pool(1);
        assert!(!POOL.with(|pool| pool.borrow().is_empty()));
        shrink_local_pool(0);
        assert!(POOL.with(|pool| pool.borrow().is_empty()));
        // The rebuilt cluster gives the same answer, and is kept again.
        assert_eq!(run_spec(&spec, &cfg).unwrap(), before);
        assert!(!POOL.with(|pool| pool.borrow().is_empty()));
    }

    /// The pool is capped at one cluster by construction; "uncapped" is
    /// a cluster of its own for every run.
    #[test]
    fn capped_runs_are_bit_identical_to_uncapped() {
        let spec = tiny();
        let configs = [
            SimConfig::date16(),
            SimConfig::date16().with_power_state(PowerState::pc16_mb8()),
            SimConfig::date16().with_dram(mot3d_mem::dram::DramKind::Weis3d),
            SimConfig::date16().with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d)),
            SimConfig::date16(),
        ];
        let mut capped = ClusterPool::new();
        for c in &configs {
            let a = ClusterPool::new().run_spec(&spec, c).unwrap();
            let b = capped.run_spec(&spec, c).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mot_run_completes_and_counts() {
        let m = run_spec(&tiny(), &SimConfig::date16()).unwrap();
        assert!(m.cycles > 0);
        assert!(m.instructions > 0);
        assert!(m.l1_hits + m.l1_misses > 0);
        assert!(m.l2_latency.count() > 0, "some L1 misses must reach L2");
        assert!(m.energy.cluster().value() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_spec(&tiny(), &SimConfig::date16()).unwrap();
        let b = run_spec(&tiny(), &SimConfig::date16()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.l2_hits, b.l2_hits);
        assert_eq!(a.dram_accesses, b.dram_accesses);
    }

    #[test]
    fn golden_check_passes_on_mot() {
        let mut cfg = SimConfig::date16();
        cfg.check_golden = true;
        let m = run_spec(&tiny(), &cfg).unwrap();
        assert!(m.cycles > 0);
    }

    #[test]
    fn golden_check_passes_on_every_noc() {
        for kind in NocTopologyKind::all() {
            let mut cfg = SimConfig::date16().with_interconnect(InterconnectChoice::Noc(kind));
            cfg.check_golden = true;
            let m = run_spec(&tiny(), &cfg).unwrap();
            assert!(m.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn golden_check_passes_on_gated_states() {
        for state in [
            PowerState::pc16_mb8(),
            PowerState::pc4_mb32(),
            PowerState::pc4_mb8(),
        ] {
            let mut cfg = SimConfig::date16().with_power_state(state);
            cfg.check_golden = true;
            let m = run_spec(&tiny(), &cfg).unwrap();
            assert!(m.cycles > 0, "{state}");
        }
    }

    #[test]
    fn noc_rejects_gated_states() {
        let cfg = SimConfig::date16()
            .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d))
            .with_power_state(PowerState::pc16_mb8());
        assert!(matches!(
            run_spec(&tiny(), &cfg),
            Err(SimError::NocNeedsFullState(_))
        ));
    }

    #[test]
    fn mot_beats_the_mesh_on_l2_latency() {
        // Fig. 6(a) shape: circuit-switched MoT < packet-switched mesh.
        let spec = SplashBenchmark::Radix.spec().scaled(0.003);
        let mot = run_spec(&spec, &SimConfig::date16()).unwrap();
        let mesh = run_spec(
            &spec,
            &SimConfig::date16()
                .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d)),
        )
        .unwrap();
        assert!(
            mot.l2_latency.mean() < mesh.l2_latency.mean(),
            "MoT {} vs mesh {}",
            mot.l2_latency.mean(),
            mesh.l2_latency.mean()
        );
        assert!(mot.cycles < mesh.cycles, "and on execution time");
    }

    #[test]
    fn resident_workload_l2_latency_approaches_table1() {
        // A small, heavily-reused working set: after warm-up, nearly all
        // L1 misses hit in L2, so the mean round trip approaches the
        // derived 12-cycle Full-connection latency (plus light
        // arbitration contention and the cold-miss tail).
        let mut spec = SplashBenchmark::Fmm.spec().scaled(0.02);
        spec.working_set_bytes = 16 * 1024; // heavy reuse: cold misses only
        spec.locality = 0.5; // plenty of L1 misses, all L2-resident
        spec.hot_fraction = 0.0; // all traffic hits the small working set
        spec.mem_ratio = 0.3;
        let m = run_spec(&spec, &SimConfig::date16()).unwrap();
        assert!(
            m.l2_miss_ratio() < 0.3,
            "l2 miss ratio {}",
            m.l2_miss_ratio()
        );
        // Table I: 12-cycle round trips land in the [8, 16) bucket, which
        // must dominate (the mean still carries the cold-miss DRAM tail).
        let buckets = m.l2_latency.buckets();
        let modal = buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .unwrap()
            .0;
        assert_eq!(modal, 1, "modal L2 latency bucket {buckets:?}");
        assert!(m.l2_latency.mean() >= 12.0, "mean {}", m.l2_latency.mean());
    }

    #[test]
    fn faster_dram_shortens_runs() {
        let spec = SplashBenchmark::Radix.spec().scaled(0.002);
        let slow = run_spec(&spec, &SimConfig::date16()).unwrap();
        let fast = run_spec(
            &spec,
            &SimConfig::date16().with_dram(mot3d_mem::dram::DramKind::Weis3d),
        )
        .unwrap();
        assert!(fast.cycles < slow.cycles);
    }
}
