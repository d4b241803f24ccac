//! Declarative experiment plans.
//!
//! The paper's evaluation is one family of sweeps over the same axes —
//! interconnect × power state × DRAM option × page policy × workload —
//! and this module makes that grid first-class data instead of a set of
//! hardcoded per-figure functions. An [`ExperimentPlan`] names a value
//! list per axis plus a length scale and repeat count; [`points`]
//! expands it to an ordered list of typed [`RunPoint`]s;
//! [`ExperimentPlan::run_with`] executes the points on the existing
//! worker-thread pool (each worker re-targeting its one cluster, see
//! [`mot3d_sim::runner::ClusterPool`]) and streams one typed
//! [`RunRecord`] per finished point — in deterministic expansion order,
//! whatever the thread count — through any number of
//! [`RecordSink`]s.
//!
//! The canned constructors ([`ExperimentPlan::fig6`],
//! [`ExperimentPlan::fig7`], …) reproduce the paper's figures: their
//! expansion order matches the legacy per-figure sweep loops cell for
//! cell, so the assembled tables are byte-identical (enforced by
//! `tests/plan_equivalence.rs`).
//!
//! [`points`]: ExperimentPlan::points
//!
//! # Examples
//!
//! ```
//! use mot3d_bench::plan::ExperimentPlan;
//! use mot3d_bench::ExperimentScale;
//! use mot3d_workloads::SplashBenchmark;
//!
//! // fft under both DRAM page policies, two tiny runs in total.
//! let records = ExperimentPlan::new("demo")
//!     .splash([SplashBenchmark::Fft])
//!     .page_policies([false, true])
//!     .scale(ExperimentScale::tiny())
//!     .threads(1)
//!     .run()?;
//! assert_eq!(records.len(), 2);
//! assert!(records[0].metrics.cycles > 0);
//! assert!(records[1].point.config.dram_open_page);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::experiments::ExperimentScale;
use crate::pool;
use crate::sink::{PlanMeta, RecordSink};
use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_sim::{run_spec, InterconnectChoice, Metrics, SimConfig};
use mot3d_trace::TraceError;
use mot3d_workloads::{SplashBenchmark, WorkloadSource, WorkloadSpec};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The most runs one plan may expand to. The whole paper grid is under
/// 1 000; the bound stops one request line from asking
/// [`ExperimentPlan::points`] for more memory than the machine has.
pub const MAX_PLAN_POINTS: usize = 200_000;

/// One fully-resolved cell of a plan's sweep grid: the concrete workload
/// spec and simulator configuration of a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPoint {
    /// Position in the plan's expansion order (also the record order
    /// every sink observes).
    pub index: usize,
    /// Workload display name (from [`WorkloadSource::source_name`]).
    pub workload: String,
    /// The resolved, already-scaled workload spec.
    pub spec: WorkloadSpec,
    /// The full simulator configuration of this run.
    pub config: SimConfig,
    /// Repeat number, `0..repeats` (each repeat reseeds the streams).
    pub repeat: u32,
}

impl RunPoint {
    /// Human-readable cell label for progress lines.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{} @ {} @ {} @ {}",
            self.workload, self.config.interconnect, self.config.power_state, self.config.dram
        );
        if self.config.dram_open_page {
            s.push_str(" @ open-page");
        }
        if self.repeat > 0 {
            s.push_str(&format!(" #{}", self.repeat));
        }
        s
    }
}

/// Metrics-derived scalars every sink row carries, precomputed so sinks
/// stay formatting-only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    /// Energy-delay product in J·s (the paper's Fig. 7/8 metric).
    pub edp_js: f64,
    /// Mean round-trip L2 access latency in cycles (Fig. 6(a)).
    pub l2_latency_mean: f64,
    /// Instructions per cycle over the run.
    pub ipc: f64,
    /// Total cluster energy in J.
    pub energy_j: f64,
}

/// One finished run: the point that was executed, the full metrics, and
/// the derived scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The grid cell this record answers.
    pub point: RunPoint,
    /// The simulator's full metrics for the run.
    pub metrics: Metrics,
    /// Precomputed derived scalars (EDP, mean L2 latency, IPC, energy).
    pub derived: Derived,
}

impl RunRecord {
    /// Builds a record from a finished run, computing the derived
    /// scalars.
    pub fn new(point: RunPoint, metrics: Metrics) -> Self {
        let derived = Derived {
            edp_js: metrics.edp().value(),
            l2_latency_mean: metrics.l2_latency.mean(),
            ipc: metrics.ipc(),
            energy_j: metrics.energy.cluster().value(),
        };
        RunRecord {
            point,
            metrics,
            derived,
        }
    }
}

/// A declarative sweep: value lists for every experiment axis, expanded
/// to [`RunPoint`]s and executed on the worker pool. See the
/// [module docs](self) for the full picture and an example.
///
/// Expansion order nests the axes workload-outermost:
/// `workload → interconnect → power state → DRAM → page policy → repeat`.
/// The canned figure constructors rely on this order matching the legacy
/// sweep loops.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    name: String,
    workloads: Vec<Arc<dyn WorkloadSource>>,
    interconnects: Vec<InterconnectChoice>,
    power_states: Vec<PowerState>,
    drams: Vec<DramKind>,
    page_policies: Vec<bool>,
    scale: ExperimentScale,
    repeats: u32,
    threads: Option<usize>,
}

impl ExperimentPlan {
    /// A plan named `name` with the paper's defaults on every axis: all
    /// eight SPLASH workloads, the 3-D MoT, Full connection, 200 ns
    /// DRAM, flat page policy, default scale, one repeat.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentPlan {
            name: name.into(),
            workloads: SplashBenchmark::all()
                .into_iter()
                .map(|b| Arc::new(b) as Arc<dyn WorkloadSource>)
                .collect(),
            interconnects: vec![InterconnectChoice::Mot],
            power_states: vec![PowerState::full()],
            drams: vec![DramKind::OffChipDdr3],
            page_policies: vec![false],
            scale: ExperimentScale::default(),
            repeats: 1,
            threads: None,
        }
    }

    /// The plan's name (used by sinks and perf records).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the workload axis with arbitrary [`WorkloadSource`]s
    /// (synthetic specs today, trace-driven backends tomorrow).
    pub fn workloads(mut self, sources: impl IntoIterator<Item = Arc<dyn WorkloadSource>>) -> Self {
        self.workloads = sources.into_iter().collect();
        self
    }

    /// Replaces the workload axis with SPLASH presets.
    pub fn splash(self, benches: impl IntoIterator<Item = SplashBenchmark>) -> Self {
        self.workloads(
            benches
                .into_iter()
                .map(|b| Arc::new(b) as Arc<dyn WorkloadSource>),
        )
    }

    /// Replaces the interconnect axis.
    pub fn interconnects(mut self, ics: impl IntoIterator<Item = InterconnectChoice>) -> Self {
        self.interconnects = ics.into_iter().collect();
        self
    }

    /// Replaces the power-state axis.
    pub fn power_states(mut self, states: impl IntoIterator<Item = PowerState>) -> Self {
        self.power_states = states.into_iter().collect();
        self
    }

    /// Replaces the DRAM-option axis.
    pub fn drams(mut self, drams: impl IntoIterator<Item = DramKind>) -> Self {
        self.drams = drams.into_iter().collect();
        self
    }

    /// Replaces the page-policy axis (`false` = the paper's flat
    /// latency, `true` = the 4 KB open-page refinement).
    pub fn page_policies(mut self, policies: impl IntoIterator<Item = bool>) -> Self {
        self.page_policies = policies.into_iter().collect();
        self
    }

    /// Sets the run-length scale and base seed.
    pub fn scale(mut self, scale: ExperimentScale) -> Self {
        self.scale = scale;
        self
    }

    /// Runs every grid cell `repeats` times; repeat `r` offsets the
    /// workload seed by `r`, so repeats sample genuinely different
    /// streams (repeat 0 is always the canonical seed).
    pub fn repeats(mut self, repeats: u32) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Pins the worker-thread count (default:
    /// [`pool::worker_threads`], the available parallelism). Results
    /// are bit-identical for every choice.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Number of runs the plan expands to, saturating at `usize::MAX`.
    pub fn len(&self) -> usize {
        [
            self.interconnects.len(),
            self.power_states.len(),
            self.drams.len(),
            self.page_policies.len(),
            self.repeats as usize,
        ]
        .into_iter()
        .fold(self.workloads.len(), usize::saturating_mul)
    }

    /// Whether the plan expands to no runs (an axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the plan for combinations the simulator rejects: the
    /// packet-switched NoC baselines only model the Full power state.
    /// Also rejects a plan of zero runs or of more than
    /// [`MAX_PLAN_POINTS`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid
    /// combination.
    pub fn check(&self) -> Result<(), String> {
        let gated = self.power_states.iter().find(|s| **s != PowerState::full());
        let noc = self
            .interconnects
            .iter()
            .find(|ic| matches!(ic, InterconnectChoice::Noc(_)));
        if let (Some(state), Some(ic)) = (gated, noc) {
            return Err(format!(
                "{ic} only models the Full power state (plan also sweeps {state}); \
                 sweep gated states on the 3-D MoT only"
            ));
        }
        if self.is_empty() {
            return Err("plan expands to zero runs (an axis list is empty)".to_string());
        }
        if self.len() > MAX_PLAN_POINTS {
            return Err(format!(
                "plan expands to more than {MAX_PLAN_POINTS} runs ({})",
                self.len()
            ));
        }
        Ok(())
    }

    /// Expands the plan to its ordered run points (workload-outermost
    /// axis nesting; see the type docs).
    pub fn points(&self) -> Vec<RunPoint> {
        let mut points = Vec::with_capacity(self.len());
        for source in &self.workloads {
            let workload = source.source_name();
            let spec = source.resolve(self.scale.scale);
            for &interconnect in &self.interconnects {
                for &power_state in &self.power_states {
                    for &dram in &self.drams {
                        for &open_page in &self.page_policies {
                            for repeat in 0..self.repeats {
                                let mut config = SimConfig::date16()
                                    .with_interconnect(interconnect)
                                    .with_power_state(power_state)
                                    .with_dram(dram)
                                    .with_open_page(open_page);
                                config.seed = self.scale.seed.wrapping_add(u64::from(repeat));
                                points.push(RunPoint {
                                    index: points.len(),
                                    workload: workload.clone(),
                                    spec,
                                    config,
                                    repeat,
                                });
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// [`ExperimentPlan::run_with`] without sinks or progress reporting.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the plan fails
    /// [`ExperimentPlan::check`]; there are no sinks to fail.
    pub fn run(&self) -> io::Result<Vec<RunRecord>> {
        self.run_with(&mut [], |_, _, _| {})
    }

    /// Executes the plan: shards the points across worker threads,
    /// calls `progress(done, total, label)` as each run finishes (in
    /// completion order, possibly concurrently), and streams the
    /// [`RunRecord`]s through every sink **in expansion order** — record
    /// `i` is emitted as soon as all records `≤ i` have completed, so
    /// sinks observe a deterministic stream at any thread count.
    ///
    /// Returns all records in expansion order. Each worker thread runs
    /// its points on one re-targetable cluster
    /// ([`mot3d_sim::runner::ClusterPool`]), so memory does not grow
    /// with the grid; worker threads are scoped to the call and take
    /// their cluster with them.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the plan fails
    /// [`ExperimentPlan::check`] (caught before spending any simulation
    /// time), or the first sink I/O error (remaining runs still
    /// complete, but no further records are written).
    ///
    /// # Panics
    ///
    /// Panics if the simulator rejects a point for a reason
    /// [`ExperimentPlan::check`] cannot see (none are known today).
    pub fn run_with(
        &self,
        sinks: &mut [&mut dyn RecordSink],
        progress: impl Fn(usize, usize, &str) + Sync,
    ) -> io::Result<Vec<RunRecord>> {
        self.drive(self.threads, sinks, progress, |p| {
            Ok(run_spec(&p.spec, &p.config).unwrap_or_else(|e| panic!("{}: {e}", p.label())))
        })
    }

    /// [`ExperimentPlan::run_with`] with a tracer attached to every
    /// point: writes one Perfetto-loadable trace file per [`RunPoint`]
    /// into `trace_dir` (created if needed), named by
    /// [`mot3d_trace::trace_file_name`] of the point's label. Records
    /// stream through the sinks in expansion order exactly as the
    /// untraced path does — and because tracing is observation-only,
    /// they are bit-identical to the untraced run's (pinned by
    /// `tests/trace_equivalence.rs`). Points run on one worker: a deep
    /// dive trades throughput for trace files that appear in expansion
    /// order, one at a time.
    ///
    /// Returns the records plus the trace file path of each point, in
    /// expansion order.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the plan fails
    /// [`ExperimentPlan::check`], or the first trace/sink I/O error
    /// (as [`ExperimentPlan::run_with`]: no further records are written).
    ///
    /// # Panics
    ///
    /// Panics if the simulator rejects a point (as
    /// [`ExperimentPlan::run_with`] does); the partial trace of the
    /// failing point is sealed and kept for diagnosis.
    pub fn run_traced_with(
        &self,
        trace_dir: &Path,
        sinks: &mut [&mut dyn RecordSink],
        progress: impl Fn(usize, usize, &str) + Sync,
    ) -> io::Result<Vec<(RunRecord, PathBuf)>> {
        std::fs::create_dir_all(trace_dir)?;
        let path_of = |p: &RunPoint| trace_dir.join(mot3d_trace::trace_file_name(&p.label()));
        let records = self.drive(Some(1), sinks, progress, |p| {
            let traced = mot3d_trace::trace_spec(&p.spec, &p.config, path_of(p));
            match traced {
                Ok((metrics, _summary)) => Ok(metrics),
                Err(TraceError::Io(e)) => Err(e),
                Err(TraceError::Sim(e)) => panic!("{}: {e}", p.label()),
            }
        })?;
        Ok(records
            .into_iter()
            .map(|record| {
                let path = path_of(&record.point);
                (record, path)
            })
            .collect())
    }

    /// The one driver behind [`ExperimentPlan::run_with`] and
    /// [`ExperimentPlan::run_traced_with`]: check, expand, `begin` every
    /// sink, run each point through `run_point` on `threads` workers
    /// (default: [`pool::worker_threads`]), stream the records through
    /// the sinks in expansion order, `finish`.
    fn drive(
        &self,
        threads: Option<usize>,
        sinks: &mut [&mut dyn RecordSink],
        progress: impl Fn(usize, usize, &str) + Sync,
        run_point: impl Fn(&RunPoint) -> io::Result<Metrics> + Sync,
    ) -> io::Result<Vec<RunRecord>> {
        if let Err(msg) = self.check() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let points = self.points();
        let total = points.len();
        let meta = PlanMeta {
            plan: &self.name,
            points: total,
            scale: self.scale.scale,
            seed: self.scale.seed,
        };
        for sink in sinks.iter_mut() {
            sink.begin(&meta)?;
        }
        let threads = threads.unwrap_or_else(|| pool::worker_threads(total));
        let done = AtomicUsize::new(0);
        let emitter = Mutex::new(Emitter {
            next: 0,
            pending: BTreeMap::new(),
            sinks,
            err: None,
        });
        let records = pool::parallel_map_streamed_on(
            threads,
            total,
            |i| run_point(&points[i]).map(|metrics| RunRecord::new(points[i].clone(), metrics)),
            |i, record| {
                // A point that failed is never emitted, so the sinks
                // stop at the record before it.
                let Ok(record) = record else { return };
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(k, total, &points[i].label());
                emitter
                    .lock()
                    .expect("emitter lock not poisoned")
                    .push(i, record.clone());
            },
        );
        let mut emitter = emitter.into_inner().expect("emitter lock not poisoned");
        if let Some(err) = emitter.err.take() {
            return Err(err);
        }
        let records = records.into_iter().collect::<io::Result<Vec<_>>>()?;
        for sink in emitter.sinks.iter_mut() {
            sink.finish()?;
        }
        Ok(records)
    }
}

/// Reorders completion-order records back into expansion order and
/// feeds the contiguous prefix to the sinks as it grows.
struct Emitter<'a, 'b> {
    next: usize,
    pending: BTreeMap<usize, RunRecord>,
    sinks: &'a mut [&'b mut dyn RecordSink],
    err: Option<io::Error>,
}

impl Emitter<'_, '_> {
    fn push(&mut self, index: usize, record: RunRecord) {
        self.pending.insert(index, record);
        while let Some(record) = self.pending.remove(&self.next) {
            self.next += 1;
            if self.err.is_some() {
                continue; // keep draining, stop writing
            }
            for sink in self.sinks.iter_mut() {
                if let Err(e) = sink.record(&record) {
                    self.err = Some(e);
                    break;
                }
            }
        }
    }
}

// ------------------------------------------------- canned constructors

/// Short DRAM tag used in canned plan / perf sweep names.
pub fn dram_tag(dram: DramKind) -> &'static str {
    match dram {
        DramKind::OffChipDdr3 => "200ns",
        DramKind::WideIo => "63ns",
        DramKind::Weis3d => "42ns",
    }
}

impl ExperimentPlan {
    /// Fig. 6: all benchmarks × the four interconnects (Full state,
    /// 200 ns DRAM).
    pub fn fig6(scale: ExperimentScale) -> Self {
        ExperimentPlan::new("fig6")
            .interconnects(crate::experiments::fig6_interconnects())
            .scale(scale)
    }

    /// Fig. 7-shape sweep: all benchmarks × the four power states at
    /// one DRAM option (Fig. 7 proper uses 200 ns; Fig. 8 reuses the
    /// shape at 63/42 ns — see [`ExperimentPlan::fig8_at`]).
    pub fn fig7_at(scale: ExperimentScale, dram: DramKind) -> Self {
        ExperimentPlan::new(format!("fig7@{}", dram_tag(dram)))
            .power_states(PowerState::date16_states())
            .drams([dram])
            .scale(scale)
    }

    /// Fig. 7 proper (200 ns DRAM).
    pub fn fig7(scale: ExperimentScale) -> Self {
        ExperimentPlan::fig7_at(scale, DramKind::OffChipDdr3)
    }

    /// One half of Fig. 8: the power-state sweep at an on-chip DRAM
    /// latency (63 ns Wide I/O or 42 ns Weis 3-D).
    pub fn fig8_at(scale: ExperimentScale, dram: DramKind) -> Self {
        ExperimentPlan::fig7_at(scale, dram).named(format!("fig8@{}", dram_tag(dram)))
    }

    /// Open-page DRAM study: all benchmarks under flat vs open-page
    /// timing at one DRAM option (Full connection).
    pub fn open_page_at(scale: ExperimentScale, dram: DramKind) -> Self {
        ExperimentPlan::new(format!("open_page@{}", dram_tag(dram)))
            .drams([dram])
            .page_policies([false, true])
            .scale(scale)
    }

    /// Ablation 1's full power-of-two power-state grid for one program
    /// (PC{16,8,4} × MB{32,16,8}, 200 ns DRAM).
    pub fn ablation_grid(scale: ExperimentScale, bench: SplashBenchmark) -> Self {
        let states = [16usize, 8, 4].iter().flat_map(|&cores| {
            [32usize, 16, 8].map(|banks| {
                PowerState::new(cores, banks).expect("powers of two within the cluster")
            })
        });
        ExperimentPlan::new(format!("ablation@{bench}"))
            .splash([bench])
            .power_states(states)
            .scale(scale)
    }

    /// Renames the plan (canned variants reuse a base constructor).
    fn named(mut self, name: String) -> Self {
        self.name = name;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_noc::NocTopologyKind;

    #[test]
    fn expansion_is_workload_outermost_and_indexed() {
        let plan = ExperimentPlan::new("t")
            .splash([SplashBenchmark::Fft, SplashBenchmark::Radix])
            .page_policies([false, true])
            .scale(ExperimentScale::tiny());
        let pts = plan.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(plan.len(), 4);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(pts[0].workload, "fft");
        assert!(!pts[0].config.dram_open_page);
        assert!(pts[1].config.dram_open_page);
        assert_eq!(pts[2].workload, "radix");
    }

    #[test]
    fn fig6_plan_matches_legacy_cell_order() {
        let plan = ExperimentPlan::fig6(ExperimentScale::tiny());
        let pts = plan.points();
        let ics = crate::experiments::fig6_interconnects();
        let benches = SplashBenchmark::all();
        assert_eq!(pts.len(), benches.len() * ics.len());
        for (j, p) in pts.iter().enumerate() {
            assert_eq!(p.workload, benches[j / ics.len()].to_string());
            assert_eq!(p.config.interconnect, ics[j % ics.len()]);
            assert_eq!(p.config.seed, ExperimentScale::tiny().seed);
            assert_eq!(
                p.spec,
                benches[j / ics.len()]
                    .spec()
                    .scaled(ExperimentScale::tiny().scale)
            );
        }
    }

    #[test]
    fn fig7_plan_matches_legacy_cell_order() {
        let plan = ExperimentPlan::fig7_at(ExperimentScale::tiny(), DramKind::Weis3d);
        assert_eq!(plan.name(), "fig7@42ns");
        let pts = plan.points();
        let states = PowerState::date16_states();
        for (j, p) in pts.iter().enumerate() {
            assert_eq!(p.config.power_state, states[j % states.len()]);
            assert_eq!(p.config.dram, DramKind::Weis3d);
            assert_eq!(p.config.interconnect, InterconnectChoice::Mot);
        }
    }

    #[test]
    fn repeats_reseed_the_streams() {
        let plan = ExperimentPlan::new("t")
            .splash([SplashBenchmark::Fmm])
            .repeats(3)
            .scale(ExperimentScale::tiny());
        let pts = plan.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].config.seed, ExperimentScale::tiny().seed);
        assert_eq!(pts[2].config.seed, ExperimentScale::tiny().seed + 2);
        assert_eq!(pts[2].repeat, 2);
    }

    #[test]
    fn check_rejects_noc_under_gated_states_and_empty_axes() {
        let bad = ExperimentPlan::new("t")
            .interconnects([InterconnectChoice::Noc(NocTopologyKind::Mesh3d)])
            .power_states([PowerState::full(), PowerState::pc4_mb8()]);
        assert!(bad.check().is_err());
        let run_err = bad.run().expect_err("run must fail check() up front");
        assert_eq!(run_err.kind(), std::io::ErrorKind::InvalidInput);
        let empty = ExperimentPlan::new("t").splash([]);
        assert!(empty.check().is_err());
        assert!(empty.run().is_err());
        assert!(empty.is_empty());
        assert!(ExperimentPlan::fig6(ExperimentScale::tiny())
            .check()
            .is_ok());
        assert!(ExperimentPlan::fig7(ExperimentScale::tiny())
            .check()
            .is_ok());
    }

    #[test]
    fn check_rejects_plans_past_the_point_bound() {
        let bomb = ExperimentPlan::new("t").repeats(u32::MAX);
        assert!(bomb.len() > MAX_PLAN_POINTS);
        assert!(bomb.check().is_err());
        assert!(bomb.run().is_err(), "rejected before points() allocates");
        // An axis product past usize saturates instead of wrapping.
        let wide = ExperimentPlan::new("t")
            .splash(SplashBenchmark::all().into_iter().cycle().take(256))
            .interconnects(vec![InterconnectChoice::Mot; 256])
            .power_states(vec![PowerState::full(); 256])
            .drams(vec![DramKind::OffChipDdr3; 256])
            .page_policies([false, true])
            .repeats(u32::MAX);
        assert_eq!(wide.len(), usize::MAX);
        assert!(wide.check().is_err());
        let edge = ExperimentPlan::new("t")
            .splash([SplashBenchmark::Fft])
            .repeats(MAX_PLAN_POINTS as u32);
        assert!(edge.check().is_ok());
    }

    #[test]
    fn ablation_grid_pins_the_legacy_seed_unless_seeded() {
        // One constructor, seeded by its scale like every canned plan:
        // the legacy pin is a seed the caller passes (`mot3d ablation`
        // without `--seed` does).
        let tiny = ExperimentScale::tiny();
        let legacy_seed = SimConfig::date16().seed;
        let pinned = ExperimentScale {
            seed: legacy_seed,
            ..tiny
        };
        let legacy = ExperimentPlan::ablation_grid(pinned, SplashBenchmark::Fft).points();
        assert_eq!(legacy[0].config.seed, legacy_seed);
        let seeded = ExperimentPlan::ablation_grid(tiny, SplashBenchmark::Fft).points();
        assert_eq!(seeded[0].config.seed, tiny.seed);
        assert_eq!(seeded.len(), legacy.len());
    }

    #[test]
    fn labels_name_every_varying_axis() {
        let p = ExperimentPlan::open_page_at(ExperimentScale::tiny(), DramKind::OffChipDdr3)
            .points()
            .remove(1);
        let label = p.label();
        assert!(label.contains("cholesky"), "{label}");
        assert!(label.contains("open-page"), "{label}");
    }

    #[test]
    fn run_returns_records_in_expansion_order() {
        let plan = ExperimentPlan::new("t")
            .splash([SplashBenchmark::Fft, SplashBenchmark::Volrend])
            .scale(ExperimentScale::tiny())
            .threads(2);
        let records = plan.run().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].point.workload, "fft");
        assert_eq!(records[1].point.workload, "volrend");
        for r in &records {
            assert!(r.metrics.cycles > 0);
            assert!(r.derived.edp_js > 0.0);
            assert!(r.derived.ipc > 0.0);
        }
    }
}
