//! Declarative experiment plans.
//!
//! The paper's evaluation is one family of sweeps over the same axes —
//! interconnect × power state × DRAM option × page policy × workload —
//! and this module makes that grid first-class data instead of a set of
//! hardcoded per-figure functions. An [`ExperimentPlan`] names a value
//! list per axis plus a length scale and repeat count; [`points`]
//! expands it to an ordered list of typed [`RunPoint`]s;
//! [`ExperimentPlan::run_with`] runs every point as a worker point of
//! the one plan driver, [`pool::stream_to`] (each worker
//! re-targeting its one cluster, see
//! [`mot3d_sim::runner::ClusterPool`]), and streams one typed
//! [`RunRecord`] per finished point — in deterministic expansion order,
//! whatever the thread count — through any number of [`RecordSink`]s.
//! Records reach the sinks on the calling thread, and every sink is
//! [flushed](RecordSink::flush) whenever that thread is about to wait
//! for a simulation. With one worker, and
//! always under [`ExperimentPlan::run_traced_with`], the points run
//! inline on the calling thread and no thread is spawned. After a sink
//! error the remaining points still run, but no further record is
//! written and no sink is finished.
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

use crate::axes::dram_token;
use crate::experiments::ExperimentScale;
use crate::pool::{self, Claim};
use crate::sink::{PlanMeta, RecordSink};
use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_sim::{run_spec, InterconnectChoice, Metrics, SimConfig};
use mot3d_trace::TraceError;
use mot3d_workloads::{SplashBenchmark, WorkloadSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Workload display name ([`SplashBenchmark::name`]).
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

/// One finished run: the point that was executed and the full metrics
/// (whose methods give the EDP, mean L2 latency, IPC and energy every
/// sink row prints).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The grid cell this record answers.
    pub point: RunPoint,
    /// The simulator's full metrics for the run.
    pub metrics: Metrics,
}

impl RunRecord {
    /// Builds a record from a finished run.
    pub fn new(point: RunPoint, metrics: Metrics) -> Self {
        RunRecord { point, metrics }
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
    benches: Vec<SplashBenchmark>,
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
            benches: SplashBenchmark::all().to_vec(),
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

    /// Replaces the workload axis with SPLASH presets.
    pub fn splash(mut self, benches: impl IntoIterator<Item = SplashBenchmark>) -> Self {
        self.benches = benches.into_iter().collect();
        self
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
        .fold(self.benches.len(), usize::saturating_mul)
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
        for &bench in &self.benches {
            let workload = bench.name();
            let spec = bench.spec().scaled(self.scale.scale);
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
                                    workload: workload.to_string(),
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
    /// [`RunRecord`]s through every sink **in expansion order**, on the
    /// calling thread — record `i` is emitted as soon as all records
    /// `≤ i` have completed, so sinks observe a deterministic stream at
    /// any thread count.
    ///
    /// Returns all records in expansion order. Each worker thread runs
    /// its points on one re-targetable cluster
    /// ([`mot3d_sim::runner::ClusterPool`]), so memory does not grow
    /// with the grid; worker threads are scoped to the call and take
    /// their cluster with them. With one worker the points run on the
    /// calling thread, whose cluster outlives the call.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the plan fails
    /// [`ExperimentPlan::check`] (caught before spending any simulation
    /// time), or the first sink I/O error (remaining runs still
    /// complete and report progress, but no further records are written
    /// and no sink is finished).
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
        let threads = self
            .threads
            .unwrap_or_else(|| pool::worker_threads(self.len()));
        self.stream(threads, sinks, progress, |p| {
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
    /// `tests/trace_equivalence.rs`). Points run inline on the calling
    /// thread: a deep dive trades throughput for trace files that appear
    /// in expansion order, one at a time.
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
        let records = self.stream(1, sinks, progress, |p| {
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

    /// Check, expand, `begin` every sink, run every point through
    /// `run_point` as a worker point of [`pool::stream_to`] on `threads`
    /// workers, hand each record to the sinks at its turn on this
    /// thread and flush them whenever the driver is about to wait,
    /// `finish`. A point whose `run_point` fails is its record's error:
    /// the sinks stop at the record before it.
    fn stream(
        &self,
        threads: usize,
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
        let done = AtomicUsize::new(0);
        let mut out = Recording {
            sinks: &mut *sinks,
            records: Vec::with_capacity(total),
        };
        pool::stream_to(
            threads,
            &points,
            |_| (Claim::Worker, ()),
            |p, ()| {
                let metrics = run_point(p)?;
                progress(done.fetch_add(1, Ordering::Relaxed) + 1, total, &p.label());
                io::Result::Ok(metrics)
            },
            &mut out,
        )?;
        let records = out.records;
        for sink in sinks.iter_mut() {
            sink.finish()?;
        }
        Ok(records)
    }
}

/// [`ExperimentPlan`]'s emitter: each record goes through every sink
/// and is kept; the idle hook flushes every sink.
struct Recording<'a, 'b> {
    sinks: &'a mut [&'b mut dyn RecordSink],
    records: Vec<RunRecord>,
}

impl pool::Emit<RunPoint, (), io::Result<Metrics>> for Recording<'_, '_> {
    type Error = io::Error;

    fn emit(
        &mut self,
        p: &RunPoint,
        (): &(),
        metrics: Option<io::Result<Metrics>>,
    ) -> io::Result<()> {
        let record = RunRecord::new(p.clone(), metrics.expect("a worker point's result")?);
        for sink in self.sinks.iter_mut() {
            sink.record(&record)?;
        }
        self.records.push(record);
        Ok(())
    }

    fn idle(&mut self) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|sink| sink.flush())
    }
}

// ------------------------------------------------- canned constructors

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
        ExperimentPlan::new(format!("fig7@{}", dram_token(dram)))
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
        ExperimentPlan::fig7_at(scale, dram).named(format!("fig8@{}", dram_token(dram)))
    }

    /// Open-page DRAM study: all benchmarks under flat vs open-page
    /// timing at one DRAM option (Full connection).
    pub fn open_page_at(scale: ExperimentScale, dram: DramKind) -> Self {
        ExperimentPlan::new(format!("open_page@{}", dram_token(dram)))
            .drams([dram])
            .page_policies([false, true])
            .scale(scale)
    }

    /// `mot3d ablation`'s full power-of-two power-state grid for one program
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
    use std::cell::RefCell;
    use std::rc::Rc;

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
            assert!(r.metrics.edp().value() > 0.0);
            assert!(r.metrics.ipc() > 0.0);
        }
    }

    /// Records sinks' calls into a shared log; `fail_at` makes the
    /// `k`-th `record` call fail. `Rc` makes it `!Send`.
    struct Recorder {
        log: Rc<RefCell<Vec<String>>>,
        fail_at: Option<usize>,
    }

    impl RecordSink for Recorder {
        fn record(&mut self, record: &RunRecord) -> io::Result<()> {
            let mut log = self.log.borrow_mut();
            if self.fail_at == Some(log.len()) {
                return Err(io::Error::other("sink full"));
            }
            log.push(record.point.label());
            Ok(())
        }

        fn finish(&mut self) -> io::Result<()> {
            self.log.borrow_mut().push("finish".to_string());
            Ok(())
        }
    }

    fn four_points(threads: usize) -> ExperimentPlan {
        ExperimentPlan::new("t")
            .splash([SplashBenchmark::Fft, SplashBenchmark::Radix])
            .page_policies([false, true])
            .scale(ExperimentScale::tiny())
            .threads(threads)
    }

    #[test]
    fn a_thread_bound_sink_sees_expansion_order() {
        let plan = four_points(3);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sink = Recorder {
            log: Rc::clone(&log),
            fail_at: None,
        };
        plan.run_with(&mut [&mut sink], |_, _, _| {}).unwrap();
        let mut want: Vec<String> = plan.points().iter().map(RunPoint::label).collect();
        want.push("finish".to_string());
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn a_sink_error_stops_the_records_but_not_the_runs() {
        for threads in [1, 3] {
            let plan = four_points(threads);
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sink = Recorder {
                log: Rc::clone(&log),
                fail_at: Some(2),
            };
            let progressed = AtomicUsize::new(0);
            let err = plan
                .run_with(&mut [&mut sink], |_, _, _| {
                    progressed.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap_err();
            assert_eq!(err.to_string(), "sink full");
            let want: Vec<String> = plan.points()[..2].iter().map(RunPoint::label).collect();
            assert_eq!(*log.borrow(), want, "records 0..2 and no finish");
            assert_eq!(progressed.into_inner(), 4, "threads = {threads}");
        }
    }
}
