//! The unified `mot3d` command-line interface.
//!
//! One binary replaces the seven per-figure executables: every canned
//! artefact is a subcommand (`mot3d fig7 --scale 0.35 --threads 8`),
//! and `mot3d sweep` exposes the full declarative
//! [`ExperimentPlan`] grid for ad-hoc studies
//! (`mot3d sweep --interconnect mot3d,mesh --dram 200ns,42ns`).
//! Canned subcommands render stdout byte-identically to the binaries
//! they replaced (pinned by `tests/plan_equivalence.rs`); machine
//! consumers attach `--json` (JSON-lines) or `--csv` record sinks.
//! Flags are the only way to configure a run: no environment variable
//! is read.

use crate::axes;
use crate::experiments::{self, ExperimentScale};
use crate::perf::Recorder;
use crate::plan::{ExperimentPlan, RunRecord};
use crate::pool;
use crate::report;
use crate::sink::{AtomicFile, CsvSink, JsonLinesSink, PerfSink, RecordSink, TableSink};
use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_sim::{InterconnectChoice, SimConfig};
use mot3d_workloads::SplashBenchmark;
use std::io;
use std::path::{Path, PathBuf};

/// Entry point for the `mot3d` binary: parses `args` (without the
/// program name), executes the subcommand, and returns the process
/// exit code (0 = success, 1 = runtime/I-O failure, 2 = usage error).
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    // Tool subcommands own their argument grammar (their flags don't
    // all take values), so dispatch before the option parser runs.
    match args.first().map(String::as_str) {
        Some("lint") => return mot3d_lint::run_cli(&args[1..]),
        Some("perf") => return crate::perfcheck::run_cli(&args[1..]),
        _ => {}
    }
    let (cmd, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(UsageError::Help) => {
            print!("{}", usage());
            return 0;
        }
        Err(UsageError::Bad(msg)) => {
            eprintln!("mot3d: {msg}");
            eprintln!();
            eprint!("{}", usage());
            return 2;
        }
    };
    match execute(cmd, &opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mot3d: {e}");
            1
        }
    }
}

/// The CLI's subcommands (one per replaced binary, plus the ad-hoc
/// `sweep`, `open-page`, and the `trace` deep dive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Table1,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    OpenPage,
    Ablation,
    All,
    Sweep,
    Trace,
}

/// Parsed command-line options (common + sweep axes).
#[derive(Debug, Default)]
struct Options {
    scale: Option<ExperimentScale>,
    threads: Option<usize>,
    seed: Option<u64>,
    json: Option<String>,
    csv: Option<String>,
    bench_json: Option<String>,
    benches: Option<Vec<SplashBenchmark>>,
    interconnects: Option<Vec<InterconnectChoice>>,
    power_states: Option<Vec<PowerState>>,
    drams: Option<Vec<DramKind>>,
    pages: Option<Vec<bool>>,
    repeats: u32,
    trace: Option<String>,
}

enum UsageError {
    Help,
    Bad(String),
}

fn bad(msg: impl Into<String>) -> UsageError {
    UsageError::Bad(msg.into())
}

fn usage() -> String {
    "\
mot3d — regenerate the DATE 2016 paper's tables and figures

USAGE: mot3d <command> [options]

COMMANDS:
  table1     Table I — derived L2 cache latencies
  fig5       Fig. 5 — wire lengths per power state
  fig6       Fig. 6 — L2 latency + exec time across the four interconnects
  fig7       Fig. 7 — EDP + exec time across the power states @ 200 ns DRAM
  fig8       Fig. 8 — power-state sweep @ 63/42 ns DRAM + open-page study
  open-page  flat vs open-page DRAM timing (Full connection)
  ablation   EDP and time over the full PC{16,8,4} x MB{32,16,8} grid
  all        everything above, as one report
  sweep      ad-hoc declarative grid over any combination of axes
  trace      single-point deep dive: run one cell with the timeline
             tracer attached (open the file at ui.perfetto.dev)
  serve      long-running sweep service with a persistent result cache
  submit     send a sweep to a running server (see `mot3d serve --help`)
  lint       count first-party code lines per crate (see `lint --help`)
  perf       `perf check` — compare a fresh run against BENCH_results.json
  help       print this message

OPTIONS (all commands):
  --scale <factor|tiny>  run-length factor, default 0.35
  --threads <n>          worker threads, default = available parallelism
  --seed <u64>           workload seed override
  --json <path>          stream every simulated run as JSON-lines records
  --csv <path>           stream every simulated run as CSV rows
  --bench-json <path>    write the perf-trajectory document
                         (sink options need a simulating command, i.e.
                         not table1/fig5)

SWEEP OPTIONS (comma-separated lists; `all` expands an axis):
  --bench <list|all>         cholesky,fft,fmm,ocean_contiguous,radix,
                             raytrace,volrend,water-nsquared
  --interconnect <list|all>  mot3d, mesh, bus-mesh, bus-tree
  --power-state <list|all>   full, pc16-mb8, pc4-mb32, pc4-mb8 (any pcX-mbY)
  --dram <list|all>          200ns, 63ns, 42ns
  --page <flat|open|both>    DRAM page-policy axis
  --repeat <n>               runs per grid cell (each repeat reseeds)
  --trace <dir>              write one Perfetto-loadable trace file per run
                             into <dir> (sweep runs serially; also the
                             output directory for `mot3d trace`)

EXAMPLES:
  mot3d fig7 --scale 0.35 --threads 8 --json fig7.jsonl
  mot3d all --scale tiny --json bench.json --bench-json BENCH_results.json
  mot3d sweep --bench fft,radix --interconnect mot3d,mesh --dram all --csv grid.csv
  mot3d trace --bench fft --power-state pc16-mb8 --trace traces/
"
    .to_string()
}

fn parse(args: &[String]) -> Result<(Cmd, Options), UsageError> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Err(UsageError::Help),
        Some("table1") => Cmd::Table1,
        Some("fig5") => Cmd::Fig5,
        Some("fig6") => Cmd::Fig6,
        Some("fig7") => Cmd::Fig7,
        Some("fig8") => Cmd::Fig8,
        Some("open-page") => Cmd::OpenPage,
        Some("ablation") => Cmd::Ablation,
        Some("all") => Cmd::All,
        Some("sweep") => Cmd::Sweep,
        Some("trace") => Cmd::Trace,
        Some(other) => return Err(bad(format!("unknown command {other:?}"))),
    };
    let mut opts = Options {
        repeats: 1,
        ..Options::default()
    };
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Err(UsageError::Help);
        }
        let value = it
            .next()
            .ok_or_else(|| bad(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--scale" => {
                opts.scale = Some(ExperimentScale::parse(value).map_err(bad)?);
            }
            "--threads" => {
                let t: usize = value.parse().ok().filter(|&t| t > 0).ok_or_else(|| {
                    bad(format!("--threads needs a positive integer, got {value:?}"))
                })?;
                opts.threads = Some(t);
            }
            "--seed" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| bad(format!("--seed needs an unsigned integer, got {value:?}")))?;
                opts.seed = Some(s);
            }
            "--json" => opts.json = Some(value.clone()),
            "--csv" => opts.csv = Some(value.clone()),
            "--bench-json" => opts.bench_json = Some(value.clone()),
            "--bench" => opts.benches = Some(axes::parse_benches(value).map_err(bad)?),
            "--interconnect" => {
                opts.interconnects = Some(axes::parse_interconnects(value).map_err(bad)?);
            }
            "--power-state" => {
                opts.power_states = Some(axes::parse_power_states(value).map_err(bad)?);
            }
            "--dram" => opts.drams = Some(axes::parse_drams(value).map_err(bad)?),
            "--page" => opts.pages = Some(axes::parse_pages(value).map_err(bad)?),
            "--repeat" => {
                let r: u32 = value.parse().ok().filter(|&r| r > 0).ok_or_else(|| {
                    bad(format!("--repeat needs a positive integer, got {value:?}"))
                })?;
                opts.repeats = r;
            }
            "--trace" => opts.trace = Some(value.clone()),
            other => return Err(bad(format!("unknown option {other:?}"))),
        }
    }
    let sweep_only = opts.benches.is_some()
        || opts.interconnects.is_some()
        || opts.power_states.is_some()
        || opts.drams.is_some()
        || opts.pages.is_some()
        || opts.repeats != 1;
    if sweep_only && !matches!(cmd, Cmd::Sweep | Cmd::Trace) {
        return Err(bad("axis options (--bench/--interconnect/--power-state/--dram/--page/--repeat) only apply to `mot3d sweep` and `mot3d trace`"));
    }
    if opts.trace.is_some() && !matches!(cmd, Cmd::Sweep | Cmd::Trace) {
        return Err(bad(
            "--trace only applies to `mot3d sweep` and `mot3d trace`",
        ));
    }
    if matches!(cmd, Cmd::Table1 | Cmd::Fig5)
        && (opts.json.is_some() || opts.csv.is_some() || opts.bench_json.is_some())
    {
        return Err(bad(
            "--json/--csv/--bench-json record simulated runs; table1 and fig5 \
             are derived analytically and run none",
        ));
    }
    Ok((cmd, opts))
}

// --------------------------------------------------------- execution

/// The DRAM label strings the legacy renderers used.
fn dram_label(dram: DramKind) -> &'static str {
    match dram {
        DramKind::OffChipDdr3 => "200 ns",
        DramKind::WideIo => "63 ns (Wide I/O)",
        DramKind::Weis3d => "42 ns (Weis 3-D)",
    }
}

/// Everything a subcommand needs to run plans uniformly: the resolved
/// scale, the optional thread pin, the perf recorder, and the file
/// sinks shared by every plan of the invocation.
struct Ctx {
    scale: ExperimentScale,
    /// The ablation grid's seed: the legacy `ablation` binary ran its
    /// grid at the simulator's default seed, not the experiment seed;
    /// `--seed` overrides either.
    ablation_seed: u64,
    threads: Option<usize>,
    banner_threads: usize,
    recorder: Recorder,
    json_sink: Option<JsonLinesSink<AtomicFile>>,
    csv_sink: Option<CsvSink<AtomicFile>>,
    json: Option<String>,
    csv: Option<String>,
    bench_json: Option<String>,
}

/// The largest grid a subcommand executes, so banners and perf records
/// never claim more workers than the pool can use. `sweep` is resolved
/// once its plan is built (see [`Ctx::clamp_threads`]).
fn max_jobs(cmd: Cmd) -> usize {
    let benches = SplashBenchmark::all().len();
    match cmd {
        Cmd::Table1 | Cmd::Fig5 => 1,
        Cmd::Fig6 | Cmd::Fig7 | Cmd::Fig8 | Cmd::All => benches * 4,
        Cmd::OpenPage => benches * 2,
        // One program's PC{16,8,4} × MB{32,16,8} grid at a time.
        Cmd::Ablation => 9,
        Cmd::Sweep => usize::MAX,
        Cmd::Trace => 1,
    }
}

/// The worker count a `jobs`-point grid runs on: the `--threads` pin
/// if given, else the pool's default, never more than the jobs.
fn resolve_threads(pinned: Option<usize>, jobs: usize) -> usize {
    match pinned {
        Some(t) => t.min(jobs.max(1)),
        None => pool::worker_threads(jobs),
    }
}

/// The per-run progress callback: stderr lines when `stream` is set.
fn progress(stream: bool) -> fn(usize, usize, &str) {
    if stream {
        report::stream_progress
    } else {
        |_, _, _| {}
    }
}

impl Ctx {
    fn new(cmd: Cmd, opts: &Options) -> io::Result<Self> {
        let mut scale = opts.scale.unwrap_or_default();
        if let Some(seed) = opts.seed {
            scale.seed = seed;
        }
        let banner_threads = resolve_threads(opts.threads, max_jobs(cmd));
        let json_sink = match &opts.json {
            Some(path) => Some(JsonLinesSink::create(path)?),
            None => None,
        };
        let csv_sink = match &opts.csv {
            Some(path) => Some(CsvSink::create(path)?),
            None => None,
        };
        Ok(Ctx {
            scale,
            ablation_seed: opts.seed.unwrap_or(SimConfig::date16().seed),
            threads: opts.threads,
            banner_threads,
            recorder: Recorder::new(scale.scale, banner_threads),
            json_sink,
            csv_sink,
            json: opts.json.clone(),
            csv: opts.csv.clone(),
            bench_json: opts.bench_json.clone(),
        })
    }

    /// Re-clamps the reported worker count once an ad-hoc grid's job
    /// count is known, keeping the banner and the perf record honest.
    fn clamp_threads(&mut self, jobs: usize) {
        self.banner_threads = resolve_threads(self.threads, jobs);
        self.recorder.set_threads(self.banner_threads);
    }

    /// Hands `run` the invocation's sinks (+ a perf record under
    /// `perf_name`, + an optional subcommand-specific sink): the one
    /// place the sink list is assembled.
    fn with_sinks<T>(
        &mut self,
        perf_name: Option<&str>,
        extra: Option<&mut dyn RecordSink>,
        run: impl FnOnce(&mut [&mut dyn RecordSink]) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut perf = perf_name.map(|name| PerfSink::new(&mut self.recorder, name));
        let mut sinks: Vec<&mut dyn RecordSink> = Vec::new();
        if let Some(json) = self.json_sink.as_mut() {
            sinks.push(json);
        }
        if let Some(csv) = self.csv_sink.as_mut() {
            sinks.push(csv);
        }
        if let Some(perf) = perf.as_mut() {
            sinks.push(perf);
        }
        if let Some(extra) = extra {
            sinks.push(extra);
        }
        run(&mut sinks)
    }

    /// Runs one plan through [`Ctx::with_sinks`], streaming per-run
    /// progress lines to stderr when `stream` is set.
    fn run_plan(
        &mut self,
        plan: ExperimentPlan,
        perf_name: Option<&str>,
        stream: bool,
        extra: Option<&mut dyn RecordSink>,
    ) -> io::Result<Vec<RunRecord>> {
        let plan = match self.threads {
            Some(t) => plan.threads(t),
            None => plan,
        };
        self.with_sinks(perf_name, extra, |sinks| {
            plan.run_with(sinks, progress(stream))
        })
    }

    /// [`Ctx::run_plan`] with the timeline tracer attached: one
    /// Perfetto-loadable file per point into `trace_dir`, on one worker.
    /// Returns each record with its trace file path.
    fn run_plan_traced(
        &mut self,
        plan: ExperimentPlan,
        perf_name: Option<&str>,
        stream: bool,
        extra: Option<&mut dyn RecordSink>,
        trace_dir: &str,
    ) -> io::Result<Vec<(RunRecord, PathBuf)>> {
        self.with_sinks(perf_name, extra, |sinks| {
            plan.run_traced_with(Path::new(trace_dir), sinks, progress(stream))
        })
    }

    /// Persists the record files (atomic rename into their final
    /// names), writes the perf-trajectory document (`--bench-json`), and
    /// notes the paths. The sinks span every plan of the invocation
    /// (`mot3d all` runs several), so this runs once at the very end.
    fn finish(&mut self) -> io::Result<()> {
        if let Some(sink) = self.json_sink.take() {
            sink.persist()?;
        }
        if let Some(sink) = self.csv_sink.take() {
            sink.persist()?;
        }
        if let Some(path) = &self.bench_json {
            if !self.recorder.sweeps().is_empty() {
                std::fs::write(path, self.recorder.to_json())?;
                eprintln!("bench results written to {path}");
            }
        }
        if let Some(path) = &self.json {
            eprintln!("run records written to {path}");
        }
        if let Some(path) = &self.csv {
            eprintln!("run records written to {path}");
        }
        Ok(())
    }
}

fn execute(cmd: Cmd, opts: &Options) -> io::Result<()> {
    let mut ctx = Ctx::new(cmd, opts)?;
    match cmd {
        Cmd::Table1 => {
            print!("{}", report::render_table1(&experiments::table1()));
        }
        Cmd::Fig5 => {
            print!("{}", report::render_fig5(&experiments::fig5()));
        }
        Cmd::Fig6 | Cmd::Fig7 | Cmd::Fig8 | Cmd::OpenPage => {
            let (what, section): (&str, fn(&mut Ctx) -> io::Result<()>) = match cmd {
                Cmd::Fig6 => ("Fig. 6", |ctx| fig6(ctx, true)),
                Cmd::Fig7 => ("Fig. 7", |ctx| fig7(ctx, true)),
                Cmd::Fig8 => ("Fig. 8", |ctx| {
                    fig8(ctx, true)?;
                    open_page(ctx, false)
                }),
                _ => ("the open-page sweep", |ctx| open_page(ctx, true)),
            };
            eprintln!(
                "running {what} at scale {} on {} threads (--scale / --threads to change)...",
                ctx.scale.scale, ctx.banner_threads,
            );
            section(&mut ctx)?;
        }
        Cmd::Ablation => ablation(&mut ctx)?,
        Cmd::All => all(&mut ctx)?,
        Cmd::Sweep => sweep(&mut ctx, opts)?,
        Cmd::Trace => trace_point(&mut ctx, opts)?,
    }
    ctx.finish()
}

/// `mot3d all`: every experiment as one report
/// (byte-identical to the legacy `all` binary).
fn all(ctx: &mut Ctx) -> io::Result<()> {
    let scale = ctx.scale;
    eprintln!(
        "running all experiments at scale {} on {} threads ...",
        scale.scale, ctx.banner_threads,
    );

    println!("== Table I ==");
    print!("{}", report::render_table1(&experiments::table1()));
    println!("\n== Fig. 5 ==");
    print!("{}", report::render_fig5(&experiments::fig5()));

    println!("\n== Fig. 6 ==");
    fig6(ctx, false)?;
    println!("\n== Fig. 7 (200 ns DRAM) ==");
    fig7(ctx, false)?;
    println!("\n== Fig. 8 ==");
    let rows63 = fig8(ctx, false)?;
    print!("{}", report::render_fig7_claims(&rows63));
    println!("\n== Open-page DRAM ==");
    open_page(ctx, false)
}

/// Fig. 6: the four interconnects. `stream` prints per-run progress.
fn fig6(ctx: &mut Ctx, stream: bool) -> io::Result<()> {
    let records = ctx.run_plan(ExperimentPlan::fig6(ctx.scale), Some("fig6"), stream, None)?;
    print!("{}", report::render_fig6(&experiments::fig6_rows(&records)));
    Ok(())
}

/// Fig. 7: the power states at 200 ns DRAM, then the paper's claims.
fn fig7(ctx: &mut Ctx, stream: bool) -> io::Result<()> {
    let plan = ExperimentPlan::fig7(ctx.scale);
    let rows = experiments::fig7_rows(&ctx.run_plan(plan, Some("fig7@200ns"), stream, None)?);
    print!("{}", report::render_fig7(&rows, "200 ns"));
    println!();
    print!("{}", report::render_fig7_claims(&rows));
    Ok(())
}

/// Fig. 8: the power states at 63 and 42 ns DRAM, one table each.
/// Returns the 63 ns rows (`all` prints their claims).
fn fig8(ctx: &mut Ctx, stream: bool) -> io::Result<Vec<experiments::Fig7Row>> {
    let mut rows63 = Vec::new();
    for dram in [DramKind::WideIo, DramKind::Weis3d] {
        let plan = ExperimentPlan::fig8_at(ctx.scale, dram);
        let perf_name = format!("fig8@{}", axes::dram_token(dram));
        let rows = experiments::fig7_rows(&ctx.run_plan(plan, Some(&perf_name), stream, None)?);
        print!("{}", report::render_fig7(&rows, dram_label(dram)));
        println!();
        if dram == DramKind::WideIo {
            rows63 = rows;
        }
    }
    Ok(rows63)
}

/// Flat vs open-page DRAM timing at 200 ns (Full connection).
fn open_page(ctx: &mut Ctx, stream: bool) -> io::Result<()> {
    let plan = ExperimentPlan::open_page_at(ctx.scale, DramKind::OffChipDdr3);
    let records = ctx.run_plan(plan, Some("open_page@200ns"), stream, None)?;
    print!(
        "{}",
        report::render_open_page(&experiments::open_page_rows(&records), "200 ns")
    );
    Ok(())
}

/// `mot3d ablation`: the full power-of-two power-state grid, the one
/// study no other subcommand prints.
fn ablation(ctx: &mut Ctx) -> io::Result<()> {
    println!("== Ablation: full power-state grid (EDP normalised to Full) ==");
    for bench in [SplashBenchmark::Fft, SplashBenchmark::OceanContiguous] {
        println!("\n{bench}:");
        println!(
            "{:<12} {:>10} {:>12} {:>12}",
            "state", "cycles", "EDP ratio", "time ratio"
        );
        let grid_scale = ExperimentScale {
            seed: ctx.ablation_seed,
            ..ctx.scale
        };
        let grid = ExperimentPlan::ablation_grid(grid_scale, bench);
        let perf_name = format!("ablation@{bench}");
        let records = ctx.run_plan(grid, Some(&perf_name), false, None)?;
        let full = records[0].clone();
        for rec in &records {
            let state = rec.point.config.power_state;
            println!(
                "{:<12} {:>10} {:>12.3} {:>12.3}",
                format!("PC{}-MB{}", state.active_cores(), state.active_banks()),
                rec.metrics.cycles,
                rec.derived.edp_js / full.derived.edp_js,
                rec.metrics.cycles as f64 / full.metrics.cycles as f64,
            );
        }
    }
    Ok(())
}

/// Assembles the ad-hoc grid `sweep` and `trace` share from the parsed
/// axis options.
fn grid_plan(name: &str, ctx: &Ctx, opts: &Options) -> io::Result<ExperimentPlan> {
    let mut plan = ExperimentPlan::new(name)
        .scale(ctx.scale)
        .repeats(opts.repeats);
    if let Some(benches) = &opts.benches {
        plan = plan.splash(benches.iter().copied());
    }
    if let Some(ics) = &opts.interconnects {
        plan = plan.interconnects(ics.iter().copied());
    }
    if let Some(states) = &opts.power_states {
        plan = plan.power_states(states.iter().copied());
    }
    if let Some(drams) = &opts.drams {
        plan = plan.drams(drams.iter().copied());
    }
    if let Some(pages) = &opts.pages {
        plan = plan.page_policies(pages.iter().copied());
    }
    if let Err(msg) = plan.check() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(plan)
}

/// `mot3d sweep`: an ad-hoc declarative grid rendered through the
/// generic table sink. With `--trace <dir>` the grid runs serially with
/// the timeline tracer attached, one file per point.
fn sweep(ctx: &mut Ctx, opts: &Options) -> io::Result<()> {
    let plan = grid_plan("sweep", ctx, opts)?;
    let jobs = plan.len();
    let mut table = TableSink::new(io::stdout());
    if let Some(dir) = opts.trace.clone() {
        ctx.clamp_threads(1);
        eprintln!(
            "running sweep: {} runs at scale {} serially with tracing ...",
            jobs, ctx.scale.scale,
        );
        ctx.run_plan_traced(plan, Some("sweep"), true, Some(&mut table), &dir)?;
        eprintln!("trace files written to {dir}");
    } else {
        ctx.clamp_threads(jobs);
        eprintln!(
            "running sweep: {} runs at scale {} on {} threads ...",
            jobs, ctx.scale.scale, ctx.banner_threads,
        );
        ctx.run_plan(plan, Some("sweep"), true, Some(&mut table))?;
    }
    Ok(())
}

/// `mot3d trace`: a single-point deep dive — run one grid cell with the
/// timeline tracer attached and print where the trace landed.
fn trace_point(ctx: &mut Ctx, opts: &Options) -> io::Result<()> {
    let plan = grid_plan("trace", ctx, opts)?;
    if plan.len() != 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "`mot3d trace` is a single-point deep dive but these axes expand \
                 to {} runs; give one value per axis, or use \
                 `mot3d sweep --trace <dir>` to trace a grid",
                plan.len()
            ),
        ));
    }
    let dir = opts.trace.clone().unwrap_or_else(|| ".".to_string());
    ctx.clamp_threads(1);
    let records = ctx.run_plan_traced(plan, Some("trace"), false, None, &dir)?;
    let (record, path) = &records[0];
    eprintln!(
        "{}: {} cycles, {:.3} IPC",
        record.point.label(),
        record.metrics.cycles,
        record.derived.ipc,
    );
    println!("{}", path.display());
    eprintln!("open it at https://ui.perfetto.dev (or chrome://tracing)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_noc::NocTopologyKind;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_canned_subcommands_with_common_flags() {
        let (cmd, opts) = parse(&argv("fig7 --scale 0.35 --threads 8 --json out.jsonl"))
            .ok()
            .unwrap();
        assert_eq!(cmd, Cmd::Fig7);
        assert_eq!(opts.scale.unwrap().scale, 0.35);
        assert_eq!(opts.threads, Some(8));
        assert_eq!(opts.json.as_deref(), Some("out.jsonl"));
    }

    #[test]
    fn parses_tiny_scale_keyword() {
        let (_, opts) = parse(&argv("all --scale tiny")).ok().unwrap();
        assert_eq!(opts.scale.unwrap(), ExperimentScale::tiny());
    }

    #[test]
    fn parses_sweep_axes() {
        let (cmd, opts) = parse(&argv(
            "sweep --bench fft,radix --interconnect mot3d,mesh --power-state full \
             --dram 200ns,42ns --page both --repeat 2",
        ))
        .ok()
        .unwrap();
        assert_eq!(cmd, Cmd::Sweep);
        assert_eq!(
            opts.benches.unwrap(),
            vec![SplashBenchmark::Fft, SplashBenchmark::Radix]
        );
        assert_eq!(
            opts.interconnects.unwrap(),
            vec![
                InterconnectChoice::Mot,
                InterconnectChoice::Noc(NocTopologyKind::Mesh3d)
            ]
        );
        assert_eq!(opts.power_states.unwrap(), vec![PowerState::full()]);
        assert_eq!(
            opts.drams.unwrap(),
            vec![DramKind::OffChipDdr3, DramKind::Weis3d]
        );
        assert_eq!(opts.pages.unwrap(), vec![false, true]);
        assert_eq!(opts.repeats, 2);
    }

    #[test]
    fn rejects_axis_flags_outside_sweep() {
        assert!(matches!(
            parse(&argv("fig7 --bench fft")),
            Err(UsageError::Bad(_))
        ));
    }

    #[test]
    fn parses_trace_deep_dive_and_traced_sweeps() {
        let (cmd, opts) = parse(&argv(
            "trace --bench fft --power-state pc16-mb8 --trace out/",
        ))
        .ok()
        .unwrap();
        assert_eq!(cmd, Cmd::Trace);
        assert_eq!(opts.benches.unwrap(), vec![SplashBenchmark::Fft]);
        assert_eq!(opts.trace.as_deref(), Some("out/"));

        let (cmd, opts) = parse(&argv("sweep --bench fft --trace traces"))
            .ok()
            .unwrap();
        assert_eq!(cmd, Cmd::Sweep);
        assert_eq!(opts.trace.as_deref(), Some("traces"));
        assert_eq!(max_jobs(Cmd::Trace), 1);
    }

    #[test]
    fn rejects_trace_dir_outside_sweep_and_trace() {
        assert!(matches!(
            parse(&argv("fig7 --trace out/")),
            Err(UsageError::Bad(_))
        ));
        assert!(matches!(
            parse(&argv("all --trace out/")),
            Err(UsageError::Bad(_))
        ));
    }

    #[test]
    fn rejects_record_sinks_on_analytic_commands() {
        for args in [
            "table1 --json out.jsonl",
            "fig5 --csv out.csv",
            "table1 --bench-json perf.json",
        ] {
            assert!(
                matches!(parse(&argv(args)), Err(UsageError::Bad(_))),
                "{args}"
            );
        }
        // …but simulating commands take them.
        assert!(parse(&argv("open-page --json out.jsonl")).is_ok());
    }

    #[test]
    fn banner_thread_clamp_tracks_each_commands_grid() {
        assert_eq!(max_jobs(Cmd::Fig6), 32);
        assert_eq!(max_jobs(Cmd::OpenPage), 16);
        assert_eq!(max_jobs(Cmd::Ablation), 9);
        assert_eq!(max_jobs(Cmd::Table1), 1);
    }

    #[test]
    fn ablation_pins_the_legacy_seed_unless_seeded() {
        let seed_of = |args: &str| {
            let (cmd, opts) = parse(&argv(args)).ok().unwrap();
            Ctx::new(cmd, &opts).unwrap().ablation_seed
        };
        assert_eq!(seed_of("ablation"), SimConfig::date16().seed);
        assert_eq!(seed_of("ablation --scale tiny"), SimConfig::date16().seed);
        assert_eq!(seed_of("ablation --seed 9"), 9);
    }

    #[test]
    fn rejects_unknown_commands_flags_and_values() {
        assert!(matches!(parse(&argv("fig9")), Err(UsageError::Bad(_))));
        assert!(matches!(
            parse(&argv("fig7 --wat 3")),
            Err(UsageError::Bad(_))
        ));
        assert!(matches!(
            parse(&argv("fig7 --scale nope")),
            Err(UsageError::Bad(_))
        ));
        assert!(matches!(
            parse(&argv("fig7 --threads 0")),
            Err(UsageError::Bad(_))
        ));
        assert!(matches!(
            parse(&argv("fig7 --scale")),
            Err(UsageError::Bad(_))
        ));
    }

    #[test]
    fn help_takes_priority() {
        assert!(matches!(parse(&argv("")), Err(UsageError::Help)));
        assert!(matches!(parse(&argv("help")), Err(UsageError::Help)));
        assert!(matches!(parse(&argv("fig7 --help")), Err(UsageError::Help)));
    }

    #[test]
    fn power_state_parser_accepts_generic_grid_points() {
        let states = axes::parse_power_states("full,pc8-mb16,PC4-MB8").unwrap();
        assert_eq!(states[0], PowerState::full());
        assert_eq!(states[1], PowerState::new(8, 16).unwrap());
        assert_eq!(states[2], PowerState::pc4_mb8());
    }

    #[test]
    fn dram_labels_match_the_legacy_renderer_strings() {
        assert_eq!(dram_label(DramKind::OffChipDdr3), "200 ns");
        assert_eq!(dram_label(DramKind::WideIo), "63 ns (Wide I/O)");
        assert_eq!(dram_label(DramKind::Weis3d), "42 ns (Weis 3-D)");
    }
}
