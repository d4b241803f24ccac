//! The `mot3d` command line: one parser and one exit path for every
//! subcommand.
//!
//! Every canned artefact of the paper is a subcommand
//! (`mot3d fig7 --scale 0.35 --threads 8`); `mot3d sweep` runs any
//! ad-hoc grid (`mot3d sweep --interconnect mot3d,mesh --dram 200ns,42ns`),
//! `mot3d trace` runs one grid cell with the timeline tracer attached,
//! and `mot3d serve` / `submit` / `shutdown` drive the sweep service.
//! `sweep`, `trace` and `submit` read their grid flags into one
//! [`PlanRequest`] and expand it with [`PlanRequest::to_plan`], so the
//! offline and the served stream of the same flags are the same bytes.
//! Canned subcommands render stdout byte-identically to the per-figure
//! binaries they replaced (pinned by `tests/plan_equivalence.rs` of
//! `mot3d-bench`); machine consumers attach `--json` (JSON-lines) or
//! `--csv` record sinks.
//!
//! Flags are the only way to configure a run. This module holds the one
//! environment read of the first-party code (`HOME`, for the default
//! cache directory); everything below it takes explicit configuration.

use crate::client::{self, RetryPolicy};
use crate::fault::{FaultPlan, Faults};
use crate::protocol::PlanRequest;
use crate::server::{self, ServerConfig};
use mot3d_bench::experiments::{self, ExperimentScale};
use mot3d_bench::perf::Recorder;
use mot3d_bench::perfcheck;
use mot3d_bench::plan::{ExperimentPlan, RunRecord};
use mot3d_bench::pool;
use mot3d_bench::report;
use mot3d_bench::sink::{AtomicFile, CsvSink, JsonLinesSink, PerfSink, RecordSink, TableSink};
use mot3d_mem::dram::DramKind;
use mot3d_sim::SimConfig;
use mot3d_workloads::SplashBenchmark;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// Entry point for the `mot3d` binary: parses `args` (without the
/// program name), runs the subcommand, and returns the process exit
/// code: 0 on success and for help, 2 for a usage error, 1 for a
/// run-time failure (`perf check`: 1 for a checksum mismatch, 2 for a
/// baseline it cannot read).
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    let command = args.first().map(String::as_str);
    match parse(&args) {
        Err(UsageError::Help) => {
            print!("{}", usage(command));
            0
        }
        Err(UsageError::Bad(msg)) => {
            eprintln!("mot3d: {msg}");
            eprintln!();
            eprint!("{}", usage(command));
            2
        }
        Ok((cmd, opts)) => match execute(cmd, &opts) {
            Ok(()) => 0,
            Err(Failed(code, msg)) => {
                eprintln!("mot3d: {msg}");
                code
            }
        },
    }
}

/// The subcommands: the paper's artefacts, the ad-hoc `sweep` and
/// `trace`, the service's three, and `perf check`.
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
    Serve,
    Submit,
    Shutdown,
    Perf,
}

/// Every subcommand word [`run`] dispatches.
const COMMANDS: [(&str, Cmd); 14] = [
    ("table1", Cmd::Table1),
    ("fig5", Cmd::Fig5),
    ("fig6", Cmd::Fig6),
    ("fig7", Cmd::Fig7),
    ("fig8", Cmd::Fig8),
    ("open-page", Cmd::OpenPage),
    ("ablation", Cmd::Ablation),
    ("all", Cmd::All),
    ("sweep", Cmd::Sweep),
    ("trace", Cmd::Trace),
    ("serve", Cmd::Serve),
    ("submit", Cmd::Submit),
    ("shutdown", Cmd::Shutdown),
    ("perf", Cmd::Perf),
];

impl Cmd {
    /// Whether the command runs on this machine (tables, figures,
    /// `sweep`, `trace`) rather than serving, talking to a server or
    /// checking a baseline.
    fn is_local(self) -> bool {
        !matches!(self, Cmd::Serve | Cmd::Submit | Cmd::Shutdown | Cmd::Perf)
    }
}

/// Parsed command-line options; each subcommand reads its own.
#[derive(Debug, Default)]
struct Options {
    /// The eight grid flags, spelled as the wire spells them: `sweep`,
    /// `trace` and `submit` expand them with [`PlanRequest::to_plan`];
    /// the canned figures read only the resolved scale and seed.
    grid: PlanRequest,
    threads: Option<usize>,
    json: Option<String>,
    csv: Option<String>,
    bench_json: Option<String>,
    trace: Option<String>,
    addr: String,
    cache_dir: Option<PathBuf>,
    accept_limit: Option<u64>,
    faults: Faults,
    retry: RetryPolicy,
    against: String,
}

#[derive(Debug)]
enum UsageError {
    Help,
    Bad(String),
}

fn bad(msg: impl Into<String>) -> UsageError {
    UsageError::Bad(msg.into())
}

/// A subcommand that ran and failed: its exit code and message.
struct Failed(i32, String);

impl From<io::Error> for Failed {
    fn from(e: io::Error) -> Self {
        Failed(1, e.to_string())
    }
}

const GRID_HELP: &str = "\
GRID OPTIONS (the plan of `sweep`, `trace` and `submit`; axes take
comma-separated lists and `all` expands one; the canned figures take
only --scale and --seed):
  --bench <list|all>         cholesky,fft,fmm,ocean_contiguous,radix,
                             raytrace,volrend,water-nsquared
  --interconnect <list|all>  mot3d, mesh, bus-mesh, bus-tree
  --power-state <list|all>   full, pc16-mb8, pc4-mb32, pc4-mb8 (any pcX-mbY)
  --dram <list|all>          200ns, 63ns, 42ns
  --page <flat|open|both>    DRAM page-policy axis
  --repeat <n>               runs per grid cell (each repeat reseeds)
  --scale <factor|tiny>      run-length factor, default 0.35
  --seed <u64>               workload seed override
";

const MAIN_USAGE: &str = "\
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
  submit     send a sweep to a running server (see `mot3d submit --help`)
  shutdown   gracefully drain a running server
  perf       `perf check` — compare a fresh run against BENCH_results.json
  help       print this message

OPTIONS (simulating commands):
  --threads <n>          worker threads, default = available parallelism
  --json <path>          stream every simulated run as JSON-lines records
  --csv <path>           stream every simulated run as CSV rows
  --bench-json <path>    write the perf-trajectory document
                         (sink options need a simulating command, i.e.
                         not table1/fig5)
  --trace <dir>          write one Perfetto-loadable trace file per run
                         into <dir> (sweep runs serially; also the
                         output directory for `mot3d trace`)

";

const MAIN_EXAMPLES: &str = "
EXAMPLES:
  mot3d fig7 --scale 0.35 --threads 8 --json fig7.jsonl
  mot3d all --scale tiny --json bench.json --bench-json BENCH_results.json
  mot3d sweep --bench fft,radix --interconnect mot3d,mesh --dram all --csv grid.csv
  mot3d trace --bench fft --power-state pc16-mb8 --trace traces/
";

const SERVE_USAGE: &str = "\
mot3d serve — long-running sweep service with a persistent result cache

USAGE: mot3d serve [options]

OPTIONS:
  --addr <host:port>     bind address, default 127.0.0.1:4016
                         (port 0 picks a free port, printed to stderr)
  --cache-dir <path>     result store, default ~/.cache/mot3d
  --threads <n>          worker threads per submission, default =
                         available parallelism
  --accept-limit <n>     exit after n connections (CI smoke tests)
  --fault <spec>         deterministic fault injection (chaos tests):
                         comma-separated <site>@<index> terms with
                         sites point, store, drop — e.g. point@0,store@2

A failing point streams a typed {\"failed\": true, ...} record and is
never cached; the rest of the plan completes. `mot3d shutdown` (or the
accept limit) stops accepting, drains in-flight submissions, flushes
the store, and exits 0.

PROTOCOL (one JSON document per line):
  client → {\"submit\": \"sweep\", \"bench\": \"fft\", \"scale\": \"tiny\"}
  server → the exact `mot3d sweep --json` stream for that plan,
           then {\"done\": true, ...cache counters...}
  client → {\"shutdown\": true}          (graceful drain request)
";

const SUBMIT_USAGE: &str = "\
mot3d submit — send a sweep to a running `mot3d serve`

USAGE: mot3d submit [options]

The record stream goes to stdout (byte-identical to
`mot3d sweep --json` for the same axes); the summary goes to stderr.

OPTIONS:
  --addr <host:port>         server address, default 127.0.0.1:4016
  --plan <name>              plan name in the response header,
                             default \"sweep\"
  --retries <n>              resubmit up to n times on a dead
                             connection (default 0); completed points
                             replay from the server cache, so the
                             retried stream is byte-identical
  --backoff <ms>             delay before the first retry, doubling
                             each further retry (default 200)

";

const SUBMIT_EXAMPLE: &str = "
The service does not trace: for per-point timelines, run
`mot3d sweep --trace <dir>` or `mot3d trace` on the machine that
reads them.

EXAMPLE:
  mot3d submit --bench fft,radix --dram all --scale tiny > grid.jsonl
";

const SHUTDOWN_USAGE: &str = "\
mot3d shutdown — gracefully drain a running `mot3d serve`

The server acknowledges, stops accepting, finishes every in-flight
submission, flushes the result store, and exits 0.

USAGE: mot3d shutdown [--addr <host:port>]

OPTIONS:
  --addr <host:port>     server address, default 127.0.0.1:4016
";

const PERF_USAGE: &str = "\
mot3d perf check — compare a fresh run against a committed perf baseline

USAGE: mot3d perf check [--against <path>] [--threads <n>]

  --against <path>    baseline document (default BENCH_results.json)
  --threads <n>       worker threads (default: available parallelism)

Re-runs every sweep the baseline names at the baseline's scale. Exits 1
on any checksum/row mismatch; 2 on usage or I/O errors. Wall-clock is
not compared: `benchmark/run.sh compare` does that, over adjacent pairs.
";

/// The help text for the subcommand word `command` (the top-level text
/// for none, `help`, or an unknown word).
fn usage(command: Option<&str>) -> String {
    match command {
        Some("serve") => SERVE_USAGE.to_string(),
        Some("submit") => format!("{SUBMIT_USAGE}{GRID_HELP}{SUBMIT_EXAMPLE}"),
        Some("shutdown") => SHUTDOWN_USAGE.to_string(),
        Some("perf") => PERF_USAGE.to_string(),
        _ => format!("{MAIN_USAGE}{GRID_HELP}{MAIN_EXAMPLES}"),
    }
}

/// Parses a flag value that must be an unsigned integer.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, UsageError> {
    value
        .parse()
        .map_err(|_| bad(format!("{flag} needs an unsigned integer, got {value:?}")))
}

/// Parses a flag value that must be a positive integer.
fn positive<T: FromStr + PartialOrd + Default>(flag: &str, value: &str) -> Result<T, UsageError> {
    value
        .parse()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| bad(format!("{flag} needs a positive integer, got {value:?}")))
}

/// Reads one of the eight grid flags into `grid`; `Ok(false)` when
/// `flag` is not a grid flag.
fn grid_flag(grid: &mut PlanRequest, flag: &str, value: &str) -> Result<bool, UsageError> {
    let text = Some(value.to_string());
    match flag {
        "--bench" => grid.bench = text,
        "--interconnect" => grid.interconnect = text,
        "--power-state" => grid.power_state = text,
        "--dram" => grid.dram = text,
        "--page" => grid.page = text,
        "--repeat" => grid.repeat = Some(positive(flag, value)?),
        "--scale" => grid.scale = text,
        "--seed" => grid.seed = Some(number(flag, value)?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse(args: &[String]) -> Result<(Cmd, Options), UsageError> {
    let Some((word, mut flags)) = args.split_first() else {
        return Err(UsageError::Help);
    };
    let cmd = match COMMANDS.iter().find(|(name, _)| name == word) {
        Some(&(_, cmd)) => cmd,
        None if matches!(word.as_str(), "help" | "--help" | "-h") => return Err(UsageError::Help),
        None => return Err(bad(format!("unknown command {word:?}"))),
    };
    if cmd == Cmd::Perf {
        match flags.split_first() {
            Some((sub, rest)) if sub == "check" => flags = rest,
            Some((sub, _)) if matches!(sub.as_str(), "help" | "--help" | "-h") => {
                return Err(UsageError::Help)
            }
            Some((sub, _)) => return Err(bad(format!("unknown perf subcommand {sub:?}"))),
            None => return Err(bad("`mot3d perf` needs a subcommand: check")),
        }
    }
    let mut opts = Options {
        grid: PlanRequest::new(if cmd == Cmd::Trace { "trace" } else { "sweep" }),
        addr: "127.0.0.1:4016".to_string(),
        against: "BENCH_results.json".to_string(),
        ..Options::default()
    };
    let local = cmd.is_local();
    let takes_grid = local || cmd == Cmd::Submit;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Err(UsageError::Help);
        }
        // A flag is matched before its value is required, so an unknown
        // flag that ends the line is reported as unknown.
        let given = it.next();
        let value = given.map_or("", String::as_str);
        let flag = flag.as_str();
        let grid = takes_grid && grid_flag(&mut opts.grid, flag, value)?;
        match (cmd, flag) {
            _ if grid => {}
            (_, "--threads") if local || matches!(cmd, Cmd::Serve | Cmd::Perf) => {
                opts.threads = Some(positive(flag, value)?);
            }
            (_, "--json") if local => opts.json = Some(value.to_string()),
            (_, "--csv") if local => opts.csv = Some(value.to_string()),
            (_, "--bench-json") if local => opts.bench_json = Some(value.to_string()),
            (_, "--trace") if local => opts.trace = Some(value.to_string()),
            (Cmd::Serve | Cmd::Submit | Cmd::Shutdown, "--addr") => opts.addr = value.to_string(),
            (Cmd::Serve, "--cache-dir") => opts.cache_dir = Some(PathBuf::from(value)),
            (Cmd::Serve, "--accept-limit") => opts.accept_limit = Some(positive(flag, value)?),
            (Cmd::Serve, "--fault") => {
                opts.faults = Faults::plan(FaultPlan::parse(value).map_err(bad)?);
            }
            (Cmd::Submit, "--plan") => opts.grid.name = value.to_string(),
            (Cmd::Submit, "--retries") => opts.retry.retries = number(flag, value)?,
            (Cmd::Submit, "--backoff") => {
                opts.retry.backoff = Duration::from_millis(positive(flag, value)?);
            }
            (Cmd::Perf, "--against") => opts.against = value.to_string(),
            _ => return Err(bad(format!("unknown option {flag:?}"))),
        }
        if given.is_none() {
            return Err(bad(format!("{flag} needs a value")));
        }
    }
    if takes_grid {
        // Surface bad axis values and scales before running or dialing.
        let plan = opts.grid.to_plan().map_err(bad)?;
        if cmd == Cmd::Submit {
            plan.check().map_err(bad)?;
        }
    }
    let g = &opts.grid;
    let axes = g.bench.is_some()
        || g.interconnect.is_some()
        || g.power_state.is_some()
        || g.dram.is_some()
        || g.page.is_some()
        || g.repeat.is_some_and(|r| r != 1);
    if axes && !matches!(cmd, Cmd::Sweep | Cmd::Trace | Cmd::Submit) {
        return Err(bad("axis options (--bench/--interconnect/--power-state/--dram/--page/--repeat) only apply to `mot3d sweep`, `mot3d trace` and `mot3d submit`"));
    }
    if opts.trace.is_some() && !matches!(cmd, Cmd::Sweep | Cmd::Trace) {
        return Err(bad(
            "--trace only applies to `mot3d sweep` and `mot3d trace`",
        ));
    }
    let mut outputs: Vec<&Path> = [&opts.json, &opts.csv, &opts.bench_json]
        .into_iter()
        .flatten()
        .map(|p| Path::new(p).strip_prefix(".").unwrap_or(Path::new(p)))
        .collect();
    if !outputs.is_empty() && matches!(cmd, Cmd::Table1 | Cmd::Fig5) {
        return Err(bad(
            "--json/--csv/--bench-json record simulated runs; table1 and fig5 \
             are derived analytically and run none",
        ));
    }
    // Two outputs on one path would share one temp file and one rename.
    outputs.sort();
    if let Some(twice) = outputs.windows(2).find(|w| w[0] == w[1]) {
        return Err(bad(format!(
            "{} is named by two of --json/--csv/--bench-json; give each its own file",
            twice[0].display()
        )));
    }
    Ok((cmd, opts))
}

// --------------------------------------------------------- execution

fn execute(cmd: Cmd, opts: &Options) -> Result<(), Failed> {
    match cmd {
        Cmd::Serve => server::serve(&server_config(opts))?,
        Cmd::Submit => {
            let outcome = client::submit_with_retry(
                &opts.addr,
                &opts.grid,
                &mut io::stdout().lock(),
                opts.retry,
            )?;
            let failed = if outcome.failed > 0 {
                format!(", {} failed", outcome.failed)
            } else {
                String::new()
            };
            eprintln!(
                "mot3d submit: {} points ({} cached, {} deduped, {} executed{failed})",
                outcome.points, outcome.hits, outcome.waited, outcome.executed,
            );
        }
        Cmd::Shutdown => {
            client::shutdown(&opts.addr)?;
            eprintln!(
                "mot3d shutdown: acknowledged by {}; server is draining",
                opts.addr
            );
        }
        Cmd::Perf => perf_check(opts)?,
        _ => run_local(cmd, opts)?,
    }
    Ok(())
}

/// The default store location: `$HOME/.cache/mot3d`, or a relative
/// `.cache/mot3d` for the (HOME-less) CI containers.
#[expect(
    clippy::disallowed_methods,
    reason = "the default store location is under HOME"
)]
fn default_cache_dir() -> PathBuf {
    match std::env::var_os("HOME") {
        Some(home) if !home.is_empty() => PathBuf::from(home).join(".cache/mot3d"),
        _ => PathBuf::from(".cache/mot3d"),
    }
}

/// The `mot3d serve` configuration the options describe.
fn server_config(opts: &Options) -> ServerConfig {
    let cache_dir = opts.cache_dir.clone().unwrap_or_else(default_cache_dir);
    ServerConfig {
        addr: opts.addr.clone(),
        threads: opts.threads,
        accept_limit: opts.accept_limit,
        faults: opts.faults.clone(),
        ..ServerConfig::new(cache_dir)
    }
}

/// `mot3d perf check`: re-runs every sweep of the baseline and compares
/// checksums; a mismatch fails with 1, an unreadable baseline with 2.
fn perf_check(opts: &Options) -> Result<(), Failed> {
    let against = &opts.against;
    let baseline = std::fs::read_to_string(against)
        .map_err(|e| format!("cannot read {against}: {e}"))
        .and_then(|text| perfcheck::parse_baseline(&text).map_err(|e| format!("{against}: {e}")))
        .map_err(|msg| Failed(2, format!("perf check: {msg}")))?;
    eprintln!(
        "perf check: re-running {} sweep{} at scale {} against {against} ...",
        baseline.sweeps.len(),
        if baseline.sweeps.len() == 1 { "" } else { "s" },
        baseline.scale,
    );
    let outcomes = perfcheck::check(&baseline, opts.threads)
        .map_err(|e| Failed(2, format!("perf check: {e}")))?;
    let mut failed = 0usize;
    for o in &outcomes {
        // A sweep passes only when its fresh checksum equals the baseline's.
        match &o.failure {
            None => println!("ok   {}: checksum {}", o.name, o.baseline.checksum),
            Some(why) => {
                failed += 1;
                println!("FAIL {}: {why}", o.name);
            }
        }
    }
    let total = outcomes.len();
    println!(
        "perf check: {} of {total} sweeps match {against}",
        total - failed
    );
    if failed > 0 {
        return Err(Failed(1, format!("{failed} of {total} sweeps differ")));
    }
    Ok(())
}

/// The DRAM label strings the legacy renderers used.
fn dram_label(dram: DramKind) -> &'static str {
    match dram {
        DramKind::OffChipDdr3 => "200 ns",
        DramKind::WideIo => "63 ns (Wide I/O)",
        DramKind::Weis3d => "42 ns (Weis 3-D)",
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// `e`, naming the output file it happened to.
fn at(path: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{path}: {e}"))
}

/// Everything a subcommand needs to run plans uniformly: the resolved
/// scale, the optional thread pin, the perf recorder, and the output
/// files shared by every plan of the invocation, each opened before
/// anything runs.
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
    bench_file: Option<AtomicFile>,
}

/// The largest grid a subcommand executes, so banners and perf records
/// never claim more workers than the pool can use. `sweep` is resolved
/// once its plan is built (see [`Ctx::clamp_threads`]).
fn max_jobs(cmd: Cmd) -> usize {
    let benches = SplashBenchmark::all().len();
    match cmd {
        Cmd::Fig6 | Cmd::Fig7 | Cmd::Fig8 | Cmd::All => benches * 4,
        Cmd::OpenPage => benches * 2,
        // One program's PC{16,8,4} × MB{32,16,8} grid at a time.
        Cmd::Ablation => 9,
        Cmd::Sweep => usize::MAX,
        _ => 1,
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
        let scale = opts.grid.resolved_scale().map_err(invalid)?;
        let banner_threads = resolve_threads(opts.threads, max_jobs(cmd));
        let open = |path: &Option<String>| {
            path.as_deref()
                .map(|p| AtomicFile::create(p).map_err(|e| at(p, e)))
                .transpose()
        };
        Ok(Ctx {
            scale,
            ablation_seed: opts.grid.seed.unwrap_or(SimConfig::date16().seed),
            threads: opts.threads,
            banner_threads,
            recorder: Recorder::new(scale.scale, banner_threads),
            json_sink: open(&opts.json)?.map(JsonLinesSink::new),
            csv_sink: open(&opts.csv)?.map(CsvSink::new),
            bench_file: open(&opts.bench_json)?,
        })
    }

    /// Re-clamps the reported worker count once an ad-hoc grid's job
    /// count is known, keeping the banner and the perf record honest.
    fn clamp_threads(&mut self, jobs: usize) {
        self.banner_threads = resolve_threads(self.threads, jobs);
        self.recorder.set_threads(self.banner_threads);
    }

    /// Hands `run` the invocation's sinks (+ a perf record named after
    /// `plan`, + an optional subcommand-specific sink): the one place the
    /// sink list is assembled.
    fn with_sinks<T>(
        &mut self,
        plan: &ExperimentPlan,
        extra: Option<&mut dyn RecordSink>,
        run: impl FnOnce(&mut [&mut dyn RecordSink]) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut perf = PerfSink::new(&mut self.recorder, plan.name());
        let mut sinks: Vec<&mut dyn RecordSink> = Vec::new();
        if let Some(json) = self.json_sink.as_mut() {
            sinks.push(json);
        }
        if let Some(csv) = self.csv_sink.as_mut() {
            sinks.push(csv);
        }
        sinks.push(&mut perf);
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
        stream: bool,
        extra: Option<&mut dyn RecordSink>,
    ) -> io::Result<Vec<RunRecord>> {
        let plan = match self.threads {
            Some(t) => plan.threads(t),
            None => plan,
        };
        self.with_sinks(&plan, extra, |sinks| plan.run_with(sinks, progress(stream)))
    }

    /// [`Ctx::run_plan`] with the timeline tracer attached: one
    /// Perfetto-loadable file per point into `trace_dir`, on one worker.
    /// Returns each record with its trace file path.
    fn run_plan_traced(
        &mut self,
        plan: ExperimentPlan,
        stream: bool,
        extra: Option<&mut dyn RecordSink>,
        trace_dir: &str,
    ) -> io::Result<Vec<(RunRecord, PathBuf)>> {
        self.with_sinks(&plan, extra, |sinks| {
            plan.run_traced_with(Path::new(trace_dir), sinks, progress(stream))
        })
    }

    /// Persists the record files and the perf-trajectory document
    /// (`--bench-json`) under the paths `opts` names (atomic rename into
    /// their final names), and notes the paths. The files span every
    /// plan of the invocation (`mot3d all` runs several), so this runs
    /// once at the very end.
    fn finish(&mut self, opts: &Options) -> io::Result<()> {
        if let (Some(sink), Some(path)) = (self.json_sink.take(), &opts.json) {
            sink.persist().map_err(|e| at(path, e))?;
        }
        if let (Some(sink), Some(path)) = (self.csv_sink.take(), &opts.csv) {
            sink.persist().map_err(|e| at(path, e))?;
        }
        if let (Some(mut file), Some(path)) = (self.bench_file.take(), &opts.bench_json) {
            if !self.recorder.sweeps().is_empty() {
                file.write_all(self.recorder.to_json().as_bytes())
                    .and_then(|()| file.persist())
                    .map_err(|e| at(path, e))?;
                eprintln!("bench results written to {path}");
            }
        }
        for path in [&opts.json, &opts.csv].into_iter().flatten() {
            eprintln!("run records written to {path}");
        }
        Ok(())
    }
}

/// Runs a table, a figure, `sweep` or `trace` on this machine.
fn run_local(cmd: Cmd, opts: &Options) -> io::Result<()> {
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
        Cmd::Sweep => sweep(&mut ctx, opts)?,
        Cmd::Trace => trace_point(&mut ctx, opts)?,
        _ => all(&mut ctx)?,
    }
    ctx.finish(opts)
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
    let records = ctx.run_plan(ExperimentPlan::fig6(ctx.scale), stream, None)?;
    print!("{}", report::render_fig6(&experiments::fig6_rows(&records)));
    Ok(())
}

/// Fig. 7: the power states at 200 ns DRAM, then the paper's claims.
fn fig7(ctx: &mut Ctx, stream: bool) -> io::Result<()> {
    let plan = ExperimentPlan::fig7(ctx.scale);
    let rows = experiments::fig7_rows(&ctx.run_plan(plan, stream, None)?);
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
        let rows = experiments::fig7_rows(&ctx.run_plan(plan, stream, None)?);
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
    let records = ctx.run_plan(plan, stream, None)?;
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
        let records = ctx.run_plan(grid, false, None)?;
        let full = &records[0].metrics;
        for rec in &records {
            let state = rec.point.config.power_state;
            println!(
                "{:<12} {:>10} {:>12.3} {:>12.3}",
                format!("PC{}-MB{}", state.active_cores(), state.active_banks()),
                rec.metrics.cycles,
                rec.metrics.edp().value() / full.edp().value(),
                rec.metrics.cycles as f64 / full.cycles as f64,
            );
        }
    }
    Ok(())
}

/// `mot3d sweep`: an ad-hoc declarative grid rendered through the
/// generic table sink. With `--trace <dir>` the grid runs serially with
/// the timeline tracer attached, one file per point.
fn sweep(ctx: &mut Ctx, opts: &Options) -> io::Result<()> {
    let plan = opts.grid.to_plan().map_err(invalid)?;
    let jobs = plan.len();
    let mut table = TableSink::new(io::stdout());
    if let Some(dir) = &opts.trace {
        ctx.clamp_threads(1);
        eprintln!(
            "running sweep: {} runs at scale {} serially with tracing ...",
            jobs, ctx.scale.scale,
        );
        ctx.run_plan_traced(plan, true, Some(&mut table), dir)?;
        eprintln!("trace files written to {dir}");
    } else {
        ctx.clamp_threads(jobs);
        eprintln!(
            "running sweep: {} runs at scale {} on {} threads ...",
            jobs, ctx.scale.scale, ctx.banner_threads,
        );
        ctx.run_plan(plan, true, Some(&mut table))?;
    }
    Ok(())
}

/// `mot3d trace`: a single-point deep dive — run one grid cell with the
/// timeline tracer attached and print where the trace landed.
fn trace_point(ctx: &mut Ctx, opts: &Options) -> io::Result<()> {
    let plan = opts.grid.to_plan().map_err(invalid)?;
    if plan.len() != 1 {
        return Err(invalid(format!(
            "`mot3d trace` is a single-point deep dive but these axes expand \
             to {} runs; give one value per axis, or use \
             `mot3d sweep --trace <dir>` to trace a grid",
            plan.len()
        )));
    }
    let dir = opts.trace.as_deref().unwrap_or(".");
    ctx.clamp_threads(1);
    let records = ctx.run_plan_traced(plan, false, None, dir)?;
    let (record, path) = &records[0];
    eprintln!(
        "{}: {} cycles, {:.3} IPC",
        record.point.label(),
        record.metrics.cycles,
        record.metrics.ipc(),
    );
    println!("{}", path.display());
    eprintln!("open it at https://ui.perfetto.dev (or chrome://tracing)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_bench::axes;
    use mot3d_mot::PowerState;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parsed(s: &str) -> (Cmd, Options) {
        parse(&argv(s)).unwrap()
    }

    fn is_bad(s: &str) -> bool {
        matches!(parse(&argv(s)), Err(UsageError::Bad(_)))
    }

    #[test]
    fn parses_canned_subcommands_with_common_flags() {
        let (cmd, opts) = parsed("fig7 --scale 0.35 --threads 8 --json out.jsonl");
        assert_eq!(cmd, Cmd::Fig7);
        assert_eq!(opts.grid.resolved_scale().unwrap().scale, 0.35);
        assert_eq!(opts.threads, Some(8));
        assert_eq!(opts.json.as_deref(), Some("out.jsonl"));
    }

    #[test]
    fn parses_tiny_scale_keyword() {
        let (_, opts) = parsed("all --scale tiny");
        assert_eq!(opts.grid.resolved_scale().unwrap(), ExperimentScale::tiny());
    }

    #[test]
    fn parses_sweep_axes() {
        let (cmd, opts) = parsed(
            "sweep --bench fft,radix --interconnect mot3d,mesh --power-state full \
             --dram 200ns,42ns --page both --repeat 2",
        );
        assert_eq!(cmd, Cmd::Sweep);
        let mesh = experiments::fig6_interconnects()[0];
        let expected = ExperimentPlan::new("sweep")
            .splash([SplashBenchmark::Fft, SplashBenchmark::Radix])
            .interconnects([mot3d_sim::InterconnectChoice::Mot, mesh])
            .power_states([PowerState::full()])
            .drams([DramKind::OffChipDdr3, DramKind::Weis3d])
            .page_policies([false, true])
            .repeats(2);
        let points = opts.grid.to_plan().unwrap().points();
        assert_eq!(points.len(), 2 * 2 * 2 * 2 * 2);
        assert_eq!(points, expected.points());
    }

    #[test]
    fn rejects_axis_flags_outside_sweep() {
        assert!(is_bad("fig7 --bench fft"));
        assert!(is_bad("all --repeat 2"));
        // The parent's meaning: a repeat of one is no axis.
        assert!(parse(&argv("fig7 --repeat 1")).is_ok());
    }

    #[test]
    fn parses_trace_deep_dive_and_traced_sweeps() {
        let (cmd, opts) = parsed("trace --bench fft --power-state pc16-mb8 --trace out/");
        assert_eq!(cmd, Cmd::Trace);
        let plan = opts.grid.to_plan().unwrap();
        assert_eq!(plan.name(), "trace");
        let points = plan.points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].workload, "fft");
        assert_eq!(points[0].config.power_state, PowerState::pc16_mb8());
        assert_eq!(opts.trace.as_deref(), Some("out/"));

        let (cmd, opts) = parsed("sweep --bench fft --trace traces");
        assert_eq!(cmd, Cmd::Sweep);
        assert_eq!(opts.trace.as_deref(), Some("traces"));
        assert_eq!(max_jobs(Cmd::Trace), 1);
    }

    #[test]
    fn rejects_trace_dir_outside_sweep_and_trace() {
        assert!(is_bad("fig7 --trace out/"));
        assert!(is_bad("all --trace out/"));
    }

    #[test]
    fn rejects_record_sinks_on_analytic_commands() {
        for args in [
            "table1 --json out.jsonl",
            "fig5 --csv out.csv",
            "table1 --bench-json perf.json",
        ] {
            assert!(is_bad(args), "{args}");
        }
        // …but simulating commands take them.
        assert!(parse(&argv("open-page --json out.jsonl")).is_ok());
    }

    #[test]
    fn rejects_two_outputs_on_one_path() {
        for args in [
            "sweep --bench fft --scale tiny --json f --csv f",
            "fig6 --json f --bench-json f",
            "all --csv out/f --bench-json out//f",
            "fig7 --json ./f --bench-json f",
        ] {
            assert!(is_bad(args), "{args}");
        }
        assert!(parse(&argv("fig6 --json a --csv b --bench-json c")).is_ok());
    }

    #[test]
    fn output_files_open_before_anything_runs() {
        for flag in ["--json", "--csv", "--bench-json"] {
            let path = "no-such-dir-for-mot3d-tests/out";
            let (cmd, opts) = parsed(&format!("fig6 --scale tiny {flag} {path}"));
            let err = Ctx::new(cmd, &opts)
                .err()
                .expect("the directory is missing");
            assert!(err.to_string().starts_with(path), "{flag}: {err}");
        }
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
            let (cmd, opts) = parsed(args);
            Ctx::new(cmd, &opts).unwrap().ablation_seed
        };
        assert_eq!(seed_of("ablation"), SimConfig::date16().seed);
        assert_eq!(seed_of("ablation --scale tiny"), SimConfig::date16().seed);
        assert_eq!(seed_of("ablation --seed 9"), 9);
    }

    #[test]
    fn rejects_unknown_commands_flags_and_values() {
        for args in [
            "fig9",
            "fig7 --wat 3",
            "fig7 --scale nope",
            "fig7 --threads 0",
            "fig7 --scale",
            "sweep --bench nonesuch",
        ] {
            assert!(is_bad(args), "{args}");
        }
    }

    #[test]
    fn help_takes_priority() {
        for args in [
            "",
            "help",
            "fig7 --help",
            "serve --help",
            "perf help",
            "perf check -h",
        ] {
            assert!(
                matches!(parse(&argv(args)), Err(UsageError::Help)),
                "{args}"
            );
        }
        assert!(is_bad("perf"), "`perf` alone names no subcommand");
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

    #[test]
    fn serve_flags_parse() {
        let (cmd, opts) =
            parsed("serve --addr 127.0.0.1:0 --cache-dir /tmp/x --threads 3 --accept-limit 2");
        assert_eq!(cmd, Cmd::Serve);
        let c = server_config(&opts);
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.cache_dir, PathBuf::from("/tmp/x"));
        assert_eq!(c.threads, Some(3));
        assert_eq!(c.accept_limit, Some(2));
        assert!(!c.faults.is_active(), "no fault flag, no fault plan");
        assert!(is_bad("serve --threads 0"));
        assert!(is_bad("serve --nope 1"));
        assert!(is_bad("serve --addr"), "missing value");
        assert!(is_bad("serve --bench fft"), "serve takes no grid");
    }

    #[test]
    fn serve_fault_flags_build_a_plan() {
        let (_, opts) = parsed("serve --fault point@0,store@2");
        assert!(server_config(&opts).faults.is_active());
        assert!(is_bad("serve --fault bogus@x"));
        assert!(is_bad("serve --fault-seed 42"), "--fault-seed is gone");
        assert_eq!(run(argv("serve --fault-seed 1")), 2);
    }

    #[test]
    fn submit_flags_build_the_request() {
        let (cmd, opts) = parsed(
            "submit --addr 127.0.0.1:7 --plan p --bench fft --dram all --scale tiny --seed 9 \
             --repeat 2 --retries 3 --backoff 50",
        );
        assert_eq!(cmd, Cmd::Submit);
        assert_eq!(opts.addr, "127.0.0.1:7");
        let req = &opts.grid;
        assert_eq!(req.name, "p");
        assert_eq!(req.bench.as_deref(), Some("fft"));
        assert_eq!(req.dram.as_deref(), Some("all"));
        assert_eq!(req.scale.as_deref(), Some("tiny"));
        assert_eq!(req.seed, Some(9));
        assert_eq!(req.repeat, Some(2));
        assert_eq!(opts.retry.retries, 3);
        assert_eq!(opts.retry.backoff, Duration::from_millis(50));
        for traced in [
            "submit --trace",
            "submit --bench fft --trace --scale tiny",
            "submit --trace out/",
        ] {
            assert!(is_bad(traced), "the service does not trace: {traced}");
        }
        assert!(
            is_bad("submit --bench nonesuch"),
            "axis values are validated before dialing"
        );
        assert!(
            is_bad("submit --interconnect mesh --power-state pc4-mb8"),
            "so are combinations the simulator rejects"
        );
        for args in [
            "submit --repeat 0",
            "submit --retries x",
            "submit --backoff 0",
            "submit --threads 2",
            "submit --json out.jsonl",
        ] {
            assert!(is_bad(args), "{args}");
        }
    }

    #[test]
    fn defaults_target_the_local_server() {
        let (_, opts) = parsed("submit");
        assert_eq!(opts.addr, "127.0.0.1:4016");
        assert_eq!(opts.grid, PlanRequest::new("sweep"));
        assert_eq!(opts.retry, RetryPolicy::default());
    }

    #[test]
    fn shutdown_takes_only_an_addr() {
        assert_eq!(parsed("shutdown").1.addr, "127.0.0.1:4016");
        assert_eq!(parsed("shutdown --addr 10.0.0.1:9").1.addr, "10.0.0.1:9");
        assert!(is_bad("shutdown --nope 1"));
        assert!(is_bad("shutdown --threads 2"));
    }

    #[test]
    fn args_parse_all_forms() {
        let (cmd, opts) = parsed("perf check --against b.json --threads 2");
        assert_eq!(cmd, Cmd::Perf);
        assert_eq!(opts.against, "b.json");
        assert_eq!(opts.threads, Some(2));
        let (_, opts) = parsed("perf check");
        assert_eq!(opts.against, "BENCH_results.json");
        assert_eq!(opts.threads, None);
        assert!(is_bad("perf chekc"));
        assert!(is_bad("perf check --threads 0"));
    }

    #[test]
    fn the_wall_gate_flags_are_gone() {
        for removed in ["perf check --checksum-only", "perf check --max-regress 10"] {
            match parse(&argv(removed)) {
                Err(UsageError::Bad(msg)) => assert!(msg.contains("unknown option"), "{msg}"),
                other => panic!("{removed:?} parsed as {other:?}"),
            }
            assert_eq!(run(argv(removed)), 2, "{removed:?}");
        }
    }

    #[test]
    fn sweep_trace_and_submit_read_the_grid_identically() {
        let flags = "--bench fft --interconnect all --page both --repeat 2 --seed 9 --scale tiny";
        let grid = |cmd: &str| parsed(&format!("{cmd} {flags}")).1.grid;
        let sweep = grid("sweep");
        assert_eq!(sweep, grid("submit"));
        assert_eq!(
            PlanRequest {
                name: "sweep".to_string(),
                ..grid("trace")
            },
            sweep
        );
        let plan = sweep.to_plan().unwrap();
        assert_eq!(plan.len(), 16);
        assert_eq!(plan.points()[0].config.seed, 9);
    }

    #[test]
    fn submit_help_lists_every_paper_power_state() {
        let help = usage(Some("submit"));
        for state in ["full", "pc16-mb8", "pc4-mb32", "pc4-mb8"] {
            assert!(help.contains(state), "{state}");
        }
        assert!(help.contains(GRID_HELP) && usage(None).contains(GRID_HELP));
    }

    #[test]
    fn top_level_help_names_every_subcommand() {
        let help = usage(None);
        for (word, _) in COMMANDS {
            assert!(help.contains(&format!("\n  {word} ")), "{word}");
        }
        assert_eq!(run(argv("help")), 0);
    }

    #[test]
    fn lint_is_not_a_subcommand() {
        assert!(is_bad("lint"));
        assert_eq!(run(argv("lint")), 2);
        assert_eq!(run(argv("lint --json")), 2);
    }
}
