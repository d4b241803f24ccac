//! The six workloads as the end-to-end run drives them: through the
//! same opaque calls a user makes (`ExperimentPlan::run_with`,
//! `client::submit`), with every output byte checked.

use crate::claims::claim_err_pp;
use crate::spec::Workload;
use mot3d_bench::perf::{Recorder, SweepRecord};
use mot3d_bench::perfcheck::Baseline;
use mot3d_bench::plan::{ExperimentPlan, RunRecord};
use mot3d_bench::sink::{JsonLinesSink, PerfSink, RecordSink};
use mot3d_bench::ExperimentScale;
use mot3d_mem::dram::DramKind;
use mot3d_serve::{client, PlanOutcome, PlanRequest, ServerConfig};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What every workload of one run shares.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Tiny scale and a smaller short-points grid (the test mode).
    pub smoke: bool,
    /// `N = min(nproc, 4)`: worker threads of the threaded workloads.
    pub threads: usize,
    /// Directory for cache dirs and trace files; everything the run
    /// creates there is removed again.
    pub tmp_root: PathBuf,
    /// The committed `BENCH_results.json`, when it could be read.
    pub reference: Option<Baseline>,
}

impl Env {
    /// Scale of the three paper-grid workloads.
    pub fn fig_scale(&self) -> ExperimentScale {
        let base = if self.smoke {
            ExperimentScale::tiny()
        } else {
            ExperimentScale::default()
        };
        ExperimentScale {
            seed: self.seed,
            ..base
        }
    }

    /// The short-points grid as a submission: 8 SPLASH × 4 power states
    /// × 3 DRAM × 2 page policies × 4 repeats at tiny scale.
    pub fn short_request(&self) -> PlanRequest {
        PlanRequest {
            power_state: Some("all".to_string()),
            dram: Some("all".to_string()),
            page: Some("both".to_string()),
            repeat: Some(if self.smoke { 1 } else { 4 }),
            scale: Some("tiny".to_string()),
            seed: Some(self.seed),
            ..PlanRequest::new("short_points")
        }
    }

    /// The sweeps one pass of `workload` runs, in order.
    pub fn sweeps(&self, workload: Workload) -> Vec<ExperimentPlan> {
        let scale = self.fig_scale();
        match workload {
            Workload::Fig6Interconnects => vec![ExperimentPlan::fig6(scale)],
            Workload::Fig7PowerStates => vec![ExperimentPlan::fig7(scale)],
            Workload::PaperGridNt => vec![
                ExperimentPlan::fig6(scale),
                ExperimentPlan::fig7(scale),
                ExperimentPlan::fig8_at(scale, DramKind::WideIo),
                ExperimentPlan::fig8_at(scale, DramKind::Weis3d),
                ExperimentPlan::open_page_at(scale, DramKind::OffChipDdr3),
            ],
            Workload::ShortPoints | Workload::ServeCold | Workload::ServeWarm => {
                vec![self
                    .short_request()
                    .to_plan()
                    .expect("the short-points request names valid axes")]
            }
        }
    }

    /// Worker threads of `workload`'s timed samples.
    pub fn threads_of(&self, workload: Workload) -> usize {
        match workload {
            Workload::PaperGridNt | Workload::ServeCold | Workload::ServeWarm => self.threads,
            _ => 1,
        }
    }

    /// A fresh directory name under the temp root (not yet created).
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.tmp_root
            .join(format!("{tag}-{}-{n}", std::process::id()))
    }
}

/// A byte sink that notes when the first record line starts to arrive:
/// the first byte written after the plan header's newline.
#[derive(Debug, Default)]
pub struct StreamTap {
    /// Everything written so far.
    pub bytes: Vec<u8>,
    header_done: bool,
    first_record: Option<Instant>,
}

impl StreamTap {
    /// `started` → the first record byte, if one arrived.
    pub fn first_record_since(&self, started: Instant) -> Option<Duration> {
        self.first_record
            .map(|t| t.saturating_duration_since(started))
    }
}

impl Write for StreamTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.first_record.is_none() {
            let record_bytes = if self.header_done {
                buf.len()
            } else {
                match buf.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        self.header_done = true;
                        buf.len() - nl - 1
                    }
                    None => 0,
                }
            };
            if record_bytes > 0 {
                self.first_record = Some(Instant::now());
            }
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Everything one pass over a workload's sweeps produced.
#[derive(Debug)]
pub struct PassOutput {
    /// The JSON-lines streams of all sweeps, concatenated.
    pub stream: Vec<u8>,
    /// Per sweep: name, rows and the FNV-1a-64 of its record lines, as
    /// `mot3d perf check` computes them.
    pub checksums: Vec<SweepRecord>,
    /// Per sweep: its records in expansion order.
    pub records: Vec<(String, Vec<RunRecord>)>,
    /// Pass start → first record line written.
    pub first_record: Duration,
    /// Wall-clock of the pass.
    pub wall: Duration,
}

impl PassOutput {
    /// Σ `Metrics.cycles` over the pass.
    pub fn cycles(&self) -> u64 {
        self.records
            .iter()
            .flat_map(|(_, r)| r)
            .map(|r| r.metrics.cycles)
            .sum()
    }

    /// Run points of the pass.
    pub fn points(&self) -> usize {
        self.records.iter().map(|(_, r)| r.len()).sum()
    }

    /// The simulator's stated error over the claims the pass covers.
    pub fn claim_err_pp(&self) -> f64 {
        let sweeps: Vec<(&str, &[RunRecord])> = self
            .records
            .iter()
            .map(|(n, r)| (n.as_str(), r.as_slice()))
            .collect();
        claim_err_pp(&sweeps).expect("every workload's grid covers Fig. 6 or Fig. 7")
    }
}

/// One offline pass: every plan through `run_with` on `threads`
/// workers, into an in-memory JSON-lines sink and the perf-check
/// checksummer.
pub fn offline_pass(plans: &[ExperimentPlan], threads: usize) -> io::Result<PassOutput> {
    let started = Instant::now();
    let mut tap = StreamTap::default();
    let mut recorder = Recorder::new(0.0, threads);
    let mut records = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut json = JsonLinesSink::new(&mut tap);
        let mut perf = PerfSink::new(&mut recorder, plan.name());
        let sinks: &mut [&mut dyn RecordSink] = &mut [&mut json, &mut perf];
        let run = plan
            .clone()
            .threads(threads)
            .run_with(sinks, |_, _, _| {})?;
        records.push((plan.name().to_string(), run));
    }
    let wall = started.elapsed();
    Ok(PassOutput {
        first_record: tap.first_record_since(started).unwrap_or(wall),
        stream: tap.bytes,
        checksums: recorder.sweeps().to_vec(),
        records,
        wall,
    })
}

/// Compares a pass's checksums with the committed reference; returns
/// one message per sweep that differs. Sweeps the reference does not
/// name are not checked.
pub fn check_reference(reference: &Baseline, pass: &PassOutput) -> Vec<String> {
    let mut failures = Vec::new();
    for ours in &pass.checksums {
        let Some(want) = reference.sweeps.iter().find(|s| s.name == ours.name) else {
            continue;
        };
        if ours.checksum != want.checksum || ours.rows != want.rows {
            failures.push(format!(
                "{}: checksum {} over {} rows, reference has {} over {}",
                ours.name, ours.checksum, ours.rows, want.checksum, want.rows
            ));
        }
    }
    failures
}

/// One timed sample: a pass of an offline workload, or one submission.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock of the sample.
    pub wall: Duration,
    /// Sample start → first record line at the consumer.
    pub first_record: Duration,
    /// Whether every check on the sample's output held.
    pub ok: bool,
}

/// What a workload's records say once measuring is over.
#[derive(Debug)]
pub struct Checked {
    /// One message per check that failed after measuring (reference
    /// checksums, the offline cross-check of a served stream).
    pub failures: Vec<String>,
    /// Run points per sample.
    pub points: usize,
    /// Σ `Metrics.cycles` per sample.
    pub cycles: u64,
    /// The simulator's stated error on the workload's records.
    pub claim_err_pp: f64,
}

impl Checked {
    fn of(pass: &PassOutput, failures: Vec<String>) -> Self {
        Checked {
            failures,
            points: pass.points(),
            cycles: pass.cycles(),
            claim_err_pp: pass.claim_err_pp(),
        }
    }
}

/// A workload as the end-to-end harness drives it.
pub trait Driver {
    /// Everything before the first timed sample. May be called again:
    /// it then discards what the previous call built.
    fn setup(&mut self) -> io::Result<()>;
    /// One timed sample, checked.
    fn sample(&mut self) -> io::Result<Sample>;
    /// Releases what the workload still holds and runs the checks left
    /// for after measuring.
    fn finish(&mut self) -> io::Result<Checked>;
}

/// Builds the driver of `workload`.
pub fn driver(workload: Workload, env: &Env) -> Box<dyn Driver> {
    if workload.is_served() {
        Box::new(Served::new(workload, env))
    } else {
        Box::new(Offline::new(workload, env))
    }
}

/// The four offline sweep workloads.
struct Offline {
    workload: Workload,
    env: Env,
    plans: Vec<ExperimentPlan>,
    /// The cold pass: the byte reference of every timed pass.
    cold: Option<PassOutput>,
}

impl Offline {
    fn new(workload: Workload, env: &Env) -> Self {
        Offline {
            workload,
            env: env.clone(),
            plans: Vec::new(),
            cold: None,
        }
    }

    fn cold(&self) -> &PassOutput {
        self.cold.as_ref().expect("setup ran")
    }
}

impl Driver for Offline {
    fn setup(&mut self) -> io::Result<()> {
        // A repeated set-up must build its clusters again.
        mot3d_sim::shrink_local_pool(0);
        self.plans = self.env.sweeps(self.workload);
        // The cold pass always runs on one thread, so on the threaded
        // workload it is also the reference that proves the N-thread
        // stream equals the 1-thread stream.
        self.cold = Some(offline_pass(&self.plans, 1)?);
        Ok(())
    }

    fn sample(&mut self) -> io::Result<Sample> {
        let pass = offline_pass(&self.plans, self.env.threads_of(self.workload))?;
        Ok(Sample {
            wall: pass.wall,
            first_record: pass.first_record,
            ok: pass.stream == self.cold().stream,
        })
    }

    fn finish(&mut self) -> io::Result<Checked> {
        let failures = match &self.env.reference {
            Some(reference) => check_reference(reference, self.cold()),
            None => Vec::new(),
        };
        Ok(Checked::of(self.cold(), failures))
    }
}

/// An in-process `mot3d serve` on a loopback port over its own cache
/// directory.
#[derive(Debug)]
pub struct Server {
    /// `host:port` to submit to.
    pub addr: String,
    /// The cache directory (removed by [`Server::stop`]).
    pub dir: PathBuf,
    handle: JoinHandle<()>,
}

impl Server {
    /// Binds on `127.0.0.1:0` over `dir` and starts the accept loop.
    pub fn start(dir: PathBuf, threads: usize) -> io::Result<Server> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: Some(threads),
            ..ServerConfig::new(&dir)
        };
        let bound = config.bind()?;
        let addr = bound.local_addr()?.to_string();
        let handle = std::thread::spawn(move || bound.run());
        Ok(Server { addr, dir, handle })
    }

    /// Drains the server and waits for it; the cache directory stays.
    pub fn shutdown(self) -> io::Result<PathBuf> {
        client::shutdown(&self.addr)?;
        self.handle
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        Ok(self.dir)
    }

    /// Drains the server, waits for it and removes its cache directory.
    pub fn stop(self) -> io::Result<()> {
        let dir = self.shutdown()?;
        remove_dir(&dir)
    }
}

/// Removes a scratch directory that may not exist.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// One finished `client::submit`.
#[derive(Debug)]
pub struct Submission {
    /// The summary line's counters.
    pub outcome: PlanOutcome,
    /// Header and record lines, as the client wrote them out.
    pub stream: Vec<u8>,
    /// Before the connect → summary line parsed.
    pub wall: Duration,
    /// Before the connect → first record line written out.
    pub first_record: Duration,
}

impl Submission {
    /// Whether the counters are `want` and the stream is `reference`.
    pub fn is(&self, want: &PlanOutcome, reference: &[u8]) -> bool {
        self.outcome == *want && self.stream == reference
    }
}

/// The counters of a submission of `points` points all of which were
/// executed (`cold`) or all of which hit the store.
pub fn outcome_of(points: usize, cold: bool) -> PlanOutcome {
    let n = points as u64;
    PlanOutcome {
        points: n,
        executed: if cold { n } else { 0 },
        hits: if cold { 0 } else { n },
        ..PlanOutcome::default()
    }
}

/// One `client::submit`, timed.
pub fn timed_submit(addr: &str, request: &PlanRequest) -> io::Result<Submission> {
    let started = Instant::now();
    let mut tap = StreamTap::default();
    let outcome = client::submit(addr, request, &mut tap)?;
    let wall = started.elapsed();
    Ok(Submission {
        outcome,
        first_record: tap.first_record_since(started).unwrap_or(wall),
        stream: tap.bytes,
        wall,
    })
}

/// The two serve workloads.
struct Served {
    workload: Workload,
    env: Env,
    request: PlanRequest,
    points: usize,
    /// `serve_warm`'s long-lived server.
    server: Option<Server>,
    /// The first cold submission's stream: the byte reference of every
    /// timed submission, itself checked against the offline sweep.
    first: Vec<u8>,
}

impl Served {
    fn new(workload: Workload, env: &Env) -> Self {
        Served {
            workload,
            env: env.clone(),
            request: env.short_request(),
            points: 0,
            server: None,
            first: Vec::new(),
        }
    }

    fn start_server(&self) -> io::Result<Server> {
        Server::start(self.env.scratch_dir("cache"), self.env.threads)
    }
}

impl Driver for Served {
    fn setup(&mut self) -> io::Result<()> {
        if let Some(old) = self.server.take() {
            old.stop()?;
        }
        self.points = self.request.to_plan().map_err(io::Error::other)?.len();
        let server = self.start_server()?;
        let cold = timed_submit(&server.addr, &self.request)?;
        if cold.outcome != outcome_of(self.points, true) {
            return Err(io::Error::other(format!(
                "the populating submission did not execute every point: {:?}",
                cold.outcome
            )));
        }
        self.first = cold.stream;
        match self.workload {
            Workload::ServeWarm => self.server = Some(server),
            _ => server.stop()?,
        }
        Ok(())
    }

    fn sample(&mut self) -> io::Result<Sample> {
        let (submission, cold) = match &self.server {
            Some(server) => (timed_submit(&server.addr, &self.request)?, false),
            None => {
                // serve_cold: the fresh server and its removal are not timed.
                let server = self.start_server()?;
                let submission = timed_submit(&server.addr, &self.request)?;
                server.stop()?;
                (submission, true)
            }
        };
        Ok(Sample {
            wall: submission.wall,
            first_record: submission.first_record,
            ok: submission.is(&outcome_of(self.points, cold), &self.first),
        })
    }

    fn finish(&mut self) -> io::Result<Checked> {
        if let Some(server) = self.server.take() {
            server.stop()?;
        }
        let offline = offline_pass(&self.env.sweeps(self.workload), 1)?;
        let mut failures = Vec::new();
        if offline.stream != self.first {
            failures.push("the served stream differs from the offline sweep's".to_string());
        }
        Ok(Checked::of(&offline, failures))
    }
}
