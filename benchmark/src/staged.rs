//! The traced run: the opaque `run_with` / `submit` call replaced by
//! the same public calls made one by one, each under a span. The staged
//! record stream must pass the same byte checks as the real one.

use crate::spans::{Recorder, Span};
use crate::workloads::{remove_dir, timed_submit, Env, Server};
use mot3d_bench::plan::{ExperimentPlan, RunPoint, RunRecord};
use mot3d_bench::pool;
use mot3d_bench::sink::{JsonLinesSink, PlanMeta, RecordSink};
use mot3d_bench::ExperimentScale;
use mot3d_phys::fnv::FnvHashMap;
use mot3d_serve::protocol::{self, PlanRequest};
use mot3d_serve::{cache_key, Fingerprint, PlanOutcome, ResultStore, StoreStats};
use mot3d_sim::{Cluster, InterconnectChoice, Metrics, SimConfig, SimError};
use mot3d_workloads::streams;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

/// Span names that only group others; their self time is overhead the
/// ledger does not attribute.
pub const STRUCTURAL: [&str; 3] = ["pass", "bench.pool.section", "bench.pool.job"];

/// A worker's wait from its last job to the end of a parallel section.
pub const TAIL_IDLE: &str = "bench.pool.tail_idle";

/// The benchmark's own cluster cache, with `ClusterPool`'s policy: one
/// cluster per distinct `SimConfig`, least recently used evicted first.
/// It exists so that `Cluster::new`, `reset`, `run_to_completion` and
/// `metrics` can be timed apart, which `ClusterPool::run_spec` hides.
#[derive(Default)]
struct ClusterCache {
    clusters: FnvHashMap<SimConfig, (Cluster, u64)>,
    tick: u64,
}

impl ClusterCache {
    fn run_point(&mut self, p: &RunPoint, rec: &mut Recorder) -> Result<Metrics, SimError> {
        let active = p.config.power_state.active_cores();
        let fresh = rec.time("workloads.streams", || {
            streams(&p.spec, active, p.config.seed)
        });
        self.tick += 1;
        let tick = self.tick;
        let cluster = match self.clusters.entry(p.config) {
            Entry::Occupied(e) => {
                let (cluster, used) = e.into_mut();
                rec.time("sim.cluster_reset", || cluster.reset(fresh))?;
                *used = tick;
                cluster
            }
            Entry::Vacant(v) => {
                let built = rec.time("sim.cluster_new", || Cluster::new(p.config, fresh))?;
                &mut v.insert((built, tick)).0
            }
        };
        rec.time("sim.run", || cluster.run_to_completion())?;
        Ok(rec.time("sim.verify_metrics", || {
            cluster.verify_against_golden();
            cluster.metrics(format!(
                "{} @ {} @ {} @ {}",
                p.spec.name, p.config.interconnect, p.config.power_state, p.config.dram
            ))
        }))
    }

    fn shrink_to(&mut self, n: usize) {
        while self.clusters.len() > n {
            let lru = self
                .clusters
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&config, _)| config)
                .expect("a non-empty map has a minimum");
            self.clusters.remove(&lru);
        }
    }
}

thread_local! {
    /// Per thread, like the `ClusterPool` behind `run_spec`: pool
    /// workers are scoped to one sweep and take their cache with them.
    static CACHE: RefCell<ClusterCache> = RefCell::new(ClusterCache::default());
}

/// Drops the calling thread's cached clusters down to `n`.
pub fn shrink_local_cache(n: usize) {
    CACHE.with(|c| c.borrow_mut().shrink_to(n));
}

/// What one job on the pool hands back.
struct Job {
    metrics: Metrics,
    spans: Vec<Span>,
    thread: ThreadId,
}

/// Simulates `points` on `threads` pool workers, each point as staged
/// calls under a `bench.pool.job` span; every worker's idle tail is
/// recorded as a [`TAIL_IDLE`] span. `cap` bounds every worker's cluster
/// cache after each point, as `mot3d serve` bounds its workers' pools.
fn simulate_points(
    points: &[RunPoint],
    threads: usize,
    cap: Option<usize>,
    rec: &mut Recorder,
) -> io::Result<Vec<Metrics>> {
    let (epoch, pass) = (rec.epoch(), rec.pass());
    let section = rec.begin("bench.pool.section");
    let jobs = pool::parallel_map_streamed_on(
        threads,
        points.len(),
        |i| {
            let mut rec = Recorder::on(epoch, pass);
            let job = rec.begin("bench.pool.job");
            let metrics = CACHE.with(|c| {
                let mut cache = c.borrow_mut();
                let metrics = cache.run_point(&points[i], &mut rec);
                if let Some(cap) = cap {
                    cache.shrink_to(cap);
                }
                metrics
            });
            rec.end(job);
            metrics.map(|metrics| Job {
                metrics,
                spans: rec.into_spans(),
                thread: std::thread::current().id(),
            })
        },
        |_, _| {},
    );
    let section_end = rec.now_ns();
    // The driving thread is 0; pool workers count from 1 in the order
    // of their first job.
    let main = std::thread::current().id();
    let mut workers: Vec<(ThreadId, u64)> = Vec::new(); // thread, last job end
    let mut metrics = Vec::with_capacity(jobs.len());
    for job in jobs {
        let job = job.map_err(io::Error::other)?;
        let end = job.spans[0].end_ns;
        let w = match workers.iter().position(|(t, _)| *t == job.thread) {
            Some(w) => w,
            None => {
                workers.push((job.thread, 0));
                workers.len() - 1
            }
        };
        workers[w].1 = workers[w].1.max(end);
        let tid = if job.thread == main { 0 } else { w as u32 + 1 };
        rec.adopt(job.spans, tid);
        metrics.push(job.metrics);
    }
    for (w, (thread, last_end)) in workers.into_iter().enumerate() {
        let tid = if thread == main { 0 } else { w as u32 + 1 };
        rec.record(TAIL_IDLE, last_end.min(section_end), section_end, tid);
    }
    rec.end(section);
    Ok(metrics)
}

/// Exact simulated counts of one pass, summed from `Metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Σ cycles.
    pub cycles: u64,
    /// Σ instructions.
    pub instructions: u64,
    /// Σ L1 hits + misses.
    pub l1_accesses: u64,
    /// Σ L2 hits.
    pub l2_hits: u64,
    /// Σ L2 hits + misses.
    pub l2_accesses: u64,
    /// Σ DRAM accesses.
    pub dram_accesses: u64,
    /// Σ invalidations + recalls.
    pub coherence_events: u64,
    /// Σ requests injected into the 3-D MoT.
    pub mot_requests: u64,
    /// Σ requests injected into a packet-switched baseline.
    pub noc_requests: u64,
}

impl Counts {
    fn of(points: &[RunPoint], metrics: &[Metrics]) -> Self {
        let mut counts = Counts::default();
        for (p, m) in points.iter().zip(metrics) {
            counts.add(p, m);
        }
        counts
    }

    fn add(&mut self, p: &RunPoint, m: &Metrics) {
        self.cycles += m.cycles;
        self.instructions += m.instructions;
        self.l1_accesses += m.l1_hits + m.l1_misses;
        self.l2_hits += m.l2_hits;
        self.l2_accesses += m.l2_hits + m.l2_misses;
        self.dram_accesses += m.dram_accesses;
        self.coherence_events += m.invalidations + m.recalls;
        match p.config.interconnect {
            InterconnectChoice::Mot => self.mot_requests += m.interconnect.requests,
            InterconnectChoice::Noc(_) => self.noc_requests += m.interconnect.requests,
        }
    }
}

/// `RunRecord::new` + `JsonLinesSink::record` over a finished sweep,
/// header and all, into `out`.
fn encode(
    out: &mut Vec<u8>,
    name: &str,
    scale: ExperimentScale,
    points: &[RunPoint],
    metrics: Vec<Metrics>,
) -> io::Result<()> {
    let mut sink = JsonLinesSink::new(out);
    sink.begin(&PlanMeta {
        plan: name,
        points: points.len(),
        scale: scale.scale,
        seed: scale.seed,
    })?;
    for (p, m) in points.iter().zip(metrics) {
        sink.record(&RunRecord::new(p.clone(), m))?;
    }
    sink.finish()
}

/// What one staged pass produced.
#[derive(Debug, Default)]
pub struct StagedPass {
    /// The JSON-lines stream (served passes: without the summary line).
    pub stream: Vec<u8>,
    /// Exact simulated counts.
    pub counts: Counts,
}

/// One staged pass of an offline workload: what `run_with` does for
/// every plan, call by call.
pub fn offline_pass(
    plans: &[ExperimentPlan],
    scale: ExperimentScale,
    threads: usize,
    rec: &mut Recorder,
) -> io::Result<StagedPass> {
    let mut out = StagedPass::default();
    let pass = rec.begin("pass");
    for plan in plans {
        let points = rec.time("bench.plan.expand", || plan.check().map(|()| plan.points()));
        let points = points.map_err(io::Error::other)?;
        let metrics = simulate_points(&points, threads, None, rec)?;
        for (p, m) in points.iter().zip(&metrics) {
            out.counts.add(p, m);
        }
        let encode_span = rec.begin("bench.sink.encode");
        encode(&mut out.stream, plan.name(), scale, &points, metrics)?;
        rec.end(encode_span);
        // As `run_with` ends: ad-hoc grids must not keep every
        // configuration they visited alive on the calling thread.
        shrink_local_cache(8);
    }
    rec.end(pass);
    Ok(out)
}

/// A loopback connection whose far end is drained by a reader thread —
/// what the server's response writer sees.
pub struct Loopback {
    listener: TcpListener,
}

impl Loopback {
    /// Listens on a free loopback port.
    pub fn new() -> io::Result<Self> {
        Ok(Loopback {
            listener: TcpListener::bind("127.0.0.1:0")?,
        })
    }

    /// Writes and flushes `bytes` through a fresh connection under a
    /// `serve.server.write` span; returns what the reader received.
    pub fn send(&self, bytes: &[u8], rec: &mut Recorder) -> io::Result<Vec<u8>> {
        let client = TcpStream::connect(self.listener.local_addr()?)?;
        let (server, _) = self.listener.accept()?;
        let reader = std::thread::spawn(move || {
            let mut received = Vec::new();
            let mut client = client;
            client.read_to_end(&mut received).map(|_| received)
        });
        let mut out = BufWriter::new(server);
        let write = rec.begin("serve.server.write");
        out.write_all(bytes)?;
        out.flush()?;
        rec.end(write);
        out.get_ref().shutdown(Shutdown::Write)?;
        reader
            .join()
            .map_err(|_| io::Error::other("reader thread panicked"))?
    }
}

/// The client's side of a received response: `parse_summary` over
/// every line, copying all but the summary. Returns the copied stream
/// and the summary's counters.
fn scan(received: &[u8], rec: &mut Recorder) -> io::Result<(Vec<u8>, PlanOutcome)> {
    let span = rec.begin("serve.client.scan");
    let mut stream = Vec::with_capacity(received.len());
    let mut summary = None;
    for line in received.lines() {
        let line = line?;
        match protocol::parse_summary(&line).map_err(io::Error::other)? {
            None => {
                stream.extend_from_slice(line.as_bytes());
                stream.push(b'\n');
            }
            Some(outcome) => summary = Some(outcome),
        }
    }
    rec.end(span);
    let summary = summary.ok_or_else(|| io::Error::other("staged response has no summary"))?;
    Ok((stream, summary))
}

/// The request's way from wire line to expanded, keyed points.
struct Parsed {
    request: PlanRequest,
    scale: ExperimentScale,
    points: Vec<RunPoint>,
    keys: Vec<mot3d_serve::CacheKey>,
}

fn parse_and_key(line: &str, rec: &mut Recorder) -> io::Result<Parsed> {
    let parse = rec.begin("serve.protocol.parse");
    let request = PlanRequest::parse(line).map_err(io::Error::other)?;
    let plan = request.to_plan().map_err(io::Error::other)?;
    plan.check().map_err(io::Error::other)?;
    let scale = request.resolved_scale().map_err(io::Error::other)?;
    rec.end(parse);
    let points = rec.time("bench.plan.expand", || plan.points());
    let fingerprint = Fingerprint::current();
    let keys = rec.time("serve.codec.key", || {
        points.iter().map(|p| cache_key(&fingerprint, p)).collect()
    });
    Ok(Parsed {
        request,
        scale,
        points,
        keys,
    })
}

/// Encodes the response (header, records, summary) and carries it over
/// the loopback to the client's scan.
fn respond(
    parsed: &Parsed,
    metrics: Vec<Metrics>,
    outcome: PlanOutcome,
    stats: StoreStats,
    wire: &Loopback,
    rec: &mut Recorder,
) -> io::Result<(Vec<u8>, PlanOutcome)> {
    let encode_span = rec.begin("bench.sink.encode");
    let mut response = Vec::new();
    encode(
        &mut response,
        &parsed.request.name,
        parsed.scale,
        &parsed.points,
        metrics,
    )?;
    writeln!(response, "{}", protocol::summary_line(outcome, stats, None))?;
    rec.end(encode_span);
    let received = wire.send(&response, rec)?;
    scan(&received, rec)
}

/// One staged warm request against an open, populated `store`: every
/// point is a `ResultStore::get` hit.
pub fn warm_request(
    line: &str,
    store: &mut ResultStore,
    wire: &Loopback,
    rec: &mut Recorder,
) -> io::Result<(StagedPass, PlanOutcome)> {
    let pass = rec.begin("pass");
    let parsed = parse_and_key(line, rec)?;
    let get = rec.begin("serve.store.get");
    let mut metrics = Vec::with_capacity(parsed.keys.len());
    for key in &parsed.keys {
        metrics.push(
            store
                .get(*key)?
                .ok_or_else(|| io::Error::other("staged warm request missed the store"))?,
        );
    }
    rec.end(get);
    let n = parsed.points.len() as u64;
    let outcome = PlanOutcome {
        points: n,
        hits: n,
        ..PlanOutcome::default()
    };
    let counts = Counts::of(&parsed.points, &metrics);
    let (stream, summary) = respond(&parsed, metrics, outcome, store.stats(), wire, rec)?;
    rec.end(pass);
    Ok((StagedPass { stream, counts }, summary))
}

/// One staged cold submission over a fresh store in `dir` (created and
/// removed here): every point misses, is simulated on `threads` pool
/// workers, and is put. Returns the pass, the summary the client side
/// parsed, and the store's bytes on disk per inserted point.
pub fn cold_pass(
    line: &str,
    dir: &Path,
    threads: usize,
    pool_capacity: Option<usize>,
    wire: &Loopback,
    rec: &mut Recorder,
) -> io::Result<(StagedPass, PlanOutcome, f64)> {
    let mut store = ResultStore::open(dir)?;
    let pass = rec.begin("pass");
    let parsed = parse_and_key(line, rec)?;
    let get = rec.begin("serve.store.get");
    for key in &parsed.keys {
        if store.get(*key)?.is_some() {
            return Err(io::Error::other("staged cold pass hit an empty store"));
        }
    }
    rec.end(get);
    let simulate = rec.begin("serve.exec.simulate");
    let metrics = simulate_points(&parsed.points, threads, pool_capacity, rec)?;
    rec.end(simulate);
    let put = rec.begin("serve.store.put");
    for (key, m) in parsed.keys.iter().zip(&metrics) {
        store.put(*key, m)?;
    }
    rec.end(put);
    let n = parsed.points.len() as u64;
    let outcome = PlanOutcome {
        points: n,
        executed: n,
        ..PlanOutcome::default()
    };
    let counts = Counts::of(&parsed.points, &metrics);
    let stats = store.stats();
    let (stream, summary) = respond(&parsed, metrics, outcome, stats, wire, rec)?;
    rec.end(pass);
    drop(store);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir)? {
        bytes += entry?.metadata()?.len();
    }
    remove_dir(dir)?;
    let per_point = bytes as f64 / stats.inserts.max(1) as f64;
    Ok((StagedPass { stream, counts }, summary, per_point))
}

/// `N` barrier-released identical cold submissions against one fresh
/// server: the in-flight table must make them simulate every point
/// exactly once between them. Returns the wall of the race and the
/// submissions' summed counters.
pub fn cold_race(env: &Env, request: &PlanRequest) -> io::Result<(f64, PlanOutcome)> {
    let server = Server::start(env.scratch_dir("race"), env.threads)?;
    let barrier = std::sync::Barrier::new(env.threads);
    let started = Instant::now();
    let outcomes: Vec<io::Result<PlanOutcome>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..env.threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    timed_submit(&server.addr, request).map(|s| s.outcome)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    server.stop()?;
    let mut sum = PlanOutcome::default();
    for outcome in outcomes {
        let o = outcome?;
        sum.points += o.points;
        sum.hits += o.hits;
        sum.waited += o.waited;
        sum.executed += o.executed;
        sum.failed += o.failed;
    }
    Ok((wall, sum))
}
