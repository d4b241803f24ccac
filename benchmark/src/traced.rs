//! The traced run of one workload: kernels first, then a few untraced
//! samples for the base line, then the staged passes whose spans make
//! the per-layer ledger.

use crate::kernels;
use crate::run::{measure, reference_note, Options, Report, Value};
use crate::spans::{self_times_ns, write_chrome, Recorder, Span};
use crate::spec::{Workload, PER_LAYER};
use crate::staged::{self, Counts, Loopback, STRUCTURAL, TAIL_IDLE};
use crate::stats::median;
use crate::workloads::{self, check_reference, outcome_of, remove_dir, timed_submit, Env, Server};
use mot3d_serve::{PlanOutcome, PlanRequest, ResultStore, ServerConfig};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Share of the measuring time the untraced samples get; the staged
/// passes get the rest.
const UNTRACED_SHARE: f64 = 0.4;

/// Σ duration and count of each span name within one staged pass.
#[derive(Debug, Default)]
struct PassSums {
    wall_ns: u64,
    by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl PassSums {
    fn ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(ns, _)| *ns as f64 / 1e6)
    }

    fn count(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |(_, n)| *n as f64)
    }

    fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    /// Σ of every span that is not structural: the attributed time.
    fn attributed_ms(&self) -> f64 {
        self.by_name
            .keys()
            .filter(|name| !STRUCTURAL.contains(name))
            .map(|name| self.ms(name))
            .sum()
    }
}

/// The staged passes of one run, by pass number.
struct Passes(Vec<PassSums>);

impl Passes {
    fn of(spans: &[Span]) -> Self {
        let mut passes: BTreeMap<u32, PassSums> = BTreeMap::new();
        for s in spans {
            let sums = passes.entry(s.pass).or_default();
            if s.name == "pass" {
                sums.wall_ns = s.dur_ns();
            }
            let slot = sums.by_name.entry(s.name).or_default();
            slot.0 += s.dur_ns();
            slot.1 += 1;
        }
        Passes(passes.into_values().collect())
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Median over the passes of `f`.
    fn median(&self, f: impl Fn(&PassSums) -> f64) -> f64 {
        median(&self.0.iter().map(f).collect::<Vec<_>>())
    }
}

/// The per-layer values of one traced run; a metric never set reads 0.
#[derive(Default)]
struct Ledger {
    values: BTreeMap<&'static str, (f64, usize, String)>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.note(name, value, n, String::new());
    }

    fn note(&mut self, name: &'static str, value: f64, n: usize, note: String) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, (value, n, note));
    }

    /// Sets each `(metric, span)` to the median over the passes of the
    /// span's total in ms, noted with its share of `base_ms`.
    fn spans_ms(
        &mut self,
        table: &[(&'static str, &str)],
        passes: &Passes,
        base_ms: f64,
        base: &str,
    ) {
        for (metric, span) in table {
            let ms = passes.median(|p| p.ms(span));
            let share = format!("{:.2} % of {base}", 100.0 * ms / base_ms);
            self.note(metric, ms, passes.len(), share);
        }
    }

    fn counts(&mut self, c: &Counts, passes: &Passes) {
        for (name, v) in [
            ("sim.cycles", c.cycles),
            ("sim.instructions", c.instructions),
            ("mem.l1_accesses", c.l1_accesses),
            ("mem.l2_accesses", c.l2_accesses),
            ("mem.dram_accesses", c.dram_accesses),
            ("mem.coherence_events", c.coherence_events),
            ("mot.requests", c.mot_requests),
            ("noc.requests", c.noc_requests),
        ] {
            self.set(name, v as f64, 1);
        }
        self.set(
            "mem.l2_hit_ratio",
            c.l2_hits as f64 / c.l2_accesses as f64,
            1,
        );
        let n = passes.len();
        // Host time per simulated event: Σ `sim.run` over the exact counts.
        let run_ns = passes.median(|p| p.ms("sim.run")) * 1e6;
        self.set("sim.host_ns_per_cycle", run_ns / c.cycles as f64, n);
        self.set("sim.host_ns_per_instr", run_ns / c.instructions as f64, n);
        self.set("sim.host_ns_per_l2_tx", run_ns / c.l2_accesses as f64, n);
        self.set(
            "sim.clusters_built",
            passes.median(|p| p.count("sim.cluster_new")),
            n,
        );
        self.set(
            "sim.resets",
            passes.median(|p| p.count("sim.cluster_reset")),
            n,
        );
    }

    /// Pool use over a capacity of `capacity_ms(pass)` worker-ms.
    fn pool(&mut self, passes: &Passes, capacity_ms: impl Fn(&PassSums) -> f64) {
        let n = passes.len();
        self.set(
            "bench.pool.busy_ms",
            passes.median(|p| p.ms("bench.pool.job")),
            n,
        );
        self.set(
            "bench.pool.tail_idle_ms",
            passes.median(|p| p.ms(TAIL_IDLE)),
            n,
        );
        self.set(
            "bench.pool.parallel_efficiency",
            passes.median(|p| p.ms("bench.pool.job") / capacity_ms(p)),
            n,
        );
    }

    fn into_values(self) -> Vec<Value> {
        PER_LAYER
            .iter()
            .map(|m| {
                let (value, n, note) = self.values.get(m.name).cloned().unwrap_or_default();
                Value {
                    name: m.name,
                    value,
                    unit: m.unit,
                    n,
                    note,
                }
            })
            .collect()
    }
}

/// What each of the three traced flows hands to the shared tail.
struct Flow {
    ledger: Ledger,
    rec: Recorder,
    points: u64,
    /// Passes and submissions whose output was checked.
    checked: usize,
    failures: Vec<String>,
    info: String,
}

/// Runs the traced run of `opts.workload`.
pub fn run(opts: &Options, env: &Env) -> io::Result<Report> {
    let w = opts.workload;
    let kernels = kernels::run_all(opts.seed, opts.smoke, &env.tmp_root)?;
    let mut flow = match w {
        Workload::ServeCold => cold(opts, env)?,
        Workload::ServeWarm => warm(opts, env)?,
        _ => offline(opts, env)?,
    };
    for k in kernels {
        let mad = format!("MAD {:.3}", k.mad);
        flow.ledger.note(k.name, k.value, k.batches, mad);
    }
    let spans = flow.rec.spans();
    let path = opts.out_dir.join(format!("spans-{}.json", w.name()));
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    write_chrome(&mut file, w.name(), spans)?;
    file.flush()?;
    let mut info = vec![flow.info, reference_note(env)];
    info.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    info.extend(span_table(spans));
    let ops = flow.points * flow.checked as u64;
    Ok(Report {
        workload: w,
        seed: opts.seed,
        trace: true,
        attempted: ops,
        // A failed check condemns the run: the ledger of a wrong
        // stream explains nothing.
        failed: if flow.failures.is_empty() { 0 } else { ops },
        metrics: flow.ledger.into_values(),
        failures: flow.failures,
        info,
    })
}

/// Per span name: calls, total and self time, as means per pass.
fn span_table(spans: &[Span]) -> Vec<String> {
    let passes = Passes::of(spans).len().max(1) as f64;
    let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += own;
    }
    let mut out = vec![format!(
        "{:<24} {:>10} {:>12} {:>12}",
        "span (mean per pass)", "calls", "total ms", "self ms"
    )];
    for (name, (calls, total, own)) in rows {
        out.push(format!(
            "{name:<24} {:>10.1} {:>12.3} {:>12.3}",
            calls as f64 / passes,
            total as f64 / 1e6 / passes,
            own as f64 / 1e6 / passes
        ));
    }
    out
}

/// The stages of a point, timed on whichever thread simulates it.
const SIM_STAGES: [(&str, &str); 5] = [
    ("workloads.streams_ms", "workloads.streams"),
    ("sim.cluster_new_ms", "sim.cluster_new"),
    ("sim.cluster_reset_ms", "sim.cluster_reset"),
    ("sim.run_ms", "sim.run"),
    ("sim.verify_metrics_ms", "sim.verify_metrics"),
];

/// The four offline sweep workloads.
fn offline(opts: &Options, env: &Env) -> io::Result<Flow> {
    let w = opts.workload;
    let plans = env.sweeps(w);
    let threads = env.threads_of(w);
    let scale = match w {
        Workload::ShortPoints => env
            .short_request()
            .resolved_scale()
            .map_err(io::Error::other)?,
        _ => env.fig_scale(),
    };
    let cold = workloads::offline_pass(&plans, threads)?;
    let mut failures = match &env.reference {
        Some(reference) => check_reference(reference, &cold),
        None => Vec::new(),
    };
    let untraced = measure(opts.seconds * UNTRACED_SHARE, 1, opts.smoke, |_| {
        let pass = workloads::offline_pass(&plans, threads)?;
        Ok((pass.wall.as_secs_f64() * 1e3, pass.stream == cold.stream))
    })?;
    let mut rec = Recorder::new();
    let min = if opts.smoke { 1 } else { 2 };
    let staged = measure(
        opts.seconds * (1.0 - UNTRACED_SHARE),
        min,
        opts.smoke,
        |i| {
            rec.set_pass(i as u32);
            let pass = staged::offline_pass(&plans, scale, threads, &mut rec)?;
            Ok((pass.counts, pass.stream == cold.stream))
        },
    )?;
    staged::shrink_local_cache(0);

    let (base_ms, bad_untraced) = walls_and_bad(&untraced);
    let bad = bad_untraced + staged.iter().filter(|(_, ok)| !ok).count();
    if bad > 0 {
        failures.push(format!(
            "{bad} passes differ from the cold pass byte for byte"
        ));
    }

    let passes = Passes::of(rec.spans());
    let n = passes.len();
    // What a pass can spend: every worker for the whole wall.
    let capacity = |p: &PassSums| threads as f64 * p.wall_ms();
    let mut ledger = Ledger::default();
    let base = format!("the untraced pass ({threads} × {base_ms:.3} ms)");
    ledger.spans_ms(&SIM_STAGES, &passes, threads as f64 * base_ms, &base);
    ledger.spans_ms(
        &[
            ("bench.plan.expand_ms", "bench.plan.expand"),
            ("bench.sink.encode_ms", "bench.sink.encode"),
        ],
        &passes,
        threads as f64 * base_ms,
        &base,
    );
    let counts = staged[0].0;
    ledger.counts(&counts, &passes);
    ledger.set(
        "sim.setup_share_pct",
        passes.median(|p| {
            let setup =
                p.ms("workloads.streams") + p.ms("sim.cluster_new") + p.ms("sim.cluster_reset");
            100.0 * setup / capacity(p)
        }),
        n,
    );
    ledger.pool(&passes, capacity);
    ledger.set(
        "bench.unattributed_pct",
        passes.median(|p| 100.0 * (capacity(p) - p.attributed_ms()) / capacity(p)),
        n,
    );
    let staged_ms = passes.median(PassSums::wall_ms);
    ledger.set(
        "spans.overhead_pct",
        100.0 * (staged_ms - base_ms) / base_ms,
        n,
    );

    Ok(Flow {
        ledger,
        rec,
        points: cold.points() as u64,
        checked: 1 + untraced.len() + staged.len(),
        failures,
        info: format!(
            "{} points/pass, {threads} threads; untraced pass {base_ms:.3} ms (n={}), \
             staged pass {staged_ms:.3} ms (n={n})",
            cold.points(),
            untraced.len()
        ),
    })
}

/// The stages of a served request, in order. On a cold pass
/// `serve.exec.simulate` is the wall of the parallel section; the
/// [`SIM_STAGES`] under it add up over the workers and are reported
/// beside it.
const SERVE_STAGES: [(&str, &str); 9] = [
    ("serve.protocol.parse_ms", "serve.protocol.parse"),
    ("bench.plan.expand_ms", "bench.plan.expand"),
    ("serve.codec.key_ms", "serve.codec.key"),
    ("serve.store.get_ms", "serve.store.get"),
    ("serve.exec.simulate_ms", "serve.exec.simulate"),
    ("serve.store.put_ms", "serve.store.put"),
    ("bench.sink.encode_ms", "bench.sink.encode"),
    ("serve.server.write_ms", "serve.server.write"),
    ("serve.client.scan_ms", "serve.client.scan"),
];

/// The metrics both served flows fill from their staged passes;
/// `e2e_ms` is the real submission's median, measured in the same run.
fn served_ledger(passes: &Passes, e2e_ms: f64, counts: &Counts) -> Ledger {
    let mut ledger = Ledger::default();
    let base = format!("the end-to-end {e2e_ms:.3} ms");
    ledger.spans_ms(&SERVE_STAGES, passes, e2e_ms, &base);
    ledger.spans_ms(&SIM_STAGES, passes, e2e_ms, &base);
    ledger.counts(counts, passes);
    let stages = passes.median(|p| SERVE_STAGES.iter().map(|(_, span)| p.ms(span)).sum());
    ledger.note(
        "serve.unattributed_ms",
        e2e_ms - stages,
        passes.len(),
        format!(
            "Σ staged spans {stages:.3} ms, {:+.1} % off {base}",
            100.0 * (stages - e2e_ms) / e2e_ms
        ),
    );
    let staged_ms = passes.median(PassSums::wall_ms);
    ledger.set(
        "spans.overhead_pct",
        100.0 * (staged_ms - e2e_ms) / e2e_ms,
        passes.len(),
    );
    ledger
}

fn outcome_counters(ledger: &mut Ledger, o: &PlanOutcome, n: usize) {
    ledger.set("serve.exec.executed", o.executed as f64, n);
    ledger.set("serve.exec.waited", o.waited as f64, n);
    ledger.set("serve.exec.failed", o.failed as f64, n);
}

/// Median wall in ms and the number that failed, of checked samples.
fn walls_and_bad(samples: &[(f64, bool)]) -> (f64, usize) {
    let walls: Vec<f64> = samples.iter().map(|(ms, _)| *ms).collect();
    (median(&walls), samples.iter().filter(|(_, ok)| !ok).count())
}

/// One real submission, checked on the spot: its wall in ms and whether
/// it had the counters `want` and the bytes `reference`.
fn real_submit(
    addr: &str,
    request: &PlanRequest,
    want: &PlanOutcome,
    reference: &[u8],
) -> io::Result<(f64, bool)> {
    let s = timed_submit(addr, request)?;
    Ok((s.wall.as_secs_f64() * 1e3, s.is(want, reference)))
}

fn warm(opts: &Options, env: &Env) -> io::Result<Flow> {
    let request = env.short_request();
    let line = request.to_line();
    let points = request.to_plan().map_err(io::Error::other)?.len();
    let all_hits = outcome_of(points, false);
    let mut failures = Vec::new();

    let server = Server::start(env.scratch_dir("cache"), env.threads)?;
    let first = timed_submit(&server.addr, &request)?;
    if first.outcome != outcome_of(points, true) {
        failures.push(format!(
            "the populating submission reported {:?}",
            first.outcome
        ));
    }
    let min = if opts.smoke { 3 } else { 20 };
    let e2e = measure(opts.seconds * UNTRACED_SHARE, min, opts.smoke, |_| {
        real_submit(&server.addr, &request, &all_hits, &first.stream)
    })?;
    let dir = server.shutdown()?;

    // The store as the server left it: time the open, then keep it.
    let mut opens = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        drop(store.take());
        let started = Instant::now();
        store = Some(ResultStore::open(&dir)?);
        opens.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mut store = store.expect("opened three times");
    let wire = Loopback::new()?;
    let mut rec = Recorder::new();
    let staged = measure(
        opts.seconds * (1.0 - UNTRACED_SHARE),
        min,
        opts.smoke,
        |i| {
            rec.set_pass(i as u32);
            let (pass, summary) = staged::warm_request(&line, &mut store, &wire, &mut rec)?;
            Ok((
                pass.counts,
                summary == all_hits && pass.stream == first.stream,
            ))
        },
    )?;
    let stats = store.stats();
    drop(store);
    remove_dir(&dir)?;

    let (e2e_ms, bad_e2e) = walls_and_bad(&e2e);
    let bad = bad_e2e + staged.iter().filter(|(_, ok)| !ok).count();
    if bad > 0 {
        failures.push(format!("{bad} requests failed their byte/counter checks"));
    }
    let passes = Passes::of(rec.spans());
    let n = passes.len();
    let mut ledger = served_ledger(&passes, e2e_ms, &staged[0].0);
    let lookups = (stats.hits + stats.misses) as f64;
    ledger.set("serve.store.hit_ratio", stats.hits as f64 / lookups, n);
    ledger.set("serve.store.open_ms", median(&opens), opens.len());
    outcome_counters(&mut ledger, &all_hits, e2e.len());

    Ok(Flow {
        ledger,
        rec,
        points: points as u64,
        checked: 1 + e2e.len() + staged.len(),
        failures,
        info: format!(
            "{points} points/request, {} server threads; end-to-end request {e2e_ms:.3} ms \
             (n={}), {n} staged requests",
            env.threads,
            e2e.len()
        ),
    })
}

fn cold(opts: &Options, env: &Env) -> io::Result<Flow> {
    let request = env.short_request();
    let line = request.to_line();
    let points = request.to_plan().map_err(io::Error::other)?.len();
    let threads = env.threads;
    let all_executed = outcome_of(points, true);

    let fresh_server = || Server::start(env.scratch_dir("cache"), threads);
    let server = fresh_server()?;
    let first = timed_submit(&server.addr, &request)?;
    server.stop()?;
    let e2e = measure(opts.seconds * UNTRACED_SHARE, 1, opts.smoke, |_| {
        let server = fresh_server()?;
        let sample = real_submit(&server.addr, &request, &all_executed, &first.stream)?;
        server.stop()?;
        Ok(sample)
    })?;
    let (race_wall, race) = staged::cold_race(env, &request)?;

    let wire = Loopback::new()?;
    // The bound `mot3d serve` puts on its workers' cluster pools.
    let pool_capacity = ServerConfig::new(&env.tmp_root).pool_capacity;
    let mut rec = Recorder::new();
    let min = if opts.smoke { 1 } else { 2 };
    let staged = measure(
        opts.seconds * (1.0 - UNTRACED_SHARE),
        min,
        opts.smoke,
        |i| {
            rec.set_pass(i as u32);
            let dir = env.scratch_dir("staged");
            let (pass, summary, bytes_per_point) =
                staged::cold_pass(&line, &dir, threads, pool_capacity, &wire, &mut rec)?;
            let ok = summary == all_executed && pass.stream == first.stream;
            Ok((pass.counts, ok, bytes_per_point))
        },
    )?;

    let mut failures = Vec::new();
    if first.outcome != all_executed {
        failures.push(format!(
            "the first cold submission reported {:?}",
            first.outcome
        ));
    }
    let (e2e_ms, bad_e2e) = walls_and_bad(&e2e);
    let bad = bad_e2e + staged.iter().filter(|(_, ok, _)| !ok).count();
    if bad > 0 {
        failures.push(format!(
            "{bad} submissions failed their byte/counter checks"
        ));
    }
    if (race.executed, race.failed) != (points as u64, 0) {
        failures.push(format!(
            "{threads} racing submissions executed {} points between them, not {points}",
            race.executed
        ));
    }

    let passes = Passes::of(rec.spans());
    let n = passes.len();
    let mut ledger = served_ledger(&passes, e2e_ms, &staged[0].0);
    ledger.set("serve.store.hit_ratio", 0.0, n);
    let per_point: Vec<f64> = staged.iter().map(|(_, _, bytes)| *bytes).collect();
    ledger.set("serve.store.bytes_per_point", median(&per_point), n);
    ledger.pool(&passes, |p| threads as f64 * p.ms("serve.exec.simulate"));
    outcome_counters(&mut ledger, &race, threads);
    ledger.note(
        "serve.exec.race_wall_ratio",
        race_wall * 1e3 / e2e_ms,
        1,
        format!(
            "{threads} racing submissions took {:.3} ms",
            race_wall * 1e3
        ),
    );

    Ok(Flow {
        ledger,
        rec,
        points: points as u64,
        checked: 1 + e2e.len() + threads + staged.len(),
        failures,
        info: format!(
            "{points} points/submission, {threads} server threads; end-to-end cold submission \
             {e2e_ms:.3} ms (n={}), {n} staged passes",
            e2e.len()
        ),
    })
}
