//! One run of one workload and its report. The end-to-end run (tracing
//! off) is here; the traced run is in [`crate::traced`].

use crate::spec::{Workload, DEFAULT_SEED, END_TO_END};
use crate::stats::{median, percentile};
use crate::traced;
use crate::workloads::{self, remove_dir, Env};
use mot3d_bench::perfcheck::parse_baseline;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny scale, one timed sample: the test mode.
    pub smoke: bool,
    /// Where cache dirs, kernel trace files and the span file go.
    pub out_dir: PathBuf,
    /// The committed `BENCH_results.json`.
    pub reference: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The number.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub n: usize,
    /// Printed beside it: MAD, share of the pass, a caveat.
    pub note: String,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted: one per run point of every checked pass.
    pub attempted: u64,
    /// Operations whose pass failed a check.
    pub failed: u64,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<Value>,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Context lines printed above the metrics.
    pub info: Vec<String>,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The metric called `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|v| v.name == name)
    }

    fn metrics_json(&self, with_n: bool) -> String {
        let mut s = String::from("{");
        for (i, v) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                v.name, v.value, v.unit
            );
            if with_n {
                let _ = write!(s, ", \"n\": {}", v.n);
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// The result line the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The line `--json <path>` appends: the result line plus what
    /// `bench compare` needs to group runs.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(true)
        )
    }

    /// The human-readable report: context, then one
    /// `name value unit n=<samples>` line per metric.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let kind = if self.trace { "traced" } else { "end-to-end" };
        let _ = writeln!(s, "== {} seed={} {kind}", self.workload.name(), self.seed);
        for line in &self.info {
            let _ = writeln!(s, "# {line}");
        }
        for v in &self.metrics {
            let _ = write!(s, "{} {:.6} {} n={}", v.name, v.value, v.unit, v.n);
            if !v.note.is_empty() {
                let _ = write!(s, "  ({})", v.note);
            }
            s.push('\n');
        }
        let _ = writeln!(s, "ops attempted={} failed={}", self.attempted, self.failed);
        for f in &self.failures {
            let _ = writeln!(s, "CHECK FAILED: {f}");
        }
        s
    }
}

/// `N = min(nproc, 4)`.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Calls `sample(i)` until the next call would run past `seconds`, and
/// at least `min` times. In smoke mode `min` calls are all.
pub fn measure<T>(
    seconds: f64,
    min: usize,
    smoke: bool,
    mut sample: impl FnMut(usize) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(sample(out.len())?);
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / out.len() as f64;
        if out.len() >= min && (smoke || next_ends > seconds) {
            return Ok(out);
        }
    }
}

fn env_of(opts: &Options) -> io::Result<Env> {
    // Its own directory per run: concurrent runs share `out_dir`.
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let run = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp_root = opts
        .out_dir
        .join(format!("tmp-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&tmp_root)?;
    let mut env = Env {
        seed: opts.seed,
        smoke: opts.smoke,
        threads: worker_threads(),
        tmp_root,
        reference: None,
    };
    // The committed checksums pin one seed at one scale.
    if opts.seed == DEFAULT_SEED {
        match std::fs::read_to_string(&opts.reference) {
            Ok(text) => {
                let baseline = parse_baseline(&text)
                    .map_err(|e| io::Error::other(format!("{}: {e}", opts.reference.display())))?;
                if baseline.scale == env.fig_scale().scale {
                    env.reference = Some(baseline);
                }
            }
            Err(e) => eprintln!(
                "bench: no reference checksums ({}: {e}); checking self-consistency only",
                opts.reference.display()
            ),
        }
    }
    Ok(env)
}

/// Runs one workload once.
///
/// # Errors
///
/// I/O and simulator errors. A failed *check* is not an error: it is
/// reported in the [`Report`].
pub fn run(opts: &Options) -> io::Result<Report> {
    let env = env_of(opts)?;
    let report = if opts.trace {
        traced::run(opts, &env)
    } else {
        end_to_end(opts, &env)
    };
    // Nothing the run created may outlive it.
    remove_dir(&env.tmp_root)?;
    report
}

/// Set-up is repeated (and its median reported) while it is cheap.
const SETUP_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;

fn end_to_end(opts: &Options, env: &Env) -> io::Result<Report> {
    let w = opts.workload;
    let mut driver = workloads::driver(w, env);
    // The footprint is read once the first set-up is done: one cold
    // pass on one thread, or one server that took one cold submission.
    // That much is deterministic to a few percent. What later samples
    // add is allocator noise: malloc arenas on the threaded workloads,
    // and on serve_cold the remains of a server per sample, which no
    // user starts in one process.
    let mut rss = 0.0;
    let mut setups = Vec::new();
    while setups.len() < SETUP_REPEATS && setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        let started = Instant::now();
        driver.setup()?;
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == 1 {
            rss = peak_rss_mb()?;
        }
        if opts.smoke {
            break;
        }
    }
    // serve_warm always takes the 200 requests a p95 needs: a p95 that
    // read the median on a slow day and the tail on a fast one would
    // jump by more than its bound.
    let min = match (w, opts.smoke) {
        (Workload::ServeWarm, false) => 200,
        (_, false) | (Workload::ServeWarm, true) => 3,
        (_, true) => 1,
    };
    let samples = measure(opts.seconds, min, opts.smoke, |_| driver.sample())?;
    let rss_at_end = peak_rss_mb()?;
    let checked = driver.finish()?;

    let walls: Vec<f64> = samples.iter().map(|s| s.wall.as_secs_f64()).collect();
    let first: Vec<f64> = samples
        .iter()
        .map(|s| s.first_record.as_secs_f64() * 1e3)
        .collect();
    let wall = median(&walls);
    let n = samples.len();
    let p95 = percentile(&walls, 95);
    let value = |name: &'static str, value: f64, n: usize, note: &str| {
        let spec = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a listed metric");
        Value {
            name,
            value,
            unit: spec.unit,
            n,
            note: note.to_string(),
        }
    };
    let p95_note = if p95.is_some() {
        ""
    } else {
        "n<200: the median"
    };
    let metrics = vec![
        value("setup_s", median(&setups), setups.len(), ""),
        value("wall_s", wall, n, ""),
        value("sim_cycles_per_s", checked.cycles as f64 / wall, n, ""),
        value("points_per_s", checked.points as f64 / wall, n, ""),
        value("request_ms_p50", wall * 1e3, n, ""),
        value("request_ms_p95", p95.unwrap_or(wall) * 1e3, n, p95_note),
        value("first_record_ms_p50", median(&first), n, ""),
        value("peak_rss_mb", rss, 1, ""),
        value("claim_err_pp", checked.claim_err_pp, 1, ""),
    ];
    // A failed reference or offline comparison condemns every sample;
    // otherwise each sample answers for itself.
    let bad = samples.iter().filter(|s| !s.ok).count();
    let failed_samples = if checked.failures.is_empty() { bad } else { n };
    let mut failures = checked.failures;
    if bad > 0 {
        failures.push(format!(
            "{bad} of {n} samples failed their byte/counter checks"
        ));
    }
    let points = checked.points as u64;
    Ok(Report {
        workload: w,
        seed: opts.seed,
        trace: false,
        attempted: points * n as u64,
        failed: points * failed_samples as u64,
        metrics,
        failures,
        info: vec![
            format!(
                "{points} points/sample, {} threads, {} set-ups, {n} samples in {:.1} s; \
                 VmHWM {rss_at_end:.1} MB when measuring ended",
                env.threads_of(w),
                setups.len(),
                walls.iter().sum::<f64>()
            ),
            reference_note(env),
        ],
    })
}

/// Which kind of check the record streams got.
pub fn reference_note(env: &Env) -> String {
    match &env.reference {
        Some(_) => "sweeps that BENCH_results.json names are checked against its checksums",
        None => "seed or scale differs from BENCH_results.json: self-consistency checks only",
    }
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;
    use mot3d_bench::perf::Recorder;
    use mot3d_serve::json::{self, JsonValue};
    use std::path::Path;
    use std::time::Duration;

    /// A scratch directory under `benchmark/out`, which git ignores.
    fn out_dir(test: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()))
    }

    fn smoke(workload: Workload, trace: bool, seed: u64, dir: &Path) -> Options {
        Options {
            workload,
            seed,
            seconds: 1.0,
            trace,
            smoke: true,
            out_dir: dir.to_path_buf(),
            reference: dir.join("no-such-reference.json"),
        }
    }

    #[test]
    fn smoke_drives_all_six_workloads_and_names_every_metric() {
        let dir = out_dir("smoke");
        for workload in Workload::ALL {
            // Not the default seed: no committed checksum applies.
            let report = run(&smoke(workload, false, 42, &dir)).unwrap();
            assert!(report.correct(), "{}", report.render());
            assert!(report.attempted >= 1 && report.failed == 0);
            let named: Vec<_> = report.metrics.iter().map(|v| (v.name, v.unit)).collect();
            let listed: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(named, listed, "{}", workload.name());
            for v in &report.metrics {
                assert!(
                    v.value > 0.0 && v.value.is_finite(),
                    "{} {v:?}",
                    workload.name()
                );
                assert!(v.n >= 1);
            }
            // Below 200 samples the p95 reads the median, and says so.
            assert_eq!(
                report.get("request_ms_p95").unwrap().value,
                report.get("request_ms_p50").unwrap().value
            );
            assert!(report.render().contains("request_ms_p95"));
            assert!(report.render().contains("n<200: the median"));

            let doc = json::parse(&report.result_line()).unwrap();
            let JsonValue::Obj(members) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
            let record = json::parse(&report.record_line()).unwrap();
            assert_eq!(
                record.get("workload").unwrap().as_str(),
                Some(workload.name())
            );
            assert_eq!(record.get("trace").unwrap().as_u64(), Some(0));

            let report = run(&smoke(workload, true, 42, &dir)).unwrap();
            assert!(report.correct(), "{}", report.render());
            let named: Vec<_> = report.metrics.iter().map(|v| (v.name, v.unit)).collect();
            let listed: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(named, listed, "{}", workload.name());
            assert!(report.metrics.iter().all(|v| v.value.is_finite()));
            // Every workload simulates or replays the same exact counts.
            assert!(report.get("sim.cycles").unwrap().value > 0.0);
            assert!(report.get("phys.wheel.churn_ns").unwrap().value > 0.0);
            // A layer off the workload's path reads 0 there.
            let noc = report.get("noc.requests").unwrap().value;
            let on_noc = matches!(
                workload,
                Workload::Fig6Interconnects | Workload::PaperGridNt
            );
            assert_eq!(noc > 0.0, on_noc, "{}", workload.name());
            let get = report.get("serve.store.get_ms").unwrap().value;
            assert_eq!(get > 0.0, workload.is_served(), "{}", workload.name());
            let spans = dir.join(format!("spans-{}.json", workload.name()));
            let chrome = json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
            assert!(!chrome
                .get("traceEvents")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty());
        }
        // Only the span files are left behind.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(name.starts_with("spans-"), "{name} left behind");
        }
        remove_dir(&dir).unwrap();
    }

    #[test]
    fn a_corrupted_reference_checksum_fails_the_run_and_counts_failed_ops() {
        let dir = out_dir("reference");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = smoke(Workload::Fig7PowerStates, false, DEFAULT_SEED, &dir);
        opts.reference = dir.join("reference.json");

        // A genuine tiny-scale reference, written the way `mot3d all
        // --bench-json` writes the committed one.
        let env = Env {
            seed: DEFAULT_SEED,
            smoke: true,
            threads: 1,
            tmp_root: dir.clone(),
            reference: None,
        };
        let pass = workloads::offline_pass(&env.sweeps(opts.workload), 1).unwrap();
        let mut recorder = Recorder::new(env.fig_scale().scale, 1);
        for s in &pass.checksums {
            let sum = u64::from_str_radix(&s.checksum, 16).unwrap();
            recorder.add_raw(&s.name, Duration::from_secs(1), s.rows, sum);
        }
        let genuine = recorder.to_json();
        std::fs::write(&opts.reference, &genuine).unwrap();
        let report = run(&opts).unwrap();
        assert!(report.correct(), "{}", report.render());
        assert!(report.render().contains("checked against its checksums"));

        let corrupted = genuine.replace(&pass.checksums[0].checksum, "0123456789abcdef");
        assert_ne!(corrupted, genuine);
        std::fs::write(&opts.reference, corrupted).unwrap();
        let report = run(&opts).unwrap();
        assert!(!report.correct());
        assert!(
            report.failed > 0 && report.failed == report.attempted,
            "{}",
            report.render()
        );
        assert!(
            report.failures[0].contains("fig7@200ns"),
            "{:?}",
            report.failures
        );
        assert!(report.result_line().starts_with("{\"correct\": false,"));
        // The traced run applies the same check.
        opts.trace = true;
        let report = run(&opts).unwrap();
        assert!(!report.correct() && report.failed > 0);
        remove_dir(&dir).unwrap();
    }

    #[test]
    fn measuring_stops_before_the_time_is_up_but_not_before_the_minimum() {
        let mut calls = 0;
        let out = measure(0.0, 3, false, |i| {
            calls += 1;
            Ok(i)
        })
        .unwrap();
        assert_eq!((out, calls), (vec![0, 1, 2], 3));
        let started = Instant::now();
        let out = measure(0.05, 1, false, |_| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(())
        })
        .unwrap();
        assert!(
            out.len() >= 2 && started.elapsed() < Duration::from_millis(80),
            "{}",
            out.len()
        );
        assert_eq!(measure(60.0, 2, true, |_| Ok(())).unwrap().len(), 2);
    }
}
