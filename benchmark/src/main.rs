//! The mot3d benchmark: six workloads, nine end-to-end metrics, and a
//! per-layer ledger taken from outside through the crates' public
//! functions. See `benchmark/README.md`.
//!
//! ```text
//! bench [run] [--workload <name>]... [--seed <n>] [--seconds <s>]
//!             [--trace 0|1|both | --traced] [--json <path>] [--smoke]
//!             [--out-dir <dir>] [--reference <BENCH_results.json>]
//! bench compare <a.json> <b.json>
//! bench spec                      # prints BENCHMARK.json
//! ```
//!
//! With exactly one workload and one trace mode the run happens in this
//! process and its last stdout line is the result object the driver
//! reads. Otherwise every workload × mode runs in a child process of
//! its own, so that `peak_rss_mb` is per workload.

mod claims;
mod compare;
mod kernels;
mod run;
mod spans;
mod spec;
mod staged;
mod stats;
mod traced;
mod workloads;

use spec::{Workload, DEFAULT_SEED};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Parsed `run` arguments.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// Trace modes to run, in order.
    trace: Vec<bool>,
    smoke: bool,
    json: Option<PathBuf>,
    out_dir: PathBuf,
    reference: PathBuf,
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: vec![false, true],
        smoke: false,
        json: None,
        out_dir: PathBuf::from("benchmark/out"),
        reference: PathBuf::from("BENCH_results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads.push(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let raw = value()?;
                parsed.seed = parse_seed(raw).ok_or(format!("--seed needs a u64, got {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value()?;
                parsed.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number, got {raw:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    other => return Err(format!("--trace takes 0, 1 or both, got {other:?}")),
                };
            }
            "--traced" => parsed.trace = vec![true],
            "--smoke" => parsed.smoke = true,
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            "--reference" => parsed.reference = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// Runs one workload in one mode in this process.
fn run_here(args: &RunArgs, workload: Workload, trace: bool) -> ExitCode {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace,
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
        reference: args.reference.clone(),
    };
    let report = match run::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.record_line()));
        if let Err(e) = appended {
            eprintln!("bench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render());
    println!("{}", report.result_line());
    ExitCode::from(u8::from(!report.correct()))
}

/// Runs every workload × mode in a child process each.
fn run_children(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for &workload in &args.workloads {
        for &trace in &args.trace {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir)
                .arg("--reference")
                .arg(&args.reference);
            if args.smoke {
                child.arg("--smoke");
            }
            if let Some(path) = &args.json {
                child.arg("--json").arg(path);
            }
            // `status` waits for the child: none outlives this loop.
            let code = match child.status() {
                Ok(status) => status.code().map_or(2, |c| c.clamp(0, 255) as u8),
                Err(e) => {
                    eprintln!("bench: {}: {e}", workload.name());
                    2
                }
            };
            worst = worst.max(code);
        }
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = match args.first().map(String::as_str) {
        Some("compare") => return ExitCode::from(compare::main(&args[1..])),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("run") => &args[1..],
        _ => &args[..],
    };
    let parsed = match parse_run(rest) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("bench: {msg}");
            return ExitCode::from(2);
        }
    };
    match (&parsed.workloads[..], &parsed.trace[..]) {
        ([workload], [trace]) => run_here(&parsed, *workload, *trace),
        _ => run_children(&parsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_run(&argv(
            "--workload serve_warm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, [Workload::ServeWarm]);
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        assert_eq!(a.trace, [true]);
        let d = parse_run(&[]).unwrap();
        assert_eq!(d.workloads, Workload::ALL);
        assert_eq!(d.seed, DEFAULT_SEED);
        assert_eq!(d.trace, [false, true]);
        assert_eq!(
            parse_run(&argv("--seed 0x0DA7_E201")).unwrap().seed,
            DEFAULT_SEED
        );
        assert_eq!(parse_run(&argv("--traced")).unwrap().trace, [true]);
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_run(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The root manifest cannot be edited from here, so the mirror is
    /// checked instead: a path dependency is compiled under *this*
    /// package's profiles.
    #[test]
    fn profiles_mirror_the_root() {
        fn profile(manifest: &str, header: &str) -> Vec<String> {
            let mut lines: Vec<String> = manifest
                .lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| {
                    l.split('#')
                        .next()
                        .unwrap()
                        .split_whitespace()
                        .collect::<String>()
                })
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let dir = env!("CARGO_MANIFEST_DIR");
        let root = std::fs::read_to_string(format!("{dir}/../Cargo.toml")).unwrap();
        let ours = std::fs::read_to_string(format!("{dir}/Cargo.toml")).unwrap();
        for header in ["[profile.release]", "[profile.test]"] {
            assert!(!profile(&root, header).is_empty(), "{header}");
            assert_eq!(profile(&ours, header), profile(&root, header), "{header}");
        }
    }
}
