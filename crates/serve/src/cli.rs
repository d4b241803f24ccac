//! Argument parsing for `mot3d serve` and `mot3d submit`.
//!
//! This module holds the one environment read of the first-party code
//! (`HOME`, for the default cache directory) — everything below it, and
//! all of `mot3d_bench`, takes explicit configuration.

use crate::client::{self, RetryPolicy};
use crate::fault::{FaultPlan, Faults};
use crate::protocol::PlanRequest;
use crate::server::{self, ServerConfig};
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Entry point for `mot3d serve` (args exclude the subcommand).
/// Returns the process exit code (0/1/2 like the bench CLI).
pub fn run_serve(args: &[String]) -> i32 {
    let config = match parse_serve(args) {
        Ok(config) => config,
        Err(UsageError::Help) => {
            print!("{}", serve_usage());
            return 0;
        }
        Err(UsageError::Bad(msg)) => {
            eprintln!("mot3d serve: {msg}");
            eprintln!();
            eprint!("{}", serve_usage());
            return 2;
        }
    };
    match server::serve(&config) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mot3d serve: {e}");
            1
        }
    }
}

/// Entry point for `mot3d submit` (args exclude the subcommand).
/// Returns the process exit code (0/1/2 like the bench CLI).
pub fn run_submit(args: &[String]) -> i32 {
    let (addr, request, policy) = match parse_submit(args) {
        Ok(parsed) => parsed,
        Err(UsageError::Help) => {
            print!("{}", submit_usage());
            return 0;
        }
        Err(UsageError::Bad(msg)) => {
            eprintln!("mot3d submit: {msg}");
            eprintln!();
            eprint!("{}", submit_usage());
            return 2;
        }
    };
    let stdout = io::stdout();
    match client::submit_with_retry(&addr, &request, &mut stdout.lock(), policy) {
        Ok(outcome) => {
            let failed = if outcome.failed > 0 {
                format!(", {} failed", outcome.failed)
            } else {
                String::new()
            };
            eprintln!(
                "mot3d submit: {} points ({} cached, {} deduped, {} executed{failed})",
                outcome.points, outcome.hits, outcome.waited, outcome.executed,
            );
            0
        }
        Err(e) => {
            eprintln!("mot3d submit: {e}");
            1
        }
    }
}

/// Entry point for `mot3d shutdown` (args exclude the subcommand).
/// Returns the process exit code (0/1/2 like the bench CLI).
pub fn run_shutdown(args: &[String]) -> i32 {
    let addr = match parse_shutdown(args) {
        Ok(addr) => addr,
        Err(UsageError::Help) => {
            print!("{}", shutdown_usage());
            return 0;
        }
        Err(UsageError::Bad(msg)) => {
            eprintln!("mot3d shutdown: {msg}");
            eprintln!();
            eprint!("{}", shutdown_usage());
            return 2;
        }
    };
    match client::shutdown(&addr) {
        Ok(()) => {
            eprintln!("mot3d shutdown: acknowledged by {addr}; server is draining");
            0
        }
        Err(e) => {
            eprintln!("mot3d shutdown: {e}");
            1
        }
    }
}

enum UsageError {
    Help,
    Bad(String),
}

fn bad(msg: impl Into<String>) -> UsageError {
    UsageError::Bad(msg.into())
}

fn serve_usage() -> String {
    "\
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
  --fault-seed <u64>     seeded fault schedule (replayable chaos runs)

A failing point streams a typed {\"failed\": true, ...} record and is
never cached; the rest of the plan completes. `mot3d shutdown` (or the
accept limit) stops accepting, drains in-flight submissions, flushes
the store, and exits 0.

PROTOCOL (one JSON document per line):
  client → {\"submit\": \"sweep\", \"bench\": \"fft\", \"scale\": \"tiny\"}
  server → the exact `mot3d sweep --json` stream for that plan,
           then {\"done\": true, ...cache counters...}
  client → {\"shutdown\": true}          (graceful drain request)
"
    .to_string()
}

fn submit_usage() -> String {
    "\
mot3d submit — send a sweep to a running `mot3d serve`

USAGE: mot3d submit [options]

The record stream goes to stdout (byte-identical to
`mot3d sweep --json` for the same axes); the summary goes to stderr.

OPTIONS:
  --addr <host:port>         server address, default 127.0.0.1:4016
  --plan <name>              plan name in the response header,
                             default \"sweep\"
  --scale <factor|tiny>      run-length factor, default 0.35
  --seed <u64>               workload seed override
  --bench <list|all>         cholesky,fft,fmm,ocean_contiguous,radix,
                             raytrace,volrend,water-nsquared
  --interconnect <list|all>  mot3d, mesh, bus-mesh, bus-tree
  --power-state <list|all>   full, pc16-mb8, pc4-mb32 (any pcX-mbY)
  --dram <list|all>          200ns, 63ns, 42ns
  --page <flat|open|both>    DRAM page-policy axis
  --repeat <n>               runs per grid cell (each repeat reseeds)
  --retries <n>              resubmit up to n times on a dead
                             connection (default 0); completed points
                             replay from the server cache, so the
                             retried stream is byte-identical
  --backoff <ms>             delay before the first retry, doubling
                             each further retry (default 200)

The service does not trace: for per-point timelines, run
`mot3d sweep --trace <dir>` or `mot3d trace` on the machine that
reads them.

EXAMPLE:
  mot3d submit --bench fft,radix --dram all --scale tiny > grid.jsonl
"
    .to_string()
}

fn shutdown_usage() -> String {
    "\
mot3d shutdown — gracefully drain a running `mot3d serve`

The server acknowledges, stops accepting, finishes every in-flight
submission, flushes the result store, and exits 0.

USAGE: mot3d shutdown [--addr <host:port>]

OPTIONS:
  --addr <host:port>     server address, default 127.0.0.1:4016
"
    .to_string()
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

fn parse_serve(args: &[String]) -> Result<ServerConfig, UsageError> {
    let mut config = ServerConfig::new(default_cache_dir());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Err(UsageError::Help);
        }
        let value = it
            .next()
            .ok_or_else(|| bad(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--cache-dir" => config.cache_dir = PathBuf::from(value),
            "--threads" => {
                let t: usize = value.parse().ok().filter(|&t| t > 0).ok_or_else(|| {
                    bad(format!("--threads needs a positive integer, got {value:?}"))
                })?;
                config.threads = Some(t);
            }
            "--accept-limit" => {
                let n: u64 = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    bad(format!(
                        "--accept-limit needs a positive integer, got {value:?}"
                    ))
                })?;
                config.accept_limit = Some(n);
            }
            "--fault" => {
                let plan = FaultPlan::parse(value).map_err(bad)?;
                config.faults = Faults::plan(plan);
            }
            "--fault-seed" => {
                let seed: u64 = value.parse().map_err(|_| {
                    bad(format!(
                        "--fault-seed needs an unsigned integer, got {value:?}"
                    ))
                })?;
                config.faults = Faults::plan(FaultPlan::from_seed(seed, 16, 2));
            }
            other => return Err(bad(format!("unknown option {other:?}"))),
        }
    }
    Ok(config)
}

fn parse_shutdown(args: &[String]) -> Result<String, UsageError> {
    let mut addr = "127.0.0.1:4016".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Err(UsageError::Help);
        }
        let value = it
            .next()
            .ok_or_else(|| bad(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            other => return Err(bad(format!("unknown option {other:?}"))),
        }
    }
    Ok(addr)
}

fn parse_submit(args: &[String]) -> Result<(String, PlanRequest, RetryPolicy), UsageError> {
    let mut addr = "127.0.0.1:4016".to_string();
    let mut request = PlanRequest::new("sweep");
    let mut policy = RetryPolicy::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Err(UsageError::Help);
        }
        let value = it
            .next()
            .ok_or_else(|| bad(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--plan" => request.name = value.clone(),
            "--scale" => request.scale = Some(value.clone()),
            "--seed" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| bad(format!("--seed needs an unsigned integer, got {value:?}")))?;
                request.seed = Some(s);
            }
            "--bench" => request.bench = Some(value.clone()),
            "--interconnect" => request.interconnect = Some(value.clone()),
            "--power-state" => request.power_state = Some(value.clone()),
            "--dram" => request.dram = Some(value.clone()),
            "--page" => request.page = Some(value.clone()),
            "--repeat" => {
                let r: u32 = value.parse().ok().filter(|&r| r > 0).ok_or_else(|| {
                    bad(format!("--repeat needs a positive integer, got {value:?}"))
                })?;
                request.repeat = Some(r);
            }
            "--retries" => {
                policy.retries = value.parse().map_err(|_| {
                    bad(format!(
                        "--retries needs an unsigned integer, got {value:?}"
                    ))
                })?;
            }
            "--backoff" => {
                let ms: u64 = value.parse().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                    bad(format!(
                        "--backoff needs a positive millisecond count, got {value:?}"
                    ))
                })?;
                policy.backoff = Duration::from_millis(ms);
            }
            other => return Err(bad(format!("unknown option {other:?}"))),
        }
    }
    // Surface bad axis values before dialing the server.
    if let Err(msg) = request.to_plan().and_then(|p| p.check()) {
        return Err(bad(msg));
    }
    Ok((addr, request, policy))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_flags_parse() {
        let c = parse_serve(&argv(
            "--addr 127.0.0.1:0 --cache-dir /tmp/x --threads 3 --accept-limit 2",
        ))
        .ok()
        .unwrap();
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.cache_dir, PathBuf::from("/tmp/x"));
        assert_eq!(c.threads, Some(3));
        assert_eq!(c.accept_limit, Some(2));
        assert!(!c.faults.is_active(), "no fault flag, no fault plan");
        assert!(parse_serve(&argv("--threads 0")).is_err());
        assert!(parse_serve(&argv("--nope 1")).is_err());
        assert!(parse_serve(&argv("--addr")).is_err(), "missing value");
    }

    #[test]
    fn serve_fault_flags_build_a_plan() {
        let c = parse_serve(&argv("--fault point@0,store@2")).ok().unwrap();
        assert!(c.faults.is_active());
        let c = parse_serve(&argv("--fault-seed 42")).ok().unwrap();
        assert!(c.faults.is_active());
        assert!(parse_serve(&argv("--fault bogus@x")).is_err());
        assert!(parse_serve(&argv("--fault-seed nope")).is_err());
    }

    #[test]
    fn submit_flags_build_the_request() {
        let (addr, req, policy) = parse_submit(&argv(
            "--addr 127.0.0.1:7 --plan p --bench fft --dram all --scale tiny --seed 9 --repeat 2 \
             --retries 3 --backoff 50",
        ))
        .ok()
        .unwrap();
        assert_eq!(addr, "127.0.0.1:7");
        assert_eq!(req.name, "p");
        assert_eq!(req.bench.as_deref(), Some("fft"));
        assert_eq!(req.dram.as_deref(), Some("all"));
        assert_eq!(req.scale.as_deref(), Some("tiny"));
        assert_eq!(req.seed, Some(9));
        assert_eq!(req.repeat, Some(2));
        assert_eq!(policy.retries, 3);
        assert_eq!(policy.backoff, Duration::from_millis(50));
        for traced in [
            "--trace",
            "--bench fft --trace --scale tiny",
            "--trace out/",
        ] {
            assert!(
                parse_submit(&argv(traced)).is_err(),
                "the service does not trace: {traced}"
            );
        }
        assert!(
            parse_submit(&argv("--bench nonesuch")).is_err(),
            "axis values are validated before dialing"
        );
        assert!(parse_submit(&argv("--repeat 0")).is_err());
        assert!(parse_submit(&argv("--retries x")).is_err());
        assert!(parse_submit(&argv("--backoff 0")).is_err());
    }

    #[test]
    fn defaults_target_the_local_server() {
        let (addr, req, policy) = parse_submit(&[]).ok().unwrap();
        assert_eq!(addr, "127.0.0.1:4016");
        assert_eq!(req, PlanRequest::new("sweep"));
        assert_eq!(policy, RetryPolicy::default());
    }

    #[test]
    fn shutdown_takes_only_an_addr() {
        assert_eq!(parse_shutdown(&[]).ok().unwrap(), "127.0.0.1:4016");
        assert_eq!(
            parse_shutdown(&argv("--addr 10.0.0.1:9")).ok().unwrap(),
            "10.0.0.1:9"
        );
        assert!(parse_shutdown(&argv("--nope 1")).is_err());
    }
}
