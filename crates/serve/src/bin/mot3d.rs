//! The unified `mot3d` binary.
//!
//! `serve`, `submit` and `shutdown` dispatch into
//! [`mot3d_serve::cli`]; every other subcommand (the figures, `sweep`,
//! `lint`, `perf`, …) falls through to [`mot3d_bench::cli::run`],
//! which owns the shared usage text.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => mot3d_serve::cli::run_serve(&args[1..]),
        Some("submit") => mot3d_serve::cli::run_submit(&args[1..]),
        Some("shutdown") => mot3d_serve::cli::run_shutdown(&args[1..]),
        _ => mot3d_bench::cli::run(args),
    };
    std::process::exit(code);
}
