//! The unified `mot3d` binary. Every subcommand — the figures, `sweep`,
//! `trace`, `serve`, `submit`, `shutdown` and `perf check` — is parsed
//! and run by [`mot3d_serve::cli::run`], which also owns the usage text.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

fn main() {
    std::process::exit(mot3d_serve::cli::run(std::env::args().skip(1)));
}
