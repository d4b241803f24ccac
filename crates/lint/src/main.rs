//! The `mot3d-lint` binary: scan the workspace and report its code
//! lines per crate. All logic lives in the library.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mot3d_lint::run_cli(&args));
}
