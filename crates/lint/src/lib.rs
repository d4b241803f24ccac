//! # mot3d-lint — first-party code lines per crate
//!
//! Counts the lines that carry code in every first-party crate's `src/`,
//! with a hand-rolled token scanner (no dependencies, so it builds
//! offline and when the workspace does not). CI holds each crate under
//! its ceiling in `.github/loc-ceiling.json`. See [`rules`] for what
//! counts as a code line and for where the workspace's invariants are
//! checked, and [`lexer`] for what the scanner understands.
//!
//! Run it as `cargo run -p mot3d-lint`. `--json` emits a
//! machine-readable report.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, besides hidden ones.
const SKIP_DIRS: [&str; 2] = ["target", "vendor"];

/// Aggregated result of scanning a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Code lines per first-party crate (see [`rules::crate_of`] and
    /// [`rules::code_lines`]).
    pub loc: BTreeMap<String, usize>,
}

impl Report {
    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        format!(
            "mot3d-lint: {} files, {} first-party code lines\n",
            self.files,
            self.loc.values().sum::<usize>()
        )
    }

    /// Renders the machine-readable (`--json`) report: one object with
    /// the file count and the per-crate code-line counts.
    pub fn render_json(&self) -> String {
        let loc: Vec<String> = self
            .loc
            .iter()
            .map(|(krate, lines)| format!("{krate:?}: {lines}"))
            .collect();
        format!(
            "{{\n  \"schema\": 3,\n  \"files\": {},\n  \"loc\": {{{}}}\n}}\n",
            self.files,
            loc.join(", ")
        )
    }
}

/// Finds the workspace root by walking up from `start` until a
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every `.rs` file under `root` (sorted) that the scan covers
/// — the scan itself must be deterministic too.
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans the workspace rooted at `root`.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        report.files += 1;
        if let Some(krate) = rules::crate_of(&rel) {
            *report.loc.entry(krate.to_string()).or_default() += rules::code_lines(&src);
        }
    }
    Ok(report)
}

/// Parsed command-line options for the lint binary / subcommand.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LintOptions {
    /// Workspace root override (`--root <dir>`); auto-detected otherwise.
    pub root: Option<PathBuf>,
    /// Emit the JSON report instead of the human one (`--json`), to
    /// stdout or to the given path (`--json <path>` when the next
    /// argument is not a flag).
    pub json: Option<Option<PathBuf>>,
}

impl LintOptions {
    /// Parses `args` (without the program/subcommand name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = LintOptions::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--root" => {
                    let v = it.next().ok_or("--root needs a directory")?;
                    opts.root = Some(PathBuf::from(v));
                }
                "--json" => {
                    let target = it
                        .peek()
                        .filter(|v| !v.starts_with("--"))
                        .map(|v| PathBuf::from(v.as_str()));
                    if target.is_some() {
                        it.next();
                    }
                    opts.json = Some(target);
                }
                "--help" | "-h" => return Err(usage()),
                other => return Err(format!("unknown option {other:?}\n\n{}", usage())),
            }
        }
        Ok(opts)
    }
}

fn usage() -> String {
    "\
mot3d-lint — first-party code lines per crate

USAGE: mot3d-lint [--root <dir>] [--json [path]]

  --root <dir>   workspace root (default: walk up from the current directory)
  --json [path]  machine-readable report to stdout or <path>

A code line carries code outside comments and test items, in a crate's
src/; CI holds each crate under .github/loc-ceiling.json. Invariants are
checked elsewhere: by type in clippy.toml and [workspace.lints], and by a
counting allocator in crates/{sim,trace}/tests/no_alloc.rs."
        .to_string()
}

/// Entry point of the `mot3d-lint` binary. Returns the process exit
/// code: 0 on success, 2 on usage or I/O errors.
pub fn run_cli(args: &[String]) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = LintOptions::parse(args)?;
    let root = match opts.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            find_workspace_root(&cwd).ok_or_else(|| {
                format!(
                    "mot3d-lint: no workspace root found above {}",
                    cwd.display()
                )
            })?
        }
    };
    let report = scan_workspace(&root).map_err(|e| format!("mot3d-lint: scan failed: {e}"))?;
    match &opts.json {
        Some(Some(path)) => {
            fs::write(path, report.render_json())
                .map_err(|e| format!("mot3d-lint: cannot write {}: {e}", path.display()))?;
            eprint!("{}", report.render_human());
        }
        Some(None) => print!("{}", report.render_json()),
        None => print!("{}", report.render_human()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_all_forms() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = LintOptions::parse(&argv("--json out.json --root /tmp/ws")).unwrap();
        assert_eq!(o.json, Some(Some(PathBuf::from("out.json"))));
        assert_eq!(o.root, Some(PathBuf::from("/tmp/ws")));
        // --json without a path streams to stdout; a flag after it must
        // not be eaten as the path.
        let o = LintOptions::parse(&argv("--json --root /tmp/ws")).unwrap();
        assert_eq!(o.json, Some(None));
        assert_eq!(o.root, Some(PathBuf::from("/tmp/ws")));
        for bad in ["--wat", "--root", "--deny"] {
            assert!(LintOptions::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_report_is_balanced_and_escaped() {
        let report = Report {
            files: 10,
            loc: BTreeMap::from([
                ("sim".to_string(), 1200),
                ("phys".to_string(), 800),
                ("a\"b".to_string(), 1),
            ]),
        };
        let json = report.render_json();
        assert!(json.contains("\"loc\": {\"a\\\"b\": 1, \"phys\": 800, \"sim\": 1200}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": 3,"));
        assert!(json.contains("\"files\": 10,"));
    }

    #[test]
    fn workspace_root_detection_walks_up() {
        // The crate's own manifest dir sits two levels below the root.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint/Cargo.toml").exists());
    }
}
