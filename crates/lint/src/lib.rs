//! # mot3d-lint — workspace static analysis for determinism invariants
//!
//! The repo's verification story rests on two invariants: results must
//! be **bit-identical** across runs and thread counts (the
//! golden-equivalence suites), and the active-cycle hot paths must stay
//! **allocation-free** (the flat-storage rewrites). Clippy checks what
//! it can resolve by type (`clippy.toml`, `[workspace.lints]`); this
//! crate keeps the rules that hang on a path or a comment marker, with a
//! hand-rolled token scanner (no dependencies, so it builds offline and
//! when the workspace does not), and counts code lines per crate. See
//! [`rules`] for the rule table and [`lexer`] for what the scanner
//! understands.
//!
//! Run it as `cargo run -p mot3d-lint -- --deny`, or through the CLI as
//! `mot3d lint --deny`. `--json` emits a machine-readable report; CI
//! gates on `--deny` (any finding fails the job).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod rules;

use rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, and path prefixes excluded
/// from the scan (the lint fixtures deliberately contain violations).
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", ".github"];
const SKIP_PREFIXES: [&str; 1] = ["crates/lint/tests/fixtures"];

/// Aggregated result of scanning a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings, ordered by (file, line).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Code lines per first-party crate (see [`rules::crate_of`]): lines
    /// carrying at least one non-comment token, outside test items.
    pub loc: BTreeMap<String, usize>,
}

impl Report {
    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}", f.render());
        }
        let _ = writeln!(
            out,
            "mot3d-lint: {} finding{} across {} files, {} first-party code lines",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files,
            self.loc.values().sum::<usize>()
        );
        out
    }

    /// Renders the machine-readable (`--json`) report: one object with
    /// the per-crate code-line counts and a findings array. Assembled by
    /// hand like the bench perf document — the schema is flat and the
    /// build stays offline.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": 2,");
        let _ = writeln!(out, "  \"files\": {},", self.files);
        let loc: Vec<String> = self
            .loc
            .iter()
            .map(|(krate, lines)| format!("{}: {lines}", json_string(krate)))
            .collect();
        let _ = writeln!(out, "  \"loc\": {{{}}},", loc.join(", "));
        let _ = writeln!(out, "  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"message\": {}, \"rationale\": {}}}{}",
                json_string(&f.file),
                f.line,
                f.rule,
                json_string(&f.message),
                json_string(rules::rationale(f.rule)),
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Minimal JSON string escaping. The workspace's shared escaper is
/// `mot3d_phys::json`; this private copy stays because this crate is
/// dependency-free on purpose, so that it builds — and can say what is
/// wrong — when the workspace does not.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

/// Collects every `.rs` file under `root` (sorted, workspace-relative)
/// that the scan covers — the scan itself must be deterministic too.
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
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans the workspace rooted at `root` with every rule.
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
        let file_report = rules::check_file(&rel, &src);
        report.files += 1;
        if let Some(krate) = rules::crate_of(&rel) {
            *report.loc.entry(krate.to_string()).or_default() += file_report.code_lines;
        }
        report.findings.extend(file_report.findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
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
    /// Exit non-zero when findings remain (`--deny`) — the CI gate.
    pub deny: bool,
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
                "--deny" => opts.deny = true,
                "--help" | "-h" => return Err(usage()),
                other => return Err(format!("unknown option {other:?}\n\n{}", usage())),
            }
        }
        Ok(opts)
    }
}

fn usage() -> String {
    "\
mot3d-lint — workspace static analysis for determinism and hot-path invariants

USAGE: mot3d-lint [--root <dir>] [--json [path]] [--deny]

  --root <dir>   workspace root (default: walk up from the current directory)
  --json [path]  machine-readable report to stdout or <path>
  --deny         exit 1 when any finding remains (CI gate)

Rules: D2 hash-order iteration on report paths · A1 allocation in
`// mot3d-lint: no-alloc` regions · S1 malformed or orphan markers.
Default hashers, BinaryHeap, clock/env reads and library panics are
clippy's (clippy.toml, [workspace.lints])."
        .to_string()
}

/// Entry point shared by the `mot3d-lint` binary and the `mot3d lint`
/// subcommand. Returns the process exit code: 0 clean (or findings
/// without `--deny`), 1 findings under `--deny`, 2 usage/I-O errors.
pub fn run_cli(args: &[String]) -> i32 {
    let opts = match LintOptions::parse(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "mot3d-lint: no workspace root found above {}",
                        cwd.display()
                    );
                    return 2;
                }
            }
        }
    };
    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mot3d-lint: scan failed: {e}");
            return 2;
        }
    };
    match &opts.json {
        Some(Some(path)) => {
            if let Err(e) = fs::write(path, report.render_json()) {
                eprintln!("mot3d-lint: cannot write {}: {e}", path.display());
                return 2;
            }
            eprint!("{}", report.render_human());
        }
        Some(None) => print!("{}", report.render_json()),
        None => print!("{}", report.render_human()),
    }
    if opts.deny && !report.findings.is_empty() {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_all_forms() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = LintOptions::parse(&argv("--deny --json out.json --root /tmp/ws")).unwrap();
        assert!(o.deny);
        assert_eq!(o.json, Some(Some(PathBuf::from("out.json"))));
        assert_eq!(o.root, Some(PathBuf::from("/tmp/ws")));
        // --json without a path streams to stdout; --deny after it must
        // not be eaten as the path.
        let o = LintOptions::parse(&argv("--json --deny")).unwrap();
        assert_eq!(o.json, Some(None));
        assert!(o.deny);
        assert!(LintOptions::parse(&argv("--wat")).is_err());
        assert!(LintOptions::parse(&argv("--root")).is_err());
    }

    #[test]
    fn json_report_is_balanced_and_escaped() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/sim/src/x.rs".into(),
                line: 3,
                rule: "D2",
                message: "`m.keys()` \"quoted\"".into(),
            }],
            files: 10,
            loc: BTreeMap::from([("sim".to_string(), 1200), ("phys".to_string(), 800)]),
        };
        let json = report.render_json();
        assert!(json.contains("\"loc\": {\"phys\": 800, \"sim\": 1200},"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"schema\": 2,"));
        assert!(!json.contains("suppressed"));
        assert!(json.contains("\"rule\": \"D2\""));
    }

    #[test]
    fn workspace_root_detection_walks_up() {
        // The crate's own manifest dir sits two levels below the root.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint/Cargo.toml").exists());
    }
}
