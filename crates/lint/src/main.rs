//! # mot3d-lint — first-party code lines per crate
//!
//! `cargo run -q -p mot3d-lint` prints the code lines of every
//! first-party crate's `src/` in the layout of
//! `.github/loc-ceiling.json`, and this file's ratchet test fails when
//! the two differ; redirecting the output into the file re-bases it.
//! The program takes no arguments.
//!
//! `cargo fmt --check` keeps every source in one layout, so two line
//! rules count it:
//!
//! - a **code line** is one whose trimmed text is non-empty and does not
//!   start with `//`; a trailing comment after code does not hide it;
//! - **test code** runs from a column-0 `#[cfg(test)]` line to the next
//!   column-0 `}`: every test module is a column-0 `mod tests { … }`.
//!
//! The rules do not see literals, so a blank line inside a multi-line
//! string is not a code line (while a text line inside one is).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, besides hidden ones.
const SKIP_DIRS: [&str; 2] = ["target", "vendor"];

fn main() -> io::Result<()> {
    if std::env::args().len() > 1 {
        eprintln!("mot3d-lint takes no arguments");
        std::process::exit(2);
    }
    print!("{}", render(&scan(&workspace_root())?));
    Ok(())
}

/// The workspace root: this crate's manifest sits two levels below it.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The first-party crate a workspace-relative source path belongs to:
/// `crates/<name>/src/…`, or the facade's `src/…` (as `mot3d`).
/// Everything else — `tests/`, `examples/`, the benchmark package — is
/// not counted.
fn crate_of(rel: &str) -> Option<&str> {
    if rel.starts_with("src/") {
        return Some("mot3d");
    }
    let (name, rest) = rel.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(name)
}

/// Counts the code lines of one source file.
fn code_lines(src: &str) -> usize {
    let mut in_tests = false;
    let mut lines = 0;
    for line in src.lines() {
        if line.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        let text = line.trim();
        if !in_tests && !text.is_empty() && !text.starts_with("//") {
            lines += 1;
        }
        if in_tests && line.starts_with('}') {
            in_tests = false;
        }
    }
    lines
}

/// Adds the code lines of every `.rs` file under `dir` to its crate.
fn scan_dir(root: &Path, dir: &Path, loc: &mut BTreeMap<String, usize>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                scan_dir(root, &path, loc)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            if let Some(krate) = crate_of(&rel.replace('\\', "/")) {
                *loc.entry(krate.to_string()).or_default() +=
                    code_lines(&fs::read_to_string(&path)?);
            }
        }
    }
    Ok(())
}

/// Code lines per first-party crate of the workspace at `root`.
fn scan(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut loc = BTreeMap::new();
    scan_dir(root, root, &mut loc)?;
    Ok(loc)
}

/// The report: one JSON object, crates sorted, two-space indent.
fn render(loc: &BTreeMap<String, usize>) -> String {
    let rows: Vec<String> = loc.iter().map(|(k, n)| format!("  {k:?}: {n}")).collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report paths: files whose output order is part of a
    /// byte-identity contract (the BENCH checksums, the served stream).
    const REPORT_PATHS: [&str; 5] = [
        "crates/sim/src/metrics.rs",
        "crates/bench/src/report.rs",
        "crates/bench/src/sink.rs",
        "crates/bench/src/perf.rs",
        "crates/bench/src/experiments.rs",
    ];

    #[test]
    fn loc_ceiling_matches_the_scan() {
        // The ratchet: a crate that grows or shrinks writes its new
        // count into the ceiling file in the same diff, where review
        // sees it, so slack cannot be spent later unseen.
        let root = workspace_root();
        let want = render(&scan(&root).expect("scan"));
        let have = fs::read_to_string(root.join(".github/loc-ceiling.json")).expect("ceilings");
        let off: Vec<&str> = want
            .lines()
            .filter(|l| !have.lines().any(|h| h == *l))
            .collect();
        assert!(
            off.is_empty() && have == want,
            "{off:?} differ from .github/loc-ceiling.json; \
             re-base it with `cargo run -q -p mot3d-lint > .github/loc-ceiling.json`:\n{want}"
        );
    }

    #[test]
    fn workspace_scan_counts_every_first_party_crate() {
        let loc = scan(&workspace_root()).expect("scan");
        for krate in [
            "mot3d",
            "phys",
            "mot",
            "noc",
            "mem",
            "workloads",
            "sim",
            "trace",
            "bench",
            "serve",
            "lint",
        ] {
            assert!(
                loc.get(krate).is_some_and(|&lines| lines > 0),
                "{krate} not counted: {loc:?}"
            );
        }
    }

    #[test]
    fn scope_table_matches_the_layout() {
        // A renamed report module must not fall out of the fence silently.
        let root = workspace_root();
        for path in REPORT_PATHS {
            assert!(root.join(path).is_file(), "{path} is gone");
        }
    }

    #[test]
    fn report_paths_name_no_hash_types() {
        // Hash containers iterate in an order nothing pins. Clippy's
        // `disallowed-types` bans the default-hasher ones workspace-wide;
        // the report paths may not name the FNV ones either. A substring
        // test: `HashMap` also catches `FnvHashMap`, and a comment naming
        // one fails too.
        let root = workspace_root();
        for path in REPORT_PATHS {
            let src = fs::read_to_string(root.join(path)).expect("a report path");
            let named: Vec<usize> = (1..)
                .zip(src.lines())
                .filter(|(_, line)| line.contains("HashMap") || line.contains("HashSet"))
                .map(|(n, _)| n)
                .collect();
            assert!(
                named.is_empty(),
                "{path} names hash types at lines {named:?}"
            );
        }
    }

    #[test]
    fn code_lines_skip_comments_blanks_and_test_items() {
        let src = "//! Module docs.\n\
                   \n\
                   /// Item docs.\n\
                   pub fn f() -> &'static str {\n\
                   \x20   // a comment\n\
                   \x20   \"two\n\
                   \n\
                   lines\"\n\
                   } // trailing comment\n\
                   \x20   \n\
                   const N: u32 =\n\
                   \x20   7;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() {\n\
                   \x20       assert_eq!(super::f(), \"x\");\n\
                   \x20   }\n\
                   }\n\
                   fn after() {}\n";
        // The fn line, the two text lines of the string (its blank line
        // is not counted), the brace with its trailing comment, the
        // const and its continuation line, and the item after the test
        // module.
        assert_eq!(code_lines(src), 7);
        assert_eq!(code_lines("// only a comment\n\n"), 0);
    }

    #[test]
    fn crate_of_names_first_party_source_trees_only() {
        assert_eq!(crate_of("crates/sim/src/cluster.rs"), Some("sim"));
        assert_eq!(crate_of("crates/serve/src/bin/mot3d.rs"), Some("serve"));
        assert_eq!(crate_of("src/lib.rs"), Some("mot3d"));
        for outside in [
            "crates/sim/tests/gating.rs",
            "crates/bench/examples/custom_sweep.rs",
            "crates/lint/tests/fixtures/clippy/src/lib.rs",
            "examples/quickstart.rs",
            "tests/end_to_end.rs",
            "benchmark/src/main.rs",
        ] {
            assert_eq!(crate_of(outside), None, "{outside}");
        }
    }
}
