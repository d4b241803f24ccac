//! What the scan counts: code lines per first-party crate.
//!
//! A code line carries at least one token or literal outside comments,
//! and lies outside every test item (`#[test]`, `#[cfg(test)]`, …). The
//! workspace's invariants are checked where a check can see them: clippy
//! resolves types (`clippy.toml` and the root
//! `Cargo.toml`'s `[workspace.lints]`), counting allocators measure that
//! the step loop allocates nothing (`crates/sim/tests/no_alloc.rs`,
//! `crates/trace/tests/no_alloc.rs`), and this module's tests fence the
//! report paths off hash containers.

use crate::lexer::{self, Tok, Token};

/// The first-party crate a workspace-relative source path belongs to
/// for the code-line count: `crates/<name>/src/…`, or the facade's
/// `src/…` (as `mot3d`). Everything else — `tests/`, `benches/`,
/// `examples/`, the benchmark package — is not counted.
pub fn crate_of(rel: &str) -> Option<&str> {
    if rel.starts_with("src/") {
        return Some("mot3d");
    }
    let (name, rest) = rel.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(name)
}

/// Counts the code lines of one source file.
pub fn code_lines(src: &str) -> usize {
    let lexed = lexer::lex(src);
    let toks = &lexed.tokens;
    let test_lines = test_line_spans(toks);
    let mut lines: Vec<u32> = toks
        .iter()
        .map(|t| t.line)
        .chain(lexed.literal_lines.iter().copied())
        .filter(|line| !test_lines.iter().any(|span| span.contains(line)))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len()
}

fn punct_at(toks: &[Token], idx: usize) -> Option<char> {
    match toks.get(idx).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Is the attribute body (tokens strictly between `[` and `]`) a
/// test-only marker: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`?
fn is_test_attribute(body: &[Token]) -> bool {
    match body.first().map(|t| &t.tok) {
        Some(Tok::Ident(s)) if s == "test" => body.len() == 1,
        Some(Tok::Ident(s)) if s == "cfg" => body
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test")),
        _ => false,
    }
}

/// The line spans of the items carrying a test attribute: from the `#`
/// to the end of the following item (its matched `{…}` block, or the `;`
/// for block-less items like `use`).
fn test_line_spans(toks: &[Token]) -> Vec<std::ops::RangeInclusive<u32>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if punct_at(toks, i) == Some('#') && punct_at(toks, i + 1) == Some('[') {
            let Some(close) = matching(toks, i + 1, '[', ']') else {
                break;
            };
            if is_test_attribute(&toks[i + 2..close]) {
                if let Some(end) = item_end(toks, close + 1) {
                    spans.push(toks[i].line..=toks[end - 1].line);
                    i = end;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// The end (exclusive token index) of the item starting at `from`:
/// skips further attributes, then runs to the matching `}` of the first
/// `{`, or past the first `;` if that comes sooner.
fn item_end(toks: &[Token], mut from: usize) -> Option<usize> {
    // Skip stacked attributes (`#[…] #[…] fn …`).
    while punct_at(toks, from) == Some('#') && punct_at(toks, from + 1) == Some('[') {
        from = matching(toks, from + 1, '[', ']')? + 1;
    }
    let mut i = from;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some('{') => return matching(toks, i, '{', '}').map(|close| close + 1),
            Some(';') => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Index of the closer matching the opener at `open_idx`.
fn matching(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    debug_assert_eq!(punct_at(toks, open_idx), Some(open));
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open_idx) {
        match &t.tok {
            Tok::Punct(c) if *c == open => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The report paths: files whose output order is part of a
    /// byte-identity contract (the BENCH checksums, the served stream).
    const REPORT_PATHS: [&str; 5] = [
        "crates/sim/src/metrics.rs",
        "crates/bench/src/report.rs",
        "crates/bench/src/sink.rs",
        "crates/bench/src/perf.rs",
        "crates/bench/src/experiments.rs",
    ];

    /// Hash containers iterate in an order nothing pins. Clippy's
    /// `disallowed-types` bans the default-hasher ones workspace-wide;
    /// the report paths may not hold the FNV ones either.
    const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FnvHashMap", "FnvHashSet"];

    #[test]
    fn code_lines_skip_comments_blanks_and_test_items() {
        let src = "//! Module docs.\n\
                   \n\
                   /// Item docs.\n\
                   pub fn f() -> &'static str {\n\
                   \x20   // a comment\n\
                   \x20   \"two\n\
                   lines\"\n\
                   } // trailing comment\n\
                   /* block\n\
                   comment */\n\
                   const N: u32 =\n\
                   \x20   7;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() { assert_eq!(super::f(), \"x\"); }\n\
                   }\n";
        // fn line, the two string lines, the closing brace, the const
        // and its literal-only continuation line.
        assert_eq!(code_lines(src), 6);
        assert_eq!(code_lines("// only a comment\n\n"), 0);
    }

    #[test]
    fn crate_of_names_first_party_source_trees_only() {
        assert_eq!(crate_of("crates/sim/src/cluster.rs"), Some("sim"));
        assert_eq!(crate_of("crates/serve/src/bin/mot3d.rs"), Some("serve"));
        assert_eq!(crate_of("src/lib.rs"), Some("mot3d"));
        for outside in [
            "crates/sim/tests/gating.rs",
            "crates/bench/benches/cache.rs",
            "crates/bench/examples/custom_sweep.rs",
            "examples/quickstart.rs",
            "tests/end_to_end.rs",
            "benchmark/src/main.rs",
        ] {
            assert_eq!(crate_of(outside), None, "{outside}");
        }
    }

    #[test]
    fn scope_table_matches_the_layout() {
        // A renamed report module must not fall out of the fence silently.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in REPORT_PATHS {
            assert!(root.join(path).is_file(), "{path} is gone");
        }
    }

    #[test]
    fn report_paths_name_no_hash_types() {
        // By type, not by use: a hash container on a report path is out
        // whether it is iterated by `.iter()`, by `for … in &map` or by
        // a helper, and whatever its binding is called.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in REPORT_PATHS {
            let src = std::fs::read_to_string(root.join(path)).expect("a report path");
            let named: Vec<(u32, &str)> = lexer::lex(&src)
                .tokens
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(name) => HASH_TYPES
                        .into_iter()
                        .find(|ty| ty == name)
                        .map(|ty| (t.line, ty)),
                    Tok::Punct(_) => None,
                })
                .collect();
            assert!(named.is_empty(), "{path} names hash types at {named:?}");
        }
    }
}
