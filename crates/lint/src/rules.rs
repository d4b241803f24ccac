//! The repo-specific lint rules and their matching engine.
//!
//! These are the rules clippy cannot check, because they hang on a
//! file's path or on a comment marker rather than on a type:
//!
//! | id | rule |
//! |----|------|
//! | D2 | no iteration in hash-map order on metrics/report paths |
//! | A1 | `// mot3d-lint: no-alloc` regions must not allocate |
//! | S1 | `mot3d-lint:` markers must parse and precede an item |
//!
//! Default hashers, `BinaryHeap`, clock and environment reads, and
//! panics in library code are clippy's (`clippy.toml` and the root
//! `Cargo.toml`'s `[workspace.lints]`). A sanctioned exception to one of
//! those is an `#[expect(…, reason = "…")]`; these three rules have no
//! suppression channel.

use crate::lexer::{self, Directive, DirectiveKind, Tok, Token};

/// One-line rationale shown with every finding of a rule.
pub fn rationale(rule: &str) -> &'static str {
    match rule {
        "D2" => {
            "hash-map iteration order is unspecified, so metrics/report output \
             built from it is nondeterministic; iterate a sorted or dense \
             structure instead"
        }
        "A1" => {
            "this region is a declared active-cycle hot path: steady-state \
             allocation undoes the flat-storage wins and perturbs run time"
        }
        "S1" => {
            "a marker that does not parse silently disables enforcement; fix the \
             directive syntax"
        }
        _ => "unknown rule",
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D2`, `A1` or `S1`).
    pub rule: &'static str,
    /// What matched, e.g. "`format!` in a no-alloc region".
    pub message: String,
}

impl Finding {
    /// Renders the human-readable single-line report form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} — {}",
            self.file,
            self.line,
            self.rule,
            self.message,
            rationale(self.rule)
        )
    }
}

/// Result of checking one file: its findings and its size.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Every finding in the file.
    pub findings: Vec<Finding>,
    /// Code lines: lines carrying at least one non-comment token,
    /// outside `#[cfg(test)]` / `#[test]` items.
    pub code_lines: usize,
}

/// Metrics/report-path files subject to D2.
const METRICS_PATHS: [&str; 5] = [
    "crates/sim/src/metrics.rs",
    "crates/bench/src/report.rs",
    "crates/bench/src/sink.rs",
    "crates/bench/src/perf.rs",
    "crates/bench/src/experiments.rs",
];

/// Iterator-producing methods D2 watches for on hash-named receivers.
const D2_ITER_METHODS: [&str; 9] = [
    "keys",
    "values",
    "values_mut",
    "iter",
    "iter_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

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

/// A half-open token-index range with the source line span it covers.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    end: usize,
}

impl Region {
    fn contains(&self, idx: usize) -> bool {
        (self.start..self.end).contains(&idx)
    }
}

/// Checks one file's source against every applicable rule.
///
/// `rel` is the workspace-relative path (it selects whether D2
/// applies); `src` is the file's contents.
pub fn check_file(rel: &str, src: &str) -> FileReport {
    let lexed = lexer::lex(src);
    let toks = &lexed.tokens;
    let metrics_path = METRICS_PATHS.contains(&rel);

    let test_regions = test_regions(toks);
    let (no_alloc_regions, orphan_markers) = no_alloc_regions(toks, &lexed.directives);

    let in_test = |idx: usize| test_regions.iter().any(|r| r.contains(idx));

    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            message,
        });
    };

    for idx in 0..toks.len() {
        let t = &toks[idx];
        let Tok::Ident(name) = &t.tok else { continue };

        // D2 — iteration in hash order on metrics/report paths.
        if metrics_path
            && !in_test(idx)
            && D2_ITER_METHODS.contains(&name.as_str())
            && prev_is(toks, idx, '.')
            && next_is(toks, idx, '(')
        {
            if let Some(recv) = receiver_ident(toks, idx) {
                let lower = recv.to_ascii_lowercase();
                if lower.contains("map") || lower.contains("set") || lower.contains("hash") {
                    push(
                        t.line,
                        "D2",
                        format!("`{recv}.{name}()` iterates a hash container on a report path"),
                    );
                }
            }
        }

        // A1 — allocation inside a declared no-alloc region.
        if !no_alloc_regions.is_empty()
            && no_alloc_regions.iter().any(|r| r.contains(idx))
            && !in_test(idx)
        {
            if let Some(what) = alloc_pattern(toks, idx) {
                push(t.line, "A1", format!("`{what}` in a no-alloc region"));
            }
        }
    }

    // S1 — markers that exist but cannot take effect.
    for line in orphan_markers {
        push(
            line,
            "S1",
            "`no-alloc` marker is not followed by a `fn`/`impl`/`mod` item".to_string(),
        );
    }
    for d in &lexed.directives {
        if let DirectiveKind::Malformed { why } = &d.kind {
            push(d.line, "S1", format!("malformed directive: {why}"));
        }
    }

    FileReport {
        findings,
        code_lines: code_lines(&lexed, &test_regions),
    }
}

/// Counts the lines of `lexed` that carry a token or a literal and lie
/// outside every test region.
fn code_lines(lexed: &lexer::Lexed, test_regions: &[Region]) -> usize {
    let toks = &lexed.tokens;
    let test_lines: Vec<(u32, u32)> = test_regions
        .iter()
        .map(|r| (toks[r.start].line, toks[r.end - 1].line))
        .collect();
    let mut lines: Vec<u32> = toks
        .iter()
        .map(|t| t.line)
        .chain(lexed.literal_lines.iter().copied())
        .filter(|line| !test_lines.iter().any(|(a, b)| (a..=b).contains(&line)))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len()
}

fn ident_at(toks: &[Token], idx: usize) -> Option<&str> {
    match toks.get(idx).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], idx: usize) -> Option<char> {
    match toks.get(idx).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

fn prev_is(toks: &[Token], idx: usize, c: char) -> bool {
    idx > 0 && punct_at(toks, idx - 1) == Some(c)
}

fn next_is(toks: &[Token], idx: usize, c: char) -> bool {
    punct_at(toks, idx + 1) == Some(c)
}

/// For `recv.method(` at `idx` (the method ident), the receiver ident
/// directly before the dot, if there is one.
fn receiver_ident(toks: &[Token], idx: usize) -> Option<&str> {
    if idx < 2 {
        return None;
    }
    ident_at(toks, idx - 2)
}

/// Matches the banned allocation constructs at `idx`; returns a display
/// form on a hit. Only `idx` positions that *start* a pattern match, so
/// each construct is reported once.
fn alloc_pattern(toks: &[Token], idx: usize) -> Option<&'static str> {
    let path_to = |head: &str, tail: &str| {
        ident_at(toks, idx) == Some(head)
            && punct_at(toks, idx + 1) == Some(':')
            && punct_at(toks, idx + 2) == Some(':')
            && ident_at(toks, idx + 3) == Some(tail)
    };
    if path_to("Vec", "new") {
        return Some("Vec::new");
    }
    if path_to("Box", "new") {
        return Some("Box::new");
    }
    if path_to("String", "from") {
        return Some("String::from");
    }
    match ident_at(toks, idx) {
        Some("vec") if next_is(toks, idx, '!') => Some("vec!"),
        Some("format") if next_is(toks, idx, '!') => Some("format!"),
        Some("collect")
            if prev_is(toks, idx, '.') && (next_is(toks, idx, '(') || next_is(toks, idx, ':')) =>
        {
            Some(".collect()")
        }
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

/// Regions covered by items carrying a test attribute: from the `#` to
/// the end of the following item (its matched `{…}` block, or the `;`
/// for block-less items like `use`).
fn test_regions(toks: &[Token]) -> Vec<Region> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if punct_at(toks, i) == Some('#') && punct_at(toks, i + 1) == Some('[') {
            let Some(close) = matching(toks, i + 1, '[', ']') else {
                break;
            };
            if is_test_attribute(&toks[i + 2..close]) {
                if let Some(end) = item_end(toks, close + 1) {
                    regions.push(Region { start: i, end });
                    i = end;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    regions
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

/// Resolves `no-alloc` directives into token regions: the whole file
/// for the inner (`//!`) form, the next `fn`/`impl`/`mod` item's block
/// for the outer form. Markers with no following item are returned as
/// orphan lines (an S1 finding).
fn no_alloc_regions(toks: &[Token], directives: &[Directive]) -> (Vec<Region>, Vec<u32>) {
    let mut regions = Vec::new();
    let mut orphans = Vec::new();
    for d in directives {
        let DirectiveKind::NoAlloc { whole_file } = d.kind else {
            continue;
        };
        if whole_file {
            regions.push(Region {
                start: 0,
                end: toks.len(),
            });
            continue;
        }
        let item = toks.iter().position(|t| {
            t.line > d.line
                && matches!(&t.tok, Tok::Ident(s) if s == "fn" || s == "impl" || s == "mod")
        });
        let region = item.and_then(|i| {
            let open = (i..toks.len()).find(|&j| punct_at(toks, j) == Some('{'))?;
            let close = matching(toks, open, '{', '}')?;
            Some(Region {
                start: i,
                end: close + 1,
            })
        });
        match region {
            Some(r) => regions.push(r),
            None => orphans.push(d.line),
        }
    }
    (regions, orphans)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/sim/src/whatever.rs";

    fn rules_hit(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_file(rel, src)
            .findings
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d2_flags_hash_receiver_iteration_on_report_paths() {
        let src = "fn render() { for k in self.port_map.keys() { use_(k); } }\n";
        assert_eq!(rules_hit("crates/bench/src/report.rs", src), [("D2", 1)]);
        // Same code elsewhere: not a report path.
        assert_eq!(rules_hit(SIM, src), []);
        // Non-hash receivers pass.
        let vec_src = "fn render() { for k in self.rows.iter() { use_(k); } }\n";
        assert_eq!(rules_hit("crates/bench/src/report.rs", vec_src), []);
    }

    #[test]
    fn a1_fn_marker_covers_exactly_that_item() {
        let src = "// mot3d-lint: no-alloc\n\
                   fn hot(&mut self) { self.buf.push(1); }\n\
                   fn cold(&mut self) -> Vec<u8> { vec![1] }\n";
        assert_eq!(rules_hit(SIM, src), []);
        let bad = "// mot3d-lint: no-alloc\n\
                   fn hot(&mut self) -> String { format!(\"x{}\", self.n) }\n";
        assert_eq!(rules_hit(SIM, bad), [("A1", 2)]);
    }

    #[test]
    fn a1_inner_marker_covers_the_whole_file() {
        let src = "//! mot3d-lint: no-alloc\n\
                   fn a() { let v = Vec::new(); }\n\
                   fn b() { let b = Box::new(1); }\n\
                   fn c() -> Vec<u8> { (0..3).collect() }\n\
                   fn d() { let s = String::from(\"x\"); }\n";
        assert_eq!(
            rules_hit(SIM, src),
            [("A1", 2), ("A1", 3), ("A1", 4), ("A1", 5)]
        );
    }

    #[test]
    fn a1_collect_with_turbofish_is_caught() {
        let src = "// mot3d-lint: no-alloc\n\
                   fn hot() { let v = (0..3).collect::<Vec<u8>>(); }\n";
        // Both the collect() and the Vec::new-free turbofish land on A1
        // once: the pattern matches the `.collect` head.
        assert_eq!(rules_hit(SIM, src), [("A1", 2)]);
    }

    #[test]
    fn a1_orphan_marker_is_an_s1() {
        assert_eq!(
            rules_hit(SIM, "// mot3d-lint: no-alloc\nconst X: u8 = 1;\n"),
            [("S1", 1)]
        );
    }

    #[test]
    fn malformed_and_unknown_suppressions_are_s1() {
        // There is no suppression channel: a leftover `allow` marker,
        // with or without a reason, is a malformed directive.
        for src in [
            "fn ok() {} // mot3d-lint: allow(P1)\n",
            "fn ok() {} // mot3d-lint: allow(Z9) -- nope\n",
            "fn ok() {} // mot3d-lint: allow(S1) -- sneaky\n",
        ] {
            assert_eq!(rules_hit(SIM, src), [("S1", 1)], "{src}");
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
        assert_eq!(check_file(SIM, src).code_lines, 6);
        assert_eq!(check_file(SIM, "// only a comment\n\n").code_lines, 0);
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
        // A renamed report module must not fall out of D2 silently.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in METRICS_PATHS {
            assert!(root.join(path).is_file(), "{path} is gone");
        }
    }
}
