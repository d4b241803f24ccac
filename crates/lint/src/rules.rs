//! The repo-specific lint rules and their matching engine.
//!
//! Every rule here protects an invariant the compiler cannot see but
//! the verification story depends on — bit-identical results across
//! runs and thread counts, and allocation-free active-cycle hot paths:
//!
//! | id | rule |
//! |----|------|
//! | D1 | no default-hasher `HashMap`/`HashSet` in result-affecting crates |
//! | D2 | no iteration in hash-map order on metrics/report paths |
//! | D3 | no `Instant::now`/`SystemTime`/`env::var` outside the two exempt modules (`PerfSink`'s timer, the serve CLI's `HOME`) |
//! | A1 | `// mot3d-lint: no-alloc` regions must not allocate |
//! | P1 | no `unwrap`/`expect`/`panic!` in library crates (incl. serve) outside tests/`debug_assert`s |
//! | H1 | no `BinaryHeap` in the simulator hot-path crates (`sim`/`noc`/`mem`) |
//! | H2 | no `Instant`/`SystemTime` in the trace crate — timestamps are sim cycles |
//! | S1 | `mot3d-lint:` markers must parse and name known rules |
//!
//! Suppression: `// mot3d-lint: allow(<rules>) -- <reason>` on the
//! finding's line or the line above. The reason is mandatory (S1
//! otherwise), so every escape hatch documents why it is sound.

use crate::lexer::{self, Directive, DirectiveKind, Tok, Token};

/// The known rule ids, in report order.
pub const RULES: [&str; 8] = ["D1", "D2", "D3", "A1", "P1", "H1", "H2", "S1"];

/// One-line rationale shown with every finding of a rule.
pub fn rationale(rule: &str) -> &'static str {
    match rule {
        "D1" => {
            "default RandomState iteration order varies per process and silently \
             breaks golden checksums; use mot3d_phys::fnv::{FnvHashMap, FnvHashSet} \
             or mot3d_mem's LineMap"
        }
        "D2" => {
            "hash-map iteration order is unspecified, so metrics/report output \
             built from it is nondeterministic; iterate a sorted or dense \
             structure instead"
        }
        "D3" => {
            "wall-clock and environment reads make runs irreproducible; only \
             PerfSink's sweep timer and the serve CLI's HOME lookup may observe them"
        }
        "A1" => {
            "this region is a declared active-cycle hot path: steady-state \
             allocation undoes the flat-storage wins and perturbs run time"
        }
        "P1" => {
            "library panics abort a whole sweep service; return an error (or \
             suppress with the invariant that makes the panic unreachable)"
        }
        "H1" => {
            "the event queues here were migrated to mot3d_phys::wheel::TimingWheel \
             (O(1) schedule/pop, exact (time, seq) order); a BinaryHeap quietly \
             reintroduces the O(log n) sift the wheel replaced"
        }
        "H2" => {
            "trace timestamps are simulated cycles read off the cluster; a \
             wall-clock read here would stamp events with host time, making \
             traces irreproducible and useless for cross-run comparison"
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
    /// Rule id (`D1`…`S1`).
    pub rule: &'static str,
    /// What matched, e.g. "`.unwrap()` call".
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

/// Result of checking one file: surviving findings plus the number the
/// file's `allow` directives suppressed, and its size.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings not covered by a suppression.
    pub findings: Vec<Finding>,
    /// Findings covered by a valid `allow(...)` directive.
    pub suppressed: usize,
    /// Code lines: lines carrying at least one non-comment token,
    /// outside `#[cfg(test)]` / `#[test]` items.
    pub code_lines: usize,
}

/// The six crates whose state feeds result checksums (plus the facade).
const RESULT_CRATES: [&str; 6] = ["phys", "mot", "noc", "mem", "sim", "workloads"];

/// Metrics/report-path files subject to D2.
const METRICS_PATHS: [&str; 5] = [
    "crates/sim/src/metrics.rs",
    "crates/bench/src/report.rs",
    "crates/bench/src/sink.rs",
    "crates/bench/src/perf.rs",
    "crates/bench/src/experiments.rs",
];

/// The simulator hot-path crates where H1 bans `BinaryHeap` — their
/// event queues ride `mot3d_phys::wheel::TimingWheel` now.
const H1_CRATES: [&str; 3] = ["sim", "noc", "mem"];

/// The trace crate, where H2 bans wall-clock reads outright: every
/// event timestamp must be a simulated cycle read off the cluster.
const H2_PREFIX: &str = "crates/trace/src/";

/// The two modules exempt from D3, each for one read that is its job:
/// `PerfSink` times a sweep with `Instant`, and the serve CLI looks up
/// `HOME` for the default cache directory.
const D3_EXEMPT: [&str; 2] = ["crates/bench/src/sink.rs", "crates/serve/src/cli.rs"];

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

/// Which rules apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, Default)]
struct Scope {
    d1: bool,
    d2: bool,
    d3: bool,
    p1: bool,
    h1: bool,
    h2: bool,
}

/// The first-party crate a workspace-relative source path belongs to
/// for rule scoping and the code-line count: `crates/<name>/src/…`, or
/// the facade's `src/…` (as `mot3d`). Everything else — `tests/`,
/// `benches/`, `examples/`, the benchmark package — is free to use
/// whatever it likes and is not counted.
pub fn crate_of(rel: &str) -> Option<&str> {
    if rel.starts_with("src/") {
        return Some("mot3d");
    }
    let (name, rest) = rel.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(name)
}

fn scope_of(rel: &str) -> Scope {
    // Integration tests, benches, and examples are free to use whatever
    // they like (A1/S1 still apply — they are marker-driven).
    let Some(krate) = crate_of(rel) else {
        return Scope::default();
    };
    let result_crate = krate == "mot3d" || RESULT_CRATES.contains(&krate);
    // The trace observer rides the simulator step path: it must not
    // perturb results (D1), panic out of a sweep (P1), or read the
    // wall clock (H2 — trace timestamps are simulated cycles).
    let trace_crate = rel.starts_with(H2_PREFIX);
    Scope {
        d1: result_crate || trace_crate,
        d2: METRICS_PATHS.contains(&rel),
        d3: !D3_EXEMPT.contains(&rel),
        // The serve crate is a long-running service: a stray panic
        // aborts every in-flight submission, so it gets the same
        // no-panic discipline as the result crates.
        p1: result_crate || trace_crate || rel.starts_with("crates/serve/src/"),
        h1: H1_CRATES.contains(&krate),
        h2: trace_crate,
    }
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
/// `rel` is the workspace-relative path (it selects which rules apply);
/// `src` is the file's contents.
pub fn check_file(rel: &str, src: &str) -> FileReport {
    let lexed = lexer::lex(src);
    let scope = scope_of(rel);
    let toks = &lexed.tokens;

    let test_regions = attribute_regions(toks, is_test_attribute);
    let debug_assert_regions = debug_assert_regions(toks);
    let (no_alloc_regions, orphan_markers) = no_alloc_regions(toks, &lexed.directives);

    let in_test = |idx: usize| test_regions.iter().any(|r| r.contains(idx));
    let in_debug_assert = |idx: usize| debug_assert_regions.iter().any(|r| r.contains(idx));

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        raw.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            message,
        });
    };

    for idx in 0..toks.len() {
        let t = &toks[idx];
        let Tok::Ident(name) = &t.tok else { continue };

        // D1 — default-hasher collections in result-affecting crates.
        if scope.d1 && matches!(name.as_str(), "HashMap" | "HashSet") {
            push(t.line, "D1", format!("default-hasher `{name}`"));
        }

        // H1 — BinaryHeap in the simulator hot-path crates.
        if scope.h1 && name == "BinaryHeap" {
            push(t.line, "H1", "`BinaryHeap` use".to_string());
        }

        // D2 — iteration in hash order on metrics/report paths.
        if scope.d2
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

        // D3 — wall-clock / environment reads outside timing modules.
        // In the trace crate a clock read is the sharper H2 instead:
        // event timestamps there must be simulated cycles, never host
        // time. (env reads stay D3 — H2 is specifically about clocks.)
        if scope.d3 && !in_test(idx) {
            match name.as_str() {
                "Instant" | "SystemTime" if scope.h2 => {
                    push(t.line, "H2", format!("`{name}` use in trace code"));
                }
                "Instant" | "SystemTime" => {
                    push(t.line, "D3", format!("`{name}` use"));
                }
                "env"
                    if next_is(toks, idx, ':')
                        && matches!(
                            ident_at(toks, idx + 3),
                            Some("var" | "var_os" | "vars" | "vars_os")
                        ) =>
                {
                    push(
                        t.line,
                        "D3",
                        format!(
                            "`env::{}` read",
                            ident_at(toks, idx + 3).unwrap_or_default()
                        ),
                    );
                }
                _ => {}
            }
        }

        // P1 — panicking calls in library code.
        if scope.p1 && !in_test(idx) && !in_debug_assert(idx) {
            match name.as_str() {
                "unwrap" | "expect" if prev_is(toks, idx, '.') && next_is(toks, idx, '(') => {
                    push(t.line, "P1", format!("`.{name}()` call"));
                }
                "panic" if next_is(toks, idx, '!') => {
                    push(t.line, "P1", "`panic!` invocation".to_string());
                }
                _ => {}
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
        match &d.kind {
            DirectiveKind::Malformed { why } => {
                push(d.line, "S1", format!("malformed directive: {why}"));
            }
            DirectiveKind::Allow { rules, .. } => {
                for r in rules {
                    if !RULES.contains(&r.as_str()) || r == "S1" {
                        push(d.line, "S1", format!("cannot suppress unknown rule `{r}`"));
                    }
                }
            }
            DirectiveKind::NoAlloc { .. } => {}
        }
    }

    let mut report = apply_suppressions(raw, &lexed.directives);
    report.code_lines = code_lines(&lexed, &test_regions);
    report
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

/// Regions covered by items carrying an attribute matched by `pred`:
/// from the `#` to the end of the following item (its matched `{…}`
/// block, or the `;` for block-less items like `use`).
fn attribute_regions(toks: &[Token], pred: impl Fn(&[Token]) -> bool) -> Vec<Region> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if punct_at(toks, i) == Some('#') && punct_at(toks, i + 1) == Some('[') {
            let Some(close) = matching(toks, i + 1, '[', ']') else {
                break;
            };
            if pred(&toks[i + 2..close]) {
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

/// Paren spans of `debug_assert!`/`debug_assert_eq!`/`debug_assert_ne!`
/// invocations — P1 tolerates panicking helpers inside them.
fn debug_assert_regions(toks: &[Token]) -> Vec<Region> {
    let mut regions = Vec::new();
    for i in 0..toks.len() {
        if let Some(name) = ident_at(toks, i) {
            if name.starts_with("debug_assert") && next_is(toks, i, '!') {
                let open = i + 2;
                let close = match punct_at(toks, open) {
                    Some('(') => matching(toks, open, '(', ')'),
                    Some('[') => matching(toks, open, '[', ']'),
                    Some('{') => matching(toks, open, '{', '}'),
                    _ => None,
                };
                if let Some(close) = close {
                    regions.push(Region {
                        start: i,
                        end: close + 1,
                    });
                }
            }
        }
    }
    regions
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

/// Drops findings covered by an `allow` directive on the same line or
/// the line directly above.
fn apply_suppressions(raw: Vec<Finding>, directives: &[Directive]) -> FileReport {
    let allows: Vec<(u32, &Vec<String>)> = directives
        .iter()
        .filter_map(|d| match &d.kind {
            DirectiveKind::Allow { rules, .. } => Some((d.line, rules)),
            _ => None,
        })
        .collect();
    let mut report = FileReport::default();
    for f in raw {
        let suppressed = f.rule != "S1"
            && allows.iter().any(|(line, rules)| {
                (*line == f.line || line + 1 == f.line) && rules.iter().any(|r| r == f.rule)
            });
        if suppressed {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }
    report
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
    fn d1_flags_default_hashers_in_result_crates_only() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashSet<u8> = HashSet::new(); }\n";
        assert_eq!(rules_hit(SIM, src), [("D1", 1), ("D1", 2), ("D1", 2)]);
        assert_eq!(rules_hit("crates/bench/src/plan.rs", src), []);
        assert_eq!(rules_hit("crates/sim/tests/properties.rs", src), []);
    }

    #[test]
    fn d1_ignores_comments_and_strings() {
        let src = "// a HashMap here\nlet s = \"HashSet\";\n";
        assert_eq!(rules_hit(SIM, src), []);
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
    fn d3_flags_clock_and_env_outside_timing_modules() {
        let src = "fn f() { let t = Instant::now(); let v = std::env::var(\"X\"); }\n";
        assert_eq!(rules_hit(SIM, src), [("D3", 1), ("D3", 1)]);
        assert_eq!(
            rules_hit("crates/bench/src/perf.rs", src),
            [("D3", 1), ("D3", 1)]
        );
        assert_eq!(rules_hit("crates/bench/src/sink.rs", src), []);
        // `env::args` is fine — only environment *reads* are banned.
        assert_eq!(rules_hit(SIM, "fn f() { let a = std::env::args(); }"), []);
    }

    #[test]
    fn p1_flags_panics_outside_tests_and_debug_asserts() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
                   fn h() { panic!(\"boom\"); }\n";
        assert_eq!(rules_hit(SIM, src), [("P1", 1), ("P1", 2), ("P1", 3)]);
        // unwrap_or / expect_err style names never match.
        assert_eq!(
            rules_hit(SIM, "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }"),
            []
        );
    }

    #[test]
    fn p1_tolerates_cfg_test_modules_and_debug_asserts() {
        let src = "fn f(m: u64) { debug_assert!(m.checked_mul(2).unwrap() > 0); }\n\
                   #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u8>.unwrap(); }\n}\n";
        assert_eq!(rules_hit(SIM, src), []);
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
    fn suppressions_cover_same_line_and_next_line() {
        let same =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // mot3d-lint: allow(P1) -- test fixture\n";
        let r = check_file(SIM, same);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);
        let above =
            "// mot3d-lint: allow(P1) -- test fixture\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_file(SIM, above).findings.is_empty());
        // Wrong rule id: the finding survives.
        let wrong = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // mot3d-lint: allow(D1) -- wrong\n";
        assert_eq!(rules_hit(SIM, wrong), [("P1", 1)]);
    }

    #[test]
    fn malformed_and_unknown_suppressions_are_s1() {
        assert_eq!(
            rules_hit(SIM, "fn ok() {} // mot3d-lint: allow(P1)\n"),
            [("S1", 1)]
        );
        assert_eq!(
            rules_hit(SIM, "fn ok() {} // mot3d-lint: allow(Z9) -- nope\n"),
            [("S1", 1)]
        );
        // S1 itself cannot be suppressed.
        assert_eq!(
            rules_hit(SIM, "fn ok() {} // mot3d-lint: allow(S1) -- sneaky\n"),
            [("S1", 1)]
        );
    }

    #[test]
    fn h1_flags_binary_heap_in_hot_path_crates_only() {
        let src = "use std::collections::BinaryHeap;\n\
                   struct Q { events: BinaryHeap<u64> }\n";
        assert_eq!(rules_hit(SIM, src), [("H1", 1), ("H1", 2)]);
        assert_eq!(
            rules_hit("crates/noc/src/network.rs", src),
            [("H1", 1), ("H1", 2)]
        );
        assert_eq!(
            rules_hit("crates/mem/src/bus.rs", src),
            [("H1", 1), ("H1", 2)]
        );
        // phys hosts the wheel itself; bench/tests are out of scope.
        assert_eq!(rules_hit("crates/phys/src/wheel.rs", src), []);
        assert_eq!(rules_hit("crates/bench/src/plan.rs", src), []);
        assert_eq!(rules_hit("crates/sim/tests/properties.rs", src), []);
    }

    #[test]
    fn h1_suppression_requires_a_reason() {
        let ok = "// mot3d-lint: allow(H1) -- differential reference for the wheel\n\
                  use std::collections::BinaryHeap;\n";
        let r = check_file(SIM, ok);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);
        let bare = "use std::collections::BinaryHeap; // mot3d-lint: allow(H1)\n";
        let hit = rules_hit(SIM, bare);
        assert!(hit.contains(&("H1", 1)) && hit.contains(&("S1", 1)));
    }

    #[test]
    fn h2_reclassifies_clock_reads_in_the_trace_crate() {
        let src = "fn f() { let t = Instant::now(); let e = SystemTime::now(); }\n";
        assert_eq!(
            rules_hit("crates/trace/src/chrome.rs", src),
            [("H2", 1), ("H2", 1)]
        );
        // The same code elsewhere stays D3; trace tests are exempt.
        assert_eq!(rules_hit(SIM, src), [("D3", 1), ("D3", 1)]);
        assert_eq!(rules_hit("crates/trace/tests/golden_trace.rs", src), []);
        // env reads in trace code are still D3 — H2 is clocks only.
        assert_eq!(
            rules_hit(
                "crates/trace/src/lib.rs",
                "fn f() { let v = std::env::var(\"X\"); }\n"
            ),
            [("D3", 1)]
        );
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
        assert!(scope_of("crates/mem/src/dram.rs").d1);
        assert!(scope_of("src/lib.rs").d1);
        assert!(!scope_of("crates/bench/src/plan.rs").d1);
        assert!(!scope_of("crates/mem/tests/properties.rs").p1);
        assert!(!scope_of("examples/quickstart.rs").d3);
        assert!(scope_of("crates/bench/src/plan.rs").d3);
        for exempt in ["crates/bench/src/sink.rs", "crates/serve/src/cli.rs"] {
            assert!(!scope_of(exempt).d3, "{exempt}");
        }
        for checked in [
            "crates/bench/src/cli.rs",
            "crates/bench/src/perf.rs",
            "crates/bench/src/pool.rs",
            "crates/bench/src/experiments.rs",
        ] {
            assert!(scope_of(checked).d3, "{checked}");
        }
        assert!(scope_of("crates/serve/src/store.rs").d3);
        assert!(
            !scope_of("crates/serve/src/store.rs").d1,
            "not a result crate"
        );
        assert!(
            scope_of("crates/serve/src/exec.rs").p1,
            "the service must not panic"
        );
        assert!(!scope_of("crates/serve/tests/chaos.rs").p1);
        assert!(!scope_of("crates/bench/src/pool.rs").p1);
        assert!(scope_of("crates/bench/src/report.rs").d2);
        // The trace crate: no-panic, no default hashers, no clocks.
        assert!(scope_of("crates/trace/src/observer.rs").p1);
        assert!(scope_of("crates/trace/src/observer.rs").d1);
        assert!(scope_of("crates/trace/src/chrome.rs").h2);
        assert!(!scope_of("crates/trace/tests/differential.rs").h2);
        assert!(!scope_of("crates/sim/src/cluster.rs").h2);
    }
}
