//! Golden-fixture tests: every file under `tests/fixtures/` seeds known
//! violations and annotates the exact findings it expects inline.
//!
//! Annotation grammar (ordinary comments, invisible to the scanner):
//!
//! * `//@ path: <rel>` — the synthetic workspace-relative path the
//!   fixture is checked under (rule scoping is path-driven, and the
//!   fixtures directory itself is excluded from workspace scans);
//! * `//~ R1 [R2 …]` trailing a line — findings expected on that line;
//! * `//^ R1 [R2 …]` on its own line — findings expected on the line
//!   above (used for directive lines, where a trailing comment would
//!   change the very text being tested).

use mot3d_lint::lexer;
use mot3d_lint::rules::check_file;
use std::fs;
use std::path::{Path, PathBuf};

struct Expectations {
    rel_path: String,
    /// Sorted `(line, rule)` pairs.
    findings: Vec<(u32, String)>,
}

fn parse_expectations(fixture: &Path, src: &str) -> Expectations {
    let mut rel_path = None;
    let mut findings = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let trimmed = line.trim_start();
        if let Some(p) = trimmed.strip_prefix("//@ path:") {
            rel_path = Some(p.trim().to_string());
        } else if let Some(rules) = trimmed.strip_prefix("//^") {
            assert!(lineno > 1, "{}: //^ on the first line", fixture.display());
            findings.extend(
                rules
                    .split_whitespace()
                    .map(|r| (lineno - 1, r.to_string())),
            );
        } else if let Some((_, rules)) = line.split_once("//~") {
            findings.extend(rules.split_whitespace().map(|r| (lineno, r.to_string())));
        }
    }
    findings.sort();
    Expectations {
        rel_path: rel_path
            .unwrap_or_else(|| panic!("{}: missing //@ path header", fixture.display())),
        findings,
    }
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixtures_produce_exactly_the_annotated_findings() {
    let mut checked = 0usize;
    let mut seen_rules: Vec<String> = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    entries.sort();
    for fixture in entries {
        let src = fs::read_to_string(&fixture).expect("read fixture");
        let exp = parse_expectations(&fixture, &src);
        let report = check_file(&exp.rel_path, &src);
        let mut got: Vec<(u32, String)> = report
            .findings
            .iter()
            .map(|f| (f.line, f.rule.to_string()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            exp.findings,
            "{} (as {})",
            fixture.display(),
            exp.rel_path
        );
        seen_rules.extend(got.into_iter().map(|(_, r)| r));
        checked += 1;
    }
    assert!(checked >= 3, "expected the full fixture set, saw {checked}");
    // Every deny-able rule must have at least one seeded violation that
    // the fixture suite detects.
    for rule in ["D2", "A1", "S1"] {
        assert!(
            seen_rules.iter().any(|r| r == rule),
            "no fixture exercises {rule}"
        );
    }
}

#[test]
fn workspace_scan_is_clean_and_skips_the_fixtures() {
    let root = mot3d_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = mot3d_lint::scan_workspace(&root).expect("scan");
    // This is the same gate CI enforces with `--deny`: the repo itself
    // must stay finding-free (the fixtures above prove the rules fire).
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "repo has findings:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files > 50,
        "suspiciously few files: {}",
        report.files
    );
}

/// Splittable xorshift64* — fixed seed, so the "fuzz" corpus is
/// identical on every run (the lint's own determinism rules apply to
/// its tests in spirit).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn lexer_survives_adversarial_character_soup() {
    // Characters chosen to stress every tricky lexer path: comment
    // openers, quote kinds, raw-string sigils, escapes, digits.
    const POOL: &[char] = &[
        '/', '*', '"', '\'', '\\', '#', 'r', 'b', '!', '.', ':', '(', ')', '{', '}', '[', ']', 'e',
        'E', '+', '-', '_', '0', '1', '9', 'x', 'a', 'Z', ' ', '\n', '\t', '~', '@',
    ];
    let mut rng = XorShift(0x0DA7_E201_2016_0318);
    for _ in 0..256 {
        let len = (rng.next() % 240) as usize + 16;
        let soup: String = (0..len)
            .map(|_| POOL[(rng.next() % POOL.len() as u64) as usize])
            .collect();
        let lexed = lexer::lex(&soup);
        let lines = soup.lines().count() as u32 + 1;
        let mut last = 1;
        for t in &lexed.tokens {
            assert!(t.line >= last && t.line <= lines, "line order in {soup:?}");
            last = t.line;
        }
        for d in &lexed.directives {
            assert!(d.line >= 1 && d.line <= lines);
        }
    }
}

#[test]
fn identifiers_hidden_in_strings_and_comments_never_lint() {
    // Property: wrapping any violating snippet in a string literal or
    // comment must erase its findings. Bare, each snippet fires once.
    let snippets = [
        "let v = Vec::new();",
        "format!(\"x\")",
        "port_map.keys()",
        "(0..3).collect::<Vec<u8>>()",
    ];
    let findings = |body: &str| {
        let src = format!("// mot3d-lint: no-alloc\nfn f() {{ {body}\n}}\n");
        check_file("crates/bench/src/report.rs", &src).findings
    };
    for s in snippets {
        assert_eq!(findings(s).len(), 1, "{s:?} bare");
        let as_string = format!("let s = \"{}\";", s.replace('"', "\\\""));
        let as_comment = format!("// {s}");
        let as_block = format!("/* {s} */");
        for body in [as_string, as_comment, as_block] {
            let hit = findings(&body);
            assert!(hit.is_empty(), "{body:?} produced {hit:?}");
        }
    }
}
