//! Whole-workspace and adversarial-input tests of the scanner.

use mot3d_lint::lexer::{self, Tok};
use std::path::Path;

#[test]
fn workspace_scan_counts_every_first_party_crate() {
    let root = mot3d_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = mot3d_lint::scan_workspace(&root).expect("scan");
    assert!(
        report.files > 50,
        "suspiciously few files: {}",
        report.files
    );
    for krate in ["mot3d", "phys", "mot", "noc", "mem", "sim", "lint"] {
        assert!(
            report.loc.get(krate).is_some_and(|&lines| lines > 0),
            "{krate} not counted: {:?}",
            report.loc
        );
    }
}

/// Splittable xorshift64* — fixed seed, so the "fuzz" corpus is
/// identical on every run.
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
        for &line in &lexed.literal_lines {
            assert!(line >= 1 && line <= lines);
        }
    }
}

#[test]
fn identifiers_hidden_in_strings_and_comments_never_lint() {
    // Property: wrapping any snippet in a string literal or comment must
    // hide its identifiers, so that a type named only in a comment or a
    // message cannot trip the report-path fence. Bare, each snippet
    // names its type.
    let snippets = [
        ("let m: HashMap<u8, u8> = x;", "HashMap"),
        ("FnvHashSet::default()", "FnvHashSet"),
        ("for k in &counts { use_(k) }", "counts"),
        ("(0..3).collect::<Vec<u8>>()", "collect"),
    ];
    let names = |body: &str, ident: &str| {
        lexer::lex(&format!("fn f() {{ {body}\n}}\n"))
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Ident(ident.to_string()))
            .count()
    };
    for (s, ident) in snippets {
        assert_eq!(names(s, ident), 1, "{s:?} bare");
        let as_string = format!("let s = \"{}\";", s.replace('"', "\\\""));
        let as_comment = format!("// {s}");
        let as_block = format!("/* {s} */");
        for body in [as_string, as_comment, as_block] {
            assert_eq!(names(&body, ident), 0, "{body:?}");
        }
    }
}
