//! A minimal Rust token scanner for lint-rule matching.
//!
//! This is **not** a full Rust lexer: it produces just enough structure
//! for the lexical rules in [`crate::rules`] — identifiers and
//! punctuation with line numbers — while being exactly right about the
//! parts that would otherwise cause false findings:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`) produce no tokens;
//! * string literals, byte strings, and raw strings (`r"…"`,
//!   `r#"…"#`, any hash depth, with `b`/`br` prefixes) produce no
//!   tokens, so `let s = "HashMap::new()";` never matches a rule;
//! * char literals (`'a'`, `'\n'`, `'\u{1F600}'`) are distinguished
//!   from lifetimes (`'a`), so `'"'` cannot desynchronise string
//!   tracking;
//! * number literals (including `0x1E`, `1_000`, `2.5e-3`) are consumed
//!   whole so their digits and exponent signs never leak as tokens.
//!
//! Comments are skipped, with one exception: line comments carrying a
//! `mot3d-lint:` marker are surfaced as [`Directive`]s — the
//! suppression and `no-alloc` annotation channel.

/// One token kind the rules can match on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `HashMap`, `unwrap`, …).
    Ident(String),
    /// A single punctuation character (`.`, `:`, `!`, `{`, …).
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token itself.
    pub tok: Tok,
}

/// A parsed `mot3d-lint:` comment marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `// mot3d-lint: no-alloc` — the next `fn`/`impl`/`mod` item (or
    /// the whole file for the inner `//!` form) must not allocate.
    NoAlloc {
        /// `true` for the inner-doc form (`//! mot3d-lint: no-alloc`),
        /// which covers the entire file.
        whole_file: bool,
    },
    /// `// mot3d-lint: allow(<rules>) -- <reason>` — suppress the named
    /// rules on this line and the next. The reason is mandatory.
    Allow {
        /// Upper-cased rule ids, e.g. `["P1"]`.
        rules: Vec<String>,
        /// The justification after `--` (never empty).
        reason: String,
    },
    /// A `mot3d-lint:` marker that does not parse — surfaced as an `S1`
    /// finding so typos cannot silently disable enforcement.
    Malformed {
        /// Human-readable description of what is wrong.
        why: String,
    },
}

/// A directive with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line of the comment carrying the marker.
    pub line: u32,
    /// What the marker said.
    pub kind: DirectiveKind,
}

/// The scanner's output: the token stream plus any lint directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Directives in source order.
    pub directives: Vec<Directive>,
    /// Every line a string, char or number literal touches: literals
    /// produce no tokens, but a line holding one is still a code line.
    /// (Identifier lines are in here too, redundantly with `tokens`.)
    /// Ascending; a line may repeat.
    pub literal_lines: Vec<u32>,
}

/// The marker every directive comment starts with.
pub const MARKER: &str = "mot3d-lint:";

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into tokens and directives. Never panics, whatever the
/// input: unterminated strings or comments simply end at end-of-file.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.literal(Self::string_literal),
                '\'' => self.literal(Self::char_or_lifetime),
                c if c.is_whitespace() => {
                    self.bump();
                }
                c if c.is_ascii_digit() => self.literal(Self::number),
                // An identifier sits on one line, which its token already
                // marks; a prefixed (raw) string may span several.
                c if is_ident_start(c) => self.literal(Self::ident_or_prefixed_literal),
                _ => {
                    let line = self.line;
                    self.bump();
                    self.out.tokens.push(Token {
                        line,
                        tok: Tok::Punct(c),
                    });
                }
            }
        }
        self.out
    }

    /// Scans one literal with `scan`, recording the lines it spans.
    fn literal(&mut self, scan: fn(&mut Self)) {
        let start = self.line;
        scan(self);
        self.out.literal_lines.extend(start..=self.line);
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // consume `//`
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if let Some(directive) = parse_directive(&text, line) {
            self.out.directives.push(directive);
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: swallow to EOF
            }
        }
    }

    /// A plain `"…"` string with `\"` / `\\` escapes.
    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// A raw string starting at the current position's `#`* `"` run,
    /// with `hashes` leading `#`s already counted (0 for `r"…"`).
    fn raw_string(&mut self, hashes: usize) {
        for _ in 0..hashes {
            self.bump(); // the `#`s
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }

    /// `'a'` / `'\n'` / `'\u{…}'` char literals vs `'a` lifetimes.
    fn char_or_lifetime(&mut self) {
        self.bump(); // the `'`
        match self.peek(0) {
            // `'\…'` is always a char literal.
            Some('\\') => {
                self.bump();
                self.bump(); // the escaped char (or `u` of `\u{…}`)
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
            }
            // `'x…`: a lifetime unless a closing quote follows the one
            // character, i.e. `'x'`.
            Some(c) if is_ident_start(c) => {
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump(); // char literal like `'x'`
                } else {
                    // Lifetime: consume the identifier, emit nothing.
                    while let Some(c) = self.peek(0) {
                        if !is_ident_continue(c) {
                            break;
                        }
                        self.bump();
                    }
                }
            }
            // `'('`-style single-char literal of a non-ident char.
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
            }
            None => {}
        }
    }

    /// Number literals: `1_000`, `0x1F`, `1.5e-3`, `1.`, `42u64`.
    fn number(&mut self) {
        let radix_prefixed = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x' | 'X' | 'b' | 'B' | 'o' | 'O'));
        let mut last = ' ';
        while let Some(c) = self.peek(0) {
            let digit_follows = || self.peek(1).is_some_and(|d| d.is_ascii_digit());
            let continues = is_ident_continue(c)
                || (c == '.' && digit_follows())
                || (matches!(c, '+' | '-')
                    && matches!(last, 'e' | 'E')
                    && !radix_prefixed
                    && digit_follows());
            if !continues {
                break;
            }
            last = c;
            self.bump();
        }
    }

    /// An identifier — unless it is the `r`/`b`/`br` prefix of a (raw)
    /// string/byte literal, or the `r#` of a raw identifier.
    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let mut ident = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            ident.push(c);
            self.bump();
        }
        match (ident.as_str(), self.peek(0)) {
            // r"…" / b"…" / br"…" / rb"…" plain-quote forms.
            ("r" | "b" | "br" | "rb", Some('"')) => self.string_or_raw(&ident, 0),
            // r#"…"# (any hash depth) or the r#ident raw-identifier form.
            ("r" | "br" | "rb", Some('#')) => {
                let mut hashes = 0usize;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                match self.peek(hashes) {
                    Some('"') => self.raw_string(hashes),
                    // `r#ident`: emit the identifier without its sigil.
                    Some(c) if hashes == 1 && is_ident_start(c) => {
                        self.bump(); // the `#`
                        self.ident_or_prefixed_literal();
                    }
                    _ => self.out.tokens.push(Token {
                        line,
                        tok: Tok::Ident(ident),
                    }),
                }
            }
            // b'x' byte char literal.
            ("b", Some('\'')) => self.char_or_lifetime(),
            _ => self.out.tokens.push(Token {
                line,
                tok: Tok::Ident(ident),
            }),
        }
    }

    fn string_or_raw(&mut self, prefix: &str, hashes: usize) {
        if prefix.contains('r') {
            self.raw_string(hashes);
        } else {
            self.string_literal();
        }
    }
}

/// Parses a `mot3d-lint:` marker out of a line comment's text (the part
/// after `//`). Returns `None` for ordinary comments.
fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    // Doc-comment sigils: `///` and `//!` arrive as leading `/` or `!`.
    let inner_doc = comment.starts_with('!');
    let text = comment.trim_start_matches(['/', '!']).trim();
    let rest = text.strip_prefix(MARKER)?.trim();
    let kind = if rest == "no-alloc" {
        DirectiveKind::NoAlloc {
            whole_file: inner_doc,
        }
    } else if let Some(after) = rest.strip_prefix("allow") {
        parse_allow(after.trim())
    } else {
        DirectiveKind::Malformed {
            why: format!(
                "unknown directive {rest:?} (expected `no-alloc` or `allow(<rules>) -- <reason>`)"
            ),
        }
    };
    Some(Directive { line, kind })
}

fn parse_allow(after: &str) -> DirectiveKind {
    let Some(inner) = after.strip_prefix('(') else {
        return DirectiveKind::Malformed {
            why: "allow needs a parenthesised rule list: allow(<rules>) -- <reason>".into(),
        };
    };
    let Some((list, tail)) = inner.split_once(')') else {
        return DirectiveKind::Malformed {
            why: "unclosed rule list in allow(...)".into(),
        };
    };
    let rules: Vec<String> = list
        .split(',')
        .map(|r| r.trim().to_ascii_uppercase())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return DirectiveKind::Malformed {
            why: "empty rule list in allow(...)".into(),
        };
    }
    let reason = tail
        .trim()
        .strip_prefix("--")
        .map(str::trim)
        .unwrap_or_default();
    if reason.is_empty() {
        return DirectiveKind::Malformed {
            why: "suppression reason is mandatory: allow(<rules>) -- <reason>".into(),
        };
    }
    DirectiveKind::Allow {
        rules,
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn plain_tokens_carry_lines() {
        let l = lex("fn a() {\n  b.c();\n}\n");
        assert_eq!(
            l.tokens[0],
            Token {
                line: 1,
                tok: Tok::Ident("fn".into())
            }
        );
        let b = l
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 2);
    }

    #[test]
    fn line_comments_hide_identifiers() {
        assert_eq!(idents("// HashMap::new()\nlet x = 1;"), ["let", "x"]);
        assert_eq!(idents("/// doc with unwrap()\nfn f() {}"), ["fn", "f"]);
    }

    #[test]
    fn nested_block_comments_are_skipped_whole() {
        let src = "/* outer /* inner unwrap() */ still comment */ fn g() {}";
        assert_eq!(idents(src), ["fn", "g"]);
        // Unterminated: swallow to EOF without panicking.
        assert_eq!(
            idents("/* /* never closed */ HashMap"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn strings_hide_identifiers_and_escapes_work() {
        assert_eq!(
            idents(r#"let s = "HashMap \" still string";"#),
            ["let", "s"]
        );
        assert_eq!(
            idents(r#"let s = "ends \\"; unwrap"#),
            ["let", "s", "unwrap"]
        );
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        assert_eq!(
            idents(r###"let s = r"no # close"; done"###),
            ["let", "s", "done"]
        );
        assert_eq!(
            idents(r####"let s = r#"quote " inside"#; done"####),
            ["let", "s", "done"]
        );
        assert_eq!(
            idents(r####"let s = r##"deep "# inside"##; done"####),
            ["let", "s", "done"]
        );
        assert_eq!(
            idents(r###"let s = br#"bytes"#; done"###),
            ["let", "s", "done"]
        );
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        assert_eq!(idents("let c = 'a'; next"), ["let", "c", "next"]);
        assert_eq!(idents(r"let c = '\n'; next"), ["let", "c", "next"]);
        assert_eq!(idents(r"let c = '\u{1F600}'; next"), ["let", "c", "next"]);
        // A quote char literal must not open a "string".
        assert_eq!(idents("let q = '\"'; unwrap"), ["let", "q", "unwrap"]);
        // Lifetimes emit nothing and consume no closing quote.
        assert_eq!(idents("fn f<'a>(x: &'a str) {}"), ["fn", "f", "x", "str"]);
        assert_eq!(idents("&'static str"), ["str"]);
    }

    #[test]
    fn raw_identifiers_lose_their_sigil() {
        assert_eq!(idents("let r#fn = 1;"), ["let", "fn"]);
    }

    #[test]
    fn numbers_consume_exponents_and_radix_prefixes() {
        assert_eq!(idents("let x = 2.5e-3 + 0x1F + 1_000u64;"), ["let", "x"]);
        // Hex `E` must not swallow a following `+`.
        let l = lex("0x1E + 2");
        assert!(l.tokens.iter().any(|t| t.tok == Tok::Punct('+')));
    }

    #[test]
    fn directive_no_alloc_outer_and_inner() {
        let l = lex("// mot3d-lint: no-alloc\nfn f() {}\n");
        assert_eq!(
            l.directives,
            [Directive {
                line: 1,
                kind: DirectiveKind::NoAlloc { whole_file: false }
            }]
        );
        let l = lex("//! mot3d-lint: no-alloc\n");
        assert_eq!(
            l.directives[0].kind,
            DirectiveKind::NoAlloc { whole_file: true }
        );
    }

    #[test]
    fn directive_allow_requires_reason() {
        let l = lex("x(); // mot3d-lint: allow(P1, d2) -- invariant: peeked first\n");
        assert_eq!(
            l.directives[0].kind,
            DirectiveKind::Allow {
                rules: vec!["P1".into(), "D2".into()],
                reason: "invariant: peeked first".into()
            }
        );
        for bad in [
            "// mot3d-lint: allow(P1)",
            "// mot3d-lint: allow(P1) -- ",
            "// mot3d-lint: allow()  -- why",
            "// mot3d-lint: allow P1 -- why",
            "// mot3d-lint: allwo(P1) -- why",
        ] {
            let l = lex(bad);
            assert!(
                matches!(l.directives[0].kind, DirectiveKind::Malformed { .. }),
                "{bad} should be malformed"
            );
        }
    }

    #[test]
    fn directives_inside_strings_are_not_directives() {
        let l = lex(r#"let s = "// mot3d-lint: no-alloc";"#);
        assert!(l.directives.is_empty());
    }
}
