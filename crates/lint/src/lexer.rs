//! A minimal Rust token scanner for code-line counting.
//!
//! This is **not** a full Rust lexer: it produces just enough structure
//! for [`crate::rules`] — identifiers and punctuation with line numbers,
//! and the lines literals touch — while being exactly right about the
//! parts that would otherwise be miscounted or misread:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`) produce no tokens;
//! * string literals, byte strings, and raw strings (`r"…"`,
//!   `r#"…"#`, any hash depth, with `b`/`br` prefixes) produce no
//!   tokens, so `let s = "HashMap::new()";` never reads as code;
//! * char literals (`'a'`, `'\n'`, `'\u{1F600}'`) are distinguished
//!   from lifetimes (`'a`), so `'"'` cannot desynchronise string
//!   tracking;
//! * number literals (including `0x1E`, `1_000`, `2.5e-3`) are consumed
//!   whole so their digits and exponent signs never leak as tokens.

/// One token kind.
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

/// The scanner's output: the token stream and the lines literals touch.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Every line a string, char or number literal touches: literals
    /// produce no tokens, but a line holding one is still a code line.
    /// (Identifier lines are in here too, redundantly with `tokens`.)
    /// Ascending; a line may repeat.
    pub literal_lines: Vec<u32>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into tokens. Never panics, whatever the
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
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1usize;
        // An unterminated comment swallows the rest of the file.
        while depth > 0 && self.peek(0).is_some() {
            match (self.bump(), self.peek(0)) {
                (Some('/'), Some('*')) => depth += 1,
                (Some('*'), Some('/')) => depth -= 1,
                _ => continue,
            }
            self.bump();
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
            // b"…" and the r"…" / br"…" / rb"…" plain-quote raw forms.
            ("b", Some('"')) => self.string_literal(),
            ("r" | "br" | "rb", Some('"')) => self.raw_string(0),
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
}
