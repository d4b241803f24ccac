//! The workspace's one JSON reader and one string escaper.
//!
//! The workspace has no external dependencies, and the documents it
//! reads — the sweep service's wire protocol and result store, the perf
//! baseline of `mot3d perf check`, whole trace files in tests — are
//! plain, so a ~200-line recursive descent parser is the whole story. It
//! lives here, beside [`crate::fnv`], because every crate that reads or
//! writes JSON already depends on this one (`mot3d_serve::json`
//! re-exports it).
//!
//! The parser is linear in its input. A string is copied one *run* at a
//! time: the plain bytes up to the next `"`, `\` or control byte go out
//! in one `push_str` of the already-validated `&str` (every delimiter is
//! ASCII, so every run ends on a char boundary), and only escapes are
//! decoded byte by byte. It is RFC 8259-strict: raw control characters
//! (`< 0x20`) inside a string are rejected with their byte offset — every
//! first-party writer escapes them through [`escape_into`] — numbers must
//! match the RFC grammar, and nesting is bounded.
//!
//! One deliberate quirk: numbers are kept as their **raw source text**
//! ([`JsonValue::Num`]), because the result store round-trips `f64`s as
//! exact `to_bits` integers — a detour through lossy float parsing would
//! break the byte-identity contract.
//!
//! Writers stay with their owners: each document's spacing is part of a
//! byte-identity contract, so they are `write!` templates around
//! [`json_string`] / [`escape_into`], not a generic serialiser.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw source text (see module docs).
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as an exact `u64` (rejects signs, fractions,
    /// and exponents — the store's bit-pattern fields must not take a
    /// float detour).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number's raw source text, if this is a number.
    pub fn num_text(&self) -> Option<&str> {
        match self {
            JsonValue::Num(raw) => Some(raw),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` into `out` as JSON string *content* (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Serialises a string as a JSON string literal (quotes + escapes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a human-readable description with a byte offset.
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

/// Arrays and objects nest by recursion; the bound keeps a line of
/// `[[[[…` from a socket from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; `bytes` is the same input, for byte-wise dispatch.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// The RFC 8259 number grammar, `[-] (0 | 1-9 digits) [. digits]
    /// [(e|E) [+|-] digits]`, kept as raw text. Whatever follows must
    /// be a delimiter the caller accepts, so `01` and `1.2.3` fail there.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if self.digits() == 0 {
            return Err(bad());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        // Every byte consumed above is ASCII: a char boundary of `src`.
        Ok(JsonValue::Num(self.src[start..self.pos].to_string()))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next delimiter in one
            // go. Delimiters are ASCII, so `pos` lands on a char boundary.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | ..0x20));
            self.pos = run.map_or(self.bytes.len(), |len| start + len);
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u code point".to_string())?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(c) => return Err(format!("raw control {c:#04x} at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].num_text(), Some("2.5"));
        assert_eq!(arr[1].as_u64(), None, "fractions are not u64s");
        assert_eq!(arr[2].as_u64(), None, "signs are not u64s");
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_round_trips_at_full_precision() {
        let raw = format!("{{\"bits\": {}}}", u64::MAX);
        let v = parse(&raw).unwrap();
        assert_eq!(v.get("bits").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "q\"uote",
            "back\\slash",
            "tab\there",
            "snow\u{2603}",
        ] {
            let doc = format!("{{\"k\": {}}}", json_string(s));
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(s), "{doc}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "01x",
            "{} {}",
            "\"\\q\"",
            // Not RFC 8259 numbers.
            "1.2.3",
            "1e",
            "1e+",
            "--1",
            "-",
            "01",
            "-01",
            "1.",
            ".5",
            "+1",
            "[1.e3]",
            // RFC 8259: control characters inside strings must be escaped.
            "\"a\nb\"",
            "{\"k\u{1}\": 1}",
            "[\"\u{1f}\"]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse("\"a\nb\"").unwrap_err();
        assert!(err.contains("at byte 2"), "{err}");
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err(), "unbounded nesting");
    }

    /// A string-heavy document past 1 MiB parses, in a debug test run:
    /// the reader copies plain runs whole, so the cost is linear.
    #[test]
    fn parses_a_mebibyte_of_string_heavy_records() {
        let record = |i: usize| {
            format!(
                "{{\"index\": {i}, \"workload\": {}, \"interconnect\": \"mot3d\", \
                 \"note\": {}, \"label\": {}}}",
                json_string(&format!("fft-{i} \u{2603} \"quoted\" back\\slash")),
                json_string(&"plain text, no escapes at all. ".repeat(14)),
                json_string(&format!("tab\there \u{1F600} line\nbreak {i}")),
            )
        };
        let doc = format!(
            "[{}]",
            (0..2_000).map(record).collect::<Vec<_>>().join(",\n")
        );
        assert!(doc.len() >= 1 << 20, "{} bytes", doc.len());
        let v = parse(&doc).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 2_000);
        assert_eq!(
            items[1_999].get("label").unwrap().as_str(),
            Some("tab\there \u{1F600} line\nbreak 1999")
        );
        assert_eq!(
            items[7].get("workload").unwrap().as_str(),
            Some("fft-7 \u{2603} \"quoted\" back\\slash")
        );
    }

    #[test]
    fn rfc_8259_numbers_parse_as_raw_text() {
        for good in ["0", "-0", "10", "-12.5", "0.004", "1e9", "1E-9", "2.5e+3"] {
            assert_eq!(parse(good).unwrap().num_text(), Some(good), "{good:?}");
        }
    }

    proptest! {
        /// Arbitrary bytes — biased towards JSON's own punctuation, so
        /// that the soup gets past the first byte — never panic `parse`.
        #[test]
        fn arbitrary_bytes_never_panic_parse(
            soup in prop::collection::vec(
                prop_oneof![
                    prop::sample::select(b"{}[]\",:\\-+.eEu0123456789ntfalsr \n".to_vec()),
                    any::<u8>(),
                ],
                0..96,
            ),
        ) {
            let _ = parse(&String::from_utf8_lossy(&soup));
        }

        /// Arbitrary strings — quotes, backslashes, controls, multi-byte
        /// and astral scalars mixed with plain runs — round-trip through
        /// the escaper and the reader.
        #[test]
        fn arbitrary_strings_round_trip(
            chars in prop::collection::vec(
                prop_oneof![
                    prop::sample::select(vec![
                        '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}',
                        'é', '\u{2603}', '\u{1F600}', '\u{10FFFF}',
                    ]),
                    (0u32..0x80).prop_map(char_or_replacement),
                    (0x80u32..0x1_0000).prop_map(char_or_replacement),
                    (0x1_0000u32..0x11_0000).prop_map(char_or_replacement),
                ],
                0..64,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            let v = parse(&json_string(&s));
            prop_assert_eq!(v, Ok(JsonValue::Str(s.clone())));
            let doc = format!("{{{}: [{}]}}", json_string(&s), json_string(&s));
            let v = parse(&doc).map_err(TestCaseError::fail)?;
            let member = v.get(&s).and_then(|a| a.as_array()?.first()?.as_str());
            prop_assert_eq!(member, Some(s.as_str()));
        }
    }

    /// A scalar for `code`, or U+FFFD for the surrogate range.
    fn char_or_replacement(code: u32) -> char {
        char::from_u32(code).unwrap_or('\u{FFFD}')
    }

    #[test]
    fn control_characters_escape_as_u_sequences() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        let v = parse("\"a\\u0001b\"").unwrap();
        assert_eq!(v.as_str(), Some("a\u{1}b"));
    }
}
