//! Decoder fuzz: every decoder that reads bytes from a socket or from the
//! cache directory returns `Ok` or a typed `Err` on arbitrary input, and
//! never panics.
//!
//! Two kinds of input:
//! * arbitrary strings (JSON punctuation, hex digits, signs, multi-byte
//!   and astral characters) through `PlanRequest::parse` (and
//!   `to_plan`), `codec::metrics_from_json` and `CacheKey::from_hex`;
//! * single-byte mutations of a valid request line, metrics line and
//!   store line. The decoders see every byte value at every position.
//!   `ResultStore::open` sees every position of a store line (the first
//!   line, before an intact neighbour, and the last line) with one byte
//!   of each class the parser branches on; each open is a real open of
//!   the mutated file. Every mutated line fails its checksum and is
//!   dropped, whether or not it still parses: it is served under no
//!   key, and the store keeps serving its other entries and new ones.

use mot3d_bench::plan::{ExperimentPlan, RunRecord};
use mot3d_bench::ExperimentScale;
use mot3d_serve::codec::{metrics_from_json, metrics_to_json};
use mot3d_serve::json;
use mot3d_serve::{cache_key, CacheKey, Fingerprint, PlanRequest, ResultStore};
use mot3d_workloads::SplashBenchmark;
use proptest::prelude::*;
use proptest::test_runner::Config;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-fuzz-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A scalar for `code`, or U+FFFD for the surrogate range.
fn char_or_replacement(code: u32) -> char {
    char::from_u32(code).unwrap_or('\u{FFFD}')
}

/// Characters that reach the interesting branches of every decoder.
fn decoder_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::sample::select("{}[]\":,\\ 0123456789abcdefg+-.eEntrul".chars().collect()),
        prop::sample::select(vec!['€', 'é', '\u{1F600}', '\u{0}', '\n']),
        (0u32..0x80).prop_map(char_or_replacement),
        (0x80u32..0x11_0000).prop_map(char_or_replacement),
    ]
}

/// Runs every string decoder on `s`; each must return, not panic.
fn decode_all(s: &str) {
    if let Ok(request) = PlanRequest::parse(s) {
        let _ = request.to_plan();
    }
    let _ = metrics_from_json(s);
    let _ = CacheKey::from_hex(s);
}

proptest! {
    #![proptest_config(Config::with_cases(256))]

    /// Arbitrary strings never panic a decoder, and none of them is a
    /// metrics document.
    #[test]
    fn arbitrary_strings_never_panic_a_decoder(
        chars in prop::collection::vec(decoder_char(), 0..96),
    ) {
        let s: String = chars.into_iter().collect();
        decode_all(&s);
        prop_assert!(metrics_from_json(&s).is_err(), "{s:?} decoded as metrics");
    }

    /// A 32-byte string is a key exactly when it is 32 lowercase hex
    /// digits, and a key's spelling is unique: whatever parses is what
    /// `to_hex` prints.
    #[test]
    fn from_hex_accepts_exactly_the_canonical_spelling(
        chars in prop::collection::vec(
            prop::sample::select("0123456789abcdefABCDEF+-g €é".chars().collect()),
            32..33,
        ),
    ) {
        let mut s = String::new();
        for c in chars {
            if s.len() + c.len_utf8() <= 32 {
                s.push(c);
            }
        }
        while s.len() < 32 {
            s.push('0');
        }
        let canonical = s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match CacheKey::from_hex(&s) {
            Some(key) => prop_assert_eq!(key.to_hex(), s),
            None => prop_assert!(!canonical, "{s:?} rejected"),
        }
    }
}

/// Runs `check` on each single-byte mutation of `line` that puts one of
/// `bytes` at one position.
fn for_each_mutation(line: &[u8], bytes: &[u8], mut check: impl FnMut(usize, &[u8])) {
    let mut mutated = line.to_vec();
    for pos in 0..line.len() {
        for &b in bytes {
            if b == line[pos] {
                continue;
            }
            mutated[pos] = b;
            check(pos, &mutated);
        }
        mutated[pos] = line[pos];
    }
}

/// One of each byte class the store's parsers branch on: a digit, a hex
/// and a non-hex letter, a sign, JSON punctuation, a space, a line end,
/// a control, and UTF-8 continuation, lead and invalid bytes.
const REPRESENTATIVE_BYTES: &[u8] = b"0ag+ \"\\,}\n\x00\x80\xe2\xff";

#[test]
fn every_single_byte_mutation_of_a_request_line_decodes_or_errs() {
    let mut request = PlanRequest::new("sweep");
    request.bench = Some("fft,radix".into());
    request.interconnect = Some("all".into());
    request.power_state = Some("full,pc16-mb8".into());
    request.dram = Some("63ns".into());
    request.page = Some("both".into());
    request.repeat = Some(2);
    request.scale = Some("tiny".into());
    request.seed = Some(7);
    let line = request.to_line();
    assert_eq!(PlanRequest::parse(&line), Ok(request));
    let every: Vec<u8> = (0..=255).collect();
    for_each_mutation(line.as_bytes(), &every, |_, m| {
        decode_all(&String::from_utf8_lossy(m))
    });
}

/// Three records and the exact store lines a store writes for the
/// first two.
struct Fixture {
    records: Vec<RunRecord>,
    keys: Vec<CacheKey>,
    lines: [Vec<u8>; 2],
}

fn fixture() -> Fixture {
    let records: Vec<RunRecord> = ExperimentPlan::new("fuzz")
        .splash([SplashBenchmark::Fft])
        .page_policies([false, true])
        .repeats(2)
        .scale(ExperimentScale::tiny())
        .threads(1)
        .run()
        .unwrap()
        .into_iter()
        .take(3)
        .collect();
    let fp = Fingerprint::current();
    let keys: Vec<CacheKey> = records.iter().map(|r| cache_key(&fp, &r.point)).collect();
    let dir = scratch_dir("fixture");
    {
        let mut store = ResultStore::open(&dir).unwrap();
        for i in 0..2 {
            store.put(keys[i], &records[i].metrics).unwrap();
        }
    }
    let data = fs::read(dir.join("results.jsonl")).unwrap();
    let mut it = data.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec);
    let lines = [it.next().unwrap(), it.next().unwrap()];
    assert!(it.next().is_none());
    fs::remove_dir_all(&dir).unwrap();
    Fixture {
        records,
        keys,
        lines,
    }
}

/// The key a mutated store line still names, if it still parses as
/// one newline-terminated JSON object with a canonical key.
fn store_line_key(line: &[u8]) -> Option<CacheKey> {
    let text = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
    if text.contains('\n') {
        return None;
    }
    let v = json::parse(text).ok()?;
    CacheKey::from_hex(v.get("key")?.as_str()?)
}

impl Fixture {
    /// Asserts that `store` serves record `i` unchanged.
    fn serves(&self, store: &mut ResultStore, i: usize) {
        let got = store.get(self.keys[i]).unwrap();
        assert_eq!(got.as_ref(), Some(&self.records[i].metrics), "record {i}");
    }

    /// Writes `file` (the two stored lines, record `mutated`'s with its
    /// byte `pos` changed) as the store's results file and opens the
    /// store over it. The mutated line is dropped and served under no
    /// key, neither its own nor one it still names; the records in
    /// `intact` are served unchanged; whatever follows the last newline
    /// is truncated away. Then the store keeps serving: a new result
    /// goes in and comes back out, also after a reopen.
    fn open_and_serve(
        &self,
        dir: &Path,
        file: &[u8],
        mutated: usize,
        intact: &[usize],
        pos: usize,
    ) {
        let split = self.lines[0].len();
        let m = if mutated == 0 {
            &file[..split]
        } else {
            &file[split..]
        };
        let path = dir.join("results.jsonl");
        fs::create_dir_all(dir).unwrap();
        fs::write(&path, file).unwrap();
        {
            let mut store = ResultStore::open(dir).unwrap();
            assert_eq!(store.len(), intact.len(), "byte {pos}");
            assert_eq!(store.get(self.keys[mutated]).unwrap(), None, "byte {pos}");
            if let Some(key) = store_line_key(m) {
                if !intact.iter().any(|&i| self.keys[i] == key) {
                    assert_eq!(store.get(key).unwrap(), None, "byte {pos}");
                }
            }
            let kept = file
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |nl| nl + 1);
            let len = fs::metadata(&path).unwrap().len();
            assert_eq!(len, kept as u64, "byte {pos}: unterminated tail truncated");
            for &i in intact {
                self.serves(&mut store, i);
            }
            store.put(self.keys[2], &self.records[2].metrics).unwrap();
            self.serves(&mut store, 2);
        }
        let mut store = ResultStore::open(dir).unwrap();
        for &i in intact.iter().chain(&[2]) {
            self.serves(&mut store, i);
        }
    }
}

#[test]
fn every_single_byte_mutation_of_a_store_line_is_dropped() {
    let fx = fixture();
    let [line_a, line_b] = &fx.lines;
    let dir = scratch_dir("mutations");
    let every: Vec<u8> = (0..=255).collect();

    // The metrics codec on its own, every byte value at every position.
    let metrics_line = metrics_to_json(&fx.records[1].metrics);
    for_each_mutation(metrics_line.as_bytes(), &every, |_, m| {
        let _ = metrics_from_json(&String::from_utf8_lossy(m));
    });

    // The first line, before an intact neighbour. A mutated newline
    // joins the two into one damaged line, and neither is served.
    for_each_mutation(line_a, REPRESENTATIVE_BYTES, |pos, m| {
        let intact: &[usize] = if m.ends_with(b"\n") { &[1] } else { &[] };
        fx.open_and_serve(&dir, &[m, line_b.as_slice()].concat(), 0, intact, pos);
    });

    // The last line: a mutated newline leaves an unterminated tail.
    for_each_mutation(line_b, REPRESENTATIVE_BYTES, |pos, m| {
        fx.open_and_serve(&dir, &[line_a.as_slice(), m].concat(), 1, &[0], pos);
    });
    fs::remove_dir_all(&dir).unwrap();
}
