//! Decoder fuzz: every decoder that reads bytes from a socket or from the
//! cache directory returns `Ok` or a typed `Err` on arbitrary input, and
//! never panics.
//!
//! Two kinds of input:
//! * arbitrary strings (JSON punctuation, hex digits, signs, multi-byte
//!   and astral characters) through `PlanRequest::parse` (and
//!   `to_plan`), `codec::metrics_from_json` and `CacheKey::from_hex`;
//! * single-byte mutations of a valid request line, metrics line, index
//!   line and store segment line. The decoders see every byte value at
//!   every position. `ResultStore::open` sees every position of an index
//!   line and of a segment line (indexed, and as an un-indexed tail)
//!   with one byte of each class the parsers branch on; each open is a
//!   real open of the mutated files. A line that no longer parses is
//!   dropped, and the store keeps serving its other entries and new
//!   ones.

use mot3d_bench::plan::{ExperimentPlan, RunRecord};
use mot3d_bench::ExperimentScale;
use mot3d_serve::codec::{metrics_from_json, metrics_from_value, metrics_to_json};
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
    request.trace = true;
    let line = request.to_line();
    assert_eq!(PlanRequest::parse(&line), Ok(request));
    let every: Vec<u8> = (0..=255).collect();
    for_each_mutation(line.as_bytes(), &every, |_, m| {
        decode_all(&String::from_utf8_lossy(m))
    });
}

/// Three records and the exact segment and index bytes a store writes
/// for the first two.
struct Fixture {
    records: Vec<RunRecord>,
    keys: Vec<CacheKey>,
    seg_lines: [Vec<u8>; 2],
    index_lines: [Vec<u8>; 2],
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
    let lines = |name: &str| -> [Vec<u8>; 2] {
        let data = fs::read(dir.join(name)).unwrap();
        let mut it = data.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec);
        let pair = [it.next().unwrap(), it.next().unwrap()];
        assert!(it.next().is_none());
        pair
    };
    let (seg_lines, index_lines) = (lines("seg-00000.jsonl"), lines("index.jsonl"));
    fs::remove_dir_all(&dir).unwrap();
    Fixture {
        records,
        keys,
        seg_lines,
        index_lines,
    }
}

/// Whether `line` would be accepted as a store segment line: one
/// newline-terminated JSON object with a canonical key and metrics.
fn segment_line_key(line: &[u8]) -> Option<CacheKey> {
    let text = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
    if text.contains('\n') {
        return None;
    }
    let v = json::parse(text).ok()?;
    let key = CacheKey::from_hex(v.get("key")?.as_str()?)?;
    metrics_from_value(v.get("metrics")?).ok()?;
    Some(key)
}

/// Whether `line` would be accepted as an index line.
fn index_line_parses(line: &[u8]) -> bool {
    let body = line.strip_suffix(b"\n").unwrap_or(line);
    let parse = || -> Option<u64> {
        let v = json::parse(std::str::from_utf8(body).ok()?).ok()?;
        CacheKey::from_hex(v.get("key")?.as_str()?)?;
        u32::try_from(v.get("seg")?.as_u64()?).ok()?;
        v.get("off")?.as_u64()?;
        v.get("len")?.as_u64()
    };
    !body.contains(&b'\n') && parse().is_some()
}

impl Fixture {
    /// Writes the two store files and opens the store over them.
    fn open(&self, dir: &Path, seg: &[u8], index: &[u8]) -> ResultStore {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("seg-00000.jsonl"), seg).unwrap();
        fs::write(dir.join("index.jsonl"), index).unwrap();
        ResultStore::open(dir).unwrap()
    }

    /// Asserts that `store` serves record `i` unchanged.
    fn serves(&self, store: &mut ResultStore, i: usize) {
        let got = store.get(self.keys[i]).unwrap();
        assert_eq!(got.as_ref(), Some(&self.records[i].metrics), "record {i}");
    }

    /// Opens the store over the two files, runs `inspect` on it, then
    /// proves it keeps serving: a new result goes in and comes back
    /// out, also after a reopen, and record `intact` is served unchanged
    /// throughout.
    fn open_and_serve(
        &self,
        dir: &Path,
        seg: &[u8],
        index: &[u8],
        intact: usize,
        inspect: impl FnOnce(&mut ResultStore),
    ) {
        {
            let mut store = self.open(dir, seg, index);
            self.serves(&mut store, intact);
            inspect(&mut store);
            store.put(self.keys[2], &self.records[2].metrics).unwrap();
            self.serves(&mut store, 2);
        }
        let mut store = ResultStore::open(dir).unwrap();
        self.serves(&mut store, intact);
        self.serves(&mut store, 2);
    }
}

#[test]
fn every_single_byte_mutation_of_a_store_line_is_dropped_or_served() {
    let fx = fixture();
    let [seg_a, seg_b] = &fx.seg_lines;
    let [index_a, index_b] = &fx.index_lines;
    let dir = scratch_dir("mutations");
    let every: Vec<u8> = (0..=255).collect();

    // The metrics codec on its own, every byte value at every position.
    let metrics_line = metrics_to_json(&fx.records[1].metrics);
    for_each_mutation(metrics_line.as_bytes(), &every, |_, m| {
        let _ = metrics_from_json(&String::from_utf8_lossy(m));
    });

    // The index line of the last entry. Record 1's segment line is the
    // segment's tail, so when its index line no longer parses the open
    // re-indexes it from the segment; when the line parses to something
    // else, the entry is served correctly, missed, or refused.
    let seg = [seg_a.as_slice(), seg_b].concat();
    for_each_mutation(index_b, REPRESENTATIVE_BYTES, |pos, m| {
        let index = [index_a.as_slice(), m].concat();
        fx.open_and_serve(&dir, &seg, &index, 0, |store| match store.get(fx.keys[1]) {
            Ok(Some(metrics)) => assert_eq!(metrics, fx.records[1].metrics, "byte {pos}"),
            Ok(None) => assert!(
                index_line_parses(m),
                "byte {pos}: line dropped, not re-indexed"
            ),
            Err(_) => {}
        });
    });

    // The un-indexed tail line: dropped (and truncated away) unless it
    // still parses, in which case it is indexed under the key it names.
    for_each_mutation(seg_b, REPRESENTATIVE_BYTES, |pos, m| {
        let seg = [seg_a.as_slice(), m].concat();
        fx.open_and_serve(&dir, &seg, index_a, 0, |store| match segment_line_key(m) {
            Some(key) => {
                assert_eq!(store.len(), 2, "byte {pos}");
                assert!(store.get(key).unwrap().is_some(), "byte {pos}");
            }
            None => {
                assert_eq!(store.len(), 1, "byte {pos}");
                assert_eq!(store.get(fx.keys[1]).unwrap(), None, "byte {pos}");
                let len = fs::metadata(dir.join("seg-00000.jsonl")).unwrap().len();
                assert_eq!(len, seg_a.len() as u64, "byte {pos}: tail truncated");
            }
        });
    });

    // An indexed line: its own lookup may fail, its neighbour's may not.
    let index = [index_a.as_slice(), index_b].concat();
    for_each_mutation(seg_a, REPRESENTATIVE_BYTES, |_, m| {
        let mut store = fx.open(&dir, &[m, seg_b.as_slice()].concat(), &index);
        let _ = store.get(fx.keys[0]);
        fx.serves(&mut store, 1);
    });
    fs::remove_dir_all(&dir).unwrap();
}
