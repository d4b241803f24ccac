//! The persistent content-addressed result store.
//!
//! ## On-disk layout
//!
//! One append-only file, `<cache-dir>/results.jsonl`, with one JSON
//! line per result:
//!
//! ```text
//! {"key": "<32 hex>", "sum": "<16 hex>", "metrics": {…exact codec…}, "record": {"cycles": …, "edp_js": …}}
//! ```
//!
//! `"sum"` is a 64-bit word-folded checksum ([`fold_words`]), in 16
//! lowercase hex digits: the key's 32 digits are folded from
//! [`FNV_OFFSET`], then every byte after the checksum's closing `", `
//! (the metrics, the record object and the closing brace) is folded on
//! from there. Each fold step is a bijection of the running sum, so a
//! line with any one byte changed fails its checksum.
//!
//! The record object is the tail of the result's record line, the part
//! the metrics alone fix ([`record_json_tail`]); it holds no brace but
//! its own, so it starts after the line's last `{` and ends one byte
//! before the line's end.
//!
//! [`ResultStore::open`] reads the file once and keeps the byte range
//! of each key's line in memory. A hit on the serving path is one seek
//! and one read on the store's one file handle, one checksum, and a
//! copy of the record tail (`ResultStore::read_tail`): nothing is
//! decoded. [`ResultStore::get`] decodes the metrics of a checked line.
//! Eviction is `rm <cache-dir>/results.jsonl` (documented in the
//! README), never an in-place rewrite.
//!
//! ## Crash safety and damage
//!
//! Each result is one `write_all` of its whole line at the file's end,
//! and its entry records where that line landed. An append that fails
//! part-way is cut back to the length the file had before it. A crash
//! can still leave a torn final line, and a disk edit can damage any
//! line. [`ResultStore::open`] indexes a newline-terminated line only
//! when its checksum matches and its key is canonical, and skips every
//! other line, so a damaged line, down to one changed digit, is dropped
//! and re-simulated while its neighbours are served. A line damaged
//! after open fails its checksum when it is read, and the read is an
//! error, never a served value. An unterminated tail is truncated away
//! before the store appends anything new.

use crate::codec::{self, CacheKey};
use crate::fault::{FaultSite, Faults};
use mot3d_bench::sink::record_json_tail;
use mot3d_phys::fnv::{fold_words, FnvHashMap, FNV_OFFSET};
use mot3d_sim::Metrics;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::PathBuf;

/// Hit/miss/insert counters since the store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a cached result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results written.
    pub inserts: u64,
}

/// Byte range of one stored result line, without its newline.
#[derive(Debug, Clone, Copy)]
struct EntryLoc {
    off: u64,
    len: usize,
}

/// A persistent map from [`CacheKey`] to [`Metrics`] — see the module
/// docs for layout and crash-safety.
#[derive(Debug)]
pub struct ResultStore {
    index: FnvHashMap<CacheKey, EntryLoc>,
    /// `results.jsonl`, opened to read and to append.
    file: File,
    /// The last line read, kept so a read allocates nothing.
    line: Vec<u8>,
    stats: StoreStats,
    faults: Faults,
}

/// The checksum of a line with `key` digits and `body`, the bytes after
/// the checksum field.
fn checksum(key: &[u8], body: &[u8]) -> u64 {
    fold_words(fold_words(FNV_OFFSET, key), body)
}

/// `sum` as 16 lowercase hex digits, the spelling a line stores.
fn sum_digits(sum: u64) -> [u8; 16] {
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(sum >> (60 - 4 * i)) as usize & 0xf];
    }
    digits
}

/// Encodes one stored line, newline included.
fn encode_line(key: CacheKey, metrics: &Metrics) -> String {
    let mut body = String::with_capacity(1024);
    let _ = write!(
        body,
        "\"metrics\": {}, \"record\": {{",
        codec::metrics_to_json(metrics)
    );
    record_json_tail(&mut body, metrics);
    body.push('}');
    let key = key.to_hex();
    let sum = checksum(key.as_bytes(), body.as_bytes());
    format!("{{\"key\": \"{key}\", \"sum\": \"{sum:016x}\", {body}\n")
}

/// Checks one stored line (without its newline): its framing, its
/// checksum and its key. Returns the key and the byte range of the
/// record tail.
fn check_line(line: &[u8]) -> Option<(CacheKey, Range<usize>)> {
    let rest = line.strip_prefix(b"{\"key\": \"")?;
    let (key, rest) = rest.split_at_checked(32)?;
    let (sum, rest) = rest
        .strip_prefix(b"\", \"sum\": \"")?
        .split_at_checked(16)?;
    let body = rest.strip_prefix(b"\", ")?;
    if sum != sum_digits(checksum(key, body)) {
        return None;
    }
    let key = CacheKey::from_hex(std::str::from_utf8(key).ok()?)?;
    let end = line.len().checked_sub(1)?;
    let start = line[..end].iter().rposition(|&b| b == b'{')? + 1;
    Some((key, start..end))
}

/// Streams `file` once, one line in memory at a time: indexes every
/// newline-terminated line that passes [`check_line`], skips every other
/// line, and truncates an unterminated tail away.
fn index_lines(file: &File) -> io::Result<FnvHashMap<CacheKey, EntryLoc>> {
    let mut index = FnvHashMap::default();
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    let mut off = 0u64;
    loop {
        line.clear();
        let read = reader.read_until(b'\n', &mut line)?;
        if line.pop() != Some(b'\n') {
            if read > 0 {
                file.set_len(off)?;
            }
            return Ok(index);
        }
        if let Some((key, _)) = check_line(&line) {
            let len = line.len();
            index.insert(key, EntryLoc { off, len });
        }
        off += read as u64;
    }
}

impl ResultStore {
    /// Opens (creating if needed) the store in `dir`, dropping damaged
    /// lines and a torn tail — see the module docs.
    ///
    /// # Errors
    ///
    /// Fails on directory/file I/O errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join("results.jsonl"))?;
        Ok(ResultStore {
            index: index_lines(&file)?,
            file,
            line: Vec::new(),
            stats: StoreStats::default(),
            faults: Faults::none(),
        })
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Counters since open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Attaches a fault-injection plan: a scheduled
    /// [`FaultSite::StoreWrite`] makes [`ResultStore::put`] append the
    /// first half of its line and then fail with an I/O error, so the
    /// put must cut the file back to its old length.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Whether `key` is stored: an index lookup only, no read. Counts a
    /// miss when absent, as [`ResultStore::get`] does; a present key's
    /// hit is counted by the read that follows.
    pub(crate) fn probe(&mut self, key: CacheKey) -> bool {
        let found = self.index.contains_key(&key);
        if !found {
            self.stats.misses += 1;
        }
        found
    }

    /// Reads `key`'s line and checks it (counts a hit or a miss).
    /// Returns the line and its record tail's range, or `None` when
    /// the key is not stored.
    fn read_checked(&mut self, key: CacheKey) -> io::Result<Option<(&[u8], Range<usize>)>> {
        let Some(loc) = self.index.get(&key).copied() else {
            self.stats.misses += 1;
            return Ok(None);
        };
        self.line.resize(loc.len, 0);
        self.file.seek(SeekFrom::Start(loc.off))?;
        self.file.read_exact(&mut self.line)?;
        let tail = match check_line(&self.line) {
            Some((stored, tail)) if stored == key => tail,
            Some(_) => return Err(invalid("entry points at a different key")),
            None => return Err(invalid("stored line fails its checksum")),
        };
        self.stats.hits += 1;
        Ok(Some((&self.line, tail)))
    }

    /// The serving path's read of a probed key: appends its stored
    /// record tail to `out` as stored, without decoding it (counts the
    /// hit).
    ///
    /// # Errors
    ///
    /// Fails when the key is not stored, or its line cannot be read back
    /// or fails its checksum (on-disk damage after open).
    pub(crate) fn read_tail(&mut self, key: CacheKey, out: &mut String) -> io::Result<()> {
        let (line, tail) = self
            .read_checked(key)?
            .ok_or_else(|| invalid("indexed result vanished"))?;
        let tail = std::str::from_utf8(&line[tail]).map_err(|_| invalid("non-UTF-8 record"))?;
        out.push_str(tail);
        Ok(())
    }

    /// Looks up a cached result and decodes its metrics (counts a hit
    /// or a miss).
    ///
    /// # Errors
    ///
    /// Fails when the stored line cannot be read back, fails its
    /// checksum, or no longer decodes (on-disk damage after open).
    pub fn get(&mut self, key: CacheKey) -> io::Result<Option<Metrics>> {
        let Some((line, tail)) = self.read_checked(key)? else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&line[..tail.start])
            .map_err(|_| invalid("non-UTF-8 store line"))?;
        let metrics = head
            .split_once("\"metrics\": ")
            .and_then(|(_, rest)| rest.strip_suffix(", \"record\": {"))
            .ok_or_else(|| invalid("store line has no metrics"))?;
        codec::metrics_from_json(metrics).map(Some).map_err(invalid)
    }

    /// Inserts a result (idempotent: re-inserting an existing key is a
    /// no-op) as one write of its whole line at the file's end.
    ///
    /// # Errors
    ///
    /// Fails on write errors, after cutting the file back to its length
    /// before the write, so no fragment is left for the next line to
    /// land after.
    pub fn put(&mut self, key: CacheKey, metrics: &Metrics) -> io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        let line = encode_line(key, metrics);
        let before = self.file.metadata()?.len();
        let written = if self.faults.should_fail(FaultSite::StoreWrite) {
            self.file
                .write_all(&line.as_bytes()[..line.len() / 2])
                .and(Err(io::Error::other("injected fault: store write")))
        } else {
            self.file.write_all(line.as_bytes())
        };
        if let Err(e) = written {
            self.file.set_len(before)?;
            return Err(e);
        }
        // An append leaves the position at the file's end, just past
        // this line, wherever earlier bytes left that end.
        let off = self
            .file
            .stream_position()?
            .checked_sub(line.len() as u64)
            .ok_or_else(|| invalid("results file shrank during a write"))?;
        let len = line.len() - 1;
        self.index.insert(key, EntryLoc { off, len });
        self.stats.inserts += 1;
        Ok(())
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{cache_key, Fingerprint};
    use mot3d_bench::plan::ExperimentPlan;
    use mot3d_bench::ExperimentScale;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mot3d-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records(n: usize) -> Vec<mot3d_bench::plan::RunRecord> {
        ExperimentPlan::new("store")
            .page_policies([false, true])
            .scale(ExperimentScale::tiny())
            .threads(1)
            .run()
            .unwrap()
            .into_iter()
            .take(n)
            .collect()
    }

    #[test]
    fn put_get_round_trips_across_reopen() {
        let dir = scratch_dir("roundtrip");
        let fp = Fingerprint::current();
        let records = sample_records(3);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for r in &records {
                store.put(cache_key(&fp, &r.point), &r.metrics).unwrap();
            }
            assert_eq!(store.stats().inserts, 3);
            assert_eq!(store.len(), 3);
            let m = store
                .get(cache_key(&fp, &records[1].point))
                .unwrap()
                .unwrap();
            assert_eq!(m, records[1].metrics);
            assert_eq!(store.stats().hits, 1);
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3, "entries persist");
        for r in &records {
            let m = store.get(cache_key(&fp, &r.point)).unwrap().unwrap();
            assert_eq!(m, r.metrics, "bit-identical across restart");
        }
        assert!(store
            .get(cache_key(&Fingerprint::custom("x"), &records[0].point))
            .unwrap()
            .is_none());
        assert_eq!(store.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinsert_is_idempotent() {
        let dir = scratch_dir("idem");
        let fp = Fingerprint::current();
        let records = sample_records(1);
        let mut store = ResultStore::open(&dir).unwrap();
        let key = cache_key(&fp, &records[0].point);
        store.put(key, &records[0].metrics).unwrap();
        store.put(key, &records[0].metrics).unwrap();
        assert_eq!(store.stats().inserts, 1);
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A put after bytes that another writer appended (a torn line,
    /// here a foreign fragment) is read back from where its line
    /// landed, not from where the store's last line ended. After a
    /// reopen the fragment and the line are one damaged line: the entry
    /// is missing, never misread.
    #[test]
    fn a_put_after_a_foreign_fragment_is_read_back_where_it_landed() {
        let dir = scratch_dir("fragment");
        let fp = Fingerprint::current();
        let records = sample_records(2);
        let keys: Vec<CacheKey> = records.iter().map(|r| cache_key(&fp, &r.point)).collect();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.put(keys[0], &records[0].metrics).unwrap();
            OpenOptions::new()
                .append(true)
                .open(dir.join("results.jsonl"))
                .unwrap()
                .write_all(b"{\"key\": \"dead")
                .unwrap();
            store.put(keys[1], &records[1].metrics).unwrap();
            for (key, r) in keys.iter().zip(&records) {
                assert_eq!(store.get(*key).unwrap().as_ref(), Some(&r.metrics));
            }
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(
            store.get(keys[0]).unwrap().as_ref(),
            Some(&records[0].metrics)
        );
        let joined = store.get(keys[1]).unwrap();
        assert!(joined.is_none() || joined.as_ref() == Some(&records[1].metrics));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A line damaged on disk, between two intact ones, is dropped at
    /// open: its key misses (so it is re-simulated and re-put) and its
    /// neighbours are served.
    #[test]
    fn a_damaged_line_is_dropped_and_its_neighbours_served() {
        let dir = scratch_dir("damaged");
        let fp = Fingerprint::current();
        let records = sample_records(3);
        let keys: Vec<CacheKey> = records.iter().map(|r| cache_key(&fp, &r.point)).collect();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for (key, r) in keys.iter().zip(&records) {
                store.put(*key, &r.metrics).unwrap();
            }
        }
        let path = dir.join("results.jsonl");
        let mut data = fs::read(&path).unwrap();
        let second = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        data[second] = b'x';
        fs::write(&path, &data).unwrap();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.get(keys[1]).unwrap(), None);
            for i in [0, 2] {
                assert_eq!(
                    store.get(keys[i]).unwrap().as_ref(),
                    Some(&records[i].metrics)
                );
            }
            store.put(keys[1], &records[1].metrics).unwrap();
        }
        let mut store = ResultStore::open(&dir).unwrap();
        for (key, r) in keys.iter().zip(&records) {
            assert_eq!(store.get(*key).unwrap().as_ref(), Some(&r.metrics));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Store torture: a file of three lines, cut at every byte offset.
    /// Every complete line is served; the torn tail is truncated away
    /// and never served; a new put reads back after a further reopen.
    #[test]
    fn every_truncation_serves_the_complete_lines_and_drops_the_torn_tail() {
        let dir = scratch_dir("torture");
        let fp = Fingerprint::current();
        let records = sample_records(4);
        let keys: Vec<CacheKey> = records.iter().map(|r| cache_key(&fp, &r.point)).collect();
        let (stored, fresh) = (0..3, 3);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for i in stored.clone() {
                store.put(keys[i], &records[i].metrics).unwrap();
            }
        }
        let path = dir.join("results.jsonl");
        let data = fs::read(&path).unwrap();
        let ends: Vec<usize> = (0..data.len())
            .filter(|&i| data[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert_eq!(ends.len(), 3);
        for cut in 0..=data.len() {
            fs::write(&path, &data[..cut]).unwrap();
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            let kept = ends[..complete].last().copied().unwrap_or(0);
            {
                let mut store = ResultStore::open(&dir).unwrap();
                assert_eq!(store.len(), complete, "cut {cut}");
                assert_eq!(fs::metadata(&path).unwrap().len(), kept as u64, "cut {cut}");
                for i in stored.clone() {
                    let want = (i < complete).then_some(&records[i].metrics);
                    assert_eq!(store.get(keys[i]).unwrap().as_ref(), want, "cut {cut}");
                }
                store.put(keys[fresh], &records[fresh].metrics).unwrap();
            }
            let mut store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.len(), complete + 1, "cut {cut}");
            assert_eq!(
                store.get(keys[fresh]).unwrap().as_ref(),
                Some(&records[fresh].metrics),
                "cut {cut}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A put whose append fails part-way (the injected fault writes half
    /// its line) cuts the file back: the next put lands on a line
    /// boundary and is served after a reopen, and the file holds whole
    /// lines only.
    #[test]
    fn a_failed_append_is_cut_back_and_the_next_put_is_served_after_reopen() {
        use crate::fault::FaultPlan;
        let dir = scratch_dir("torn-append");
        let fp = Fingerprint::current();
        let records = sample_records(3);
        let keys: Vec<CacheKey> = records.iter().map(|r| cache_key(&fp, &r.point)).collect();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.set_faults(Faults::plan(
                FaultPlan::new().fail(FaultSite::StoreWrite, 1),
            ));
            store.put(keys[0], &records[0].metrics).unwrap();
            let err = store.put(keys[1], &records[1].metrics).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{err}");
            store.put(keys[2], &records[2].metrics).unwrap();
        }
        let data = fs::read(dir.join("results.jsonl")).unwrap();
        assert!(data.ends_with(b"\n"));
        for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            assert!(check_line(line).is_some(), "a whole, checked line");
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(keys[1]).unwrap(), None);
        for i in [0, 2] {
            assert_eq!(
                store.get(keys[i]).unwrap().as_ref(),
                Some(&records[i].metrics)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A hit's record tail is the tail `record_json_line` writes for
    /// the same metrics, byte for byte, so head + stored tail is the
    /// offline record line.
    #[test]
    fn the_stored_tail_completes_the_offline_record_line() {
        let dir = scratch_dir("tail");
        let fp = Fingerprint::current();
        let records = sample_records(2);
        let mut store = ResultStore::open(&dir).unwrap();
        for r in &records {
            store.put(cache_key(&fp, &r.point), &r.metrics).unwrap();
        }
        for r in &records {
            let mut line = String::new();
            mot3d_bench::sink::record_json_head(&mut line, &r.point);
            store
                .read_tail(cache_key(&fp, &r.point), &mut line)
                .unwrap();
            assert_eq!(line, mot3d_bench::sink::record_json_line(r));
        }
        let mut untouched = String::new();
        let absent = cache_key(&Fingerprint::custom("x"), &records[0].point);
        assert!(store.read_tail(absent, &mut untouched).is_err());
        assert!(untouched.is_empty());
        assert_eq!(store.stats().hits, 2);
        assert_eq!(store.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The stored sum is compared against this spelling, so it must be
    /// the one `encode_line` writes: 16 lowercase digits.
    #[test]
    fn sum_digits_spell_the_stored_hex() {
        for sum in [0, 1, 0xabc, u64::MAX, 0x0123_4567_89ab_cdef, 1 << 63] {
            assert_eq!(
                sum_digits(sum),
                format!("{sum:016x}").as_bytes(),
                "{sum:#x}"
            );
        }
    }

    /// The cache fingerprint hashes the record layout and this line
    /// format: a hit replays their bytes, so an edit to either must
    /// turn every stored line into a miss.
    #[test]
    fn the_fingerprint_hashes_the_record_layout_and_the_line_format() {
        let build = include_str!("../build.rs");
        for file in [
            "\"crates/bench/src/sink.rs\"",
            "\"crates/serve/src/store.rs\"",
        ] {
            assert!(build.contains(file), "build.rs hashes {file}");
        }
    }

    #[test]
    fn truncated_segment_tail_is_dropped_and_store_keeps_working() {
        let dir = scratch_dir("repair-seg");
        let fp = Fingerprint::current();
        let records = sample_records(2);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store
                .put(cache_key(&fp, &records[0].point), &records[0].metrics)
                .unwrap();
        }
        // Simulate a crash mid-write: a partial final line.
        let path = dir.join("results.jsonl");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\": \"dead").unwrap();
        drop(f);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.len(), 1);
            // The garbage tail was truncated away: a new insert starts
            // on a clean line boundary and reads back fine.
            store
                .put(cache_key(&fp, &records[1].point), &records[1].metrics)
                .unwrap();
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        for r in &records {
            assert_eq!(
                store.get(cache_key(&fp, &r.point)).unwrap().unwrap(),
                r.metrics
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
